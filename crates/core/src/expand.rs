//! Expand (Algorithm 5, Appendix C): give every candidate table access to
//! the source key.
//!
//! Matrix initialisation needs each candidate to contain the source's key
//! column(s) so its tuples can be aligned. Candidates that lack the key are
//! joined, via a best join path, with candidates that have it: the
//! candidates form a graph (edge = joinable columns, weight = estimated
//! join overlap via value containment — "standard join cardinality
//! estimation"), and for each keyless *start* table we search for the
//! max-weight simple path to any key-carrying *end* table, then fold the
//! path with natural joins.
//!
//! # The join engine
//!
//! The original implementation (kept verbatim in [`mod@reference`] as the
//! executable specification) enumerated **every** simple path with a
//! bounded-depth DFS and re-joined each winning path left-to-right from
//! scratch. Three observations make that the pipeline's hot path on real
//! candidate sets, and three mechanisms remove it:
//!
//! 1. **Best-first search under a reach bound.** Edge containments are
//!    ≤ 1, so a path's weight only shrinks as it grows. Beside the pair
//!    weights, each call computes one table (`reach_table`):
//!    `reach[r][v]`, the heaviest product of edge weights on a walk of at
//!    most `r` hops from `v` to a key-carrying *end* — `1` at an end (ends
//!    are terminal), else `reach[0][v] = 0` and `reach[r][v] =
//!    max_u w(v,u)·reach[r−1][u]`; `max_depth · n²` multiplies, shared by
//!    every start. A partial path of weight `W` and length `L` at `v`
//!    completes to no end heavier than its *bound* `W·reach[max_depth −
//!    L][v]`. A max-heap ordered by (bound, then shorter, then
//!    lexicographic path) pops partial paths; a start whose
//!    `reach[max_depth][start]` is 0 pops nothing, a child whose bound is
//!    0 is never pushed, and a subtree is expanded only while its bound
//!    says some end's recorded best could still be improved. Ends are
//!    recorded on pop with the reference's better-path predicate, plus the
//!    lexicographic tie-break its DFS preorder applies implicitly.
//!
//!    *Why the result is the DFS's.* Two facts. An end's own entry has
//!    bound = weight exactly (`reach` of an end is 1), so one end's paths
//!    pop in (weight, length, path) order — the order the predicate
//!    expects, best first. And the bound is *consistent*: `reach[r][v] ≥
//!    w(v,u)·reach[r−1][u]`, so a child's bound never exceeds its
//!    parent's, and nothing popped after an entry reaches an end heavier
//!    than that entry's bound. Since later pops are never heavier than
//!    earlier ones by more than rounding, a recorded path is only ever
//!    replaced by one inside its `EPS` band that is shorter, or as long
//!    and lexicographically first. The stop test ends the search once
//!    every end is recorded and the popped bound lies below every recorded
//!    weight's band; the subtree test drops a partial path when no
//!    completion — at least one hop longer, no heavier than its bound —
//!    could win such a tie against any recorded path. Neither drops a path
//!    that could replace a recorded one. The subtree test must weigh the
//!    lexicographic case too: `⅓·0.6` is one ulp below `0.25·0.8`, so
//!    the lighter of two such 2-hop paths — first in the DFS's preorder,
//!    hence its answer — pops *after* the heavier, from a parent whose
//!    bound is already below the recorded weight.
//!
//!    *Rounding.* A child's bound is `fl(fl(W·w₂)·w₃)` where its parent's
//!    is `fl(W·fl(w₂·w₃))`; the two differ by up to 2 ulps, so the bound
//!    is consistent only to a few ulps per hop (≤ 10⁻¹⁵ for weights ≤ 1
//!    over `expand_max_depth` = 3), three orders of magnitude inside the
//!    predicate's `EPS = 1e-12`. Two paths to one end that the rounding
//!    lets pop out of weight order are within a few ulps of each other —
//!    inside each other's band, where the predicate picks by (length,
//!    path) whichever pops first — and a completion that overshoots a cut
//!    parent's bound by a few ulps still lies below the band that cut it.
//!    Either could change a result only if two path weights to one end
//!    differed by `EPS` to within those few ulps: the knife edge on which
//!    the reference's own `EPS` comparison already depends on visit order.
//!
//!    The bound matters on dense candidate graphs with a weak best end,
//!    where ordering by partial weight pops nearly every ≤ 3-hop path
//!    before the stop test can fire. Heap pops per serial pass (seed 7,
//!    default config): SANTOS + TP-TR Med 4 060 396 → 583 532, TP-TR Med
//!    659 151 → 243 227, TP-TR Small 601 912 → 243 494 (`docs/matrix-arena.md`).
//! 2. **A sub-join memo keyed on the table-index path suffix.** Paths are
//!    folded right-to-left (`join(p) = c[p₀] ⋈ join(p₁..)`), so the many
//!    keyless starts that funnel through the same key-carrier chains fold
//!    each shared suffix exactly once. Natural join is associative here
//!    (every consecutive pair shares columns and `gent_ops::inner_join`
//!    orders output columns left-then-new and rows left-major), so the
//!    right fold is byte-identical to the reference's left fold.
//! 3. **Reusable join row-index maps.** Each memoized suffix table is
//!    hashed on its join columns once ([`gent_ops::JoinIndex`], cached per
//!    (suffix, join-column set)) and probed by every start that joins
//!    against it, instead of rebuilding the hash map per join.
//!
//! The **last** join of a path — `start ⋈ fold(rest)`, the only one whose
//! output no other path shares — is never built: it stays a `JoinView`
//! of `(left row, right row)` index pairs over its two inputs, which is
//! all the fingerprint, the dedup check and matrix alignment need. The
//! traversal turns the few expansions it selects into rows
//! (`Expansion::to_table`); the rest never exist.
//!
//! Expanded tables that fold to the same relation (same columns up to
//! order, same row multiset) are deduplicated — different paths routinely
//! produce identical joins, and the traversal would score each copy.
//! Every expansion is fingerprinted as it is joined (one add per index
//! pair), compared with the earlier expansions of its shape, and a
//! fingerprint match is confirmed by an exact comparison before anything
//! is dropped. A memoized suffix join keeps its rows' fingerprint terms,
//! folded the same way through its own pairs, so the joins stacked on it
//! hash only its join and key columns — never the cells it copied.
//!
//! Nothing here hashes a [`Value`]: distinct sets, join keys, source-key
//! hashes and fingerprint terms are all derived from the per-column cell
//! hashes the tables' shared row storage holds
//! ([`Table::column_hashes`]), so a lake table is hashed once per lake
//! generation — not once per request — and only in the columns something
//! asks for (`docs/matrix-arena.md`, "What is hashed, when, and for how
//! long"). Everything is counted in [`ExpandStats`] and surfaced as
//! `gent_expand_*` counters plus a per-candidate `expand_candidate` span.

use crate::matrix::Rows;
use gent_ops::{
    inner_join_indexed, inner_join_pairs, join_layout, left_key_hashes, JoinIndex, JoinLayout,
};
use gent_table::fxhash::FxHasher;
use gent_table::{
    cell_hash_is_null_like, fold_cell_hash, FxHashMap, FxHashSet, Schema, Table, Value,
};
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Weight-comparison slack, shared with the reference DFS's tie handling.
const EPS: f64 = 1e-12;

/// The candidates' per-column distinct-value sets, as [`join_weight`]
/// intersects them: [`Table::column_distinct_hashes`] — sorted `u64` runs
/// borrowed from the tables' row storage, where they outlive the request —
/// for every column whose name some *other* candidate also has. A column
/// no one shares is on no join edge and is never asked for.
///
/// Containment intersects two runs with a linear merge: no `Value`
/// comparisons, nothing hashed per pair. Equal values always share a hash;
/// distinct values colliding (~2⁻⁶³) can only nudge a heuristic edge
/// weight, and both engines share the same weights either way.
struct DistinctCache<'t> {
    /// Per table, per column: the run, or `None` for an unshared column.
    columns: Vec<Vec<Option<&'t [u64]>>>,
}

impl<'t> DistinctCache<'t> {
    fn new(tables: &'t [Table]) -> DistinctCache<'t> {
        let mut holders: FxHashMap<&str, usize> = FxHashMap::default();
        for name in tables.iter().flat_map(|t| t.schema().columns()) {
            *holders.entry(name).or_default() += 1;
        }
        let columns = tables
            .iter()
            .map(|t| {
                let shared = |(j, name)| (holders[name] > 1).then(|| t.column_distinct_hashes(j));
                t.schema().columns().enumerate().map(shared).collect()
            })
            .collect();
        DistinctCache { columns }
    }
}

/// Estimated edge weight between two candidate tables: the best value
/// containment among their shared columns — a proxy for how much of `a`
/// survives the join (standard cardinality-estimation style). Identical to
/// recomputing the distinct sets per call (the overlap counts the same
/// intersection, iterating whichever set is smaller).
fn join_weight(a: (usize, &Table), b: (usize, &Table), cache: &DistinctCache<'_>) -> Option<f64> {
    let common = a.1.schema().common_columns(b.1.schema());
    if common.is_empty() {
        return None;
    }
    let mut best = 0.0f64;
    for col in &common {
        let ai = a.1.schema().column_index(col).expect("common");
        let bi = b.1.schema().column_index(col).expect("common");
        let av = cache.columns[a.0][ai].expect("a common column is shared");
        if av.is_empty() {
            continue;
        }
        let bv = cache.columns[b.0][bi].expect("a common column is shared");
        // Sorted-run intersection (both runs are distinct and ascending).
        let (mut i, mut j, mut shared) = (0usize, 0usize, 0usize);
        while i < av.len() && j < bv.len() {
            match av[i].cmp(&bv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let overlap = shared as f64 / av.len() as f64;
        best = best.max(overlap);
    }
    (best > 0.0).then_some(best)
}

/// Does `schema` contain every source key column (by name)?
fn has_key(schema: &Schema, key_names: &[&str]) -> bool {
    key_names.iter().all(|k| schema.contains(k))
}

/// How many alternative join paths each keyless candidate may expand into.
/// Nullified/erroneous lake tables rarely cover all source keys through a
/// single partner — e.g. a dimension must join through *both* nullified
/// versions of the fact table to reach every key — so Expand materialises
/// the best path to each of the strongest end nodes and lets the matrix
/// traversal decide which expansions actually help.
const PATHS_PER_CANDIDATE: usize = 6;

/// Counters from one Expand run, surfaced through
/// [`TraversalOutcome`](crate::TraversalOutcome) into the pipeline
/// [`Timings`](crate::Timings), `POST /reclaim` responses, and the
/// `gent_expand_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpandStats {
    /// Partial join paths examined by the best-first search (heap pops) —
    /// the work the exhaustive DFS did for *every* simple path, here only
    /// for paths whose reach bound could still matter (module docs, item 1).
    pub paths_considered: u64,
    /// Suffix sub-joins answered from the memo instead of being re-folded.
    pub memo_hits: u64,
    /// Keyless candidates dropped because no join path produced a usable
    /// key-carrying table (unreachable, empty join, or failed join).
    pub candidates_dropped: u64,
    /// Expanded tables dropped because an identical relation (same columns
    /// up to order, same rows) was already produced by another path.
    pub dedup_dropped: u64,
}

/// A partial path in the best-first search. Max-heap order: higher bound
/// first, then shorter path, then lexicographically smaller path — so pop
/// order is deterministic, and an end's entries (whose bound is their
/// weight) pop in (weight, length, path) order.
struct Entry {
    /// `weight · reach[max_depth − len][node]`: no completion of `path`
    /// reaches an end heavier than this ([`reach_table`]).
    bound: f64,
    /// Product of edge containments along `path`.
    weight: f64,
    /// Current node (last element of `path`, or the start node).
    node: usize,
    /// Nodes visited after the start, in order.
    path: Vec<usize>,
}

impl Entry {
    fn key_cmp(&self, other: &Entry) -> std::cmp::Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| other.path.len().cmp(&self.path.len()))
            .then_with(|| other.path.cmp(&self.path))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.key_cmp(other).is_eq()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> std::cmp::Ordering {
        self.key_cmp(other)
    }
}

/// `reach[r][v]`: the heaviest product of edge weights along any walk of at
/// most `r` hops from `v` to an end, ends terminal — `1` at an end, `0`
/// where no end is that close. One table serves every start of a call: a
/// walk may revisit the start or a node already on the path, which only
/// loosens the bound for simple paths, and a `0` stays exact.
fn reach_table(
    weights: &[Vec<Option<f64>>],
    ends: &FxHashSet<usize>,
    max_depth: usize,
) -> Vec<Vec<f64>> {
    let at_end: Vec<f64> =
        (0..weights.len()).map(|v| if ends.contains(&v) { 1.0 } else { 0.0 }).collect();
    let mut reach = vec![at_end];
    for r in 1..=max_depth {
        let mut next = reach[0].clone();
        for (v, out) in weights.iter().enumerate() {
            if next[v] == 0.0 {
                let hop =
                    |best: f64, (w, &p): (&Option<f64>, &f64)| w.map_or(best, |w| best.max(w * p));
                next[v] = out.iter().zip(&reach[r - 1]).fold(0.0, hop);
            }
        }
        reach.push(next);
    }
    reach
}

/// Best-first search for max-weight simple paths `start → … → end` where
/// `end` carries the key, at most `reach.len() − 1` hops long. Returns the
/// best path per distinct end node, strongest first (up to
/// [`PATHS_PER_CANDIDATE`]), each path as candidate indices excluding
/// `start` — the same result set as the reference's exhaustive DFS, found
/// without enumerating provably-losing subtrees (module docs, item 1).
fn best_paths(
    start: usize,
    weights: &[Vec<Option<f64>>],
    reach: &[Vec<f64>],
    ends: &FxHashSet<usize>,
    paths_considered: &mut u64,
) -> Vec<Vec<usize>> {
    let max_depth = reach.len() - 1;
    let bound = reach[max_depth][start];
    if bound == 0.0 {
        return Vec::new(); // no end within reach: nothing to search
    }
    // Best (weight, path) per end node, under the reference's predicate.
    let mut best: FxHashMap<usize, (f64, Vec<usize>)> = FxHashMap::default();
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    heap.push(Entry { bound, weight: 1.0, node: start, path: Vec::new() });
    while let Some(Entry { bound, weight, node, path }) = heap.pop() {
        *paths_considered += 1;
        if ends.contains(&node) {
            let better = match best.get(&node) {
                None => true,
                Some((w, p)) => {
                    weight > *w + EPS
                        || ((weight - *w).abs() <= EPS
                            && (path.len() < p.len() || (path.len() == p.len() && path < *p)))
                }
            };
            if better {
                best.insert(node, (weight, path));
            }
            continue; // a path through an end node never needs to continue
        }
        // Sound early termination: every end already has a recorded path,
        // and this entry — the highest bound still pending — sits strictly
        // below every recorded weight's EPS band. The bound is consistent,
        // so nothing the heap still holds (or could ever produce) reaches
        // an end inside a band, and no recorded path can be replaced.
        if best.len() == ends.len() && best.values().all(|(w, _)| bound < *w - EPS) {
            break;
        }
        if path.len() >= max_depth {
            continue;
        }
        // Branch & bound: every completion of this partial path weighs at
        // most `bound` and is at least one hop longer, so the subtree is
        // worth expanding only while some end is unrecorded or could still
        // be improved by such a completion: heavier, or inside the band and
        // shorter — or as long and lexicographically first.
        let len = path.len();
        let can_improve = best.len() < ends.len()
            || best.values().any(|(w, p)| {
                bound > *w + EPS
                    || (bound >= *w - EPS
                        && (len + 1 < p.len() || (len + 1 == p.len() && path[..] < p[..len])))
            });
        if !can_improve {
            continue;
        }
        let hops_left = &reach[max_depth - len - 1];
        for (next, w) in weights[node].iter().enumerate() {
            let Some(w) = w else { continue };
            if next == start || path.contains(&next) {
                continue;
            }
            let weight = weight * w;
            let bound = weight * hops_left[next];
            if bound > 0.0 {
                let mut p = path.clone();
                p.push(next);
                heap.push(Entry { bound, weight, node: next, path: p });
            }
        }
    }
    let mut ranked: Vec<(usize, f64, Vec<usize>)> =
        best.into_iter().map(|(end, (w, p))| (end, w, p)).collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).expect("finite").then(a.2.len().cmp(&b.2.len())).then(a.0.cmp(&b.0))
    });
    ranked.into_iter().take(PATHS_PER_CANDIDATE).map(|(_, _, p)| p).collect()
}

/// A table's identity as a *relation* ignores the name, the column order,
/// and the row order: two expanded tables equal under that identity
/// produce identical alignment matrices (matrix construction keys rows by
/// value and never reads column order, row order, or the table name), so
/// scoring both is pure duplicate work. Detection has three tiers, and
/// every expansion goes through the first two: its *shape* (sorted column
/// names + row count) picks a bucket, its order-independent fingerprint —
/// folded while the join's pairs are produced — is compared with the
/// bucket's, and only a fingerprint match runs the exact multiset
/// comparison ([`same_relation`]), so a non-duplicate can never be
/// dropped. The fingerprint is eager because the shape test does not
/// filter: more than half of a TP-TR Med pass's expansions share their
/// shape with an earlier one (1 358 of ≈ 2 290), and without fingerprints
/// each of those would be an exact comparison.
///
/// The column permutation that sorts `schema`'s column names.
fn sorted_order(schema: &Schema) -> Vec<usize> {
    let names: Vec<&str> = schema.columns().collect();
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by_key(|&j| names[j]);
    order
}

/// Seed for one column's (name, cell) pair terms.
fn column_seed(name: &str) -> u64 {
    let mut h = FxHasher::default();
    name.hash(&mut h);
    h.finish()
}

/// The fingerprint term of one (column, cell) pair: the column's seed mixed
/// with the cell's hash ([`Table::column_hashes`]) — a multiply and a
/// shift, so the term is not linear in either and equal cells under
/// different columns do not cancel.
#[inline]
fn pair_term(seed: u64, cell: u64) -> u64 {
    let x = (cell ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

/// Per-row fingerprint terms for the `cols` columns of every row of `t`:
/// the wrapping sum of the row's (column-name, cell) [`pair_term`]s. A row
/// *is* its set of (column, value) pairs, so the term is a true function
/// of the row that ignores column order — and it splits along any column
/// partition: a join output row's term is its left part's plus its right
/// part's, which lets the join engine fold fingerprints from
/// per-input-row precomputations instead of reading every output cell.
/// Column-major over cell hashes the table already holds: no `Value` is
/// read.
fn table_row_sums(t: &Table, cols: &[usize]) -> Vec<u64> {
    let mut sums = vec![0u64; t.n_rows()];
    fold_terms(&mut sums, t, cols, u64::wrapping_add);
    sums
}

/// [`table_row_sums`] over every column of `t`.
fn all_column_sums(t: &Table) -> Vec<u64> {
    let cols: Vec<usize> = (0..t.n_cols()).collect();
    table_row_sums(t, &cols)
}

/// Fold the [`pair_term`]s of `t`'s `cols` columns into `sums`, one entry
/// per row, with `op` — `wrapping_add` to build terms up, `wrapping_sub`
/// to take columns back out of terms that already include them.
fn fold_terms(sums: &mut [u64], t: &Table, cols: &[usize], op: fn(u64, u64) -> u64) {
    for &j in cols {
        let seed = column_seed(t.schema().column_name(j).expect("in range"));
        for (sum, &cell) in sums.iter_mut().zip(t.column_hashes(j)) {
            *sum = op(*sum, pair_term(seed, cell));
        }
    }
}

/// A whole table's relation fingerprint: the commutative `wrapping_add`
/// fold of its rows' terms — row order is not part of the identity, and
/// `| 1` keeps zero-hash rows from vanishing. Equal relations always
/// fingerprint equal; unequal ones collide only with ~2⁻⁶⁴ probability —
/// and collisions are caught by [`same_relation`], never silently merged.
fn relation_fingerprint(t: &Table) -> u64 {
    all_column_sums(t).into_iter().fold(0u64, |acc, s| acc.wrapping_add(s | 1))
}

/// Exact relation equality (callers pre-check equal sorted column names):
/// row multisets compared through a counting map of borrowed cells — no
/// clones, no sort.
fn same_relation(a: &impl Rows, b: &impl Rows) -> bool {
    if a.n_rows() != b.n_rows() {
        return false;
    }
    let (oa, ob) = (sorted_order(a.schema()), sorted_order(b.schema()));
    let mut counts: FxHashMap<Vec<&Value>, isize> = FxHashMap::default();
    for i in 0..a.n_rows() {
        *counts.entry(oa.iter().map(|&j| a.cell(i, j)).collect()).or_insert(0) += 1;
    }
    for i in 0..b.n_rows() {
        match counts.get_mut(&ob.iter().map(|&j| b.cell(i, j)).collect::<Vec<_>>()) {
            Some(c) => *c -= 1,
            None => return false,
        }
    }
    counts.values().all(|&c| c == 0)
}

/// One memoized suffix fold. Single-table suffixes resolve to the
/// candidate in place — materialising them would clone whole lake tables
/// just to give them a memo slot.
/// A multi-table suffix is memoized only while its join output stays
/// within this multiple of its inputs' combined row count. A suffix fold
/// runs *ahead* of the start table, so it loses the start's selectivity —
/// `customer ⋈ lineitem` joined before the start that would have filtered
/// it can hold hundreds of thousands of rows none of which survive the
/// final join. A blow-up past this cap is vetoed from the join's index
/// pairs, before any row is built ([`gent_ops::inner_join_pairs`]'
/// `max_pairs`), and keeps the whole path on the left-fold route ([`JoinEngine::join_path_folded`]) — the
/// reference's own evaluation order, hence byte-identical output.
const SUFFIX_FANOUT_CAP: usize = 8;

enum MemoEntry {
    /// A one-table suffix: the candidate itself, by index.
    Base(usize),
    /// A folded multi-table suffix, with its rows' fingerprint terms over
    /// all its columns — folded from its two inputs' terms through the
    /// join's index pairs (the terms split along the column partition), so
    /// the joined cells are never hashed for them.
    Joined(Table, Vec<u64>),
    /// The fold failed (no common columns somewhere in the chain);
    /// negative results are memoized too, so a failing chain fails once.
    Failed,
    /// The fold would produce far more rows than its inputs hold (see
    /// [`SUFFIX_FANOUT_CAP`]); paths through it take the left-fold route
    /// ([`JoinEngine::join_path_folded`]) instead. Memoized so the
    /// estimate runs once per suffix.
    Oversize,
}

impl MemoEntry {
    /// The suffix's table, resolved against the candidate pool.
    fn table<'a>(&'a self, candidates: &'a [Table]) -> Option<&'a Table> {
        match self {
            MemoEntry::Base(i) => Some(&candidates[*i]),
            MemoEntry::Joined(t, _) => Some(t),
            MemoEntry::Failed | MemoEntry::Oversize => None,
        }
    }

    /// Per-row fingerprint terms of the suffix's `table` over the columns
    /// a join against it appends (`layout.rextra`: all but the join
    /// columns). A folded suffix takes the join columns back out of the
    /// terms it carries — their cell hashes are the ones the join's index
    /// is built from — and hashes no other column.
    fn extra_sums(&self, table: &Table, layout: &JoinLayout) -> Vec<u64> {
        match self {
            MemoEntry::Joined(_, terms) => {
                let mut sums = terms.clone();
                fold_terms(&mut sums, table, &layout.rcols, u64::wrapping_sub);
                sums
            }
            _ => table_row_sums(table, &layout.rextra),
        }
    }
}

/// One table's per-row source-key hashes ([`Rows::key_hashes`]), shared
/// between the engine's cache and every view over that table.
type KeyHashes = Rc<[Option<u64>]>;

/// A final join `left ⋈ right` that exists only as `(left row, right row)`
/// index pairs: every cell is read from one of the two inputs (whose row
/// storage it shares), so the expansion is fingerprinted, shape-checked,
/// deduplicated and aligned without one joined row being built. The
/// traversal selects a handful of the tables Expand joins (7 % on TP-TR
/// Med); only those become rows, through [`Expansion::to_table`].
pub(crate) struct JoinView {
    name: String,
    left: Table,
    right: Table,
    /// The join's schema — `left`'s columns, then `right`'s `rextra`.
    layout: JoinLayout,
    pairs: Vec<(u32, u32)>,
    /// `right`'s per-row source-key hashes, when every key cell of a joined
    /// row is a copy of its right row's (the start carries no key column):
    /// row `i` then inherits `right_key_hashes[pairs[i].1]`.
    right_key_hashes: Option<KeyHashes>,
}

impl Rows for JoinView {
    fn schema(&self) -> &Schema {
        &self.layout.schema
    }
    fn n_rows(&self) -> usize {
        self.pairs.len()
    }
    #[inline]
    fn cell(&self, i: usize, j: usize) -> &Value {
        let (li, ri) = self.pairs[i];
        match j.checked_sub(self.left.n_cols()) {
            None => &self.left.rows()[li as usize][j],
            Some(k) => &self.right.rows()[ri as usize][self.layout.rextra[k]],
        }
    }
    fn key_hashes(&self, key_cols: &[usize]) -> Vec<Option<u64>> {
        if let Some(hashes) = &self.right_key_hashes {
            return self.pairs.iter().map(|&(_, ri)| hashes[ri as usize]).collect();
        }
        // Every key cell is a copy of one input row's cell: fold the
        // inputs' cell hashes as [`Table::key_hashes`] would the rows'.
        let cells: Vec<(bool, &[u64])> = key_cols
            .iter()
            .map(|&k| match k.checked_sub(self.left.n_cols()) {
                None => (true, self.left.column_hashes(k)),
                Some(x) => (false, self.right.column_hashes(self.layout.rextra[x])),
            })
            .collect();
        let key_hash = |&(li, ri): &(u32, u32)| {
            cells.iter().try_fold(0u64, |acc, &(from_left, hashes)| {
                let cell = hashes[if from_left { li } else { ri } as usize];
                (!cell_hash_is_null_like(cell)).then(|| fold_cell_hash(acc, cell))
            })
        };
        self.pairs.iter().map(key_hash).collect()
    }
}

/// One expanded table, as Expand hands it to alignment.
pub(crate) enum Expansion {
    /// A table with rows: a key-carrying candidate passed through (sharing
    /// the caller's row storage), or an oversize path's left fold.
    Table(Table),
    /// A final join held as index pairs.
    View(Box<JoinView>),
}

impl Expansion {
    /// The expansion as a table — byte-identical to joining its path with
    /// [`gent_ops::inner_join`] left to right.
    pub(crate) fn to_table(&self) -> Table {
        match self {
            Expansion::Table(t) => t.clone(),
            Expansion::View(v) => {
                materialised(v.pairs.len());
                let mut table = v.layout.table(&v.left, &v.right, &v.pairs);
                table.set_name(&v.name);
                table
            }
        }
    }

    fn set_name(&mut self, name: String) {
        match self {
            Expansion::Table(t) => t.set_name(name),
            Expansion::View(v) => v.name = name,
        }
    }
}

impl Rows for Expansion {
    fn schema(&self) -> &Schema {
        match self {
            Expansion::Table(t) => t.schema(),
            Expansion::View(v) => v.schema(),
        }
    }
    fn n_rows(&self) -> usize {
        match self {
            Expansion::Table(t) => t.n_rows(),
            Expansion::View(v) => v.n_rows(),
        }
    }
    #[inline]
    fn cell(&self, i: usize, j: usize) -> &Value {
        match self {
            Expansion::Table(t) => Rows::cell(t, i, j),
            Expansion::View(v) => v.cell(i, j),
        }
    }
    fn key_hashes(&self, key_cols: &[usize]) -> Vec<Option<u64>> {
        match self {
            Expansion::Table(t) => Rows::key_hashes(t, key_cols),
            Expansion::View(v) => v.key_hashes(key_cols),
        }
    }
}

/// The memoized right-fold join engine: sub-join results keyed on the
/// table-index path suffix, with cached per-suffix [`JoinIndex`]es so a
/// right table probed by many lefts hashes its join columns once.
struct JoinEngine<'t> {
    candidates: &'t [Table],
    /// Suffix path → its folded join.
    memo: FxHashMap<Vec<usize>, MemoEntry>,
    /// (right table's suffix path, right join columns) → hash index. The
    /// join columns depend on the *left* schema's column order, so they are
    /// part of the key.
    indexes: FxHashMap<(Vec<usize>, Vec<usize>), JoinIndex>,
    /// Candidate index → per-row fingerprint terms over all its columns
    /// (the left half of every join's rows: a start's final join, a suffix
    /// head's fold).
    left_sums: FxHashMap<usize, Vec<u64>>,
    /// (candidate index, left join columns) → per-row join-key hashes,
    /// shared by every join this candidate is the left side of over that
    /// column set (the key hash ignores the right table entirely).
    left_hashes: FxHashMap<(usize, Vec<usize>), Vec<Option<u64>>>,
    /// (right suffix path, right join columns) → per-row fingerprint terms
    /// over that join's extra (non-common) right columns
    /// ([`MemoEntry::extra_sums`]).
    right_sums: FxHashMap<(Vec<usize>, Vec<usize>), Vec<u64>>,
    /// Right suffix path → its table's per-row source-key hashes (`None`
    /// when that table lacks a source key column) — what a [`JoinView`]
    /// whose start carries no key column hands to alignment in place of
    /// re-hashing every joined row's key cells.
    right_key_hashes: FxHashMap<Vec<usize>, Option<KeyHashes>>,
}

impl<'t> JoinEngine<'t> {
    fn new(candidates: &'t [Table]) -> JoinEngine<'t> {
        JoinEngine {
            candidates,
            memo: FxHashMap::default(),
            indexes: FxHashMap::default(),
            left_sums: FxHashMap::default(),
            left_hashes: FxHashMap::default(),
            right_sums: FxHashMap::default(),
            right_key_hashes: FxHashMap::default(),
        }
    }

    /// `candidates[start] ⋈ fold(path)`, folding the path right-to-left
    /// through the memo and stopping short of the last join's rows (a
    /// [`JoinView`]), together with the join's relation fingerprint. Each
    /// joined row's term is the sum of its left row's and its right row's
    /// precomputed terms ([`table_row_sums`] splits along the column
    /// partition), so the fold costs one add per pair and reads no cell. Returns
    /// `None` when any join in the chain fails.
    fn join_path(
        &mut self,
        start: usize,
        path: &[usize],
        key_names: &[&str],
        stats: &mut ExpandStats,
    ) -> Option<(Expansion, u64)> {
        let left = &self.candidates[start];
        if path.is_empty() {
            return Some((Expansion::Table(left.clone()), relation_fingerprint(left)));
        }
        self.ensure_suffixes(path, stats);
        if matches!(self.memo.get(path), Some(MemoEntry::Oversize)) {
            return self.join_path_folded(start, path);
        }
        let entry = self.memo.get(path).expect("just ensured");
        let right = entry.table(self.candidates)?;
        let layout = join_layout(left, right).ok()?;
        let (lcols, rcols) = (&layout.lcols, &layout.rcols);
        let lsums = self.left_sums.entry(start).or_insert_with(|| all_column_sums(left));
        let lhashes = self
            .left_hashes
            .entry((start, lcols.clone()))
            .or_insert_with(|| left_key_hashes(left, lcols));
        let rsums = self
            .right_sums
            .entry((path.to_vec(), rcols.clone()))
            .or_insert_with(|| entry.extra_sums(right, &layout));
        // Key-hash handoff: with no key column on the left, a joined row's
        // key cells are copies of its right row's, and so is their hash.
        let right_key_hashes = if key_names.iter().any(|k| left.schema().contains(k)) {
            None
        } else {
            self.right_key_hashes
                .entry(path.to_vec())
                .or_insert_with(|| {
                    let ckey: Option<Vec<usize>> =
                        key_names.iter().map(|k| right.schema().column_index(k)).collect();
                    ckey.map(|ckey| Rows::key_hashes(right, &ckey).into())
                })
                .clone()
        };
        let index = self
            .indexes
            .entry((path.to_vec(), rcols.clone()))
            .or_insert_with(|| JoinIndex::build(right, rcols));
        let pairs = inner_join_pairs(left, right, lcols, index, lhashes, usize::MAX)?;
        let fp = pairs.iter().fold(0u64, |fp, &(li, ri)| {
            fp.wrapping_add(lsums[li as usize].wrapping_add(rsums[ri as usize]) | 1)
        });
        let (name, left, right) = (String::new(), left.clone(), right.clone());
        let view = JoinView { name, left, right, layout, pairs, right_key_hashes };
        Some((Expansion::View(Box::new(view)), fp))
    }

    /// Left-fold fallback for paths whose suffix join would dwarf its
    /// inputs: `((start ⋈ c[p₀]) ⋈ c[p₁]) ⋈ …` keeps the start's
    /// selectivity, so every intermediate stays output-sized — the
    /// reference's own evaluation order, hence byte-identical output
    /// (natural join is associative across the chain; see the module
    /// docs, and note `inner_join`'s `⋈`-concatenated output name is
    /// associative too). Costs the suffix memo and the fused fingerprint
    /// (recomputed over the final output, linear in the rows actually
    /// produced) — cheap exactly when the suffix fold is not. The per-base
    /// [`JoinIndex`] cache still applies to every hop.
    fn join_path_folded(&mut self, start: usize, path: &[usize]) -> Option<(Expansion, u64)> {
        let mut acc = self.candidates[start].clone();
        for (i, &p) in path.iter().enumerate() {
            acc = Self::indexed_join(&mut self.indexes, &path[i..=i], &acc, &self.candidates[p])?;
        }
        let fp = relation_fingerprint(&acc);
        Some((Expansion::Table(acc), fp))
    }

    /// Materialise `memo[path[i..]]` for every suffix, shortest first, so
    /// each is folded exactly once across all starts and paths.
    fn ensure_suffixes(&mut self, path: &[usize], stats: &mut ExpandStats) {
        for i in (0..path.len()).rev() {
            let suffix = &path[i..];
            if self.memo.contains_key(suffix) {
                stats.memo_hits += 1;
                continue;
            }
            let entry = if suffix.len() == 1 {
                MemoEntry::Base(suffix[0])
            } else if matches!(self.memo.get(&suffix[1..]), Some(MemoEntry::Oversize)) {
                // An oversize tail keeps every chain through it folded.
                MemoEntry::Oversize
            } else {
                let (head, tail) = (suffix[0], &suffix[1..]);
                let left = &self.candidates[head];
                let tail_entry = self.memo.get(tail).expect("built shortest-first");
                let right = tail_entry.table(self.candidates);
                match right.and_then(|r| join_layout(left, r).ok().map(|l| (r, l))) {
                    None => MemoEntry::Failed,
                    Some((r, layout)) => {
                        let (lcols, rcols) = (&layout.lcols, &layout.rcols);
                        let index = self
                            .indexes
                            .entry((tail.to_vec(), rcols.clone()))
                            .or_insert_with(|| JoinIndex::build(r, rcols));
                        let lhashes = self
                            .left_hashes
                            .entry((head, lcols.clone()))
                            .or_insert_with(|| left_key_hashes(left, lcols));
                        let cap = SUFFIX_FANOUT_CAP * (left.n_rows() + r.n_rows());
                        match inner_join_pairs(left, r, lcols, index, lhashes, cap) {
                            None => MemoEntry::Oversize,
                            Some(pairs) => {
                                materialised(pairs.len());
                                let lsums = self
                                    .left_sums
                                    .entry(head)
                                    .or_insert_with(|| all_column_sums(left));
                                let rsums = self
                                    .right_sums
                                    .entry((tail.to_vec(), rcols.clone()))
                                    .or_insert_with(|| tail_entry.extra_sums(r, &layout));
                                let terms = pairs
                                    .iter()
                                    .map(|&(li, ri)| {
                                        lsums[li as usize].wrapping_add(rsums[ri as usize])
                                    })
                                    .collect();
                                MemoEntry::Joined(layout.table(left, r, &pairs), terms)
                            }
                        }
                    }
                }
            };
            self.memo.insert(suffix.to_vec(), entry);
        }
    }

    /// One natural join through the per-suffix index cache — byte-identical
    /// to `gent_ops::inner_join(left, right)`.
    fn indexed_join(
        indexes: &mut FxHashMap<(Vec<usize>, Vec<usize>), JoinIndex>,
        suffix: &[usize],
        left: &Table,
        right: &Table,
    ) -> Option<Table> {
        let rcols = join_layout(left, right).ok()?.rcols;
        let index = indexes
            .entry((suffix.to_vec(), rcols.clone()))
            .or_insert_with(|| JoinIndex::build(right, &rcols));
        let joined = inner_join_indexed(left, right, index).ok()?;
        materialised(joined.n_rows());
        Some(joined)
    }
}

/// Count `rows` joined rows as built (`gent_expand_rows_materialised_total`).
fn materialised(rows: usize) {
    crate::telemetry::instruments().expand_rows_materialised.add(rows as u64);
}

/// Algorithm 5 — replace each keyless candidate by its join with a path of
/// candidates ending in a key-carrying one; candidates with no such path
/// are dropped (their tuples can never be aligned).
///
/// Returns the expanded tables, preserving input order. Key-carrying
/// candidates pass through unchanged.
pub fn expand(candidates: &[Table], key_names: &[&str], max_depth: usize) -> Vec<Table> {
    expand_with_stats(candidates, key_names, max_depth).0
}

/// [`expand`] with its [`ExpandStats`] counters (also recorded into the
/// global `gent_expand_*` metrics, with an `expand_candidate` span timed
/// around each keyless candidate's search-and-join work).
pub fn expand_with_stats(
    candidates: &[Table],
    key_names: &[&str],
    max_depth: usize,
) -> (Vec<Table>, ExpandStats) {
    let (expansions, stats) = expand_views(candidates, key_names, max_depth);
    (expansions.iter().map(Expansion::to_table).collect(), stats)
}

/// Algorithm 5 without the rows: every expanded table, in [`expand`]'s
/// order, with each final join left as a [`JoinView`]. Holding them all is
/// cheap — a view is 8 bytes per joined row beside input tables that exist
/// anyway — where holding the joined rows until selection was the
/// pipeline's memory peak.
pub(crate) fn expand_views(
    candidates: &[Table],
    key_names: &[&str],
    max_depth: usize,
) -> (Vec<Expansion>, ExpandStats) {
    let ins = crate::telemetry::instruments();
    let mut stats = ExpandStats::default();
    let n = candidates.len();
    let mut engine = JoinEngine::new(candidates);
    let mut out: Vec<Expansion> = Vec::with_capacity(n);
    let ends: FxHashSet<usize> =
        (0..n).filter(|&i| has_key(candidates[i].schema(), key_names)).collect();
    // Precompute pairwise weights over cached per-column distinct sets
    // (nothing to join when every candidate carries the key).
    let mut weights: Vec<Vec<Option<f64>>> = vec![vec![None; n]; n];
    if ends.len() < n {
        let cache = DistinctCache::new(candidates);
        for i in 0..n {
            for j in (i + 1)..n {
                let w = join_weight((i, &candidates[i]), (j, &candidates[j]), &cache);
                weights[i][j] = w;
                weights[j][i] = w;
            }
        }
    }
    let reach = reach_table(&weights, &ends, max_depth);
    // Dedup state: shape (sorted column names, row count) → kept
    // expansions of that shape, each with its index in `out` and the
    // fingerprint folded during its join. Only fingerprint matches run
    // the exact multiset comparison.
    type ShapeBucket = Vec<(usize, u64)>;
    let mut seen: FxHashMap<(Vec<String>, usize), ShapeBucket> = FxHashMap::default();
    for (i, candidate) in candidates.iter().enumerate() {
        if ends.contains(&i) {
            out.push(Expansion::Table(candidate.clone()));
            continue;
        }
        let _span = gent_obs::span_timed("expand_candidate", ins.stage_expand_candidate.clone());
        let mut produced = 0usize;
        let paths = best_paths(i, &weights, &reach, &ends, &mut stats.paths_considered);
        for (k, path) in paths.into_iter().enumerate() {
            let Some((mut joined, fp)) = engine.join_path(i, &path, key_names, &mut stats) else {
                continue;
            };
            if joined.n_rows() == 0 || !has_key(joined.schema(), key_names) {
                continue;
            }
            let mut shape: Vec<String> = joined.schema().columns().map(str::to_string).collect();
            shape.sort_unstable();
            let bucket = seen.entry((shape, joined.n_rows())).or_default();
            if bucket.iter().any(|&(x, xfp)| xfp == fp && same_relation(&out[x], &joined)) {
                stats.dedup_dropped += 1;
                continue;
            }
            bucket.push((out.len(), fp));
            // `k` enumerates all of this start's ranked paths — including
            // failed and deduplicated ones — so the surviving tables keep
            // the exact names the reference implementation gives them.
            let suffix = if k == 0 { String::new() } else { format!("#{}", k + 1) };
            joined.set_name(format!("{}+expanded{suffix}", candidates[i].name()));
            out.push(joined);
            produced += 1;
        }
        if produced == 0 {
            stats.candidates_dropped += 1;
        }
    }
    ins.expand_paths.add(stats.paths_considered);
    ins.expand_memo_hits.add(stats.memo_hits);
    ins.expand_candidates_dropped.add(stats.candidates_dropped);
    ins.expand_dedup.add(stats.dedup_dropped);
    (out, stats)
}

pub mod reference {
    //! The original exhaustive-DFS, left-fold Expand, kept verbatim as the
    //! **executable specification** of the best-first memoized engine in
    //! [`expand`](super::expand): property tests assert the engine's output
    //! is identical (modulo the deliberate duplicate-table drops, which the
    //! reference does not perform).
    //!
    //! Nothing in the pipeline uses this module.

    use super::{has_key, join_weight, DistinctCache, PATHS_PER_CANDIDATE};
    use gent_ops::inner_join;
    use gent_table::{FxHashSet, Table};

    /// Depth-first search for max-weight simple paths `start → … → end`
    /// where `end` carries the key — reference semantics.
    pub(super) fn best_paths(
        start: usize,
        weights: &[Vec<Option<f64>>],
        ends: &FxHashSet<usize>,
        max_depth: usize,
    ) -> Vec<Vec<usize>> {
        struct Search<'a> {
            weights: &'a [Vec<Option<f64>>],
            ends: &'a FxHashSet<usize>,
            max_depth: usize,
            /// Best (weight, path) per end node.
            best: gent_table::FxHashMap<usize, (f64, Vec<usize>)>,
        }
        impl Search<'_> {
            /// Path weight is the *product* of edge containments — an
            /// estimate of the fraction of the start table's rows surviving
            /// the whole join chain. (The paper's pseudocode sums weights,
            /// which would always prefer longer paths; the product matches
            /// the stated goal of "a path that covers the most source key
            /// values".) Ties break toward shorter paths.
            fn dfs(
                &mut self,
                node: usize,
                weight: f64,
                path: &mut Vec<usize>,
                visited: &mut Vec<bool>,
            ) {
                if self.ends.contains(&node) {
                    let better = match self.best.get(&node) {
                        None => true,
                        Some((w, p)) => {
                            weight > *w + 1e-12
                                || ((weight - *w).abs() <= 1e-12 && path.len() < p.len())
                        }
                    };
                    if better {
                        self.best.insert(node, (weight, path.clone()));
                    }
                    return; // a path through an end node never needs to continue
                }
                if path.len() >= self.max_depth {
                    return;
                }
                for next in 0..self.weights.len() {
                    if visited[next] {
                        continue;
                    }
                    if let Some(w) = self.weights[node][next] {
                        visited[next] = true;
                        path.push(next);
                        self.dfs(next, weight * w, path, visited);
                        path.pop();
                        visited[next] = false;
                    }
                }
            }
        }
        let mut search =
            Search { weights, ends, max_depth, best: gent_table::FxHashMap::default() };
        let mut visited = vec![false; weights.len()];
        visited[start] = true;
        search.dfs(start, 1.0, &mut Vec::new(), &mut visited);
        let mut ranked: Vec<(usize, f64, Vec<usize>)> =
            search.best.into_iter().map(|(end, (w, p))| (end, w, p)).collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite")
                .then(a.2.len().cmp(&b.2.len()))
                .then(a.0.cmp(&b.0))
        });
        ranked.into_iter().take(PATHS_PER_CANDIDATE).map(|(_, _, p)| p).collect()
    }

    /// Reference Algorithm 5 (see [`expand`](super::expand)).
    pub fn expand(candidates: &[Table], key_names: &[&str], max_depth: usize) -> Vec<Table> {
        let n = candidates.len();
        let ends: FxHashSet<usize> =
            (0..n).filter(|&i| has_key(candidates[i].schema(), key_names)).collect();
        if ends.len() == n {
            return candidates.to_vec();
        }
        let cache = DistinctCache::new(candidates);
        let mut weights: Vec<Vec<Option<f64>>> = vec![vec![None; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let w = join_weight((i, &candidates[i]), (j, &candidates[j]), &cache);
                weights[i][j] = w;
                weights[j][i] = w;
            }
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if ends.contains(&i) {
                out.push(candidates[i].clone());
                continue;
            }
            let paths = best_paths(i, &weights, &ends, max_depth);
            for (k, path) in paths.into_iter().enumerate() {
                let mut joined = candidates[i].clone();
                let mut ok = true;
                for &step in &path {
                    match inner_join(&joined, &candidates[step]) {
                        Ok(j) => joined = j,
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok && !joined.is_empty() && has_key(joined.schema(), key_names) {
                    let suffix = if k == 0 { String::new() } else { format!("#{}", k + 1) };
                    joined.set_name(format!("{}+expanded{suffix}", candidates[i].name()));
                    out.push(joined);
                }
            }
        }
        out
    }
}

#[cfg(test)]
#[path = "pair_view_prop.rs"]
mod pair_view_prop;

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;
    use proptest::prelude::*;

    /// Figure 3's tables B and C lack the source key "ID"; A has it.
    fn candidates() -> Vec<Table> {
        let a = Table::build(
            "A",
            &["ID", "Name", "Education Level"],
            &[],
            vec![
                vec![V::Int(0), V::str("Smith"), V::str("Bachelors")],
                vec![V::Int(1), V::str("Brown"), V::Null],
                vec![V::Int(2), V::str("Wang"), V::str("High School")],
            ],
        )
        .unwrap();
        let b = Table::build(
            "B",
            &["Name", "Age"],
            &[],
            vec![
                vec![V::str("Smith"), V::Int(27)],
                vec![V::str("Brown"), V::Int(24)],
                vec![V::str("Wang"), V::Int(32)],
            ],
        )
        .unwrap();
        let c = Table::build(
            "C",
            &["Name", "Gender"],
            &[],
            vec![
                vec![V::str("Smith"), V::str("Male")],
                vec![V::str("Brown"), V::str("Male")],
                vec![V::str("Wang"), V::str("Male")],
            ],
        )
        .unwrap();
        vec![a, b, c]
    }

    /// A table as (name, sorted column names, sorted rows) — the order-free
    /// identity [`as_relations`] compares expansion outputs under.
    type NamedRelation = (String, (Vec<String>, Vec<Vec<V>>));

    /// Tables as (name, sorted column names, sorted rows) — order-free
    /// comparison of two expansion outputs.
    fn as_relations(tables: &[Table]) -> Vec<NamedRelation> {
        tables
            .iter()
            .map(|t| {
                let order = sorted_order(t.schema());
                let names: Vec<&str> = t.schema().columns().collect();
                let cols: Vec<String> = order.iter().map(|&j| names[j].to_string()).collect();
                let mut rows: Vec<Vec<V>> = t
                    .rows()
                    .iter()
                    .map(|r| order.iter().map(|&j| r[j].clone()).collect())
                    .collect();
                rows.sort();
                (t.name().to_string(), (cols, rows))
            })
            .collect()
    }

    #[test]
    fn keyless_candidates_join_to_key_carriers() {
        let cands = candidates();
        let expanded = expand(&cands, &["ID"], 3);
        assert_eq!(expanded.len(), 3);
        for t in &expanded {
            assert!(t.schema().contains("ID"), "{} lacks ID", t.name());
        }
        // B expanded = B ⋈ A: must now carry Smith's age with ID 0.
        let b = expanded.iter().find(|t| t.name().starts_with("B")).unwrap();
        let id = b.schema().column_index("ID").unwrap();
        let age = b.schema().column_index("Age").unwrap();
        let smith = b.rows().iter().find(|r| r[id] == V::Int(0)).unwrap();
        assert_eq!(smith[age], V::Int(27));
    }

    #[test]
    fn all_keyed_passthrough() {
        let cands = candidates();
        let only_a = vec![cands[0].clone()];
        let expanded = expand(&only_a, &["ID"], 3);
        assert_eq!(expanded.len(), 1);
        assert_eq!(expanded[0].name(), "A");
    }

    #[test]
    fn unreachable_candidates_dropped() {
        let mut cands = candidates();
        cands.push(Table::build("Z", &["unrelated"], &[], vec![vec![V::str("zzz")]]).unwrap());
        let (expanded, stats) = expand_with_stats(&cands, &["ID"], 3);
        assert_eq!(expanded.len(), 3, "Z shares no columns → dropped");
        assert_eq!(stats.candidates_dropped, 1);
    }

    #[test]
    fn multi_hop_path() {
        // D joins C joins A; D shares no column with A directly.
        let a = Table::build("A", &["ID", "Name"], &[], vec![vec![V::Int(0), V::str("Smith")]])
            .unwrap();
        let c =
            Table::build("C", &["Name", "Badge"], &[], vec![vec![V::str("Smith"), V::str("b-7")]])
                .unwrap();
        let d = Table::build(
            "D",
            &["Badge", "Clearance"],
            &[],
            vec![vec![V::str("b-7"), V::str("top")]],
        )
        .unwrap();
        let expanded = expand(&[a, c, d], &["ID"], 3);
        assert_eq!(expanded.len(), 3);
        let d_exp = expanded.iter().find(|t| t.name().starts_with("D")).unwrap();
        assert!(d_exp.schema().contains("ID"));
        assert_eq!(d_exp.n_rows(), 1);
        let clearance = d_exp.schema().column_index("Clearance").unwrap();
        assert_eq!(d_exp.rows()[0][clearance], V::str("top"));
    }

    #[test]
    fn depth_limit_blocks_long_paths() {
        let a = Table::build("A", &["ID", "x1"], &[], vec![vec![V::Int(0), V::Int(1)]]).unwrap();
        let m1 = Table::build("M1", &["x1", "x2"], &[], vec![vec![V::Int(1), V::Int(2)]]).unwrap();
        let m2 = Table::build("M2", &["x2", "x3"], &[], vec![vec![V::Int(2), V::Int(3)]]).unwrap();
        let far = Table::build("F", &["x3", "v"], &[], vec![vec![V::Int(3), V::Int(9)]]).unwrap();
        // far needs 3 hops (m2, m1, a); depth 2 cannot reach.
        let expanded = expand(&[a.clone(), m1.clone(), m2.clone(), far.clone()], &["ID"], 2);
        assert!(expanded.iter().all(|t| !t.name().starts_with("F")));
        let expanded3 = expand(&[a, m1, m2, far], &["ID"], 3);
        assert!(expanded3.iter().any(|t| t.name().starts_with("F")));
    }

    #[test]
    fn engine_matches_reference_on_unit_scenarios() {
        // On duplicate-free scenarios the engine's output must be
        // *identical* to the reference DFS + left-fold joins: same names,
        // same relations, same order.
        let scenarios: Vec<(Vec<Table>, usize)> = vec![
            (candidates(), 3),
            (candidates(), 1),
            (
                {
                    let mut cs = candidates();
                    cs.push(
                        Table::build("Z", &["unrelated"], &[], vec![vec![V::str("zzz")]]).unwrap(),
                    );
                    cs
                },
                3,
            ),
        ];
        for (cands, depth) in scenarios {
            let new = expand(&cands, &["ID"], depth);
            let old = reference::expand(&cands, &["ID"], depth);
            assert_eq!(as_relations(&new), as_relations(&old), "depth {depth}");
        }
    }

    #[test]
    fn identical_expansions_are_deduplicated() {
        // B and B2 hold the same relation under different names: their
        // expansions through A fold to identical tables, so only the first
        // survives.
        let mut cands = candidates();
        let mut b2 = cands[1].clone();
        b2.set_name("B2");
        cands.push(b2);
        let (expanded, stats) = expand_with_stats(&cands, &["ID"], 3);
        assert!(stats.dedup_dropped >= 1, "{stats:?}");
        assert!(
            expanded.iter().any(|t| t.name().starts_with("B+expanded")),
            "first occurrence kept"
        );
        assert!(
            !expanded.iter().any(|t| t.name().starts_with("B2+expanded")),
            "duplicate dropped: {:?}",
            expanded.iter().map(|t| t.name()).collect::<Vec<_>>()
        );
        // Without dedup the reference emits both.
        let old = reference::expand(&cands, &["ID"], 3);
        assert_eq!(old.len(), expanded.len() + stats.dedup_dropped as usize);
    }

    #[test]
    fn shared_suffixes_hit_the_memo() {
        // B and C both expand through A: the second start's best path
        // reuses the memoized [A] suffix.
        let (_, stats) = expand_with_stats(&candidates(), &["ID"], 3);
        assert!(stats.memo_hits >= 1, "{stats:?}");
        assert!(stats.paths_considered > 0, "{stats:?}");
    }

    /// SplitMix64 over a proptest-drawn seed: the search tests' graphs.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A symmetric weight matrix over `n` nodes, each pair joined with
    /// probability `density / 4`.
    fn weight_matrix(
        n: usize,
        density: usize,
        weight: impl Fn(&mut Mix) -> f64,
        mix: &mut Mix,
    ) -> Vec<Vec<Option<f64>>> {
        let mut weights = vec![vec![None; n]; n];
        for (i, j) in (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j))) {
            if mix.below(4) < density {
                let w = weight(mix);
                weights[i][j] = Some(w);
                weights[j][i] = Some(w);
            }
        }
        weights
    }

    /// The engine's search, with its heap pops.
    fn engine_search(
        start: usize,
        weights: &[Vec<Option<f64>>],
        ends: &FxHashSet<usize>,
        max_depth: usize,
    ) -> (Vec<Vec<usize>>, u64) {
        let mut pops = 0;
        let reach = reach_table(weights, ends, max_depth);
        (best_paths(start, weights, &reach, ends, &mut pops), pops)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The bounded best-first search returns the reference DFS's paths
        /// from every start, on graphs dense enough for the bound to prune:
        /// up to 30 nodes at densities up to complete; weights drawn from a
        /// set of exact ties, from one whose products tie but for their
        /// last bit (`⅓·0.6` is one ulp below `0.25·0.8`), or from a
        /// continuous range; end sets empty, single, random, or larger than
        /// [`PATHS_PER_CANDIDATE`]. Depth 4 runs on at most 12 nodes, where
        /// the reference's 11·10·9·8 paths per start stay affordable.
        #[test]
        fn best_paths_matches_the_reference_dfs(
            n in 2usize..=30,
            density in 1usize..=4,
            depth in 1usize..=4,
            weight_set in 0usize..4,
            end_set in 0usize..4,
            seed in any::<u64>(),
        ) {
            const EXACT_TIES: [f64; 5] = [1.0, 0.9, 0.5, 0.25, 1.0 / 3.0];
            const LAST_BIT_TIES: [f64; 4] = [0.8, 0.6, 0.25, 1.0 / 3.0];
            let depth = if n > 12 { depth.min(3) } else { depth };
            let mut mix = Mix(seed);
            let weights = match weight_set {
                0 => weight_matrix(n, density, |m| EXACT_TIES[m.below(5)], &mut mix),
                1 | 2 => weight_matrix(n, density, |m| LAST_BIT_TIES[m.below(4)], &mut mix),
                _ => weight_matrix(n, density, |m| 0.05 + m.below(951) as f64 / 1000.0, &mut mix),
            };
            let ends: FxHashSet<usize> = match end_set {
                0 => FxHashSet::default(),
                1 => [mix.below(n)].into_iter().collect(),
                2 => (0..n).filter(|_| mix.below(4) == 0).collect(),
                _ => {
                    let many = (PATHS_PER_CANDIDATE + 1 + mix.below(n)).min(n);
                    let mut nodes: Vec<usize> = (0..n).collect();
                    for k in 0..many {
                        nodes.swap(k, k + mix.below(n - k));
                    }
                    nodes[..many].iter().copied().collect()
                }
            };
            for start in 0..n {
                let (found, _) = engine_search(start, &weights, &ends, depth);
                let expected = reference::best_paths(start, &weights, &ends, depth);
                prop_assert_eq!(found, expected, "start {} of {}, depth {}", start, n, depth);
            }
        }
    }

    #[test]
    fn a_weak_end_in_a_dense_graph_is_found_without_enumerating_the_graph() {
        // Nodes 0..29 form a complete graph at weight 1.0; the one end, 29,
        // hangs off node 28 by a 0.05 edge. Ordered by partial weight, the
        // search pops every ≤ 3-hop path among the 29 before its stop test
        // can fire (≈ 20 k pops); bounded, every partial path ranks at 0.05
        // and none is pushed that can no longer reach 28 in time.
        let n = 30;
        let mut weights = vec![vec![Some(1.0); n]; n];
        for (i, row) in weights.iter_mut().enumerate() {
            row[i] = None;
            row[n - 1] = None;
        }
        weights[n - 1] = vec![None; n];
        weights[n - 2][n - 1] = Some(0.05);
        weights[n - 1][n - 2] = Some(0.05);
        let ends: FxHashSet<usize> = [n - 1].into_iter().collect();
        let (found, pops) = engine_search(0, &weights, &ends, 3);
        assert_eq!(found, vec![vec![n - 2, n - 1]]);
        assert_eq!(found, reference::best_paths(0, &weights, &ends, 3));
        assert!(pops <= 300, "{pops} heap pops");
    }

    #[test]
    fn a_lighter_path_by_one_ulp_still_wins_on_its_preorder() {
        // Two 2-hop paths to the end 3: [1, 3] weighs ⅓·0.6 and [2, 3]
        // 0.25·0.8 — one ulp heavier. Inside EPS they tie, and the
        // reference keeps the one its preorder meets first, [1, 3]. [2, 3]
        // pops first; [1]'s bound is one ulp below it, so the subtree test
        // must see that [1]'s completion is as long and lexicographically
        // first, or it would be cut.
        let mut weights = vec![vec![None; 4]; 4];
        for (a, b, w) in [(0, 1, 1.0 / 3.0), (1, 3, 0.6), (0, 2, 0.25), (2, 3, 0.8)] {
            weights[a][b] = Some(w);
            weights[b][a] = Some(w);
        }
        let weight =
            |p: [usize; 3]| -> f64 { p.windows(2).map(|e| weights[e[0]][e[1]].unwrap()).product() };
        assert!(weight([0, 1, 3]) < weight([0, 2, 3]), "the products differ in the last bit");
        let ends: FxHashSet<usize> = [3].into_iter().collect();
        let expected = reference::best_paths(0, &weights, &ends, 2);
        assert_eq!(expected, vec![vec![1, 3]]);
        assert_eq!(engine_search(0, &weights, &ends, 2).0, expected);
    }

    #[test]
    fn a_start_with_no_end_in_its_component_pops_nothing() {
        // {0, 1, 2} is a triangle; the end 4 sits in the other component.
        let mut weights = vec![vec![None; 5]; 5];
        for (a, b, w) in [(0, 1, 0.9), (1, 2, 1.0), (0, 2, 0.5), (3, 4, 1.0)] {
            weights[a][b] = Some(w);
            weights[b][a] = Some(w);
        }
        let ends: FxHashSet<usize> = [4].into_iter().collect();
        for start in 0..3 {
            assert_eq!(engine_search(start, &weights, &ends, 3), (Vec::new(), 0), "start {start}");
        }
        assert_eq!(engine_search(3, &weights, &ends, 3), (vec![vec![4]], 2));
    }

    #[test]
    fn fused_fingerprint_matches_recomputation() {
        // The fingerprint folded over the join's index pairs (left-sum +
        // right-sum per pair) must equal a from-scratch
        // `relation_fingerprint` of the view's rows — on single- and
        // multi-hop paths.
        let cands = candidates();
        let mut stats = ExpandStats::default();
        let mut engine = JoinEngine::new(&cands);
        for (start, path) in [(1usize, vec![0usize]), (2, vec![0]), (1, vec![2, 0])] {
            let (joined, fp) = engine
                .join_path(start, &path, &["ID"], &mut stats)
                .unwrap_or_else(|| panic!("join {start}+{path:?} must succeed"));
            assert!(matches!(joined, Expansion::View(_)), "no rows before selection");
            assert_eq!(fp, relation_fingerprint(&joined.to_table()), "{start} + {path:?}");
        }
    }

    #[test]
    fn suffix_terms_folded_through_pairs_match_the_joined_rows() {
        // F → M2 → M1 → A: the suffixes [M1, A] and [M2, M1, A] are folded
        // joins (the second over the first), with fan-out, a null and a
        // cross-type equal key on the way. Each carries its rows' terms
        // folded through its pairs; they must equal the terms of the rows
        // it built, and what a join against it reads (`extra_sums`) the
        // terms of the appended columns.
        let a = Table::build(
            "A",
            &["ID", "x1"],
            &[],
            vec![
                vec![V::Int(0), V::Int(1)],
                vec![V::Int(1), V::Float(1.0)],
                vec![V::Int(2), V::Null],
            ],
        )
        .unwrap();
        let m1 = Table::build(
            "M1",
            &["x1", "x2"],
            &[],
            vec![vec![V::Int(1), V::Int(2)], vec![V::Float(1.0), V::str("two")]],
        )
        .unwrap();
        let m2 = Table::build(
            "M2",
            &["x2", "x3"],
            &[],
            vec![
                vec![V::Int(2), V::Int(3)],
                vec![V::str("two"), V::Int(3)],
                vec![V::Null, V::Int(4)],
            ],
        )
        .unwrap();
        let far = Table::build("F", &["x3", "v"], &[], vec![vec![V::Int(3), V::Int(9)]]).unwrap();
        let cands = vec![a, m1, m2, far];
        let mut stats = ExpandStats::default();
        let mut engine = JoinEngine::new(&cands);
        let (joined, fp) = engine.join_path(3, &[2, 1, 0], &["ID"], &mut stats).expect("joins");
        assert_eq!(joined.n_rows(), 4, "two x2 routes, each meeting both rows with x1 = 1");
        assert_eq!(fp, relation_fingerprint(&joined.to_table()));
        let mut folded = 0;
        for (suffix, entry) in &engine.memo {
            let MemoEntry::Joined(t, terms) = entry else { continue };
            folded += 1;
            assert_eq!(terms, &all_column_sums(t), "{}", t.name());
            // The table the path joins against this suffix: the one before it.
            let layout = join_layout(&cands[suffix[0] + 1], t).expect("consecutive tables join");
            assert_eq!(entry.extra_sums(t, &layout), table_row_sums(t, &layout.rextra));
        }
        assert_eq!(folded, 2, "[M1, A] and [M2, M1, A]");
    }

    #[test]
    fn key_hash_handoff_matches_fresh_hashes() {
        // Keyless starts joined through A answer `Rows::key_hashes` from
        // their right rows' precomputed source-key hashes; each must equal
        // the hash of the joined row's own key cells.
        let cands = candidates();
        let (expansions, _) = expand_views(&cands, &["ID"], 3);
        let mut handed = 0;
        for e in &expansions {
            let t = e.to_table();
            let ckey = vec![t.schema().column_index("ID").expect("expansions carry the key")];
            assert_eq!(e.n_rows(), t.n_rows(), "one pair per row of {}", t.name());
            assert_eq!(e.key_hashes(&ckey), Rows::key_hashes(&t, &ckey), "{}", t.name());
            if let Expansion::View(v) = e {
                handed += usize::from(v.right_key_hashes.is_some());
            }
        }
        assert!(handed >= 1, "at least one expansion must hand hashes over");
    }
}
