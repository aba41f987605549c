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
//! 1. **Best-first search with admissible pruning.** Edge containments are
//!    ≤ 1, so a partial path's weight can only shrink as it grows — the
//!    partial weight is an admissible upper bound on every completion. A
//!    max-heap ordered by (weight, then shorter, then lexicographic path)
//!    pops partial paths best-first; a subtree is expanded only while some
//!    end's recorded best could still be improved. Recording ends on pop
//!    with the reference's own better-path predicate reproduces the DFS
//!    result exactly: the first pop per end is its max-weight /
//!    shortest / lexicographically-first path — precisely what the DFS
//!    preorder kept.
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
//! Expanded tables that fold to the same relation (same columns up to
//! order, same row multiset) are deduplicated — different paths routinely
//! produce identical joins, and the traversal would score each copy.
//! Everything is counted in [`ExpandStats`] and surfaced as
//! `gent_expand_*` counters plus a per-candidate `expand_candidate` span.

use gent_ops::{
    inner_join_indexed, inner_join_indexed_capped, inner_join_indexed_hashed, join_cols,
    left_key_hashes, JoinIndex,
};
use gent_table::fxhash::FxHasher;
use gent_table::{FxHashMap, FxHashSet, Table, Value};
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};

/// Weight-comparison slack, shared with the reference DFS's tie handling.
const EPS: f64 = 1e-12;

/// Per-candidate distinct-value sets, one per column, built once up front.
/// [`join_weight`] used to rebuild both sides' sets for **every pair** of
/// candidates — `O(n² · cells)` hashing that dominated Expand's cost on
/// real candidate sets (the whole-table traversal bench spent more time
/// here than in every greedy round combined). The sets borrow the tables'
/// values, so the cache costs one pass over each table and no clones.
struct DistinctCache {
    /// Per table, per column: the sorted, deduplicated FxHashes of the
    /// column's non-null values. Containment intersects two sorted `u64`
    /// runs with a linear merge — no per-probe re-hashing, no `Value`
    /// comparisons. `Value`'s hash is consistent with its cross-type
    /// equality, so equal values always share a hash; distinct values
    /// colliding (~2⁻⁶⁴) can only nudge a heuristic edge weight, and both
    /// engines share the same weights either way.
    columns: Vec<Vec<Vec<u64>>>,
}

/// FxHash of one cell value.
fn value_hash(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

impl DistinctCache {
    fn new(tables: &[Table]) -> DistinctCache {
        let columns = tables
            .iter()
            .map(|t| {
                (0..t.n_cols())
                    .map(|j| {
                        let mut hs: Vec<u64> =
                            t.column(j).filter(|v| !v.is_null_like()).map(value_hash).collect();
                        hs.sort_unstable();
                        hs.dedup();
                        hs
                    })
                    .collect()
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
fn join_weight(a: (usize, &Table), b: (usize, &Table), cache: &DistinctCache) -> Option<f64> {
    let common = a.1.schema().common_columns(b.1.schema());
    if common.is_empty() {
        return None;
    }
    let mut best = 0.0f64;
    for col in &common {
        let ai = a.1.schema().column_index(col).expect("common");
        let bi = b.1.schema().column_index(col).expect("common");
        let av = &cache.columns[a.0][ai];
        if av.is_empty() {
            continue;
        }
        let bv = &cache.columns[b.0][bi];
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

/// Does `t` contain every source key column (by name)?
fn has_key(t: &Table, key_names: &[&str]) -> bool {
    key_names.iter().all(|k| t.schema().contains(k))
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
    /// the work the exhaustive DFS did for *every* simple path.
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

/// A partial path in the best-first search. Max-heap order: higher weight
/// first, then shorter path, then lexicographically smaller path — so pop
/// order is deterministic and the first pop per end node is exactly the
/// path the reference DFS's preorder-with-better-predicate kept.
struct Entry {
    /// Product of edge containments along `path` (admissible bound on any
    /// completion's weight, since edges are ≤ 1).
    weight: f64,
    /// Current node (last element of `path`, or the start node).
    node: usize,
    /// Nodes visited after the start, in order.
    path: Vec<usize>,
}

impl Entry {
    fn key_cmp(&self, other: &Entry) -> std::cmp::Ordering {
        self.weight
            .total_cmp(&other.weight)
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

/// Best-first search for max-weight simple paths `start → … → end` where
/// `end` carries the key. Returns the best path per distinct end node,
/// strongest first (up to [`PATHS_PER_CANDIDATE`]), each path as candidate
/// indices excluding `start` — the same result set as the reference's
/// exhaustive DFS, found without enumerating provably-losing subtrees.
fn best_paths(
    start: usize,
    weights: &[Vec<Option<f64>>],
    ends: &FxHashSet<usize>,
    max_depth: usize,
    paths_considered: &mut u64,
) -> Vec<Vec<usize>> {
    // Best (weight, path) per end node, under the reference's predicate.
    let mut best: FxHashMap<usize, (f64, Vec<usize>)> = FxHashMap::default();
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    heap.push(Entry { weight: 1.0, node: start, path: Vec::new() });
    while let Some(Entry { weight, node, path }) = heap.pop() {
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
        // and this entry — the strongest still pending, by exact best-first
        // order — sits strictly below every recorded weight's EPS band.
        // Completions only get lighter and longer, so nothing the heap
        // still holds (or could ever produce) can replace a recorded path.
        if best.len() == ends.len() && best.values().all(|(w, _)| weight < *w - EPS) {
            break;
        }
        if path.len() >= max_depth {
            continue;
        }
        // Branch & bound: every completion of this partial path has weight
        // ≤ `weight` (edges are ≤ 1) and length ≥ len + 1, so the subtree
        // is worth expanding only while some end is unrecorded or could
        // still be improved by such a completion.
        let can_improve = best.len() < ends.len()
            || best.values().any(|(w, p)| {
                weight > *w + EPS || (weight >= *w - EPS && path.len() + 1 < p.len())
            });
        if !can_improve {
            continue;
        }
        for (next, w) in weights[node].iter().enumerate() {
            if next == start || path.contains(&next) {
                continue;
            }
            if let Some(w) = w {
                let mut p = path.clone();
                p.push(next);
                heap.push(Entry { weight: weight * w, node: next, path: p });
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
/// scoring both is pure duplicate work. Detection is three-tier so unique
/// tables — the overwhelming majority — never pay a row scan at all: the
/// *shape* (sorted column names + row count) buckets tables for free, only
/// shape collisions hash their rows into an order-independent fingerprint,
/// and only fingerprint collisions run the exact multiset comparison, so a
/// non-duplicate can never be dropped.
///
/// The permutation that sorts a column-name list.
fn sorted_names_order(names: &[&str]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by_key(|&j| names[j]);
    order
}

/// The column permutation that sorts `t`'s column names.
fn sorted_order(t: &Table) -> Vec<usize> {
    let names: Vec<&str> = t.schema().columns().collect();
    sorted_names_order(&names)
}

/// Seed for one column's (name, cell) pair hashes.
fn column_seed(name: &str) -> u64 {
    let mut h = FxHasher::default();
    name.hash(&mut h);
    h.finish()
}

/// Hash of one (column, cell) pair, from the column's precomputed seed.
#[inline]
fn pair_hash(seed: u64, v: &Value) -> u64 {
    let mut h = FxHasher::default();
    seed.hash(&mut h);
    v.hash(&mut h);
    h.finish()
}

/// One row's term in the relation fingerprint: the wrapping sum of its
/// (column-name, cell) pair hashes over `cols` (`seeds[k]` is
/// `cols[k]`'s). A row *is* its set of (column, value) pairs, so the term
/// is a true function of the row that ignores column order — and it
/// splits along any column partition: a join output row's term is its
/// left part's plus its right part's, which lets the join engine fold
/// fingerprints from per-input-row precomputations instead of re-hashing
/// every output cell.
#[inline]
fn row_sum(row: &[Value], cols: &[usize], seeds: &[u64]) -> u64 {
    cols.iter().zip(seeds).fold(0u64, |acc, (&j, &s)| acc.wrapping_add(pair_hash(s, &row[j])))
}

/// Per-row fingerprint terms for the `cols` columns of every row of `t`.
fn table_row_sums(t: &Table, cols: &[usize]) -> Vec<u64> {
    let names: Vec<&str> = t.schema().columns().collect();
    let seeds: Vec<u64> = cols.iter().map(|&j| column_seed(names[j])).collect();
    t.rows().iter().map(|r| row_sum(r, cols, &seeds)).collect()
}

/// A whole table's relation fingerprint: the commutative `wrapping_add`
/// fold of its rows' terms — row order is not part of the identity, and
/// `| 1` keeps zero-hash rows from vanishing. Equal relations always
/// fingerprint equal; unequal ones collide only with ~2⁻⁶⁴ probability —
/// and collisions are caught by [`same_relation`], never silently merged.
fn relation_fingerprint(t: &Table) -> u64 {
    let cols: Vec<usize> = (0..t.n_cols()).collect();
    table_row_sums(t, &cols).into_iter().fold(0u64, |acc, s| acc.wrapping_add(s | 1))
}

/// Exact relation equality (callers pre-check equal sorted column names):
/// row multisets compared through a counting map of borrowed cells — no
/// clones, no sort.
fn same_relation(a: &Table, b: &Table) -> bool {
    if a.n_rows() != b.n_rows() {
        return false;
    }
    let (oa, ob) = (sorted_order(a), sorted_order(b));
    let mut counts: FxHashMap<Vec<&Value>, isize> = FxHashMap::default();
    for row in a.rows() {
        *counts.entry(oa.iter().map(|&j| &row[j]).collect()).or_insert(0) += 1;
    }
    for row in b.rows() {
        match counts.get_mut(&ob.iter().map(|&j| &row[j]).collect::<Vec<_>>()) {
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
/// final join. A blow-up past this cap abandons the fold mid-join
/// ([`gent_ops::inner_join_indexed_capped`], so a fitting join pays
/// nothing extra and a veto pays at most the cap) and keeps the whole
/// path on the left-fold route ([`JoinEngine::join_path_folded`]) — the
/// reference's own evaluation order, hence byte-identical output.
const SUFFIX_FANOUT_CAP: usize = 8;

enum MemoEntry {
    /// A one-table suffix: the candidate itself, by index.
    Base(usize),
    /// A folded multi-table suffix.
    Joined(Table),
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
            MemoEntry::Joined(t) => Some(t),
            MemoEntry::Failed | MemoEntry::Oversize => None,
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
    /// Start-candidate index → per-row fingerprint terms over all its
    /// columns (the left half of every final join's rows).
    left_sums: FxHashMap<usize, Vec<u64>>,
    /// (start-candidate index, left join columns) → per-row join-key
    /// hashes, shared by every path this start probes over that column
    /// set (the key hash ignores the right table entirely).
    left_hashes: FxHashMap<(usize, Vec<usize>), Vec<Option<u64>>>,
    /// (right suffix path, right join columns) → per-row fingerprint terms
    /// over that join's extra (non-common) right columns.
    right_sums: FxHashMap<(Vec<usize>, Vec<usize>), Vec<u64>>,
    /// Right suffix path → its table's per-row source-key hashes (`None`
    /// inner value when that table lacks a source key column). When the
    /// start carries *no* key column, a joined row's key cells are
    /// verbatim copies of its right row's, so these hashes transfer to the
    /// join output row-for-row — the matrix handoff
    /// ([`AlignmentMatrix::build_hashed`](crate::matrix::AlignmentMatrix))
    /// that saves re-hashing every expanded row during alignment.
    right_key_hashes: FxHashMap<Vec<usize>, Option<Vec<Option<u64>>>>,
}

/// Per-row source-key hashes of one expanded table, handed from the join
/// engine to matrix construction (`None` when the engine could not derive
/// them — the table then hashes its own rows, exactly as before).
pub(crate) type KeyHashes = Option<Vec<Option<u64>>>;

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
    /// through the memo, together with the join's relation fingerprint.
    /// Each output row's term is the sum of its left row's and its right
    /// row's precomputed terms ([`row_sum`] splits along the column
    /// partition), so the fold costs one add per row instead of re-hashing
    /// every output cell — result rows of a large join outlive every cache
    /// level, and a separate fingerprint pass would re-walk them all.
    /// Returns `None` when any join in the chain fails.
    fn join_path(
        &mut self,
        start: usize,
        path: &[usize],
        key_names: &[&str],
        stats: &mut ExpandStats,
    ) -> Option<(Table, u64, KeyHashes)> {
        let left = &self.candidates[start];
        if path.is_empty() {
            return Some((left.clone(), relation_fingerprint(left), None));
        }
        self.ensure_suffixes(path, stats);
        if matches!(self.memo.get(path), Some(MemoEntry::Oversize)) {
            return self.join_path_folded(start, path);
        }
        let right = self.memo.get(path).expect("just ensured").table(self.candidates)?;
        let (lcols, rcols) = join_cols(left, right).ok()?;
        let lsums = self.left_sums.entry(start).or_insert_with(|| {
            let cols: Vec<usize> = (0..left.n_cols()).collect();
            table_row_sums(left, &cols)
        });
        let lhashes = self
            .left_hashes
            .entry((start, lcols.clone()))
            .or_insert_with(|| left_key_hashes(left, &lcols));
        let rsums = self.right_sums.entry((path.to_vec(), rcols.clone())).or_insert_with(|| {
            let rextra: Vec<usize> = (0..right.n_cols()).filter(|j| !rcols.contains(j)).collect();
            table_row_sums(right, &rextra)
        });
        // Key-hash handoff: with no key column on the left, the output's
        // key cells are copies of the right row's, so each emitted row
        // inherits its right row's precomputed source-key hash.
        let rkh = if key_names.iter().any(|k| left.schema().contains(k)) {
            None
        } else {
            self.right_key_hashes
                .entry(path.to_vec())
                .or_insert_with(|| {
                    let ckey: Option<Vec<usize>> =
                        key_names.iter().map(|k| right.schema().column_index(k)).collect();
                    ckey.map(|ckey| {
                        right.rows().iter().map(|r| crate::matrix::key_hash(r, &ckey)).collect()
                    })
                })
                .as_deref()
        };
        let index = self
            .indexes
            .entry((path.to_vec(), rcols.clone()))
            .or_insert_with(|| JoinIndex::build(right, &rcols));
        let mut fp = 0u64;
        let mut out_hashes: Vec<Option<u64>> = Vec::new();
        let joined = inner_join_indexed_hashed(left, right, index, lhashes, |li, ri, _row| {
            fp = fp.wrapping_add(lsums[li].wrapping_add(rsums[ri]) | 1);
            if let Some(rkh) = rkh {
                out_hashes.push(rkh[ri]);
            }
        })
        .ok()?;
        Some((joined, fp, rkh.is_some().then_some(out_hashes)))
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
    fn join_path_folded(
        &mut self,
        start: usize,
        path: &[usize],
    ) -> Option<(Table, u64, KeyHashes)> {
        let mut acc = Self::indexed_join(
            &mut self.indexes,
            &path[..1],
            &self.candidates[start],
            &self.candidates[path[0]],
        )?;
        for (i, &p) in path.iter().enumerate().skip(1) {
            acc = Self::indexed_join(&mut self.indexes, &path[i..=i], &acc, &self.candidates[p])?;
        }
        let fp = relation_fingerprint(&acc);
        Some((acc, fp, None))
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
                let left = &self.candidates[suffix[0]];
                let right = self
                    .memo
                    .get(&suffix[1..])
                    .expect("built shortest-first")
                    .table(self.candidates);
                match right.and_then(|r| join_cols(left, r).ok().map(|(_, rcols)| (r, rcols))) {
                    None => MemoEntry::Failed,
                    Some((r, rcols)) => {
                        let index = self
                            .indexes
                            .entry((suffix[1..].to_vec(), rcols.clone()))
                            .or_insert_with(|| JoinIndex::build(r, &rcols));
                        let cap = SUFFIX_FANOUT_CAP * (left.n_rows() + r.n_rows());
                        match inner_join_indexed_capped(left, r, index, cap) {
                            Err(_) => MemoEntry::Failed,
                            Ok(None) => MemoEntry::Oversize,
                            Ok(Some(t)) => MemoEntry::Joined(t),
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
        let rcols = join_cols(left, right).ok()?.1;
        let index = indexes
            .entry((suffix.to_vec(), rcols.clone()))
            .or_insert_with(|| JoinIndex::build(right, &rcols));
        inner_join_indexed(left, right, index).ok()
    }
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
    let mut out = Vec::with_capacity(candidates.len());
    let (_, stats) = expand_streamed(candidates, key_names, max_depth, |t, _| out.push(t));
    (out, stats)
}

/// How one expanded table was produced — enough to produce it again.
enum Recipe {
    /// A key-carrying candidate, passed through.
    Candidate(usize),
    /// `candidates[start] ⋈ fold(path)`, under this output name.
    Joined { start: usize, path: Vec<usize>, name: String },
}

/// What [`expand_streamed`] leaves behind: the join engine with its warm
/// memo and the recipe of every table it emitted, so that the few tables
/// the traversal selects can be joined again after the many it did not
/// select have been dropped.
pub(crate) struct Expansions<'t> {
    engine: JoinEngine<'t>,
    recipes: Vec<Recipe>,
}

impl Expansions<'_> {
    /// The `i`-th emitted table again, byte-identical to its first
    /// emission (one final join against the memoized suffix; counters are
    /// not touched).
    pub(crate) fn materialise(&mut self, i: usize, key_names: &[&str]) -> Table {
        match &self.recipes[i] {
            Recipe::Candidate(c) => self.engine.candidates[*c].clone(),
            Recipe::Joined { start, path, name } => {
                let (mut joined, _, _) = self
                    .engine
                    .join_path(*start, path, key_names, &mut ExpandStats::default())
                    .expect("this path joined when it was first emitted");
                joined.set_name(name);
                joined
            }
        }
    }
}

/// Algorithm 5, one table at a time: every expanded table (in [`expand`]'s
/// order) is handed to `sink` together with its per-row source-key hashes
/// where the join engine could derive them (see [`KeyHashes`]; the
/// traversal feeds them to
/// [`AlignmentMatrix::build_hashed`](crate::matrix::AlignmentMatrix) so
/// alignment skips re-hashing the rows Expand just emitted). Expand keeps
/// no emitted table: the traversal uses a fraction of what Expand joins
/// (7 % on TP-TR Med), and holding every expansion until selection was the
/// pipeline's memory peak. The rare exact duplicate check joins the earlier
/// table again.
pub(crate) fn expand_streamed<'t>(
    candidates: &'t [Table],
    key_names: &[&str],
    max_depth: usize,
    mut sink: impl FnMut(Table, KeyHashes),
) -> (Expansions<'t>, ExpandStats) {
    let ins = crate::telemetry::instruments();
    let mut stats = ExpandStats::default();
    let n = candidates.len();
    let mut done =
        Expansions { engine: JoinEngine::new(candidates), recipes: Vec::with_capacity(n) };
    let ends: FxHashSet<usize> = (0..n).filter(|&i| has_key(&candidates[i], key_names)).collect();
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
    // Dedup state: shape (sorted column names, row count) → kept
    // expansions of that shape, each with its emission index and the
    // fingerprint folded during its join. Only fingerprint matches run
    // the exact multiset comparison.
    type ShapeBucket = Vec<(usize, u64)>;
    let mut seen: FxHashMap<(Vec<String>, usize), ShapeBucket> = FxHashMap::default();
    for (i, candidate) in candidates.iter().enumerate() {
        if ends.contains(&i) {
            done.recipes.push(Recipe::Candidate(i));
            sink(candidate.clone(), None);
            continue;
        }
        let _span = gent_obs::span_timed("expand_candidate", ins.stage_expand_candidate.clone());
        let mut produced = 0usize;
        let paths = best_paths(i, &weights, &ends, max_depth, &mut stats.paths_considered);
        for (k, path) in paths.into_iter().enumerate() {
            let Some((mut joined, fp, key_hashes)) =
                done.engine.join_path(i, &path, key_names, &mut stats)
            else {
                continue;
            };
            if joined.is_empty() || !has_key(&joined, key_names) {
                continue;
            }
            let mut shape: Vec<String> = joined.schema().columns().map(str::to_string).collect();
            shape.sort_unstable();
            let bucket = seen.entry((shape, joined.n_rows())).or_default();
            let dup = bucket.iter().any(|&(x, xfp)| {
                xfp == fp && same_relation(&done.materialise(x, key_names), &joined)
            });
            if dup {
                stats.dedup_dropped += 1;
                continue;
            }
            bucket.push((done.recipes.len(), fp));
            // `k` enumerates all of this start's ranked paths — including
            // failed and deduplicated ones — so the surviving tables keep
            // the exact names the reference implementation gives them.
            let suffix = if k == 0 { String::new() } else { format!("#{}", k + 1) };
            let name = format!("{}+expanded{suffix}", candidates[i].name());
            joined.set_name(&name);
            done.recipes.push(Recipe::Joined { start: i, path, name });
            sink(joined, key_hashes);
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
    (done, stats)
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
    fn best_paths(
        start: usize,
        tables: &[Table],
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
        let mut visited = vec![false; tables.len()];
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
            (0..n).filter(|&i| has_key(&candidates[i], key_names)).collect();
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
            let paths = best_paths(i, candidates, &weights, &ends, max_depth);
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
                if ok && !joined.is_empty() && has_key(&joined, key_names) {
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
mod tests {
    use super::*;
    use gent_table::Value as V;

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
                let order = sorted_order(t);
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

    #[test]
    fn fused_fingerprint_matches_recomputation() {
        // The fingerprint folded during the join (left-sum + right-sum per
        // output row) must equal a from-scratch `relation_fingerprint` of
        // the materialized output — on single- and multi-hop paths.
        let cands = candidates();
        let mut stats = ExpandStats::default();
        let mut engine = JoinEngine::new(&cands);
        for (start, path) in [(1usize, vec![0usize]), (2, vec![0]), (1, vec![2, 0])] {
            let (joined, fp, _) = engine
                .join_path(start, &path, &["ID"], &mut stats)
                .unwrap_or_else(|| panic!("join {start}+{path:?} must succeed"));
            assert_eq!(fp, relation_fingerprint(&joined), "start {start}, path {path:?}");
        }
    }

    #[test]
    fn key_hash_handoff_matches_fresh_hashes() {
        // Keyless starts joined through A hand per-row source-key hashes
        // to matrix build; each must equal hashing the output row's key
        // cells from scratch.
        let cands = candidates();
        let (mut expanded, mut hashes) = (Vec::new(), Vec::new());
        let (mut expansions, _) = expand_streamed(&cands, &["ID"], 3, |t, h| {
            expanded.push(t);
            hashes.push(h);
        });
        // Joining an emitted table again reproduces it exactly.
        for (i, t) in expanded.iter().enumerate() {
            let again = expansions.materialise(i, &["ID"]);
            assert_eq!(&again, t, "expansion {i}");
        }
        let mut handed = 0;
        for (t, h) in expanded.iter().zip(&hashes) {
            let Some(h) = h else { continue };
            handed += 1;
            let ckey = vec![t.schema().column_index("ID").expect("expansions carry the key")];
            assert_eq!(h.len(), t.n_rows(), "one hash per row of {}", t.name());
            for (row, &hash) in t.rows().iter().zip(h) {
                assert_eq!(hash, crate::matrix::key_hash(row, &ckey), "row in {}", t.name());
            }
        }
        assert!(handed >= 1, "at least one expansion must hand hashes over");
    }
}
