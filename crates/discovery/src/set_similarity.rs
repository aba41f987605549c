//! Set Similarity (Algorithm 3) and Diversify Candidates (Algorithm 4).
//!
//! Given the lake (optionally pre-narrowed by a first-stage retriever) and a
//! Source Table, produce the set of *candidate tables*:
//!
//! 1. per source column, set-containment search over the inverted index for
//!    lake columns with overlap ≥ τ (the JOSIE/MATE role),
//! 2. **diversification**: re-score each candidate by how much it overlaps
//!    the source *beyond* what the previously ranked candidate already
//!    covers (Eq. 10) — this demotes duplicate tables (Example 9: "Table E,
//!    an exact duplicate of Table D", adds nothing),
//! 3. per-table aggregation (average of per-column diversified scores),
//! 4. aligned-tuple verification: within the tuples of a candidate that
//!    actually share values with the source, each matched column must keep
//!    overlap ≥ τ,
//! 5. removal of candidates whose columns and values are subsumed by an
//!    earlier candidate,
//! 6. implicit schema matching: matched candidate columns are renamed to
//!    the source columns they align with.
//!
//! Note on Algorithm 4's pseudocode: as printed, the top-ranked candidate
//! receives no score at all (lines 7–8 `Continue` before scoring) and would
//! be dropped by the re-ranking. That cannot be the intent — the top
//! candidate has no predecessor to be redundant with — so we keep it with
//! its full source overlap as the score, which matches the prose and
//! Example 9.

use crate::lake::{DataLake, Posting};
use gent_table::{FxHashMap, FxHashSet, Table, Value};
use std::sync::Arc;

/// One memoized containment probe: the source-column value set that was
/// probed and the count map the posting-list walk produced for it.
type CountEntry = (FxHashSet<Value>, Arc<FxHashMap<Posting, u32>>);

/// How much work row-level verification did — the counts that explain why
/// one source's discovery is slow (a low-cardinality anchor aligns every
/// source row to thousands of candidate rows).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VerificationStats {
    /// Candidate tables run through row-level verification.
    pub candidates_verified: u64,
    /// Anchors (key mappings and single-column pairs) that aligned at
    /// least one row and had their support counted.
    pub anchors_tried: u64,
    /// Candidate rows read while counting support, summed over anchors.
    pub aligned_rows_scanned: u64,
}

/// Memoization of the discovery stage's index walks against one
/// (immutable) lake, scoped to one request.
///
/// Two discovery hot spots repeat work inside a reclaim:
///
/// * [`DataLake::containment_counts`] — a full posting-list walk per
///   distinct source-column value set; columns probing with equal value
///   sets recompute identical count maps. The same count maps give
///   row-level verification its containments, so no candidate column's
///   value set is built there at all,
/// * [`DataLake::column_values`] — the diversification loop re-derives the
///   distinct values of the *same lake columns* for every source column
///   that retrieves them.
///
/// Both are pure functions of their inputs, so the cache returns the stored
/// result verbatim (behind an [`Arc`], no clone) and
/// [`set_similarity_cached`] is bit-identical to [`set_similarity`] —
/// pinned by `gent-core`'s `cached_reclaim_matches_uncached_and_reuses_walks`.
/// The cache lives as long as its caller keeps it — one request — never as
/// long as the lake: an ingest swap would discard it, and resident memory
/// is a gated number. Sharing one cache across the 26 TP-TR Med sources
/// was measured (33 % → 87.5 % hits, ≈ 0.25 s of 5.1 s) and did not pay;
/// see `docs/serving.md`, "Many sources".
#[derive(Debug, Default)]
pub struct DiscoveryCache {
    /// Count maps keyed by the probe value set. A linear scan with full set
    /// equality: collision-proof, and a request probes tens of sets, not
    /// thousands.
    counts: Vec<CountEntry>,
    /// Distinct values per lake column.
    columns: FxHashMap<Posting, Arc<FxHashSet<Value>>>,
    hits: u64,
    misses: u64,
    verification: VerificationStats,
}

impl DiscoveryCache {
    /// An empty cache.
    pub fn new() -> DiscoveryCache {
        DiscoveryCache::default()
    }

    /// Lookups answered from memory so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to compute (and store) their result.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Row-level verification work of the latest discovery run through this
    /// cache (each run overwrites it; hits and misses accumulate).
    pub fn verification(&self) -> VerificationStats {
        self.verification
    }

    fn containment_counts(
        &mut self,
        lake: &DataLake,
        probes: &FxHashSet<Value>,
    ) -> Arc<FxHashMap<Posting, u32>> {
        if let Some((_, c)) = self.counts.iter().find(|(k, _)| k == probes) {
            self.hits += 1;
            return Arc::clone(c);
        }
        self.misses += 1;
        let c = Arc::new(lake.containment_counts(probes.iter()));
        self.counts.push((probes.clone(), Arc::clone(&c)));
        c
    }

    fn column_values(&mut self, lake: &DataLake, p: Posting) -> Arc<FxHashSet<Value>> {
        if let Some(v) = self.columns.get(&p) {
            self.hits += 1;
            return Arc::clone(v);
        }
        self.misses += 1;
        let v = Arc::new(lake.column_values(p));
        self.columns.insert(p, Arc::clone(&v));
        v
    }
}

/// Configuration for Set Similarity.
#[derive(Debug, Clone)]
pub struct SetSimilarityConfig {
    /// Similarity threshold τ: minimum containment of a source column in a
    /// candidate column.
    pub tau: f64,
    /// Maximum number of candidate tables returned.
    pub max_candidates: usize,
    /// Apply Algorithm 4 diversification (ablation toggle; on in the paper).
    pub diversify: bool,
}

impl Default for SetSimilarityConfig {
    fn default() -> Self {
        SetSimilarityConfig { tau: 0.2, max_candidates: 30, diversify: true }
    }
}

/// A candidate table: the lake table with matched columns renamed to the
/// source columns they align with.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The (renamed) candidate table.
    pub table: Table,
    /// Index of the originating table in the lake.
    pub lake_index: usize,
    /// Averaged (diversified) overlap score that ranked this candidate.
    pub score: f64,
    /// Source column indices this candidate matched.
    pub matched_source_cols: Vec<usize>,
}

/// One per-column match of a lake column against a source column.
#[derive(Debug, Clone, Copy)]
struct ColumnMatch {
    table: u32,
    column: u16,
    /// |C ∩ c| / |c| — containment of the source column in the candidate's.
    overlap: f64,
}

/// A column mapping: `(source col, candidate col, per-column score)`, the
/// anchor pairs first.
pub type Mapping = Vec<(usize, u16, f64)>;

/// A column mapping with its total support score.
type ScoredMapping = (f64, Mapping);

/// Source rows and the candidate rows they align to, per shared anchor
/// value: the source rows of one group all align to the same candidate rows.
type Groups<'a> = Vec<(&'a [usize], &'a [usize])>;

/// Set overlap of two value sets as |a ∩ b| / |a| (containment of `a`).
fn containment(a: &FxHashSet<Value>, b: &FxHashSet<Value>) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    a.iter().filter(|v| b.contains(*v)).count() as f64 / a.len() as f64
}

/// Minimum row-consistency for a verified non-key column match: with p%
/// injected nulls a correct column still co-occurs on ~(1−p) of aligned
/// rows, while a wrong column only matches by coincidence.
const PAIR_SUPPORT_MIN: f64 = 0.05;

/// Aligned groups of at most this many candidate rows are compared cell by
/// cell; larger ones hash the candidate cells once (see
/// [`Verifier::count_support`]).
const DIRECT_COMPARE_ROWS: usize = 2;

/// What one attempt of row-level verification aligns source and candidate
/// rows on.
#[derive(Debug, Clone, Copy)]
pub enum Anchor<'a> {
    /// The source key mapped onto these candidate columns (one per key
    /// column, in key order).
    Key(&'a [u16]),
    /// One `(source column, candidate column)` pair.
    Column(usize, u16),
}

/// What verification needs of the source, built once per request instead
/// of once per candidate.
struct SourceProfile<'a> {
    source: &'a Table,
    /// Distinct non-null values per column.
    sets: Vec<FxHashSet<Value>>,
    /// Non-null cells per column — the pair-consistency denominators.
    non_null: Vec<usize>,
    /// Per column, the source rows holding each distinct non-null value:
    /// rows that share an anchor value align to the same candidate rows.
    groups: Vec<Vec<Vec<usize>>>,
    /// Per column, value → its index in `groups`.
    group_of: Vec<FxHashMap<&'a Value, usize>>,
    /// `0..n_rows`: a key anchor's groups are the single source rows.
    row_ids: Vec<usize>,
    /// Key tuple → source row; on a duplicated key the last row wins.
    by_key: FxHashMap<Vec<&'a Value>, usize>,
}

impl<'a> SourceProfile<'a> {
    fn new(source: &'a Table) -> Self {
        let n = source.n_cols();
        let mut sets: Vec<FxHashSet<Value>> = vec![FxHashSet::default(); n];
        let mut non_null = vec![0usize; n];
        let mut groups: Vec<Vec<Vec<usize>>> = vec![Vec::new(); n];
        let mut group_of: Vec<FxHashMap<&Value, usize>> = vec![FxHashMap::default(); n];
        let mut by_key: FxHashMap<Vec<&Value>, usize> = FxHashMap::default();
        let key = source.schema().key();
        for (si, row) in source.rows().iter().enumerate() {
            for (c, v) in row.iter().enumerate().filter(|(_, v)| !v.is_null_like()) {
                non_null[c] += 1;
                let g = *group_of[c].entry(v).or_insert_with(|| {
                    sets[c].insert(v.clone());
                    groups[c].push(Vec::new());
                    groups[c].len() - 1
                });
                groups[c][g].push(si);
            }
            // Null-like key cells never align (a candidate's are skipped
            // too), so such rows need no entry.
            if !key.is_empty() && key.iter().all(|&k| !row[k].is_null_like()) {
                by_key.insert(key.iter().map(|&k| &row[k]).collect(), si);
            }
        }
        let row_ids = (0..source.n_rows()).collect();
        SourceProfile { source, sets, non_null, groups, group_of, row_ids, by_key }
    }
}

/// Bucket `(group, candidate row)` alignment hits by group — a counting
/// sort, so rows stay ascending within a bucket. Returns the bucket bounds
/// (`n_groups + 1` offsets) and the bucketed candidate rows.
fn bucket_by_group(n_groups: usize, hits: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
    let mut bounds = vec![0usize; n_groups + 1];
    for &(g, _) in hits {
        bounds[g + 1] += 1;
    }
    for g in 0..n_groups {
        bounds[g + 1] += bounds[g];
    }
    let mut next = bounds.clone();
    let mut rows = vec![0usize; hits.len()];
    for &(g, ri) in hits {
        rows[next[g]] = ri;
        next[g] += 1;
    }
    (bounds, rows)
}

/// Instance-based schema matching with row-level verification.
///
/// Column renaming must be trustworthy before anything downstream (Expand's
/// join graph, the alignment matrices) can work — and pure set containment
/// is not trustworthy on data-lake tables full of dense integer columns
/// (every key range "contains" every other). So every mapping is verified
/// at the row level:
///
/// 1. **Key anchors** — try to map the source's key column(s) onto
///    candidate columns (top few containment candidates per key column),
///    align candidate rows to source rows through that key, and score every
///    further column match by *pair consistency*: the fraction of source
///    rows whose cell co-occurs with the candidate cell in an aligned row.
///    A key mapping explaining no non-key column is rejected as a numeric
///    coincidence.
/// 2. **Single-column anchors** — when the candidate cannot host the key
///    (a dimension table that `Expand` will join in later), try anchoring
///    the alignment on each (source column, candidate column) containment
///    pair instead, with the same co-occurrence requirement. This is what
///    maps `part.partkey → partkey` (supported by `p_name` agreeing on
///    aligned rows) instead of letting `partkey` masquerade as some other
///    key-shaped column.
///
/// One verifier serves every candidate of a request: the source side is
/// profiled once, containments come from the index walks the request has
/// already made, and the counting scratch is reused.
/// `docs/set-similarity.md` has the cost model and the argument that the
/// counts equal a cell-by-cell scan's.
struct Verifier<'a> {
    profile: &'a SourceProfile<'a>,
    lake: &'a DataLake,
    /// Per source column, the index walk's hit count per lake column:
    /// `counts[sc][p]` is |source column ∩ lake column `p`|, so containment
    /// needs no per-candidate set. `None` for an all-null source column.
    counts: Vec<Option<Arc<FxHashMap<Posting, u32>>>>,
    /// Support counts of the anchor being scored, `[sc * n_cand_cols + cc]`.
    hits: Vec<u32>,
    /// Distinct cells of one aligned group → bit set of the candidate
    /// columns (of the current block of 64) holding them.
    cells: FxHashMap<&'a Value, u64>,
    /// Work done so far; the run leaves it in its [`DiscoveryCache`].
    stats: VerificationStats,
}

impl<'a> Verifier<'a> {
    fn new(
        profile: &'a SourceProfile<'a>,
        lake: &'a DataLake,
        counts: Vec<Option<Arc<FxHashMap<Posting, u32>>>>,
    ) -> Self {
        Verifier {
            profile,
            lake,
            counts,
            hits: Vec::new(),
            cells: FxHashMap::default(),
            stats: VerificationStats::default(),
        }
    }

    /// A verifier for the entry points that verify outside a discovery run
    /// (over a one-table lake), walking the index itself.
    fn standalone(profile: &'a SourceProfile<'a>, lake: &'a DataLake) -> Self {
        let counts = profile
            .sets
            .iter()
            .map(|set| (!set.is_empty()).then(|| Arc::new(lake.containment_counts(set))))
            .collect();
        Verifier::new(profile, lake, counts)
    }

    /// Up to three candidate columns containing source column `sc` best
    /// (containment ≥ τ; ties go to the lower column).
    fn anchor_options(&self, sc: usize, ti: u32, tau: f64) -> Vec<u16> {
        let distinct = self.profile.sets[sc].len();
        let mut opts: Vec<(u16, f64)> = (0..self.lake.table(ti as usize).n_cols() as u16)
            .map(|column| {
                let hits =
                    self.counts[sc].as_ref().and_then(|c| c.get(&Posting { table: ti, column }));
                let overlap = match (distinct, hits) {
                    (0, _) | (_, None) => 0.0,
                    (_, Some(&hits)) => hits as f64 / distinct as f64,
                };
                (column, overlap)
            })
            .filter(|&(_, o)| o >= tau)
            .collect();
        opts.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        opts.truncate(3);
        opts.into_iter().map(|(c, _)| c).collect()
    }

    /// Candidate rows aligned to a source row by equality on a key mapping,
    /// as `(source row, candidate row)` hits.
    fn key_hits(&self, table: &Table, key_cols: &[u16]) -> Vec<(usize, usize)> {
        let mut hits = Vec::new();
        let mut probe: Vec<&Value> = Vec::with_capacity(key_cols.len());
        for (ri, row) in table.rows().iter().enumerate() {
            probe.clear();
            probe.extend(key_cols.iter().map(|&c| &row[c as usize]));
            if probe.iter().any(|v| v.is_null_like()) {
                continue;
            }
            if let Some(&si) = self.profile.by_key.get(&probe) {
                hits.push((si, ri));
            }
        }
        hits
    }

    /// Candidate rows whose `acc` cell equals some source cell of column
    /// `asc`, as `(source group, candidate row)` hits: one probe of the
    /// source's small value map per candidate row, nothing built per
    /// candidate column.
    fn column_hits(&self, table: &Table, asc: usize, acc: u16) -> Vec<(usize, usize)> {
        let group_of = &self.profile.group_of[asc];
        table
            .column(acc as usize)
            .enumerate()
            .filter(|(_, v)| !v.is_null_like())
            .filter_map(|(ri, v)| group_of.get(v).map(|&g| (g, ri)))
            .collect()
    }

    /// Count, for every non-anchor `(source column, candidate column)`
    /// pair, the aligned source rows whose cell occurs in that candidate
    /// column among the rows they align to; the counts land in `self.hits`.
    /// Returns the number of aligned source rows.
    ///
    /// Each group's candidate rows are read once: their distinct cells go
    /// into one map carrying the columns each occurs in, and every source
    /// cell of the group is answered by one probe. A group of one or two
    /// candidate rows is cheaper to compare directly.
    fn count_support(
        &mut self,
        table: &'a Table,
        groups: &[(&[usize], &[usize])],
        anchor: &[(usize, u16)],
    ) -> usize {
        let source = self.profile.source;
        let n_cand_cols = table.n_cols();
        let src_cols: Vec<usize> = (0..source.n_cols())
            .filter(|sc| anchor.iter().all(|a| a.0 != *sc) && self.profile.non_null[*sc] > 0)
            .collect();
        let cand_cols: Vec<usize> =
            (0..n_cand_cols).filter(|&cc| anchor.iter().all(|a| a.1 as usize != cc)).collect();
        self.hits.clear();
        self.hits.resize(source.n_cols() * n_cand_cols, 0);
        self.stats.anchors_tried += 1;
        self.stats.aligned_rows_scanned += groups.iter().map(|g| g.1.len() as u64).sum::<u64>();

        for block in cand_cols.chunks(u64::BITS as usize) {
            for &(src_rows, cand_rows) in groups {
                let src_cells = src_rows.iter().flat_map(|&si| {
                    let row = &source.rows()[si];
                    src_cols
                        .iter()
                        .map(move |&sc| (sc, &row[sc]))
                        .filter(|(_, v)| !v.is_null_like())
                });
                if cand_rows.len() <= DIRECT_COMPARE_ROWS {
                    for (sc, sv) in src_cells {
                        for &cc in block {
                            if cand_rows.iter().any(|&ri| &table.rows()[ri][cc] == sv) {
                                self.hits[sc * n_cand_cols + cc] += 1;
                            }
                        }
                    }
                    continue;
                }
                self.cells.clear();
                for &ri in cand_rows {
                    let row = &table.rows()[ri];
                    for (bit, &cc) in block.iter().enumerate() {
                        if !row[cc].is_null_like() {
                            *self.cells.entry(&row[cc]).or_insert(0) |= 1 << bit;
                        }
                    }
                }
                for (sc, sv) in src_cells {
                    let mut columns = self.cells.get(sv).copied().unwrap_or(0);
                    while columns != 0 {
                        let cc = block[columns.trailing_zeros() as usize];
                        self.hits[sc * n_cand_cols + cc] += 1;
                        columns &= columns - 1;
                    }
                }
            }
        }
        groups.iter().map(|g| g.0.len()).sum()
    }

    /// Greedy injective assignment of non-anchor source columns to
    /// candidate columns by the pair-consistency support in `self.hits`.
    /// `None` when not a single non-anchor column has support (the anchor
    /// is then considered a coincidence).
    fn assign(
        &self,
        n_cand_cols: usize,
        aligned: usize,
        anchor: &[(usize, u16)],
    ) -> Option<ScoredMapping> {
        let source = self.profile.source;
        let mut pair_scores: Vec<(usize, u16, f64)> = Vec::new();
        let mut verifiable_cols = 0usize;
        for sc in (0..source.n_cols()).filter(|sc| anchor.iter().all(|a| a.0 != *sc)) {
            let denom = self.profile.non_null[sc];
            if denom == 0 {
                continue; // an all-null source column can neither support nor refute
            }
            verifiable_cols += 1;
            for cc in (0..n_cand_cols as u16).filter(|cc| anchor.iter().all(|a| a.1 != *cc)) {
                let score = self.hits[sc * n_cand_cols + cc as usize] as f64 / denom as f64;
                if score >= PAIR_SUPPORT_MIN {
                    pair_scores.push((sc, cc, score));
                }
            }
        }
        pair_scores.sort_by(|a, b| {
            b.2.partial_cmp(&a.2).expect("finite").then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1))
        });
        let mut mapping: Mapping = anchor.iter().map(|&(sc, cc)| (sc, cc, 1.0)).collect();
        let mut total = aligned as f64 / source.n_rows().max(1) as f64;
        let n_anchor = mapping.len();
        for (sc, cc, score) in pair_scores {
            if mapping.iter().any(|m| m.0 == sc || m.1 == cc) {
                continue;
            }
            total += score;
            mapping.push((sc, cc, score));
        }
        // Reject the anchor as a coincidence only when verification was
        // actually possible: if every non-anchor source column is entirely
        // null, the anchor alignment is all the evidence there can be.
        if mapping.len() == n_anchor && verifiable_cols > 0 {
            return None;
        }
        Some((total, mapping))
    }

    /// Align lake table `ti` on `anchor` and count support into
    /// `self.hits`. Returns the number of aligned source rows and the anchor
    /// as `(source column, candidate column)` pairs; `None` when the anchor
    /// aligns no row.
    fn support(&mut self, ti: u32, anchor: Anchor<'_>) -> Option<(usize, Vec<(usize, u16)>)> {
        let profile = self.profile;
        let table = self.lake.table(ti as usize);
        // Source rows per group, hits per candidate row, and the anchor's
        // column pairs: a key anchor's groups are the single source rows, a
        // column anchor's the rows sharing one anchor value.
        let (src_groups, hits, pairs): (Vec<&[usize]>, _, Vec<(usize, u16)>) = match anchor {
            Anchor::Key(key_cols) => (
                profile.row_ids.chunks(1).collect(),
                self.key_hits(table, key_cols),
                profile
                    .source
                    .schema()
                    .key()
                    .iter()
                    .copied()
                    .zip(key_cols.iter().copied())
                    .collect(),
            ),
            Anchor::Column(asc, acc) => (
                profile.groups[asc].iter().map(Vec::as_slice).collect(),
                self.column_hits(table, asc, acc),
                vec![(asc, acc)],
            ),
        };
        if hits.is_empty() {
            return None;
        }
        let (bounds, cand_rows) = bucket_by_group(src_groups.len(), &hits);
        let groups: Groups<'_> = src_groups
            .iter()
            .zip(bounds.windows(2))
            .filter(|(_, w)| w[0] < w[1])
            .map(|(&src, w)| (src, &cand_rows[w[0]..w[1]]))
            .collect();
        Some((self.count_support(table, &groups, &pairs), pairs))
    }

    /// The best-supported mapping of lake table `ti` onto the source, or
    /// `None` when no anchor produces a supported mapping — such candidates
    /// are discarded.
    fn verify(&mut self, ti: u32, tau: f64) -> Option<Mapping> {
        let profile = self.profile;
        let skey = profile.source.schema().key();
        if skey.is_empty() {
            return None;
        }
        let n_cand_cols = self.lake.table(ti as usize).n_cols();
        self.stats.candidates_verified += 1;
        // Score one anchor; keep it when it beats the family's best so far.
        let try_anchor = |this: &mut Self, anchor: Anchor<'_>, best: &mut Option<ScoredMapping>| {
            let scored = this
                .support(ti, anchor)
                .and_then(|(aligned, pairs)| this.assign(n_cand_cols, aligned, &pairs));
            if let Some((total, mapping)) = scored {
                if !matches!(best, Some((t, _)) if *t >= total) {
                    *best = Some((total, mapping));
                }
            }
        };

        // --- key anchors -------------------------------------------------
        let mut key_best: Option<ScoredMapping> = None;
        let key_options: Vec<Vec<u16>> =
            skey.iter().map(|&kc| self.anchor_options(kc, ti, tau)).collect();
        if key_options.iter().all(|opts| !opts.is_empty()) {
            // Enumerate key-mapping combos (≤ 3^|key|; keys are 1–2 columns).
            let mut combos: Vec<Vec<u16>> = vec![Vec::new()];
            for opts in &key_options {
                combos = combos
                    .iter()
                    .flat_map(|combo| {
                        opts.iter().filter(|o| !combo.contains(o)).map(move |&o| {
                            let mut c = combo.clone();
                            c.push(o);
                            c
                        })
                    })
                    .collect();
            }
            for combo in &combos {
                try_anchor(self, Anchor::Key(combo), &mut key_best);
            }
        }

        // --- single-column anchors ---------------------------------------
        // Evaluated even when a key anchor exists: a coincidental key anchor
        // (FK values aliasing the key range) must lose to a well-supported
        // non-key anchor on score, not win by fiat.
        let mut column_best: Option<ScoredMapping> = None;
        for asc in (0..profile.source.n_cols()).filter(|&c| !profile.sets[c].is_empty()) {
            for acc in self.anchor_options(asc, ti, tau) {
                try_anchor(self, Anchor::Column(asc, acc), &mut column_best);
            }
        }
        // Prefer the higher-scoring anchor family; ties go to the key anchor
        // (alignable without Expand).
        match (key_best, column_best) {
            (Some((kt, km)), Some((st, sm))) => Some(if st > kt { sm } else { km }),
            (Some((_, km)), None) => Some(km),
            (None, Some((_, sm))) => Some(sm),
            (None, None) => None,
        }
    }
}

/// Row-level verification of one table against one source, outside a
/// discovery run: the mapping [`set_similarity`] would rename `table` by, or
/// `None` when no anchor is supported.
pub fn verified_mapping(source: &Table, table: &Table, tau: f64) -> Option<Mapping> {
    let lake = DataLake::from_tables(vec![table.clone()]);
    let profile = SourceProfile::new(source);
    Verifier::standalone(&profile, &lake).verify(0, tau)
}

/// What row-level verification counts for one anchor: the number of aligned
/// source rows, and per `[source column][candidate column]` how many of
/// them find their cell in that candidate column among the rows they align
/// to (anchor columns and all-null source columns stay 0). Diagnostics, and
/// the handle the equivalence proptests compare against a cell-by-cell scan.
///
/// # Panics
/// When `anchor` names a column out of range.
pub fn anchor_support(source: &Table, table: &Table, anchor: Anchor<'_>) -> (usize, Vec<Vec<u32>>) {
    let lake = DataLake::from_tables(vec![table.clone()]);
    let profile = SourceProfile::new(source);
    let mut verifier = Verifier::standalone(&profile, &lake);
    match verifier.support(0, anchor) {
        Some((aligned, _)) => {
            (aligned, verifier.hits.chunks(table.n_cols()).map(<[u32]>::to_vec).collect())
        }
        None => (0, vec![vec![0; table.n_cols()]; source.n_cols()]),
    }
}

/// Algorithm 3 — discover candidate tables for `source` in `lake`.
///
/// `restrict_to` optionally limits the search to a subset of lake table
/// indices (the output of a first-stage [`crate::TableRetriever`]).
pub fn set_similarity(
    lake: &DataLake,
    source: &Table,
    restrict_to: Option<&[usize]>,
    cfg: &SetSimilarityConfig,
) -> Vec<Candidate> {
    set_similarity_cached(lake, source, restrict_to, cfg, &mut DiscoveryCache::new())
}

/// [`set_similarity`] with a [`DiscoveryCache`] shared across calls —
/// bit-identical results, repeated index walks answered from memory.
pub fn set_similarity_cached(
    lake: &DataLake,
    source: &Table,
    restrict_to: Option<&[usize]>,
    cfg: &SetSimilarityConfig,
    cache: &mut DiscoveryCache,
) -> Vec<Candidate> {
    let allowed: Option<FxHashSet<u32>> =
        restrict_to.map(|idx| idx.iter().map(|&i| i as u32).collect());

    // --- per-source-column containment search + diversification ---------
    // Accumulated diversified scores per lake table, and the best matching
    // lake column per (table, source column).
    let mut table_scores: FxHashMap<u32, Vec<f64>> = FxHashMap::default();
    let mut column_assignment: FxHashMap<(u32, usize), (u16, f64)> = FxHashMap::default();
    let profile = SourceProfile::new(source);
    let mut counts_by_col: Vec<Option<Arc<FxHashMap<Posting, u32>>>> = vec![None; source.n_cols()];

    for (sc, src_values) in profile.sets.iter().enumerate() {
        if src_values.is_empty() {
            continue;
        }
        let counts = cache.containment_counts(lake, src_values);
        counts_by_col[sc] = Some(Arc::clone(&counts));
        // Best column per table for this source column. The tie-break on
        // the lower column index makes the pick independent of the count
        // map's iteration order — required for cached counts (computed from
        // an equal probe set with a different insertion history) to yield
        // the exact result a fresh computation would.
        let mut best: FxHashMap<u32, (u16, u32)> = FxHashMap::default();
        for (&p, &hits) in counts.iter() {
            if let Some(allowed) = &allowed {
                if !allowed.contains(&p.table) {
                    continue;
                }
            }
            let e = best.entry(p.table).or_insert((p.column, 0));
            if hits > e.1 || (hits == e.1 && p.column < e.0) {
                *e = (p.column, hits);
            }
        }
        let denom = src_values.len() as f64;
        let mut matches: Vec<ColumnMatch> = best
            .into_iter()
            .map(|(t, (c, hits))| ColumnMatch { table: t, column: c, overlap: hits as f64 / denom })
            .filter(|m| m.overlap >= cfg.tau)
            .collect();
        // Rank by raw overlap (desc), deterministic tiebreak on table index.
        matches
            .sort_by(|a, b| b.overlap.partial_cmp(&a.overlap).unwrap().then(a.table.cmp(&b.table)));

        // Algorithm 4 — diversify against the previous candidate's column.
        let scored: Vec<(ColumnMatch, f64)> = if cfg.diversify {
            let mut scored = Vec::with_capacity(matches.len());
            let mut prev_values: Option<Arc<FxHashSet<Value>>> = None;
            for m in &matches {
                let vals = cache.column_values(lake, Posting { table: m.table, column: m.column });
                let score = match &prev_values {
                    None => m.overlap, // top candidate keeps its full score
                    Some(prev) => m.overlap - containment(&vals, prev),
                };
                scored.push((*m, score));
                prev_values = Some(vals);
            }
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.table.cmp(&b.0.table)));
            scored
        } else {
            matches.into_iter().map(|m| (m, m.overlap)).collect()
        };

        for (m, score) in scored {
            table_scores.entry(m.table).or_default().push(score);
            let e = column_assignment.entry((m.table, sc)).or_insert((m.column, m.overlap));
            if m.overlap > e.1 {
                *e = (m.column, m.overlap);
            }
        }
    }

    // --- rank tables by average diversified score -----------------------
    let mut ranked: Vec<(u32, f64)> = table_scores
        .iter()
        .map(|(&t, scores)| (t, scores.iter().sum::<f64>() / scores.len() as f64))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

    // --- aligned-tuple verification + renaming --------------------------
    let mut verifier = Verifier::new(&profile, lake, counts_by_col);
    let mut candidates: Vec<Candidate> = Vec::new();
    for (ti, score) in ranked {
        if candidates.len() >= cfg.max_candidates {
            break;
        }
        let table = lake.table(ti as usize);
        // Containment-prior assignment: per source column, the best lake
        // column by set containment (what the inverted index gave us).
        let mut assignments: Vec<(usize, u16, f64)> = (0..source.n_cols())
            .filter_map(|sc| column_assignment.get(&(ti, sc)).map(|&(c, o)| (sc, c, o)))
            .collect();
        assignments.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap().then(a.0.cmp(&b.0)));
        if assignments.is_empty() {
            continue;
        }
        // Pair-consistency verification (the paper's "set overlap within
        // aligned tuples" check, §V-A1): when the candidate can map the
        // source key, align rows by key value and score every column match
        // by row co-occurrence — this is what stops a dense numeric column
        // (sizes, quantities) from masquerading as a key column.
        let mapping: Mapping = match verifier.verify(ti, cfg.tau) {
            Some(m) => m,
            None => {
                // No verified key mapping — keep the containment-greedy
                // injective assignment for the *non-key* source columns
                // only (Expand joins this candidate towards the key; a
                // key column must never be claimed without row-level
                // verification).
                let skey = source.schema().key();
                let mut used: FxHashSet<u16> = FxHashSet::default();
                assignments
                    .into_iter()
                    .filter(|&(sc, _, _)| !skey.contains(&sc))
                    .filter(|&(_, c, _)| used.insert(c))
                    .collect()
            }
        };
        if mapping.is_empty() {
            continue;
        }

        // Rename mapped columns to their source names; resolve collisions
        // with unmapped columns by suffixing those. The clone is
        // schema-only in cost: `Table` rows are Arc-shared copy-on-write,
        // and nothing below mutates rows, so every accepted candidate keeps
        // pointing at the lake table's row storage.
        let mut renamed = table.clone();
        // First free up colliding unmapped names.
        let target_names: FxHashSet<String> = mapping
            .iter()
            .map(|&(sc, _, _)| source.schema().column_name(sc).expect("in range").to_string())
            .collect();
        let mapped_cols: FxHashSet<u16> = mapping.iter().map(|&(_, c, _)| c).collect();
        for c in 0..renamed.n_cols() {
            if mapped_cols.contains(&(c as u16)) {
                continue;
            }
            let name = renamed.schema().column_name(c).expect("in range").to_string();
            if target_names.contains(&name) {
                let mut k = 1;
                loop {
                    let alt = format!("{name}__orig{k}");
                    if !renamed.schema().contains(&alt) && !target_names.contains(&alt) {
                        renamed.schema_mut().rename(c, &alt).expect("fresh name");
                        break;
                    }
                    k += 1;
                }
            }
        }
        // Two-phase rename: mapped columns may swap names among themselves
        // (e.g. a numeric column matching a different source key), so park
        // them under fresh temporaries first.
        for (k, &(_, c, _)) in mapping.iter().enumerate() {
            renamed
                .schema_mut()
                .rename(c as usize, &format!("__gent_tmp_{k}"))
                .expect("temp names are fresh");
        }
        for &(sc, c, _) in &mapping {
            let src_name = source.schema().column_name(sc).expect("in range").to_string();
            renamed.schema_mut().rename(c as usize, &src_name).expect("collisions resolved above");
        }

        candidates.push(Candidate {
            table: renamed,
            lake_index: ti as usize,
            score,
            matched_source_cols: mapping.iter().map(|&(sc, _, _)| sc).collect(),
        });
    }

    cache.verification = verifier.stats;

    // --- remove candidates subsumed by an earlier (better) candidate ----
    // Each unordered pair once: a later candidate can only fall to an
    // earlier one that is still kept.
    let mut keep: Vec<bool> = vec![true; candidates.len()];
    for hi in 0..candidates.len() {
        for lo in hi + 1..candidates.len() {
            if keep[hi] && keep[lo] {
                keep[lo] = !candidates[lo].table.subsumed_by(&candidates[hi].table);
            }
        }
    }
    candidates.into_iter().zip(keep).filter(|(_, k)| *k).map(|(c, _)| c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

    /// Figure 3's lake: tables A–D around the applicant source table.
    fn figure3() -> (Table, DataLake) {
        let source = Table::build(
            "S",
            &["ID", "Name", "Age", "Gender", "Education Level"],
            &["ID"],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Int(27), V::Null, V::str("Bachelors")],
                vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male"), V::str("Masters")],
                vec![
                    V::Int(2),
                    V::str("Wang"),
                    V::Int(32),
                    V::str("Female"),
                    V::str("High School"),
                ],
            ],
        )
        .unwrap();
        let a = Table::build(
            "A",
            &["c0", "c1", "c2"],
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
            &["c0", "c1"],
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
            &["c0", "c1"],
            &[],
            vec![
                vec![V::str("Smith"), V::str("Male")],
                vec![V::str("Brown"), V::str("Male")],
                vec![V::str("Wang"), V::str("Male")],
            ],
        )
        .unwrap();
        let d = Table::build(
            "D",
            &["c0", "c1", "c2", "c3", "c4"],
            &[],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Int(27), V::Null, V::str("Bachelors")],
                vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male"), V::str("Masters")],
                vec![V::Int(2), V::str("Wang"), V::Int(32), V::str("Female"), V::Null],
            ],
        )
        .unwrap();
        (source, DataLake::from_tables(vec![a, b, c, d]))
    }

    #[test]
    fn finds_and_renames_figure3_candidates() {
        let (source, lake) = figure3();
        let cands = set_similarity(&lake, &source, None, &SetSimilarityConfig::default());
        assert!(cands.len() >= 3, "got {} candidates", cands.len());
        // Every candidate's matched columns carry source names now.
        for c in &cands {
            assert!(
                c.table.schema().columns().any(|n| source.schema().contains(n)),
                "candidate {} has no source-named column",
                c.table.name()
            );
        }
        // Table B's Name column must be renamed "Name", its age col "Age".
        let b = cands.iter().find(|c| c.table.name() == "B").expect("B retrieved");
        assert!(b.table.schema().contains("Name"));
        assert!(b.table.schema().contains("Age"));
    }

    #[test]
    fn accepted_candidates_share_row_storage_with_the_lake() {
        // Renaming is schema-only: every candidate table must still point
        // at the lake table's Arc-shared row buffer — no per-candidate row
        // copy just to change column names.
        let (source, lake) = figure3();
        let cands = set_similarity(&lake, &source, None, &SetSimilarityConfig::default());
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(
                c.table.shares_rows_with(lake.table(c.lake_index)),
                "candidate {} copied its rows during renaming",
                c.table.name()
            );
        }
    }

    #[test]
    fn duplicate_table_demoted_by_diversification_or_subsumption() {
        // Example 9: add Table E, an exact duplicate of D. It must not
        // produce two copies in the candidate set.
        let (source, lake) = figure3();
        let mut tables: Vec<Table> = lake.tables_iter().cloned().collect();
        let mut e = tables[3].clone();
        e.set_name("E");
        tables.push(e);
        let lake = DataLake::from_tables(tables);
        let cands = set_similarity(&lake, &source, None, &SetSimilarityConfig::default());
        let d_like =
            cands.iter().filter(|c| c.table.name() == "D" || c.table.name() == "E").count();
        assert_eq!(d_like, 1, "duplicate must be removed, got {d_like}");
    }

    #[test]
    fn threshold_excludes_weak_overlaps() {
        let (source, lake) = figure3();
        let strict = SetSimilarityConfig { tau: 0.99, ..Default::default() };
        let cands = set_similarity(&lake, &source, None, &strict);
        // Only columns fully containing a source column survive τ=0.99.
        for c in &cands {
            assert!(!c.matched_source_cols.is_empty());
        }
        let loose = set_similarity(&lake, &source, None, &SetSimilarityConfig::default());
        assert!(loose.len() >= cands.len());
    }

    #[test]
    fn restrict_to_limits_search() {
        let (source, lake) = figure3();
        let cands = set_similarity(&lake, &source, Some(&[1]), &SetSimilarityConfig::default());
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].table.name(), "B");
    }

    #[test]
    fn empty_source_yields_nothing() {
        let (_, lake) = figure3();
        let empty = Table::build("S", &["ID"], &["ID"], vec![]).unwrap();
        assert!(set_similarity(&lake, &empty, None, &SetSimilarityConfig::default()).is_empty());
    }

    /// The discovery cache must be invisible in the output: running the
    /// same source repeatedly through one cache yields exactly what the
    /// uncached path yields, while the second pass answers every index
    /// walk from memory.
    #[test]
    fn cached_discovery_is_bit_identical_and_hits_on_repeats() {
        let (source, lake) = figure3();
        let cfg = SetSimilarityConfig::default();
        let fresh = set_similarity(&lake, &source, None, &cfg);

        let mut cache = DiscoveryCache::new();
        let first = set_similarity_cached(&lake, &source, None, &cfg, &mut cache);
        assert_eq!(cache.hits(), 0, "first pass has nothing to hit");
        let misses_after_first = cache.misses();
        assert!(misses_after_first > 0);
        let verified_first = cache.verification();
        assert!(verified_first.candidates_verified > 0 && verified_first.anchors_tried > 0);
        let second = set_similarity_cached(&lake, &source, None, &cfg, &mut cache);
        assert!(cache.hits() > 0, "second pass must reuse memoized walks");
        assert_eq!(cache.misses(), misses_after_first, "second pass recomputes nothing");
        assert_eq!(cache.verification(), verified_first, "a run reports its own work");

        for (a, b) in fresh.iter().zip(first.iter()).chain(fresh.iter().zip(second.iter())) {
            assert_eq!(a.lake_index, b.lake_index);
            assert_eq!(a.score, b.score);
            assert_eq!(a.matched_source_cols, b.matched_source_cols);
            assert_eq!(a.table.rows(), b.table.rows());
            assert_eq!(
                a.table.schema().columns().collect::<Vec<_>>(),
                b.table.schema().columns().collect::<Vec<_>>()
            );
        }
        assert_eq!(fresh.len(), first.len());
        assert_eq!(fresh.len(), second.len());
    }
}
