//! Three-valued alignment matrices (§V-A2/3) and `Combine` (Eq. 5).
//!
//! A candidate table is represented by a matrix with the Source Table's
//! dimensions. For every candidate tuple aligned to source row `i` (same
//! key value), the matrix holds a vector over the source columns with
//! (Eq. 4):
//!
//! * ` 1` — candidate agrees with the source cell (including a null where
//!   the source is null),
//! * ` 0` — candidate has a null where the source has a value,
//! * `-1` — candidate has a non-null value contradicting the source (or a
//!   value where the source has a null).
//!
//! `Combine` (Eq. 5) simulates outer union + subsumption/complementation:
//! two aligned tuples with *conflicting* non-zero entries at some column are
//! kept separate (real integration would keep both tuples); otherwise they
//! merge by element-wise maximum under the truth ordering `1 > 0 > −1`
//! (matching Figure 5's `0 ∨ ¬1 = 0`: the simulated integration will not
//! let an erroneous value fill a null because the similarity gate would
//! reject it).
//!
//! Because combining can yield more aligned tuples per source row than
//! either input had, each matrix stores *lists* of tuple vectors per source
//! row, with dominance pruning and a configurable cap to bound growth —
//! this is the dictionary encoding §V-A3 describes.
//!
//! # Packed arena layout
//!
//! The matrix is stored as a **packed flat arena**: every cell is 2 bits
//! (codes `−1 → 00`, `0 → 01`, `1 → 10`), 32 cells per `u64` word, packed
//! MSB-first:
//!
//! ```text
//! words:   [ t0w0 t0w1 … | t1w0 t1w1 … | … ]    ⌈n_cols/32⌉ words per tuple
//! row_off: [ 0, 1, 3, 3, … ]                    len = |S| + 1
//! ```
//!
//! Tuple `t` occupies `words[t·wpt .. (t+1)·wpt]` (`wpt` = words per
//! tuple); column `j` sits at bit `62 − 2·(j mod 32)` of word `j / 32`, and
//! lanes past `n_cols` are padded with the `0` code. Two properties fall
//! straight out of the packing:
//!
//! * the numeric code order matches the value order `−1 < 0 < 1`, and
//!   MSB-first packing makes `u64`-slice comparison *equal* to
//!   lexicographic tuple comparison — sorting/dedup need no decoding;
//! * the `0` padding never conflicts with anything and is identical across
//!   tuples, so every lane kernel can run over whole words without masking
//!   the tail.
//!
//! The aligned tuples of source row `i` are the tuple range
//! `row_off[i] .. row_off[i+1]` — an empty range encodes an uncovered row.
//!
//! # Lane kernels
//!
//! With `HI = 0xAAAA…` (the high bit of every lane), the per-word bit
//! algebra covers every cell operation the traversal's hot loops need —
//! 32 cells per instruction instead of one:
//!
//! * **ones** `= w & HI` — lanes holding `1` (code `10`);
//! * **negs** `= !(w | w≪1) & HI` — lanes holding `−1` (code `00`);
//! * **conflict** `(x, y) = (x & negs(y)) | (y & negs(x)) ≠ 0` — some lane
//!   has `1` on one side and `−1` on the other (Eq. 5's "keep separate");
//! * **lane-max** `(x, y) = (x|y) & !(((x|y) & HI) ≫ 1)` — the element-wise
//!   OR under the truth ordering `1 > 0 > −1` (the hi bit wins its lane);
//! * **score** `= popcount(w & wm) − popcount(negs(w) & wm)` — `α − δ`
//!   against the per-column weight mask `wm` (hi bit set exactly at the
//!   non-key lanes), two popcounts per 32 columns.
//!
//! Every operation (build, [`AlignmentMatrix::combine`],
//! [`AlignmentMatrix::eis`], [`AlignmentMatrix::net_score`], and the fused
//! [`AlignmentMatrix::combine_score`]) streams these kernels over the
//! contiguous word buffer: no per-tuple heap allocations, no pointer
//! chasing, 4× the cell density of the previous one-byte-per-cell arena.
//!
//! # Per-row max-bound profiles
//!
//! Each matrix also stores, per source row, the **lane-max of all its
//! aligned tuples** (`wpt` words; all-`00` for an uncovered row — the
//! identity of lane-max). Every tuple Eq. 5 can generate for a row is
//! element-wise ≤ the lane-max of the two sides' profiles (an OR-merge is
//! ≤ the column-wise max of its inputs, and a pass-through is ≤ its own
//! side's profile), and the score is monotone under the cell ordering — so
//! `score(lane_max(profile_a, profile_b))` is an **admissible upper bound**
//! on the fused per-row result (`AlignmentMatrix::combine_row_bound`).
//! `RoundScorer` uses it to prune candidates harder than the flat `n`-cap
//! before any lane work runs, without ever changing a selection.
//!
//! The original triply-nested `Vec<Vec<Vec<i8>>>` implementation survives
//! verbatim in [`mod@reference`] as the executable specification: property
//! tests assert the packed arena is behaviourally identical to it.

use gent_table::{FxHashMap, Schema, Table, Value};

/// Cells per `u64` word (2 bits per cell).
const LANES: usize = 32;
/// The high bit of every 2-bit lane.
const HI: u64 = 0xAAAA_AAAA_AAAA_AAAA;
/// Cell code for `1` (agreement).
const CODE_ONE: u64 = 0b10;
/// Cell code for `0` (null-against-value).
const CODE_ZERO: u64 = 0b01;

/// The bit shift of column lane `l` within its word (MSB-first).
#[inline]
const fn lane_shift(l: usize) -> u32 {
    (62 - 2 * l) as u32
}

/// Lanes holding `−1` (code `00`): neither bit of the lane is set.
#[inline]
fn negs(w: u64) -> u64 {
    !(w | (w << 1)) & HI
}

/// Element-wise maximum under the truth ordering `1 > 0 > −1`: a lane with
/// the hi bit set (a `1`) wins outright; otherwise the lo bits OR (`0`
/// beats `−1`).
#[inline]
fn lane_max(x: u64, y: u64) -> u64 {
    let o = x | y;
    o & !((o & HI) >> 1)
}

/// Do two packed tuples conflict at this word (some lane `1` vs `−1`)?
#[inline]
fn conflict_word(x: u64, y: u64) -> u64 {
    (x & negs(y)) | (y & negs(x))
}

/// `α − δ` contribution of one word against its weight mask (`wm ⊆ HI`,
/// set exactly at the non-key lanes — zero at key lanes and padding).
#[inline]
fn word_score(w: u64, wm: u64) -> i64 {
    ((w & wm).count_ones() as i64) - ((negs(w) & wm).count_ones() as i64)
}

/// `α − δ` of one packed tuple.
#[inline]
fn packed_score(tuple: &[u64], weight: &[u64]) -> i64 {
    tuple.iter().zip(weight.iter()).map(|(&w, &m)| word_score(w, m)).sum()
}

/// What alignment reads of a candidate: a schema and cells by position.
/// [`Table`] has rows; an expansion Expand has only joined as row-index
/// pairs (`expand::JoinView`) answers from its two input tables, so it is
/// aligned without one joined row ever existing.
pub(crate) trait Rows {
    /// The candidate's schema.
    fn schema(&self) -> &Schema;
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// The cell at row `i`, column `j`.
    fn cell(&self, i: usize, j: usize) -> &Value;
    /// Per row, the hash of its `key_cols` cells — a fold of their cell
    /// hashes ([`Table::key_hashes`], the source side's definition too) —
    /// or `None` if any is null-like (nulls never align tuples; the same
    /// rule as [`Table::key_from_row`]). Equal keys always hash equal;
    /// unequal keys sharing a hash are filtered by the probe.
    fn key_hashes(&self, key_cols: &[usize]) -> Vec<Option<u64>>;
}

impl Rows for Table {
    fn schema(&self) -> &Schema {
        Table::schema(self)
    }
    fn n_rows(&self) -> usize {
        Table::n_rows(self)
    }
    #[inline]
    fn cell(&self, i: usize, j: usize) -> &Value {
        &self.rows()[i][j]
    }
    fn key_hashes(&self, key_cols: &[usize]) -> Vec<Option<u64>> {
        Table::key_hashes(self, key_cols, true)
    }
}

/// Three-valued alignment matrix of one (possibly partially integrated)
/// candidate against a fixed source table, stored as a packed flat cell
/// arena (see the [module docs](self) for the layout and lane kernels).
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentMatrix {
    /// Packed cell arena: tuple `t` is `words[t * wpt .. (t + 1) * wpt]`.
    words: Vec<u64>,
    /// Per-row lane-max profile: row `i` is
    /// `profiles[i * wpt .. (i + 1) * wpt]` (all zeros — every lane `−1`,
    /// the lane-max identity — for an uncovered row).
    profiles: Vec<u64>,
    /// Tuple-index offsets per source row (`len = n_rows + 1`): row `i`
    /// owns tuples `row_off[i] .. row_off[i + 1]`.
    row_off: Vec<u32>,
    /// Number of source columns (tuple width in cells).
    n_cols: usize,
    /// Words per tuple: `⌈n_cols / 32⌉`, at least 1.
    wpt: usize,
    /// Indices of the source's non-key columns (the ones EIS scores).
    non_key_cols: Vec<usize>,
    /// Per-word score weight mask: the hi bit of every non-key column's
    /// lane (zero at key lanes and padding), so the lane kernels accumulate
    /// `α − δ` with two popcounts per word.
    weight_words: Vec<u64>,
}

impl AlignmentMatrix {
    /// Build the matrix of `candidate` against `source` (Eq. 4).
    ///
    /// The candidate's columns are matched to the source's *by name* (Set
    /// Similarity already renamed them); the candidate must contain every
    /// source key column — tables that don't are first expanded
    /// (Algorithm 5) or dropped.
    ///
    /// `three_valued = false` gives the §V-A2 two-valued encoding
    /// (contradictions collapse to 0), kept for the ablation study.
    ///
    /// A `max_aligned_per_key` of 0 is clamped to 1 (here and in
    /// [`AlignmentMatrix::combine`]): emptying every multi-tuple row is
    /// never meaningful, and a cap ≥ 1 is what keeps the fused
    /// [`AlignmentMatrix::combine_score`] exactly equal to
    /// materialize-then-score.
    pub fn build(
        source: &Table,
        candidate: &Table,
        three_valued: bool,
        max_aligned_per_key: usize,
    ) -> Option<AlignmentMatrix> {
        Self::build_from(source, candidate, three_valued, max_aligned_per_key)
    }

    /// [`AlignmentMatrix::build`] over anything with [`Rows`] — a table, or
    /// an expansion that exists only as join pairs.
    pub(crate) fn build_from<R: Rows>(
        source: &Table,
        candidate: &R,
        three_valued: bool,
        max_aligned_per_key: usize,
    ) -> Option<AlignmentMatrix> {
        let max_aligned_per_key = max_aligned_per_key.max(1);
        let skey = source.schema().key();
        assert!(!skey.is_empty(), "source must declare a key");
        // Candidate columns aligned to each source column.
        let col_map: Vec<Option<usize>> =
            source.schema().columns().map(|c| candidate.schema().column_index(c)).collect();
        // All key columns must be present in the candidate.
        let ckey: Option<Vec<usize>> = skey.iter().map(|&k| col_map[k]).collect();
        let ckey = ckey?;

        // Index the *source* rows by key hash (`slot` holds one row with a
        // hash, `next` chains the others sharing it — duplicate keys or
        // collisions) and probe it once per candidate row,
        // keeping `(source row, candidate row)` for the rows whose key
        // cells really are equal. A candidate holds far more rows than the
        // source has keys, and nearly all of them align to nothing: those
        // cost one failed probe here, where a candidate-side index paid an
        // insert for each. Sorted, the hits list each source row's aligned
        // candidate rows ascending — the order a candidate-side bucket
        // yields them in — so every row's tuples reach the pruner in the
        // same order either way.
        let n_rows = source.n_rows();
        let mut slot: FxHashMap<u64, u32> =
            FxHashMap::with_capacity_and_hasher(n_rows, Default::default());
        let mut next = vec![u32::MAX; n_rows];
        for (si, h) in Rows::key_hashes(source, skey).into_iter().enumerate() {
            if let Some(earlier) = h.and_then(|h| slot.insert(h, si as u32)) {
                next[si] = earlier;
            }
        }
        let mut hits: Vec<(u32, u32)> = Vec::new();
        for (ci, h) in candidate.key_hashes(&ckey).into_iter().enumerate() {
            let Some(h) = h else { continue };
            let mut si = slot.get(&h).copied().unwrap_or(u32::MAX);
            while si != u32::MAX {
                let srow = &source.rows()[si as usize];
                if skey.iter().zip(&ckey).all(|(&sk, &ck)| srow[sk] == *candidate.cell(ci, ck)) {
                    hits.push((si, ci as u32));
                }
                si = next[si as usize];
            }
        }
        hits.sort_unstable();

        let n_cols = source.n_cols();
        let non_key_cols = source.schema().non_key_indices();
        let mut out = AlignmentMatrix::empty(source.n_rows(), n_cols, non_key_cols);
        let wpt = out.wpt;

        // Most of a tuple's lanes don't depend on the candidate row at all:
        // key lanes are always `1` (alignment verified the key cells equal,
        // and a hashed key is never null-like), lanes of columns the
        // candidate lacks depend only on the *source* cell, and the tail
        // padding is the constant `0` code. Bake all of those into a
        // per-source-row template once, so the per-tuple loop touches only
        // the mapped non-key columns — on narrow candidates that is a small
        // fraction of the source width, and tuple packing is the bulk of
        // construction.
        let mut base = vec![0u64; wpt];
        for &k in skey {
            base[k / LANES] |= CODE_ONE << lane_shift(k % LANES);
        }
        // Lanes the per-tuple loop never writes default to the `0` code
        // (missing columns against a non-null source cell, tail padding).
        let mut none_cols: Vec<usize> = Vec::new();
        let mut some_cols: Vec<(usize, usize, usize, u32)> = Vec::new();
        for (j, cm) in col_map.iter().enumerate() {
            match cm {
                None => {
                    base[j / LANES] |= CODE_ZERO << lane_shift(j % LANES);
                    none_cols.push(j);
                }
                Some(cj) if !skey.contains(&j) => {
                    some_cols.push((j, *cj, j / LANES, lane_shift(j % LANES)));
                }
                Some(_) => {}
            }
        }
        for l in n_cols..wpt * LANES {
            base[l / LANES] |= CODE_ZERO << lane_shift(l % LANES);
        }
        let mismatch = if three_valued { 0 } else { CODE_ZERO }; // −1 vs 0
        let null_mask: Vec<u64> =
            none_cols.iter().map(|&j| (CODE_ONE ^ CODE_ZERO) << lane_shift(j % LANES)).collect();

        let mut tmpl = vec![0u64; wpt];
        let mut scratch: Vec<u64> = Vec::new();
        let mut prune = PruneScratch::default();
        let mut hits = hits.as_slice();
        for (si, srow) in source.rows().iter().enumerate() {
            scratch.clear();
            let aligned = hits.iter().take_while(|h| h.0 as usize == si).count();
            let (crows, rest) = hits.split_at(aligned);
            hits = rest;
            if !crows.is_empty() {
                // This row's template: flip missing-column lanes from the
                // `0` code to `1` where the source cell is itself
                // null-like (a correctly-absent value).
                tmpl.copy_from_slice(&base);
                for (&j, &m) in none_cols.iter().zip(&null_mask) {
                    if srow[j].is_null_like() {
                        tmpl[j / LANES] ^= m;
                    }
                }
            }
            for &(_, ci) in crows {
                // Pack one tuple, MSB-first, 32 cells per word: the
                // template plus this row's mapped lanes.
                let at = scratch.len();
                scratch.extend_from_slice(&tmpl);
                for &(j, cj, word, shift) in &some_cols {
                    let sv = &srow[j];
                    let tv = candidate.cell(ci as usize, cj);
                    // A correctly-preserved null counts like a shared
                    // value (Example 6's EIS convention), hence the same
                    // arm as value equality.
                    let enc = if (sv.is_null_like() && tv.is_null_like()) || sv == tv {
                        CODE_ONE
                    } else if tv.is_null_like() {
                        CODE_ZERO
                    } else {
                        mismatch
                    };
                    scratch[at + word] |= enc << shift;
                }
            }
            out.push_row_pruned(&scratch, max_aligned_per_key, &mut prune);
        }
        Some(out)
    }

    /// A matrix shell with no rows appended yet (rows arrive via
    /// [`AlignmentMatrix::push_row_pruned`] / [`AlignmentMatrix::push_row_raw`]).
    fn empty(n_rows: usize, n_cols: usize, non_key_cols: Vec<usize>) -> AlignmentMatrix {
        let wpt = n_cols.div_ceil(LANES).max(1);
        let mut weight_words = vec![0u64; wpt];
        for &c in &non_key_cols {
            weight_words[c / LANES] |= (CODE_ONE << lane_shift(c % LANES)) & HI;
        }
        let mut row_off = Vec::with_capacity(n_rows + 1);
        row_off.push(0);
        AlignmentMatrix {
            words: Vec::new(),
            profiles: Vec::with_capacity(n_rows * wpt),
            row_off,
            n_cols,
            wpt,
            non_key_cols,
            weight_words,
        }
    }

    /// Prune `scratch` (packed tuples, `wpt` words each) and append the
    /// survivors as the next source row.
    fn push_row_pruned(&mut self, scratch: &[u64], cap: usize, prune: &mut PruneScratch) {
        let start = self.words.len();
        prune.prune_into(scratch, self.wpt, &self.weight_words, cap, &mut self.words);
        self.finish_row(start);
    }

    /// Append a row's packed tuples verbatim (already pruned on the source
    /// side).
    fn push_row_raw(&mut self, tuples: &[u64]) {
        let start = self.words.len();
        self.words.extend_from_slice(tuples);
        self.finish_row(start);
    }

    /// Close the row whose tuples begin at word offset `start`: record the
    /// offset and fold the row's lane-max profile.
    fn finish_row(&mut self, start: usize) {
        self.row_off.push((self.words.len() / self.wpt) as u32);
        let base = self.profiles.len();
        self.profiles.resize(base + self.wpt, 0);
        for t in (start..self.words.len()).step_by(self.wpt) {
            for k in 0..self.wpt {
                self.profiles[base + k] = lane_max(self.profiles[base + k], self.words[t + k]);
            }
        }
    }

    /// Number of source rows.
    fn n_rows(&self) -> usize {
        self.row_off.len() - 1
    }

    /// Number of source rows (the matrix's fixed height) — every matrix in
    /// one traversal shares it with the source table.
    pub fn n_source_rows(&self) -> usize {
        self.n_rows()
    }

    /// Number of scoreable (non-key) source columns — the `n` every score
    /// normalises by, and the per-row ceiling of `α − δ` (all cells `1`).
    pub fn n_scored_cols(&self) -> usize {
        self.non_key_cols.len()
    }

    /// Does source row `i` have at least one aligned tuple? Rows where this
    /// is `false` pass through [`AlignmentMatrix::combine`] *verbatim* on
    /// the other side — the invariant `RoundScorer`'s dirty-row tracking
    /// rests on.
    #[inline]
    pub fn row_covered(&self, i: usize) -> bool {
        !self.row_range(i).is_empty()
    }

    /// Row `i`'s contribution to [`AlignmentMatrix::net_score`]'s integer
    /// numerator: `max(0, max_tuple (α − δ))`, or 0 for an uncovered row.
    #[inline]
    pub(crate) fn row_self_best(&self, i: usize) -> i64 {
        self.row_range(i).map(|t| self.tuple_score(t)).max().unwrap_or(0).max(0)
    }

    /// The tuple-index range of source row `i`.
    #[inline]
    fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.row_off[i] as usize..self.row_off[i + 1] as usize
    }

    /// The packed words of tuple `t`.
    #[inline]
    fn tuple(&self, t: usize) -> &[u64] {
        &self.words[t * self.wpt..(t + 1) * self.wpt]
    }

    /// The word slab of source row `i` (all of its tuples, back to back).
    #[inline]
    fn row_cells(&self, i: usize) -> &[u64] {
        let r = self.row_range(i);
        &self.words[r.start * self.wpt..r.end * self.wpt]
    }

    /// The lane-max profile words of source row `i`.
    #[inline]
    fn profile(&self, i: usize) -> &[u64] {
        &self.profiles[i * self.wpt..(i + 1) * self.wpt]
    }

    /// `α − δ` of tuple `t` over the non-key columns.
    #[inline]
    fn tuple_score(&self, t: usize) -> i64 {
        packed_score(self.tuple(t), &self.weight_words)
    }

    /// Number of source rows covered (≥1 aligned tuple).
    pub fn keys_covered(&self) -> usize {
        (0..self.n_rows()).filter(|&i| !self.row_range(i).is_empty()).count()
    }

    /// Aligned tuple vectors for source row `i`, decoded from the packed
    /// arena into owned `i8` vectors (one entry per source column).
    pub fn aligned(&self, i: usize) -> impl ExactSizeIterator<Item = Vec<i8>> + '_ {
        self.row_range(i).map(move |t| {
            let words = self.tuple(t);
            (0..self.n_cols)
                .map(|j| match (words[j / LANES] >> lane_shift(j % LANES)) & 0b11 {
                    CODE_ONE => 1,
                    CODE_ZERO => 0,
                    _ => -1,
                })
                .collect()
        })
    }

    /// evaluateSimilarity() — the EIS score implied by this matrix
    /// (§V-A3): per source row take the best aligned tuple's
    /// `(1 + (α − δ)/n)`, where α counts `1`s and δ counts `-1`s over
    /// non-key columns; rows with no aligned tuple contribute 0; normalise
    /// by `0.5 / |S|`.
    pub fn eis(&self) -> f64 {
        if self.n_rows() == 0 {
            return 0.0;
        }
        let n = self.non_key_cols.len();
        let mut total = 0.0;
        for i in 0..self.n_rows() {
            let range = self.row_range(i);
            if range.is_empty() {
                continue;
            }
            let best = range
                .map(|t| if n == 0 { 1.0 } else { 1.0 + self.tuple_score(t) as f64 / n as f64 })
                .fold(f64::NEG_INFINITY, f64::max);
            total += best;
        }
        0.5 * total / self.n_rows() as f64
    }

    /// Algorithm 1's `percentCorrectVals`: the fraction of source cells the
    /// simulated integration reproduces, net of contradictions —
    /// `Σ_rows max_tuple (α − δ) / (n · |S|)`.
    ///
    /// This is the score the traversal greedily maximises. It deliberately
    /// differs from [`AlignmentMatrix::eis`]: the EIS form `0.5·(1 + E)`
    /// grants 0.5 per source row for *mere key coverage*, so a junk table
    /// whose misrenamed integer column happens to contain every source key
    /// would "improve" EIS while contributing no values at all. Counting
    /// net correct values (the paper's "fraction of 1's in the matrix",
    /// §V-A2) makes such tables worthless, which is exactly why Algorithm 1
    /// can prune them.
    pub fn net_score(&self) -> f64 {
        let n = self.non_key_cols.len();
        if self.n_rows() == 0 || n == 0 {
            return 0.0;
        }
        let mut total = 0i64;
        for i in 0..self.n_rows() {
            let best = self.row_range(i).map(|t| self.tuple_score(t)).max().unwrap_or(0);
            total += best.max(0);
        }
        total as f64 / (n as f64 * self.n_rows() as f64)
    }

    /// Eq. 5 — `Combine` two matrices into the matrix of their simulated
    /// integration.
    pub fn combine(&self, other: &AlignmentMatrix, max_aligned_per_key: usize) -> AlignmentMatrix {
        self.combine_tracked(other, max_aligned_per_key, &mut Vec::new())
    }

    /// [`AlignmentMatrix::combine`] with change tracking: appends to
    /// `dirty_rows` (ascending) every source row whose result tuples may
    /// differ from `self`'s — exactly the rows where `other` has at least
    /// one aligned tuple. Rows where `other`'s range is empty are copied
    /// from `self` **verbatim** (same tuples, same order), so per-row state
    /// cached against `self` provably stays valid for them; that guarantee
    /// is what lets `RoundScorer` rescore only the winner's rows after a
    /// merge.
    pub fn combine_tracked(
        &self,
        other: &AlignmentMatrix,
        max_aligned_per_key: usize,
        dirty_rows: &mut Vec<u32>,
    ) -> AlignmentMatrix {
        let max_aligned_per_key = max_aligned_per_key.max(1);
        assert_eq!(self.n_cols, other.n_cols, "matrices must share the source shape");
        assert_eq!(self.n_rows(), other.n_rows());
        let wpt = self.wpt;
        let mut out = AlignmentMatrix::empty(self.n_rows(), self.n_cols, self.non_key_cols.clone());
        let mut scratch: Vec<u64> = Vec::new();
        let mut b_merged: Vec<bool> = Vec::new();
        let mut prune = PruneScratch::default();
        for i in 0..self.n_rows() {
            let (ra, rb) = (self.row_range(i), other.row_range(i));
            if !rb.is_empty() {
                dirty_rows.push(i as u32);
            }
            // One-sided rows pass through verbatim (outer-union semantics;
            // the surviving side was already pruned when it was built).
            if ra.is_empty() {
                out.push_row_raw(other.row_cells(i));
                continue;
            }
            if rb.is_empty() {
                out.push_row_raw(self.row_cells(i));
                continue;
            }
            scratch.clear();
            b_merged.clear();
            b_merged.resize(rb.len(), false);
            for ta in ra.clone() {
                let ta = self.tuple(ta);
                let mut merged_any = false;
                for (bi, tb) in rb.clone().enumerate() {
                    let tb = other.tuple(tb);
                    // Lane-parallel merge: write the element-wise OR (under
                    // `1 > 0 > −1`) word by word, backing out on conflict.
                    let base_len = scratch.len();
                    let mut conflict = false;
                    for k in 0..wpt {
                        let (x, y) = (ta[k], tb[k]);
                        if conflict_word(x, y) != 0 {
                            conflict = true;
                            break;
                        }
                        scratch.push(lane_max(x, y));
                    }
                    if conflict {
                        scratch.truncate(base_len);
                    } else {
                        b_merged[bi] = true;
                        merged_any = true;
                    }
                }
                if !merged_any {
                    scratch.extend_from_slice(ta);
                }
            }
            for (bi, tb) in rb.clone().enumerate() {
                if !b_merged[bi] {
                    scratch.extend_from_slice(other.tuple(tb));
                }
            }
            out.push_row_pruned(&scratch, max_aligned_per_key, &mut prune);
        }
        out
    }

    /// The fused combine–score kernel: exactly
    /// `self.combine(other, cap).net_score()`, computed in one streaming
    /// pass **without materializing the combined matrix**.
    ///
    /// Per source row it enumerates the same tuple set `Combine` would
    /// generate — OR-merges of compatible pairs plus unmerged pass-throughs
    /// — but only tracks the running maximum of each tuple's `α − δ`.
    /// Dominance pruning, dedup, and the per-row cap can never change that
    /// maximum (a dominated tuple scores no higher than its dominator, and
    /// the cap keeps the best-scoring tuples), so the result is *bit-equal*
    /// to materialize-then-score: Matrix Traversal's greedy comparisons,
    /// and therefore its selections, are unchanged.
    ///
    /// The equivalence requires the effective cap to be ≥ 1 (a zero cap
    /// would *empty* a merged row in the materialized path, which this
    /// enumeration deliberately does not model) — guaranteed, because
    /// [`AlignmentMatrix::build`] and [`AlignmentMatrix::combine`] clamp
    /// the cap to ≥ 1.
    ///
    /// Cost per row: `|A_i|·|B_i|·w` cell reads and **zero** allocations,
    /// versus `combine`'s tuple materialization, sort, dedup, and dominance
    /// scan. The traversal calls this for every remaining candidate on
    /// every round and materializes only the round's winner.
    pub fn combine_score(&self, other: &AlignmentMatrix) -> f64 {
        self.combine_score_with(other, &mut CombineScratch::default())
    }

    /// [`AlignmentMatrix::combine_score`] with caller-provided scratch: a
    /// long-lived caller (the traversal's `RoundScorer` scores thousands of
    /// candidate–row pairs per reclaim) reuses one [`CombineScratch`] and
    /// pays **zero** allocations per scoring round.
    pub fn combine_score_with(&self, other: &AlignmentMatrix, scratch: &mut CombineScratch) -> f64 {
        assert_eq!(self.n_cols, other.n_cols, "matrices must share the source shape");
        assert_eq!(self.n_rows(), other.n_rows());
        let n = self.non_key_cols.len();
        if self.n_rows() == 0 || n == 0 {
            return 0.0;
        }
        let mut total = 0i64;
        for i in 0..self.n_rows() {
            total += self.combine_row_best(other, i, scratch);
        }
        total as f64 / (n as f64 * self.n_rows() as f64)
    }

    /// The per-row core of the fused kernel: row `i`'s contribution to
    /// `combine(other, cap).net_score()`'s integer numerator — the maximum
    /// `α − δ` over the tuple set Eq. 5 would generate for that row
    /// (OR-merges of compatible pairs plus unmerged pass-throughs), clamped
    /// at 0. Depends only on the two matrices' row-`i` tuples, which is what
    /// makes per-row caching across greedy rounds sound.
    pub(crate) fn combine_row_best(
        &self,
        other: &AlignmentMatrix,
        i: usize,
        scratch: &mut CombineScratch,
    ) -> i64 {
        let wpt = self.wpt;
        let weight = &self.weight_words;
        let (ra, rb) = (self.row_range(i), other.row_range(i));
        let mut best = i64::MIN;
        if ra.is_empty() {
            best = rb.map(|t| packed_score(other.tuple(t), weight)).max().unwrap_or(0);
        } else if rb.is_empty() {
            best = ra.map(|t| self.tuple_score(t)).max().unwrap_or(0);
        } else {
            let b_merged = &mut scratch.b_merged;
            b_merged.clear();
            b_merged.resize(rb.len(), false);
            for ta in ra.clone() {
                let ta = self.tuple(ta);
                let mut merged_any = false;
                for (bi, tb) in rb.clone().enumerate() {
                    let tb = other.tuple(tb);
                    // Single lane pass per pair: detect a conflict and
                    // accumulate the OR-tuple's score together, 32 cells
                    // per word.
                    let mut s = 0i64;
                    let mut conflict = false;
                    for k in 0..wpt {
                        let (x, y) = (ta[k], tb[k]);
                        if conflict_word(x, y) != 0 {
                            conflict = true;
                            break;
                        }
                        s += word_score(lane_max(x, y), weight[k]);
                    }
                    if !conflict {
                        b_merged[bi] = true;
                        merged_any = true;
                        best = best.max(s);
                    }
                }
                if !merged_any {
                    best = best.max(packed_score(ta, weight));
                }
            }
            for (bi, tb) in rb.clone().enumerate() {
                if !b_merged[bi] {
                    best = best.max(packed_score(other.tuple(tb), weight));
                }
            }
        }
        best.max(0)
    }

    /// Admissible upper bound on [`AlignmentMatrix::combine_row_best`] from
    /// the two rows' lane-max profiles alone: every tuple Eq. 5 can produce
    /// for row `i` is element-wise ≤ `lane_max(profile_a, profile_b)` (an
    /// OR-merge is ≤ the column-wise max of its inputs; a pass-through is ≤
    /// its own side's profile, and an uncovered side's all-`−1` profile is
    /// the lane-max identity), and the score is monotone in each cell — so
    /// scoring the profile max, clamped at 0 like the row best, can never
    /// under-estimate. `wpt` words of work instead of `|A_i|·|B_i|·wpt`.
    #[inline]
    pub(crate) fn combine_row_bound(&self, other: &AlignmentMatrix, i: usize) -> i64 {
        let (pa, pb) = (self.profile(i), other.profile(i));
        let mut s = 0i64;
        for k in 0..self.wpt {
            s += word_score(lane_max(pa[k], pb[k]), self.weight_words[k]);
        }
        s.max(0)
    }
}

/// Reusable scratch for the fused combine–score kernel: the `b_merged`
/// bitmap that used to be allocated per [`AlignmentMatrix::combine_score`]
/// call now lives wherever the caller wants it (the traversal keeps one in
/// its `RoundScorer`), so a whole scoring round allocates nothing.
#[derive(Debug, Default)]
pub struct CombineScratch {
    /// Which of `other`'s row tuples merged with at least one of `self`'s.
    b_merged: Vec<bool>,
}

/// Reusable scratch for dominance pruning over packed tuple buffers — one
/// allocation per build/combine, not per source row.
#[derive(Default)]
struct PruneScratch {
    /// Surviving tuple indices into the scratch buffer, in output order.
    order: Vec<u32>,
    /// Frozen copy of `order` during the dominance scan (the scan mutates
    /// `order` while comparing against the full deduped set).
    snapshot: Vec<u32>,
}

impl PruneScratch {
    /// Dominance-prune `tuples` (a flat buffer of packed `wpt`-word
    /// tuples), dedup, cap the list at `cap` keeping the highest-scoring
    /// tuples, and append the survivors to `out` in lexicographic order —
    /// the exact semantics (and final ordering) of the reference
    /// implementation's `prune_dominated`. MSB-first packing with the code
    /// order matching the value order makes `u64`-slice comparison equal to
    /// per-cell lexicographic comparison, so no decoding is needed; a tuple
    /// is dominated iff lane-maxing it into the other is a no-op.
    fn prune_into(
        &mut self,
        tuples: &[u64],
        wpt: usize,
        weight: &[u64],
        cap: usize,
        out: &mut Vec<u64>,
    ) {
        let nt = tuples.len() / wpt;
        if nt <= 1 {
            out.extend_from_slice(tuples);
            return;
        }
        let tup = |t: u32| -> &[u64] { &tuples[t as usize * wpt..(t as usize + 1) * wpt] };
        self.order.clear();
        self.order.extend(0..nt as u32);
        // Lexicographic sort + dedup by content.
        self.order.sort_unstable_by(|&a, &b| tup(a).cmp(tup(b)));
        self.order.dedup_by(|&mut a, &mut b| tup(a) == tup(b));
        // Drop tuples dominated element-wise (under `1 > 0 > −1`) by
        // another distinct tuple. The set is deduped, so index inequality
        // implies content inequality.
        self.snapshot.clear();
        self.snapshot.extend_from_slice(&self.order);
        let snapshot = &self.snapshot;
        self.order.retain(|&t| {
            !snapshot.iter().any(|&o| {
                o != t
                    && tup(t) != tup(o)
                    && tup(t).iter().zip(tup(o)).all(|(&x, &y)| lane_max(x, y) == y)
            })
        });
        if self.order.len() > cap {
            // Keep the tuples with the best (α − δ) score; the stable sort
            // preserves lexicographic order among score ties.
            self.order.sort_by_key(|&t| std::cmp::Reverse(packed_score(tup(t), weight)));
            self.order.truncate(cap);
            self.order.sort_unstable_by(|&a, &b| tup(a).cmp(tup(b)));
        }
        for &t in &self.order {
            out.extend_from_slice(tup(t));
        }
    }
}

pub mod reference {
    //! The original triply-nested `Vec<Vec<Vec<i8>>>` alignment matrix,
    //! kept as the **executable specification** of the flat-arena
    //! [`AlignmentMatrix`](super::AlignmentMatrix) — verbatim except for
    //! one shared semantic fix: like the arena, `build` and `combine`
    //! clamp `max_aligned_per_key` to ≥ 1 (the zero-cap configuration is
    //! tolerated-but-clamped per `tests/failure_injection.rs`, and a cap
    //! ≥ 1 is what makes fused scoring exact), so arena == reference holds
    //! for *every* cap value.
    //!
    //! Nothing in the pipeline uses this module: it exists so tests (unit,
    //! property, and the end-to-end regression suite) can assert the arena
    //! representation and the fused combine–score kernel are behaviourally
    //! identical to the straightforward implementation.

    use gent_table::{FxHashMap, Table};

    /// Nested-vector alignment matrix — the reference implementation.
    #[derive(Debug, Clone, PartialEq)]
    pub struct NestedMatrix {
        /// `rows[i]` = aligned tuple vectors for source row `i` (possibly
        /// empty). Each vector has one entry per source column.
        rows: Vec<Vec<Vec<i8>>>,
        /// Number of source columns (vector length).
        n_cols: usize,
        /// Indices of the source's non-key columns (the ones EIS scores).
        non_key_cols: Vec<usize>,
    }

    impl NestedMatrix {
        /// Build the matrix of `candidate` against `source` (Eq. 4) —
        /// reference semantics.
        pub fn build(
            source: &Table,
            candidate: &Table,
            three_valued: bool,
            max_aligned_per_key: usize,
        ) -> Option<NestedMatrix> {
            let max_aligned_per_key = max_aligned_per_key.max(1);
            let skey = source.schema().key();
            assert!(!skey.is_empty(), "source must declare a key");
            let col_map: Vec<Option<usize>> =
                source.schema().columns().map(|c| candidate.schema().column_index(c)).collect();
            let ckey: Option<Vec<usize>> = skey.iter().map(|&k| col_map[k]).collect();
            let ckey = ckey?;

            let mut cindex: FxHashMap<gent_table::KeyValue, Vec<usize>> = FxHashMap::default();
            for (i, row) in candidate.rows().iter().enumerate() {
                if let Some(kv) = Table::key_from_row(row, &ckey) {
                    cindex.entry(kv).or_default().push(i);
                }
            }

            let n_cols = source.n_cols();
            let non_key_cols = source.schema().non_key_indices();
            let mut rows: Vec<Vec<Vec<i8>>> = Vec::with_capacity(source.n_rows());
            for si in 0..source.n_rows() {
                let mut aligned: Vec<Vec<i8>> = Vec::new();
                if let Some(kv) = source.key_of_row(si) {
                    if let Some(crows) = cindex.get(&kv) {
                        for &ci in crows {
                            let mut vec = vec![0i8; n_cols];
                            for (j, slot) in vec.iter_mut().enumerate() {
                                let sv = &source.rows()[si][j];
                                let tv = col_map[j].map(|cj| &candidate.rows()[ci][cj]);
                                *slot = match tv {
                                    None => {
                                        if sv.is_null_like() {
                                            1
                                        } else {
                                            0
                                        }
                                    }
                                    Some(tv) => {
                                        if (sv.is_null_like() && tv.is_null_like()) || sv == tv {
                                            1
                                        } else if tv.is_null_like() {
                                            0
                                        } else if three_valued {
                                            -1
                                        } else {
                                            0
                                        }
                                    }
                                };
                            }
                            aligned.push(vec);
                        }
                    }
                }
                prune_dominated(&mut aligned, &non_key_cols, max_aligned_per_key);
                rows.push(aligned);
            }
            Some(NestedMatrix { rows, n_cols, non_key_cols })
        }

        /// Number of source rows covered (≥1 aligned tuple).
        pub fn keys_covered(&self) -> usize {
            self.rows.iter().filter(|r| !r.is_empty()).count()
        }

        /// Aligned tuple vectors for source row `i`.
        pub fn aligned(&self, i: usize) -> &[Vec<i8>] {
            &self.rows[i]
        }

        /// Reference `evaluateSimilarity()` (see
        /// [`AlignmentMatrix::eis`](super::AlignmentMatrix::eis)).
        pub fn eis(&self) -> f64 {
            if self.rows.is_empty() {
                return 0.0;
            }
            let n = self.non_key_cols.len();
            let mut total = 0.0;
            for aligned in &self.rows {
                if aligned.is_empty() {
                    continue;
                }
                let best = aligned
                    .iter()
                    .map(|vec| {
                        if n == 0 {
                            1.0
                        } else {
                            let mut alpha = 0i32;
                            let mut delta = 0i32;
                            for &c in &self.non_key_cols {
                                match vec[c] {
                                    1 => alpha += 1,
                                    -1 => delta += 1,
                                    _ => {}
                                }
                            }
                            1.0 + (alpha - delta) as f64 / n as f64
                        }
                    })
                    .fold(f64::NEG_INFINITY, f64::max);
                total += best;
            }
            0.5 * total / self.rows.len() as f64
        }

        /// Reference `percentCorrectVals` (see
        /// [`AlignmentMatrix::net_score`](super::AlignmentMatrix::net_score)).
        pub fn net_score(&self) -> f64 {
            let n = self.non_key_cols.len();
            if self.rows.is_empty() || n == 0 {
                return 0.0;
            }
            let mut total = 0i64;
            for aligned in &self.rows {
                let best = aligned
                    .iter()
                    .map(|vec| {
                        let mut alpha = 0i64;
                        let mut delta = 0i64;
                        for &c in &self.non_key_cols {
                            match vec[c] {
                                1 => alpha += 1,
                                -1 => delta += 1,
                                _ => {}
                            }
                        }
                        alpha - delta
                    })
                    .max()
                    .unwrap_or(0);
                total += best.max(0);
            }
            total as f64 / (n as f64 * self.rows.len() as f64)
        }

        /// Reference Eq. 5 `Combine`.
        pub fn combine(&self, other: &NestedMatrix, max_aligned_per_key: usize) -> NestedMatrix {
            let max_aligned_per_key = max_aligned_per_key.max(1);
            assert_eq!(self.n_cols, other.n_cols, "matrices must share the source shape");
            assert_eq!(self.rows.len(), other.rows.len());
            let mut rows = Vec::with_capacity(self.rows.len());
            for (a, b) in self.rows.iter().zip(other.rows.iter()) {
                rows.push(combine_lists(a, b, &self.non_key_cols, max_aligned_per_key));
            }
            NestedMatrix { rows, n_cols: self.n_cols, non_key_cols: self.non_key_cols.clone() }
        }
    }

    /// Do two tuple vectors conflict (different non-zero values at a column)?
    fn conflicts(a: &[i8], b: &[i8]) -> bool {
        a.iter().zip(b.iter()).any(|(&x, &y)| x != 0 && y != 0 && x != y)
    }

    /// Element-wise OR under the truth ordering `1 > 0 > −1`.
    fn or_tuples(a: &[i8], b: &[i8]) -> Vec<i8> {
        a.iter().zip(b.iter()).map(|(&x, &y)| x.max(y)).collect()
    }

    /// Combine the aligned-tuple lists of one source row (Eq. 5).
    fn combine_lists(
        a: &[Vec<i8>],
        b: &[Vec<i8>],
        non_key_cols: &[usize],
        cap: usize,
    ) -> Vec<Vec<i8>> {
        if a.is_empty() {
            return b.to_vec();
        }
        if b.is_empty() {
            return a.to_vec();
        }
        let mut out: Vec<Vec<i8>> = Vec::new();
        let mut b_merged = vec![false; b.len()];
        for ta in a {
            let mut merged_any = false;
            for (bi, tb) in b.iter().enumerate() {
                if !conflicts(ta, tb) {
                    out.push(or_tuples(ta, tb));
                    b_merged[bi] = true;
                    merged_any = true;
                }
            }
            if !merged_any {
                out.push(ta.clone());
            }
        }
        for (bi, tb) in b.iter().enumerate() {
            if !b_merged[bi] {
                out.push(tb.clone());
            }
        }
        prune_dominated(&mut out, non_key_cols, cap);
        out
    }

    /// Remove tuples dominated element-wise (under `1 > 0 > −1`) by
    /// another, dedup, and cap the list at `cap` keeping the
    /// highest-scoring tuples.
    fn prune_dominated(list: &mut Vec<Vec<i8>>, non_key_cols: &[usize], cap: usize) {
        if list.len() <= 1 {
            return;
        }
        list.sort();
        list.dedup();
        let snapshot = list.clone();
        list.retain(|t| {
            !snapshot.iter().any(|o| o != t && t.iter().zip(o.iter()).all(|(&x, &y)| x <= y))
        });
        if list.len() > cap {
            // Keep the tuples with the best (α − δ) score.
            let score = |t: &Vec<i8>| -> i32 {
                non_key_cols
                    .iter()
                    .map(|&c| match t[c] {
                        1 => 1,
                        -1 => -1,
                        _ => 0,
                    })
                    .sum()
            };
            list.sort_by_key(|t| std::cmp::Reverse(score(t)));
            list.truncate(cap);
            list.sort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

    /// Collect a row's aligned tuples as owned vectors, for assertions.
    fn aligned_vecs(m: &AlignmentMatrix, i: usize) -> Vec<Vec<i8>> {
        m.aligned(i).collect()
    }

    /// Figure 3's source and tables A, B, C (after column renaming).
    fn source() -> Table {
        Table::build(
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
        .unwrap()
    }

    fn table_a() -> Table {
        Table::build(
            "A",
            &["ID", "Name", "Education Level"],
            &[],
            vec![
                vec![V::Int(0), V::str("Smith"), V::str("Bachelors")],
                vec![V::Int(1), V::str("Brown"), V::Null],
                vec![V::Int(2), V::str("Wang"), V::str("High School")],
            ],
        )
        .unwrap()
    }

    /// Table B joined with the key via A (Expand would produce this); for
    /// unit tests we give it the ID directly.
    fn table_b_with_key() -> Table {
        Table::build(
            "B",
            &["ID", "Name", "Age"],
            &[],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Int(27)],
                vec![V::Int(1), V::str("Brown"), V::Int(24)],
                vec![V::Int(2), V::str("Wang"), V::Int(32)],
            ],
        )
        .unwrap()
    }

    fn table_c_with_key() -> Table {
        Table::build(
            "C",
            &["ID", "Name", "Gender"],
            &[],
            vec![
                vec![V::Int(0), V::str("Smith"), V::str("Male")],
                vec![V::Int(1), V::str("Brown"), V::str("Male")],
                vec![V::Int(2), V::str("Wang"), V::str("Male")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure5_matrix_a_encoding() {
        // Matrix A (Figure 5): rows [1 1 0 ¬1? …] — concretely: A shares
        // ID, Name, Education; lacks Age (0 vs source value), lacks Gender
        // (source row 0 has null gender → 1; rows 1,2 have values → 0).
        let m = AlignmentMatrix::build(&source(), &table_a(), true, 8).unwrap();
        assert_eq!(aligned_vecs(&m, 0), vec![vec![1, 1, 0, 1, 1]]);
        // Brown: Education null in A but "Masters" in source → 0.
        assert_eq!(aligned_vecs(&m, 1), vec![vec![1, 1, 0, 0, 0]]);
        assert_eq!(aligned_vecs(&m, 2), vec![vec![1, 1, 0, 0, 1]]);
    }

    #[test]
    fn figure5_matrix_c_has_contradictions() {
        let m = AlignmentMatrix::build(&source(), &table_c_with_key(), true, 8).unwrap();
        // Smith: source Gender null, C says Male → -1 (erroneously filled).
        assert_eq!(aligned_vecs(&m, 0), vec![vec![1, 1, 0, -1, 0]]);
        // Brown: C agrees (Male) → 1.
        assert_eq!(aligned_vecs(&m, 1), vec![vec![1, 1, 0, 1, 0]]);
        // Wang: source Female vs C Male → -1.
        assert_eq!(aligned_vecs(&m, 2), vec![vec![1, 1, 0, -1, 0]]);
    }

    #[test]
    fn two_valued_collapses_contradictions() {
        let m = AlignmentMatrix::build(&source(), &table_c_with_key(), false, 8).unwrap();
        assert_eq!(aligned_vecs(&m, 0), vec![vec![1, 1, 0, 0, 0]]);
    }

    #[test]
    fn figure5_combine_a_b() {
        // OR(A, B) in Figure 5: merging fills Age with 1s everywhere.
        let s = source();
        let ma = AlignmentMatrix::build(&s, &table_a(), true, 8).unwrap();
        let mb = AlignmentMatrix::build(&s, &table_b_with_key(), true, 8).unwrap();
        let ab = ma.combine(&mb, 8);
        assert_eq!(aligned_vecs(&ab, 0), vec![vec![1, 1, 1, 1, 1]]);
        assert_eq!(aligned_vecs(&ab, 1), vec![vec![1, 1, 1, 0, 0]]);
        assert_eq!(aligned_vecs(&ab, 2), vec![vec![1, 1, 1, 0, 1]]);
    }

    #[test]
    fn figure5_combine_with_c() {
        // OR(OR(A,B), C): Smith row has 1 vs -1 on Gender → conflicting
        // tuples are kept separate by Combine, and the dominated one
        // ((1,1,0,-1,0) ≤ (1,1,1,1,1) element-wise) is then pruned — it can
        // never be the best-aligned tuple. Brown merges (C agrees on Male);
        // Wang's -1 ORs under 0 ∨ ¬1 = 0.
        let s = source();
        let ma = AlignmentMatrix::build(&s, &table_a(), true, 8).unwrap();
        let mb = AlignmentMatrix::build(&s, &table_b_with_key(), true, 8).unwrap();
        let mc = AlignmentMatrix::build(&s, &table_c_with_key(), true, 8).unwrap();
        let abc = ma.combine(&mb, 8).combine(&mc, 8);
        assert_eq!(aligned_vecs(&abc, 0), vec![vec![1, 1, 1, 1, 1]]);
        // Brown: compatible → single merged tuple, Gender 1.
        assert_eq!(aligned_vecs(&abc, 1), vec![vec![1, 1, 1, 1, 0]]);
        // Wang: (1,1,1,0,1) vs (1,1,0,-1,0): 0 vs -1 is not a non-zero
        // disagreement → merge with max: Gender max(0,-1) = 0.
        assert_eq!(aligned_vecs(&abc, 2), vec![vec![1, 1, 1, 0, 1]]);
    }

    #[test]
    fn combine_keeps_non_dominated_conflicts_separate() {
        let s = source();
        // One candidate knows Name+Education, the other Age but with a
        // wrong Gender — the conflict tuples don't dominate each other.
        let left = table_a(); // Smith: [1,1,0,1,1]
        let right = Table::build(
            "R",
            &["ID", "Age", "Gender"],
            &[],
            vec![vec![V::Int(0), V::Int(27), V::str("Male")]],
        )
        .unwrap(); // Smith: [1,0,1,-1,0]
        let ml = AlignmentMatrix::build(&s, &left, true, 8).unwrap();
        let mr = AlignmentMatrix::build(&s, &right, true, 8).unwrap();
        let c = ml.combine(&mr, 8);
        let tuples = aligned_vecs(&c, 0);
        assert_eq!(tuples.len(), 2, "conflicting non-dominated tuples both kept");
        assert!(tuples.contains(&vec![1, 1, 0, 1, 1]));
        assert!(tuples.contains(&vec![1, 0, 1, -1, 0]));
    }

    #[test]
    fn eis_of_figure5_improves_with_b_but_not_c() {
        let s = source();
        let ma = AlignmentMatrix::build(&s, &table_a(), true, 8).unwrap();
        let mb = AlignmentMatrix::build(&s, &table_b_with_key(), true, 8).unwrap();
        let mc = AlignmentMatrix::build(&s, &table_c_with_key(), true, 8).unwrap();
        let e_a = ma.eis();
        let ab = ma.combine(&mb, 8);
        let e_ab = ab.eis();
        assert!(e_ab > e_a, "adding B must improve EIS: {e_a} → {e_ab}");
        let abc = ab.combine(&mc, 8);
        // C contributes Brown's Gender (1) but pollutes nothing thanks to
        // conflict separation — EIS can improve slightly via Brown.
        let e_abc = abc.eis();
        assert!(e_abc >= e_ab);
    }

    #[test]
    fn missing_key_column_gives_none() {
        let s = source();
        let nokey = Table::build("X", &["Name", "Age"], &[], vec![]).unwrap();
        assert!(AlignmentMatrix::build(&s, &nokey, true, 8).is_none());
    }

    #[test]
    fn dominance_pruning_drops_weaker_tuples() {
        let s = source();
        // Candidate with two rows for key 0: one strictly better.
        let c = Table::build(
            "C",
            &["ID", "Name", "Age"],
            &[],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Int(27)],
                vec![V::Int(0), V::str("Smith"), V::Null],
            ],
        )
        .unwrap();
        let m = AlignmentMatrix::build(&s, &c, true, 8).unwrap();
        assert_eq!(m.aligned(0).len(), 1, "dominated tuple pruned");
    }

    #[test]
    fn eis_matches_metrics_eis_on_full_tables() {
        // The matrix EIS must agree with gent-metrics' table EIS when the
        // candidate covers the full schema.
        let s = source();
        let cand = Table::build(
            "C",
            &["ID", "Name", "Age", "Gender", "Education Level"],
            &[],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Int(27), V::str("Male"), V::str("Bachelors")],
                vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male"), V::str("Masters")],
                vec![V::Int(2), V::str("Wang"), V::Int(32), V::str("Female"), V::Null],
            ],
        )
        .unwrap();
        let m = AlignmentMatrix::build(&s, &cand, true, 8).unwrap();
        let table_eis = gent_metrics::eis(&s, &cand);
        assert!((m.eis() - table_eis).abs() < 1e-12, "{} vs {}", m.eis(), table_eis);
    }

    #[test]
    fn fused_combine_score_equals_materialize_then_score() {
        // The tentpole invariant, on the Figure 5 tables: combine_score is
        // bit-equal to combine(...).net_score() in every pairing, including
        // asymmetric coverage and conflict-splitting rows.
        let s = source();
        let mats: Vec<AlignmentMatrix> = [table_a(), table_b_with_key(), table_c_with_key()]
            .iter()
            .map(|t| AlignmentMatrix::build(&s, t, true, 8).unwrap())
            .collect();
        for a in &mats {
            for b in &mats {
                let fused = a.combine_score(b);
                let materialized = a.combine(b, 8).net_score();
                assert_eq!(fused.to_bits(), materialized.to_bits(), "{fused} vs {materialized}");
            }
        }
        // And through a chained combine, as the greedy loop produces them.
        let ab = mats[0].combine(&mats[1], 8);
        assert_eq!(
            ab.combine_score(&mats[2]).to_bits(),
            ab.combine(&mats[2], 8).net_score().to_bits()
        );
    }

    #[test]
    fn profile_bound_is_admissible_on_figure5() {
        // combine_row_bound must never under-estimate the fused row best —
        // including empty-coverage sides, where the all-zero profile is the
        // lane-max identity.
        let s = source();
        let empty = Table::build("E", &["ID", "Name"], &[], vec![]).unwrap();
        let mats: Vec<AlignmentMatrix> = [table_a(), table_b_with_key(), table_c_with_key(), empty]
            .iter()
            .map(|t| AlignmentMatrix::build(&s, t, true, 8).unwrap())
            .collect();
        let mut scratch = CombineScratch::default();
        for a in &mats {
            for b in &mats {
                for i in 0..s.n_rows() {
                    let bound = a.combine_row_bound(b, i);
                    let exact = a.combine_row_best(b, i, &mut scratch);
                    assert!(bound >= exact, "row {i}: bound {bound} < exact {exact}");
                }
            }
        }
    }

    mod bound_prop {
        use super::*;
        use proptest::prelude::*;

        fn src() -> Table {
            Table::build(
                "S",
                &["k", "a", "b", "c"],
                &["k"],
                (0..5).map(|k| vec![V::Int(k), V::Int(1), V::Int(2), V::Int(3)]).collect(),
            )
            .unwrap()
        }

        /// Candidate from a mutation stream: 0–2 aligned copies per row,
        /// cells kept / nulled / corrupted (corruptions align as `−1`).
        fn cand(s: &Table, muts: &[u8]) -> Table {
            let mut rows: Vec<Vec<V>> = Vec::new();
            let mut mi = 0usize;
            let mut next = || {
                let m = muts[mi % muts.len().max(1)];
                mi += 1;
                m
            };
            for srow in s.rows() {
                for _ in 0..next() % 3 {
                    let mut row = vec![srow[0].clone()];
                    for v in &srow[1..] {
                        row.push(match next() % 4 {
                            1 => V::Null,
                            2 => match v {
                                V::Int(x) => V::Int(x + 100),
                                other => other.clone(),
                            },
                            _ => v.clone(),
                        });
                    }
                    rows.push(row);
                }
            }
            Table::build("C", &["k", "a", "b", "c"], &[], rows).unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The lane-max profile bound is admissible on random matrices
            /// — conflict cells, multi-tuple rows, empty coverage and all.
            #[test]
            fn profile_bound_never_underestimates(
                m1 in proptest::collection::vec(any::<u8>(), 32),
                m2 in proptest::collection::vec(any::<u8>(), 32),
            ) {
                let s = src();
                let a = AlignmentMatrix::build(&s, &cand(&s, &m1), true, 3).unwrap();
                let b = AlignmentMatrix::build(&s, &cand(&s, &m2), true, 3).unwrap();
                let mut scratch = CombineScratch::default();
                for i in 0..s.n_rows() {
                    let bound = a.combine_row_bound(&b, i);
                    let exact = a.combine_row_best(&b, i, &mut scratch);
                    prop_assert!(bound >= exact, "row {}: bound {} < exact {}", i, bound, exact);
                }
            }
        }
    }

    #[test]
    fn arena_matches_reference_on_figure5() {
        // The arena and the nested reference must agree tuple-for-tuple,
        // including after chained combines.
        let s = source();
        let tables = [table_a(), table_b_with_key(), table_c_with_key()];
        let arena: Vec<AlignmentMatrix> =
            tables.iter().map(|t| AlignmentMatrix::build(&s, t, true, 8).unwrap()).collect();
        let nested: Vec<reference::NestedMatrix> = tables
            .iter()
            .map(|t| reference::NestedMatrix::build(&s, t, true, 8).unwrap())
            .collect();
        let a2 = arena[0].combine(&arena[1], 8).combine(&arena[2], 8);
        let n2 = nested[0].combine(&nested[1], 8).combine(&nested[2], 8);
        for i in 0..s.n_rows() {
            assert_eq!(aligned_vecs(&a2, i), n2.aligned(i).to_vec(), "row {i}");
        }
        assert_eq!(a2.eis().to_bits(), n2.eis().to_bits());
        assert_eq!(a2.net_score().to_bits(), n2.net_score().to_bits());
    }
}
