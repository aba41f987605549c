//! Property tests pinning Set Similarity's row-level verification — grouped
//! co-occurrence counting over a per-request source profile — to the
//! cell-by-cell scan it replaced, kept here verbatim as the oracle
//! ([`oracle`]): for every anchor the support matrix and the number of
//! aligned source rows must be equal, and the chosen mapping must be equal
//! down to `f64::to_bits` of every score.
//!
//! The generators force the shapes where the two could part ways: anchors
//! of ≤3 distinct values over ≥200 candidate rows (every source row aligns
//! to dozens of candidate rows: the hashed path), all-distinct columns
//! (one-row groups: the direct-compare path), all-null source columns,
//! composite and duplicated source keys, `Int` cells against integral
//! `Float`s (equal under `==`, so they must hash alike), candidates
//! narrower than the source, and candidates wider than one 64-column block.

use gent_discovery::set_similarity::{anchor_support, verified_mapping, Anchor};
use gent_table::{Table, Value};
use proptest::prelude::*;

/// The verification half of `set_similarity.rs` as it was before grouped
/// counting: for every anchor × source column × candidate column, scan
/// every aligned `(source row, candidate row)` pair.
mod oracle {
    // The loops are the old code's, index for index.
    #![allow(clippy::needless_range_loop)]

    use gent_table::{FxHashMap, FxHashSet, KeyValue, Table, Value};

    type ScoredMapping = (f64, Vec<(usize, u16, f64)>);

    const PAIR_SUPPORT_MIN: f64 = 0.05;

    fn containment(a: &FxHashSet<Value>, b: &FxHashSet<Value>) -> f64 {
        if a.is_empty() {
            return 0.0;
        }
        a.iter().filter(|v| b.contains(*v)).count() as f64 / a.len() as f64
    }

    /// Source row → candidate rows sharing its key under `key_combo`.
    pub fn align_by_key(
        source: &Table,
        table: &Table,
        key_combo: &[u16],
    ) -> FxHashMap<usize, Vec<usize>> {
        let mut src_by_key: FxHashMap<KeyValue, usize> = FxHashMap::default();
        for i in 0..source.n_rows() {
            if let Some(kv) = source.key_of_row(i) {
                src_by_key.insert(kv, i);
            }
        }
        let key_cols: Vec<usize> = key_combo.iter().map(|&c| c as usize).collect();
        let mut aligned_by_src: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for (ri, row) in table.rows().iter().enumerate() {
            if let Some(kv) = Table::key_from_row(row, &key_cols) {
                if let Some(&si) = src_by_key.get(&kv) {
                    aligned_by_src.entry(si).or_default().push(ri);
                }
            }
        }
        aligned_by_src
    }

    /// Source row → candidate rows whose `acc` cell equals its `asc` cell.
    pub fn align_by_column(
        source: &Table,
        table: &Table,
        asc: usize,
        acc: u16,
    ) -> FxHashMap<usize, Vec<usize>> {
        let mut by_value: FxHashMap<&Value, Vec<usize>> = FxHashMap::default();
        for (ri, row) in table.rows().iter().enumerate() {
            let v = &row[acc as usize];
            if !v.is_null_like() {
                by_value.entry(v).or_default().push(ri);
            }
        }
        let mut aligned_by_src: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for (si, row) in source.rows().iter().enumerate() {
            let v = &row[asc];
            if v.is_null_like() {
                continue;
            }
            if let Some(rows) = by_value.get(v) {
                aligned_by_src.insert(si, rows.clone());
            }
        }
        aligned_by_src
    }

    /// `hits[sc][cc]`: aligned source rows whose `sc` cell equals the `cc`
    /// cell of some candidate row they align to.
    pub fn scan_support(
        source: &Table,
        table: &Table,
        aligned_by_src: &FxHashMap<usize, Vec<usize>>,
        anchor_src: &[usize],
        anchor_cand: &[u16],
    ) -> Vec<Vec<u32>> {
        let mut all = vec![vec![0u32; table.n_cols()]; source.n_cols()];
        for sc in 0..source.n_cols() {
            if anchor_src.contains(&sc) {
                continue;
            }
            for cc in 0..table.n_cols() {
                if anchor_cand.contains(&(cc as u16)) {
                    continue;
                }
                let mut hits = 0u32;
                for (&si, rows) in aligned_by_src {
                    let sv = &source.rows()[si][sc];
                    if sv.is_null_like() {
                        continue;
                    }
                    if rows.iter().any(|&ri| &table.rows()[ri][cc] == sv) {
                        hits += 1;
                    }
                }
                all[sc][cc] = hits;
            }
        }
        all
    }

    fn assign_with_support(
        source: &Table,
        table: &Table,
        aligned_by_src: &FxHashMap<usize, Vec<usize>>,
        anchor_src: &[usize],
        anchor_cand: &[u16],
        anchor_mapping: Vec<(usize, u16, f64)>,
    ) -> Option<ScoredMapping> {
        let hits = scan_support(source, table, aligned_by_src, anchor_src, anchor_cand);
        let mut pair_scores: Vec<(usize, u16, f64)> = Vec::new();
        let mut verifiable_cols = 0usize;
        for sc in 0..source.n_cols() {
            if anchor_src.contains(&sc) {
                continue;
            }
            let denom = source.rows().iter().filter(|r| !r[sc].is_null_like()).count();
            if denom == 0 {
                continue;
            }
            verifiable_cols += 1;
            for cc in 0..table.n_cols() {
                if anchor_cand.contains(&(cc as u16)) {
                    continue;
                }
                let score = hits[sc][cc] as f64 / denom as f64;
                if score >= PAIR_SUPPORT_MIN {
                    pair_scores.push((sc, cc as u16, score));
                }
            }
        }
        pair_scores.sort_by(|a, b| {
            b.2.partial_cmp(&a.2).expect("finite").then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1))
        });
        let mut used_cand: FxHashSet<u16> = anchor_cand.iter().copied().collect();
        let mut used_src: FxHashSet<usize> = anchor_src.iter().copied().collect();
        let mut mapping = anchor_mapping;
        let mut total = aligned_by_src.len() as f64 / source.n_rows().max(1) as f64;
        let mut assigned = 0usize;
        for (sc, cc, score) in pair_scores {
            if used_src.contains(&sc) || used_cand.contains(&cc) {
                continue;
            }
            used_src.insert(sc);
            used_cand.insert(cc);
            total += score;
            assigned += 1;
            mapping.push((sc, cc, score));
        }
        if assigned == 0 && verifiable_cols > 0 {
            return None;
        }
        Some((total, mapping))
    }

    pub fn verified_mapping(
        source: &Table,
        table: &Table,
        tau: f64,
    ) -> Option<Vec<(usize, u16, f64)>> {
        let skey = source.schema().key();
        if skey.is_empty() {
            return None;
        }
        let src_sets: Vec<FxHashSet<Value>> =
            (0..source.n_cols()).map(|c| source.distinct_values(c)).collect();
        let cand_sets: Vec<FxHashSet<Value>> =
            (0..table.n_cols()).map(|c| table.distinct_values(c)).collect();
        let top_options = |sc: usize| -> Vec<u16> {
            let mut opts: Vec<(u16, f64)> = (0..table.n_cols())
                .map(|c| (c as u16, containment(&src_sets[sc], &cand_sets[c])))
                .filter(|&(_, o)| o >= tau)
                .collect();
            opts.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
            opts.truncate(3);
            opts.into_iter().map(|(c, _)| c).collect()
        };

        // --- key anchors ---
        let mut key_anchor_best: Option<ScoredMapping> = None;
        let key_options: Vec<Vec<u16>> = skey.iter().map(|&kc| top_options(kc)).collect();
        if key_options.iter().all(|o| !o.is_empty()) {
            let mut combos: Vec<Vec<u16>> = vec![Vec::new()];
            for opts in &key_options {
                let mut next = Vec::new();
                for combo in &combos {
                    for &o in opts {
                        if !combo.contains(&o) {
                            let mut c = combo.clone();
                            c.push(o);
                            next.push(c);
                        }
                    }
                }
                combos = next;
            }
            let mut best: Option<ScoredMapping> = None;
            for key_combo in combos {
                let aligned_by_src = align_by_key(source, table, &key_combo);
                if aligned_by_src.is_empty() {
                    continue;
                }
                let anchor_mapping: Vec<(usize, u16, f64)> =
                    skey.iter().zip(key_combo.iter()).map(|(&sc, &cc)| (sc, cc, 1.0)).collect();
                if let Some((total, mapping)) = assign_with_support(
                    source,
                    table,
                    &aligned_by_src,
                    skey,
                    &key_combo,
                    anchor_mapping,
                ) {
                    match &best {
                        Some((t, _)) if *t >= total => {}
                        _ => best = Some((total, mapping)),
                    }
                }
            }
            key_anchor_best = best;
        }

        // --- single-column anchors ---
        let mut best: Option<ScoredMapping> = None;
        for asc in 0..source.n_cols() {
            if src_sets[asc].is_empty() {
                continue;
            }
            for acc in top_options(asc) {
                let aligned_by_src = align_by_column(source, table, asc, acc);
                if aligned_by_src.is_empty() {
                    continue;
                }
                if let Some((total, mapping)) = assign_with_support(
                    source,
                    table,
                    &aligned_by_src,
                    &[asc],
                    &[acc],
                    vec![(asc, acc, 1.0)],
                ) {
                    match &best {
                        Some((t, _)) if *t >= total => {}
                        _ => best = Some((total, mapping)),
                    }
                }
            }
        }
        match (key_anchor_best, best) {
            (Some((kt, km)), Some((st, sm))) => Some(if st > kt { sm } else { km }),
            (Some((_, km)), None) => Some(km),
            (None, Some((_, sm))) => Some(sm),
            (None, None) => None,
        }
    }
}

/// What a generated scenario must contain for certain; the rest is random.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// A source column of ≤3 distinct values against ≥200 candidate rows.
    LowCardinalityAnchor,
    /// One all-null and one all-distinct source column.
    NullAndDistinctColumns,
    /// A two-column source key.
    CompositeKey,
    /// Source rows sharing key values (the last one wins an alignment).
    DuplicatedKey,
    /// A candidate with fewer columns than the source.
    NarrowCandidate,
    /// A candidate wider than one 64-column counting block.
    WideCandidate,
}

const SHAPES: [Shape; 6] = [
    Shape::LowCardinalityAnchor,
    Shape::NullAndDistinctColumns,
    Shape::CompositeKey,
    Shape::DuplicatedKey,
    Shape::NarrowCandidate,
    Shape::WideCandidate,
];

/// SplitMix64: the scenario builder's own stream, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `x` as an `Int` or as the integral `Float` that equals it.
    fn number(&mut self, x: i64) -> Value {
        if self.below(3) == 0 {
            Value::Float(x as f64)
        } else {
            Value::Int(x)
        }
    }
}

/// A source and a candidate derived from it: every candidate row copies a
/// source row's cells into its "copy" columns (kept, nulled, swapped for
/// another row's, or re-typed `Int`↔`Float`), so real co-occurrence exists
/// next to coincidental matches over a small value domain.
fn build_scenario(shape: Shape, seed: u64) -> (Table, Table) {
    let mut rng = Rng(seed);
    let n_src_rows = 1 + rng.below(30);
    let n_src_cols = 3 + rng.below(4);
    let key_len = if shape == Shape::CompositeKey { 2 } else { 1 };

    // Per source column, the size of its value domain (0 = all null,
    // usize::MAX = all distinct).
    let mut domains: Vec<usize> =
        (0..n_src_cols).map(|_| [2, 3, 5, 40, usize::MAX][rng.below(5)]).collect();
    for d in domains.iter_mut().take(key_len) {
        *d = if shape == Shape::DuplicatedKey { (n_src_rows / 2).max(1) } else { usize::MAX };
    }
    match shape {
        Shape::LowCardinalityAnchor => domains[key_len] = 2 + rng.below(2),
        Shape::NullAndDistinctColumns => {
            domains[key_len] = 0;
            domains[key_len + 1] = usize::MAX;
        }
        _ => {}
    }
    let textual: Vec<bool> = (0..n_src_cols).map(|c| c >= key_len && rng.below(4) == 0).collect();
    let src_rows: Vec<Vec<Value>> = (0..n_src_rows)
        .map(|r| {
            (0..n_src_cols)
                .map(|c| {
                    let x = match domains[c] {
                        0 => return Value::Null,
                        usize::MAX => r as i64,
                        d => rng.below(d) as i64,
                    };
                    if c >= key_len && domains[c] != usize::MAX && rng.below(8) == 0 {
                        Value::Null
                    } else if textual[c] {
                        Value::str(format!("v{x}"))
                    } else {
                        rng.number(x)
                    }
                })
                .collect()
        })
        .collect();
    let src_names: Vec<String> = (0..n_src_cols).map(|c| format!("s{c}")).collect();
    let key_names: Vec<&str> = src_names.iter().take(key_len).map(String::as_str).collect();
    let source = Table::build("S", &src_names, &key_names, src_rows).expect("source");

    let n_cand_cols = match shape {
        Shape::NarrowCandidate => 1 + rng.below(n_src_cols - 1),
        Shape::WideCandidate => 66 + rng.below(6),
        _ => 1 + rng.below(8),
    };
    let n_cand_rows = match shape {
        Shape::LowCardinalityAnchor => 200 + rng.below(60),
        Shape::WideCandidate => rng.below(40),
        _ if rng.below(3) == 0 => 200 + rng.below(60),
        _ => rng.below(25),
    };
    // Per candidate column: the source column it copies, or noise.
    let mut copies: Vec<Option<usize>> =
        (0..n_cand_cols).map(|_| (rng.below(5) != 0).then(|| rng.below(n_src_cols))).collect();
    if shape == Shape::LowCardinalityAnchor {
        copies[0] = Some(key_len); // the low-cardinality column is present
    }
    let cand_rows: Vec<Vec<Value>> = (0..n_cand_rows)
        .map(|_| {
            let base = rng.below(n_src_rows);
            copies
                .iter()
                .map(|copy| match copy {
                    None => {
                        let noise = rng.below(7) as i64;
                        rng.number(noise)
                    }
                    Some(c) => match rng.below(8) {
                        0 => Value::Null,
                        1 => source.rows()[rng.below(n_src_rows)][*c].clone(),
                        2 => match &source.rows()[base][*c] {
                            Value::Int(x) => Value::Float(*x as f64),
                            Value::Float(x) => Value::Int(*x as i64),
                            other => other.clone(),
                        },
                        _ => source.rows()[base][*c].clone(),
                    },
                })
                .collect()
        })
        .collect();
    let cand_names: Vec<String> = (0..n_cand_cols).map(|c| format!("t{c}")).collect();
    let table = Table::build("T", &cand_names, &[], cand_rows).expect("candidate");
    (source, table)
}

fn scenario() -> impl Strategy<Value = (Shape, Table, Table)> {
    (0..SHAPES.len(), any::<u64>()).prop_map(|(shape, seed)| {
        let (source, table) = build_scenario(SHAPES[shape], seed);
        (SHAPES[shape], source, table)
    })
}

fn bits(mapping: Option<Vec<(usize, u16, f64)>>) -> Option<Vec<(usize, u16, u64)>> {
    mapping.map(|m| m.into_iter().map(|(sc, cc, score)| (sc, cc, score.to_bits())).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every single-column anchor: same aligned source rows, same support
    /// matrix as the cell-by-cell scan.
    #[test]
    fn column_anchor_support_matches_the_scan((shape, source, table) in scenario()) {
        // A wide candidate's columns mostly repeat; a prefix past the first
        // 64-column block covers it.
        let anchor_cols = if shape == Shape::WideCandidate { 3 } else { table.n_cols() };
        for asc in 0..source.n_cols() {
            for acc in 0..anchor_cols as u16 {
                let aligned = oracle::align_by_column(&source, &table, asc, acc);
                let want = oracle::scan_support(&source, &table, &aligned, &[asc], &[acc]);
                let (got_aligned, got) = anchor_support(&source, &table, Anchor::Column(asc, acc));
                prop_assert_eq!(got_aligned, aligned.len(), "aligned rows, anchor ({}, {})", asc, acc);
                prop_assert_eq!(got, want, "support matrix, anchor ({}, {})", asc, acc);
            }
        }
    }

    /// Every key anchor (each injective mapping of the key onto candidate
    /// columns), duplicated source keys included.
    #[test]
    fn key_anchor_support_matches_the_scan((_, source, table) in scenario()) {
        let skey = source.schema().key().to_vec();
        let cols = table.n_cols().min(8) as u16;
        let combos: Vec<Vec<u16>> = match skey.len() {
            1 => (0..cols).map(|c| vec![c]).collect(),
            _ => (0..cols)
                .flat_map(|a| (0..cols).filter(move |b| *b != a).map(move |b| vec![a, b]))
                .collect(),
        };
        for combo in combos {
            let aligned = oracle::align_by_key(&source, &table, &combo);
            let want = oracle::scan_support(&source, &table, &aligned, &skey, &combo);
            let (got_aligned, got) = anchor_support(&source, &table, Anchor::Key(&combo));
            prop_assert_eq!(got_aligned, aligned.len(), "aligned rows, key onto {:?}", &combo);
            prop_assert_eq!(got, want, "support matrix, key onto {:?}", &combo);
        }
    }

    /// The mapping chosen across both anchor families, with the bits of
    /// every score — at the default τ, at τ = 0 (every column is an anchor
    /// option) and at a strict τ.
    #[test]
    fn chosen_mapping_matches_the_scan_bit_for_bit((_, source, table) in scenario()) {
        for tau in [0.2, 0.0, 0.7] {
            prop_assert_eq!(
                bits(verified_mapping(&source, &table, tau)),
                bits(oracle::verified_mapping(&source, &table, tau)),
                "tau {}", tau
            );
        }
    }
}

/// The generators do force what they claim to.
#[test]
fn shapes_hold_their_promises() {
    for seed in 0..40u64 {
        let (source, table) = build_scenario(Shape::LowCardinalityAnchor, seed);
        let flag = source.distinct_values(1);
        assert!(flag.len() <= 3 && table.n_rows() >= 200, "seed {seed}");
        let (aligned, _) = anchor_support(&source, &table, Anchor::Column(1, 0));
        assert!(aligned > 0 || flag.is_empty(), "seed {seed}: the flag column anchors");

        let (source, _) = build_scenario(Shape::NullAndDistinctColumns, seed);
        assert!(source.distinct_values(1).is_empty(), "seed {seed}");
        assert_eq!(source.distinct_values(2).len(), source.n_rows(), "seed {seed}");

        let (source, _) = build_scenario(Shape::CompositeKey, seed);
        assert_eq!(source.schema().key().len(), 2);

        let (source, _) = build_scenario(Shape::DuplicatedKey, seed);
        assert!(source.n_rows() < 2 || !source.key_is_valid(), "seed {seed}");

        let (source, table) = build_scenario(Shape::NarrowCandidate, seed);
        assert!(table.n_cols() < source.n_cols(), "seed {seed}");

        let (_, table) = build_scenario(Shape::WideCandidate, seed);
        assert!(table.n_cols() > 64, "seed {seed}");
    }
}
