//! Matrix Traversal (Algorithm 1): refine candidates to originating tables.
//!
//! Greedy forward selection over the alignment matrices: start from the
//! single candidate whose matrix scores the highest EIS, then repeatedly add
//! the candidate whose `Combine` with the current matrix *strictly*
//! increases the score; stop when no candidate improves it ("Integration
//! did not find more of S's values", line 19). The tables selected — in
//! their *expanded* form when Expand had to join them to reach the key —
//! are the originating tables handed to Table Integration.
//!
//! # Cost of the greedy loop
//!
//! Each round scores `Combine(current, m)` for every remaining candidate
//! `m` but *keeps* only one. Materializing the combined matrix per
//! candidate just to read its score made each round
//! `O(k · (\text{combine} + \text{prune} + \text{alloc}))`; the fused
//! [`AlignmentMatrix::combine_score`] kernel (PR 3) made each round a pure
//! streaming scan with exactly **one** materialization (the winner). The
//! [`RoundScorer`] now also removes the per-round *rescan*: per-candidate
//! row scores are cached between rounds, a merge dirties only the rows the
//! winner actually covers, and admissible upper bounds skip candidates
//! that provably cannot win — so a round costs the dirty-row work it
//! induces, not `O(k · \text{cells})`. The selections stay bit-identical
//! to a full rescan (see `crates/core/src/round.rs` for the argument).

use crate::config::GenTConfig;
use crate::expand::{expand_views, ExpandStats, Expansion};
use crate::matrix::{AlignmentMatrix, Rows};
use crate::round::{RoundScorer, RoundStats};
use gent_table::Table;

/// Outcome of the traversal: the chosen originating tables (expanded forms)
/// in selection order, plus the matrix-estimated EIS reached.
#[derive(Debug, Clone)]
pub struct TraversalOutcome {
    /// Originating tables, best-first, in their expanded form. Expansions
    /// are scored as index pairs over their inputs; only these few are ever
    /// built as rows (key-carrying candidates share the caller's row
    /// storage).
    pub originating: Vec<Table>,
    /// For each entry of `originating`, its index into the traversal's
    /// *internal* scored list — the candidates after Expand (which joins
    /// and can add/replace tables) and matrix alignment (which drops
    /// keyless ones) — in selection order. These indices do **not** map
    /// back onto the `candidates` slice the caller passed in; they convey
    /// selection order and distinctness (e.g. round count = `len`), and
    /// pair positionally with `originating`.
    pub selected: Vec<usize>,
    /// EIS estimated by the final combined matrix.
    pub estimated_eis: f64,
    /// Greedy-round counters (rounds run, dirty rows rescored, candidates
    /// pruned by the upper bound). Zero for the early-exit paths (no
    /// alignable candidate, pruning disabled).
    pub stats: RoundStats,
    /// Expand engine counters (paths considered, memo hits, dropped
    /// candidates, deduplicated expansions) — populated on every path,
    /// including the early exits, since Expand always runs.
    pub expand: ExpandStats,
}

/// Algorithm 1 — select the originating tables among `candidates` for
/// `source`. Candidates that cannot reach the source key (even via Expand)
/// are discarded up front.
pub fn matrix_traversal(
    source: &Table,
    candidates: &[Table],
    cfg: &GenTConfig,
) -> TraversalOutcome {
    let key_names: Vec<&str> = source.schema().key_names();
    // Lines 3–4: Expand() — join tables without the source key — and
    // MatrixInitialization(). Expand stops short of the rows of each final
    // join (`expand::JoinView`: index pairs over its two inputs), the
    // matrix is built straight off the pairs, and only the handful of
    // expansions the rounds select are turned into rows at the end.
    let mut tables: Vec<usize> = Vec::new(); // expansion index per scored table
    let mut matrices: Vec<AlignmentMatrix> = Vec::new();
    let (expansions, expand_stats) = {
        let ins = crate::telemetry::instruments();
        let _span = gent_obs::span_timed("expand", ins.stage_expand.clone());
        // Everything below that hashes reads the tables' column facts, on
        // this thread: the tally's growth is this request's share.
        let facts_before = gent_table::column_facts_tally();
        let (expansions, stats) = expand_views(candidates, &key_names, cfg.expand_max_depth);
        for (i, e) in expansions.iter().enumerate() {
            if let Expansion::View(v) = e {
                ins.expand_pairs_aligned.add(v.n_rows() as u64);
            }
            let m =
                AlignmentMatrix::build_from(source, e, cfg.three_valued, cfg.max_aligned_per_key);
            if let Some(m) = m {
                tables.push(i);
                matrices.push(m);
            }
        }
        let facts = gent_table::column_facts_tally();
        ins.expand_columns_hashed.add(facts.computed - facts_before.computed);
        ins.expand_columns_reused.add(facts.found - facts_before.found);
        (expansions, stats)
    };
    // The chosen expansions as rows, in selection order. What the rounds
    // passed over is released first, and each chosen expansion as soon as
    // its rows exist: the memoized suffix joins that only unchosen views
    // pinned are gone before a chosen row is built, so the rows replace
    // the views instead of standing beside all of them.
    let originating = |chosen: &[usize]| -> Vec<Table> {
        let mut slots: Vec<Option<Expansion>> = expansions.into_iter().map(Some).collect();
        let picked: Vec<Expansion> =
            chosen.iter().map(|&i| slots[tables[i]].take().expect("selected once")).collect();
        drop(slots);
        picked.into_iter().map(|e| e.to_table()).collect()
    };
    if tables.is_empty() {
        return TraversalOutcome {
            originating: Vec::new(),
            selected: Vec::new(),
            estimated_eis: 0.0,
            stats: RoundStats::default(),
            expand: expand_stats,
        };
    }

    if !cfg.prune_with_traversal {
        // Ablation: skip pruning, integrate everything (ALITE-PS regime).
        let mut combined = matrices[0].clone();
        for m in &matrices[1..] {
            combined = combined.combine(m, cfg.max_aligned_per_key);
        }
        let selected: Vec<usize> = (0..tables.len()).collect();
        return TraversalOutcome {
            originating: originating(&selected),
            selected,
            estimated_eis: combined.eis(),
            stats: RoundStats::default(),
            expand: expand_stats,
        };
    }

    // Lines 5–6: GetStartTable — the best single matrix by
    // percentCorrectVals (net correct values).
    let (start, _) = matrices
        .iter()
        .enumerate()
        .map(|(i, m)| (i, m.net_score()))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("score finite").then(b.0.cmp(&a.0)))
        .expect("non-empty");
    let mut chosen = vec![start];

    // Lines 8–20: greedy extension until no strict improvement. The
    // `RoundScorer` carries per-row score caches and admissible bounds
    // across rounds: each round rescans only the rows the previous winner
    // dirtied, skips provably-losing candidates, and materializes exactly
    // one combined matrix (the winner) — with selections bit-identical to
    // the full-rescan loop it replaces.
    let mut scorer = RoundScorer::new(&matrices, start, cfg.max_aligned_per_key);
    while chosen.len() < tables.len() {
        match scorer.select_next() {
            Some(i) => chosen.push(i),
            None => break, // line 18–19: converged
        }
    }

    let stats = scorer.stats();
    let estimated_eis = scorer.into_combined().eis();
    let originating = originating(&chosen);
    TraversalOutcome { originating, selected: chosen, estimated_eis, stats, expand: expand_stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

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

    /// Figure 3 candidates (already renamed, as Set Similarity leaves them).
    fn figure3_candidates() -> Vec<Table> {
        vec![
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
            .unwrap(),
            Table::build(
                "B",
                &["Name", "Age"],
                &[],
                vec![
                    vec![V::str("Smith"), V::Int(27)],
                    vec![V::str("Brown"), V::Int(24)],
                    vec![V::str("Wang"), V::Int(32)],
                ],
            )
            .unwrap(),
            Table::build(
                "C",
                &["Name", "Gender"],
                &[],
                vec![
                    vec![V::str("Smith"), V::str("Male")],
                    vec![V::str("Brown"), V::str("Male")],
                    vec![V::str("Wang"), V::str("Male")],
                ],
            )
            .unwrap(),
            Table::build(
                "D",
                &["ID", "Name", "Age", "Gender", "Education Level"],
                &[],
                vec![
                    vec![V::Int(0), V::str("Smith"), V::Int(27), V::Null, V::str("Bachelors")],
                    vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male"), V::str("Masters")],
                    vec![V::Int(2), V::str("Wang"), V::Int(32), V::str("Female"), V::Null],
                ],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn example3_excludes_pure_noise_table_c() {
        // Example 3: integrating A, B, D alone beats using all four —
        // Table C only contributes erroneous Gender values (its one correct
        // value, Brown=Male, is already covered by D). The traversal must
        // not select C.
        let out = matrix_traversal(&source(), &figure3_candidates(), &GenTConfig::default());
        let names: Vec<&str> = out.originating.iter().map(|t| t.name()).collect();
        assert!(!names.iter().any(|n| n.starts_with("C")), "C must be pruned, got {names:?}");
        assert!(out.estimated_eis > 0.9, "eis = {}", out.estimated_eis);
    }

    #[test]
    fn starts_with_best_table() {
        // The start table must carry D's near-complete content — either D
        // itself or an expansion joined through D.
        let out = matrix_traversal(&source(), &figure3_candidates(), &GenTConfig::default());
        let first = out.originating[0].name();
        assert!(first.starts_with("D") || first.contains("expanded"), "start table {first}");
    }

    #[test]
    fn converges_without_improvement() {
        // Two identical candidates: the second adds nothing, traversal
        // returns just one.
        let d = figure3_candidates().pop().unwrap();
        let mut d2 = d.clone();
        d2.set_name("D2");
        let out = matrix_traversal(&source(), &[d, d2], &GenTConfig::default());
        assert_eq!(out.originating.len(), 1);
    }

    #[test]
    fn empty_candidates() {
        let out = matrix_traversal(&source(), &[], &GenTConfig::default());
        assert!(out.originating.is_empty());
        assert_eq!(out.estimated_eis, 0.0);
    }

    #[test]
    fn no_pruning_ablation_keeps_all() {
        let cfg = GenTConfig { prune_with_traversal: false, ..Default::default() };
        let out = matrix_traversal(&source(), &figure3_candidates(), &cfg);
        // All candidates kept (keyless ones possibly as several expansions).
        assert!(out.originating.len() >= 4, "{}", out.originating.len());
    }

    #[test]
    fn selected_indices_match_originating() {
        let out = matrix_traversal(&source(), &figure3_candidates(), &GenTConfig::default());
        assert_eq!(out.selected.len(), out.originating.len());
        let mut dedup = out.selected.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), out.selected.len(), "selection indices must be distinct");
    }

    #[test]
    fn round_stats_reflect_the_greedy_loop() {
        let out = matrix_traversal(&source(), &figure3_candidates(), &GenTConfig::default());
        // Multi-table selection ⇒ at least one accepted round per extra
        // table, and the converge sweep unless everything was selected.
        assert!(out.stats.rounds as usize >= out.selected.len() - 1, "{:?}", out.stats);
        assert!(out.stats.rows_rescored > 0, "the cache was never filled: {:?}", out.stats);

        // The ablation and empty paths report zeroed counters.
        let cfg = GenTConfig { prune_with_traversal: false, ..Default::default() };
        let ablation = matrix_traversal(&source(), &figure3_candidates(), &cfg);
        assert_eq!(ablation.stats, crate::round::RoundStats::default());
        let empty = matrix_traversal(&source(), &[], &GenTConfig::default());
        assert_eq!(empty.stats.rounds, 0);
    }

    #[test]
    fn unalignable_candidates_skipped() {
        let z = Table::build("Z", &["q"], &[], vec![vec![V::str("zz")]]).unwrap();
        let out = matrix_traversal(&source(), &[z], &GenTConfig::default());
        assert!(out.originating.is_empty());
    }
}
