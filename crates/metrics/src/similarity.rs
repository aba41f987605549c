//! Instance similarity (Eq. 2) and Error-aware Instance Similarity (Eq. 3).
//!
//! Both aggregate a per-tuple score over the key-based alignment, taking for
//! each source tuple the best-scoring aligned tuple. The error-aware tuple
//! similarity (Eq. 1) additionally *penalises* non-null values that
//! contradict the source — this is what makes Gen-T prefer a reclamation
//! with nulls over one with wrong values (Example 6 of the paper, which is
//! reproduced verbatim in this module's tests).

use crate::align::{align_by_key, Alignment};
use gent_table::Table;

/// α(s,t): number of non-key attributes where `s` and `t` share the same
/// value. δ(s,t): number of non-key attributes where `t` is non-null and
/// differs from `s` (including where `s` is null).
///
/// `nulls_match` controls whether a *correctly reclaimed null* (both cells
/// null) counts toward α. The paper's worked Example 6 computes EIS with
/// both-null cells counting as shared (Ŝ2's first tuple scores 3/4) but
/// plain instance similarity without (the same tuple scores 2/4) — we follow
/// the worked numbers exactly, so EIS passes `true` and Eq. 2 passes
/// `false`. Under `nulls_match = true`, EIS = 1 exactly characterises a
/// perfect reclamation.
fn alpha_delta(
    source: &Table,
    reclaimed: &Table,
    alignment: &Alignment,
    s_row: usize,
    t_row: usize,
    nulls_match: bool,
) -> (usize, usize) {
    let mut alpha = 0usize;
    let mut delta = 0usize;
    for &c in &alignment.non_key_cols {
        let sv = &source.rows()[s_row][c];
        let tv = alignment.reclaimed_cell(reclaimed, t_row, c);
        if tv.is_null_like() {
            if sv.is_null_like() && nulls_match {
                alpha += 1; // correctly reclaimed null
            }
            continue; // otherwise neither shared nor erroneous
        }
        if sv.is_null_like() {
            delta += 1; // reclaimed a value for a source null → erroneous
        } else if sv == tv {
            alpha += 1;
        } else {
            delta += 1;
        }
    }
    (alpha, delta)
}

/// Eq. 2 — instance similarity of `source` and `reclaimed`:
/// `Σ_s max_{t∈m(s)} (α(s,t)/n) / |S|`. Source tuples with no aligned tuple
/// contribute 0.
pub fn instance_similarity(source: &Table, reclaimed: &Table) -> f64 {
    if source.n_rows() == 0 {
        return 0.0;
    }
    let alignment = align_by_key(source, reclaimed);
    let n = alignment.non_key_cols.len();
    if n == 0 {
        // Key-only source: similarity is key coverage.
        return alignment.key_coverage(source.n_rows());
    }
    let mut total = 0.0;
    for si in 0..source.n_rows() {
        let best = alignment.matches[si]
            .iter()
            .map(|&ti| alpha_delta(source, reclaimed, &alignment, si, ti, false).0)
            .max()
            .unwrap_or(0);
        total += best as f64 / n as f64;
    }
    total / source.n_rows() as f64
}

/// Eq. 3 — Error-aware Instance Similarity (EIS), normalised to [0, 1]:
/// `0.5 · Σ_s max_{t∈m(s)} (1 + E(s,t)) / |S|`. Source tuples with no
/// aligned tuple contribute 0 (not 0.5): an unreclaimed tuple is worth
/// nothing, matching the problem statement's "reclaim as fully as possible".
pub fn eis(source: &Table, reclaimed: &Table) -> f64 {
    if source.n_rows() == 0 {
        return 0.0;
    }
    let alignment = align_by_key(source, reclaimed);
    eis_with_alignment(source, reclaimed, &alignment)
}

/// EIS over a precomputed alignment (the integration loop re-evaluates EIS
/// at every step; reusing the alignment machinery keeps that cheap).
pub fn eis_with_alignment(source: &Table, reclaimed: &Table, alignment: &Alignment) -> f64 {
    if source.n_rows() == 0 {
        return 0.0;
    }
    let n = alignment.non_key_cols.len();
    let mut total = 0.0;
    for si in 0..source.n_rows() {
        if alignment.matches[si].is_empty() {
            continue;
        }
        let best = alignment.matches[si]
            .iter()
            .map(|&ti| {
                if n == 0 {
                    1.0
                } else {
                    let (a, d) = alpha_delta(source, reclaimed, alignment, si, ti, true);
                    1.0 + (a as f64 - d as f64) / n as f64
                }
            })
            .fold(f64::NEG_INFINITY, f64::max);
        total += best;
    }
    0.5 * total / source.n_rows() as f64
}

/// Is `reclaimed` a *perfect* reclamation of `source`? True when every
/// source tuple has an aligned tuple agreeing on every non-key attribute —
/// including reclaiming source nulls as nulls. (The §VI-B "perfectly
/// reclaims 15–17 Source Tables" counts use this.)
pub fn perfectly_reclaimed(source: &Table, reclaimed: &Table) -> bool {
    let alignment = align_by_key(source, reclaimed);
    (0..source.n_rows()).all(|si| {
        alignment.matches[si].iter().any(|&ti| {
            alignment.non_key_cols.iter().all(|&c| {
                let sv = &source.rows()[si][c];
                let tv = alignment.reclaimed_cell(reclaimed, ti, c);
                if sv.is_null_like() {
                    tv.is_null_like()
                } else {
                    sv == tv
                }
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

    /// The Source Table of Figure 3 / Example 6 (key column "ID").
    fn paper_source() -> Table {
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

    /// Ŝ1 of Example 6: reclaimed an erroneous "Male" for Smith's null
    /// Gender, and has a null for Wang's Education.
    fn s_hat_1() -> Table {
        Table::build(
            "S1",
            &["ID", "Name", "Age", "Gender", "Education Level"],
            &[],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Int(27), V::str("Male"), V::str("Bachelors")],
                vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male"), V::str("Masters")],
                vec![V::Int(2), V::str("Wang"), V::Int(32), V::str("Female"), V::Null],
            ],
        )
        .unwrap()
    }

    /// Ŝ2 of Example 6: nulls instead of wrong values.
    fn s_hat_2() -> Table {
        Table::build(
            "S2",
            &["ID", "Name", "Age", "Gender", "Education Level"],
            &[],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Null, V::Null, V::str("Bachelors")],
                vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male"), V::str("Masters")],
                vec![V::Int(2), V::str("Wang"), V::Int(32), V::str("Female"), V::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn example6_instance_similarity() {
        // Paper: Ŝ1 → (3/4 + 4/4 + 3/4)/3 = 0.833…, Ŝ2 → (2/4+4/4+3/4)/3 = 0.75.
        let s = paper_source();
        assert!((instance_similarity(&s, &s_hat_1()) - 0.8333333333).abs() < 1e-6);
        assert!((instance_similarity(&s, &s_hat_2()) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn example6_eis_prefers_nulls_over_errors() {
        // Paper: EIS(Ŝ1) = 0.875, EIS(Ŝ2) = 0.917 — Ŝ2 wins under EIS even
        // though plain instance similarity prefers Ŝ1.
        let s = paper_source();
        let e1 = eis(&s, &s_hat_1());
        let e2 = eis(&s, &s_hat_2());
        assert!((e1 - 0.875).abs() < 1e-6, "EIS(S1)={e1}");
        assert!((e2 - 0.9166666667).abs() < 1e-6, "EIS(S2)={e2}");
        assert!(e2 > e1);
    }

    #[test]
    fn eis_of_exact_copy_is_one() {
        let s = paper_source();
        let mut copy = s.clone();
        copy.set_name("copy");
        assert!((eis(&s, &copy) - 1.0).abs() < 1e-12);
        assert!(perfectly_reclaimed(&s, &copy));
    }

    #[test]
    fn eis_of_disjoint_table_is_zero() {
        let s = paper_source();
        let t = Table::build(
            "T",
            &["ID", "Name", "Age", "Gender", "Education Level"],
            &[],
            vec![vec![V::Int(99), V::str("X"), V::Null, V::Null, V::Null]],
        )
        .unwrap();
        assert_eq!(eis(&s, &t), 0.0);
        assert!(!perfectly_reclaimed(&s, &t));
    }

    #[test]
    fn eis_takes_best_of_multiple_aligned() {
        let s = paper_source();
        let t = Table::build(
            "T",
            &["ID", "Name", "Age", "Gender", "Education Level"],
            &[],
            vec![
                vec![V::Int(1), V::str("WRONG"), V::str("W"), V::str("W"), V::str("W")],
                vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male"), V::str("Masters")],
            ],
        )
        .unwrap();
        // Row 1 of S aligns with both; the perfect one scores 1.0 → tuple
        // contributes (1+1)/2 = 1, rows 0 and 2 contribute 0.
        assert!((eis(&s, &t) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn erroneous_values_can_drive_tuple_score_negative() {
        let s = paper_source();
        let t = Table::build(
            "T",
            &["ID", "Name", "Age", "Gender", "Education Level"],
            &[],
            vec![vec![V::Int(0), V::str("W1"), V::str("W2"), V::str("W3"), V::str("W4")]],
        )
        .unwrap();
        // α=0, δ=4 → E = -1, tuple contributes (1-1)/2 = 0.
        assert_eq!(eis(&s, &t), 0.0);
        // …but never below 0 per tuple with the 0.5(1+E) normalisation.
        assert!(eis(&s, &t) >= 0.0);
    }

    #[test]
    fn perfect_reclamation_requires_nulls_to_stay_null() {
        let s = paper_source();
        assert!(!perfectly_reclaimed(&s, &s_hat_1())); // reclaimed null as Male
        assert!(!perfectly_reclaimed(&s, &s_hat_2())); // missing values
    }
}
