//! Unary operators: selection (σ), projection (π), subsumption (β),
//! complementation (κ), and the *minimal form* combination.
//!
//! Definitions follow §IV-B of the paper:
//!
//! * **Subsumption (β)** — `t1` subsumes `t2` when `t1` agrees with `t2` on
//!   every attribute where `t2` is non-null and `t1` is non-null somewhere
//!   `t2` is null; subsumed tuples are discarded, repeatedly.
//! * **Complementation (κ)** — `t1` complements `t2` when they share at
//!   least one equal non-null value, agree wherever both are non-null, and
//!   each fills at least one null of the other; the pair is replaced by the
//!   merged tuple, repeatedly, until no complementing pair remains.
//!
//! Labeled nulls count as non-null everywhere — this is what lets
//! `LabelSourceNulls` protect "correct nulls" from being over-combined
//! (Algorithm 2, line 5).

use crate::error::OpError;
use gent_table::{FxHashMap, Table, Value};

/// π — project onto the columns at `indices` (may reorder).
pub fn project(t: &Table, indices: &[usize]) -> Result<Table, OpError> {
    Ok(t.take_columns(indices, t.name())?)
}

/// π by column name.
pub fn project_named<S: AsRef<str>>(t: &Table, names: &[S]) -> Result<Table, OpError> {
    let mut idx = Vec::with_capacity(names.len());
    for n in names {
        let n = n.as_ref();
        idx.push(
            t.schema()
                .column_index(n)
                .ok_or_else(|| OpError::Table(gent_table::TableError::UnknownColumn(n.into())))?,
        );
    }
    project(t, &idx)
}

/// σ — select rows satisfying `pred`.
pub fn select<F: FnMut(&[Value]) -> bool>(t: &Table, mut pred: F) -> Table {
    let mut out = Table::new(t.name(), t.schema().clone());
    for row in t.rows() {
        if pred(row) {
            out.push_row(row.clone()).expect("same schema");
        }
    }
    out
}

/// Does `t1` subsume `t2`? (`t1` ⊒ `t2`, strictly.)
#[inline]
pub(crate) fn subsumes(t1: &[Value], t2: &[Value]) -> bool {
    let mut strict = false;
    for (a, b) in t1.iter().zip(t2.iter()) {
        if b.is_null() {
            if !a.is_null() {
                strict = true;
            }
        } else if a != b {
            return false; // t2 non-null where t1 disagrees (or is null)
        }
    }
    strict
}

/// β — repeatedly remove subsumed tuples. Also removes exact duplicates of
/// earlier tuples (a duplicate is mutually non-strict, so we dedup first to
/// match the "no duplicate tuples" precondition of the theorems).
pub fn subsumption(t: &Table) -> Table {
    let mut out = t.clone();
    out.dedup_rows();
    // Sort candidate order by descending non-null count: a tuple can only be
    // subsumed by one with strictly more non-nulls, so we only compare
    // against rows with larger counts.
    let mut order: Vec<usize> = (0..out.n_rows()).collect();
    let counts: Vec<usize> =
        out.rows().iter().map(|r| r.iter().filter(|v| !v.is_null()).count()).collect();
    order.sort_by(|&a, &b| counts[b].cmp(&counts[a]));
    let rows = out.rows();
    let mut keep = vec![true; rows.len()];
    for (pos, &i) in order.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        for &j in &order[..pos] {
            if keep[j] && counts[j] > counts[i] && subsumes(&rows[j], &rows[i]) {
                keep[i] = false;
                break;
            }
        }
    }
    let kept: Vec<Vec<Value>> =
        rows.iter().enumerate().filter(|(i, _)| keep[*i]).map(|(_, r)| r.clone()).collect();
    Table::from_rows(t.name(), t.schema().clone(), kept).expect("schema unchanged")
}

/// Can `t1` and `t2` be complemented? They must share ≥1 equal non-null
/// value, agree wherever both are non-null, and each must fill a null of the
/// other.
#[inline]
pub(crate) fn complements(t1: &[Value], t2: &[Value]) -> bool {
    let mut shared = false;
    let mut t1_fills = false;
    let mut t2_fills = false;
    for (a, b) in t1.iter().zip(t2.iter()) {
        match (a.is_null(), b.is_null()) {
            (false, false) => {
                if a != b {
                    return false;
                }
                shared = true;
            }
            (false, true) => t1_fills = true,
            (true, false) => t2_fills = true,
            (true, true) => {}
        }
    }
    shared && t1_fills && t2_fills
}

/// Merge two complementing tuples: non-null wins at each position.
#[inline]
pub(crate) fn merge_tuples(t1: &[Value], t2: &[Value]) -> Vec<Value> {
    t1.iter().zip(t2.iter()).map(|(a, b)| if a.is_null() { b.clone() } else { a.clone() }).collect()
}

/// κ — repeatedly replace complementing pairs by their merge until no pair
/// complements.
///
/// Implemented as worklist insertion maintaining the invariant that no two
/// tuples in the accumulator complement each other: each incoming tuple
/// absorbs every partner it complements (removing them), then the merge is
/// inserted if not already present.
pub fn complementation(t: &Table) -> Table {
    let mut result: Vec<Vec<Value>> = Vec::with_capacity(t.n_rows());
    for row in t.rows() {
        let mut cur = row.clone();
        while let Some(k) = result.iter().position(|r| complements(r, &cur)) {
            let partner = result.swap_remove(k);
            cur = merge_tuples(&partner, &cur);
        }
        if !result.contains(&cur) {
            result.push(cur);
        }
    }
    Table::from_rows(t.name(), t.schema().clone(), result).expect("schema unchanged")
}

/// Minimal form: no duplicates, no subsumable tuples, no complementable
/// tuples (`TakeMinimalForm` of Algorithm 2 and the precondition of
/// Theorem 8). κ first, then β, then a final κ/β sweep to a fixpoint.
pub fn minimal_form(t: &Table) -> Table {
    let mut cur = t.clone();
    cur.dedup_rows();
    loop {
        let after = subsumption(&complementation(&cur));
        if after.rows() == cur.rows() {
            return after;
        }
        cur = after;
    }
}

/// Group rows by value of the given column indices (non-null only) — shared
/// helper for joins.
pub(crate) fn group_by_columns<'a>(
    t: &'a Table,
    cols: &[usize],
) -> FxHashMap<Vec<&'a Value>, Vec<usize>> {
    let mut map: FxHashMap<Vec<&Value>, Vec<usize>> = FxHashMap::default();
    'rows: for (i, row) in t.rows().iter().enumerate() {
        let mut key = Vec::with_capacity(cols.len());
        for &c in cols {
            if row[c].is_null() {
                continue 'rows; // null join keys never match
            }
            key.push(&row[c]);
        }
        map.entry(key).or_default().push(i);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

    fn t(rows: Vec<Vec<V>>) -> Table {
        let ncols = rows.first().map(|r| r.len()).unwrap_or(0);
        let cols: Vec<String> = (0..ncols).map(|i| format!("c{i}")).collect();
        Table::build("t", &cols, &[], rows).unwrap()
    }

    #[test]
    fn project_reorders_and_errors() {
        let x = t(vec![vec![V::Int(1), V::Int(2)]]);
        let p = project_named(&x, &["c1", "c0"]).unwrap();
        assert_eq!(p.row(0).unwrap(), &[V::Int(2), V::Int(1)]);
        assert!(project_named(&x, &["zz"]).is_err());
    }

    #[test]
    fn select_filters() {
        let x = t(vec![vec![V::Int(1)], vec![V::Int(2)], vec![V::Int(3)]]);
        let s = select(&x, |r| r[0] >= V::Int(2));
        assert_eq!(s.n_rows(), 2);
    }

    #[test]
    fn subsumes_definition() {
        assert!(subsumes(&[V::Int(1), V::Int(2)], &[V::Int(1), V::Null]));
        assert!(!subsumes(&[V::Int(1), V::Null], &[V::Int(1), V::Int(2)]));
        assert!(!subsumes(&[V::Int(1), V::Int(2)], &[V::Int(1), V::Int(2)])); // not strict
        assert!(!subsumes(&[V::Int(9), V::Int(2)], &[V::Int(1), V::Null])); // disagree
    }

    #[test]
    fn labeled_nulls_block_subsumption() {
        // A labeled null is non-null: (1, ⊥₁) is NOT subsumed by (1, 2).
        assert!(!subsumes(&[V::Int(1), V::Int(2)], &[V::Int(1), V::LabeledNull(1)]));
    }

    #[test]
    fn beta_removes_subsumed_and_duplicates() {
        let x = t(vec![
            vec![V::Int(1), V::Int(2)],
            vec![V::Int(1), V::Null],
            vec![V::Int(1), V::Int(2)], // duplicate
            vec![V::Int(3), V::Null],
        ]);
        let b = subsumption(&x);
        assert_eq!(b.n_rows(), 2);
        assert!(b.rows().contains(&vec![V::Int(1), V::Int(2)]));
        assert!(b.rows().contains(&vec![V::Int(3), V::Null]));
    }

    #[test]
    fn beta_chain() {
        // (1,2,3) subsumes (1,2,⊥) subsumes (1,⊥,⊥)
        let x = t(vec![
            vec![V::Int(1), V::Null, V::Null],
            vec![V::Int(1), V::Int(2), V::Null],
            vec![V::Int(1), V::Int(2), V::Int(3)],
        ]);
        assert_eq!(subsumption(&x).n_rows(), 1);
    }

    #[test]
    fn complements_definition() {
        // share c0, each fills the other's null
        assert!(complements(&[V::Int(1), V::Int(2), V::Null], &[V::Int(1), V::Null, V::Int(3)]));
        // disagree on shared non-null
        assert!(!complements(&[V::Int(1), V::Int(2), V::Null], &[V::Int(1), V::Int(9), V::Int(3)]));
        // no shared non-null value
        assert!(!complements(&[V::Int(1), V::Null], &[V::Null, V::Int(3)]));
        // one-directional fill = subsumption case, not complementation
        assert!(!complements(&[V::Int(1), V::Int(2)], &[V::Int(1), V::Null]));
    }

    #[test]
    fn kappa_merges_pairs() {
        let x = t(vec![vec![V::Int(1), V::Int(2), V::Null], vec![V::Int(1), V::Null, V::Int(3)]]);
        let k = complementation(&x);
        assert_eq!(k.n_rows(), 1);
        assert_eq!(k.row(0).unwrap(), &[V::Int(1), V::Int(2), V::Int(3)]);
    }

    #[test]
    fn kappa_cascades() {
        // a+b merge, then the merge complements c.
        let x = t(vec![
            vec![V::Int(1), V::Int(2), V::Null, V::Null],
            vec![V::Int(1), V::Null, V::Int(3), V::Null],
            vec![V::Null, V::Int(2), V::Null, V::Int(4)],
        ]);
        let k = complementation(&x);
        assert_eq!(k.n_rows(), 1);
        assert_eq!(k.row(0).unwrap(), &[V::Int(1), V::Int(2), V::Int(3), V::Int(4)]);
    }

    #[test]
    fn kappa_keeps_contradicting_tuples() {
        let x = t(vec![vec![V::Int(1), V::Int(2)], vec![V::Int(1), V::Int(9)]]);
        // They share c0 but disagree on c1 → kept apart (also neither has a
        // null to fill, so not complementable on two grounds).
        assert_eq!(complementation(&x).n_rows(), 2);
    }

    #[test]
    fn minimal_form_fixpoint() {
        let x = t(vec![
            vec![V::Int(1), V::Int(2), V::Null],
            vec![V::Int(1), V::Null, V::Int(3)],
            vec![V::Int(1), V::Null, V::Null], // subsumed after merge
            vec![V::Int(1), V::Int(2), V::Int(3)], // duplicate of merge
        ]);
        let m = minimal_form(&x);
        assert_eq!(m.n_rows(), 1);
        assert_eq!(m.row(0).unwrap(), &[V::Int(1), V::Int(2), V::Int(3)]);
    }

    #[test]
    fn minimal_form_idempotent() {
        let x = t(vec![vec![V::Int(1), V::Int(2), V::Null], vec![V::Int(4), V::Null, V::Int(5)]]);
        let m1 = minimal_form(&x);
        let m2 = minimal_form(&m1);
        assert_eq!(m1.rows(), m2.rows());
    }
}
