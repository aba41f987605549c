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
//!
//! # Blocks
//!
//! κ and β compare rows pairwise, but only rows of one *block* can ever
//! meet. A table's block columns are those in which no row is a plain
//! null; a row's block is the [`Table::key_hashes`] fold of its cells in
//! them (labeled nulls count as values there too). Two rows in different
//! blocks hold different non-null values in some block column, so neither
//! subsumes the other, they do not complement, they are not equal — and a
//! κ merge of two rows of one block takes that block's values, so it stays
//! in it. A hash collision only puts two blocks' rows into one list: the
//! pairwise tests inside it are the exact ones, so a coarser partition is
//! still a correct one and nothing is verified afterwards. A table with no
//! block column is one block — the plain scan.
//!
//! Each operator keeps the visiting order of its whole-table scan (β its
//! descending-non-null-count order, κ its worklist and the positions of
//! one result vector), and within a block the first match in that order
//! is the first match the whole-table scan finds, because nothing before
//! it in another block could match. So the output — rows and their order —
//! is the scan's, at O(Σ block²) comparisons instead of O(n²). After
//! `gent-core`'s ProjectSelect every row carries a non-null source key,
//! so the blocks are (at most) the source-key groups.

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

/// Each row's block (module docs, "Blocks"): the fold of its cells in the
/// columns where no row is a plain null.
fn blocks(t: &Table) -> Vec<u64> {
    let cols: Vec<usize> = (0..t.n_cols()).filter(|&c| t.column(c).all(|v| !v.is_null())).collect();
    t.key_hashes(&cols, false)
        .into_iter()
        .map(|h| h.expect("a block column holds no plain null"))
        .collect()
}

/// How the operators below find each row's block: [`blocks`], or — in the
/// tests — a squeezed version of it that forces collisions.
type BlocksFn = fn(&Table) -> Vec<u64>;

/// β — repeatedly remove subsumed tuples. Also removes exact duplicates of
/// earlier tuples (a duplicate is mutually non-strict, so we dedup first to
/// match the "no duplicate tuples" precondition of the theorems).
///
/// A tuple can only be subsumed by one with strictly more non-nulls, so
/// tuples are visited by descending non-null count (stable) and each is
/// checked against the kept tuples of its own block with a larger count;
/// O(Σ block²) comparisons, see the module docs.
pub fn subsumption(t: &Table) -> Table {
    subsumption_by(t, blocks)
}

fn subsumption_by(t: &Table, blocks: BlocksFn) -> Table {
    let mut out = t.clone();
    out.dedup_rows();
    let block_of = blocks(&out);
    let rows = out.rows();
    let counts: Vec<usize> =
        rows.iter().map(|r| r.iter().filter(|v| !v.is_null()).count()).collect();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| counts[b].cmp(&counts[a]));
    let mut keep = vec![true; rows.len()];
    // Each block's kept rows, in visiting order (so by descending count).
    let mut kept_in: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for i in order {
        let kept = kept_in.entry(block_of[i]).or_default();
        if kept
            .iter()
            .take_while(|&&j| counts[j] > counts[i])
            .any(|&j| subsumes(&rows[j], &rows[i]))
        {
            keep[i] = false;
        } else {
            kept.push(i);
        }
    }
    let kept: Vec<Vec<Value>> =
        rows.iter().zip(&keep).filter(|(_, &k)| k).map(|(r, _)| r.clone()).collect();
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
///
/// The accumulator is one vector that loses partners by `swap_remove`, as
/// a whole-table scan would have it; each block also lists the positions
/// its rows hold there, ascending, and an incoming tuple is tested against
/// its own block's list only. The partner taken is the lowest complementing
/// position of the block — the one a scan of the whole accumulator finds
/// first — so the output order is the scan's. O(Σ block²) comparisons, see
/// the module docs.
pub fn complementation(t: &Table) -> Table {
    complementation_by(t, blocks)
}

fn complementation_by(t: &Table, blocks: BlocksFn) -> Table {
    let mut result: Vec<Vec<Value>> = Vec::with_capacity(t.n_rows());
    // The block of each `result` row, and each block's positions in
    // `result`, ascending.
    let mut result_block: Vec<u64> = Vec::with_capacity(t.n_rows());
    let mut positions_of: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for (row, block) in t.rows().iter().zip(blocks(t)) {
        let mut cur = row.clone();
        loop {
            let positions = positions_of.entry(block).or_default();
            let Some(at) = positions.iter().position(|&k| complements(&result[k], &cur)) else {
                break;
            };
            let k = positions.remove(at);
            let partner = result.swap_remove(k);
            result_block.swap_remove(k);
            // The last row moved into `k`: it held the highest position of
            // all, so it is the last entry of its block's list.
            if k < result.len() {
                let moved = positions_of.get_mut(&result_block[k]).expect("listed block");
                moved.pop();
                moved.insert(moved.partition_point(|&p| p < k), k);
            }
            cur = merge_tuples(&partner, &cur);
        }
        let positions = positions_of.entry(block).or_default();
        if !positions.iter().any(|&k| result[k] == cur) {
            positions.push(result.len());
            result.push(cur);
            result_block.push(block);
        }
    }
    Table::from_rows(t.name(), t.schema().clone(), result).expect("schema unchanged")
}

/// Minimal form: no duplicates, no subsumable tuples, no complementable
/// tuples (`TakeMinimalForm` of Algorithm 2 and the precondition of
/// Theorem 8). κ first, then β, then a final κ/β sweep to a fixpoint.
pub fn minimal_form(t: &Table) -> Table {
    minimal_form_by(t, blocks)
}

fn minimal_form_by(t: &Table, blocks: BlocksFn) -> Table {
    let mut cur = t.clone();
    cur.dedup_rows();
    loop {
        let after = subsumption_by(&complementation_by(&cur, blocks), blocks);
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
#[path = "../tests/scan_oracle/mod.rs"]
mod scan_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

    mod colliding_blocks {
        //! `tests/kappa_beta_oracle.rs` again, with every block hash
        //! squeezed to one of three values: blocks that real hashes keep
        //! apart share a list on most cases, and the result must not move.

        use super::super::scan_oracle::{check, table, Ops};
        use super::super::*;
        use gent_table::FxHashSet;
        use proptest::prelude::*;

        fn squeezed(t: &Table) -> Vec<u64> {
            blocks(t).into_iter().map(|h| h % 3).collect()
        }

        const SQUEEZED: Ops = Ops {
            kappa: |t| complementation_by(t, squeezed),
            beta: |t| subsumption_by(t, squeezed),
            minimal: |t| minimal_form_by(t, squeezed),
        };

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn colliding_blocks_match_the_scans(t in table()) {
                check(&t, &SQUEEZED)?;
            }
        }

        /// The squeeze does what it is there for: on many generated tables
        /// it puts rows of different blocks into one list.
        #[test]
        fn the_squeeze_merges_blocks_on_many_cases() {
            let distinct = |hs: Vec<u64>| hs.into_iter().collect::<FxHashSet<u64>>().len();
            let mut rng = proptest::test_runner::TestRng::deterministic("squeeze");
            let tables = table();
            let merged = (0..256)
                .filter(|_| {
                    let t = tables.generate(&mut rng);
                    distinct(blocks(&t)) > distinct(squeezed(&t))
                })
                .count();
            assert!(merged >= 64, "only {merged} of 256 tables had blocks merged");
        }
    }

    #[test]
    fn blocks_key_on_the_never_null_columns() {
        let x = t(vec![
            vec![V::Int(1), V::Null, V::LabeledNull(7)],
            vec![V::Float(1.0), V::Int(2), V::LabeledNull(7)],
            vec![V::Int(1), V::Int(3), V::LabeledNull(8)],
        ]);
        // c1 holds a plain null, so c0 and c2 key the blocks; `Int(1)` and
        // `Float(1.0)` are one value, labeled nulls are values.
        let b = blocks(&x);
        assert_eq!(b[0], b[1]);
        assert_ne!(b[0], b[2]);
        // No never-null column: one block.
        let y = t(vec![vec![V::Int(1), V::Null], vec![V::Null, V::Int(2)]]);
        let b = blocks(&y);
        assert_eq!(b[0], b[1]);
    }

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
