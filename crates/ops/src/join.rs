//! Binary join operators: natural inner join, left join, full outer join,
//! and cross product.
//!
//! Joins are *natural*: the join columns are the columns the two schemas
//! share by name (Gen-T renames candidate columns to source column names
//! during discovery, so name-sharing is meaningful). Null join keys never
//! match, as in SQL. These operators are used by `Expand` (joining keyless
//! candidates onto key-carrying ones), by the Auto-Pipeline*/Ver baselines,
//! and by the property tests of Theorem 8's lemmas (Appendix A):
//!
//! * Lemma 12: `T1 ⋈ T2  =  σ(T1.C = T2.C ≠ ⊥, β(κ(T1 ⊎ T2)))`
//! * Lemma 13: `T1 ⟕ T2  =  β((T1 ⋈ T2) ⊎ T1)`
//! * Lemma 14: `T1 ⟗ T2  =  β(β((T1 ⋈ T2) ⊎ T1) ⊎ T2)`
//! * Lemma 15: `T1 × T2  =  κ(π((T1.C, c), T1) ⊎ π((T2.C, c), T2))`

use crate::error::OpError;
use crate::unary::group_by_columns;
use gent_table::{FxHashMap, Schema, Table, Value};

/// The column layout of a natural join `left ⋈ right`: all of `left`'s
/// columns followed by `right`'s non-common columns. Callers that cache
/// per-side join state ([`left_key_hashes`], [`JoinIndex`]) key it on
/// `lcols` / `rcols`.
#[derive(Debug, Clone)]
pub struct JoinLayout {
    /// The output schema.
    pub schema: Schema,
    /// The common columns' indices in the left table, in the left schema's
    /// order — the order every join here keys on.
    pub lcols: Vec<usize>,
    /// The same columns' indices in the right table: the grouping a
    /// [`JoinIndex`] must be built over to serve this join.
    pub rcols: Vec<usize>,
    /// The right table's extra (non-common) column indices, in output order.
    pub rextra: Vec<usize>,
}

impl JoinLayout {
    /// The rows `pairs` (from [`inner_join_pairs`]) stand for, as the table
    /// [`inner_join`] returns.
    pub fn table(&self, left: &Table, right: &Table, pairs: &[(u32, u32)]) -> Table {
        let rows = pairs
            .iter()
            .map(|&(li, ri)| {
                joined_row(&left.rows()[li as usize], &right.rows()[ri as usize], &self.rextra)
            })
            .collect();
        Table::from_rows(format!("{}⋈{}", left.name(), right.name()), self.schema.clone(), rows)
            .expect("layout fixed")
    }
}

/// The [`JoinLayout`] of `left ⋈ right`; an error when the tables share no
/// column.
pub fn join_layout(left: &Table, right: &Table) -> Result<JoinLayout, OpError> {
    let common = left.schema().common_columns(right.schema());
    if common.is_empty() {
        return Err(OpError::NoCommonColumns {
            left: left.name().to_string(),
            right: right.name().to_string(),
        });
    }
    let lcols: Vec<usize> =
        common.iter().map(|c| left.schema().column_index(c).expect("common")).collect();
    let rcols: Vec<usize> =
        common.iter().map(|c| right.schema().column_index(c).expect("common")).collect();
    let rextra: Vec<usize> = (0..right.n_cols()).filter(|j| !rcols.contains(j)).collect();
    let mut names: Vec<String> = left.schema().columns().map(str::to_string).collect();
    for &j in &rextra {
        names.push(right.schema().column_name(j).expect("in range").to_string());
    }
    let schema = Schema::new(names.iter().map(|s| s.as_str()))?;
    Ok(JoinLayout { schema, lcols, rcols, rextra })
}

/// Build one joined row from a left row and a right row.
fn joined_row(lrow: &[Value], rrow: &[Value], rextra: &[usize]) -> Vec<Value> {
    let mut row = Vec::with_capacity(lrow.len() + rextra.len());
    row.extend_from_slice(lrow);
    for &j in rextra {
        row.push(rrow[j].clone());
    }
    row
}

/// A left row padded with nulls for the right side (outer-join dangling row).
fn dangling_left(lrow: &[Value], extra: usize) -> Vec<Value> {
    let mut row = Vec::with_capacity(lrow.len() + extra);
    row.extend_from_slice(lrow);
    row.extend(std::iter::repeat_n(Value::Null, extra));
    row
}

/// A right row padded with nulls for the left side, with the common columns
/// filled from the right row.
fn dangling_right(
    rrow: &[Value],
    left_cols: usize,
    lcols: &[usize],
    rcols: &[usize],
    rextra: &[usize],
) -> Vec<Value> {
    let mut row = vec![Value::Null; left_cols + rextra.len()];
    for (li, ri) in lcols.iter().zip(rcols.iter()) {
        row[*li] = rrow[*ri].clone();
    }
    for (k, &j) in rextra.iter().enumerate() {
        row[left_cols + k] = rrow[j].clone();
    }
    row
}

/// The per-row join-key hashes of a join's **left** side: `hashes[i]` is
/// `Some(hash)` of row `i`'s `lcols` cells, or `None` when the key holds a
/// plain null (null keys never match). The hash function is the one
/// [`JoinIndex`] probes with, so [`inner_join_pairs`] accepts the result — a
/// left table joined against many right
/// tables over the same column set (Expand's path engine) hashes its rows
/// once instead of once per join.
pub fn left_key_hashes(left: &Table, lcols: &[usize]) -> Vec<Option<u64>> {
    let mut key: Vec<&Value> = Vec::with_capacity(lcols.len());
    left.rows()
        .iter()
        .map(|lrow| {
            key.clear();
            for &c in lcols {
                if lrow[c].is_null() {
                    return None;
                }
                key.push(&lrow[c]);
            }
            Some(hash_join_key(&key))
        })
        .collect()
}

/// A reusable row index over one join's right side: the right table's rows
/// grouped by their join-key values, hashed once.
///
/// [`inner_join`] rebuilds this grouping on every call — `O(rows · key
/// width)` hashing that Expand's path folds used to pay again for **every**
/// path sharing a right table. Building the index once and passing it to
/// [`inner_join_indexed`] amortises the hashing across all joins against
/// the same `(right table, join columns)` pair.
///
/// The index stores only hashes and row numbers (no cloned values): a
/// lookup re-verifies the key against the right table's rows, so it must be
/// probed with the same table it was built from.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    /// The right-side join columns this index groups by.
    rcols: Vec<usize>,
    /// Key hash → row groups (each ascending); groups whose keys collide
    /// on the hash live in the same bucket and are told apart by comparing
    /// against the group's first row.
    buckets: FxHashMap<u64, Vec<Vec<usize>>>,
}

/// One deterministic hash of a join-key value sequence (build and probe
/// must agree; nothing else depends on the choice of hasher — Fx because
/// the probe runs once per left row and SipHash dominates it on wide
/// joins).
fn hash_join_key(key: &[&Value]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = gent_table::fxhash::FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

impl JoinIndex {
    /// Group `right`'s rows by the values of `rcols` (rows with a null join
    /// key are excluded — null keys never match). `rcols` must be the
    /// [`JoinLayout::rcols`] of the join this index will serve.
    pub fn build(right: &Table, rcols: &[usize]) -> JoinIndex {
        let mut buckets: FxHashMap<u64, Vec<Vec<usize>>> = FxHashMap::default();
        for (key, rows) in group_by_columns(right, rcols) {
            buckets.entry(hash_join_key(&key)).or_default().push(rows);
        }
        JoinIndex { rcols: rcols.to_vec(), buckets }
    }

    /// The right rows matching `key` (ascending), or `None`. `hash` must be
    /// `hash_join_key(key)` — callers with cached left-side hashes (see
    /// [`left_key_hashes`]) pass it instead of re-hashing.
    fn matches_hashed(&self, right: &Table, hash: u64, key: &[&Value]) -> Option<&[usize]> {
        let groups = self.buckets.get(&hash)?;
        groups
            .iter()
            .find(|rows| {
                let probe = &right.rows()[rows[0]];
                self.rcols.iter().zip(key.iter()).all(|(&c, &v)| &probe[c] == v)
            })
            .map(|rows| rows.as_slice())
    }
}

/// The `(left row, right row)` index pairs of `left ⋈ right`, in the order
/// [`inner_join`] emits rows (left-major, each left row's matches
/// ascending) — the join without its rows. `None` the moment the join
/// would hold more than `max_pairs` rows. `lcols` is the join's
/// [`JoinLayout::lcols`], `index` was built from this `right` over the
/// matching `rcols`, and `hashes[i]` is left row `i`'s entry of
/// [`left_key_hashes`] — so a left table joined against many right tables
/// over the same column set hashes its rows once.
pub fn inner_join_pairs(
    left: &Table,
    right: &Table,
    lcols: &[usize],
    index: &JoinIndex,
    hashes: &[Option<u64>],
    max_pairs: usize,
) -> Option<Vec<(u32, u32)>> {
    debug_assert_eq!(hashes.len(), left.n_rows(), "hashes built for a different left");
    assert!(left.n_rows().max(right.n_rows()) <= u32::MAX as usize, "row index past u32");
    let mut pairs = Vec::new();
    let mut key = Vec::with_capacity(lcols.len());
    for (li, lrow) in left.rows().iter().enumerate() {
        let Some(hash) = hashes[li] else {
            continue; // null join key — never matches
        };
        key.clear();
        key.extend(lcols.iter().map(|&c| &lrow[c]));
        if let Some(matches) = index.matches_hashed(right, hash, &key) {
            if pairs.len() + matches.len() > max_pairs {
                return None;
            }
            pairs.extend(matches.iter().map(|&ri| (li as u32, ri as u32)));
        }
    }
    Some(pairs)
}

/// [`inner_join`] against a prebuilt [`JoinIndex`] over `right` — the
/// result is byte-identical (same schema, same row order, same name);
/// only the right-side hashing is amortised. The index must have been
/// built from this `right` over this join's [`JoinLayout::rcols`].
pub fn inner_join_indexed(
    left: &Table,
    right: &Table,
    index: &JoinIndex,
) -> Result<Table, OpError> {
    Ok(inner_join_indexed_capped(left, right, index, usize::MAX)?.expect("no cap"))
}

/// [`inner_join_indexed`] with an output budget: `Ok(None)` when the join
/// would hold more than `max_rows` rows. The join is probed as index pairs
/// first and its rows are built only if it fits, so callers that might
/// *not* want a join (because its output would dwarf its inputs, e.g. the
/// Expand engine's oversize veto) pay a veto no rows at all.
pub fn inner_join_indexed_capped(
    left: &Table,
    right: &Table,
    index: &JoinIndex,
    max_rows: usize,
) -> Result<Option<Table>, OpError> {
    let layout = join_layout(left, right)?;
    debug_assert_eq!(layout.rcols, index.rcols, "index built for a different join");
    let hashes = left_key_hashes(left, &layout.lcols);
    let pairs = inner_join_pairs(left, right, &layout.lcols, index, &hashes, max_rows);
    Ok(pairs.map(|pairs| layout.table(left, right, &pairs)))
}

/// Natural inner join (⋈) on the common columns.
pub fn inner_join(left: &Table, right: &Table) -> Result<Table, OpError> {
    let JoinLayout { schema, lcols, rcols, rextra } = join_layout(left, right)?;
    let rindex = group_by_columns(right, &rcols);
    let mut out = Table::new(format!("{}⋈{}", left.name(), right.name()), schema);
    for lrow in left.rows() {
        let mut key = Vec::with_capacity(lcols.len());
        let mut has_null = false;
        for &c in &lcols {
            if lrow[c].is_null() {
                has_null = true;
                break;
            }
            key.push(&lrow[c]);
        }
        if has_null {
            continue;
        }
        if let Some(matches) = rindex.get(&key) {
            for &ri in matches {
                out.push_row(joined_row(lrow, &right.rows()[ri], &rextra)).expect("layout fixed");
            }
        }
    }
    Ok(out)
}

/// Natural left (outer) join (⟕): inner join plus dangling left rows padded
/// with nulls.
pub fn left_join(left: &Table, right: &Table) -> Result<Table, OpError> {
    let JoinLayout { schema, lcols, rcols, rextra } = join_layout(left, right)?;
    let rindex = group_by_columns(right, &rcols);
    let mut out = Table::new(format!("{}⟕{}", left.name(), right.name()), schema);
    for lrow in left.rows() {
        let mut key = Vec::with_capacity(lcols.len());
        let mut has_null = false;
        for &c in &lcols {
            if lrow[c].is_null() {
                has_null = true;
                break;
            }
            key.push(&lrow[c]);
        }
        let matches = if has_null { None } else { rindex.get(&key) };
        match matches {
            Some(ms) if !ms.is_empty() => {
                for &ri in ms {
                    out.push_row(joined_row(lrow, &right.rows()[ri], &rextra))
                        .expect("layout fixed");
                }
            }
            _ => out.push_row(dangling_left(lrow, rextra.len())).expect("layout fixed"),
        }
    }
    Ok(out)
}

/// Natural full outer join (⟗): inner join plus dangling rows from both
/// sides.
pub fn full_outer_join(left: &Table, right: &Table) -> Result<Table, OpError> {
    let JoinLayout { schema, lcols, rcols, rextra } = join_layout(left, right)?;
    let rindex = group_by_columns(right, &rcols);
    let mut matched_right: Vec<bool> = vec![false; right.n_rows()];
    let mut out = Table::new(format!("{}⟗{}", left.name(), right.name()), schema);
    for lrow in left.rows() {
        let mut key = Vec::with_capacity(lcols.len());
        let mut has_null = false;
        for &c in &lcols {
            if lrow[c].is_null() {
                has_null = true;
                break;
            }
            key.push(&lrow[c]);
        }
        let matches = if has_null { None } else { rindex.get(&key) };
        match matches {
            Some(ms) if !ms.is_empty() => {
                for &ri in ms {
                    matched_right[ri] = true;
                    out.push_row(joined_row(lrow, &right.rows()[ri], &rextra))
                        .expect("layout fixed");
                }
            }
            _ => out.push_row(dangling_left(lrow, rextra.len())).expect("layout fixed"),
        }
    }
    for (ri, rrow) in right.rows().iter().enumerate() {
        if !matched_right[ri] {
            out.push_row(dangling_right(rrow, left.n_cols(), &lcols, &rcols, &rextra))
                .expect("layout fixed");
        }
    }
    Ok(out)
}

/// Cross product (×). The tables must share no columns; result columns are
/// left's then right's.
pub fn cross_product(left: &Table, right: &Table) -> Result<Table, OpError> {
    let common = left.schema().common_columns(right.schema());
    if !common.is_empty() {
        return Err(OpError::Table(gent_table::TableError::DuplicateColumn(common[0].to_string())));
    }
    let names: Vec<String> =
        left.schema().columns().chain(right.schema().columns()).map(str::to_string).collect();
    let schema = Schema::new(names.iter().map(|s| s.as_str()))?;
    let mut out = Table::new(format!("{}×{}", left.name(), right.name()), schema);
    for lrow in left.rows() {
        for rrow in right.rows() {
            let mut row = Vec::with_capacity(lrow.len() + rrow.len());
            row.extend_from_slice(lrow);
            row.extend_from_slice(rrow);
            out.push_row(row).expect("layout fixed");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

    fn left() -> Table {
        Table::build(
            "L",
            &["id", "name"],
            &[],
            vec![
                vec![V::Int(1), V::str("a")],
                vec![V::Int(2), V::str("b")],
                vec![V::Null, V::str("n")],
            ],
        )
        .unwrap()
    }

    fn right() -> Table {
        Table::build(
            "R",
            &["id", "score"],
            &[],
            vec![
                vec![V::Int(1), V::Int(10)],
                vec![V::Int(1), V::Int(11)],
                vec![V::Int(3), V::Int(30)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn inner_join_matches_and_skips_nulls() {
        let j = inner_join(&left(), &right()).unwrap();
        assert_eq!(j.n_rows(), 2); // id=1 matches twice; null id never joins
        assert_eq!(j.schema().columns().collect::<Vec<_>>(), vec!["id", "name", "score"]);
        let mut scores: Vec<&V> = j.rows().iter().map(|r| &r[2]).collect();
        scores.sort();
        assert_eq!(scores, vec![&V::Int(10), &V::Int(11)]);
    }

    #[test]
    fn no_common_columns_is_error() {
        let a = Table::build("a", &["x"], &[], vec![]).unwrap();
        let b = Table::build("b", &["y"], &[], vec![]).unwrap();
        assert!(matches!(inner_join(&a, &b), Err(OpError::NoCommonColumns { .. })));
    }

    #[test]
    fn left_join_keeps_dangling() {
        let j = left_join(&left(), &right()).unwrap();
        assert_eq!(j.n_rows(), 4); // 2 matches + dangling id=2 + dangling null-id
        let dangling: Vec<_> = j.rows().iter().filter(|r| r[2].is_null()).collect();
        assert_eq!(dangling.len(), 2);
    }

    #[test]
    fn full_outer_join_keeps_both_sides() {
        let j = full_outer_join(&left(), &right()).unwrap();
        assert_eq!(j.n_rows(), 5); // 2 matched + 2 left-dangling + 1 right-dangling
        let right_dangling: Vec<_> =
            j.rows().iter().filter(|r| r[1].is_null() && !r[0].is_null()).collect();
        assert_eq!(right_dangling.len(), 1);
        assert_eq!(right_dangling[0][0], V::Int(3));
        assert_eq!(right_dangling[0][2], V::Int(30));
    }

    #[test]
    fn cross_product_sizes() {
        let a = Table::build("a", &["x"], &[], vec![vec![V::Int(1)], vec![V::Int(2)]]).unwrap();
        let b = Table::build("b", &["y"], &[], vec![vec![V::str("u")]; 3]).unwrap();
        let c = cross_product(&a, &b).unwrap();
        assert_eq!(c.n_rows(), 6);
        assert_eq!(c.n_cols(), 2);
        assert!(cross_product(&a, &a).is_err());
    }

    #[test]
    fn indexed_inner_join_is_byte_identical() {
        let (l, r) = (left(), right());
        let rcols = join_layout(&l, &r).unwrap().rcols;
        let idx = JoinIndex::build(&r, &rcols);
        let plain = inner_join(&l, &r).unwrap();
        let indexed = inner_join_indexed(&l, &r, &idx).unwrap();
        assert_eq!(plain.name(), indexed.name());
        assert_eq!(
            plain.schema().columns().collect::<Vec<_>>(),
            indexed.schema().columns().collect::<Vec<_>>()
        );
        assert_eq!(plain.rows(), indexed.rows(), "row content and order must match");
        // The budget is on the output: exactly fitting joins, one less vetoes.
        let fits = inner_join_indexed_capped(&l, &r, &idx, plain.n_rows()).unwrap();
        assert_eq!(fits.as_ref().map(Table::rows), Some(plain.rows()));
        assert!(inner_join_indexed_capped(&l, &r, &idx, plain.n_rows() - 1).unwrap().is_none());
    }

    #[test]
    fn indexed_join_reuses_one_index_across_lefts() {
        // Two different left tables with the same join columns share one
        // index over the right side.
        let r = right();
        let l1 = left();
        let l2 = Table::build(
            "L2",
            &["id", "tag"],
            &[],
            vec![vec![V::Int(3), V::str("t")], vec![V::Int(9), V::str("u")]],
        )
        .unwrap();
        let rcols = join_layout(&l1, &r).unwrap().rcols;
        assert_eq!(rcols, join_layout(&l2, &r).unwrap().rcols);
        let idx = JoinIndex::build(&r, &rcols);
        for l in [&l1, &l2] {
            let plain = inner_join(l, &r).unwrap();
            let indexed = inner_join_indexed(l, &r, &idx).unwrap();
            assert_eq!(plain.rows(), indexed.rows());
        }
    }

    #[test]
    fn indexed_join_skips_null_keys_both_sides() {
        let l = left(); // has a null-id row
        let r = Table::build(
            "R",
            &["id", "score"],
            &[],
            vec![vec![V::Int(1), V::Int(10)], vec![V::Null, V::Int(99)]],
        )
        .unwrap();
        let rcols = join_layout(&l, &r).unwrap().rcols;
        let idx = JoinIndex::build(&r, &rcols);
        let j = inner_join_indexed(&l, &r, &idx).unwrap();
        assert_eq!(j.rows(), inner_join(&l, &r).unwrap().rows());
        assert_eq!(j.n_rows(), 1, "null keys never match on either side");
    }

    #[test]
    fn composite_join_keys() {
        let a = Table::build(
            "a",
            &["k1", "k2", "v"],
            &[],
            vec![vec![V::Int(1), V::Int(1), V::str("x")], vec![V::Int(1), V::Int(2), V::str("y")]],
        )
        .unwrap();
        let b = Table::build(
            "b",
            &["k1", "k2", "w"],
            &[],
            vec![vec![V::Int(1), V::Int(2), V::str("z")]],
        )
        .unwrap();
        let j = inner_join(&a, &b).unwrap();
        assert_eq!(j.n_rows(), 1);
        assert_eq!(j.row(0).unwrap()[2], V::str("y"));
        assert_eq!(j.row(0).unwrap()[3], V::str("z"));
    }
}
