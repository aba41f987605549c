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
/// plain null (null keys never match). It is a fold of the columns' cell
/// hashes ([`Table::key_hashes`]) — the fold [`JoinIndex::build`] groups the
/// right side by — so nothing is hashed here that the table's row storage
/// already holds, and a left table joined against many right tables over the
/// same column set (Expand's path engine) folds its rows once.
pub fn left_key_hashes(left: &Table, lcols: &[usize]) -> Vec<Option<u64>> {
    left.key_hashes(lcols, false)
}

/// A reusable row index over one join's right side: the right table's row
/// numbers, rows with equal join keys adjacent.
///
/// [`inner_join`] regroups the right side on every call — `O(rows · key
/// width)` hashing that Expand's path folds used to pay again for **every**
/// path sharing a right table. Building the index once and passing it to
/// [`inner_join_indexed`] amortises the grouping across all joins against
/// the same `(right table, join columns)` pair.
///
/// The index stores only hashes and row numbers (no cloned values): a
/// lookup re-verifies the key against the right table's rows, so it must be
/// probed with the same table it was built from.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    /// The right-side join columns this index groups by.
    rcols: Vec<usize>,
    /// The rows with a non-null join key, sorted by (key hash, row) and
    /// then split so that every *group* — rows with equal keys — is one
    /// ascending run.
    rows: Vec<u32>,
    /// Key hash → the first group with that hash, as a range of `rows`.
    groups: FxHashMap<u64, (u32, u32)>,
    /// Further groups whose keys collide with an earlier group's hash, as
    /// `(hash, start, end)` in hash order. Empty unless FxHash collides.
    collisions: Vec<(u64, u32, u32)>,
}

impl JoinIndex {
    /// Group `right`'s rows by the values of `rcols` (rows with a null join
    /// key are excluded — null keys never match). `rcols` must be the
    /// [`JoinLayout::rcols`] of the join this index will serve.
    pub fn build(right: &Table, rcols: &[usize]) -> JoinIndex {
        Self::from_hashes(right, rcols, &right.key_hashes(rcols, false))
    }

    /// [`JoinIndex::build`] from the per-row key hashes (`None` = null
    /// key). Rows are sorted by hash, and each run of one hash is checked
    /// against its first row: a run of equal keys — every run, short of a
    /// hash collision — is one group as it stands, and a run that mixes
    /// keys is split into one group per key, so a lookup never returns a
    /// row that only shares the hash.
    fn from_hashes(right: &Table, rcols: &[usize], hashes: &[Option<u64>]) -> JoinIndex {
        assert!(right.n_rows() <= u32::MAX as usize, "row index past u32");
        let same_key = |a: u32, b: u32| {
            let (a, b) = (&right.rows()[a as usize], &right.rows()[b as usize]);
            rcols.iter().all(|&c| a[c] == b[c])
        };
        let mut keyed: Vec<(u64, u32)> =
            hashes.iter().enumerate().filter_map(|(i, h)| h.map(|h| (h, i as u32))).collect();
        keyed.sort_unstable();
        let mut rows: Vec<u32> = Vec::with_capacity(keyed.len());
        let mut groups: FxHashMap<u64, (u32, u32)> = FxHashMap::default();
        let mut collisions: Vec<(u64, u32, u32)> = Vec::new();
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            let (hash, lead) = run[0];
            let mut pending: Vec<u32> = Vec::new();
            let start = rows.len() as u32;
            for &(_, r) in run {
                if r == lead || same_key(lead, r) {
                    rows.push(r);
                } else {
                    pending.push(r);
                }
            }
            groups.insert(hash, (start, rows.len() as u32));
            // A hash collision: peel one more group per pass off what is
            // left, each led by its lowest row.
            while let Some(&lead) = pending.first() {
                let start = rows.len() as u32;
                pending.retain(|&r| {
                    let same = r == lead || same_key(lead, r);
                    if same {
                        rows.push(r);
                    }
                    !same
                });
                collisions.push((hash, start, rows.len() as u32));
            }
        }
        JoinIndex { rcols: rcols.to_vec(), rows, groups, collisions }
    }

    /// The right rows whose join key equals left row `lrow`'s `lcols` cells
    /// (ascending), or `None`. `hash` must be that key's entry of
    /// [`left_key_hashes`].
    fn matches(&self, right: &Table, hash: u64, lrow: &[Value], lcols: &[usize]) -> Option<&[u32]> {
        let is_match = |&(start, _): &(u32, u32)| {
            let probe = &right.rows()[self.rows[start as usize] as usize];
            self.rcols.iter().zip(lcols).all(|(&rc, &lc)| probe[rc] == lrow[lc])
        };
        let first = self.groups.get(&hash)?;
        let (start, end) = if is_match(first) {
            *first
        } else {
            let from = self.collisions.partition_point(|c| c.0 < hash);
            self.collisions[from..]
                .iter()
                .take_while(|c| c.0 == hash)
                .map(|c| (c.1, c.2))
                .find(|g| is_match(g))?
        };
        Some(&self.rows[start as usize..end as usize])
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
    assert!(left.n_rows() <= u32::MAX as usize, "row index past u32");
    let mut pairs = Vec::new();
    for (li, lrow) in left.rows().iter().enumerate() {
        let Some(hash) = hashes[li] else {
            continue; // null join key — never matches
        };
        if let Some(matches) = index.matches(right, hash, lrow, lcols) {
            if pairs.len() + matches.len() > max_pairs {
                return None;
            }
            pairs.extend(matches.iter().map(|&ri| (li as u32, ri)));
        }
    }
    Some(pairs)
}

/// [`inner_join`] against a prebuilt [`JoinIndex`] over `right` — the
/// result is byte-identical (same schema, same row order, same name);
/// only the right-side hashing is amortised. The index must have been
/// built from this `right` over this join's [`JoinLayout::rcols`]. The
/// join is probed as index pairs and its rows built from them; a caller
/// that may not want the rows (an output budget, a view) stops at
/// [`inner_join_pairs`].
pub fn inner_join_indexed(
    left: &Table,
    right: &Table,
    index: &JoinIndex,
) -> Result<Table, OpError> {
    let layout = join_layout(left, right)?;
    debug_assert_eq!(layout.rcols, index.rcols, "index built for a different join");
    let hashes = left_key_hashes(left, &layout.lcols);
    let pairs = inner_join_pairs(left, right, &layout.lcols, index, &hashes, usize::MAX);
    Ok(layout.table(left, right, &pairs.expect("no cap")))
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
        let layout = join_layout(&l, &r).unwrap();
        let hashes = left_key_hashes(&l, &layout.lcols);
        let pairs = |cap| inner_join_pairs(&l, &r, &layout.lcols, &idx, &hashes, cap);
        let fits = pairs(plain.n_rows()).map(|pairs| layout.table(&l, &r, &pairs));
        assert_eq!(fits.as_ref().map(Table::rows), Some(plain.rows()));
        assert!(pairs(plain.n_rows() - 1).is_none());
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

    mod index_prop {
        //! [`JoinIndex`] ≡ [`inner_join`] — rows, order, name — over
        //! generated tables with cross-type equal keys (`Int(1)` /
        //! `Float(1.0)`), plain and labeled nulls, duplicate and
        //! multi-column keys and empty sides; and again with the key hashes
        //! of both sides squeezed into a few values, so the runs that mix
        //! keys — which real hashes all but never produce — are split on
        //! every case.

        use super::super::*;
        use proptest::prelude::*;

        /// A join-key cell from a small domain, so keys repeat and meet.
        fn key_cell() -> impl Strategy<Value = Value> {
            prop_oneof![
                1 => Just(Value::Null),
                1 => (0u64..2).prop_map(Value::LabeledNull),
                3 => (0i64..3).prop_map(Value::Int),
                2 => (0i64..3).prop_map(|i| Value::Float(i as f64)),
                1 => Just(Value::Float(0.5)),
                2 => "[ab]{1}".prop_map(Value::str),
            ]
        }

        /// `name(k1, [k2,] extra)` with 0–7 rows; `wide` adds `k2`.
        fn side(
            name: &'static str,
            extra: &'static str,
            wide: bool,
        ) -> impl Strategy<Value = Table> {
            let n_keys = 1 + usize::from(wide);
            proptest::collection::vec(proptest::collection::vec(key_cell(), n_keys), 0..8).prop_map(
                move |keys| {
                    let mut cols = vec!["k1"];
                    cols.extend(wide.then_some("k2"));
                    cols.push(extra);
                    let rows = keys
                        .into_iter()
                        .enumerate()
                        .map(|(i, mut r)| {
                            r.push(Value::Int(i as i64));
                            r
                        })
                        .collect();
                    Table::build(name, &cols, &[], rows).unwrap()
                },
            )
        }

        /// `(name, columns, rows)`, in order.
        fn exact(t: &Table) -> (String, Vec<String>, Vec<Vec<Value>>) {
            let columns = t.schema().columns().map(str::to_string).collect();
            (t.name().to_string(), columns, t.rows().to_vec())
        }

        fn check(l: &Table, r: &Table) -> Result<(), TestCaseError> {
            let oracle = inner_join(l, r).unwrap();
            let layout = join_layout(l, r).unwrap();
            let index = JoinIndex::build(r, &layout.rcols);
            prop_assert!(index.collisions.is_empty(), "FxHash collided on a toy domain");
            prop_assert_eq!(exact(&inner_join_indexed(l, r, &index).unwrap()), exact(&oracle));

            // The same join with at most three distinct key hashes a side.
            let squeeze = |hashes: Vec<Option<u64>>| -> Vec<Option<u64>> {
                hashes.into_iter().map(|h| h.map(|h| h % 3)).collect()
            };
            let rhashes = squeeze(left_key_hashes(r, &layout.rcols));
            let colliding = JoinIndex::from_hashes(r, &layout.rcols, &rhashes);
            let lhashes = squeeze(left_key_hashes(l, &layout.lcols));
            let pairs = |cap| inner_join_pairs(l, r, &layout.lcols, &colliding, &lhashes, cap);
            let all = pairs(usize::MAX).expect("no cap");
            prop_assert_eq!(exact(&layout.table(l, r, &all)), exact(&oracle));
            let distinct_keys: std::collections::HashSet<Vec<&Value>> = r
                .rows()
                .iter()
                .filter(|row| layout.rcols.iter().all(|&c| !row[c].is_null()))
                .map(|row| layout.rcols.iter().map(|&c| &row[c]).collect())
                .collect();
            prop_assert_eq!(
                colliding.groups.len() + colliding.collisions.len(),
                distinct_keys.len()
            );

            // The budget is on the output, whatever the index looks like.
            prop_assert_eq!(pairs(all.len()), Some(all.clone()));
            if let Some(short) = all.len().checked_sub(1) {
                prop_assert!(pairs(short).is_none());
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn index_joins_like_inner_join(l in side("L", "v", false), r in side("R", "w", false)) {
                check(&l, &r)?;
            }

            #[test]
            fn index_joins_like_inner_join_on_two_columns(
                l in side("L", "v", true),
                r in side("R", "w", true),
            ) {
                check(&l, &r)?;
            }
        }

        /// The squeezed hashes do what they are there for: runs that mix
        /// keys, split into more groups than there are hashes.
        #[test]
        fn squeezed_hashes_reach_the_split_path() {
            let rows = (0..12).map(|i| vec![Value::Int(i % 6), Value::Int(i)]).collect();
            let r = Table::build("R", &["k1", "w"], &[], rows).unwrap();
            let hashes: Vec<Option<u64>> = (0..12).map(|i| Some(i % 2)).collect();
            let index = JoinIndex::from_hashes(&r, &[0], &hashes);
            assert_eq!((index.groups.len(), index.collisions.len()), (2, 4));
            for k in 0..6u32 {
                let lrow = [Value::Float(k as f64)];
                let found = index.matches(&r, u64::from(k % 2), &lrow, &[0]);
                assert_eq!(found, Some(&[k, k + 6][..]), "key {k}");
            }
            assert_eq!(index.matches(&r, 0, &[Value::Int(7)], &[0]), None);
        }
    }
}
