//! Property tests on the table substrate: value semantics, CSV persistence,
//! normalisation, and key discovery.

use gent_table::key::{discover_key, ensure_key};
use gent_table::{
    cell_hash, cell_hash_is_null_like, csv, fold_cell_hash, NormalizeConfig, Table, Value,
    NULL_CELL_HASH,
};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Any value, including the messy cross-type cases.
fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        1 => (0u64..50).prop_map(Value::LabeledNull),
        1 => any::<bool>().prop_map(Value::Bool),
        3 => (-100i64..100).prop_map(Value::Int),
        3 => (-100i64..100).prop_map(|i| Value::Float(i as f64 / 4.0)),
        3 => "[a-zA-Z0-9 ,\"]{0,12}".prop_map(Value::str),
    ]
}

/// A CSV-safe cell: the kind of value CSV persistence is specified over
/// (labeled nulls are documented not to round-trip).
fn csv_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        2 => any::<bool>().prop_map(Value::Bool),
        3 => (-1000i64..1000).prop_map(Value::Int),
        3 => (-1000i64..1000).prop_map(|i| Value::Float(i as f64 / 8.0)),
        3 => "[a-zA-Z][a-zA-Z0-9 ,\"_-]{0,10}".prop_map(Value::str),
    ]
}

fn small_table() -> impl Strategy<Value = Table> {
    (1usize..5).prop_flat_map(|ncols| {
        proptest::collection::vec(proptest::collection::vec(csv_value(), ncols), 0..8).prop_map(
            move |rows| {
                let cols: Vec<String> = (0..ncols).map(|i| format!("c{i}")).collect();
                Table::build("t", &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(), &[], rows)
                    .unwrap()
            },
        )
    })
}

/// A column's facts recomputed from its cells, sharing nothing with the
/// table: `(cell hashes, sorted distinct non-null-like hashes)`.
fn recomputed_facts(t: &Table, j: usize) -> (Vec<u64>, Vec<u64>) {
    let hashes: Vec<u64> = t.column(j).map(cell_hash).collect();
    let mut distinct: Vec<u64> = t.column(j).filter(|v| !v.is_null_like()).map(cell_hash).collect();
    distinct.sort_unstable();
    distinct.dedup();
    (hashes, distinct)
}

/// Where each column's two fact slices live — equal addresses mean the
/// facts were shared, not recomputed.
fn fact_addresses(t: &Table) -> Vec<(*const u64, *const u64)> {
    (0..t.n_cols())
        .map(|j| (t.column_hashes(j).as_ptr(), t.column_distinct_hashes(j).as_ptr()))
        .collect()
}

/// Every fact of `t` equals a from-scratch recompute; `key_hashes` is the
/// fold of the cell hashes under both null rules; and a table built from
/// the same rows, with no fact computed, is `==` to `t`.
fn check_facts(t: &Table) -> Result<(), TestCaseError> {
    for j in 0..t.n_cols() {
        let (hashes, distinct) = recomputed_facts(t, j);
        prop_assert_eq!(t.column_hashes(j), hashes.as_slice(), "cell hashes of column {}", j);
        prop_assert_eq!(t.column_distinct_hashes(j), distinct.as_slice(), "distinct of {}", j);
    }
    let cols: Vec<usize> = (0..t.n_cols()).rev().collect();
    for skip_null_like in [false, true] {
        let expected: Vec<Option<u64>> = t
            .rows()
            .iter()
            .map(|r| {
                cols.iter().try_fold(0u64, |acc, &c| {
                    let skip = if skip_null_like { r[c].is_null_like() } else { r[c].is_null() };
                    (!skip).then(|| fold_cell_hash(acc, cell_hash(&r[c])))
                })
            })
            .collect();
        prop_assert_eq!(t.key_hashes(&cols, skip_null_like), expected);
    }
    let bare = Table::from_rows(t.name(), t.schema().clone(), t.rows().to_vec()).unwrap();
    prop_assert_eq!(&bare, t, "== must ignore the facts");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Column facts stay true under every way two handles can diverge:
    /// random `clone` / column rename / `set_name` / key override /
    /// `push_row` / `retain_rows` / `dedup_rows` over a pair of handles.
    /// After every step both handles' facts equal a recompute; schema-only
    /// edits keep the row storage *and* the very fact slices (shared, not
    /// recomputed); a row mutation leaves the other handle's rows and
    /// facts alone.
    #[test]
    fn column_facts_follow_the_rows(
        rows in proptest::collection::vec(proptest::collection::vec(any_value(), 3), 0..6),
        pool in proptest::collection::vec(any_value(), 6),
        ops in proptest::collection::vec((0u8..7, any::<u8>()), 1..24),
    ) {
        let first = Table::build("t", &["a", "b", "c"], &[], rows).unwrap();
        let mut handles = [first.clone(), first];
        check_facts(&handles[0])?;
        for (step, (op, arg)) in ops.into_iter().enumerate() {
            let (which, arg) = ((arg & 1) as usize, (arg >> 1) as usize);
            let other = 1 - which;
            let shared = handles[0].shares_rows_with(&handles[1]);
            let rows_before = [handles[0].rows().to_vec(), handles[1].rows().to_vec()];
            let facts_before = [fact_addresses(&handles[0]), fact_addresses(&handles[1])];
            match op {
                0 => handles[which] = handles[other].clone(),
                1 => {
                    let fresh = format!("renamed{step}");
                    handles[which].schema_mut().rename(arg % 3, &fresh).unwrap();
                }
                2 => handles[which].set_name(format!("name{step}")),
                3 => {
                    let name = handles[which].schema().column_name(arg % 3).unwrap().to_string();
                    handles[which].schema_mut().set_key([name.as_str()]).unwrap();
                }
                4 => {
                    let row = (0..3).map(|k| pool[(arg + k) % pool.len()].clone()).collect();
                    handles[which].push_row(row).unwrap();
                }
                5 => handles[which].retain_rows(|r| cell_hash(&r[arg % 3]) % 3 == 1),
                _ => handles[which].dedup_rows(),
            }
            check_facts(&handles[0])?;
            check_facts(&handles[1])?;
            match op {
                0 => {
                    prop_assert!(handles[0].shares_rows_with(&handles[1]));
                    prop_assert_eq!(fact_addresses(&handles[which]), facts_before[other].clone());
                }
                1..=3 => {
                    prop_assert_eq!(handles[0].shares_rows_with(&handles[1]), shared);
                    prop_assert_eq!(fact_addresses(&handles[which]), facts_before[which].clone());
                }
                _ => {
                    prop_assert!(!handles[0].shares_rows_with(&handles[1]));
                }
            }
            // Whatever happened to one handle, the other kept its rows and
            // the facts it already had.
            prop_assert_eq!(handles[other].rows(), rows_before[other].as_slice());
            prop_assert_eq!(fact_addresses(&handles[other]), facts_before[other].clone());
        }
    }

    /// A cell hash says what kind of cell it came from, and agrees with
    /// `==` (so `Int(1)` and `Float(1.0)` share one).
    #[test]
    fn cell_hashes_are_tagged_and_agree_with_eq(a in any_value(), b in any_value()) {
        prop_assert_eq!(cell_hash(&a) == NULL_CELL_HASH, a.is_null());
        prop_assert_eq!(cell_hash_is_null_like(cell_hash(&a)), a.is_null_like());
        if a == b {
            prop_assert_eq!(cell_hash(&a), cell_hash(&b));
        }
    }

    /// Eq and Hash are consistent — the HashMap/HashSet contract, which the
    /// inverted index and minhash rely on (especially across Int/Float).
    #[test]
    fn eq_implies_same_hash(a in any_value(), b in any_value()) {
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    /// The ordering is total and consistent with equality.
    #[test]
    fn ordering_is_total_and_consistent(a in any_value(), b in any_value(), c in any_value()) {
        // Antisymmetry + consistency.
        match a.cmp(&b) {
            Ordering::Equal => prop_assert_eq!(&a, &b),
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
        }
        // Transitivity.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
    }

    /// CSV persistence is a fixpoint after one round trip: parsing
    /// normalises types once, then write→read→write is stable.
    #[test]
    fn csv_roundtrip_fixpoint(t in small_table()) {
        let mut first = Vec::new();
        csv::write_csv(&t, &mut first).unwrap();
        let back = csv::read_csv("t", first.as_slice()).unwrap();
        let mut second = Vec::new();
        csv::write_csv(&back, &mut second).unwrap();
        let back2 = csv::read_csv("t", second.as_slice()).unwrap();
        prop_assert_eq!(back.rows(), back2.rows());
        prop_assert_eq!(back.n_cols(), t.n_cols());
        prop_assert_eq!(back.n_rows(), t.n_rows());
    }

    /// Normalisation is idempotent for every shipped configuration.
    #[test]
    fn normalization_is_idempotent(v in any_value()) {
        for cfg in [NormalizeConfig::default(), NormalizeConfig::aggressive(), NormalizeConfig::off()] {
            let once = cfg.value(&v);
            let twice = cfg.value(&once);
            prop_assert_eq!(&once, &twice, "config {:?}", cfg);
        }
    }

    /// A discovered key really is a key: installing it validates.
    #[test]
    fn discovered_keys_are_valid(t in small_table()) {
        if let Some(cols) = discover_key(&t, 3) {
            let names: Vec<String> = cols
                .iter()
                .map(|&c| t.schema().column_name(c).unwrap().to_string())
                .collect();
            let mut keyed = t.clone();
            keyed.schema_mut().set_key(names.iter().map(|s| s.as_str())).unwrap();
            prop_assert!(keyed.key_is_valid());
        }
        // ensure_key agrees with discover_key on feasibility.
        let mut u = t.clone();
        prop_assert_eq!(ensure_key(&mut u), discover_key(&t, 3).is_some() || (t.schema().has_key() && t.key_is_valid()));
    }

    /// dedup_rows removes exactly the duplicate multiplicity.
    #[test]
    fn dedup_leaves_distinct_rows(t in small_table()) {
        let mut d = t.clone();
        d.dedup_rows();
        let distinct: std::collections::HashSet<Vec<Value>> =
            t.rows().iter().cloned().collect();
        prop_assert_eq!(d.n_rows(), distinct.len());
        for row in d.rows() {
            prop_assert!(distinct.contains(row));
        }
    }

    /// take_columns projects without touching row count, and errors on
    /// out-of-range indices.
    #[test]
    fn take_columns_shapes(t in small_table()) {
        let all: Vec<usize> = (0..t.n_cols()).collect();
        let p = t.take_columns(&all, "p").unwrap();
        prop_assert_eq!(p.n_rows(), t.n_rows());
        prop_assert_eq!(p.n_cols(), t.n_cols());
        prop_assert!(t.take_columns(&[t.n_cols() + 1], "bad").is_err());
    }
}

#[test]
fn empty_csv_is_an_error() {
    assert!(csv::read_csv("t", "".as_bytes()).is_err());
}

#[test]
fn ragged_csv_is_an_error() {
    let data = "a,b\n1,2\n3\n";
    assert!(csv::read_csv("t", data.as_bytes()).is_err());
}

#[test]
fn quoted_fields_round_trip() {
    let t = Table::build(
        "q",
        &["text"],
        &[],
        vec![vec![Value::str("hello, world")], vec![Value::str("she said \"hi\"")]],
    )
    .unwrap();
    let mut buf = Vec::new();
    csv::write_csv(&t, &mut buf).unwrap();
    let back = csv::read_csv("q", buf.as_slice()).unwrap();
    assert_eq!(back.rows(), t.rows());
}
