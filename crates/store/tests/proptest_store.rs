//! Property tests for the binary codec and the snapshot container:
//! arbitrary tables survive `Table → bytes → Table` bit-exactly, and
//! arbitrary lakes reopen from snapshots with identical retrieval state.

use gent_discovery::DataLake;
use gent_store::snapshot;
use gent_table::binary::{
    decode_string_table, decode_table_columnar, encode_table_columnar, fold64, BinReader,
    BinWriter, StringTableBuilder,
};
use gent_table::{Table, Value};
use proptest::prelude::*;

/// Any cell value, including the nasty ones: labeled nulls, NaN, negative
/// zero, huge ints, quoted/unicode strings.
fn any_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        2 => Just(Value::Null),
        1 => (0u64..40).prop_map(Value::LabeledNull),
        1 => any::<bool>().prop_map(Value::Bool),
        3 => (-1_000_000i64..1_000_000).prop_map(Value::Int),
        1 => Just(Value::Int(i64::MIN)),
        2 => (-4096i64..4096).prop_map(|b| Value::Float(b as f64 / 8.0)),
        1 => Just(Value::Float(f64::NAN)),
        1 => Just(Value::Float(-0.0)),
        2 => "[a-zA-Z0-9 ,\"⊥é]{0,10}".prop_map(Value::str),
    ]
}

/// A table with 1–4 columns, 0–8 rows, and sometimes a key on column 0.
fn any_table() -> impl Strategy<Value = Table> {
    (1usize..=4, 0usize..=8, any::<bool>(), "[a-z][a-z0-9_-]{0,8}").prop_flat_map(
        |(ncols, nrows, keyed, name)| {
            proptest::collection::vec(proptest::collection::vec(any_cell(), ncols), nrows).prop_map(
                move |mut rows| {
                    let cols: Vec<String> = (0..ncols).map(|c| format!("c{c}")).collect();
                    // A key column must be non-null and unique to be honest;
                    // overwrite column 0 with row numbers when keyed.
                    if keyed {
                        for (i, row) in rows.iter_mut().enumerate() {
                            row[0] = Value::Int(i as i64);
                        }
                    }
                    let key: Vec<&str> = if keyed { vec!["c0"] } else { vec![] };
                    Table::build(&name, &cols, &key, rows).expect("arity consistent")
                },
            )
        },
    )
}

/// Bit-exact table comparison: `Table: PartialEq` would accept `3 == 3.0`
/// and NaN ≠ NaN confusion; the Debug rendering distinguishes
/// representations exactly.
fn repr(t: &Table) -> String {
    format!("{:?} {:?} {:?}", t.name(), t.schema(), t.rows())
}

/// `t` as snapshots and delta frames store it: the columnar frame and the
/// string table its string cells index.
fn encode(t: &Table) -> (Vec<u8>, Vec<u8>) {
    let mut strings = StringTableBuilder::new();
    let mut frame = BinWriter::new();
    encode_table_columnar(t, &mut frame, &mut strings);
    let mut strtab = BinWriter::new();
    strings.encode(&mut strtab);
    (frame.into_bytes(), strtab.into_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Satellite requirement: `Table` → bytes → `Table` is the identity.
    #[test]
    fn table_binary_round_trip(t in any_table()) {
        let (frame, strtab) = encode(&t);
        let strings = decode_string_table(&mut BinReader::new(&strtab))
            .map_err(|e| TestCaseError::fail(format!("string table decode failed: {e}")))?;
        let mut r = BinReader::new(&frame);
        let back = decode_table_columnar(&mut r, &strings)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(repr(&back), repr(&t));
    }

    /// Encoding is deterministic — same table, same bytes.
    #[test]
    fn table_encoding_is_stable(t in any_table()) {
        prop_assert_eq!(encode(&t), encode(&t));
    }

    /// Snapshots of arbitrary lakes reopen with the same tables and the
    /// same inverted index, posting for posting.
    #[test]
    fn snapshot_round_trip(tables in proptest::collection::vec(any_table(), 1..=5)) {
        let lake = DataLake::from_tables(tables);
        let path = std::env::temp_dir().join(format!(
            "gent-store-prop-{}-{:x}.gentlake",
            std::process::id(),
            fold64(repr(lake.get(0).unwrap()).as_bytes())
        ));
        snapshot::save(&path, &lake, None)
            .map_err(|e| TestCaseError::fail(format!("save failed: {e}")))?;
        let loaded = snapshot::load(&path)
            .map_err(|e| TestCaseError::fail(format!("load failed: {e}")))?;
        let _ = std::fs::remove_file(&path);

        prop_assert_eq!(loaded.lake.len(), lake.len());
        prop_assert_eq!(loaded.lake.index_len(), lake.index_len());
        for (i, t) in lake.tables_iter().enumerate() {
            prop_assert_eq!(repr(loaded.lake.get(i).unwrap()), repr(t));
        }
        for (v, postings) in lake.index_entries() {
            prop_assert_eq!(loaded.lake.postings(&v), postings, "postings({:?})", v);
        }
    }
}
