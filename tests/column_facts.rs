//! The per-column cell hashes on `Table`'s shared row storage, seen from the
//! pipeline: a lake table is hashed once per lake generation — the second
//! reclaim against the same `DataLake` finds every lake column's facts
//! where the first left them and computes them only for tables built inside
//! the request — a rebuilt lake starts over, and two requests racing to
//! fill the same column both get the serial answer.

use gen_t::core::{GenT, GenTConfig, ReclamationResult};
use gen_t::datagen::suite::{build, BenchmarkId, SuiteConfig};
use gen_t::discovery::DataLake;
use gen_t::table::{csv, Table};
use std::sync::{Barrier, Mutex, MutexGuard};

/// The `gent_expand_columns_*` counters are process-wide: the tests of this
/// file take turns.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A small TP-TR lake and the sources reclaimed from it here (a prefix of
/// the 26, every query class in it expands keyless candidates).
fn bench() -> (Vec<Table>, Vec<Table>) {
    let suite = SuiteConfig { units: (20, 40, 60), ..Default::default() };
    let bench = build(BenchmarkId::TpTrSmall, &suite);
    let sources = bench.cases.iter().take(8).map(|c| c.source.clone()).collect();
    (bench.lake_tables, sources)
}

/// A deep copy: no row storage, and so no column fact, shared with `t`.
fn copied(t: &Table) -> Table {
    Table::from_rows(t.name(), t.schema().clone(), t.rows().to_vec()).expect("same shape")
}

/// A lake over deep copies of `tables` — a new generation.
fn rebuilt(tables: &[Table]) -> DataLake {
    DataLake::from_tables(tables.iter().map(copied).collect())
}

/// Everything a reclaim returns, as bytes.
fn answer(r: &ReclamationResult) -> Vec<u8> {
    let mut out = r.eis.to_bits().to_le_bytes().to_vec();
    for t in std::iter::once(&r.reclaimed).chain(&r.originating) {
        out.extend_from_slice(t.name().as_bytes());
        csv::write_csv(t, &mut out).expect("csv render");
    }
    out
}

/// Reclaim every source from `lake` — each from a copy, as a daemon parses
/// its source anew per request: only the lake carries facts across.
fn pass(lake: &DataLake, sources: &[Table]) -> Vec<Vec<u8>> {
    let gen_t = GenT::new(GenTConfig::default());
    sources.iter().map(|s| answer(&gen_t.reclaim(&copied(s), lake).expect("reclaims"))).collect()
}

/// `(hashed, reused)` as the metrics registry has them now.
fn counters() -> (u64, u64) {
    let reg = gent_obs::registry();
    let read = |name| reg.counter(name, "", &[]).get();
    (read("gent_expand_columns_hashed_total"), read("gent_expand_columns_reused_total"))
}

/// `(hashed, reused)` added by `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = counters();
    let out = f();
    let after = counters();
    (out, (after.0 - before.0, after.1 - before.1))
}

/// Where every lake column's cell hashes live. Asking computes the columns
/// no request has touched, so from here on all of them exist.
fn fact_addresses(lake: &DataLake) -> Vec<*const u64> {
    let columns = |i| {
        let t = lake.table(i);
        (0..t.n_cols()).map(move |j| t.column_hashes(j).as_ptr())
    };
    (0..lake.len()).flat_map(columns).collect()
}

#[test]
fn a_lake_column_is_hashed_once_per_generation() {
    let _turn = serial();
    let (tables, sources) = bench();
    let lake = rebuilt(&tables);

    let (first, (hashed_cold, _)) = counted(|| pass(&lake, &sources));
    let (second, (hashed_warm, reused_warm)) = counted(|| pass(&lake, &sources));
    assert_eq!(first, second, "the second pass must return the first's bytes");
    // The first pass hashed lake columns and the tables it built itself;
    // the second only the latter, and found the lake's.
    assert!(hashed_warm < hashed_cold, "{hashed_warm} !< {hashed_cold}");
    assert!(reused_warm > 0);

    // No request recomputes a lake column: the slices stay where they are,
    // and a third pass — every lake column now hashed, asked for or not —
    // hashes exactly what the second did.
    let addresses = fact_addresses(&lake);
    let (third, (hashed_third, reused_third)) = counted(|| pass(&lake, &sources));
    assert_eq!(third, first);
    assert_eq!((hashed_third, reused_third), (hashed_warm, reused_warm));
    assert_eq!(fact_addresses(&lake), addresses, "a lake column was rehashed");

    // A rebuilt lake is a new generation: it pays the first pass again.
    let (again, (hashed_rebuilt, _)) = counted(|| pass(&rebuilt(&tables), &sources));
    assert_eq!(again, first);
    assert_eq!(hashed_rebuilt, hashed_cold);
}

#[test]
fn racing_requests_fill_the_same_columns_and_agree() {
    let _turn = serial();
    let (tables, sources) = bench();
    let expected = pass(&rebuilt(&tables), &sources[..3]);
    for (source, expected) in sources.iter().zip(&expected) {
        // A cold lake per source, so both threads find every column unhashed.
        let lake = rebuilt(&tables);
        let start = Barrier::new(2);
        let reclaim = || {
            start.wait();
            let source = copied(source);
            answer(&GenT::new(GenTConfig::default()).reclaim(&source, &lake).expect("reclaims"))
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(reclaim);
            (reclaim(), other.join().expect("no panic"))
        });
        assert_eq!(&a, expected, "{}", source.name());
        assert_eq!(&b, expected, "{}", source.name());
    }
}
