//! Fidelity suite for the zero-copy snapshot open: across a datagen
//! benchmark, reclaiming every case must produce **byte-identical** CSV and
//! bit-identical EIS through every lake provenance the snapshot-backed
//! index serves —
//!
//! * **cold**      — built in memory from the suite tables (no snapshot),
//! * **lazy**      — snapshot, tables decoded on first touch (the default),
//! * **eager**     — the same snapshot after `decode_all` (old behavior),
//! * **degraded**  — the same snapshot through `load_degraded`, which
//!   hands the index over already thawed,
//! * **framed**    — a base of the first half of the tables with the rest
//!   appended as delta frames, so half the postings come from the overlay
//!   (opened strict and degraded),
//! * **compacted** — the framed file after `compact` folded the frames —
//!
//! and the lazy lake must actually *be* lazy: no table decoded and no
//! index thawed at open, only the touched subset decoded after the full
//! case sweep.

use gen_t::core::{GenT, GenTConfig};
use gen_t::datagen::suite::{build, BenchmarkId, SuiteConfig};
use gen_t::discovery::DataLake;
use gen_t::store::snapshot;
use gen_t::table::{csv, Table};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gent-lazy-open-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// A table's CSV rendering, for byte-level comparison.
fn csv_bytes(t: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    csv::write_csv(t, &mut out).expect("csv render");
    out
}

#[test]
fn lazy_eager_v1_and_cold_reclaims_are_byte_identical() {
    let suite = SuiteConfig { units: (20, 40, 60), ..Default::default() };
    let bench = build(BenchmarkId::TpTrSmall, &suite);
    // One table guaranteed to share no value with any source: it can never
    // gain a containment hit, so no reclaim may ever rank (or decode) it.
    let disjoint = Table::build(
        "never_touched",
        &["off_vocab"],
        &[],
        (0..50).map(|i| vec![gen_t::table::Value::Int(10_000_000 + i)]).collect(),
    )
    .expect("disjoint table");
    let mut lake_tables = bench.lake_tables.clone();
    lake_tables.push(disjoint);
    let cold = DataLake::from_tables(lake_tables.clone());

    let path = scratch("fidelity.gentlake");
    snapshot::write(&path, &cold).expect("save");
    let lazy = snapshot::load(&path).expect("lazy open").lake;
    let eager = snapshot::load(&path).expect("eager open").lake;
    eager.decode_all(2).expect("decode_all");
    let degraded = snapshot::load_degraded(&path).expect("degraded open");
    assert!(degraded.quarantined.is_empty(), "nothing to quarantine in a clean file");

    // The same tables in the same order, the second half arriving as three
    // delta frames; then the file those frames were compacted out of.
    let framed_path = scratch("fidelity-framed.gentlake");
    let (base, rest) = lake_tables.split_at(lake_tables.len() / 2);
    snapshot::write(&framed_path, &DataLake::from_tables(base.to_vec())).expect("save base");
    for frame in rest.chunks(rest.len().div_ceil(3)) {
        gen_t::store::append_tables(&framed_path, frame).expect("append frame");
    }
    let framed = snapshot::load(&framed_path).expect("framed open");
    assert_eq!(framed.n_frames, 3);
    let framed_degraded = snapshot::load_degraded(&framed_path).expect("framed degraded open");
    assert!(framed_degraded.quarantined.is_empty());
    let compacted_path = scratch("fidelity-compacted.gentlake");
    std::fs::copy(&framed_path, &compacted_path).expect("copy framed file");
    assert_eq!(gen_t::store::compact(&compacted_path).expect("compact"), 3);
    let compacted = snapshot::load(&compacted_path).expect("compacted open");
    assert_eq!(compacted.n_frames, 0);

    assert_eq!(lazy.tables_decoded(), 0, "a strict open must decode nothing");
    assert!(!lazy.index_ready(), "a strict open must not materialize the index");
    assert!(!framed.lake.index_ready(), "frames do not change that");
    assert!(degraded.lake.index_ready(), "a degraded open hands the index over thawed");
    assert_eq!(eager.tables_decoded(), eager.len(), "decode_all materializes everything");

    let lakes = [
        ("lazy", &lazy),
        ("eager", &eager),
        ("degraded", &degraded.lake),
        ("framed", &framed.lake),
        ("framed degraded", &framed_degraded.lake),
        ("compacted", &compacted.lake),
    ];
    let gen_t = GenT::new(GenTConfig::default());
    let mut compared = 0usize;
    for case in &bench.cases {
        if !case.source.schema().has_key() {
            continue;
        }
        let baseline = gen_t.reclaim(&case.source, &cold).expect("cold reclaim");
        for (label, lake) in lakes {
            let got = gen_t.reclaim(&case.source, lake).expect("reclaim");
            assert!(lake.index_ready(), "the first reclaim forces (and verifies) the index");
            assert_eq!(
                csv_bytes(&got.reclaimed),
                csv_bytes(&baseline.reclaimed),
                "case {}: {label} reclaimed CSV diverges from cold",
                case.id
            );
            assert_eq!(
                got.eis.to_bits(),
                baseline.eis.to_bits(),
                "case {}: {label} EIS diverges from cold",
                case.id
            );
            let names = |r: &gen_t::core::ReclamationResult| -> Vec<String> {
                r.originating.iter().map(|t| t.name().to_string()).collect()
            };
            assert_eq!(
                names(&got),
                names(&baseline),
                "case {}: {label} originating tables diverge",
                case.id
            );
        }
        compared += 1;
    }
    assert!(compared >= 8, "only {compared} keyed cases — suite too small to be meaningful");

    // Laziness held across the whole sweep: the pipeline forces only the
    // tables it ranks, so the value-disjoint table survives a full
    // benchmark's worth of reclaims undecoded. (The check goes through slot
    // metadata — `get_by_name` would itself force the decode.)
    let touched = lazy.tables_decoded();
    assert!(touched > 0, "reclaims must have materialized their candidates");
    let slot =
        lazy.slots().iter().find(|s| s.name() == "never_touched").expect("disjoint table present");
    assert!(
        !slot.is_decoded(),
        "a table sharing no value with any source must never be decoded \
         ({touched}/{} decoded overall)",
        lazy.len()
    );
}
