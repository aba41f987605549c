//! Persistent data lakes: build once, reclaim forever.
//!
//! The Gen-T pipeline assumes a long-lived lake queried by many source
//! tables, but an in-memory [`DataLake`] pays the full indexing cost on
//! every process start. `gent-store` fixes that: build once with
//! `DataLake::from_tables`, snapshot the lake *with* its inverted index, and every
//! later run reopens it at memory-copy speed.
//!
//! ```text
//! cargo run --release --example persistent_lake
//! ```

use std::time::Instant;

use gen_t::datagen::suite::{build, BenchmarkId, SuiteConfig};
use gen_t::prelude::*;
use gen_t::store::snapshot;

fn main() {
    // A TPC-H-style benchmark lake (32 tables) plus its reclamation tasks.
    let bench = build(BenchmarkId::TpTrSmall, &SuiteConfig::default());
    let snap = std::env::temp_dir().join("persistent_lake_demo.gentlake");

    // ── Build once, then snapshot. ─────────────────────────────────────
    let t0 = Instant::now();
    let lake = DataLake::from_tables(bench.lake_tables.clone());
    snapshot::write(&snap, &lake).expect("save snapshot");
    let build_time = t0.elapsed();

    let stat = snapshot::stat(&snap).expect("stat");
    println!(
        "built + saved: {} tables, {} rows, {} indexed values ({} bytes) in {:?}",
        stat.header.n_tables,
        stat.header.total_rows,
        stat.header.n_index_entries,
        stat.file_bytes,
        build_time,
    );

    // ── Every later run: reopen warm. ───────────────────────────────────
    let t1 = Instant::now();
    let warm = snapshot::load(&snap).expect("open snapshot");
    let open_time = t1.elapsed();
    println!(
        "reopened in {open_time:?} ({:.1}× faster than the build)",
        build_time.as_secs_f64() / open_time.as_secs_f64().max(1e-9),
    );

    // The reopened lake is retrieval-identical: reclaim a source against it.
    let gen_t = GenT::new(gen_t::core::GenTConfig::default());
    let case = &bench.cases[0];
    let cold = gen_t.reclaim(&case.source, &lake).expect("cold reclaim");
    let warm_result = gen_t.reclaim(&case.source, &warm.lake).expect("warm reclaim");
    println!(
        "reclaimed S{} cold: EIS {:.3} from {:?}",
        case.id,
        cold.eis,
        cold.originating.iter().map(|t| t.name().to_string()).collect::<Vec<_>>(),
    );
    println!(
        "reclaimed S{} warm: EIS {:.3} from {:?}",
        case.id,
        warm_result.eis,
        warm_result.originating.iter().map(|t| t.name().to_string()).collect::<Vec<_>>(),
    );
    assert_eq!(cold.eis, warm_result.eis, "snapshot must be retrieval-identical");

    let _ = std::fs::remove_file(&snap);
}
