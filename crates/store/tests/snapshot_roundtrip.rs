//! Acceptance tests for the store subsystem: a snapshot-loaded lake is
//! *retrieval-identical* to the freshly built in-memory lake on a real
//! `datagen` benchmark suite — same inverted index answers, same
//! first-stage retrieval, same originating tables and EIS from the full
//! Gen-T pipeline — and reopening the snapshot beats rebuilding from CSV.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use gent_core::{GenT, GenTConfig};
use gent_datagen::suite::{build, BenchmarkId, SuiteConfig};
use gent_datagen::webgen::WebCorpusConfig;
use gent_discovery::{DataLake, OverlapRetriever, TableRetriever};
use gent_store::snapshot;
use gent_table::csv;

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gent-store-rt-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn tiny_suite() -> SuiteConfig {
    SuiteConfig {
        units: (10, 20, 40),
        santos_noise_tables: 10,
        wdc_noise_tables: 10,
        web: WebCorpusConfig {
            n_base_tables: 6,
            n_reclaimable: 2,
            n_duplicates: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Reclaiming a suite source against the loaded snapshot returns the same
/// originating tables and EIS as against the freshly built in-memory lake.
#[test]
fn reclaim_from_snapshot_matches_in_memory() {
    let s = Scratch::new("reclaim");
    let bench = build(BenchmarkId::TpTrSmall, &tiny_suite());

    let cold = DataLake::from_tables(bench.lake_tables.clone());
    let snap = s.0.join("lake.gentlake");
    snapshot::write(&snap, &cold).unwrap();
    let warm = snapshot::load(&snap).unwrap().lake;

    let gen_t = GenT::new(GenTConfig::default());
    for case in bench.cases.iter().take(4) {
        let a = gen_t.reclaim(&case.source, &cold).expect("cold reclaim");
        let b = gen_t.reclaim(&case.source, &warm).expect("warm reclaim");
        let names = |r: &gent_core::ReclamationResult| -> Vec<String> {
            r.originating.iter().map(|t| t.name().to_string()).collect()
        };
        assert_eq!(names(&a), names(&b), "originating tables diverge on S{}", case.id);
        assert!(
            (a.eis - b.eis).abs() < 1e-12,
            "EIS diverges on S{}: cold {} warm {}",
            case.id,
            a.eis,
            b.eis
        );
        assert_eq!(
            a.reclaimed.rows(),
            b.reclaimed.rows(),
            "reclaimed rows diverge on S{}",
            case.id
        );
    }
}

/// First-stage retrieval agrees result-for-result between the cold lake
/// and the snapshot.
#[test]
fn retrieval_identical_after_snapshot_load() {
    let s = Scratch::new("retrieval");
    let bench = build(BenchmarkId::TpTrSmall, &tiny_suite());

    let cold_lake = DataLake::from_tables(bench.lake_tables.clone());
    let snap = s.0.join("lake.gentlake");
    snapshot::write(&snap, &cold_lake).unwrap();
    let warm_lake = snapshot::load(&snap).unwrap().lake;

    // The inverted index answers identically for every indexed value.
    assert_eq!(warm_lake.index_len(), cold_lake.index_len());
    for (v, postings) in cold_lake.index_entries() {
        assert_eq!(warm_lake.postings(&v), postings, "postings({v}) diverge");
    }

    for case in bench.cases.iter().take(8) {
        assert_eq!(
            OverlapRetriever.retrieve(&cold_lake, &case.source, 10),
            OverlapRetriever.retrieve(&warm_lake, &case.source, 10),
            "exact retrieval diverges on S{}",
            case.id
        );
    }
}

/// Opening a snapshot must decisively beat rebuilding from CSV — that is
/// the store's reason to exist. We assert a conservative ≥2× so CI noise
/// cannot flake the suite, and print the observed ratio.
#[test]
fn snapshot_open_beats_csv_rebuild() {
    let s = Scratch::new("timing");
    // Default-size TP-TR Small: 32 tables, ~25k rows — big enough that
    // parse + index costs dominate process noise.
    let bench = build(BenchmarkId::TpTrSmall, &SuiteConfig::default());

    let csv_dir = s.0.join("lake-csv");
    fs::create_dir_all(&csv_dir).unwrap();
    for t in &bench.lake_tables {
        csv::write_csv_file(t, &csv_dir.join(format!("{}.csv", t.name()))).unwrap();
    }
    let snap = s.0.join("lake.gentlake");
    snapshot::write(&snap, &DataLake::from_tables(bench.lake_tables.clone())).unwrap();

    // Cold: parse every CSV, rebuild the inverted index.
    let t0 = Instant::now();
    let mut paths: Vec<PathBuf> =
        fs::read_dir(&csv_dir).unwrap().map(|e| e.unwrap().path()).collect();
    paths.sort();
    let tables: Vec<_> = paths.iter().map(|p| csv::read_csv_file(p).unwrap()).collect();
    let cold = DataLake::from_tables(tables);
    let cold_time = t0.elapsed();

    // Warm: one read + decode.
    let t1 = Instant::now();
    let loaded = snapshot::load(&snap).unwrap();
    let warm_time = t1.elapsed();

    assert_eq!(loaded.lake.len(), cold.len());
    let ratio = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9);
    println!("cold rebuild {:?} vs snapshot open {:?} — {ratio:.1}× faster", cold_time, warm_time);
    assert!(
        ratio >= 2.0,
        "snapshot open ({warm_time:?}) must beat CSV rebuild ({cold_time:?}) by ≥2×, got {ratio:.2}×"
    );
}
