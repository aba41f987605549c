//! Regression tests for the shared-lake-handle contract: a lake loaded once
//! from a snapshot serves any number of reclamations without being
//! reopened, cloned, or mutated — the invariant `gent serve` builds on
//! (concurrent requests borrow one `Arc`-shared lake).

use std::sync::Arc;

use gent_core::{GenT, GenTConfig};
use gent_datagen::suite::{build, BenchmarkId, SuiteConfig};
use gent_discovery::DataLake;
use gent_store::snapshot;

fn snapshot_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gent-shared-handle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// Two sequential reclaims against one loaded snapshot must yield
/// identical results — the first request must not consume, thaw, or
/// otherwise degrade the handle for the second.
#[test]
fn sequential_reclaims_share_one_lake_handle() {
    let bench = build(BenchmarkId::TpTrSmall, &SuiteConfig::default());
    let path = snapshot_path("sequential.gentlake");
    snapshot::write(&path, &DataLake::from_tables(bench.lake_tables.clone())).unwrap();

    // ONE source: open the snapshot once, reclaim twice against the handle.
    let loaded = snapshot::load(&path).unwrap();
    assert!(loaded.lake.frozen_index().is_some(), "snapshot lakes serve from the frozen index");

    let gen_t = GenT::new(GenTConfig::default());
    let source = &bench.cases[0].source;
    let first = gen_t.reclaim(source, &loaded.lake).unwrap();
    let second = gen_t.reclaim(source, &loaded.lake).unwrap();

    assert_eq!(first.eis, second.eis, "EIS must be identical across sequential reclaims");
    assert_eq!(first.reclaimed.rows(), second.reclaimed.rows());
    assert_eq!(
        first.originating.iter().map(|t| t.name()).collect::<Vec<_>>(),
        second.originating.iter().map(|t| t.name()).collect::<Vec<_>>(),
    );
    // The handle itself is unchanged: still frozen, nothing was thawed into
    // a mutable map by the read path.
    assert!(loaded.lake.frozen_index().is_some(), "reclaim must not thaw the frozen index");

    // And it matches a freshly opened lake exactly (no state bled between
    // requests).
    let fresh = snapshot::load(&path).unwrap();
    let independent = gen_t.reclaim(source, &fresh.lake).unwrap();
    assert_eq!(first.eis, independent.eis);
    assert_eq!(first.reclaimed.rows(), independent.reclaimed.rows());
}

/// The same handle shared across threads through an `Arc` (exactly what the
/// serve worker pool does) answers concurrent reclaims identically to the
/// sequential path.
#[test]
fn concurrent_reclaims_borrow_the_same_arc() {
    let bench = build(BenchmarkId::TpTrSmall, &SuiteConfig::default());
    let path = snapshot_path("concurrent.gentlake");
    snapshot::write(&path, &DataLake::from_tables(bench.lake_tables.clone())).unwrap();
    let loaded = Arc::new(snapshot::load(&path).unwrap());
    let gen_t = GenT::new(GenTConfig::default());

    let baseline = gen_t.reclaim(&bench.cases[0].source, &loaded.lake).unwrap();

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let loaded = Arc::clone(&loaded);
            let source = bench.cases[0].source.clone();
            std::thread::spawn(move || {
                GenT::new(GenTConfig::default()).reclaim(&source, &loaded.lake).unwrap()
            })
        })
        .collect();
    for w in workers {
        let got = w.join().expect("worker");
        assert_eq!(got.eis, baseline.eis);
        assert_eq!(got.reclaimed.rows(), baseline.reclaimed.rows());
    }
}
