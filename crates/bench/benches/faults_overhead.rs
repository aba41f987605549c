//! Fault injection must be free enough to ship: `gent_faults` sites sit
//! inside the snapshot save/load path (`write_atomic`, `load`), so this
//! bench runs the same save+load cycle with the fault layer disabled and
//! with it enabled-but-unarmed (the worst *production* configuration — a
//! fleet never runs with armed sites), and **gates the enabled path at
//! ≤1.05× the disabled time** in release mode, the same contract
//! `obs_overhead` enforces for the instrumentation layer. If a future
//! failpoint lands inside a per-row loop, this is the tripwire.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gent_bench::report;
use gent_datagen::suite::{build, BenchmarkId as Bid, SuiteConfig};
use gent_discovery::DataLake;
use gent_store::snapshot;

fn bench_faults_overhead(c: &mut Criterion) {
    // The workload is the IO boundary the failpoints guard: persist a
    // TP-TR Small lake and reopen it, one full save+load cycle per pass.
    let bench = build(Bid::TpTrSmall, &SuiteConfig::default());
    let lake = DataLake::from_tables(bench.lake_tables.clone());
    let dir = std::env::temp_dir().join(format!("gent-faults-overhead-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lake.gentlake");

    let cycle = |path: &std::path::Path| {
        snapshot::write(path, &lake).expect("save");
        std::hint::black_box(snapshot::load(path).expect("load"));
    };

    // Enabled-but-unarmed must not change behaviour, only (maybe) cost.
    gent_faults::reset();
    cycle(&path);
    gent_faults::set_enabled(true);
    cycle(&path);
    assert!(gent_faults::checks() > 0, "failpoints were never evaluated — dead gate");
    gent_faults::reset();

    let (enabled_t, disabled_t) = report::min_times(
        9,
        || {
            gent_faults::set_enabled(true);
            for _ in 0..3 {
                cycle(&path);
            }
        },
        || {
            gent_faults::set_enabled(false);
            for _ in 0..3 {
                cycle(&path);
            }
        },
    );
    gent_faults::reset();
    let overhead = enabled_t.as_secs_f64() / disabled_t.as_secs_f64().max(1e-12);
    println!(
        "faults overhead: enabled-unarmed {enabled_t:?} vs disabled {disabled_t:?} \
         per 3 save+load cycles — {overhead:.3}× ({:+.2}%)",
        (overhead - 1.0) * 100.0
    );
    // The acceptance gate: an enabled-but-unarmed fault layer must cost
    // ≤5% of the cycle. Debug builds skip it (unoptimised atomics and
    // fsyncs distort the ratio).
    if cfg!(not(debug_assertions)) {
        assert!(
            overhead <= 1.05,
            "fault layer enabled-unarmed must stay within 5% of disabled, got {overhead:.3}×"
        );
    }

    let mut g = c.benchmark_group("faults_overhead");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("snapshot_cycle_enabled", "tp-tr-small"), |b| {
        gent_faults::set_enabled(true);
        b.iter(|| cycle(&path));
        gent_faults::reset();
    });
    g.bench_function(BenchmarkId::new("snapshot_cycle_disabled", "tp-tr-small"), |b| {
        gent_faults::set_enabled(false);
        b.iter(|| cycle(&path));
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_faults_overhead);
criterion_main!(benches);
