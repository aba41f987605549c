//! Observability must be free enough to leave on: the pipeline's spans and
//! counters (`gent-obs`) sit inside `matrix_traversal`'s hot path, so this
//! bench runs the same traversal with instrumentation enabled and disabled
//! (the `gent_obs::set_enabled` kill switch turns every span and
//! `observe_duration` into a no-op) and **gates the instrumented path at
//! ≤1.05× the uninstrumented time** in release mode. If a future change
//! moves a span into a per-row loop, this is the tripwire that catches it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gent_bench::report;
use gent_core::{matrix_traversal, GenTConfig};
use gent_datagen::suite::{build, BenchmarkId as Bid, SuiteConfig};
use gent_discovery::{set_similarity, DataLake, SetSimilarityConfig};

fn bench_obs_overhead(c: &mut Criterion) {
    // A representative workload: TP-TR Med case 7, one full matrix
    // traversal — the code path the pipeline spans instrument.
    let cfg = SuiteConfig::default();
    let bench = build(Bid::TpTrMed, &cfg);
    let lake = DataLake::from_tables(bench.lake_tables.clone());
    let gcfg = GenTConfig::default();
    let case = &bench.cases[7];
    let candidates: Vec<_> =
        set_similarity(&lake, &case.source, None, &SetSimilarityConfig::default())
            .into_iter()
            .map(|c| c.table)
            .collect();
    assert!(candidates.len() >= 4, "need a non-trivial candidate set, got {}", candidates.len());

    // The toggle must not change the answer — instrumentation is
    // observe-only by construction, and this pins it.
    gent_obs::set_enabled(true);
    let with_obs = matrix_traversal(&case.source, &candidates, &gcfg);
    gent_obs::set_enabled(false);
    let without_obs = matrix_traversal(&case.source, &candidates, &gcfg);
    assert_eq!(with_obs.selected, without_obs.selected, "instrumentation changed traversal output");
    gent_obs::set_enabled(true);

    // Interleaved best-of-9, three traversals per sample to sit well above
    // timer noise.
    let (instr_t, plain_t) = report::min_times(
        9,
        || {
            gent_obs::set_enabled(true);
            for _ in 0..3 {
                std::hint::black_box(matrix_traversal(&case.source, &candidates, &gcfg));
            }
        },
        || {
            gent_obs::set_enabled(false);
            for _ in 0..3 {
                std::hint::black_box(matrix_traversal(&case.source, &candidates, &gcfg));
            }
        },
    );
    gent_obs::set_enabled(true);
    let overhead = instr_t.as_secs_f64() / plain_t.as_secs_f64().max(1e-12);
    println!(
        "obs overhead: instrumented {instr_t:?} vs uninstrumented {plain_t:?} \
         per 3 traversals — {overhead:.3}× ({:+.2}%)",
        (overhead - 1.0) * 100.0
    );
    // The acceptance gate: spans + counters must cost ≤5% of the traversal.
    // Debug builds skip it (unoptimised atomics distort the ratio).
    if cfg!(not(debug_assertions)) {
        assert!(
            overhead <= 1.05,
            "instrumented traversal must stay within 5% of uninstrumented, got {overhead:.3}×"
        );
    }

    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("traversal_instrumented", "tp-tr-med"), |b| {
        gent_obs::set_enabled(true);
        b.iter(|| std::hint::black_box(matrix_traversal(&case.source, &candidates, &gcfg)))
    });
    g.bench_function(BenchmarkId::new("traversal_uninstrumented", "tp-tr-med"), |b| {
        gent_obs::set_enabled(false);
        b.iter(|| std::hint::black_box(matrix_traversal(&case.source, &candidates, &gcfg)));
        gent_obs::set_enabled(true);
    });
    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
