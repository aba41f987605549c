//! End-to-end reclamation per benchmark class — the Criterion counterpart
//! of Figure 8a at bench-friendly sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gent_core::GenT;
use gent_datagen::suite::{build, BenchmarkId as Bid, SuiteConfig};
use gent_discovery::DataLake;

fn bench_end_to_end(c: &mut Criterion) {
    let cfg = SuiteConfig { units: (30, 60, 90), santos_noise_tables: 200, ..Default::default() };
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    for (label, id) in [
        ("tp-tr-small", Bid::TpTrSmall),
        ("tp-tr-med", Bid::TpTrMed),
        ("santos+med", Bid::SantosLargeTpTrMed),
    ] {
        let bench = build(id, &cfg);
        let lake = DataLake::from_tables(bench.lake_tables.clone());
        let gen_t = GenT::default();
        let source = bench.cases[7].source.clone();
        g.bench_function(BenchmarkId::new("gen_t_reclaim", label), |b| {
            b.iter(|| gen_t.reclaim(&source, &lake).unwrap())
        });
        // The full pipeline on this class plus its per-stage breakdown
        // from the result's span timings — medians over the same runs, so
        // a stage-local regression shows up in the stage number even when
        // the total hides it.
        let mut stage_ms: [Vec<f64>; 3] = Default::default();
        let ms = gent_bench::time_median_ms(5, || {
            let result = std::hint::black_box(gen_t.reclaim(&source, &lake).unwrap());
            let t = result.timings;
            for (samples, d) in stage_ms.iter_mut().zip([t.discovery, t.traversal, t.integration]) {
                samples.push(d.as_secs_f64() * 1e3);
            }
        });
        let [discovery, traversal, integration] = stage_ms.map(|mut samples| {
            samples.sort_unstable_by(|a, b| a.total_cmp(b));
            samples[samples.len() / 2]
        });
        println!(
            "end_to_end/{label}: {ms:.1} ms median of 5 — discovery {discovery:.1}, \
             traversal {traversal:.1}, integration {integration:.1}"
        );
    }
    g.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
