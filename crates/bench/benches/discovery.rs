//! Discovery-substrate benchmarks: inverted-index build and Set Similarity
//! query cost as the lake grows — the discovery share of Figure 8a.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gent_datagen::suite::{build, BenchmarkId as Bid, SuiteConfig};
use gent_discovery::{set_similarity, DataLake, SetSimilarityConfig};

fn bench_discovery(c: &mut Criterion) {
    let cfg = SuiteConfig { units: (40, 80, 120), santos_noise_tables: 300, ..Default::default() };
    let mut g = c.benchmark_group("discovery");
    g.sample_size(10);
    for (label, id) in [("tp-tr", Bid::TpTrSmall), ("tp-tr+noise", Bid::SantosLargeTpTrMed)] {
        let bench = build(id, &cfg);
        g.bench_function(BenchmarkId::new("index_build", label), |b| {
            b.iter(|| DataLake::from_tables(bench.lake_tables.clone()))
        });
        let lake = DataLake::from_tables(bench.lake_tables.clone());
        // The sum over every source, not one of them: discovery cost is
        // heavy-tailed in the source (a low-cardinality anchor aligns each
        // source row to thousands of candidate rows), and a tripwire on a
        // median case would not see the cases that dominate a pass.
        g.bench_function(BenchmarkId::new("set_similarity", label), |b| {
            b.iter(|| {
                bench
                    .cases
                    .iter()
                    .map(|case| {
                        set_similarity(&lake, &case.source, None, &SetSimilarityConfig::default())
                            .len()
                    })
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_discovery);
criterion_main!(benches);
