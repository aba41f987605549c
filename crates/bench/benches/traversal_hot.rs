//! The Matrix Traversal hot loop: fused combine–score vs
//! materialize-per-candidate.
//!
//! Algorithm 1 re-scores `Combine(current, m)` for every remaining
//! candidate `m` on every greedy round but keeps only the winner. The old
//! implementation materialized a full combined matrix per candidate just to
//! read one number; the flat-arena `AlignmentMatrix::combine_score` kernel
//! streams the same tuple enumeration without building anything. This bench
//! reproduces one representative round — the start matrix against the full
//! discovered candidate set — and **gates the fused path at ≥2× faster**
//! (release mode) while asserting both paths return bit-identical scores,
//! so the optimisation can never drift from the semantics it claims to
//! preserve. A full `matrix_traversal` wall-clock median is printed
//! alongside.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gent_bench::report;
use gent_core::{matrix_traversal, AlignmentMatrix, GenTConfig};
use gent_datagen::suite::{build, BenchmarkId as Bid, SuiteConfig};
use gent_discovery::{set_similarity, DataLake, SetSimilarityConfig};

fn bench_traversal_hot(c: &mut Criterion) {
    // TP-TR Med at its documented default scale: a scoring round lands in
    // the hundreds of microseconds, far enough above timer noise for the
    // ≥2× gate to be load-tolerant.
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

    // The matrices the traversal would score (unalignable candidates drop).
    let matrices: Vec<AlignmentMatrix> = candidates
        .iter()
        .filter_map(|t| {
            AlignmentMatrix::build(&case.source, t, gcfg.three_valued, gcfg.max_aligned_per_key)
        })
        .collect();
    assert!(matrices.len() >= 2, "need ≥2 alignable candidates");
    // `combined` as the greedy loop holds it entering round 2: the best
    // single matrix by net score, with matrix_traversal's exact
    // lowest-index tie-break — the state every per-candidate scoring pass
    // runs against.
    let (start, _) = matrices
        .iter()
        .enumerate()
        .map(|(i, m)| (i, m.net_score()))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("score finite").then(b.0.cmp(&a.0)))
        .expect("non-empty");
    let combined = matrices[start].clone();
    let cap = gcfg.max_aligned_per_key;

    // Both sides must agree bit-for-bit before any timing means anything.
    for m in &matrices {
        let fused = combined.combine_score(m);
        let materialized = combined.combine(m, cap).net_score();
        assert_eq!(
            fused.to_bits(),
            materialized.to_bits(),
            "fused kernel diverged: {fused} vs {materialized}"
        );
    }

    // One full scoring round, each way, interleaved best-of-7.
    let (fused_t, mat_t) = report::min_times(
        7,
        || {
            for m in &matrices {
                std::hint::black_box(combined.combine_score(m));
            }
        },
        || {
            for m in &matrices {
                std::hint::black_box(combined.combine(m, cap).net_score());
            }
        },
    );
    let ratio = mat_t.as_secs_f64() / fused_t.as_secs_f64().max(1e-12);
    println!(
        "traversal hot loop ({} candidates): fused {fused_t:?}/round vs materialize \
         {mat_t:?}/round — {ratio:.1}× per scoring round",
        matrices.len()
    );
    // The acceptance gate: scoring a round without materializing combined
    // matrices must be at least 2× faster on identical inputs. Debug builds
    // skip the assertion (unoptimised bounds checks swamp the comparison).
    if cfg!(not(debug_assertions)) {
        assert!(
            ratio >= 2.0,
            "fused combine_score must be ≥2× materialize-per-candidate, got {ratio:.2}×"
        );
    }

    // The whole traversal (expand + build + greedy loop) on the same case.
    let full_ms = report::time_median_ms(7, || {
        std::hint::black_box(matrix_traversal(&case.source, &candidates, &gcfg));
    });
    println!("matrix_traversal, whole (tp-tr-med): {full_ms:.1} ms median of 7");

    let mut g = c.benchmark_group("traversal_hot");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("fused_score_round", "tp-tr-med"), |b| {
        b.iter(|| {
            for m in &matrices {
                std::hint::black_box(combined.combine_score(m));
            }
        })
    });
    g.bench_function(BenchmarkId::new("materialize_score_round", "tp-tr-med"), |b| {
        b.iter(|| {
            for m in &matrices {
                std::hint::black_box(combined.combine(m, cap).net_score());
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_traversal_hot);
criterion_main!(benches);
