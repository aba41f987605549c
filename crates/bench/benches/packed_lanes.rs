//! Packed 2-bit cell lanes vs the nested-vector reference matrix.
//!
//! The arena stores alignment cells as 2-bit codes, 32 per `u64` word, and
//! scores/combines them with word-parallel lane kernels (`lane_max`,
//! `conflict_word`, popcount scoring). This bench runs the *greedy
//! selection* — full-rescan rounds to the greedy fixpoint over prebuilt
//! matrices (building from tables is identical parse/align work on both
//! sides and would drown the kernels) — once on the packed arena (fused
//! `combine_score`) and once on `matrix::reference::NestedMatrix`
//! (materialize + `net_score`, the executable specification), on the same
//! TP-TR Med case the `traversal_hot` bench uses. Selections and the
//! final EIS must be bit-identical before the gate fires: the packed path
//! must be **≥2× faster** in release mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gent_bench::report;
use gent_core::matrix::reference::NestedMatrix;
use gent_core::{expand, AlignmentMatrix, GenTConfig};
use gent_datagen::suite::{build, BenchmarkId as Bid, SuiteConfig};
use gent_discovery::{set_similarity, DataLake, SetSimilarityConfig};

/// Greedy selection on prebuilt packed matrices: start pick + fused
/// full-rescan rounds. Returns (selection, final EIS).
fn packed_select(mats: &[AlignmentMatrix], cap: usize) -> (Vec<usize>, f64) {
    let start = mats
        .iter()
        .enumerate()
        .map(|(i, m)| (i, m.net_score()))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("score finite").then(b.0.cmp(&a.0)))
        .expect("non-empty")
        .0;
    let mut chosen = vec![start];
    let mut combined = mats[start].clone();
    let mut most_correct = combined.net_score();
    while chosen.len() < mats.len() {
        let mut best: Option<(usize, f64)> = None;
        for (i, m) in mats.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            let score = combined.combine_score(m);
            if score > best.map_or(most_correct, |(_, bs)| bs) {
                best = Some((i, score));
            }
        }
        match best {
            Some((i, score)) if score > most_correct => {
                chosen.push(i);
                combined = combined.combine(&mats[i], cap);
                most_correct = score;
            }
            _ => break,
        }
    }
    (chosen, combined.eis())
}

/// The same selection on prebuilt nested-vector matrices:
/// materialize-and-score rounds (the reference has no fused kernel — it
/// *is* the specification the kernel is checked against).
fn nested_select(mats: &[NestedMatrix], cap: usize) -> (Vec<usize>, f64) {
    let start = mats
        .iter()
        .enumerate()
        .map(|(i, m)| (i, m.net_score()))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("score finite").then(b.0.cmp(&a.0)))
        .expect("non-empty")
        .0;
    let mut chosen = vec![start];
    let mut combined = mats[start].clone();
    let mut most_correct = combined.net_score();
    while chosen.len() < mats.len() {
        let mut best: Option<(usize, f64)> = None;
        for (i, m) in mats.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            let score = combined.combine(m, cap).net_score();
            if score > best.map_or(most_correct, |(_, bs)| bs) {
                best = Some((i, score));
            }
        }
        match best {
            Some((i, score)) if score > most_correct => {
                chosen.push(i);
                combined = combined.combine(&mats[i], cap);
                most_correct = score;
            }
            _ => break,
        }
    }
    (chosen, combined.eis())
}

fn bench_packed_lanes(c: &mut Criterion) {
    // The traversal_hot case with the real post-Expand candidate set.
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
    let key_names: Vec<&str> = case.source.schema().key_names();
    let expanded = expand(&candidates, &key_names, gcfg.expand_max_depth);
    assert!(expanded.len() >= 8, "need a non-trivial candidate set, got {}", expanded.len());
    let cap = gcfg.max_aligned_per_key;
    // Prebuild both representations; the per-table build is already pinned
    // identical by the arena property suite, so the bench times only the
    // lane kernels against the nested scans.
    let packed_mats: Vec<AlignmentMatrix> = expanded
        .iter()
        .filter_map(|t| AlignmentMatrix::build(&case.source, t, gcfg.three_valued, cap))
        .collect();
    let nested_mats: Vec<NestedMatrix> = expanded
        .iter()
        .filter_map(|t| NestedMatrix::build(&case.source, t, gcfg.three_valued, cap))
        .collect();
    assert_eq!(packed_mats.len(), nested_mats.len(), "alignability must agree");

    // Fidelity before speed: bit-identical selection and EIS.
    let (packed_sel, packed_eis) = packed_select(&packed_mats, cap);
    let (nested_sel, nested_eis) = nested_select(&nested_mats, cap);
    assert_eq!(packed_sel, nested_sel, "packed selection diverged from the nested reference");
    assert_eq!(packed_eis.to_bits(), nested_eis.to_bits(), "final EIS diverged");
    assert!(packed_sel.len() >= 2, "selection must run at least one greedy round");

    // The full greedy selection, each way, interleaved best-of-7.
    let (packed_t, nested_t) = report::min_times(
        7,
        || {
            std::hint::black_box(packed_select(&packed_mats, cap));
        },
        || {
            std::hint::black_box(nested_select(&nested_mats, cap));
        },
    );
    let ratio = nested_t.as_secs_f64() / packed_t.as_secs_f64().max(1e-12);
    println!(
        "packed lanes ({} candidates, {} selected): packed {packed_t:?} vs nested {nested_t:?} \
         — {ratio:.1}× per selection",
        expanded.len(),
        packed_sel.len()
    );
    // The acceptance gate: 2-bit packing + word-lane kernels must beat the
    // nested-vector specification ≥2× on identical inputs. Debug builds
    // skip the assertion (unoptimised bounds checks swamp the comparison).
    if cfg!(not(debug_assertions)) {
        assert!(ratio >= 2.0, "packed selection must be ≥2× the nested reference, got {ratio:.2}×");
    }

    let mut g = c.benchmark_group("packed_lanes");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("packed_selection", "tp-tr-med"), |b| {
        b.iter(|| packed_select(&packed_mats, cap))
    });
    g.bench_function(BenchmarkId::new("nested_selection", "tp-tr-med"), |b| {
        b.iter(|| nested_select(&nested_mats, cap))
    });
    g.finish();
}

criterion_group!(benches, bench_packed_lanes);
criterion_main!(benches);
