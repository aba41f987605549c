//! The memoized best-first Expand engine vs the reference DFS + re-joined
//! left folds.
//!
//! The reference engine enumerates key-paths by exhaustive DFS and
//! materializes each path with a fresh left-fold of joins — shared
//! suffixes are re-joined from scratch for every path that uses them. The
//! production engine runs a best-first search ordered and cut by each
//! partial path's reach bound (its weight times the heaviest product any
//! walk of the remaining hops can reach a key-carrying table with),
//! memoizes sub-joins on the table-index path suffix, probes cached hash
//! `JoinIndex`es instead of rebuilding them per join, and deduplicates
//! expansions that fold to the same relation.
//!
//! The engine's win is workload-shaped: it concentrates where candidate
//! sets funnel many keyless starts through shared suffix chains (2×+ on
//! those TP-TR Med cases) and sits at parity on small sets where the
//! fingerprint bookkeeping has nothing to amortize. A single case is
//! therefore the wrong unit — one draw from that distribution gates on
//! noise. The timed unit is the **expand stage swept across every TP-TR
//! Med case**, interleaved, and the gate is the aggregate: the engine
//! must be **≥1.1× faster** over the sweep in release mode (sweeps measure
//! 1.91–1.96× on a 2-vCPU VM, 3.3 s against 6.3 s, where ordering the
//! search by partial weight alone measured 1.80×, 3.7 s against 6.7 s; the
//! gate leaves headroom for a CI box's run-to-run noise). Fidelity is
//! asserted first, through the stage's real consumer: on the heaviest
//! case the greedy selection over the engine's output (names + final EIS)
//! must be identical to the reference's — dedup may only shrink the set
//! (the property suite in `crates/core/tests/expand_engine_prop.rs` pins
//! full behavioural equality case by case).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gent_bench::report;
use gent_core::expand::reference;
use gent_core::{expand, AlignmentMatrix, GenTConfig, RoundScorer};
use gent_datagen::suite::{build, BenchmarkId as Bid, SuiteConfig};
use gent_discovery::{set_similarity, DataLake, SetSimilarityConfig};
use gent_table::Table;

/// The real greedy selection over an expanded candidate set, reported as
/// selected table *names* plus the final EIS — the identity that must
/// survive the engine swap (dedup may renumber indices, never names).
fn selection_fingerprint(
    source: &Table,
    expanded: &[Table],
    cfg: &GenTConfig,
) -> (Vec<String>, u64) {
    let cap = cfg.max_aligned_per_key;
    let (kept, mats): (Vec<&Table>, Vec<AlignmentMatrix>) = expanded
        .iter()
        .filter_map(|t| AlignmentMatrix::build(source, t, cfg.three_valued, cap).map(|m| (t, m)))
        .unzip();
    let start = mats
        .iter()
        .enumerate()
        .map(|(i, m)| (i, m.net_score()))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("score finite").then(b.0.cmp(&a.0)))
        .expect("non-empty")
        .0;
    let mut scorer = RoundScorer::new(&mats, start, cap);
    let mut chosen = vec![start];
    while chosen.len() < mats.len() {
        match scorer.select_next() {
            Some(i) => chosen.push(i),
            None => break,
        }
    }
    let names = chosen.iter().map(|&i| kept[i].name().to_string()).collect();
    (names, scorer.into_combined().eis().to_bits())
}

fn bench_expand_join(c: &mut Criterion) {
    // Every TP-TR Med case's raw discovery output — the case mix Expand
    // sees in the real pipeline, heavy shared-suffix cases and small
    // near-parity ones alike.
    let cfg = SuiteConfig::default();
    let bench = build(Bid::TpTrMed, &cfg);
    let lake = DataLake::from_tables(bench.lake_tables.clone());
    let gcfg = GenTConfig::default();
    let depth = gcfg.expand_max_depth;
    let cases: Vec<(&Table, Vec<Table>)> = bench
        .cases
        .iter()
        .map(|case| {
            let candidates: Vec<_> =
                set_similarity(&lake, &case.source, None, &SetSimilarityConfig::default())
                    .into_iter()
                    .map(|c| c.table)
                    .collect();
            (&case.source, candidates)
        })
        .collect();
    assert!(cases.len() >= 8, "need a case sweep, got {}", cases.len());

    // Fidelity before speed, through the stage's real consumer: on the
    // heaviest case (most candidates) the greedy selection over each
    // engine's output must agree — same table names in the same order,
    // bit-identical final EIS. The engines may differ in *duplicates*
    // (the new engine drops canonical duplicates by design), so set size
    // may only shrink.
    let (heavy_src, heavy_cands) =
        cases.iter().max_by_key(|(_, cands)| cands.len()).expect("non-empty sweep");
    let heavy_keys: Vec<&str> = heavy_src.schema().key_names();
    let new_expanded = expand(heavy_cands, &heavy_keys, depth);
    let old_expanded = reference::expand(heavy_cands, &heavy_keys, depth);
    assert!(new_expanded.len() <= old_expanded.len(), "dedup can only shrink the set");
    let new_fp = selection_fingerprint(heavy_src, &new_expanded, &gcfg);
    let old_fp = selection_fingerprint(heavy_src, &old_expanded, &gcfg);
    assert_eq!(new_fp, old_fp, "engine swap changed the greedy selection");
    assert!(new_fp.0.len() >= 2, "selection must run at least one greedy round");

    // The expand stage over the whole case sweep, each way, interleaved
    // best-of-3.
    let sweep = |run: fn(&[Table], &[&str], usize) -> Vec<Table>| {
        for (source, candidates) in &cases {
            let key_names: Vec<&str> = source.schema().key_names();
            std::hint::black_box(run(candidates, &key_names, depth));
        }
    };
    let (new_t, old_t) = report::min_times(3, || sweep(expand), || sweep(reference::expand));
    let ratio = old_t.as_secs_f64() / new_t.as_secs_f64().max(1e-12);
    println!(
        "expand engine ({} cases, depth {depth}): engine {new_t:?} vs reference {old_t:?} — \
         {ratio:.2}× over the sweep",
        cases.len(),
    );
    // The acceptance gate: best-first search + suffix memo + cached join
    // indexes + relation dedup must beat the DFS/re-join/no-dedup
    // reference ≥1.1× aggregated over the sweep (per-case ratios vary
    // widely, aggregates measure ~1.9×; the aggregate is what the pipeline
    // pays and 1.1 leaves noise headroom). Debug builds
    // skip the assertion (unoptimised bounds checks swamp the comparison).
    if cfg!(not(debug_assertions)) {
        assert!(
            ratio >= 1.1,
            "expand engine must be ≥1.1× the reference over the case sweep, got {ratio:.2}×"
        );
    }

    let mut g = c.benchmark_group("expand_join");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("memoized_expand", "tp-tr-med-sweep"), |b| {
        b.iter(|| sweep(expand))
    });
    g.bench_function(BenchmarkId::new("reference_expand", "tp-tr-med-sweep"), |b| {
        b.iter(|| sweep(reference::expand))
    });
    g.finish();
}

criterion_group!(benches, bench_expand_join);
criterion_main!(benches);
