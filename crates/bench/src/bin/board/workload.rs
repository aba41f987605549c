//! The four workloads: which lake, which requests, how many.
//!
//! Every workload has a **read stream** (`POST /reclaim` with an inline
//! source) and a **write stream** (`POST /admin/ingest`, one pure-noise
//! table per request). On the three read workloads the writes are a short
//! epilogue after the reads, so ingest cost is reported for every snapshot
//! size without disturbing the read measurement; on `ingest_mix` the two
//! streams run concurrently, which is the point of that workload.
//!
//! What the seed feeds: the WDC noise tables and every ingested table. It
//! does **not** feed the sources or the tables they are reclaimed from:
//! the TP-TR lakes with their 26 queries (SANTOS noise lake included) and
//! the 100-source web corpus are pinned to the default `SuiteConfig` (the
//! paper's §VI set-up), because request cost is heavy-tailed in the
//! generators' seed.
//! One serial pass over TP-TR Med costs 17 s at seed 7, 23 s at seed 1 and
//! 32 s at seed 2 (one 18 s request); the web corpus answers 1100
//! requests/s at seed 7 and 760 at seed 16. A benchmark whose spread
//! across seeds measures the generator cannot resolve a 10 % change in the
//! system. `--smoke` lakes are tiny, so there the seed feeds everything.

use gent_datagen::noise::{generate_noise_lake, NoiseConfig};
use gent_datagen::suite::{build, BenchmarkId, SuiteConfig};
use gent_datagen::webgen::WebCorpusConfig;
use gent_serve::{table_to_json, Json};
use gent_table::Table;

use crate::client::render_post;

/// The seed at which every generator runs at its committed default.
pub const DEFAULT_SEED: u64 = 7;

/// One workload's shape. Counts are per *unit* of run length (one unit is
/// a nominal 10 s of timed phase on the seed commit); `--seconds` buys
/// whole units, so two commits always do identical work.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists — one line, as in `BENCHMARK.json`.
    pub why: &'static str,
    lake: Lake,
    /// Read passes over the source list per unit.
    pub read_passes: usize,
    /// Read passes of the traced run (each source is executed three ways
    /// per pass, so heavy workloads get one).
    pub traced_passes: usize,
    /// Ingest requests per unit.
    pub ingests: usize,
    /// Writes run concurrently with the reads (one reader, one writer)
    /// instead of after them (two readers, then one writer).
    pub concurrent_ingest: bool,
    /// The one fixed source `cold_first_reclaim_ms` sends: a cheap one, so
    /// index thaw and first-touch decode are most of what it pays.
    pub cold_source: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lake {
    TpTrMed,
    SantosMed,
    WdcWeb,
    TpTrSmall,
}

/// The workloads, in board order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "tptr_med",
        why: "the paper's core workload (Table II): 26 sources on TP-TR Med; discovery + core are >95 % of a request, serve <1 %, so a serve-only change must show nothing here",
        lake: Lake::TpTrMed,
        read_passes: 2,
        traced_passes: 1,
        ingests: 17,
        concurrent_ingest: false,
        cold_source: 25,
    },
    Spec {
        name: "santos_med",
        why: "repository-size scalability (Fig. 8): the same 26 sources with 1500 noise tables around them, so first-stage retrieval, the 3x snapshot and lazy per-table decode carry weight",
        lake: Lake::SantosMed,
        read_passes: 2,
        traced_passes: 1,
        ingests: 17,
        concurrent_ingest: false,
        cold_source: 25,
    },
    Spec {
        name: "wdc_web",
        why: "short requests: 100 web sources of ~4 KB against 2130 tables; HTTP, JSON and routing are most of each request and traversal is ~0, so serve-layer changes show here only",
        lake: Lake::WdcWeb,
        read_passes: 80,
        traced_passes: 5,
        ingests: 17,
        concurrent_ingest: false,
        cold_source: 0,
    },
    Spec {
        name: "ingest_mix",
        why: "the write path under a live reader: ~100 KB ingests, fsynced delta frames, compaction every 8th and a reload swap that resets the decoded-table cache while TP-TR Small sources are read",
        lake: Lake::TpTrSmall,
        read_passes: 1,
        traced_passes: 1,
        ingests: 48,
        concurrent_ingest: true,
        cold_source: 25,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One request of a stream: the table it carries and the exact bytes sent.
#[derive(Debug, Clone)]
pub struct Item {
    /// The source to reclaim, or the table to ingest.
    pub table: Table,
    /// The pre-rendered HTTP request.
    pub request: Vec<u8>,
}

/// Everything a run needs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The lake to snapshot and serve.
    pub lake_tables: Vec<Table>,
    /// The read stream's sources.
    pub sources: Vec<Item>,
    /// The write stream, in ingest order.
    pub ingests: Vec<Item>,
}

fn suite_config(seed: u64, smoke: bool) -> SuiteConfig {
    if smoke {
        SuiteConfig {
            seed,
            units: (6, 10, 16),
            santos_noise_tables: 230,
            wdc_noise_tables: 230,
            web: WebCorpusConfig {
                n_base_tables: 10,
                n_reclaimable: 2,
                n_duplicates: 2,
                // The corpus has its own seed (47 by default): derive it
                // so that seed 7 is the committed default corpus.
                seed: WebCorpusConfig::default().seed ^ seed ^ DEFAULT_SEED,
                ..Default::default()
            },
            ..Default::default()
        }
    } else {
        // `web` keeps its default seed: the 100 web sources are pinned,
        // only the WDC noise around them (`seed ^ 0xBEEF`) follows `seed`.
        SuiteConfig { seed, ..Default::default() }
    }
}

/// Generate a workload's lake and both request streams. `units` scales the
/// write stream; the read stream is the source list, replayed
/// `units * read_passes` times by the runner.
pub fn generate(spec: &Spec, seed: u64, smoke: bool, units: usize) -> Inputs {
    // TP-TR content — and the SANTOS noise lake around it, whose
    // distractor tables move `mean_eis` by up to 1 % between seeds — is
    // pinned (see the module docs) unless smoke-sized.
    let tptr = suite_config(if smoke { seed } else { DEFAULT_SEED }, smoke);
    let bench = match spec.lake {
        Lake::TpTrMed => build(BenchmarkId::TpTrMed, &tptr),
        Lake::TpTrSmall => build(BenchmarkId::TpTrSmall, &tptr),
        Lake::SantosMed => build(BenchmarkId::SantosLargeTpTrMed, &tptr),
        Lake::WdcWeb => build(BenchmarkId::WdcT2dGold, &suite_config(seed, smoke)),
    };
    let sources = bench
        .cases
        .into_iter()
        .map(|case| {
            let body = Json::Object(vec![("source".into(), table_to_json(&case.source))]);
            Item { request: render_post("/reclaim", &body.render()), table: case.source }
        })
        .collect();

    // Pure noise over a vocabulary disjoint from every lake (no
    // distractors), so a reader's answers do not depend on how many
    // ingests have landed and the oracle check stays exact.
    let n_ingests = if smoke { spec.ingests.min(9) } else { spec.ingests * units };
    let mut noise = generate_noise_lake(&NoiseConfig {
        n_tables: n_ingests,
        // One shape for every table: ingest cost follows body size (the
        // daemon's JSON parse is superlinear in it), and the spread across
        // seeds should measure the system, not the size lottery.
        rows: if smoke { (25, 25) } else { (1100, 1100) },
        cols: (7, 7),
        distractor_frac: 0.0,
        seed: seed ^ 0x1A6E57,
    });
    let ingests = noise
        .drain(..)
        .enumerate()
        .map(|(i, mut table)| {
            // The SANTOS lake already holds `noise_NNNNN` names.
            table.set_name(format!("ingest_{i:05}"));
            let body =
                Json::Object(vec![("tables".into(), Json::Array(vec![table_to_json(&table)]))]);
            Item { request: render_post("/admin/ingest", &body.render()), table }
        })
        .collect();
    Inputs { lake_tables: bench.lake_tables, sources, ingests }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_bytes(spec: &Spec, seed: u64) -> Vec<Vec<u8>> {
        let inputs = generate(spec, seed, true, 1);
        inputs.sources.into_iter().chain(inputs.ingests).map(|i| i.request).collect()
    }

    #[test]
    fn same_seed_same_request_bytes_different_seed_different() {
        for spec in &SPECS {
            let a = request_bytes(spec, 7);
            assert!(!a.is_empty());
            assert_eq!(a, request_bytes(spec, 7), "{}: same seed must replay", spec.name);
            assert_ne!(a, request_bytes(spec, 11), "{}: seed must reach the wire", spec.name);
        }
    }

    #[test]
    fn full_scale_pins_tptr_and_seeds_the_rest() {
        // TP-TR sources are the paper's fixed query set at any seed; the
        // ingested tables (and the santos noise) follow the seed.
        let spec = spec("ingest_mix").unwrap();
        let a = generate(spec, 7, false, 1);
        let b = generate(spec, 11, false, 1);
        assert_eq!(a.sources.len(), 26);
        assert_eq!(a.ingests.len(), spec.ingests);
        for (x, y) in a.sources.iter().zip(&b.sources) {
            assert_eq!(x.request, y.request);
        }
        assert_ne!(a.ingests[0].request, b.ingests[0].request);
        assert!(a.ingests[0].request.len() > 60_000, "{}", a.ingests[0].request.len());
    }

    #[test]
    fn default_seed_is_the_committed_default_suite() {
        assert_eq!(suite_config(DEFAULT_SEED, true).web.seed, WebCorpusConfig::default().seed);
        assert_eq!(suite_config(DEFAULT_SEED, false).seed, SuiteConfig::default().seed);
    }
}
