//! The board's metric catalogue: names, units, directions, regression
//! bounds — the same list `BENCHMARK.json` carries (a test holds the two
//! together).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a caller of the daemon sees. Every one
/// is reported on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// The end-to-end metrics, in report order. All are measured with tracing
/// off. Bounds were confirmed with `--aa` (see the README's A/A table).
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("reclaim_p50_ms", "ms", Better::Lower, 0.25),
    e2e("reclaim_p90_ms", "ms", Better::Lower, 0.25),
    e2e("reclaims_per_s", "1/s", Better::Higher, 0.25),
    e2e("cold_first_reclaim_ms", "ms", Better::Lower, 0.25),
    e2e("ingest_p50_ms", "ms", Better::Lower, 0.25),
    e2e("ingest_p90_ms", "ms", Better::Lower, 0.25),
    e2e("ingests_per_s", "1/s", Better::Higher, 0.25),
    e2e("mean_eis", "ratio", Better::Higher, 0.0),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

/// A per-layer metric from the traced run, with the end-to-end movement it
/// predicts (written down before measuring — see the README's table).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `layer.metric`; the layer is the crate name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

use Better::{Higher, Lower};

const SERVE_SHORT: &str = "reclaim_p50_ms, reclaims_per_s on wdc_web; none on tptr_med/santos_med";
const SERVE_INGEST: &str = "reclaim_p50_ms on wdc_web; ingest_p50_ms on ingest_mix";
const CORE_MED: &str =
    "reclaim_p50_ms, reclaim_p90_ms, reclaims_per_s on tptr_med/santos_med; ~0 on wdc_web";

/// The per-layer metrics, in report order (request order within a layer).
pub const PER_LAYER: [PerLayer; 46] = [
    layer("serve.http_read_ms", "ms", Lower, SERVE_INGEST),
    layer("serve.json_parse_ms", "ms", Lower, SERVE_INGEST),
    layer("serve.table_from_json_ms", "ms", Lower, SERVE_INGEST),
    layer("serve.table_to_json_ms", "ms", Lower, SERVE_SHORT),
    layer("serve.json_render_ms", "ms", Lower, SERVE_SHORT),
    layer("serve.response_write_ms", "ms", Lower, SERVE_SHORT),
    layer(
        "serve.respond_ms",
        "ms",
        Lower,
        "every reclaim figure (it is the whole in-process request)",
    ),
    layer("serve.self_ms", "ms", Lower, SERVE_SHORT),
    layer("serve.socket_ms", "ms", Lower, SERVE_SHORT),
    layer("serve.request_bytes", "B", Lower, "serve.http_read_ms, serve.json_parse_ms"),
    layer("serve.response_bytes", "B", Lower, "serve.json_render_ms, serve.response_write_ms"),
    layer(
        "discovery.first_stage_ms",
        "ms",
        Lower,
        "reclaim_p50_ms on santos_med/wdc_web; 0 on tptr_med/ingest_mix",
    ),
    layer(
        "discovery.set_similarity_ms",
        "ms",
        Lower,
        "reclaim_p50_ms, reclaim_p90_ms, reclaims_per_s on tptr_med/santos_med",
    ),
    layer("discovery.candidates", "count", Lower, "core.traversal_ms"),
    layer("discovery.index_thaw_ms", "ms", Lower, "cold_first_reclaim_ms everywhere"),
    layer("discovery.index_build_ms", "ms", Lower, "setup_s everywhere"),
    layer("discovery.memo_hit_ratio", "ratio", Higher, "discovery.set_similarity_ms"),
    layer("core.expand_ms", "ms", Lower, CORE_MED),
    layer("core.matrix_build_ms", "ms", Lower, CORE_MED),
    layer("core.traversal_ms", "ms", Lower, CORE_MED),
    layer("core.greedy_ms", "ms", Lower, CORE_MED),
    layer(
        "core.integrate_ms",
        "ms",
        Lower,
        "reclaim_p50_ms on wdc_web; reclaim_p90_ms on tptr_med",
    ),
    layer("core.expand_paths", "count", Lower, "core.expand_ms"),
    layer("core.expand_memo_hits", "count", Higher, "core.expand_ms"),
    layer("core.expanded_tables", "count", Lower, "core.matrix_build_ms, peak_rss_mb on tptr_med"),
    layer(
        "core.expanded_rows",
        "count",
        Lower,
        "core.expand_ms, core.matrix_build_ms, peak_rss_mb on tptr_med",
    ),
    layer(
        "core.selected_ratio",
        "ratio",
        Higher,
        "core.expand_ms (share of materialised tables that are used)",
    ),
    layer("core.rounds", "count", Lower, "core.greedy_ms"),
    layer("core.rows_rescored", "count", Lower, "core.greedy_ms"),
    layer("core.candidates_pruned", "count", Higher, "core.greedy_ms"),
    layer("ops.outer_union_ms", "ms", Lower, "core.integrate_ms"),
    layer("ops.kappa_beta_ms", "ms", Lower, "core.integrate_ms"),
    layer("metrics.evaluate_ms", "ms", Lower, "reclaim_p50_ms on wdc_web"),
    layer(
        "table.decode_all_ms",
        "ms",
        Lower,
        "cold_first_reclaim_ms; reclaim_p90_ms on ingest_mix",
    ),
    layer(
        "table.decode_mb_per_s",
        "MB/s",
        Higher,
        "cold_first_reclaim_ms; reclaim_p90_ms on ingest_mix",
    ),
    layer(
        "table.tables_decoded_share",
        "ratio",
        Lower,
        "peak_rss_mb, cold_first_reclaim_ms on santos_med/wdc_web",
    ),
    layer("store.save_ms", "ms", Lower, "setup_s everywhere"),
    layer("store.open_ms", "ms", Lower, "cold_first_reclaim_ms everywhere; ingest_p50_ms"),
    layer("store.snapshot_bytes", "B", Lower, "store.open_ms, store.append_ms"),
    layer("store.append_ms", "ms", Lower, "ingest_p50_ms, ingests_per_s on ingest_mix"),
    layer("store.compact_ms", "ms", Lower, "ingest_p90_ms, ingests_per_s on ingest_mix"),
    layer("store.reopen_ms", "ms", Lower, "ingest_p50_ms on ingest_mix"),
    layer("store.compactions", "count", Lower, "ingest_p90_ms"),
    layer(
        "store.bytes_per_user_byte",
        "ratio",
        Lower,
        "store.open_ms, store.append_ms as the lake grows",
    ),
    layer("trace.coverage", "ratio", Higher, "none (quality of the budget table)"),
    layer("trace.overhead_ratio", "ratio", Lower, "none (cost of recording spans)"),
];

/// The end-to-end definition for `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;
    use gent_serve::Json;

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let list =
            |key: &str| doc.get(key).and_then(Json::as_array).unwrap_or_else(|| panic!("{key}"));
        let s = |v: &Json, key: &str| {
            v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key}")).to_string()
        };

        let workloads: Vec<(String, String)> =
            list("workloads").iter().map(|w| (s(w, "name"), s(w, "why"))).collect();
        let specs: Vec<(String, String)> =
            SPECS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, specs);
        for (_, why) in &workloads {
            assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {why}");
        }

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    s(m, "name"),
                    s(m, "unit"),
                    s(m, "better"),
                    m.get("bound").and_then(Json::as_f64).expect("bound"),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into(), m.bound))
            .collect();
        assert_eq!(e2e, expected);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(layers, expected);
        assert_eq!(
            doc.get("paths").and_then(Json::as_array).map(|p| p.len()),
            Some(1),
            "the benchmark lives in one directory"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
