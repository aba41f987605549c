//! Machine-readable bench reporting: `BENCH_pipeline.json`.
//!
//! Every CI-gated bench records its headline numbers here so the perf
//! trajectory is tracked *across PRs* instead of living in scrollback.
//! The file maps bench entry names to `{"ms": …, "gate_ratio": …}`:
//!
//! ```json
//! {
//!   "serve_smoke/warm_request": { "gate_ratio": 1.58, "ms": 50.1 },
//!   "traversal_hot/score_round": { "gate_ratio": 6.2, "ms": 3.4 }
//! }
//! ```
//!
//! * `ms` — the bench's point estimate in milliseconds: the median of its
//!   timed iterations, or the interleaved best-of-N minimum for the
//!   gate-style benches that already measure that way (minima are the
//!   noise-robust statistic on shared hardware).
//! * `gate_ratio` — for benches that assert a floor (fused vs materialize,
//!   warm vs cold), the measured ratio the gate checked. Plain trajectory
//!   entries go through [`record_vs_baseline`], which fills `gate_ratio`
//!   with `committed_baseline_ms / ms` (>1 = faster than the baseline) and
//!   warns on stderr past a ±25% drift — the file is a regression
//!   tripwire, not just a log. `null` appears only for an entry's first
//!   ever run (no baseline to compare against).
//!
//! Records merge into the existing file (other benches' entries survive)
//! and keys are written sorted, so reruns produce deterministic diffs. The
//! file lives at the workspace root; `GENT_BENCH_JSON` overrides the path.

use gent_serve::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Where the report lives: `$GENT_BENCH_JSON`, or `BENCH_pipeline.json` at
/// the workspace root.
pub fn report_path() -> PathBuf {
    if let Ok(p) = std::env::var("GENT_BENCH_JSON") {
        return PathBuf::from(p);
    }
    // CARGO_MANIFEST_DIR = crates/bench at compile time; the workspace root
    // is two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_pipeline.json")
}

/// Merge one bench entry into `BENCH_pipeline.json` (create the file if
/// missing, replace the entry if present, keep everything else).
pub fn record(name: &str, ms: f64, gate_ratio: Option<f64>) {
    let path = report_path();
    let mut entries: Vec<(String, Json)> = match std::fs::read_to_string(&path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Object(fields)) => fields,
            _ => Vec::new(), // unreadable → start over rather than fail the bench
        },
        Err(_) => Vec::new(),
    };
    entries.retain(|(k, _)| k != name);
    let ratio = match gate_ratio {
        Some(r) => Json::Float(r),
        None => Json::Null,
    };
    entries.push((
        name.to_string(),
        Json::Object(vec![("gate_ratio".into(), ratio), ("ms".into(), Json::Float(ms))]),
    ));
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let rendered = Json::Object(entries).render();
    if let Err(e) = std::fs::write(&path, rendered + "\n") {
        // Benches must not fail because the report is unwritable (e.g. a
        // read-only checkout); the console output still has the numbers.
        gent_obs::log(
            gent_obs::Level::Warn,
            "gent_bench::report",
            "BENCH_pipeline.json not written",
            &[("path", path.display().to_string().into()), ("error", e.to_string().into())],
        );
    }
}

/// The committed `ms` for `name`, if the report already has an entry — the
/// baseline a rerun is judged against.
pub fn baseline_ms(name: &str) -> Option<f64> {
    let text = std::fs::read_to_string(report_path()).ok()?;
    Json::parse(&text).ok()?.get(name)?.get("ms").and_then(Json::as_f64)
}

/// Allowed drift either side of the committed baseline before
/// [`record_vs_baseline`] warns.
pub const BASELINE_DRIFT_WARN: f64 = 0.25;

/// Merge one *trajectory* entry, judged against the committed baseline:
/// `gate_ratio` becomes `baseline_ms / ms` (so >1 means faster than the
/// committed number) and a drift past ±25% prints a loud stderr warning
/// with both numbers. First-ever runs (no committed entry) record a `null`
/// ratio. Returns the ratio for callers that want to gate harder.
pub fn record_vs_baseline(name: &str, ms: f64) -> Option<f64> {
    let baseline = baseline_ms(name);
    let ratio = baseline.map(|b| b / ms.max(1e-9));
    if let Some(b) = baseline {
        let drift = (ms - b) / b.max(1e-9);
        if drift.abs() > BASELINE_DRIFT_WARN {
            gent_obs::log(
                gent_obs::Level::Warn,
                "gent_bench::report",
                "bench drifted past the committed baseline; investigate or re-baseline deliberately",
                &[
                    ("bench", name.into()),
                    ("drift_pct", (drift * 100.0).into()),
                    ("baseline_ms", b.into()),
                    ("ms", ms.into()),
                ],
            );
        }
    }
    record(name, ms, ratio);
    ratio
}

/// Median wall-clock of `iters` runs of `f`, in milliseconds.
pub fn time_median_ms<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut samples: Vec<Duration> = Vec::with_capacity(iters.max(1));
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed());
    }
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_temp_report<R>(f: impl FnOnce(&PathBuf) -> R) -> R {
        let path = std::env::temp_dir()
            .join(format!(
                "gent-bench-report-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ))
            .with_extension("json");
        let _ = std::fs::remove_file(&path);
        std::env::set_var("GENT_BENCH_JSON", &path);
        let out = f(&path);
        std::env::remove_var("GENT_BENCH_JSON");
        let _ = std::fs::remove_file(&path);
        out
    }

    #[test]
    fn record_creates_merges_and_sorts() {
        with_temp_report(|path| {
            record("z/later", 2.0, None);
            record("a/earlier", 1.0, Some(3.5));
            let text = std::fs::read_to_string(path).unwrap();
            let v = Json::parse(&text).unwrap();
            let Json::Object(fields) = &v else { panic!("object") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, vec!["a/earlier", "z/later"], "keys sorted");
            let a = v.get("a/earlier").unwrap();
            assert_eq!(a.get("ms").and_then(Json::as_f64), Some(1.0));
            assert_eq!(a.get("gate_ratio").and_then(Json::as_f64), Some(3.5));
            assert!(matches!(v.get("z/later").unwrap().get("gate_ratio"), Some(Json::Null)));

            // Replacing an entry keeps the others.
            record("a/earlier", 9.0, Some(4.0));
            let v = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            let Json::Object(fields) = &v else { panic!("object") };
            assert_eq!(fields.len(), 2);
            assert_eq!(v.get("a/earlier").unwrap().get("ms").and_then(Json::as_f64), Some(9.0));
        });
    }

    #[test]
    fn baseline_comparison_fills_gate_ratio() {
        with_temp_report(|path| {
            // First run: no committed baseline → null ratio.
            assert_eq!(record_vs_baseline("e2e/case", 100.0), None);
            let v = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            assert!(matches!(v.get("e2e/case").unwrap().get("gate_ratio"), Some(Json::Null)));

            // Rerun: judged against the 100 ms now in the file — a −50 %
            // drift, which is logged.
            crate::captured_logs();
            let ratio = record_vs_baseline("e2e/case", 50.0).expect("baseline present");
            assert!(crate::captured_logs().contains("\"drift_pct\":-50"), "drift warning");
            assert!((ratio - 2.0).abs() < 1e-9, "100ms baseline / 50ms run = 2×, got {ratio}");
            let v = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            let stored = v.get("e2e/case").unwrap().get("gate_ratio").and_then(Json::as_f64);
            assert_eq!(stored, Some(ratio));
            assert_eq!(baseline_ms("e2e/case"), Some(50.0));
        });
    }

    #[test]
    fn time_median_is_positive() {
        let ms = time_median_ms(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(ms >= 0.0);
    }

    #[test]
    fn time_median_discards_closure_result() {
        // The closure's return value is irrelevant; only timing matters.
        let mut n = 0;
        let _ = time_median_ms(5, || n += 1);
        assert_eq!(n, 5);
    }
}
