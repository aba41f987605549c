//! # gent-bench — the experiment harness for the Gen-T evaluation
//!
//! Reusable machinery behind the `experiments` binary and the Criterion
//! benches: run every method of §VI over a generated benchmark, collect the
//! per-source metric reports, and format them as the paper's tables.
//!
//! The experimental protocol mirrors §VI-A:
//!
//! 1. build the benchmark lake and its 26 (or per-corpus) source cases,
//! 2. per source, run Set Similarity **once** and hand the same candidate
//!    tables to every method (plus the known *integrating set* for the
//!    `w/ int. set` method variants),
//! 3. evaluate each method's conformed output with `gent-metrics`,
//! 4. average over sources; timeouts score as empty outputs and are counted
//!    separately.
//!
//! Cases run in parallel (crossbeam scoped threads) since every method is
//! deterministic and side-effect free.

#![warn(missing_docs)]

pub mod format;
pub mod harness;
pub mod promtext;
pub mod report;
pub mod soak;

/// Everything this crate's unit tests have logged so far. Some provoke
/// log lines on purpose (faults injected under the soak); the first call
/// installs one capture buffer for the whole test binary —
/// never cleared, so tests running in parallel cannot take it from each
/// other — and `cargo test`'s stderr stays quiet.
#[cfg(test)]
pub(crate) fn captured_logs() -> String {
    use std::sync::{Arc, Mutex, OnceLock};
    static SINK: OnceLock<Arc<Mutex<Vec<u8>>>> = OnceLock::new();
    gent_obs::sink_to_string(SINK.get_or_init(gent_obs::set_sink))
}

pub use format::markdown_table;
pub use harness::{
    aggregate, run_benchmark, AggregateRow, CandidateMode, CaseOutcome, HarnessConfig, MethodSpec,
};
pub use promtext::{parse_exposition, Exposition, Sample};
pub use soak::{SoakConfig, SoakReport};
