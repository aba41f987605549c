//! Cached handles into the global `gent-obs` metrics registry.
//!
//! Mirrors `gent-core`'s telemetry module: registration locks once per
//! process, the open/decode paths only touch atomics afterwards.

use gent_obs::{Counter, Histogram, LATENCY_BOUNDS_US};
use std::sync::{Arc, OnceLock};

/// Every instrument the store records into, registered once.
pub(crate) struct Instruments {
    /// `gent_store_snapshot_opens_total` — snapshots opened.
    pub opens: Arc<Counter>,
    /// `gent_store_snapshot_open_bytes_total` — bytes read + checksummed
    /// across all opens.
    pub open_bytes: Arc<Counter>,
    /// `gent_store_snapshot_open_duration_us` — wall-clock per open
    /// (checksum pass + preamble decode; excludes the filesystem read for
    /// `load_buf` callers).
    pub open_duration: Arc<Histogram>,
    /// `gent_store_lsh_decodes_total` — LSH band sections actually decoded
    /// (a [`crate::LshSlot::force`] that hits the memoized cell does not
    /// count).
    pub lsh_decodes: Arc<Counter>,
    /// `gent_store_delta_appends_total` — delta frames appended to v3
    /// snapshots by this process.
    pub delta_appends: Arc<Counter>,
    /// `gent_store_torn_tails_recovered_total` — torn (uncommitted) tail
    /// frames detected and dropped during open or append recovery.
    pub torn_tails: Arc<Counter>,
    /// `gent_store_compactions_total` — delta frames folded back into a
    /// clean base file.
    pub compactions: Arc<Counter>,
}

/// The process-wide instrument set (registered on first use).
pub(crate) fn instruments() -> &'static Instruments {
    static CELL: OnceLock<Instruments> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = gent_obs::registry();
        Instruments {
            opens: reg.counter(
                "gent_store_snapshot_opens_total",
                "Snapshot files opened by this process",
                &[],
            ),
            open_bytes: reg.counter(
                "gent_store_snapshot_open_bytes_total",
                "Snapshot bytes read and checksummed across all opens",
                &[],
            ),
            open_duration: reg.histogram(
                "gent_store_snapshot_open_duration_us",
                "Wall-clock time per snapshot open (microseconds)",
                &[],
                LATENCY_BOUNDS_US,
            ),
            lsh_decodes: reg.counter(
                "gent_store_lsh_decodes_total",
                "LSH band sections decoded (memoized forces not counted)",
                &[],
            ),
            delta_appends: reg.counter(
                "gent_store_delta_appends_total",
                "Delta frames appended to v3 snapshots",
                &[],
            ),
            torn_tails: reg.counter(
                "gent_store_torn_tails_recovered_total",
                "Torn tail frames detected and dropped during recovery",
                &[],
            ),
            compactions: reg.counter(
                "gent_store_compactions_total",
                "Delta frames folded back into a clean base snapshot",
                &[],
            ),
        }
    })
}
