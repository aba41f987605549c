//! # gent-store — a persistent, indexed data-lake store
//!
//! Gen-T's pipeline assumes a long-lived data lake queried by many source
//! tables, yet building a [`gent_discovery::DataLake`] is all cold-start
//! work: every cell is scanned for the inverted value index. Systems the paper compares against
//! (JOSIE-style exact containment, MATE-style join search) are viable
//! precisely because their indexes are built *once* and persisted. This
//! crate gives the reproduction the same property:
//!
//! * [`snapshot`] — a versioned, checksummed on-disk format
//!   (`"GENTLAKE"` magic) holding the tables **plus** their derived
//!   structure, the inverted value index. [`snapshot::write()`] /
//!   [`snapshot::load`] / [`snapshot::stat`];
//! * [`mod@format`] — the container header shared by write/load/stat;
//! * [`delta`] and [`mod@fsck`] — append-only delta frames with compaction,
//!   and offline verification and repair.
//!
//! A lake is built one way and opened one way: in memory by
//! [`gent_discovery::DataLake::from_tables`], from a file by
//! [`snapshot::load`] (or [`load_degraded`], which quarantines damaged
//! tables instead of failing). The codec primitives live in
//! [`gent_table::binary`]; this crate owns the container layout and the
//! discovery warm-start wiring
//! ([`gent_discovery::DataLake::from_slots_deferred`]).
//!
//! ```no_run
//! use gent_discovery::DataLake;
//! use gent_store::snapshot;
//! # fn main() -> Result<(), gent_store::StoreError> {
//! # let tables = vec![];
//! // Build once…
//! let built = DataLake::from_tables(tables);
//! snapshot::write("lake.gentlake".as_ref(), &built)?;
//! // …reopen lazily: no table cells decode until a reclaim touches them.
//! let warm = snapshot::load("lake.gentlake".as_ref())?;
//! assert_eq!(warm.lake.tables_decoded(), 0);
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

pub mod delta;
pub mod error;
pub mod format;
pub mod fsck;
pub mod snapshot;
pub(crate) mod telemetry;

pub use delta::{append_tables, compact, frame_count, AppendOutcome};
pub use error::StoreError;
pub use format::{
    SectionDirV3, SectionEntry, SectionRange, SnapshotHeader, SNAPSHOT_FORMAT_VERSION,
};
pub use fsck::{fsck, fsck_repair, FsckProblem, FsckReport};
pub use snapshot::{load_degraded, LoadedLake, QuarantinedTable, SnapshotStat};

/// The name a snapshot registers under when the caller does not pick one:
/// the file stem, sanitised to the serve tier's routing alphabet
/// (alphanumerics, `-`, `_`; anything else becomes `_`; an empty stem
/// becomes `lake`). `gent serve --lake a.gentlake --lake b.gentlake` routes
/// by these names.
///
/// # Examples
///
/// ```
/// assert_eq!(gent_store::default_lake_name("/data/tp-tr.gentlake".as_ref()), "tp-tr");
/// assert_eq!(gent_store::default_lake_name("weird name!.gentlake".as_ref()), "weird_name_");
/// ```
pub fn default_lake_name(path: &std::path::Path) -> String {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let cleaned: String = stem
        .chars()
        .map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    if cleaned.is_empty() {
        "lake".to_string()
    } else {
        cleaned
    }
}
