//! # gent-store — a persistent, indexed data-lake store
//!
//! Gen-T's pipeline assumes a long-lived data lake queried by many source
//! tables, yet building a [`gent_discovery::DataLake`] is all cold-start
//! work: every cell is scanned for the inverted value index, and the LSH
//! retriever rehashes every column. Systems the paper compares against
//! (JOSIE-style exact containment, MATE-style join search) are viable
//! precisely because their indexes are built *once* and persisted. This
//! crate gives the reproduction the same property:
//!
//! * [`snapshot`] — a versioned, checksummed on-disk format
//!   (`"GENTLAKE"` magic) holding the tables **plus** their derived
//!   structures: the inverted value index and, optionally, the LSH
//!   Ensemble bands. [`snapshot::save`] / [`snapshot::load`] /
//!   [`snapshot::stat`];
//! * [`ingest`] — parallel lake construction over scoped threads,
//!   producing bit-identical structures to sequential `push_table`;
//! * [`source`] — the [`LakeSource`] trait with [`InMemory`] (cold) and
//!   [`SnapshotFile`] (warm) implementations, so pipelines can take
//!   "a lake from wherever" without caring which;
//! * [`mod@format`] — the container header shared by save/load/stat.
//!
//! The codec primitives live in [`gent_table::binary`]; this crate owns the
//! container layout and the discovery warm-start wiring
//! ([`gent_discovery::DataLake::from_parts`],
//! [`gent_discovery::LshEnsembleIndex::from_export`]).
//!
//! ```no_run
//! use gent_store::{snapshot, InMemory, LakeSource, SnapshotFile};
//! # fn main() -> Result<(), gent_store::StoreError> {
//! # let tables = vec![];
//! // Ingest once…
//! let built = InMemory::new(tables).load_lake()?;
//! snapshot::save("lake.gentlake".as_ref(), &built.lake, built.lsh.force()?)?;
//! // …reopen lazily: no table cells decode until a reclaim touches them.
//! let warm = SnapshotFile("lake.gentlake".into()).load_lake()?;
//! assert_eq!(warm.lake.tables_decoded(), 0);
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

pub mod delta;
pub mod error;
pub mod format;
pub mod fsck;
pub mod ingest;
pub mod snapshot;
pub mod source;
pub(crate) mod telemetry;

pub use delta::{append_tables, compact, frame_count, AppendOutcome};
pub use error::StoreError;
pub use format::{
    SectionDirV3, SectionEntry, SectionRange, SnapshotHeader, SNAPSHOT_FORMAT_VERSION,
};
pub use fsck::{fsck, fsck_repair, FsckProblem, FsckReport};
pub use ingest::{ingest_tables, IngestOptions, IngestedLake};
pub use snapshot::{load_degraded, LoadedLake, LshSlot, QuarantinedTable, SnapshotStat};
pub use source::{InMemory, LakeSource, SnapshotFile};

/// Convenience: open just the [`gent_discovery::DataLake`] from a snapshot,
/// discarding any stored LSH index.
///
/// # Examples
///
/// ```no_run
/// # fn main() -> Result<(), gent_store::StoreError> {
/// let lake = gent_store::open_lake("lake.gentlake".as_ref())?;
/// println!("{} tables, {} indexed values", lake.len(), lake.index_len());
/// # Ok(()) }
/// ```
pub fn open_lake(path: &std::path::Path) -> Result<gent_discovery::DataLake, StoreError> {
    Ok(snapshot::load(path)?.lake)
}

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
