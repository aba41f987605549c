//! Where a lake comes from: the [`LakeSource`] abstraction.
//!
//! Discovery used to have exactly one construction path — build everything
//! in memory from a `Vec<Table>`. The store adds a second: reopen a
//! persisted snapshot. Callers that only need "a lake, however it is
//! obtained" (the CLI's `reclaim`, the bench harness) take a `LakeSource`
//! and stay agnostic:
//!
//! * [`InMemory`] — ingest tables now (parallel scans),
//! * [`SnapshotFile`] — decode a `lake build` snapshot, warm-starting the
//!   inverted index without rehashing a value.

use std::path::PathBuf;

use gent_table::Table;

use crate::error::StoreError;
use crate::ingest::ingest_tables;
use crate::snapshot::{self, LoadedLake};

/// A source a [`gent_discovery::DataLake`] can be realised from.
pub trait LakeSource {
    /// Produce the lake.
    fn load_lake(self) -> Result<LoadedLake, StoreError>;
}

/// Build the lake in memory from tables (the cold path), scanning them on
/// every available core.
#[derive(Debug, Clone, Default)]
pub struct InMemory {
    /// The tables to ingest.
    pub tables: Vec<Table>,
}

impl InMemory {
    /// Ingest `tables`.
    pub fn new(tables: Vec<Table>) -> Self {
        InMemory { tables }
    }
}

impl LakeSource for InMemory {
    fn load_lake(self) -> Result<LoadedLake, StoreError> {
        let lake = ingest_tables(self.tables, 0);
        Ok(LoadedLake { lake, quarantined: Vec::new(), n_frames: 0 })
    }
}

/// Reopen a snapshot written by [`crate::snapshot::write()`] (the warm path).
#[derive(Debug, Clone)]
pub struct SnapshotFile(pub PathBuf);

impl LakeSource for SnapshotFile {
    fn load_lake(self) -> Result<LoadedLake, StoreError> {
        snapshot::load(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

    fn tables() -> Vec<Table> {
        vec![
            Table::build("x", &["a"], &[], (0..12).map(|i| vec![V::Int(i)]).collect()).unwrap(),
            Table::build("y", &["b"], &[], (6..18).map(|i| vec![V::Int(i)]).collect()).unwrap(),
        ]
    }

    #[test]
    fn in_memory_and_snapshot_sources_agree() {
        let cold = InMemory::new(tables()).load_lake().unwrap();
        let path =
            std::env::temp_dir().join(format!("gent-store-source-{}.gentlake", std::process::id()));
        snapshot::write(&path, &cold.lake).unwrap();
        let warm = SnapshotFile(path).load_lake().unwrap();
        assert_eq!(warm.lake.len(), cold.lake.len());
        assert_eq!(warm.lake.postings(&V::Int(7)), cold.lake.postings(&V::Int(7)));
    }
}
