//! Error type for the store layer.

use gent_table::TableError;
use std::fmt;

/// Errors produced while saving, loading or ingesting lake snapshots.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure, with the offending path for context.
    Io {
        /// The path being read or written.
        path: String,
        /// The underlying error.
        message: String,
    },
    /// A table-layer failure (decode, schema rebuild).
    Table(TableError),
    /// The file is not a lake snapshot or has been damaged.
    Corrupt(String),
    /// A table is wider than the format stores: column indices are `u16`,
    /// so a snapshot table holds at most 65 535 columns. Refused before a
    /// byte is written — the file on disk is untouched and still loads.
    TooWide {
        /// The table's name.
        table: String,
        /// Its column count.
        columns: usize,
    },
    /// The snapshot was written by an incompatible format version.
    Version {
        /// Version found in the file.
        found: u16,
        /// Version this build reads.
        supported: u16,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "i/o error on `{path}`: {message}"),
            StoreError::Table(e) => write!(f, "table error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            StoreError::TooWide { table, columns } => write!(
                f,
                "table `{table}` has {columns} columns; a snapshot table holds at most {}",
                u16::MAX
            ),
            StoreError::Version { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads {supported})"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<TableError> for StoreError {
    fn from(e: TableError) -> Self {
        StoreError::Table(e)
    }
}

impl StoreError {
    /// Wrap an I/O error with its path.
    pub fn io(path: &std::path::Path, e: std::io::Error) -> Self {
        StoreError::Io { path: path.display().to_string(), message: e.to_string() }
    }
}
