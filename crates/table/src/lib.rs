//! # gent-table — relational table substrate for Gen-T
//!
//! Gen-T (Fan, Shraga & Miller, ICDE 2024) operates over data-lake tables:
//! heterogeneous, nullable, often key-less relations. This crate provides the
//! in-memory representation those tables use throughout the workspace:
//!
//! * [`Value`] — a typed, nullable cell value with *labeled nulls* (needed by
//!   the `LabelSourceNulls` step of the integration algorithm and by full
//!   disjunction),
//! * [`Schema`] — named columns plus a possibly-composite key,
//! * [`Table`] — a row-major relation with builders, accessors and invariant
//!   checks, whose shared row storage also carries lazily computed per-column
//!   cell hashes ([`Table::column_hashes`]),
//! * [`csv`] — a small dependency-free CSV reader/writer so lakes can be
//!   persisted and inspected,
//! * [`binary`] — a stable, versioned, checksummed binary codec for values,
//!   schemas and tables; the foundation of `gent-store` snapshots, plus the
//!   lazily-decoded [`binary::TableSlot`] that snapshot-backed lakes hold,
//! * [`view`] — [`view::LakeBuf`] (one shared buffer per opened snapshot)
//!   and the zero-copy views into it that frozen structures borrow,
//! * [`key`] — key discovery for source tables (the paper assumes the Source
//!   Table has a key and cites mining techniques to find one; we ship a
//!   minimal-unique-column-set miner),
//! * [`fxhash`] — a local Fx-style fast hasher (per the Rust perf-book
//!   guidance for hot integer/short-string keyed maps) so we do not pull in
//!   an extra dependency.
//!
//! Everything downstream — the operator algebra (`gent-ops`), the discovery
//! index (`gent-discovery`), and Gen-T itself (`gent-core`) — consumes these
//! types.

#![warn(missing_docs)]

pub mod binary;
pub mod csv;
pub mod error;
pub mod fxhash;
pub mod key;
pub mod normalize;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;
pub mod view;

pub use error::TableError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use normalize::NormalizeConfig;
pub use schema::Schema;
pub use table::{
    cell_hash, cell_hash_is_null_like, column_facts_tally, fold_cell_hash, ColumnFactsTally,
    KeyValue, Table, NULL_CELL_HASH,
};
pub use value::Value;
