//! # gen-t — Table Reclamation in Data Lakes
//!
//! Umbrella crate re-exporting the public API of the Gen-T workspace, a Rust
//! reproduction of *"Gen-T: Table Reclamation in Data Lakes"* (Fan, Shraga &
//! Miller, ICDE 2024).
//!
//! Given a **Source Table** and a **data lake** (a large repository of
//! tables), Gen-T finds a set of *originating tables* that, when integrated
//! with select / project / outer-union / subsumption / complementation,
//! reproduce the Source Table as closely as possible, and returns both the
//! originating tables and the reclaimed table.
//!
//! The workspace is layered: [`table`] (values/schemas/tables + CSV and
//! binary codecs) → [`ops`] (the operator algebra) → [`discovery`] (inverted
//! value index, first-stage retrieval, Set Similarity) → [`core`] (matrices,
//! traversal, integration — Gen-T itself), with [`metrics`], [`explain`],
//! [`query`], [`datagen`], and [`baselines`] alongside. [`store`] adds the
//! persistence layer: versioned lake snapshots (`*.gentlake`) that persist a
//! lake *with* its discovery indexes, so long-lived lakes are ingested once
//! and reopened at memory-copy speed (see `examples/persistent_lake.rs` and
//! `gent lake build`). [`serve`] turns a snapshot into a long-running
//! reclamation daemon: `gent serve` opens one warm lake and answers
//! `POST /reclaim` requests over HTTP (see `examples/serve_client.rs`).
//!
//! ```
//! use gen_t::prelude::*;
//!
//! // A tiny lake: two fragments of a people table.
//! let ages = Table::build("ages", &["name", "age"], &[],
//!     vec![vec![Value::str("Smith"), Value::Int(27)],
//!          vec![Value::str("Brown"), Value::Int(24)]]).unwrap();
//! let ids = Table::build("ids", &["id", "name"], &[],
//!     vec![vec![Value::Int(0), Value::str("Smith")],
//!          vec![Value::Int(1), Value::str("Brown")]]).unwrap();
//!
//! // The source we want to reclaim (key column: id).
//! let source = Table::build("source", &["id", "name", "age"], &["id"],
//!     vec![vec![Value::Int(0), Value::str("Smith"), Value::Int(27)],
//!          vec![Value::Int(1), Value::str("Brown"), Value::Int(24)]]).unwrap();
//!
//! let lake = DataLake::from_tables(vec![ages, ids]);
//! let result = GenT::new(GenTConfig::default()).reclaim(&source, &lake).unwrap();
//! assert!(result.eis >= 0.99); // perfectly reclaimed
//! ```

#![warn(missing_docs)]

pub use gent_baselines as baselines;
pub use gent_core as core;
pub use gent_datagen as datagen;
pub use gent_discovery as discovery;
pub use gent_explain as explain;
/// Seeded failpoints for robustness testing — disabled (a single relaxed
/// atomic load) unless a harness arms them; see `docs/robustness.md`.
pub use gent_faults as faults;
pub use gent_metrics as metrics;
pub use gent_ops as ops;
pub use gent_query as query;
pub use gent_serve as serve;
pub use gent_store as store;
pub use gent_table as table;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use gent_core::{GenT, GenTConfig, ReclamationResult};
    pub use gent_discovery::DataLake;
    pub use gent_explain::{explain, verify_table, VerificationVerdict, VerifyConfig};
    pub use gent_metrics::{eis, instance_similarity, precision, recall};
    pub use gent_table::{Schema, Table, Value};
}
