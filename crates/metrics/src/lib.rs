//! # gent-metrics — similarity and divergence measures for table reclamation
//!
//! §IV-A of the paper defines how a *reclaimed* table is compared against
//! the Source Table, and §VI-A2 defines the evaluation metrics. All of them
//! live here:
//!
//! * [`instance_similarity`] — Eq. 2 (Alexe et al.'s measure, key-aligned),
//! * [`eis`] — Eq. 3, the Error-aware Instance Similarity the reclamation
//!   problem maximises,
//! * [`recall`] / [`precision`] / [`f1`] — tuple-level measures derived from
//!   ALITE's Tuple Difference Ratio,
//! * [`instance_divergence`] — `1 − instance similarity`,
//! * [`conditional_kl_divergence`] — Eq. 11–12, penalising erroneous values
//!   more than nulls,
//! * [`align`] — key-based tuple alignment shared by all of the above.
//!
//! Alignment requires the Source Table to declare a key (the paper's
//! standing assumption); the reclaimed table does **not** need to satisfy
//! that key — several reclaimed tuples may align to one source tuple, and
//! the instance measures take the best-scoring one.

#![warn(missing_docs)]

pub mod align;
pub mod divergence;
pub mod report;
pub mod similarity;
pub mod tuplewise;

pub use align::{align_by_key, best_aligned_rows, Alignment};
pub use divergence::{conditional_kl_divergence, instance_divergence, KlConfig};
pub use report::{average_reports, evaluate, MethodReport};
pub use similarity::{eis, eis_with_alignment, instance_similarity, perfectly_reclaimed};
pub use tuplewise::{f1, precision, recall, tuple_intersection};
