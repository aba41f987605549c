//! # gent-core — the Gen-T table-reclamation algorithm
//!
//! The pipeline of §V of the paper (Figure 2):
//!
//! ```text
//! Source Table ──▶ Table Discovery ──▶ Matrix Traversal ──▶ Integration ──▶ Reclaimed Table
//!                  (gent-discovery)     (this crate)         (this crate)    + originating tables
//! ```
//!
//! * [`expand`](mod@expand) — Algorithm 5: join candidate tables that lack the source
//!   key onto candidates that carry it, via a max-weight join-path search
//!   with cardinality-estimated edge weights,
//! * [`matrix`] — the three-valued alignment matrices of §V-A3 (Eq. 4) and
//!   the `Combine` operation (Eq. 5) that *simulates* table integration
//!   without performing it,
//! * [`traversal`] — Algorithm 1: greedy matrix traversal refining the
//!   candidate set to the *originating tables*, with [`round`]'s
//!   incremental `RoundScorer` (cached per-row scores, dirty-row
//!   rescoring, admissible upper bounds) driving the greedy rounds,
//! * [`integration`] — Algorithm 2: the actual integration of the
//!   originating tables with `{⊎, σ, π, κ, β}`, with labeled source nulls
//!   and similarity-gated κ/β,
//! * [`pipeline`] — the [`GenT`] entry point tying discovery + reclamation
//!   together and reporting timings. The lake it reclaims against can be
//!   built in memory (`DataLake::from_tables`) or reopened warm from a
//!   `gent-store` snapshot (`gent_store::snapshot::load`) — retrieval results
//!   are identical either way,
//! * [`keyless`] — the §VII future-work extensions: keyless reclamation
//!   (key mining + surrogate keys + greedy key-free instance similarity)
//!   and normalised ("semantic") reclamation.

#![warn(missing_docs)]

pub mod cleaning;
pub mod config;
pub mod expand;
pub mod integration;
pub mod keyless;
pub mod matrix;
pub mod pipeline;
pub mod round;
pub(crate) mod telemetry;
pub mod traversal;

pub use cleaning::{impute, CleanedReclamation, Imputation, ImputationRule, ImputeConfig};
pub use config::GenTConfig;
pub use expand::{expand, expand_with_stats, ExpandStats};
pub use integration::{conform_schema, integrate, project_select};
pub use keyless::{keyless_instance_similarity, KeyStrategy, KeylessOutcome};
pub use matrix::{AlignmentMatrix, CombineScratch};
pub use pipeline::{GenT, GentError, ReclamationResult, Timings};
pub use round::{RoundScorer, RoundStats};
pub use traversal::{matrix_traversal, TraversalOutcome};
