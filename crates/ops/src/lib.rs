//! # gent-ops — the integration operator algebra of Gen-T
//!
//! §IV-B of the paper fixes a set of *representative operators*
//! `L = {⊎, σ, π, κ, β}` — outer union, selection, projection,
//! complementation and subsumption — and proves (Theorem 8, Appendix A) that
//! together they can express every SELECT-PROJECT-JOIN-UNION query over
//! duplicate-free, minimal tables. Gen-T's table-integration phase explores
//! only this set; the baselines additionally use the classical joins and
//! ALITE's full disjunction.
//!
//! This crate implements all of them over [`gent_table::Table`]:
//!
//! * [`unary`] — σ selection, π projection, β subsumption, κ complementation,
//!   and the *minimal form* (dedup + β + κ) the theorems assume,
//! * [`union`] — ⊎ outer union and inner union,
//! * [`join`] — natural inner join, left join, full outer join, cross
//!   product (used by `Expand`, the baselines, and the Theorem 8 property
//!   tests),
//! * [`fd`] — full disjunction, the integration primitive of ALITE
//!   (Khatiwada et al., VLDB 2022), with an explicit work budget because FD
//!   is exponential in the worst case (the paper's ALITE baseline times out
//!   on the large benchmarks for exactly this reason).
//!
//! All operators treat `Value::LabeledNull` as a non-null value — that is
//! the entire point of labeled nulls (see `gent-core`'s `LabelSourceNulls`).

#![warn(missing_docs)]

pub mod error;
pub mod fd;
pub mod join;
pub mod unary;
pub mod union;

pub use error::OpError;
pub use fd::{full_disjunction, saturating_complementation, FdBudget};
pub use join::{
    cross_product, full_outer_join, inner_join, inner_join_indexed, inner_join_pairs, join_layout,
    left_join, left_key_hashes, JoinIndex, JoinLayout,
};
pub use unary::{complementation, minimal_form, project, project_named, select, subsumption};
pub use union::{inner_union, outer_union, outer_union_all};
