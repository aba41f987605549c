//! # gent-discovery — data-lake discovery substrate for Gen-T
//!
//! Gen-T's first phase (§V-A) retrieves *candidate tables* from the lake:
//! tables sharing enough values with the Source Table that they may have
//! contributed to it. The paper composes two stages:
//!
//! 1. a scalable first-stage retriever over the whole lake (the authors use
//!    Starmie; any data-driven top-k discovery system fits) — here the
//!    [`TableRetriever`] trait with an exact value-overlap implementation
//!    ([`OverlapRetriever`]), our documented substitution for Starmie,
//! 2. **Set Similarity** (Algorithm 3) with **Diversify Candidates**
//!    (Algorithm 4): per-source-column set-containment search (the
//!    JOSIE/MATE role, served by an inverted value index), diversification
//!    so near-duplicate tables don't crowd out complementary ones
//!    (Example 9), aligned-tuple verification, subsumed-candidate removal,
//!    and implicit schema matching by renaming candidate columns to the
//!    source columns they overlap.
//!
//! The [`DataLake`] type owns the tables plus the inverted index
//! `value → (table, column)` that both stages query.
//!
//! Two first-stage retrievers ship: the exact [`OverlapRetriever`] over the
//! inverted index, and [`LshRetriever`] — an LSH-Ensemble-style approximate
//! set-containment index (MinHash signatures, equi-depth set-size
//! partitions, banded hashing; the paper's reference \[31\]) for lakes where
//! exact indexing is too expensive. Both implement [`TableRetriever`].
//!
//! # Examples
//!
//! Build a lake, probe its inverted index, and run candidate discovery:
//!
//! ```
//! use gent_discovery::{set_similarity, DataLake, SetSimilarityConfig};
//! use gent_table::{Table, Value};
//!
//! let t = Table::build("people", &["id", "name"], &[],
//!     vec![vec![Value::Int(1), Value::str("Smith")],
//!          vec![Value::Int(2), Value::str("Brown")]]).unwrap();
//! let lake = DataLake::from_tables(vec![t]);
//!
//! // The inverted index: every distinct value → its (table, column) postings.
//! assert_eq!(lake.postings(&Value::str("Smith")).len(), 1);
//!
//! // Candidate discovery for a source table (Algorithms 3–4).
//! let source = Table::build("S", &["id", "name"], &["id"],
//!     vec![vec![Value::Int(1), Value::str("Smith")]]).unwrap();
//! let candidates = set_similarity(&lake, &source, None, &SetSimilarityConfig::default());
//! assert_eq!(candidates.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod frozen;
pub mod lake;
pub mod lsh;
pub mod minhash;
pub mod retriever;
pub mod set_similarity;

pub use frozen::FrozenIndex;
pub use lake::DataLake;
pub use lsh::{
    LshColumnExport, LshConfig, LshEnsembleIndex, LshIndexExport, LshMatch, LshPartitionExport,
    LshRetriever,
};
pub use minhash::{MinHashSignature, MinHasher};
pub use retriever::{OverlapRetriever, TableRetriever};
pub use set_similarity::{
    set_similarity, set_similarity_cached, Candidate, DiscoveryCache, SetSimilarityConfig,
    VerificationStats,
};
