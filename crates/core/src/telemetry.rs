//! Cached handles into the global `gent-obs` metrics registry.
//!
//! Registration takes the registry mutex once per process (behind the
//! `OnceLock`); the pipeline's hot paths only ever touch the returned
//! atomics, so instrumentation stays off the profile — the CI-gated
//! `obs_overhead` bench in `gent-bench` holds instrumented
//! `matrix_traversal` within 5% of uninstrumented.

use gent_obs::{Counter, Histogram, LATENCY_BOUNDS_US};
use std::sync::{Arc, OnceLock};

/// Every instrument the pipeline records into, registered once.
pub(crate) struct Instruments {
    /// `gent_pipeline_stage_duration_us{stage="discovery"}` — first-stage
    /// retrieval plus Set Similarity.
    pub stage_discovery: Arc<Histogram>,
    /// `…{stage="set_similarity"}` — the Set Similarity sub-stage alone.
    pub stage_set_similarity: Arc<Histogram>,
    /// `…{stage="expand"}` — Algorithm 5 join-path search and joins, with
    /// the matrix alignment of every expansion.
    pub stage_expand: Arc<Histogram>,
    /// `…{stage="expand_candidate"}` — one keyless candidate's path search
    /// plus join folding inside Expand.
    pub stage_expand_candidate: Arc<Histogram>,
    /// `…{stage="traversal"}` — Expand + matrix init + greedy rounds.
    pub stage_traversal: Arc<Histogram>,
    /// `…{stage="integration"}` — Algorithm 2.
    pub stage_integration: Arc<Histogram>,
    /// `gent_pipeline_reclaims_total` — reclamations run.
    pub reclaims: Arc<Counter>,
    /// `gent_discovery_candidates_verified_total` — candidate tables run
    /// through Set Similarity's row-level verification.
    pub candidates_verified: Arc<Counter>,
    /// `gent_discovery_anchors_tried_total` — verification anchors that
    /// aligned rows and had their column support counted.
    pub anchors_tried: Arc<Counter>,
    /// `gent_discovery_aligned_rows_scanned_total` — candidate rows read
    /// while counting support (a low-cardinality anchor aligns thousands).
    pub aligned_rows_scanned: Arc<Counter>,
    /// `gent_traversal_rounds_total` — greedy rounds across all reclaims.
    pub rounds: Arc<Counter>,
    /// `gent_traversal_rows_rescored_total` — dirty-row kernel rescores.
    pub rows_rescored: Arc<Counter>,
    /// `gent_traversal_candidates_pruned_total` — candidates skipped by
    /// the admissible upper bound.
    pub candidates_pruned: Arc<Counter>,
    /// `gent_expand_paths_considered_total` — partial join paths examined
    /// by Expand's best-first search.
    pub expand_paths: Arc<Counter>,
    /// `gent_expand_memo_hits_total` — sub-joins answered from Expand's
    /// path-suffix memo.
    pub expand_memo_hits: Arc<Counter>,
    /// `gent_expand_candidates_dropped_total` — keyless candidates Expand
    /// dropped (no usable join path to the key).
    pub expand_candidates_dropped: Arc<Counter>,
    /// `gent_expand_dedup_total` — expanded tables dropped as duplicates of
    /// an already-produced relation.
    pub expand_dedup: Arc<Counter>,
    /// `gent_expand_pairs_aligned_total` — joined rows handed to matrix
    /// alignment as (left row, right row) index pairs, never built.
    pub expand_pairs_aligned: Arc<Counter>,
    /// `gent_expand_rows_materialised_total` — joined rows Expand and the
    /// traversal did build: suffix-memo folds, oversize left folds, and the
    /// expansions the rounds selected.
    pub expand_rows_materialised: Arc<Counter>,
    /// `gent_expand_columns_hashed_total` — column facts (cell hashes,
    /// distinct runs) Expand and matrix alignment asked a table for and
    /// that call had to compute: a lake column's first use in its
    /// generation, or a table built inside the request.
    pub expand_columns_hashed: Arc<Counter>,
    /// `gent_expand_columns_reused_total` — column facts found on the
    /// table's row storage, computed by an earlier call or request.
    pub expand_columns_reused: Arc<Counter>,
    /// `gent_integration_rows_offered_total` — rows of the originating
    /// tables handed to integration.
    pub integration_rows_offered: Arc<Counter>,
    /// `gent_integration_rows_selected_total` — the rows of those that
    /// ProjectSelect kept (their key is one of the source's).
    pub integration_rows_selected: Arc<Counter>,
}

/// The process-wide instrument set (registered on first use).
pub(crate) fn instruments() -> &'static Instruments {
    static CELL: OnceLock<Instruments> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = gent_obs::registry();
        let stage = |s: &'static str| {
            reg.histogram(
                "gent_pipeline_stage_duration_us",
                "Wall-clock time per pipeline stage (microseconds)",
                &[("stage", s)],
                LATENCY_BOUNDS_US,
            )
        };
        Instruments {
            stage_discovery: stage("discovery"),
            stage_set_similarity: stage("set_similarity"),
            stage_expand: stage("expand"),
            stage_expand_candidate: stage("expand_candidate"),
            stage_traversal: stage("traversal"),
            stage_integration: stage("integration"),
            reclaims: reg.counter(
                "gent_pipeline_reclaims_total",
                "Reclamations run by this process",
                &[],
            ),
            candidates_verified: reg.counter(
                "gent_discovery_candidates_verified_total",
                "Candidate tables run through row-level verification",
                &[],
            ),
            anchors_tried: reg.counter(
                "gent_discovery_anchors_tried_total",
                "Verification anchors that aligned rows and had their support counted",
                &[],
            ),
            aligned_rows_scanned: reg.counter(
                "gent_discovery_aligned_rows_scanned_total",
                "Candidate rows read while counting anchor support",
                &[],
            ),
            rounds: reg.counter(
                "gent_traversal_rounds_total",
                "Greedy traversal rounds across all reclamations",
                &[],
            ),
            rows_rescored: reg.counter(
                "gent_traversal_rows_rescored_total",
                "Dirty-row kernel rescores across all reclamations",
                &[],
            ),
            candidates_pruned: reg.counter(
                "gent_traversal_candidates_pruned_total",
                "Candidate scorings skipped by the admissible upper bound",
                &[],
            ),
            expand_paths: reg.counter(
                "gent_expand_paths_considered_total",
                "Partial join paths examined by Expand's best-first search",
                &[],
            ),
            expand_memo_hits: reg.counter(
                "gent_expand_memo_hits_total",
                "Sub-joins answered from Expand's path-suffix memo",
                &[],
            ),
            expand_candidates_dropped: reg.counter(
                "gent_expand_candidates_dropped_total",
                "Keyless candidates dropped for lack of a usable join path",
                &[],
            ),
            expand_dedup: reg.counter(
                "gent_expand_dedup_total",
                "Expanded tables dropped as duplicates of an existing relation",
                &[],
            ),
            expand_pairs_aligned: reg.counter(
                "gent_expand_pairs_aligned_total",
                "Joined rows aligned as row-index pairs without being built",
                &[],
            ),
            expand_rows_materialised: reg.counter(
                "gent_expand_rows_materialised_total",
                "Joined rows built: suffix-memo folds, oversize folds, selected expansions",
                &[],
            ),
            expand_columns_hashed: reg.counter(
                "gent_expand_columns_hashed_total",
                "Column facts (cell hashes, distinct runs) computed by the call that asked",
                &[],
            ),
            expand_columns_reused: reg.counter(
                "gent_expand_columns_reused_total",
                "Column facts found on the table's shared row storage",
                &[],
            ),
            integration_rows_offered: reg.counter(
                "gent_integration_rows_offered_total",
                "Rows of the originating tables handed to integration",
                &[],
            ),
            integration_rows_selected: reg.counter(
                "gent_integration_rows_selected_total",
                "Originating rows ProjectSelect kept: their key is one of the source's",
                &[],
            ),
        }
    })
}
