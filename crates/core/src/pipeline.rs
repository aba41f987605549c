//! The [`GenT`] entry point: Source Table + Data Lake → reclaimed table +
//! originating tables (Figure 2).

use crate::config::GenTConfig;
use crate::integration::integrate;
use crate::traversal::matrix_traversal;
use gent_discovery::{
    set_similarity_cached, DataLake, DiscoveryCache, OverlapRetriever, TableRetriever,
};
use gent_metrics::{evaluate, MethodReport};
use gent_table::Table;
use std::time::{Duration, Instant};

/// Wall-clock breakdown of one reclamation, plus the traversal's greedy
/// round counters (how much work the incremental `RoundScorer` actually
/// did — and, via the pruned count, how much it provably skipped).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// First-stage retrieval + Set Similarity.
    pub discovery: Duration,
    /// Expand + matrix initialisation + traversal.
    pub traversal: Duration,
    /// Algorithm 2 integration.
    pub integration: Duration,
    /// Greedy rounds the traversal ran (accepted merges + the converge
    /// sweep).
    pub traversal_rounds: u32,
    /// Dirty-row kernel rescores across all rounds — a full rescan would
    /// have paid `rounds × candidates × rows`.
    pub rows_rescored: u64,
    /// Candidate scorings skipped because their admissible upper bound
    /// provably lost the round.
    pub candidates_pruned: u64,
    /// Partial join paths Expand's best-first search examined (heap pops,
    /// [`ExpandStats::paths_considered`](crate::ExpandStats)).
    pub expand_paths_considered: u64,
    /// Expand sub-joins answered from the path-suffix memo.
    pub expand_memo_hits: u64,
    /// Keyless candidates Expand dropped (no usable join path).
    pub expand_candidates_dropped: u64,
    /// Expanded tables dropped as duplicates of an existing relation.
    pub expand_dedup: u64,
}

impl Timings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.discovery + self.traversal + self.integration
    }
}

/// The output of a reclamation: Figure 2's two outputs plus evaluation
/// metadata.
#[derive(Debug, Clone)]
pub struct ReclamationResult {
    /// The reclaimed Source Table (schema identical to the source).
    pub reclaimed: Table,
    /// The originating tables, in selection order (expanded forms where
    /// Expand had to join them to reach the key).
    pub originating: Vec<Table>,
    /// How many candidate tables Set Similarity produced before traversal.
    pub candidates_considered: usize,
    /// EIS of the reclaimed table against the source.
    pub eis: f64,
    /// Full metric report against the source.
    pub report: MethodReport,
    /// Wall-clock breakdown.
    pub timings: Timings,
}

/// Errors from the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GentError {
    /// The source table declares no key (and none could be required of it).
    SourceHasNoKey,
    /// The lake's inverted index failed verification when first touched —
    /// a snapshot-loaded (v3) lake whose index section is corrupt. The
    /// message is the store's structured reason.
    IndexCorrupt(String),
}

impl std::fmt::Display for GentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GentError::SourceHasNoKey => {
                write!(f, "the source table must declare a (possibly composite) key")
            }
            GentError::IndexCorrupt(reason) => {
                write!(f, "the lake's inverted index failed verification: {reason}")
            }
        }
    }
}

impl std::error::Error for GentError {}

/// The Gen-T system: configure once, reclaim many sources.
#[derive(Debug, Clone, Default)]
pub struct GenT {
    config: GenTConfig,
}

impl GenT {
    /// Build with a configuration.
    pub fn new(config: GenTConfig) -> Self {
        GenT { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &GenTConfig {
        &self.config
    }

    /// Reclaim `source` from `lake`: discovery → matrix traversal →
    /// integration.
    pub fn reclaim(&self, source: &Table, lake: &DataLake) -> Result<ReclamationResult, GentError> {
        self.reclaim_excluding(source, lake, &[])
    }

    /// Like [`GenT::reclaim`] but never uses lake tables whose name is in
    /// `excluded` — the §VI-D protocol, where each web table is reclaimed
    /// from the *other* tables in the corpus.
    pub fn reclaim_excluding(
        &self,
        source: &Table,
        lake: &DataLake,
        excluded: &[&str],
    ) -> Result<ReclamationResult, GentError> {
        self.reclaim_excluding_cached(source, lake, excluded, &mut DiscoveryCache::new())
    }

    /// Like [`GenT::reclaim`], with discovery's index walks memoized in a
    /// caller-owned [`DiscoveryCache`] — bit-identical results, and the
    /// cache's hit / miss / verification counters afterwards (what the
    /// bench board's replay reads).
    pub fn reclaim_with_cache(
        &self,
        source: &Table,
        lake: &DataLake,
        cache: &mut DiscoveryCache,
    ) -> Result<ReclamationResult, GentError> {
        self.reclaim_excluding_cached(source, lake, &[], cache)
    }

    fn reclaim_excluding_cached(
        &self,
        source: &Table,
        lake: &DataLake,
        excluded: &[&str],
        cache: &mut DiscoveryCache,
    ) -> Result<ReclamationResult, GentError> {
        if !source.schema().has_key() {
            return Err(GentError::SourceHasNoKey);
        }
        // A v3 lake defers index verification to first touch; force it
        // here so a corrupt section is a structured error at the pipeline
        // boundary, not silently-empty discovery below.
        lake.ensure_index().map_err(GentError::IndexCorrupt)?;
        let ins = crate::telemetry::instruments();
        let t0 = Instant::now();
        let discovery_span = gent_obs::span_timed("discovery", ins.stage_discovery.clone());
        // First-stage retrieval only for large lakes (the TP-TR experiments
        // go straight to Set Similarity; SANTOS-Large/WDC need narrowing).
        let restrict: Option<Vec<usize>> = if lake.len() > self.config.first_stage_threshold {
            Some(OverlapRetriever.retrieve(lake, source, self.config.first_stage_k))
        } else if !excluded.is_empty() {
            Some((0..lake.len()).collect())
        } else {
            None
        };
        let restrict = restrict.map(|idx| {
            idx.into_iter()
                .filter(|&i| {
                    let name = lake.name_of(i).expect("index from lake");
                    !excluded.contains(&name)
                })
                .collect::<Vec<_>>()
        });
        let candidates = {
            let _span = gent_obs::span_timed("set_similarity", ins.stage_set_similarity.clone());
            set_similarity_cached(
                lake,
                source,
                restrict.as_deref(),
                &self.config.set_similarity,
                cache,
            )
        };
        let verified = cache.verification();
        ins.candidates_verified.add(verified.candidates_verified);
        ins.anchors_tried.add(verified.anchors_tried);
        ins.aligned_rows_scanned.add(verified.aligned_rows_scanned);
        let discovery = t0.elapsed();
        drop(discovery_span);
        let tables: Vec<Table> = candidates.into_iter().map(|c| c.table).collect();
        let mut result = self.reclaim_from_candidates(source, &tables)?;
        result.timings.discovery = discovery;
        Ok(result)
    }

    /// Reclaim `source` from an explicit candidate set (the "w/ int. set"
    /// experiment variants, and the path taken after discovery).
    pub fn reclaim_from_candidates(
        &self,
        source: &Table,
        candidates: &[Table],
    ) -> Result<ReclamationResult, GentError> {
        if !source.schema().has_key() {
            return Err(GentError::SourceHasNoKey);
        }
        let ins = crate::telemetry::instruments();
        ins.reclaims.inc();
        let t1 = Instant::now();
        let outcome = {
            let _span = gent_obs::span_timed("traversal", ins.stage_traversal.clone());
            matrix_traversal(source, candidates, &self.config)
        };
        let traversal = t1.elapsed();
        ins.rounds.add(u64::from(outcome.stats.rounds));
        ins.rows_rescored.add(outcome.stats.rows_rescored);
        ins.candidates_pruned.add(outcome.stats.candidates_pruned);

        let t2 = Instant::now();
        let reclaimed = {
            let _span = gent_obs::span_timed("integration", ins.stage_integration.clone());
            integrate(&outcome.originating, source, &self.config)
        };
        let integration = t2.elapsed();

        let report = evaluate(source, &reclaimed);
        Ok(ReclamationResult {
            eis: report.eis,
            report,
            reclaimed,
            originating: outcome.originating,
            candidates_considered: candidates.len(),
            timings: Timings {
                discovery: Duration::ZERO,
                traversal,
                integration,
                traversal_rounds: outcome.stats.rounds,
                rows_rescored: outcome.stats.rows_rescored,
                candidates_pruned: outcome.stats.candidates_pruned,
                expand_paths_considered: outcome.expand.paths_considered,
                expand_memo_hits: outcome.expand.memo_hits,
                expand_candidates_dropped: outcome.expand.candidates_dropped,
                expand_dedup: outcome.expand.dedup_dropped,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::Value as V;

    fn source() -> Table {
        Table::build(
            "S",
            &["ID", "Name", "Age", "Gender", "Education Level"],
            &["ID"],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Int(27), V::Null, V::str("Bachelors")],
                vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male"), V::str("Masters")],
                vec![
                    V::Int(2),
                    V::str("Wang"),
                    V::Int(32),
                    V::str("Female"),
                    V::str("High School"),
                ],
            ],
        )
        .unwrap()
    }

    /// The Figure 3 lake with original (unrenamed) column names.
    fn lake() -> DataLake {
        let a = Table::build(
            "A",
            &["id", "full_name", "edu"],
            &[],
            vec![
                vec![V::Int(0), V::str("Smith"), V::str("Bachelors")],
                vec![V::Int(1), V::str("Brown"), V::Null],
                vec![V::Int(2), V::str("Wang"), V::str("High School")],
            ],
        )
        .unwrap();
        let b = Table::build(
            "B",
            &["person", "years"],
            &[],
            vec![
                vec![V::str("Smith"), V::Int(27)],
                vec![V::str("Brown"), V::Int(24)],
                vec![V::str("Wang"), V::Int(32)],
            ],
        )
        .unwrap();
        let c = Table::build(
            "C",
            &["person", "sex"],
            &[],
            vec![
                vec![V::str("Smith"), V::str("Male")],
                vec![V::str("Brown"), V::str("Male")],
                vec![V::str("Wang"), V::str("Male")],
            ],
        )
        .unwrap();
        let d = Table::build(
            "D",
            &["id", "nm", "ag", "gen", "ed"],
            &[],
            vec![
                vec![V::Int(0), V::str("Smith"), V::Int(27), V::Null, V::str("Bachelors")],
                vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male"), V::str("Masters")],
                vec![V::Int(2), V::str("Wang"), V::Int(32), V::str("Female"), V::Null],
            ],
        )
        .unwrap();
        DataLake::from_tables(vec![a, b, c, d])
    }

    #[test]
    fn end_to_end_figure3() {
        let gen_t = GenT::default();
        let res = gen_t.reclaim(&source(), &lake()).unwrap();
        assert!(res.report.perfect, "reclaimed:\n{}", res.reclaimed);
        assert!((res.eis - 1.0).abs() < 1e-9);
        assert!(!res.originating.is_empty());
        assert!(res.candidates_considered >= 2);
    }

    #[test]
    fn timings_carry_traversal_round_counters() {
        let res = GenT::default().reclaim(&source(), &lake()).unwrap();
        assert!(res.timings.traversal_rounds >= 1, "{:?}", res.timings);
        assert!(res.timings.rows_rescored >= 1, "{:?}", res.timings);
    }

    #[test]
    fn cached_reclaim_matches_uncached_and_reuses_walks() {
        let gen_t = GenT::default();
        let plain = gen_t.reclaim(&source(), &lake()).unwrap();
        let mut cache = DiscoveryCache::new();
        let first = gen_t.reclaim_with_cache(&source(), &lake(), &mut cache).unwrap();
        let repeat = gen_t.reclaim_with_cache(&source(), &lake(), &mut cache).unwrap();
        assert!(cache.hits() > 0, "repeat reclaim must hit the discovery cache");
        for r in [&first, &repeat] {
            assert_eq!(r.reclaimed.rows(), plain.reclaimed.rows());
            assert_eq!(r.eis, plain.eis);
            assert_eq!(r.candidates_considered, plain.candidates_considered);
        }
    }

    #[test]
    fn keyless_source_is_an_error() {
        let s = Table::build("S", &["a"], &[], vec![]).unwrap();
        assert_eq!(GenT::default().reclaim(&s, &lake()).unwrap_err(), GentError::SourceHasNoKey);
    }

    #[test]
    fn empty_lake_reclaims_nothing() {
        let res = GenT::default().reclaim(&source(), &DataLake::from_tables(vec![])).unwrap();
        assert!(res.reclaimed.is_empty());
        assert_eq!(res.eis, 0.0);
        assert!(res.originating.is_empty());
    }

    #[test]
    fn with_integrating_set_matches_discovery_on_clean_lake() {
        // Handing the pipeline the already-renamed integrating set should
        // reclaim at least as well as full discovery.
        let gen_t = GenT::default();
        let via_lake = gen_t.reclaim(&source(), &lake()).unwrap();
        let int_set = vec![
            Table::build(
                "A",
                &["ID", "Name", "Education Level"],
                &[],
                vec![
                    vec![V::Int(0), V::str("Smith"), V::str("Bachelors")],
                    vec![V::Int(1), V::str("Brown"), V::Null],
                    vec![V::Int(2), V::str("Wang"), V::str("High School")],
                ],
            )
            .unwrap(),
            Table::build(
                "D",
                &["ID", "Name", "Age", "Gender", "Education Level"],
                &[],
                vec![
                    vec![V::Int(0), V::str("Smith"), V::Int(27), V::Null, V::str("Bachelors")],
                    vec![V::Int(1), V::str("Brown"), V::Int(24), V::str("Male"), V::str("Masters")],
                    vec![V::Int(2), V::str("Wang"), V::Int(32), V::str("Female"), V::Null],
                ],
            )
            .unwrap(),
        ];
        let via_set = gen_t.reclaim_from_candidates(&source(), &int_set).unwrap();
        assert!(via_set.report.perfect);
        assert!(via_lake.eis >= via_set.eis - 1e-9);
    }
}
