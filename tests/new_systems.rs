//! Cross-crate integration tests for the extension systems: the SPJU query
//! engine driving source construction, first-stage retrieval feeding the
//! pipeline, and explanation/verification over real
//! reclamations.

use gen_t::discovery::{OverlapRetriever, TableRetriever};
use gen_t::explain::{explain, verify_table, TupleStatus, VerificationVerdict, VerifyConfig};
use gen_t::prelude::*;
use gen_t::query::{
    rewrite, Catalog, Predicate, Query, QueryClass, QueryGenConfig, RandomQueryGen,
};
use gen_t::table::key::ensure_key;

fn v(i: i64) -> Value {
    Value::Int(i)
}

/// A miniature TPC-H-flavoured catalog of joinable base tables.
fn base_catalog() -> Catalog {
    let nation = Table::build(
        "nation",
        &["n_key", "n_name", "r_key"],
        &[],
        (0..8).map(|i| vec![v(i), Value::str(format!("nation{i}")), v(i % 2)]).collect(),
    )
    .unwrap();
    let region = Table::build(
        "region",
        &["r_key", "r_name"],
        &[],
        vec![vec![v(0), Value::str("east")], vec![v(1), Value::str("west")]],
    )
    .unwrap();
    let customer = Table::build(
        "customer",
        &["c_key", "n_key", "c_name"],
        &[],
        (0..12).map(|i| vec![v(i), v(i % 8), Value::str(format!("cust{i}"))]).collect(),
    )
    .unwrap();
    Catalog::from_tables(vec![nation, region, customer])
}

/// Build a source table by running an SPJU query over the base catalog —
/// exactly how the paper constructs its benchmark sources — then reclaim it
/// from a lake holding the base tables.
#[test]
fn query_built_sources_are_reclaimable_from_their_base_tables() {
    let cat = base_catalog();
    let q = Query::scan("customer")
        .inner_join(Query::scan("nation"))
        .select(Predicate::cmp("c_key", gen_t::query::CmpOp::Le, v(7)))
        .project(&["c_key", "c_name", "n_name"]);
    let mut source = q.eval(&cat).unwrap();
    source.set_name("S");
    assert!(ensure_key(&mut source));

    let lake = DataLake::from_tables(cat.tables().cloned().collect());
    let res = GenT::new(GenTConfig::default()).reclaim(&source, &lake).unwrap();
    assert!(res.report.perfect, "EIS {} reclaimed:\n{}", res.eis, res.reclaimed);
}

/// The Theorem 8 rewriting of a benchmark-style query evaluates to the same
/// rows as the query itself over the same catalog.
#[test]
fn random_benchmark_queries_survive_rewriting() {
    let cat = base_catalog();
    let mut g = RandomQueryGen::new(&cat, QueryGenConfig::default(), 11);
    let mut checked = 0;
    for class in [QueryClass::ProjectSelectUnion, QueryClass::OneJoin] {
        for _ in 0..3 {
            let Some(q) = g.generate(class) else { continue };
            let direct = q.eval(&cat).unwrap();
            let rep = rewrite(&q, &cat).unwrap();
            let via = rep.eval(&cat).unwrap();
            // Compare as row sets over the direct result's column order.
            let map: Vec<usize> =
                direct.schema().columns().map(|c| via.schema().column_index(c).unwrap()).collect();
            let via_rows: std::collections::HashSet<Vec<Value>> =
                via.rows().iter().map(|r| map.iter().map(|&j| r[j].clone()).collect()).collect();
            let direct_rows: std::collections::HashSet<Vec<Value>> =
                direct.rows().iter().cloned().collect();
            assert_eq!(via_rows, direct_rows, "query {q}");
            checked += 1;
        }
    }
    assert!(checked >= 4, "too few queries generated: {checked}");
}

/// The first-stage retriever narrows a noisy lake to the fragments that
/// matter, and the pipeline reclaims from its output.
#[test]
fn overlap_first_stage_feeds_the_pipeline() {
    let source = Table::build(
        "S",
        &["id", "name", "score"],
        &["id"],
        (0..30).map(|i| vec![v(i), Value::str(format!("item{i}")), v(i * 7)]).collect(),
    )
    .unwrap();
    let names = Table::build(
        "names",
        &["id", "name"],
        &[],
        (0..30).map(|i| vec![v(i), Value::str(format!("item{i}"))]).collect(),
    )
    .unwrap();
    let scores = Table::build(
        "scores",
        &["id", "score"],
        &[],
        (0..30).map(|i| vec![v(i), v(i * 7)]).collect(),
    )
    .unwrap();
    let mut tables = vec![names, scores];
    for t in 0..40 {
        tables.push(
            Table::build(
                &format!("noise{t}"),
                &["a", "b"],
                &[],
                (0..20).map(|i| vec![v(10_000 + t * 100 + i), v(20_000 + i)]).collect(),
            )
            .unwrap(),
        );
    }
    let lake = DataLake::from_tables(tables);
    let top = OverlapRetriever.retrieve(&lake, &source, 5);
    assert!(top.contains(&0) && top.contains(&1), "top: {top:?}");

    // Reclaim from the retrieved tables only.
    let candidates: Vec<Table> = {
        use gen_t::discovery::{set_similarity, SetSimilarityConfig};
        set_similarity(&lake, &source, Some(&top), &SetSimilarityConfig::default())
            .into_iter()
            .map(|c| c.table)
            .collect()
    };
    let res = GenT::default().reclaim_from_candidates(&source, &candidates).unwrap();
    assert!(res.report.perfect, "EIS {}", res.eis);
}

/// Explanation of a partially-reclaimable source names exactly the missing
/// and contested pieces, and verification classifies correctly.
#[test]
fn explanation_and_verification_agree_with_reclamation() {
    let source = Table::build(
        "S",
        &["id", "name", "age"],
        &["id"],
        vec![
            vec![v(0), Value::str("Smith"), v(27)],
            vec![v(1), Value::str("Brown"), v(24)],
            vec![v(2), Value::str("Ghost"), v(99)], // not in the lake
        ],
    )
    .unwrap();
    let frag = Table::build(
        "frag",
        &["id", "name", "age"],
        &[],
        vec![vec![v(0), Value::str("Smith"), v(27)], vec![v(1), Value::str("Brown"), v(24)]],
    )
    .unwrap();
    let lake = DataLake::from_tables(vec![frag]);
    let res = GenT::default().reclaim(&source, &lake).unwrap();

    let e = explain(&source, &res.reclaimed, &res.originating);
    assert_eq!(e.n_perfect(), 2);
    assert_eq!(e.n_missing(), 1);
    assert_eq!(e.tuples[2].status, TupleStatus::Missing);
    // Provenance: the fragment supports Smith's and Brown's cells.
    assert!(e.provenance.n_supported() >= 4);

    let (verdict, _) =
        verify_table(&source, &res.reclaimed, &res.originating, &VerifyConfig::default());
    match verdict {
        VerificationVerdict::PartiallyVerified { missing_tuples, .. } => {
            assert_eq!(missing_tuples, 1);
        }
        other => panic!("expected partial verification, got {other:?}"),
    }
}

/// Keyless + normalisation combine: a keyless, differently-cased source is
/// still reclaimed once both extensions are applied.
#[test]
fn keyless_and_normalized_paths_compose() {
    use gen_t::table::NormalizeConfig;
    let loud = Table::build(
        "loud",
        &["id", "name"],
        &[],
        vec![vec![v(0), Value::str("ALPHA")], vec![v(1), Value::str("BETA")]],
    )
    .unwrap();
    let lake = DataLake::from_tables(vec![loud]);
    // Key-less, lower-case source.
    let source = Table::build(
        "S",
        &["id", "name"],
        &[],
        vec![vec![v(0), Value::str("alpha")], vec![v(1), Value::str("beta")]],
    )
    .unwrap();
    // Normalise manually, then go through the keyless path.
    let norm = NormalizeConfig::default();
    let nsource = norm.table(&source);
    let nlake = DataLake::from_tables(lake.tables_iter().map(|t| norm.table(t)).collect());
    let out = GenT::default().reclaim_keyless(&nsource, &nlake).unwrap();
    assert!(out.keyless_similarity > 0.99, "sim {}", out.keyless_similarity);
    assert!(out.result.report.perfect);
}
