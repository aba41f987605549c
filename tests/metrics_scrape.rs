//! The CI scrape check: boot a real daemon over a real snapshot, drive
//! traffic at it, then fetch `GET /metrics` over the socket and hold the
//! output to the strict `gent_bench::promtext` parser — every line must
//! parse as Prometheus text exposition 0.0.4 and every metric family the
//! observability layer promises (pipeline stages, store opens, per-endpoint
//! HTTP counters, queue depth, decode gauges) must be present with samples.

use std::net::SocketAddr;
use std::path::PathBuf;

use gen_t::core::GenTConfig;
use gen_t::serve::{
    ClientResponse, Json, LakeService, RetryClient, RetryPolicy, ServeConfig, Server,
};
use gen_t::store::snapshot;
use gen_t::table::{csv, key::ensure_key};
use gent_bench::promtext;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gent-metrics-scrape-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn cli(args: &[&str]) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    gent_cli::run(&args, &mut out).expect("cli run");
}

/// One request over a fresh connection, no retries.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> ClientResponse {
    let policy = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
    RetryClient::with_policy(addr, policy).request(method, path, body).expect("request")
}

#[test]
fn metrics_endpoint_survives_the_strict_parser() {
    // A real snapshot, opened the way `gent serve` opens it.
    let gen_dir = scratch("suite");
    cli(&["generate", gen_dir.to_str().unwrap(), "--benchmark", "tp-tr-small", "--seed", "7"]);
    let snap = scratch("lake.gentlake");
    cli(&[
        "lake",
        "build",
        gen_dir.join("lake").to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
    ]);

    let loaded = snapshot::load(&snap).expect("open snapshot");
    let service = LakeService::new(loaded, GenTConfig::default(), snap.display().to_string());
    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), threads: 2, ..ServeConfig::default() };
    let server = Server::bind(&cfg, service).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle().expect("handle");
    let runner = std::thread::spawn(move || server.run());

    // Traffic across every route class: success, reclaim (exercises the
    // pipeline spans feeding the global registry), and an error.
    assert_eq!(http(addr, "GET", "/healthz", "").status, 200);
    assert_eq!(http(addr, "GET", "/lake/stat", "").status, 200);
    let mut source = csv::read_csv_file(&gen_dir.join("sources").join("S1.csv")).expect("source");
    assert!(ensure_key(&mut source));
    let body =
        Json::Object(vec![("source".to_string(), gen_t::serve::table_to_json(&source))]).render();
    let reclaim = http(addr, "POST", "/reclaim", &body);
    assert_eq!(reclaim.status, 200, "{}", reclaim.body);
    assert_eq!(http(addr, "GET", "/lakes", "").status, 200);
    assert_eq!(http(addr, "GET", "/no/such/route", "").status, 404);

    // The scrape itself.
    let scrape = http(addr, "GET", "/metrics", "");
    let text = &scrape.body;
    assert_eq!(scrape.status, 200, "{text}");
    assert!(
        scrape.header("content-type").is_some_and(|v| v.starts_with("text/plain")),
        "exposition must be served as text/plain: {:?}",
        scrape.headers
    );

    // Every line parses, and the promised families are all present.
    let exp = promtext::parse_exposition(text)
        .unwrap_or_else(|e| panic!("/metrics failed the parser: {e}"));
    exp.require_families(&[
        // pipeline (process-global registry, fed by the reclaim above)
        "gent_pipeline_stage_duration_us",
        "gent_pipeline_reclaims_total",
        "gent_discovery_candidates_verified_total",
        "gent_discovery_anchors_tried_total",
        "gent_discovery_aligned_rows_scanned_total",
        "gent_traversal_rounds_total",
        "gent_traversal_rows_rescored_total",
        "gent_traversal_candidates_pruned_total",
        "gent_expand_paths_considered_total",
        "gent_expand_memo_hits_total",
        "gent_expand_candidates_dropped_total",
        "gent_expand_dedup_total",
        "gent_expand_pairs_aligned_total",
        "gent_expand_rows_materialised_total",
        "gent_expand_columns_hashed_total",
        "gent_expand_columns_reused_total",
        "gent_integration_rows_offered_total",
        "gent_integration_rows_selected_total",
        // store
        "gent_store_snapshot_opens_total",
        "gent_store_snapshot_open_bytes_total",
        "gent_store_snapshot_open_duration_us",
        // http (per-service registry)
        "gent_http_requests_total",
        "gent_http_errors_total",
        "gent_http_in_flight",
        "gent_http_request_duration_us",
        "gent_http_connections_total",
        "gent_http_keepalive_reuses_total",
        "gent_http_queue_depth",
        "gent_http_queue_depth_peak",
        "gent_http_shed_total",
        // lake decode state (one series per hosted lake)
        "gent_lake_tables_decoded",
        "gent_lake_tables_total",
        "gent_lake_quarantined_tables",
        "gent_uptime_seconds",
    ])
    .unwrap_or_else(|e| panic!("{e}\n--- exposition ---\n{text}"));
    // The batch endpoint and the approximate retriever are retired, and
    // their families with them.
    assert!(
        !exp.families
            .iter()
            .any(|(name, _)| name.starts_with("gent_batch") || name.contains("_lsh_")),
        "no retired family may be exposed:\n{text}"
    );

    // Spot-check the counters actually counted this test's traffic.
    assert_eq!(exp.value("gent_http_requests_total", &[("endpoint", "reclaim")]), Some(1.0));
    assert_eq!(exp.value("gent_http_requests_total", &[("endpoint", "lakes")]), Some(1.0));
    assert_eq!(exp.value("gent_http_errors_total", &[("endpoint", "other")]), Some(1.0));
    assert_eq!(exp.value("gent_pipeline_reclaims_total", &[]), Some(1.0));
    assert!(
        exp.value("gent_pipeline_stage_duration_us_count", &[("stage", "traversal")])
            .is_some_and(|v| v >= 1.0),
        "the reclaim must have fed the traversal stage histogram"
    );
    assert!(
        exp.value("gent_store_snapshot_opens_total", &[]).is_some_and(|v| v >= 1.0),
        "the snapshot open must have been counted"
    );
    assert!(
        exp.value("gent_discovery_candidates_verified_total", &[]).is_some_and(|v| v >= 1.0),
        "the reclaims verified at least one candidate at the row level"
    );
    // The expand counters register with the pipeline instruments, so they
    // render even when this lake's reclaims never drop or dedup a
    // candidate — presence plus a parsable value is the contract.
    assert!(
        exp.value("gent_expand_paths_considered_total", &[]).is_some(),
        "expand search-effort counter must be exposed"
    );
    let offered = exp.value("gent_integration_rows_offered_total", &[]).unwrap_or(0.0);
    let selected = exp.value("gent_integration_rows_selected_total", &[]).unwrap_or(0.0);
    assert!(
        offered >= 1.0 && selected <= offered,
        "ProjectSelect keeps a subset of the rows the reclaim offered: {selected} of {offered}"
    );
    assert!(
        exp.value("gent_lake_tables_decoded", &[("lake", "default")]).is_some_and(|v| v >= 1.0),
        "the reclaim decoded at least one table (per-lake labelled series)"
    );
    assert_eq!(
        exp.value("gent_lake_quarantined_tables", &[("lake", "default")]),
        Some(0.0),
        "a cleanly opened lake quarantines nothing"
    );

    // And the scrape is traced like any other request.
    assert!(
        scrape.header("x-request-id").is_some(),
        "/metrics must carry a request ID: {:?}",
        scrape.headers
    );

    handle.stop();
    runner.join().unwrap().expect("server run");
}

/// A daemon booted `--degraded` over a snapshot with one corrupt table
/// section: the quarantine gauge counts it, its lookups answer a
/// structured 410, and every healthy table keeps serving.
#[test]
fn degraded_daemon_reports_quarantine_and_keeps_serving() {
    use gen_t::serve::Router;
    use gen_t::table::{Table, Value as V};

    let snap = scratch("degraded.gentlake");
    let rows = |tag: &str| (0..12).map(|i| vec![V::Int(i), V::str(format!("{tag}_{i}"))]).collect();
    let lake = gen_t::discovery::DataLake::from_tables(vec![
        Table::build("doomed", &["id", "val"], &["id"], rows("doomed")).unwrap(),
        Table::build("healthy", &["id", "val"], &["id"], rows("healthy")).unwrap(),
    ]);
    gen_t::store::snapshot::write(&snap, &lake).expect("save");

    // Flip a byte in the middle of `doomed`'s section (tables serialize in
    // lake order), leaving everything else intact.
    let mut bytes = std::fs::read(&snap).unwrap();
    let header = gen_t::store::snapshot::stat(&snap).unwrap().header;
    let (dir, _) =
        gen_t::store::SectionDirV3::decode(&bytes, header.n_tables as usize, header.has_lsh())
            .unwrap();
    let t0 = &dir.tables[0].range;
    bytes[(t0.offset + t0.len / 2) as usize] ^= 0x20;
    std::fs::write(&snap, &bytes).unwrap();

    let mut builder = Router::builder(GenTConfig::default());
    builder.set_degraded(true);
    builder.add_snapshot("deg", &snap).expect("degraded boot");
    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), threads: 2, ..ServeConfig::default() };
    let server = Server::bind_router(&cfg, builder.build().unwrap()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle().expect("handle");
    let runner = std::thread::spawn(move || server.run());

    // The quarantined table answers a structured 410; the healthy one 200.
    let gone = http(addr, "POST", "/reclaim", r#"{"source_name": "doomed", "key": ["id"]}"#);
    let body = &gone.body;
    assert_eq!(gone.status, 410, "{body}");
    let v = Json::parse(body).expect("structured 410");
    assert_eq!(
        v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("quarantined"),
        "{body}"
    );
    // The daemon keeps serving: /lake/stat answers with the full table
    // count. (A full healthy-table reclaim — byte-identical to a clean
    // open — is asserted in serve_e2e.rs; a 200 reclaim here would bump
    // the process-global pipeline counters the sibling test pins.)

    // /lake/stat names the quarantined table; the gauge counts it.
    let stat = http(addr, "GET", "/lake/stat", "");
    assert_eq!(stat.status, 200);
    assert!(stat.body.contains("quarantined") && stat.body.contains("doomed"), "{}", stat.body);
    let scrape = http(addr, "GET", "/metrics", "");
    let text = &scrape.body;
    assert_eq!(scrape.status, 200);
    let exp = promtext::parse_exposition(text)
        .unwrap_or_else(|e| panic!("/metrics failed the parser: {e}"));
    assert_eq!(
        exp.value("gent_lake_quarantined_tables", &[("lake", "deg")]),
        Some(1.0),
        "--- exposition ---\n{text}"
    );

    handle.stop();
    runner.join().unwrap().expect("server run");
}
