//! End-to-end test of the `gent serve` daemon: boot it on an ephemeral
//! port over a real snapshot, fire concurrent `POST /reclaim` requests at
//! it, and require the answers to be *byte-for-byte identical* to the
//! one-shot `gent reclaim --lake` CLI path over the same snapshot.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use gen_t::core::GenTConfig;
use gen_t::serve::{Json, LakeService, RetryClient, RetryPolicy, ServeConfig, Server};
use gen_t::store::{LakeSource, SnapshotFile};
use gen_t::table::{csv, key::ensure_key};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gent-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// Run the `gent` CLI in-process, returning its stdout.
fn cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    gent_cli::run(&args, &mut out).expect("cli run");
    String::from_utf8(out).expect("utf8 cli output")
}

/// One request over a fresh connection, no retries; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let policy = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
    let response =
        RetryClient::with_policy(addr, policy).request(method, path, body).expect("request");
    (response.status, response.body)
}

/// Send one request over an already-open connection, asking the daemon to
/// keep it alive, and read exactly one response (headers +
/// `Content-Length` bytes) — the socket stays usable for the next request.
/// Returns (status, connection-header-value, body).
fn http_keep_alive(
    stream: &TcpStream,
    reader: &mut std::io::BufReader<&TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, String) {
    use std::io::BufRead;
    let mut w = stream;
    write!(
        w,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut head = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).expect("read header line");
        if line == "\r\n" || line.is_empty() {
            break;
        }
        head.push_str(&line);
    }
    let status: u16 =
        head.split_whitespace().nth(1).and_then(|t| t.parse().ok()).expect("status line");
    let connection = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("connection:").map(str::to_string))
        .map(|v| v.trim().to_string())
        .unwrap_or_default();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_string))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length header");
    let mut payload = vec![0u8; content_length];
    reader.read_exact(&mut payload).expect("read body");
    (status, connection, String::from_utf8(payload).expect("utf8 body"))
}

/// Re-render a response body with the per-request `timings` field removed,
/// so deterministic payloads can be compared across requests.
fn without_timings(body: &str) -> String {
    match Json::parse(body).expect("response json") {
        Json::Object(fields) => {
            Json::Object(fields.into_iter().filter(|(k, _)| k != "timings").collect()).render()
        }
        other => other.render(),
    }
}

#[test]
fn daemon_matches_one_shot_cli_byte_for_byte() {
    // ── Build one snapshot both paths will use. ─────────────────────────
    let gen_dir = scratch("suite");
    cli(&["generate", gen_dir.to_str().unwrap(), "--benchmark", "tp-tr-small", "--seed", "7"]);
    let lake_dir = gen_dir.join("lake");
    let snap = scratch("lake.gentlake");
    cli(&["lake", "build", lake_dir.to_str().unwrap(), "--out", snap.to_str().unwrap()]);

    // The source: the first generated reclamation case, with the key the
    // CLI would mine — pinned explicitly so both paths align identically.
    let src_csv = gen_dir.join("sources").join("S1.csv");
    assert!(src_csv.is_file(), "generated suite must include sources/S1.csv");
    let mut source = csv::read_csv_file(&src_csv).expect("read source csv");
    assert!(ensure_key(&mut source), "a key must be minable from the generated source");
    let key_names: Vec<String> =
        source.schema().key_names().iter().map(|s| s.to_string()).collect();
    let key_spec = key_names.join(",");

    // ── One-shot CLI path: reclaim --lake, write the reclaimed CSV. ─────
    let cli_out = scratch("cli-reclaimed.csv");
    let stdout = cli(&[
        "reclaim",
        src_csv.to_str().unwrap(),
        "--lake",
        snap.to_str().unwrap(),
        "--key",
        &key_spec,
        "--out",
        cli_out.to_str().unwrap(),
    ]);
    let cli_bytes = std::fs::read(&cli_out).expect("cli reclaimed csv");
    let cli_eis: f64 = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("EIS:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("EIS line in cli output");

    // ── Boot the daemon on an ephemeral port over the same snapshot. ────
    let loaded = SnapshotFile(snap.clone()).load_lake().expect("open snapshot");
    let service = LakeService::new(loaded, GenTConfig::default(), snap.display().to_string());
    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), threads: 4, ..ServeConfig::default() };
    let server = Server::bind(&cfg, service).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle().expect("handle");
    let runner = std::thread::spawn(move || server.run());

    let (status, health) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "healthz: {health}");

    // ── ≥ 8 concurrent POST /reclaim requests with the same source. ─────
    let request_body =
        Json::Object(vec![("source".to_string(), gen_t::serve::table_to_json(&source))]).render();
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let body = request_body.clone();
            std::thread::spawn(move || http(addr, "POST", "/reclaim", &body))
        })
        .collect();
    let responses: Vec<(u16, String)> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    for (i, (status, body)) in responses.iter().enumerate() {
        assert_eq!(*status, 200, "request {i} failed: {body}");
        let v = Json::parse(body).expect("response json");

        // Every response carries the pipeline's wall-clock breakdown…
        let timings = v.get("timings").expect("reclaim response carries `timings`");
        for field in ["discovery_ms", "traversal_ms", "integration_ms", "total_ms"] {
            let val = timings.get(field).and_then(Json::as_f64);
            assert!(val.is_some_and(|v| v >= 0.0), "request {i}: bad timings.{field}: {val:?}");
        }
        // …and the traversal's greedy-round counters. On a real lake the
        // loop runs at least one round and fills its row cache, and the
        // counters are deterministic — identical across identical requests.
        for field in ["traversal_rounds", "rows_rescored", "candidates_pruned"] {
            let val = timings.get(field).and_then(Json::as_i64);
            assert!(val.is_some_and(|v| v >= 0), "request {i}: bad timings.{field}: {val:?}");
        }
        assert!(
            timings.get("traversal_rounds").and_then(Json::as_i64).unwrap() >= 1,
            "request {i}: the greedy loop must have run"
        );
        assert!(
            timings.get("rows_rescored").and_then(Json::as_i64).unwrap() >= 1,
            "request {i}: the row cache was never filled"
        );

        // Metrics agree with the CLI run (the CLI prints 3 decimals).
        let eis = v.get("metrics").unwrap().get("eis").and_then(Json::as_f64).expect("eis");
        assert!((eis - cli_eis).abs() < 5e-4, "request {i}: served EIS {eis} vs CLI EIS {cli_eis}");

        // The reclaimed table, rendered back to CSV, is byte-for-byte the
        // CLI's --out file.
        let reclaimed = gen_t::serve::table_from_json(v.get("reclaimed").expect("reclaimed table"))
            .expect("reclaimed parses back into a table");
        let served_csv = scratch(&format!("served-reclaimed-{i}.csv"));
        csv::write_csv_file(&reclaimed, Path::new(&served_csv)).expect("write served csv");
        let served_bytes = std::fs::read(&served_csv).expect("read served csv");
        assert_eq!(
            served_bytes, cli_bytes,
            "request {i}: served reclaimed table differs from the one-shot CLI output"
        );
    }

    // All concurrent responses are identical to each other, too — modulo
    // the per-request `timings` field, which genuinely varies run to run.
    let canonical = without_timings(&responses[0].1);
    for (status, body) in &responses[1..] {
        assert_eq!(*status, responses[0].0);
        assert_eq!(without_timings(body), canonical, "concurrent responses must not diverge");
    }

    // ── Keep-alive: one reused connection answers repeated reclaims, each
    //    byte-identical (modulo timings) to the fresh-connection responses,
    //    with the daemon advertising the reuse. ──────────────────────────
    let stream = TcpStream::connect(addr).expect("connect keep-alive client");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut reader = std::io::BufReader::new(&stream);
    for i in 0..3 {
        let (status, connection, body) =
            http_keep_alive(&stream, &mut reader, "POST", "/reclaim", &request_body);
        assert_eq!(status, 200, "keep-alive request {i}: {body}");
        assert_eq!(connection, "keep-alive", "keep-alive request {i} must advertise reuse");
        assert_eq!(
            without_timings(&body),
            canonical,
            "keep-alive request {i} diverged from the fresh-connection answer"
        );
    }
    // The same socket still serves other endpoints, then closes when the
    // client stops asking for keep-alive.
    let (status, connection, health) = http_keep_alive(&stream, &mut reader, "GET", "/healthz", "");
    assert_eq!(status, 200, "healthz on reused socket: {health}");
    assert_eq!(connection, "keep-alive");
    drop(reader);
    drop(stream);

    handle.stop();
    runner.join().unwrap().expect("server run");
}

/// The zero-copy open acceptance for the daemon: `/healthz` and
/// `/lake/stat` answer without decoding a single table or LSH band, the
/// lazy-decode gauge and per-endpoint latency histograms are reported and
/// move, and a reclaim only materializes the tables it actually touched.
#[test]
fn stat_endpoints_decode_nothing_and_report_latency() {
    let gen_dir = scratch("lazy-suite");
    cli(&["generate", gen_dir.to_str().unwrap(), "--benchmark", "tp-tr-small", "--seed", "7"]);
    let snap = scratch("lazy-lake.gentlake");
    cli(&[
        "lake",
        "build",
        gen_dir.join("lake").to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
        "--lsh",
    ]);

    let loaded = SnapshotFile(snap.clone()).load_lake().expect("open snapshot");
    assert_eq!(loaded.lake.tables_decoded(), 0, "open must decode nothing");
    let service = LakeService::new(loaded, GenTConfig::default(), snap.display().to_string());
    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), threads: 2, ..ServeConfig::default() };
    let server = Server::bind(&cfg, service).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle().expect("handle");
    let runner = std::thread::spawn(move || server.run());

    let stat = |label: &str| -> Json {
        let (status, body) = http(addr, "GET", "/lake/stat", "");
        assert_eq!(status, 200, "{label}: {body}");
        Json::parse(&body).expect("stat json")
    };
    let gauge = |v: &Json, k: &str| v.get(k).and_then(Json::as_i64).expect("gauge");

    // Health + stat leave the lake fully undecoded.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let v = stat("fresh");
    let total = gauge(&v, "tables_total");
    assert!(total > 0);
    assert_eq!(gauge(&v, "tables_decoded"), 0, "stat endpoints must not decode tables");
    assert_eq!(v.get("lsh_decoded"), Some(&Json::Bool(false)), "stat must not decode bands");
    assert!(gauge(&v, "lsh_columns") > 0, "band metadata available without decode");

    // Latency histograms exist for every endpoint and already saw traffic.
    let latency = v.get("latency").expect("latency histograms in /lake/stat");
    for endpoint in ["healthz", "lake_stat", "reclaim", "other"] {
        let h = latency.get(endpoint).unwrap_or_else(|| panic!("latency.{endpoint}"));
        assert!(h.get("count").and_then(Json::as_i64).is_some(), "{endpoint}.count");
        assert!(h.get("mean_ms").and_then(Json::as_f64).is_some(), "{endpoint}.mean_ms");
        assert!(
            h.get("buckets").and_then(Json::as_array).is_some_and(|b| !b.is_empty()),
            "{endpoint}.buckets"
        );
    }
    let healthz_count =
        latency.get("healthz").unwrap().get("count").and_then(Json::as_i64).unwrap();
    assert!(healthz_count >= 1, "healthz request observed, got {healthz_count}");

    // One reclaim decodes the tables it touches — and only those.
    let mut source = csv::read_csv_file(&gen_dir.join("sources").join("S1.csv")).expect("source");
    assert!(ensure_key(&mut source));
    let body =
        Json::Object(vec![("source".to_string(), gen_t::serve::table_to_json(&source))]).render();
    let (status, reclaim_body) = http(addr, "POST", "/reclaim", &body);
    assert_eq!(status, 200, "{reclaim_body}");
    let v = stat("after reclaim");
    let decoded = gauge(&v, "tables_decoded");
    assert!(decoded > 0, "the reclaim materialized its candidates");
    assert!(decoded <= total);
    let reclaim_count = v
        .get("latency")
        .unwrap()
        .get("reclaim")
        .unwrap()
        .get("count")
        .and_then(Json::as_i64)
        .unwrap();
    assert_eq!(reclaim_count, 1, "reclaim latency observed");

    handle.stop();
    runner.join().unwrap().expect("server run");
}

/// Live ingest end-to-end: `POST /admin/ingest` appends tables to a
/// served snapshot as crash-safe delta frames, they become reclaimable
/// without a restart (generation bump observable), survive an explicit
/// compaction, and are still there when a *fresh* daemon reopens the file.
#[test]
fn ingest_goes_live_survives_compaction_and_reopen() {
    use gen_t::serve::Router;
    use gen_t::table::{Table, Value as V};

    let snap = scratch("ingest-live.gentlake");
    let rows = |tag: &str| (0..8).map(|i| vec![V::Int(i), V::str(format!("{tag}_{i}"))]).collect();
    let lake = gen_t::discovery::DataLake::from_tables(vec![
        Table::build("base_a", &["id", "val"], &["id"], rows("a")).unwrap(),
        Table::build("base_b", &["id", "val"], &["id"], rows("b")).unwrap(),
    ]);
    gen_t::store::snapshot::save(&snap, &lake, None).expect("save");

    let boot = |snap: &PathBuf| {
        let mut b = Router::builder(GenTConfig::default());
        b.add_snapshot("live", snap).expect("boot");
        let cfg = ServeConfig { addr: "127.0.0.1:0".into(), threads: 2, ..ServeConfig::default() };
        let server = Server::bind_router(&cfg, b.build().unwrap()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.handle().expect("handle");
        let runner = std::thread::spawn(move || server.run());
        (addr, handle, runner)
    };
    let (addr, handle, runner) = boot(&snap);

    // Ingest one inline table; it must answer with a bumped generation.
    let ingest = r#"{"tables": [{"name": "fresh", "columns": ["id", "val"],
        "rows": [[0, "f_0"], [1, "f_1"], [2, "f_2"]]}]}"#;
    let (status, body) = http(addr, "POST", "/admin/ingest", ingest);
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).expect("ingest json");
    assert_eq!(v.get("appended").and_then(Json::as_i64), Some(1));
    assert_eq!(v.get("tables").and_then(Json::as_i64), Some(3));
    assert_eq!(v.get("generation").and_then(Json::as_i64), Some(1));
    assert_eq!(v.get("frames").and_then(Json::as_i64), Some(1));

    // The table is reclaimable immediately, without any restart.
    let reclaim = r#"{"source_name": "fresh", "key": ["id"]}"#;
    let (status, first) = http(addr, "POST", "/reclaim", reclaim);
    assert_eq!(status, 200, "{first}");

    // Compacting folds the frame log; the answer does not change.
    let (status, body) = http(addr, "POST", "/admin/compact", r#"{"lake": "live"}"#);
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).expect("compact json");
    assert_eq!(v.get("folded").and_then(Json::as_i64), Some(1));
    let (status, compacted) = http(addr, "POST", "/reclaim", reclaim);
    assert_eq!(status, 200, "{compacted}");
    assert_eq!(without_timings(&compacted), without_timings(&first));

    handle.stop();
    runner.join().unwrap().expect("server run");

    // A fresh daemon over the same file still serves the ingested table —
    // the append was durable, not a memory-only overlay.
    let (addr, handle, runner) = boot(&snap);
    let (status, reopened) = http(addr, "POST", "/reclaim", reclaim);
    assert_eq!(status, 200, "{reopened}");
    assert_eq!(without_timings(&reopened), without_timings(&first));
    handle.stop();
    runner.join().unwrap().expect("server run");
}

/// Degraded serving end-to-end: against a snapshot with one corrupt table
/// section, a `--degraded` daemon answers reclaims on unaffected tables
/// **byte-identically** to a clean daemon over the pristine file, while
/// the quarantined table's lookups answer a structured 410.
#[test]
fn degraded_daemon_serves_unaffected_tables_byte_identically() {
    use gen_t::serve::Router;
    use gen_t::table::{Table, Value as V};

    let pristine = scratch("degraded-pristine.gentlake");
    let damaged = scratch("degraded-damaged.gentlake");
    let rows = |tag: &str| (0..10).map(|i| vec![V::Int(i), V::str(format!("{tag}_{i}"))]).collect();
    let lake = gen_t::discovery::DataLake::from_tables(vec![
        Table::build("doomed", &["id", "val"], &["id"], rows("doomed")).unwrap(),
        Table::build("healthy", &["id", "val"], &["id"], rows("healthy")).unwrap(),
    ]);
    gen_t::store::snapshot::save(&pristine, &lake, None).expect("save");

    // Damage a copy: flip a byte mid-way through `doomed`'s section.
    let mut bytes = std::fs::read(&pristine).unwrap();
    let header = gen_t::store::snapshot::stat(&pristine).unwrap().header;
    let (dir, _) =
        gen_t::store::SectionDirV3::decode(&bytes, header.n_tables as usize, header.has_lsh())
            .unwrap();
    let t0 = &dir.tables[0].range;
    bytes[(t0.offset + t0.len / 2) as usize] ^= 0x08;
    std::fs::write(&damaged, &bytes).unwrap();

    let boot = |snap: &PathBuf, degraded: bool| {
        let mut b = Router::builder(GenTConfig::default());
        b.set_degraded(degraded);
        b.add_snapshot("lake", snap).expect("boot");
        let cfg = ServeConfig { addr: "127.0.0.1:0".into(), threads: 2, ..ServeConfig::default() };
        let server = Server::bind_router(&cfg, b.build().unwrap()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.handle().expect("handle");
        let runner = std::thread::spawn(move || server.run());
        (addr, handle, runner)
    };
    let reclaim = r#"{"source_name": "healthy", "key": ["id"]}"#;

    // The clean daemon's answer over the pristine file is the oracle.
    let (addr, handle, runner) = boot(&pristine, false);
    let (status, clean_answer) = http(addr, "POST", "/reclaim", reclaim);
    assert_eq!(status, 200, "{clean_answer}");
    handle.stop();
    runner.join().unwrap().expect("server run");

    // A strict open of the damaged file succeeds (per-section checksums
    // verify on first decode, not at open) but forcing the corrupt table
    // must yield a structured error — never a silent wrong answer.
    {
        let strict = SnapshotFile(damaged.clone()).load_lake().expect("lazy open");
        assert!(
            strict.lake.decode_all(1).is_err(),
            "forcing the corrupt section must surface the checksum failure"
        );
    }

    // The degraded daemon serves the unaffected table byte-identically…
    let (addr, handle, runner) = boot(&damaged, true);
    let (status, degraded_answer) = http(addr, "POST", "/reclaim", reclaim);
    assert_eq!(status, 200, "{degraded_answer}");
    assert_eq!(
        without_timings(&degraded_answer),
        without_timings(&clean_answer),
        "degraded serving must not change unaffected answers"
    );
    // …and answers the quarantined table with a structured 410.
    let (status, body) =
        http(addr, "POST", "/reclaim", r#"{"source_name": "doomed", "key": ["id"]}"#);
    assert_eq!(status, 410, "{body}");
    let v = Json::parse(&body).expect("structured 410");
    assert_eq!(
        v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("quarantined"),
        "{body}"
    );
    handle.stop();
    runner.join().unwrap().expect("server run");
}

/// A `Write` sink shareable across threads, so the test can watch
/// `cmd_serve`'s boot lines while the daemon thread keeps running.
#[derive(Clone, Default)]
struct SharedOut(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl Write for SharedOut {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedOut {
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

/// The full multi-lake story through the real CLI surface: `gent serve`
/// with three repeated `--lake` flags (bare path and `name=path` forms),
/// per-request routing at two named lakes, and a hot reload driven by
/// `gent admin reload` — plus its failure mode.
#[test]
fn three_lake_daemon_routes_and_reloads_via_cli() {
    let gen_dir = scratch("trio-suite");
    cli(&["generate", gen_dir.to_str().unwrap(), "--benchmark", "tp-tr-small", "--seed", "7"]);
    let alpha = scratch("alpha.gentlake");
    cli(&[
        "lake",
        "build",
        gen_dir.join("lake").to_str().unwrap(),
        "--out",
        alpha.to_str().unwrap(),
    ]);
    let beta = scratch("beta-snap.gentlake");
    let gamma = scratch("gamma-snap.gentlake");
    std::fs::copy(&alpha, &beta).expect("copy beta");
    std::fs::copy(&alpha, &gamma).expect("copy gamma");

    // Boot the daemon exactly as an operator would, on an ephemeral port.
    let out = SharedOut::default();
    {
        let mut out = out.clone();
        let args: Vec<String> = [
            "serve",
            "--lake",
            alpha.to_str().unwrap(),
            "--lake",
            &format!("beta={}", beta.display()),
            "--lake",
            &format!("gamma={}", gamma.display()),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        std::thread::spawn(move || gent_cli::run(&args, &mut out));
    }
    let addr: SocketAddr = {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let text = out.text();
            if let Some(line) = text.lines().find(|l| l.contains("serving 3 lake(s)")) {
                break line
                    .rsplit("http://")
                    .next()
                    .and_then(|a| a.trim().parse().ok())
                    .unwrap_or_else(|| panic!("unparseable serve banner: {line}"));
            }
            assert!(std::time::Instant::now() < deadline, "daemon never booted:\n{text}");
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    // `GET /lakes`: all three routes, bare path named from its file stem,
    // the first flag the default.
    let (status, body) = http(addr, "GET", "/lakes", "");
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).expect("lakes json");
    assert_eq!(v.get("default").and_then(Json::as_str), Some("alpha"));
    let names: Vec<&str> = v
        .get("lakes")
        .and_then(Json::as_array)
        .expect("lakes array")
        .iter()
        .filter_map(|l| l.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["alpha", "beta", "gamma"]);

    // Route a reclaim at two *named* (non-default) lakes; they are copies
    // of one snapshot, so the answers agree byte for byte.
    let mut source = csv::read_csv_file(&gen_dir.join("sources").join("S1.csv")).expect("source");
    assert!(ensure_key(&mut source));
    let table = gen_t::serve::table_to_json(&source);
    let [via_gamma, via_beta] = ["gamma", "beta"].map(|lake| {
        let body = Json::Object(vec![
            ("lake".to_string(), Json::str(lake)),
            ("source".to_string(), table.clone()),
        ])
        .render();
        let (status, routed) = http(addr, "POST", "/reclaim", &body);
        assert_eq!(status, 200, "{lake}: {routed}");
        without_timings(&routed)
    });
    assert_eq!(via_gamma, via_beta);

    // Hot-reload lake beta through the operator command; the daemon answers
    // with the bumped generation and `/lakes` agrees.
    let reload_out = cli(&[
        "admin",
        "reload",
        beta.to_str().unwrap(),
        "--addr",
        &addr.to_string(),
        "--lake",
        "beta",
    ]);
    // The first stdout line is the daemon's raw response body; the retrying
    // client may append parenthesised operator notes after it.
    let reload_body = reload_out.lines().next().expect("reload output");
    let v = Json::parse(reload_body.trim()).expect("reload response json");
    assert_eq!(v.get("lake").and_then(Json::as_str), Some("beta"));
    assert_eq!(v.get("generation").and_then(Json::as_i64), Some(1));
    assert!(
        reload_out.contains("(lake generation is now 1)"),
        "operator note missing: {reload_out}"
    );
    let (_, body) = http(addr, "GET", "/lakes", "");
    let generations: Vec<i64> = Json::parse(&body)
        .unwrap()
        .get("lakes")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|l| l.get("generation").and_then(Json::as_i64))
        .collect();
    assert_eq!(generations, [0, 1, 0], "only beta reloaded");

    // The failure mode: a missing snapshot answers 422, the CLI surfaces
    // the structured error and exits non-zero — and the daemon stays up.
    let mut err_out = Vec::new();
    let args: Vec<String> =
        ["admin", "reload", "/nonexistent/nope.gentlake", "--addr", &addr.to_string()]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let err = gent_cli::run(&args, &mut err_out).expect_err("reload of a missing file must fail");
    assert!(err.to_string().contains("422"), "{err}");
    assert!(String::from_utf8_lossy(&err_out).contains("reload_failed"));
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "daemon must survive a failed reload");
}
