//! The hot-reload race suite: hammer a multi-lake daemon with concurrent
//! reclaims while `POST /admin/reload` swaps the snapshot under them —
//! against the same lake the traffic targets, and against a sibling lake.
//!
//! Invariants pinned here:
//! * zero 5xx (and in fact zero non-200) answers under the race;
//! * zero worker deaths — every client thread completes and the daemon
//!   still answers afterwards;
//! * every response is byte-valid JSON in the `/reclaim` wire shape;
//! * **snapshot atomicity** — each response's reclaimed rows come entirely
//!   from one snapshot generation (all `v1` or all `v2`, never a mix): an
//!   in-flight request finishes on the buffer it started on.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gent_core::GenTConfig;
use gent_discovery::DataLake;
use gent_serve::{ClientResponse, Json, RetryClient, RetryPolicy, Router, ServeConfig, Server};
use gent_table::{Table, Value as V};

/// Fault state is process-global; the fault-injected test below must not
/// overlap the hammer test (whose reloads would eat an armed trigger).
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// A lake whose every cell carries `tag`, so any response row reveals
/// which snapshot produced it.
fn tagged_lake(tag: &str) -> DataLake {
    let rows =
        |t: &str| (0..8).map(|i| vec![V::Int(i), V::str(format!("{t}_{i}"))]).collect::<Vec<_>>();
    DataLake::from_tables(vec![
        Table::build("marker", &["id", "val"], &["id"], rows(tag)).unwrap(),
        Table::build("aux", &["id", "val"], &["id"], rows(tag)).unwrap(),
    ])
}

fn save_snapshot(dir: &std::path::Path, name: &str, tag: &str) -> PathBuf {
    let path = dir.join(name);
    gent_store::snapshot::save(&path, &tagged_lake(tag), None).unwrap();
    path
}

/// One request over a fresh connection, no retries — a hammer that
/// retried would hide exactly the failures this suite exists to catch.
fn http_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> ClientResponse {
    let policy = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
    RetryClient::with_policy(addr, policy).request(method, path, body).expect("request")
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let response = http_full(addr, method, path, body);
    (response.status, response.body)
}

/// Every `val` cell of the reclaimed table must carry the same snapshot
/// tag; return it.
fn response_tag(body: &str) -> String {
    let v = Json::parse(body).unwrap_or_else(|e| panic!("unparseable response ({e}): {body}"));
    let rows = v
        .get("reclaimed")
        .and_then(|r| r.get("rows"))
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("response lacks reclaimed.rows: {body}"));
    assert!(!rows.is_empty(), "reclaimed table must not be empty: {body}");
    let mut tag: Option<String> = None;
    for row in rows {
        let cell = row.as_array().and_then(|r| r.get(1)).and_then(Json::as_str).unwrap();
        let row_tag = cell.split('_').next().unwrap().to_string();
        match &tag {
            None => tag = Some(row_tag),
            Some(t) => assert_eq!(
                t, &row_tag,
                "rows from two snapshot generations in one response: {body}"
            ),
        }
    }
    tag.unwrap()
}

#[test]
fn concurrent_reclaims_survive_hot_reloads() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("gent-reload-race-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v1 = save_snapshot(&dir, "v1.gentlake", "v1");
    let v2 = save_snapshot(&dir, "v2.gentlake", "v2");
    let other = save_snapshot(&dir, "other.gentlake", "other");

    let mut builder = Router::builder(GenTConfig::default());
    builder.add_snapshot("main", &v1).unwrap();
    builder.add_snapshot("other", &other).unwrap();
    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), threads: 4, ..ServeConfig::default() };
    let server = Server::bind_router(&cfg, builder.build().unwrap()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let runner = std::thread::spawn(move || server.run());

    let stop = Arc::new(AtomicBool::new(false));
    // Four hammer threads on the reloading lake, two on the sibling: every
    // response must be a 200 from exactly one snapshot generation, and the
    // sibling lake must be completely unaffected by main's reloads.
    let hammers: Vec<_> = (0..6)
        .map(|i| {
            let stop = Arc::clone(&stop);
            let lake = if i < 4 { "main" } else { "other" };
            std::thread::spawn(move || {
                let body = format!(r#"{{"lake": "{lake}", "source_name": "marker"}}"#);
                let mut tags = std::collections::BTreeSet::new();
                let mut served = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let (status, payload) = http(addr, "POST", "/reclaim", &body);
                    assert_eq!(status, 200, "lake {lake}: {payload}");
                    tags.insert(response_tag(&payload));
                    served += 1;
                }
                (lake, tags, served)
            })
        })
        .collect();

    // Interleave 20 reload swaps (v1 ↔ v2) with the hammer traffic.
    let mut generations = Vec::new();
    for swap in 0..20u32 {
        let target = if swap % 2 == 0 { &v2 } else { &v1 };
        let body = format!(r#"{{"lake": "main", "path": "{}"}}"#, target.display());
        let (status, payload) = http(addr, "POST", "/admin/reload", &body);
        assert_eq!(status, 200, "swap {swap}: {payload}");
        let v = Json::parse(&payload).unwrap();
        generations.push(v.get("generation").and_then(Json::as_i64).unwrap());
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(generations, (1..=20).collect::<Vec<i64>>(), "generations must be monotone");

    stop.store(true, Ordering::Relaxed);
    let mut total = 0;
    for h in hammers {
        let (lake, tags, served) = h.join().expect("hammer thread must not die");
        assert!(served > 0, "lake {lake}: hammer never got a response in");
        total += served;
        match lake {
            // Main traffic raced 20 swaps: only the two snapshot tags may
            // ever appear, and with 20 swaps both almost surely do.
            "main" => assert!(
                tags.iter().all(|t| t == "v1" || t == "v2"),
                "main answered from an impossible snapshot: {tags:?}"
            ),
            _ => assert_eq!(
                tags.iter().collect::<Vec<_>>(),
                ["other"],
                "sibling lake must be untouched by main's reloads"
            ),
        }
    }

    // Daemon alive and accounting for the whole episode: 20 reloads on
    // `main`, zero on `other`, and a healthy scrape.
    let (status, health) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("gent_lake_reloads_total{lake=\"main\"} 20"),
        "reload counter: {metrics}"
    );
    assert!(!metrics.contains("gent_lake_reloads_total{lake=\"other\"}"), "{metrics}");
    assert!(total > 20, "the hammer actually overlapped the swaps (served {total})");

    handle.stop();
    runner.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// An IO fault injected mid-reload must leave the live slot exactly as it
/// was: same generation (on the `X-Gent-Generation` header), same snapshot
/// answering `/reclaim`, and a structured `422 reload_failed` to the admin
/// — then succeed cleanly once the fault clears.
#[test]
fn fault_injected_reload_leaves_live_slot_untouched() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    gent_faults::reset();
    let dir = std::env::temp_dir().join(format!("gent-reload-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v1 = save_snapshot(&dir, "v1.gentlake", "v1");
    let v2 = save_snapshot(&dir, "v2.gentlake", "v2");

    let mut builder = Router::builder(GenTConfig::default());
    builder.add_snapshot("main", &v1).unwrap();
    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), threads: 2, ..ServeConfig::default() };
    let server = Server::bind_router(&cfg, builder.build().unwrap()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let runner = std::thread::spawn(move || server.run());

    // Baseline: generation 0, serving v1.
    let stat = http_full(addr, "GET", "/lake/stat?lake=main", "");
    assert_eq!(stat.status, 200);
    assert_eq!(stat.generation, Some(0), "no X-Gent-Generation header: {:?}", stat.headers);

    // The reload's snapshot read hits an injected IO fault.
    gent_faults::arm("store.load.read", gent_faults::Trigger::NthHit(1));
    gent_faults::set_enabled(true);
    let reload_body = format!(r#"{{"lake": "main", "path": "{}"}}"#, v2.display());
    let failed = http_full(addr, "POST", "/admin/reload", &reload_body);
    let payload = &failed.body;
    assert_eq!(failed.status, 422, "{payload}");
    let v = Json::parse(payload).unwrap();
    let error = v.get("error").expect("structured error body");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("reload_failed"));
    assert!(
        error.get("message").and_then(Json::as_str).unwrap().contains("injected fault"),
        "{payload}"
    );
    assert!(error.get("trace_id").and_then(Json::as_str).is_some(), "{payload}");
    assert_eq!(gent_faults::fired("store.load.read"), 1);
    assert_eq!(
        failed.generation, None,
        "a failed reload must not advertise a generation: {:?}",
        failed.headers
    );
    gent_faults::reset();

    // Slot untouched: generation still 0, traffic still answered by v1.
    let stat = http_full(addr, "GET", "/lake/stat?lake=main", "");
    assert_eq!(stat.status, 200);
    assert_eq!(stat.generation, Some(0), "failed reload bumped the generation");
    let (status, payload) =
        http(addr, "POST", "/reclaim", r#"{"lake": "main", "source_name": "marker"}"#);
    assert_eq!(status, 200, "{payload}");
    assert_eq!(response_tag(&payload), "v1", "failed reload must not swap the snapshot");

    // Fault cleared: the identical reload goes through.
    let reloaded = http_full(addr, "POST", "/admin/reload", &reload_body);
    assert_eq!(reloaded.status, 200, "{}", reloaded.body);
    assert_eq!(reloaded.generation, Some(1), "{:?}", reloaded.headers);
    let (status, payload) =
        http(addr, "POST", "/reclaim", r#"{"lake": "main", "source_name": "marker"}"#);
    assert_eq!(status, 200, "{payload}");
    assert_eq!(response_tag(&payload), "v2");

    handle.stop();
    runner.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
