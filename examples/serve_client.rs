//! A minimal, std-only client driving the `gent serve` daemon end to end:
//! build a lake, snapshot it, boot the daemon on an ephemeral port, then
//! talk to it through the retrying [`RetryClient`] (jittered backoff on
//! 429/503/socket faults, generation tracking across `/admin/reload`
//! swaps).
//!
//! ```text
//! cargo run --release --example serve_client
//! ```

use gen_t::core::GenTConfig;
use gen_t::prelude::*;
use gen_t::serve::{LakeService, RetryClient, RetryPolicy, ServeConfig, Server};
use gen_t::store::snapshot;

fn main() {
    // ── A small lake: two fragments of a people table, snapshotted. ─────
    let ages = Table::build(
        "ages",
        &["name", "age"],
        &[],
        vec![
            vec![Value::str("Smith"), Value::Int(27)],
            vec![Value::str("Brown"), Value::Int(24)],
            vec![Value::str("Wang"), Value::Int(32)],
        ],
    )
    .unwrap();
    let ids = Table::build(
        "ids",
        &["id", "name"],
        &[],
        vec![
            vec![Value::Int(0), Value::str("Smith")],
            vec![Value::Int(1), Value::str("Brown")],
            vec![Value::Int(2), Value::str("Wang")],
        ],
    )
    .unwrap();
    let snap = std::env::temp_dir().join("serve_client_demo.gentlake");
    snapshot::write(&snap, &DataLake::from_tables(vec![ages, ids])).expect("save snapshot");

    // ── Boot the daemon exactly as `gent serve --lake` does. ────────────
    let loaded = snapshot::load(&snap).expect("open snapshot");
    let service = LakeService::new(loaded, GenTConfig::default(), snap.display().to_string());
    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), threads: 2, ..ServeConfig::default() };
    let server = Server::bind(&cfg, service).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle().expect("handle");
    let runner = std::thread::spawn(move || server.run());
    println!("daemon up on http://{addr}");

    // ── Drive it through the retrying client: transient faults (socket
    //    resets, 429 shed, 503 drain) are retried with jittered backoff,
    //    and the X-Gent-Generation header tracks reload swaps. ───────────
    let mut client = RetryClient::new(addr);
    let health = client.get("/healthz").expect("healthz");
    println!("GET /healthz   → {}", health.body);
    let stat = client.get("/lake/stat").expect("lake/stat");
    println!("GET /lake/stat → {} (generation {:?})", stat.body, stat.generation);

    let request = r#"{"source": {
        "name": "S",
        "columns": ["id", "name", "age"],
        "key": ["id"],
        "rows": [[0, "Smith", 27], [1, "Brown", 24], [2, "Wang", 32]]}}"#;
    let response = client.post("/reclaim", request).expect("reclaim");
    println!("POST /reclaim  → {} (attempt {})", response.body, response.attempts);

    // The served answer carries the reclaimed table; a perfect lake must
    // reclaim this source perfectly.
    assert_eq!(response.status, 200);
    assert!(response.body.contains("\"eis\":1"), "expected a perfect EIS, got: {response:?}");

    // Errors are structured, and the daemon survives them.
    let bad = client.post("/reclaim", "{not json").expect("bad request still answers");
    println!("bad request    → {} (status {})", bad.body, bad.status);
    assert_eq!(bad.status, 400);
    println!("GET /healthz   → {}", client.get("/healthz").expect("healthz").body);

    // ── Graceful drain: readiness flips to 503 + Retry-After while
    //    liveness stays green, then the daemon stops. ────────────────────
    handle.begin_drain();
    // A deliberate 503 is the *point* here — probe without retries, or the
    // client would dutifully honour Retry-After a few times first.
    let mut probe =
        RetryClient::with_policy(addr, RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });
    let ready = probe.get("/healthz/ready").expect("readiness probe");
    println!(
        "draining       → /healthz/ready {} (Retry-After: {})",
        ready.status,
        ready.header("retry-after").unwrap_or("-")
    );
    assert_eq!(ready.status, 503);
    assert_eq!(probe.get("/healthz/live").expect("liveness probe").status, 200);

    handle.stop();
    runner.join().unwrap().expect("server run");
    let _ = std::fs::remove_file(&snap);
    println!("daemon stopped cleanly");
}
