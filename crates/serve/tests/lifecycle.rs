//! Lifecycle suite: liveness/readiness split, graceful drain, bounded
//! shutdown, and worker-panic containment under injected faults.
//!
//! Fault state (`gent_faults`) is process-global, so every test here —
//! including the ones that never arm a site — serializes on one lock;
//! otherwise a site armed for one daemon could fire inside its neighbour.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gent_core::GenTConfig;
use gent_serve::{Json, LakeService, ServeConfig, Server, ServerHandle};
use gent_store::{InMemory, LakeSource};
use gent_table::{Table, Value as V};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_server(threads: usize, drain_deadline: Duration) -> Server {
    let tables = vec![Table::build(
        "t",
        &["id", "v"],
        &[],
        vec![vec![V::Int(1), V::str("a")], vec![V::Int(2), V::str("b")]],
    )
    .unwrap()];
    let loaded = InMemory::new(tables).load_lake().unwrap();
    let service = LakeService::new(loaded, GenTConfig::default(), "lifecycle lake");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads,
        read_timeout: Duration::from_secs(10),
        drain_deadline,
        ..ServeConfig::default()
    };
    Server::bind(&cfg, service).unwrap()
}

fn boot(
    threads: usize,
    drain_deadline: Duration,
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = test_server(threads, drain_deadline);
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

/// One exchange, returning (status, full head, body).
fn exchange(addr: SocketAddr, request: &str) -> std::io::Result<(u16, String, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    s.write_all(request.as_bytes())?;
    let mut text = String::new();
    s.read_to_string(&mut text)?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("no status line in: {text:?}")))?;
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    Ok((status, head.to_string(), body.to_string()))
}

fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String, String)> {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

#[test]
fn readiness_splits_from_liveness_and_drain_closes_connections() {
    let _g = locked();
    gent_faults::reset();
    let (addr, handle, runner) = boot(2, Duration::from_secs(5));

    // Serving: both probes answer 200, with distinct payloads.
    let (status, _, body) = get(addr, "/healthz/live").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"live\""), "{body}");
    let (status, _, body) = get(addr, "/healthz/ready").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ready\""), "{body}");
    // Probe methods are guarded like every other endpoint.
    let (status, _, _) =
        exchange(addr, "POST /healthz/ready HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
    assert_eq!(status, 405);

    // Drain begins: readiness is withdrawn with a structured, dated 503 —
    // but the daemon is still alive and still answering.
    handle.begin_drain();
    let (status, head, body) = get(addr, "/healthz/ready").unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("Retry-After:"), "503 must carry Retry-After: {head}");
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("error").unwrap().get("kind").and_then(Json::as_str), Some("draining"));
    let (status, _, body) = get(addr, "/healthz/live").unwrap();
    assert_eq!(status, 200, "liveness is not affected by draining: {body}");
    // Regular traffic still served, but keep-alive is refused so pooled
    // clients migrate off the dying daemon.
    let (status, head, body) =
        exchange(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("Connection: close"), "draining responses must advertise close: {head}");

    handle.stop();
    runner.join().unwrap().unwrap();
}

/// A peer stalled mid-request cannot hold shutdown hostage: the drain
/// deadline force-closes its socket and `run()` returns promptly.
#[test]
fn drain_deadline_bounds_shutdown_with_a_stalled_peer() {
    let _g = locked();
    gent_faults::reset();
    let (addr, handle, runner) = boot(1, Duration::from_millis(300));

    // A slow-loris peer: opens the connection, sends half a request head,
    // then stalls. The single worker is now blocked reading it (its read
    // deadline is 10 s — far beyond the 300 ms drain budget).
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"GET /healthz HT").unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let begun = Instant::now();
    handle.stop();
    runner.join().unwrap().unwrap();
    let elapsed = begun.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "shutdown must be bounded by the drain deadline, took {elapsed:?}"
    );
    drop(loris);
}

/// An injected handler panic costs one connection, never a worker: with a
/// single-thread pool, the very next request is still answered, and the
/// scar shows up in `gent_worker_panics_total`.
#[test]
fn worker_panic_is_contained_respawned_and_counted() {
    let _g = locked();
    gent_faults::reset();
    let logs = gent_obs::set_sink();
    let (addr, handle, runner) = boot(1, Duration::from_secs(5));

    gent_faults::arm("serve.worker.panic", gent_faults::Trigger::NthHit(1));
    gent_faults::set_enabled(true);

    // The panicking connection dies without an answer: either a reset
    // (Err) or an empty read — both are fine, a body is not.
    if let Ok((_, _, body)) = get(addr, "/healthz") {
        assert!(body.is_empty(), "panicked connection must not answer: {body}");
    }
    assert_eq!(gent_faults::fired("serve.worker.panic"), 1);
    gent_faults::reset();

    // Same (only) worker keeps serving.
    let (status, _, body) = get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "the pool must survive a handler panic: {body}");
    let (status, _, metrics) = get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("gent_worker_panics_total 1"), "the panic must be counted: {metrics}");

    handle.stop();
    runner.join().unwrap().unwrap();
    gent_obs::clear_sink();
    let logs = gent_obs::sink_to_string(&logs);
    assert!(logs.contains("\"msg\":\"worker_panic\""), "the panic must be logged: {logs}");
}

/// Socket-boundary faults (connection reset before serving, mid-frame
/// truncation) cost only the connection they hit; the daemon stays
/// healthy and the next exchange is clean.
#[test]
fn injected_socket_faults_cost_one_connection_each() {
    let _g = locked();
    gent_faults::reset();
    let (addr, handle, runner) = boot(2, Duration::from_secs(5));

    gent_faults::arm("serve.conn.reset", gent_faults::Trigger::NthHit(1));
    gent_faults::set_enabled(true);
    if let Ok((_, _, body)) = get(addr, "/healthz") {
        assert!(body.is_empty(), "reset connection must not answer: {body}");
    }
    assert_eq!(gent_faults::fired("serve.conn.reset"), 1);

    gent_faults::arm("serve.write.truncate", gent_faults::Trigger::NthHit(1));
    // A truncated frame is unparseable as a full response; Ok or Err,
    // whatever arrived must be a prefix, not a complete exchange.
    let _ = get(addr, "/healthz");
    assert_eq!(gent_faults::fired("serve.write.truncate"), 1);
    gent_faults::reset();

    let (status, _, body) = get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "daemon must be clean after socket faults: {body}");

    handle.stop();
    runner.join().unwrap().unwrap();
}
