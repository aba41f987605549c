//! Admission control under saturation: with one worker pinned and the
//! bounded queue full, excess connections must be shed with a structured
//! `429 Too Many Requests` + parseable `Retry-After` — *fast*, from the
//! accept loop — instead of stalling the daemon. The `/metrics` scrape
//! afterwards must show the queue-depth gauge peaked at exactly the
//! configured bound, count every shed, and the daemon must serve 200s
//! again once the burst passes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use gent_core::GenTConfig;
use gent_discovery::DataLake;
use gent_serve::{Json, LakeService, ServeConfig, Server};
use gent_store::LoadedLake;
use gent_table::{Table, Value as V};

const QUEUE_BOUND: usize = 2;

fn boot() -> (SocketAddr, gent_serve::ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let tables = vec![Table::build(
        "t",
        &["id", "v"],
        &[],
        vec![vec![V::Int(1), V::str("a")], vec![V::Int(2), V::str("b")]],
    )
    .unwrap()];
    let loaded = LoadedLake::from(DataLake::from_tables(tables));
    let service = LakeService::new(loaded, GenTConfig::default(), "backpressure lake");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        // One worker + a two-deep queue: the third concurrent connection
        // is deterministically over quota.
        threads: 1,
        queue_depth: QUEUE_BOUND,
        read_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let server = Server::bind(&cfg, service).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

fn read_response(s: &mut TcpStream) -> (u16, String, String) {
    let mut text = String::new();
    s.read_to_string(&mut text).expect("read response");
    let status: u16 =
        text.split_whitespace().nth(1).and_then(|t| t.parse().ok()).expect("status line");
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    read_response(&mut s)
}

fn prometheus_sample(exposition: &str, name: &str) -> i64 {
    exposition
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample `{name}` in:\n{exposition}"))
}

#[test]
fn saturated_queue_sheds_429_and_recovers() {
    let (addr, handle, runner) = boot();

    // Pin the single worker: a client that sends half a request and stalls
    // holds the worker inside its read budget.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(slow, "GET /healthz HTTP/1.1\r\nHost: t\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Fill the queue to its bound with requests that will wait their turn.
    let mut queued: Vec<TcpStream> = (0..QUEUE_BOUND)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            s
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    // Everything beyond the bound is shed with a parseable 429.
    for i in 0..3 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, head, body) = read_response(&mut s);
        assert_eq!(status, 429, "shed connection {i}: {head}\n{body}");
        let retry_after: u64 = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("retry-after").then(|| value.trim().to_string())
            })
            .unwrap_or_else(|| panic!("429 without Retry-After: {head}"))
            .parse()
            .expect("Retry-After must be a parseable integer");
        assert!(retry_after >= 1);
        let v = Json::parse(&body).unwrap_or_else(|e| panic!("unparseable 429 body ({e}): {body}"));
        let error = v.get("error").expect("structured error");
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert!(error.get("trace_id").and_then(Json::as_str).is_some(), "{body}");
    }

    // Release the worker; the queued requests drain and answer 200.
    write!(slow, "\r\n").unwrap();
    let (status, _, _) = read_response(&mut slow);
    assert_eq!(status, 200, "the pinned request itself must complete");
    for (i, s) in queued.iter_mut().enumerate() {
        let (status, _, _) = read_response(s);
        assert_eq!(status, 200, "queued request {i} must drain after the burst");
    }

    // Recovery: fresh requests answer 200 and the instruments tell the
    // story — the gauge peaked at exactly the bound, every shed counted,
    // and the queue is empty again.
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200, "daemon must serve normally after the burst");
    let (status, _, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        prometheus_sample(&metrics, "gent_http_queue_depth_peak"),
        QUEUE_BOUND as i64,
        "peak gauge must pin the configured bound"
    );
    assert_eq!(prometheus_sample(&metrics, "gent_http_shed_total"), 3);
    assert_eq!(prometheus_sample(&metrics, "gent_http_queue_depth"), 0);

    handle.stop();
    runner.join().unwrap().unwrap();
}
