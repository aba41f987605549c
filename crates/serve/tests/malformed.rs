//! Hostile-client coverage over a real socket: bad methods, non-HTTP bytes,
//! truncated bodies and unknown table names must each produce a structured
//! 4xx JSON error — and the daemon must keep serving afterwards.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use gent_core::GenTConfig;
use gent_discovery::DataLake;
use gent_serve::{Json, LakeService, ServeConfig, Server, ServerHandle};
use gent_store::LoadedLake;
use gent_table::{Table, Value as V};

fn boot() -> (SocketAddr, ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let tables = vec![Table::build(
        "people",
        &["id", "name"],
        &[],
        vec![vec![V::Int(0), V::str("Smith")], vec![V::Int(1), V::str("Brown")]],
    )
    .unwrap()];
    let loaded = LoadedLake::from(DataLake::from_tables(tables));
    let service = LakeService::new(loaded, GenTConfig::default(), "malformed test lake");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        // Short timeout so the stalled-body case resolves quickly.
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let server = Server::bind(&cfg, service).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

/// Send raw bytes, optionally closing our write half, and read the full
/// response text.
fn raw(addr: SocketAddr, bytes: &[u8], close_write: bool) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(bytes).expect("send");
    if close_write {
        s.shutdown(Shutdown::Write).expect("half-close");
    }
    let mut text = String::new();
    s.read_to_string(&mut text).expect("read response");
    text
}

fn status_and_kind(response: &str) -> (u16, String) {
    let status: u16 =
        response.split_whitespace().nth(1).and_then(|t| t.parse().ok()).expect("status line");
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    let kind = Json::parse(body)
        .ok()
        .and_then(|v| v.get("error")?.get("kind")?.as_str().map(str::to_string))
        .unwrap_or_default();
    (status, kind)
}

/// Every answered response — error paths included — must carry an
/// `X-Request-Id` header, and error bodies must embed the same ID as
/// `error.trace_id`, so hostile inputs stay correlatable with daemon logs.
fn assert_traced(response: &str) {
    let head = response.split_once("\r\n\r\n").map(|(h, _)| h).unwrap_or(response);
    let id = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("x-request-id").then(|| value.trim().to_string())
        })
        .unwrap_or_else(|| panic!("response lacks X-Request-Id: {response}"));
    assert!(!id.is_empty(), "empty X-Request-Id: {response}");
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    if let Some(error) = Json::parse(body).ok().and_then(|v| v.get("error").cloned()) {
        assert_eq!(
            error.get("trace_id").and_then(|t| t.as_str().map(str::to_string)),
            Some(id),
            "error body must embed the response's request ID: {response}"
        );
    }
}

fn assert_alive(addr: SocketAddr) {
    let text = raw(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", false);
    let (status, _) = status_and_kind(&text);
    assert_eq!(status, 200, "daemon must still answer /healthz: {text}");
}

#[test]
fn hostile_inputs_get_structured_errors_and_daemon_survives() {
    let (addr, handle, runner) = boot();

    // 1. Wrong method on a known endpoint → 405 bad_method.
    let text = raw(addr, b"DELETE /reclaim HTTP/1.1\r\nHost: t\r\n\r\n", false);
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (405, "bad_method"), "got: {text}");
    assert_traced(&text);
    assert_alive(addr);

    // 2. Bytes that are not HTTP at all → 400 malformed_request.
    let text = raw(addr, b"this is not http\r\n\r\n", true);
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (400, "malformed_request"), "got: {text}");
    assert_traced(&text);
    assert_alive(addr);

    // 3. Truncated body: Content-Length promises 999 bytes, the client
    //    half-closes after 9 → 400 truncated_body (via EOF), and the same
    //    for a client that just stalls (via read timeout).
    let head = b"POST /reclaim HTTP/1.1\r\nHost: t\r\nContent-Length: 999\r\n\r\n{\"source\"";
    let text = raw(addr, head, true);
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (400, "truncated_body"), "got: {text}");
    assert_traced(&text);
    let text = raw(addr, head, false); // stall: server's read timeout fires
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (400, "truncated_body"), "got: {text}");
    assert_traced(&text);
    assert_alive(addr);

    // 3b. A client that connects and stalls before sending any head at
    //     all → 408 timeout (not a fabricated truncated-body message).
    let text = raw(addr, b"", false);
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (408, "timeout"), "got: {text}");
    assert_traced(&text);
    assert_alive(addr);

    // 3c. Slow trickle: one header byte at a time can no longer reset the
    //     clock — the overall request budget expires → 408.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let start = std::time::Instant::now();
    for b in b"GET /healthz HTTP/1.1\r\n" {
        if s.write_all(&[*b]).is_err() {
            break; // server already answered and closed
        }
        std::thread::sleep(Duration::from_millis(60));
        if start.elapsed() > Duration::from_secs(3) {
            break;
        }
    }
    let mut text = String::new();
    let _ = s.read_to_string(&mut text);
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (408, "timeout"), "got: {text}");
    assert_traced(&text);
    assert_alive(addr);

    // 3d. `Expect: 100-continue` (what curl sends for bodies > 1 KiB) gets
    //     the interim go-ahead before the final response.
    let body = br#"{"source_name": "people", "key": ["id"]}"#;
    let mut req = format!(
        "POST /reclaim HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    let text = raw(addr, &req, false);
    assert!(text.starts_with("HTTP/1.1 100 Continue\r\n\r\n"), "got: {text}");
    assert!(text.contains("HTTP/1.1 200"), "got: {text}");
    assert_alive(addr);

    // 4. Valid HTTP + JSON, but an unknown table name → 404 unknown_table.
    let body = br#"{"source_name": "no_such_table"}"#;
    let mut req =
        format!("POST /reclaim HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", body.len())
            .into_bytes();
    req.extend_from_slice(body);
    let text = raw(addr, &req, false);
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (404, "unknown_table"), "got: {text}");
    assert_traced(&text);
    assert_alive(addr);

    // 5. Bad JSON body → 400 bad_json.
    let body = b"{broken";
    let mut req =
        format!("POST /reclaim HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", body.len())
            .into_bytes();
    req.extend_from_slice(body);
    let text = raw(addr, &req, false);
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (400, "bad_json"), "got: {text}");
    assert_traced(&text);
    assert_alive(addr);

    // 6. Declared Content-Length over the limit → 413 too_large, without
    //    the server ever allocating the claimed buffer.
    let req = b"POST /reclaim HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999999\r\n\r\n";
    let text = raw(addr, req, false);
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (413, "too_large"), "got: {text}");
    assert_traced(&text);
    assert_alive(addr);

    // 7. A client-supplied X-Request-Id is echoed back on the error path,
    //    both as a header and inside the error body.
    let text = raw(
        addr,
        b"DELETE /reclaim HTTP/1.1\r\nHost: t\r\nX-Request-Id: hostile-trace-7\r\n\r\n",
        false,
    );
    let (status, _) = status_and_kind(&text);
    assert_eq!(status, 405);
    assert!(text.contains("X-Request-Id: hostile-trace-7"), "echoed header: {text}");
    assert!(text.contains(r#""trace_id":"hostile-trace-7""#), "error body: {text}");
    assert_traced(&text);

    handle.stop();
    runner.join().unwrap().unwrap();
}

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    let mut req =
        format!("POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", body.len())
            .into_bytes();
    req.extend_from_slice(body.as_bytes());
    raw(addr, &req, false)
}

/// The multi-lake surface under hostile input: routing, override
/// and reload endpoints must each answer a *structured* 4xx carrying an
/// `error.trace_id`, and the daemon must keep serving after every one.
#[test]
fn hostile_multi_lake_inputs_get_structured_errors() {
    let (addr, handle, runner) = boot();

    // 1. Unknown lake name → 404 unknown_lake.
    let text = post(addr, "/reclaim", r#"{"lake": "nope", "source_name": "people"}"#);
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (404, "unknown_lake"), "got: {text}");
    assert_traced(&text);
    assert_alive(addr);

    // 2. The retired batch endpoint is an unknown path like any other →
    //    404 unknown_path (many sources are many `POST /reclaim`s).
    let text =
        post(addr, "/reclaim/batch", r#"{"sources": [{"source_name": "people", "key": ["id"]}]}"#);
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (404, "unknown_path"), "got: {text}");
    assert_traced(&text);
    assert_alive(addr);

    // 3. tau outside [0, 1] → 422 bad_override (both ends, and NaN-ish).
    for tau in ["-0.1", "1.5", "1e9"] {
        let text = post(
            addr,
            "/reclaim",
            &format!(
                r#"{{"source_name": "people", "key": ["id"], "overrides": {{"tau": {tau}}}}}"#
            ),
        );
        let (status, kind) = status_and_kind(&text);
        assert_eq!((status, kind.as_str()), (422, "bad_override"), "tau {tau}: {text}");
        assert_traced(&text);
    }
    assert_alive(addr);

    // 4. Non-object overrides → 400 bad_override.
    let text =
        post(addr, "/reclaim", r#"{"source_name": "people", "key": ["id"], "overrides": [1, 2]}"#);
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (400, "bad_override"), "got: {text}");
    assert_traced(&text);
    assert_alive(addr);

    // 5a. Reload pointing at a missing file → 422 reload_failed.
    let text = post(addr, "/admin/reload", r#"{"path": "/nonexistent/nope.gentlake"}"#);
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (422, "reload_failed"), "got: {text}");
    assert_traced(&text);
    assert_alive(addr);

    // 5b. Reload pointing at a corrupt file (wrong magic) → 422
    //     reload_failed, and the live lake keeps serving.
    let corrupt =
        std::env::temp_dir().join(format!("gent-corrupt-{}.gentlake", std::process::id()));
    std::fs::write(&corrupt, b"NOTALAKE garbage bytes").unwrap();
    let text = post(addr, "/admin/reload", &format!(r#"{{"path": "{}"}}"#, corrupt.display()));
    let (status, kind) = status_and_kind(&text);
    assert_eq!((status, kind.as_str()), (422, "reload_failed"), "got: {text}");
    assert_traced(&text);
    std::fs::remove_file(&corrupt).ok();
    assert_alive(addr);

    // After the whole gauntlet, a real reclaim still answers 200.
    let text = post(addr, "/reclaim", r#"{"source_name": "people", "key": ["id"]}"#);
    let (status, _) = status_and_kind(&text);
    assert_eq!(status, 200, "daemon must still reclaim: {text}");

    handle.stop();
    runner.join().unwrap().unwrap();
}
