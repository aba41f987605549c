//! The load generator's HTTP client: one keep-alive connection, one
//! request in flight (closed loop), reconnecting when the daemon says
//! `Connection: close` (every 64th request) or has dropped an idle socket.
//!
//! `gent_serve::RetryClient` opens a connection per request and sleeps on
//! retries; a load generator must do neither, so the board carries its
//! own. A request is sent as **one pre-rendered byte string** (head and
//! body together), so what a workload puts on the wire is a pure function
//! of the seed and costs the timed loop one `write_all`.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Per-exchange socket budget. Far above any request the workloads send
/// (the slowest default-config reclaim is a few seconds); hitting it is a
/// failed exchange, not a wait.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(120);

/// Render `POST path` with `body` as the exact bytes the client will send.
pub fn render_post(path: &str, body: &str) -> Vec<u8> {
    render("POST", path, body)
}

/// Render a body-less `GET path`.
pub fn render_get(path: &str) -> Vec<u8> {
    render("GET", path, "")
}

fn render(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: board\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One completed exchange.
#[derive(Debug)]
pub struct Exchange {
    /// HTTP status code.
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Request write to last response byte.
    pub latency: Duration,
}

/// A closed-loop keep-alive client.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened so far (1 + reconnects).
    pub connects: usize,
}

impl Client {
    /// A client for the daemon at `addr`; connects on first use.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None, connects: 0 }
    }

    /// Drop the connection now. The daemon pins one worker to each open
    /// connection, so a client that will sit idle must not keep one.
    pub fn reset(&mut self) {
        self.conn = None;
    }

    fn connect(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(EXCHANGE_TIMEOUT))?;
            stream.set_write_timeout(Some(EXCHANGE_TIMEOUT))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Send one pre-rendered request and read its whole response. Any I/O
    /// or framing error drops the connection and is the caller's failed
    /// exchange — except a kept-alive connection found dead before a single
    /// response byte arrived (the daemon closes sockets idle for 2 s): that
    /// request was never read, so it is sent once more on a fresh socket.
    /// The latency clock covers request write to last body byte of the
    /// attempt that was answered; connection setup is outside it (the
    /// workloads measure warm keep-alive service).
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<Exchange> {
        let reused = self.conn.is_some();
        let mut result = self.connect().and_then(|conn| exchange_on(conn, request));
        if reused && matches!(&result, Err(e) if e.kind() == STALE) {
            self.conn = None;
            result = self.connect().and_then(|conn| exchange_on(conn, request));
        }
        match &result {
            Ok((_, keep)) if *keep => {}
            _ => self.conn = None,
        }
        result.map(|(exchange, _)| exchange)
    }
}

/// How `exchange_on` reports a connection that died before answering.
const STALE: ErrorKind = ErrorKind::ConnectionAborted;

fn exchange_on(
    conn: &mut BufReader<TcpStream>,
    request: &[u8],
) -> std::io::Result<(Exchange, bool)> {
    let t0 = Instant::now();
    let stale = |e: std::io::Error| std::io::Error::new(STALE, e);
    conn.get_mut().write_all(request).map_err(stale)?;
    let bad = |m: String| std::io::Error::new(ErrorKind::InvalidData, m);
    let mut line = String::new();
    match conn.read_line(&mut line) {
        Ok(0) => return Err(stale(ErrorKind::UnexpectedEof.into())),
        Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) => {
            return Err(stale(e))
        }
        other => other?,
    };
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad(format!("bad status line `{}`", line.trim_end())))?;
    let mut content_length = None;
    let mut keep_alive = false;
    loop {
        line.clear();
        if conn.read_line(&mut line)? == 0 {
            return Err(bad("connection closed mid-headers".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    let n = content_length.ok_or_else(|| bad("response without Content-Length".into()))?;
    let mut body = vec![0u8; n];
    conn.read_exact(&mut body)?;
    Ok((Exchange { status, body, latency: t0.elapsed() }, keep_alive))
}

/// The raw bytes of one member of a JSON object, found by skipping over
/// the document rather than parsing it: the timed loop checks every
/// response, and the daemon's `Json::parse` costs on the order of the
/// short workload's whole request. `doc` must be an object rendered by
/// `Json::render` (compact, no whitespace); anything else yields `None`.
pub fn object_member<'a>(doc: &'a [u8], key: &str) -> Option<&'a [u8]> {
    if doc.first() != Some(&b'{') {
        return None;
    }
    let mut pos = 1;
    while doc.get(pos) == Some(&b'"') {
        let key_end = skip_value(doc, pos)?;
        let name = &doc[pos + 1..key_end - 1];
        if doc.get(key_end) != Some(&b':') {
            return None;
        }
        let value_end = skip_value(doc, key_end + 1)?;
        if name == key.as_bytes() {
            return Some(&doc[key_end + 1..value_end]);
        }
        pos = value_end;
        if doc.get(pos) == Some(&b',') {
            pos += 1;
        }
    }
    None
}

/// Index one past the JSON value starting at `start`.
fn skip_value(doc: &[u8], start: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut pos = start;
    loop {
        match *doc.get(pos)? {
            b'"' => {
                pos += 1;
                while *doc.get(pos)? != b'"' {
                    pos += if doc[pos] == b'\\' { 2 } else { 1 };
                }
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.checked_sub(1)?,
            _ => {}
        }
        pos += 1;
        // Back at the value's own nesting level with a delimiter (or the
        // end of the document) next: the value is complete.
        if depth == 0 && matches!(doc.get(pos), None | Some(b',' | b':' | b'}' | b']')) {
            return Some(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_serve::Json;

    #[test]
    fn object_member_agrees_with_the_real_parser() {
        let doc = Json::Object(vec![
            ("source".into(), Json::str("a \"quoted\\ name, with: {braces]")),
            (
                "metrics".into(),
                Json::Object(vec![("eis".into(), Json::Float(0.625)), ("n".into(), Json::Int(-3))]),
            ),
            ("empty".into(), Json::Array(vec![])),
            (
                "reclaimed".into(),
                Json::Object(vec![(
                    "rows".into(),
                    Json::Array(vec![Json::Array(vec![
                        Json::Null,
                        Json::str("x,y"),
                        Json::Bool(true),
                    ])]),
                )]),
            ),
            ("last".into(), Json::Int(7)),
        ]);
        let text = doc.render();
        for key in ["source", "metrics", "empty", "reclaimed", "last"] {
            let raw = object_member(text.as_bytes(), key).unwrap_or_else(|| panic!("{key}"));
            let parsed = Json::parse(std::str::from_utf8(raw).unwrap()).unwrap();
            assert_eq!(Some(&parsed), doc.get(key), "{key}");
        }
        let metrics = object_member(text.as_bytes(), "metrics").unwrap();
        assert_eq!(object_member(metrics, "eis"), Some(&b"0.625"[..]));
        assert_eq!(object_member(text.as_bytes(), "absent"), None);
        assert_eq!(object_member(b"[1,2]", "a"), None);
        assert_eq!(object_member(b"{\"a\":[1,", "a"), None, "truncated documents yield None");
    }

    #[test]
    fn render_post_frames_the_body() {
        let req = render_post("/reclaim", "{\"a\":1}");
        let text = String::from_utf8(req).unwrap();
        assert!(text.starts_with("POST /reclaim HTTP/1.1\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("Content-Length: 7\r\n\r\n{\"a\":1}"));
    }
}
