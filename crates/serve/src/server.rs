//! The TCP accept loop and worker thread pool.
//!
//! One `TcpListener`, N workers: the accept loop pushes connections into a
//! *bounded* channel; workers pull from the shared receiver (guarded by a
//! `parking_lot::Mutex`), serve the connection, and close. All workers
//! borrow the same [`LakeService`] through an `Arc` — the warm lake is
//! opened exactly once, no matter how many requests run concurrently.
//!
//! A connection serves one request by default; a client sending
//! `Connection: keep-alive` may reuse it for up to
//! [`MAX_REQUESTS_PER_CONNECTION`] requests, each under its own read
//! deadline — and with the *wait for the next request* phase under the
//! much shorter [`KEEP_ALIVE_IDLE_TIMEOUT`], closed silently when it
//! expires. That removes the per-request TCP setup from repeated reclaims
//! while bounding how long an idle pooled client can pin a worker thread
//! (the remaining cost of the thread-per-in-flight-connection design).
//!
//! The bounded queue is the backpressure mechanism: when every worker is
//! busy and [`ServeConfig::queue_depth`] connections are already waiting,
//! the accept loop **sheds** further connections with `429 Too Many
//! Requests` + a parseable `Retry-After` header instead of stalling — the
//! daemon keeps accepting, answers overload explicitly, and never
//! accumulates file descriptors without bound. The queue-depth gauge and
//! its high-water mark (`gent_http_queue_depth_peak`), plus the shed
//! counter (`gent_http_shed_total`), make the whole episode observable in
//! `/metrics`.
//!
//! The pool runs inside a `crossbeam::thread::scope`, so `run()` owns every
//! worker and cannot leak threads; [`ServerHandle::stop`] unblocks the
//! accept loop for a clean shutdown (used by tests and benches).

use std::collections::HashMap;
use std::io::{BufReader, ErrorKind};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::http::{read_request_buffered, DeadlineStream, HttpError, Response};
use crate::json::Json;
use crate::routing::Router;
use crate::service::LakeService;

/// Default bound on accepted-but-unserved connections held by the daemon
/// before the accept loop sheds load (per-connection cost: one fd + one
/// `TcpStream`). Override with [`ServeConfig::queue_depth`].
pub const QUEUE_DEPTH: usize = 128;

/// Requests one kept-alive connection may carry before the daemon closes it
/// anyway — the bound that keeps a single chatty client from monopolising a
/// worker. The final response advertises `Connection: close`, so
/// well-behaved clients reconnect instead of timing out.
pub const MAX_REQUESTS_PER_CONNECTION: usize = 64;

/// How long a kept-alive connection may sit **idle** between requests
/// before the daemon closes it (silently — writing anything to an idle
/// socket would be consumed as the answer to the client's *next* request).
/// Deliberately much shorter than the per-request read deadline: with one
/// thread per in-flight connection, idle pooled clients would otherwise
/// pin workers for the full request budget.
pub const KEEP_ALIVE_IDLE_TIMEOUT: Duration = Duration::from_secs(2);

/// Default ceiling on the drain phase of a shutdown: after
/// [`ServerHandle::stop`], in-flight and already-queued requests get this
/// long to finish before the remaining sockets are force-closed. Override
/// with [`ServeConfig::drain_deadline`].
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads (0 → all available cores).
    pub threads: usize,
    /// Overall time budget for reading one request (head + body). A client
    /// stalling — or trickling bytes to reset a naive per-read timeout —
    /// gets a structured `timeout`/`truncated_body` error when the budget
    /// runs out instead of pinning a worker.
    pub read_timeout: Duration,
    /// Bound on accepted-but-unserved connections. When every worker is
    /// busy and this many connections are queued, further connections are
    /// answered `429 Too Many Requests` + `Retry-After` from the accept
    /// loop (0 falls back to [`QUEUE_DEPTH`]).
    pub queue_depth: usize,
    /// How long a shutdown waits for in-flight (and already-queued)
    /// requests to finish before force-closing their sockets. Bounds the
    /// gap between [`ServerHandle::stop`] and [`Server::run`] returning
    /// even when a peer stalls mid-request (0 falls back to
    /// [`DRAIN_DEADLINE`]).
    pub drain_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7744".to_string(),
            threads: 0,
            read_timeout: Duration::from_secs(10),
            queue_depth: QUEUE_DEPTH,
            drain_deadline: DRAIN_DEADLINE,
        }
    }
}

/// A bound (but not yet running) server.
pub struct Server {
    listener: TcpListener,
    router: Arc<Router>,
    threads: usize,
    read_timeout: Duration,
    queue_depth: usize,
    drain_deadline: Duration,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
}

/// A handle that can stop a running [`Server`] from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Withdraw readiness without stopping: `GET /healthz/ready` starts
    /// answering 503 + `Retry-After` and every response advertises
    /// `Connection: close`, but the listener keeps accepting and serving.
    /// The graceful-restart dance is `begin_drain()` → wait for the load
    /// balancer to route away → [`ServerHandle::stop`]. Idempotent.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Ask the server to stop: readiness is withdrawn, the accept loop
    /// exits, queued and in-flight requests drain under the configured
    /// deadline, and whatever is still open afterwards is force-closed.
    /// Idempotent.
    pub fn stop(&self) {
        self.begin_drain();
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; poke it awake. A wildcard
        // bind (0.0.0.0 / ::) is not connectable as-is — poke loopback on
        // the bound port instead.
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(match poke.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&poke, Duration::from_millis(500));
    }
}

impl Server {
    /// Bind `cfg.addr` and prepare a single-lake `service` for serving.
    /// The lake inside `service` is shared — wrapped in an `Arc` here,
    /// borrowed by every worker, never cloned per request. (This is
    /// [`Server::bind_router`] over [`Router::single`].)
    pub fn bind(cfg: &ServeConfig, service: LakeService) -> std::io::Result<Server> {
        Server::bind_router(cfg, Router::single(service))
    }

    /// Bind `cfg.addr` and serve a multi-lake [`Router`]: per-request lake
    /// routing and atomic snapshot hot-reload behind one address.
    pub fn bind_router(cfg: &ServeConfig, router: Router) -> std::io::Result<Server> {
        let listener = TcpListener::bind(resolve(&cfg.addr)?)?;
        let threads = if cfg.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            cfg.threads
        };
        let draining = router.draining_flag();
        Ok(Server {
            listener,
            router: Arc::new(router),
            threads: threads.max(1),
            read_timeout: cfg.read_timeout,
            queue_depth: if cfg.queue_depth == 0 { QUEUE_DEPTH } else { cfg.queue_depth },
            drain_deadline: if cfg.drain_deadline.is_zero() {
                DRAIN_DEADLINE
            } else {
                cfg.drain_deadline
            },
            shutdown: Arc::new(AtomicBool::new(false)),
            draining,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
            draining: Arc::clone(&self.draining),
        })
    }

    /// Serve until [`ServerHandle::stop`] is called. Blocks the calling
    /// thread; connections are handled on the worker pool.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            router,
            threads,
            read_timeout,
            queue_depth: bound,
            drain_deadline,
            shutdown,
            draining: _,
        } = self;
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(bound);
        let rx = Arc::new(Mutex::new(rx));
        // The queue-depth gauge brackets the channel: incremented when the
        // accept loop enqueues a connection, decremented when a worker
        // dequeues it — `/metrics` shows how far behind the pool is. The
        // peak gauge records the deepest it ever got.
        let queue_depth = Arc::clone(&router.http_metrics().queue_depth);
        let queue_peak = Arc::clone(&router.http_metrics().queue_depth_peak);
        let shed_total = Arc::clone(&router.http_metrics().shed_total);
        let worker_panics = Arc::clone(&router.http_metrics().worker_panics);
        // Sockets currently being served, by connection id. The drain
        // supervisor force-closes whatever is still here when the deadline
        // expires, so a stalled peer cannot hold shutdown hostage.
        let in_flight: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let next_id = AtomicU64::new(0);
        // Flipped when the drain deadline expires: workers stop starting
        // new work and drop still-queued connections instead.
        let aborting = Arc::new(AtomicBool::new(false));

        crossbeam::thread::scope(|scope| {
            for _ in 0..threads {
                let rx = Arc::clone(&rx);
                let router = Arc::clone(&router);
                let queue_depth = Arc::clone(&queue_depth);
                let worker_panics = Arc::clone(&worker_panics);
                let in_flight = Arc::clone(&in_flight);
                let aborting = Arc::clone(&aborting);
                let next_id = &next_id;
                scope.spawn(move |_| loop {
                    // Take the receiver lock only to pull the next job, so
                    // idle workers queue on the channel, not on each other.
                    let next = rx.lock().recv();
                    match next {
                        Ok(stream) => {
                            queue_depth.dec();
                            // Past the drain deadline: the connection was
                            // queued but never started; dropping it (a
                            // reset) beats a half-served request.
                            if aborting.load(Ordering::SeqCst) {
                                drop(stream);
                                continue;
                            }
                            let id = next_id.fetch_add(1, Ordering::Relaxed);
                            if let Ok(clone) = stream.try_clone() {
                                in_flight.lock().insert(id, clone);
                            }
                            // A panicking handler must cost one connection,
                            // never a worker: catch it, count it, keep
                            // serving — the pool is effectively respawned
                            // in place instead of silently shrinking.
                            let outcome = catch_unwind(AssertUnwindSafe(|| {
                                serve_connection(&router, stream, read_timeout)
                            }));
                            in_flight.lock().remove(&id);
                            if let Err(panic) = outcome {
                                worker_panics.inc();
                                let detail = panic
                                    .downcast_ref::<&str>()
                                    .map(|s| s.to_string())
                                    .or_else(|| panic.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "non-string panic payload".into());
                                gent_obs::log(
                                    gent_obs::Level::Error,
                                    "gent_serve",
                                    "worker_panic",
                                    &[("detail", detail.as_str().into())],
                                );
                            }
                        }
                        Err(_) => break, // accept loop gone: drain done
                    }
                });
            }

            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        queue_depth.inc();
                        match tx.try_send(stream) {
                            Ok(()) => queue_peak.set_max(queue_depth.get()),
                            // Queue full: shed with an explicit 429 instead
                            // of blocking the accept loop — overload answers
                            // fast, it doesn't stall the daemon.
                            Err(mpsc::TrySendError::Full(stream)) => {
                                queue_depth.dec();
                                shed_total.inc();
                                shed_connection(stream);
                            }
                            Err(mpsc::TrySendError::Disconnected(_)) => {
                                queue_depth.dec();
                                break;
                            }
                        }
                    }
                    // Transient accept errors (aborted handshakes) must not
                    // kill the daemon.
                    Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // Persistent errors (e.g. EMFILE when the process is out
                    // of fds) would otherwise busy-spin this loop at 100%
                    // CPU; back off briefly so in-flight requests can finish
                    // and release descriptors.
                    Err(_) => std::thread::sleep(Duration::from_millis(50)),
                }
            }
            // Dropping the sender ends every worker's recv loop once the
            // queue is empty.
            drop(tx);

            // Drain phase: queued and in-flight requests get until the
            // deadline to finish. Past it, force-close every socket still
            // being served and tell workers to drop queued ones — shutdown
            // stays bounded even against a peer stalling mid-request.
            let deadline = Instant::now() + drain_deadline;
            loop {
                if in_flight.lock().is_empty() && queue_depth.get() == 0 {
                    break;
                }
                if Instant::now() >= deadline {
                    aborting.store(true, Ordering::SeqCst);
                    for stream in in_flight.lock().values() {
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                    }
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
        .expect("serve scope");
        Ok(())
    }
}

/// Answer an over-quota connection with `429 Too Many Requests` straight
/// from the accept loop: structured `overloaded` error body, `Retry-After`
/// header, its own request ID. The response is written *before* reading
/// the request (the client may still be sending); afterwards the socket is
/// drained briefly so closing with unread bytes in the receive buffer
/// doesn't RST the answer away before the client reads it.
fn shed_connection(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    let trace_id = gent_obs::gen_trace_id();
    let body = Json::Object(vec![(
        "error".into(),
        Json::Object(vec![
            ("kind".into(), Json::str("overloaded")),
            (
                "message".into(),
                Json::str("worker queue full; retry after the Retry-After interval"),
            ),
            ("trace_id".into(), Json::str(trace_id.clone())),
        ]),
    )])
    .render();
    let response = Response { status: 429, body, headers: Vec::new() }
        .with_header("Retry-After", "1")
        .with_header("X-Request-Id", trace_id);
    if response.write_with(&mut (&stream), false).is_ok() {
        use std::io::Read;
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let mut sink = [0u8; 4096];
        let mut reader = &stream;
        for _ in 0..16 {
            match reader.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Handle one connection: read requests, answer them, close — looping only
/// for clients that asked for `Connection: keep-alive`, and never past
/// [`MAX_REQUESTS_PER_CONNECTION`].
fn serve_connection(router: &Router, stream: TcpStream, read_timeout: Duration) {
    router.http_metrics().connections.inc();
    // Failpoints at the socket boundary (no-ops unless the fault layer is
    // armed — soak runs and the fault-injection tests): a connection reset
    // before any byte is served, and a handler panic that must be contained
    // by the worker loop.
    if gent_faults::failpoint!("serve.conn.reset") {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return;
    }
    if gent_faults::failpoint!("serve.worker.panic") {
        panic!("injected worker panic (serve.worker.panic)");
    }
    let _ = stream.set_write_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    // One BufReader for the connection's whole life (read-ahead bytes may
    // belong to the next pipelined request), wrapping a resettable
    // DeadlineStream: every request gets its own full time budget, and a
    // client trickling bytes cannot reset the clock mid-request.
    let mut reader = BufReader::new(DeadlineStream::new(&stream, read_timeout));
    for served in 1..=MAX_REQUESTS_PER_CONNECTION {
        // Idle phase (reused connections only): wait for the first byte of
        // the next request under the short keep-alive deadline. A peer
        // that hangs up or stays idle past it gets a *silent* close — an
        // unsolicited error response here would sit in the socket buffer
        // and be misread as the answer to the client's next request.
        if served > 1 {
            use std::io::BufRead;
            reader.get_mut().reset(KEEP_ALIVE_IDLE_TIMEOUT.min(read_timeout));
            match reader.fill_buf() {
                Ok([]) => return, // clean EOF
                Ok(_) => {}       // next request underway
                Err(_) => return, // idle timeout / io error
            }
        }
        reader.get_mut().reset(read_timeout);
        let mut write_half = &stream;
        let request = read_request_buffered(&mut reader, &mut write_half);
        // A peer that closed instead of sending a(nother) request is normal
        // socket teardown, not an error: nothing to answer, nothing to log.
        if matches!(request, Err(HttpError::ConnectionClosed)) {
            return;
        }
        if served > 1 && request.is_ok() {
            router.http_metrics().keepalive_reuses.inc();
        }
        // Keep the socket only for well-formed requests that asked for it —
        // after a read error the stream's framing can't be trusted. A
        // draining daemon answers but always advertises `Connection:
        // close`, so pooled clients migrate instead of riding a socket
        // that is about to be force-closed.
        let keep_alive = served < MAX_REQUESTS_PER_CONNECTION
            && !router.is_draining()
            && matches!(&request, Ok(req) if req.wants_keep_alive());
        let response: Response = router.respond(request);
        // Write-side failpoints: a server-side stall (exercises client
        // read patience) and a mid-frame truncation + reset (the response
        // head goes out, the body never finishes).
        if gent_faults::failpoint!("serve.write.stall") {
            std::thread::sleep(Duration::from_millis(150));
        }
        if gent_faults::failpoint!("serve.write.truncate") {
            use std::io::Write;
            let mut frame = Vec::new();
            if response.write_with(&mut frame, keep_alive).is_ok() {
                let half = frame.len() / 2;
                let mut out = &stream;
                let _ = out.write_all(&frame[..half]).and_then(|()| out.flush());
            }
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
        // The client may already be gone; a failed write only loses its
        // answer (and ends the connection's loop).
        if response.write_with(&mut (&stream), keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Resolve `addr`, preferring IPv4 loopback results for predictability.
fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(ErrorKind::InvalidInput, format!("`{addr}` resolves to no address"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_core::GenTConfig;
    use gent_store::{InMemory, LakeSource};
    use gent_table::{Table, Value as V};
    use std::io::{Read, Write};

    fn test_server() -> Server {
        let tables = vec![Table::build(
            "t",
            &["id", "v"],
            &[],
            vec![vec![V::Int(1), V::str("a")], vec![V::Int(2), V::str("b")]],
        )
        .unwrap()];
        let loaded = InMemory::new(tables).load_lake().unwrap();
        let service = LakeService::new(loaded, GenTConfig::default(), "unit test");
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            read_timeout: Duration::from_millis(500),
            ..ServeConfig::default()
        };
        Server::bind(&cfg, service).unwrap()
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        let status: u16 =
            text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
        let body = text.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    #[test]
    fn serves_healthz_and_stops_cleanly() {
        let server = test_server();
        let addr = server.local_addr().unwrap();
        let handle = server.handle().unwrap();
        let runner = std::thread::spawn(move || server.run());

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200, "body: {body}");
        assert!(body.contains("\"ok\""));

        handle.stop();
        runner.join().unwrap().unwrap();
    }

    /// Read exactly one HTTP response from a kept-alive socket: status
    /// line, headers, then `Content-Length` bytes of body.
    fn read_one_response(reader: &mut std::io::BufReader<&TcpStream>) -> (u16, String, String) {
        use std::io::BufRead;
        let mut head = String::new();
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line.is_empty() {
                break;
            }
            head.push_str(&line);
        }
        let status: u16 =
            head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_string)
            })
            .and_then(|v| v.trim().parse().ok())
            .expect("content-length");
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, head, String::from_utf8(body).unwrap())
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_socket() {
        let server = test_server();
        let addr = server.local_addr().unwrap();
        let handle = server.handle().unwrap();
        let runner = std::thread::spawn(move || server.run());

        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = std::io::BufReader::new(&stream);
        for i in 0..3 {
            let mut w = &stream;
            write!(w, "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n")
                .unwrap();
            let (status, head, body) = read_one_response(&mut reader);
            assert_eq!(status, 200, "request {i}: {body}");
            assert!(
                head.contains("Connection: keep-alive"),
                "request {i} must advertise reuse: {head}"
            );
            assert!(body.contains("\"ok\""));
        }
        // Dropping Connection: keep-alive closes the socket after the
        // response, exactly as advertised.
        let mut w = &stream;
        write!(w, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let (status, head, _) = read_one_response(&mut reader);
        assert_eq!(status, 200);
        assert!(head.contains("Connection: close"), "{head}");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "server must close after a non-keep-alive request");

        handle.stop();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn idle_keep_alive_socket_is_closed_silently() {
        // After a completed keep-alive exchange, a client that goes idle
        // past the keep-alive deadline must see a plain close — no
        // unsolicited 408 that would be misread as the next response.
        let server = test_server();
        let addr = server.local_addr().unwrap();
        let handle = server.handle().unwrap();
        let runner = std::thread::spawn(move || server.run());

        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = std::io::BufReader::new(&stream);
        let mut w = &stream;
        write!(w, "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n").unwrap();
        let (status, _, _) = read_one_response(&mut reader);
        assert_eq!(status, 200);
        // Idle past the (test-config 500 ms) keep-alive window: the server
        // must close without writing another byte.
        std::thread::sleep(Duration::from_millis(900));
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "", "idle teardown must not write an unsolicited response");

        handle.stop();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn concurrent_requests_all_answered() {
        let server = test_server();
        let addr = server.local_addr().unwrap();
        let handle = server.handle().unwrap();
        let runner = std::thread::spawn(move || server.run());

        let fetches: Vec<_> =
            (0..6).map(|_| std::thread::spawn(move || get(addr, "/lake/stat"))).collect();
        for f in fetches {
            let (status, body) = f.join().unwrap();
            assert_eq!(status, 200, "body: {body}");
        }

        handle.stop();
        runner.join().unwrap().unwrap();
    }
}
