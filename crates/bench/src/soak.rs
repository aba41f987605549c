//! The soak harness behind `gent bench soak`: a seeded, randomized client
//! mix fired at a live in-process daemon for a configurable duration, with
//! fault injection on by default.
//!
//! The mix exercises every robustness surface at once:
//!
//! * **well-behaved clients** — [`gent_serve::RetryClient`] loops issuing
//!   reclaims, stat and health probes, riding the retry/backoff contract
//!   through every injected fault;
//! * **keep-alive pools** — raw sockets reusing one connection for many
//!   exchanges, the way a pooled SDK would;
//! * **hostile frames** — truncated heads, binary junk, oversized and
//!   lying `Content-Length`s, slow-loris partials;
//! * **concurrent reloads** — `POST /admin/reload` alternating two tagged
//!   snapshots on an interval, racing all of the above;
//! * **ingest churn** — `POST /admin/ingest` appending uniquely-named
//!   tables as crash-safe delta frames, racing the reloads and riding the
//!   auto-compaction threshold (`--no-ingest` disables);
//! * **strict scrapes** — `GET /metrics` parsed with [`crate::promtext`]
//!   (a parser pickier than Prometheus itself) on every pass;
//! * **injected faults** — `gent_faults` probability triggers armed on the
//!   store read and serve socket sites (seeded, so a failing run replays).
//!
//! With `addr` set (`gent bench soak --addr host:port`) the storm targets
//! a daemon **you already run** instead of booting one in-process: fault
//! arming, the reloader and the worker-panic cross-check are skipped
//! (they need in-process access), while the client mix, strict scrapes,
//! ingest churn and the structured-error contract all still apply.
//!
//! The run *asserts* the robustness contract instead of merely surviving:
//! zero worker deaths (the panic counter must equal the injected panic
//! count — nothing else may kill a handler), zero non-structured errors
//! (every non-200 to a well-behaved client must parse as the
//! `{"error": {kind, message, trace_id}}` envelope), every scrape
//! well-formed, and client-observed p50 latency flat between the first and
//! second half of the run. Violations are collected, not panicked, so one
//! report shows everything that went wrong.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gent_core::GenTConfig;
use gent_discovery::DataLake;
use gent_serve::{Json, RetryClient, RetryPolicy, Router, ServeConfig, Server};
use gent_table::{Table, Value};

/// Knobs for one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// How long the storm lasts (the final health check runs after).
    pub duration: Duration,
    /// Master seed: client schedules, fault streams and the request mix
    /// all derive from it, so a failing run is replayable.
    pub seed: u64,
    /// Well-behaved `RetryClient` threads.
    pub clients: usize,
    /// Hostile-frame threads (malformed / slow-loris traffic).
    pub hostile: usize,
    /// Keep-alive pool threads (many exchanges per connection).
    pub keep_alive: usize,
    /// Interval between `/admin/reload` snapshot swaps.
    pub reload_interval: Duration,
    /// Arm the fault layer (`--no-faults` clears this).
    pub faults: bool,
    /// Daemon worker threads.
    pub threads: usize,
    /// Run an ingest-churn client (`--no-ingest` clears this).
    pub ingest: bool,
    /// Storm an external daemon at this address instead of booting one
    /// in-process. External mode runs no faults, no reloader and no
    /// worker-panic cross-check — those need in-process access.
    pub addr: Option<String>,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            duration: Duration::from_secs(60),
            seed: 8,
            clients: 4,
            hostile: 2,
            keep_alive: 2,
            reload_interval: Duration::from_millis(250),
            faults: true,
            threads: 4,
            ingest: true,
            addr: None,
        }
    }
}

/// What a soak run observed. `violations` empty ⇔ the contract held.
#[derive(Debug, Clone, Default)]
pub struct SoakReport {
    /// 200-class answers to well-behaved clients.
    pub requests_ok: u64,
    /// Non-200 answers that parsed as the structured error envelope.
    pub structured_errors: u64,
    /// Extra attempts the retry layer spent (attempts − 1, summed).
    pub retries: u64,
    /// Responses observed under a different generation than the client's
    /// previous one — proof the mix actually raced reloads.
    pub generation_changes: u64,
    /// Successful `/admin/reload` swaps.
    pub reloads: u64,
    /// Reloads refused 422 by an injected fault (only legal with faults on).
    pub reloads_faulted: u64,
    /// Successful `/admin/ingest` delta appends.
    pub ingests: u64,
    /// Hostile frames delivered.
    pub hostile_frames: u64,
    /// Keep-alive exchanges completed.
    pub keep_alive_exchanges: u64,
    /// Strict `/metrics` scrapes that parsed clean.
    pub scrapes: u64,
    /// Final `gent_worker_panics_total` — must equal `panics_injected`.
    pub worker_panics: u64,
    /// How many times the armed `serve.worker.panic` site fired.
    pub panics_injected: u64,
    /// Total failpoint evaluations (proof the fault layer was live).
    pub fault_checks: u64,
    /// Client-observed p50 latency, first half of the run (µs).
    pub p50_first_half_us: u64,
    /// Client-observed p50 latency, second half of the run (µs).
    pub p50_second_half_us: u64,
    /// Contract violations; empty means the run passed.
    pub violations: Vec<String>,
}

impl SoakReport {
    /// Render the report as aligned `key: value` lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| out.push_str(&format!("{k:>24}  {v}\n"));
        line("requests ok", self.requests_ok.to_string());
        line("structured errors", self.structured_errors.to_string());
        line("retries spent", self.retries.to_string());
        line("generation changes", self.generation_changes.to_string());
        line("reloads", self.reloads.to_string());
        line("reloads faulted", self.reloads_faulted.to_string());
        line("ingests", self.ingests.to_string());
        line("hostile frames", self.hostile_frames.to_string());
        line("keep-alive exchanges", self.keep_alive_exchanges.to_string());
        line("strict scrapes", self.scrapes.to_string());
        line(
            "worker panics",
            format!("{} ({} injected)", self.worker_panics, self.panics_injected),
        );
        line("fault checks", self.fault_checks.to_string());
        line(
            "p50 latency",
            format!("{}us -> {}us", self.p50_first_half_us, self.p50_second_half_us),
        );
        for v in &self.violations {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
        out
    }
}

/// Deterministic per-role stream: splitmix64 over the master seed.
struct Rng(u64);

impl Rng {
    fn derive(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A lake whose every cell carries `tag`, so any reclaim response reveals
/// which snapshot generation answered it.
fn tagged_lake(tag: &str) -> DataLake {
    let rows = |t: &str| {
        (0..16).map(|i| vec![Value::Int(i), Value::str(format!("{t}_{i}"))]).collect::<Vec<_>>()
    };
    DataLake::from_tables(vec![
        Table::build("marker", &["id", "val"], &["id"], rows(tag)).unwrap(),
        Table::build("aux", &["id", "val"], &["id"], rows(tag)).unwrap(),
    ])
}

/// Shared tallies, bumped lock-free by the client threads.
#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    structured: AtomicU64,
    retries: AtomicU64,
    generation_changes: AtomicU64,
    hostile: AtomicU64,
    keep_alive: AtomicU64,
    scrapes: AtomicU64,
    ingests: AtomicU64,
}

/// Probability triggers armed for the storm. `serve.write.stall` stays
/// rare — every hit parks a worker for its full stall.
const FAULT_SPECS: &[(&str, f64)] = &[
    ("store.load.read", 0.10),
    ("serve.conn.reset", 0.01),
    ("serve.worker.panic", 0.005),
    ("serve.write.stall", 0.003),
    ("serve.write.truncate", 0.01),
];

/// Silence the default panic hook's backtrace for *injected* worker
/// panics only — a 60 s storm fires dozens and each would dump a full
/// backtrace. Real panics still report through the previous hook.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            let injected = message.is_some_and(|m| m.contains("injected worker panic"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Run the soak storm described by `cfg`. Ok carries the full report;
/// Err carries the same report with at least one violation recorded.
#[allow(clippy::result_large_err)] // Err IS the report — boxing it buys nothing here
pub fn run(cfg: &SoakConfig) -> Result<SoakReport, SoakReport> {
    quiet_injected_panics();
    // External mode never injects faults — they would hit *this* process,
    // not the daemon under storm — so clear the flag once here and let
    // every downstream `cfg.faults` check read the truth.
    let mut cfg = cfg.clone();
    let external = cfg.addr.is_some();
    if external {
        cfg.faults = false;
    }
    let cfg = &cfg;

    // In-process boot (skipped with `addr` set): two tagged snapshots and
    // a daemon on an ephemeral port, plus the scratch dir to tear down.
    let mut boot = None;
    let addr: SocketAddr = match &cfg.addr {
        Some(spec) => {
            use std::net::ToSocketAddrs;
            match spec.to_socket_addrs().ok().and_then(|mut addrs| addrs.next()) {
                Some(a) => a,
                None => {
                    return Err(SoakReport {
                        violations: vec![format!("`{spec}` resolves to no address")],
                        ..SoakReport::default()
                    })
                }
            }
        }
        None => {
            let dir =
                std::env::temp_dir().join(format!("gent-soak-{}-{}", std::process::id(), cfg.seed));
            std::fs::create_dir_all(&dir).expect("soak scratch dir");
            let v1 = dir.join("v1.gentlake");
            let v2 = dir.join("v2.gentlake");
            gent_store::snapshot::save(&v1, &tagged_lake("v1"), None).expect("save v1");
            gent_store::snapshot::save(&v2, &tagged_lake("v2"), None).expect("save v2");

            let mut builder = Router::builder(GenTConfig::default());
            builder.add_snapshot("main", &v1).expect("boot snapshot");
            let serve_cfg = ServeConfig {
                addr: "127.0.0.1:0".into(),
                threads: cfg.threads,
                read_timeout: Duration::from_secs(5),
                ..ServeConfig::default()
            };
            let server = Server::bind_router(&serve_cfg, builder.build().unwrap()).expect("bind");
            let addr = server.local_addr().unwrap();
            let handle = server.handle().unwrap();
            let runner = std::thread::spawn(move || server.run());
            boot = Some((dir, v1, v2, handle, runner));
            addr
        }
    };

    // Arm faults only after boot — the initial snapshot loads must not
    // consume probability rolls meant for the storm.
    gent_faults::reset();
    if cfg.faults {
        gent_faults::set_seed(cfg.seed);
        for (site, p) in FAULT_SPECS {
            gent_faults::arm(site, gent_faults::Trigger::Probability(*p));
        }
        gent_faults::set_enabled(true);
    }

    let deadline = Instant::now() + cfg.duration;
    let started = Instant::now();
    let stop = AtomicBool::new(false);
    let tally = Tally::default();
    let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
    // (elapsed µs at completion, latency µs) per OK request, for flatness.
    let latencies: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    let mut reloads = 0u64;
    let mut reloads_faulted = 0u64;

    std::thread::scope(|scope| {
        let stop = &stop;
        let tally = &tally;
        let violations = &violations;
        let latencies = &latencies;

        for client in 0..cfg.clients {
            scope.spawn(move || {
                well_behaved(addr, cfg, client as u64, stop, tally, violations, latencies, started)
            });
        }
        for hostile in 0..cfg.hostile {
            scope.spawn(move || hostile_frames(addr, cfg.seed, hostile as u64, stop, tally));
        }
        for pool in 0..cfg.keep_alive {
            scope.spawn(move || keep_alive_pool(addr, cfg.seed, pool as u64, stop, tally));
        }
        scope.spawn(move || scraper(addr, stop, tally, violations));
        if cfg.ingest {
            scope.spawn(move || ingest_churn(addr, cfg, stop, tally, violations));
        }

        match &boot {
            // The reloader runs on this thread so its tallies need no
            // sharing. External daemons get no reloader — their snapshot
            // paths are not ours to swap.
            Some((_, v1, v2, _, _)) => {
                let mut admin = RetryClient::with_policy(
                    addr,
                    RetryPolicy {
                        max_attempts: 3,
                        base_backoff: Duration::from_millis(10),
                        max_backoff: Duration::from_millis(200),
                        request_timeout: Duration::from_secs(5),
                        seed: cfg.seed ^ 0xad31,
                    },
                );
                let mut swap = 0u64;
                while Instant::now() < deadline {
                    std::thread::sleep(cfg.reload_interval.min(deadline - Instant::now()));
                    let target = if swap.is_multiple_of(2) { v2 } else { v1 };
                    swap += 1;
                    let body = format!(r#"{{"lake": "main", "path": "{}"}}"#, target.display());
                    match admin.post("/admin/reload", &body) {
                        Ok(r) if r.status == 200 => reloads += 1,
                        Ok(r) if r.status == 422 && cfg.faults => {
                            // An injected store.load.read fault refused the
                            // swap — legal, but it must still be a
                            // structured refusal.
                            if structured_kind(&r.body).as_deref() == Some("reload_failed") {
                                reloads_faulted += 1;
                            } else {
                                violations
                                    .lock()
                                    .unwrap()
                                    .push(format!("unstructured 422 reload refusal: {}", r.body));
                            }
                        }
                        Ok(r) => violations
                            .lock()
                            .unwrap()
                            .push(format!("reload answered {}: {}", r.status, r.body)),
                        Err(e) => violations.lock().unwrap().push(format!("reload gave up: {e}")),
                    }
                }
            }
            None => {
                while Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(100).min(deadline - Instant::now()));
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
    });

    // Capture fault evidence *before* reset wipes the counters.
    let panics_injected = gent_faults::fired("serve.worker.panic");
    let fault_checks = gent_faults::checks();
    gent_faults::reset();

    let mut report = SoakReport {
        requests_ok: tally.ok.load(Ordering::Relaxed),
        structured_errors: tally.structured.load(Ordering::Relaxed),
        retries: tally.retries.load(Ordering::Relaxed),
        generation_changes: tally.generation_changes.load(Ordering::Relaxed),
        reloads,
        reloads_faulted,
        ingests: tally.ingests.load(Ordering::Relaxed),
        hostile_frames: tally.hostile.load(Ordering::Relaxed),
        keep_alive_exchanges: tally.keep_alive.load(Ordering::Relaxed),
        scrapes: tally.scrapes.load(Ordering::Relaxed),
        panics_injected,
        fault_checks,
        violations: violations.into_inner().unwrap(),
        ..SoakReport::default()
    };

    // Post-storm health: the daemon must be alive, ready, scrapeable, and
    // its panic counter must account for exactly the injected panics.
    let mut probe = RetryClient::new(addr);
    match probe.get("/healthz/ready") {
        Ok(r) if r.status == 200 => {}
        Ok(r) => report.violations.push(format!("not ready after storm: {} {}", r.status, r.body)),
        Err(e) => report.violations.push(format!("daemon unreachable after storm: {e}")),
    }
    match probe.get("/metrics") {
        Ok(r) if r.status == 200 => match crate::promtext::parse_exposition(&r.body) {
            Ok(exposition) => {
                report.worker_panics =
                    exposition.value("gent_worker_panics_total", &[]).unwrap_or(0.0) as u64;
                // An external daemon's panic counter may predate our storm,
                // so the exact cross-check is only meaningful in-process.
                if !external && report.worker_panics != panics_injected {
                    report.violations.push(format!(
                        "worker panics {} != injected {} — a worker died for real",
                        report.worker_panics, panics_injected
                    ));
                }
            }
            Err(e) => report.violations.push(format!("final scrape malformed: {e}")),
        },
        other => report.violations.push(format!("final scrape failed: {other:?}")),
    }
    if report.requests_ok == 0 {
        report.violations.push("no well-behaved request ever succeeded".into());
    }
    if cfg.faults && report.fault_checks == 0 {
        report.violations.push("fault layer armed but never evaluated a site".into());
    }
    if cfg.faults && report.generation_changes == 0 && report.reloads > 0 {
        report.violations.push("reloads happened but no client ever saw a swap".into());
    }
    // In-process the default lake always has a snapshot path, so the churn
    // must land appends; an external lake may legitimately refuse them all
    // (e.g. a memory-only lake answers a structured 400).
    if cfg.ingest && !external && report.ingests == 0 {
        report.violations.push("ingest churn ran but no append ever succeeded".into());
    }

    // Latency flatness: p50 of the second half must stay within 4× of the
    // first half (+5 ms grace for near-zero baselines). Medians, not means
    // — injected stalls legitimately fatten the tail. Runs under 10 s only
    // report the p50s; their first half is all ramp-up, so a drift gate
    // would measure warmup, not drift.
    let mut lat = latencies.into_inner().unwrap();
    if lat.len() >= 20 {
        let half_us = (cfg.duration.as_micros() / 2) as u64;
        let mut first: Vec<u64> =
            lat.iter().filter(|(at, _)| *at < half_us).map(|(_, l)| *l).collect();
        let mut second: Vec<u64> =
            lat.iter().filter(|(at, _)| *at >= half_us).map(|(_, l)| *l).collect();
        if !first.is_empty() && !second.is_empty() {
            first.sort_unstable();
            second.sort_unstable();
            report.p50_first_half_us = first[first.len() / 2];
            report.p50_second_half_us = second[second.len() / 2];
            let budget = report.p50_first_half_us.saturating_mul(4) + 5_000;
            if cfg.duration >= Duration::from_secs(10) && report.p50_second_half_us > budget {
                report.violations.push(format!(
                    "latency drifted: p50 {}us -> {}us (budget {}us)",
                    report.p50_first_half_us, report.p50_second_half_us, budget
                ));
            }
        }
    }
    lat.clear();

    if let Some((dir, _, _, handle, runner)) = boot {
        handle.stop();
        match runner.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => report.violations.push(format!("daemon exited with error: {e}")),
            Err(_) => report.violations.push("daemon thread panicked".into()),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    if report.violations.is_empty() {
        Ok(report)
    } else {
        Err(report)
    }
}

/// `error.kind` of a structured envelope, if the body is one.
fn structured_kind(body: &str) -> Option<String> {
    let v = Json::parse(body).ok()?;
    let error = v.get("error")?;
    error.get("trace_id").and_then(Json::as_str)?;
    Some(error.get("kind").and_then(Json::as_str)?.to_string())
}

#[allow(clippy::too_many_arguments)]
fn well_behaved(
    addr: SocketAddr,
    cfg: &SoakConfig,
    id: u64,
    stop: &AtomicBool,
    tally: &Tally,
    violations: &Mutex<Vec<String>>,
    latencies: &Mutex<Vec<(u64, u64)>>,
    started: Instant,
) {
    let mut rng = Rng::derive(cfg.seed, 0x11 + id);
    // Generous attempts: an injected truncation or reset must be retried
    // through, never surface to the caller.
    let mut client = RetryClient::with_policy(
        addr,
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(250),
            request_timeout: Duration::from_secs(5),
            seed: cfg.seed ^ (0xc11e << 8) ^ id,
        },
    );
    while !stop.load(Ordering::SeqCst) {
        let begun = Instant::now();
        let result = match rng.below(10) {
            0 => client.get("/healthz"),
            1 => client.get("/healthz/ready"),
            2 | 3 => client.get("/lake/stat?lake=main"),
            _ => client.post("/reclaim", r#"{"lake": "main", "source_name": "marker"}"#),
        };
        match result {
            Ok(r) => {
                tally.retries.fetch_add(u64::from(r.attempts.saturating_sub(1)), Ordering::Relaxed);
                if r.generation_changed {
                    tally.generation_changes.fetch_add(1, Ordering::Relaxed);
                }
                if r.status == 200 {
                    tally.ok.fetch_add(1, Ordering::Relaxed);
                    let at = (begun - started).as_micros() as u64;
                    latencies.lock().unwrap().push((at, begun.elapsed().as_micros() as u64));
                } else if structured_kind(&r.body).is_some() {
                    tally.structured.fetch_add(1, Ordering::Relaxed);
                } else {
                    violations
                        .lock()
                        .unwrap()
                        .push(format!("unstructured {} to client {id}: {:?}", r.status, r.body));
                }
            }
            // Exhausted retries on pure IO faults: tolerable only while
            // the fault layer is deliberately wrecking sockets.
            Err(e) if cfg.faults => {
                let _ = e;
            }
            Err(e) => violations.lock().unwrap().push(format!("client {id} gave up: {e}")),
        }
    }
}

/// Ingest churn: uniquely-named single-row tables appended through
/// `POST /admin/ingest` on a steady cadence, racing the reloader and
/// crossing the auto-compaction threshold as frames pile up. Names come
/// from a process-global counter so they never repeat — a refusal must
/// therefore be structured (a faulted swap's 422, or a pathless external
/// lake's 400), never a duplicate surprise or an unstructured body.
fn ingest_churn(
    addr: SocketAddr,
    cfg: &SoakConfig,
    stop: &AtomicBool,
    tally: &Tally,
    violations: &Mutex<Vec<String>>,
) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut rng = Rng::derive(cfg.seed, 0x90);
    let mut client = RetryClient::with_policy(
        addr,
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(250),
            request_timeout: Duration::from_secs(5),
            seed: cfg.seed ^ 0x1697,
        },
    );
    while !stop.load(Ordering::SeqCst) {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("soak_ingest_{}_{n}", std::process::id());
        // No "lake" field: route to the daemon's default lake, so the same
        // churn works against an external daemon with different names.
        let body = format!(
            r#"{{"tables": [{{"name": "{name}", "columns": ["id", "val"], "rows": [[{n}, "{name}"]]}}]}}"#
        );
        match client.post("/admin/ingest", &body) {
            Ok(r) if r.status == 200 => {
                tally.ingests.fetch_add(1, Ordering::Relaxed);
                if r.generation_changed {
                    tally.generation_changes.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(r) if structured_kind(&r.body).is_some() => {
                tally.structured.fetch_add(1, Ordering::Relaxed);
            }
            Ok(r) => violations
                .lock()
                .unwrap()
                .push(format!("unstructured {} to ingest: {:?}", r.status, r.body)),
            Err(e) if cfg.faults => {
                let _ = e;
            }
            Err(e) => violations.lock().unwrap().push(format!("ingest gave up: {e}")),
        }
        std::thread::sleep(Duration::from_millis(20 + rng.below(40)));
    }
}

/// Frames no correct client would send. Every one must be answered with a
/// structured 4xx or a clean close — the thread only *counts*; daemon
/// health is asserted by everyone else still making progress.
fn hostile_frames(addr: SocketAddr, seed: u64, id: u64, stop: &AtomicBool, tally: &Tally) {
    let mut rng = Rng::derive(seed, 0x40 + id);
    while !stop.load(Ordering::SeqCst) {
        let Ok(mut s) = TcpStream::connect(addr) else {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
        let sent = match rng.below(6) {
            0 => s.write_all(b"GET /healthz HT"), // truncated head
            1 => s.write_all(b"\x00\x01\x02\xff\xfegarbage\r\n\r\n"), // binary junk
            2 => {
                s.write_all(b"POST /reclaim HTTP/1.1\r\nHost: t\r\nContent-Length: 99999\r\n\r\n{}")
            } // lying length
            3 => s.write_all(b"GET /healthz HTTP/9.9\r\nHost: t\r\n\r\n"), // absurd version
            4 => {
                // Slow loris: trickle a byte, stall, abandon.
                let r = s.write_all(b"G");
                std::thread::sleep(Duration::from_millis(50));
                r.and_then(|_| s.write_all(b"ET /h"))
            }
            _ => s.write_all(b"OPTIONS * HTTP/1.1\r\nHost: t\r\n\r\n"),
        };
        if sent.is_ok() {
            let mut sink = [0u8; 512];
            let _ = s.read(&mut sink); // drain whatever answer comes
            tally.hostile.fetch_add(1, Ordering::Relaxed);
        }
        std::thread::sleep(Duration::from_millis(rng.below(30)));
    }
}

/// One long-lived connection, many exchanges — a pooled SDK's view.
fn keep_alive_pool(addr: SocketAddr, seed: u64, id: u64, stop: &AtomicBool, tally: &Tally) {
    let mut rng = Rng::derive(seed, 0x80 + id);
    while !stop.load(Ordering::SeqCst) {
        let Ok(mut s) = TcpStream::connect(addr) else {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        // Ride the connection until the daemon closes it (or a fault does).
        'conn: while !stop.load(Ordering::SeqCst) {
            let body = r#"{"lake": "main", "source_name": "marker"}"#;
            let frame = format!(
                "POST /reclaim HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            if s.write_all(frame.as_bytes()).is_err() {
                break 'conn;
            }
            match read_one_response(&mut s) {
                Some(true) => {
                    tally.keep_alive.fetch_add(1, Ordering::Relaxed);
                }
                Some(false) => break 'conn, // served, but connection closed
                None => break 'conn,        // fault ate the exchange
            }
            if rng.below(20) == 0 {
                break 'conn; // rotate the pool connection occasionally
            }
            // A pooled SDK thinks between calls; back-to-back would just
            // measure the shed path.
            std::thread::sleep(Duration::from_millis(rng.below(10)));
        }
    }
}

/// Read exactly one HTTP response off a keep-alive socket. `Some(true)` if
/// the connection may be reused, `Some(false)` if the server said close,
/// `None` on a broken exchange.
fn read_one_response(s: &mut TcpStream) -> Option<bool> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 512];
    let header_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
        match s.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
        if buf.len() > 64 * 1024 {
            return None;
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut have = buf.len() - header_end;
    while have < content_length {
        match s.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => have += n,
        }
    }
    let keep = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("connection").then(|| value.trim().to_ascii_lowercase())
        })
        .is_some_and(|v| v == "keep-alive");
    Some(keep)
}

/// Strict `/metrics` scrapes on a steady cadence: the exposition must
/// parse under the picky `promtext` grammar every single time.
fn scraper(addr: SocketAddr, stop: &AtomicBool, tally: &Tally, violations: &Mutex<Vec<String>>) {
    let mut client = RetryClient::with_policy(
        addr,
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            request_timeout: Duration::from_secs(5),
            seed: 0x5c4a_9e00,
        },
    );
    let mut families_seen: BTreeMap<String, u64> = BTreeMap::new();
    while !stop.load(Ordering::SeqCst) {
        match client.get("/metrics") {
            Ok(r) if r.status == 200 => match crate::promtext::parse_exposition(&r.body) {
                Ok(exposition) => {
                    tally.scrapes.fetch_add(1, Ordering::Relaxed);
                    for (family, _) in &exposition.families {
                        *families_seen.entry(family.clone()).or_default() += 1;
                    }
                }
                Err(e) => violations.lock().unwrap().push(format!("malformed scrape: {e}")),
            },
            Ok(r) => violations
                .lock()
                .unwrap()
                .push(format!("scrape answered {}: {:?}", r.status, r.body)),
            Err(e) if !stop.load(Ordering::SeqCst) => {
                violations.lock().unwrap().push(format!("scrape gave up: {e}"))
            }
            Err(_) => {}
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fault state is process-global; nothing else in this crate's unit
    // tests touches it, but serialize anyway for future-proofing.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn two_second_soak_with_faults_holds_the_contract() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // A fault landing on an inline compaction is logged by the daemon.
        crate::captured_logs();
        let cfg = SoakConfig {
            duration: Duration::from_secs(2),
            clients: 2,
            hostile: 1,
            keep_alive: 1,
            reload_interval: Duration::from_millis(100),
            threads: 2,
            ..SoakConfig::default()
        };
        let report = run(&cfg).unwrap_or_else(|r| panic!("soak violations:\n{}", r.render()));
        assert!(report.requests_ok > 0, "{}", report.render());
        assert!(report.hostile_frames > 0, "{}", report.render());
        assert!(report.reloads + report.reloads_faulted > 0, "{}", report.render());
        assert!(report.fault_checks > 0, "{}", report.render());
        assert!(report.scrapes > 0, "{}", report.render());
    }

    #[test]
    fn soak_runs_clean_without_faults() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = SoakConfig {
            duration: Duration::from_secs(1),
            clients: 2,
            hostile: 1,
            keep_alive: 1,
            reload_interval: Duration::from_millis(100),
            faults: false,
            threads: 2,
            ..SoakConfig::default()
        };
        let report = run(&cfg).unwrap_or_else(|r| panic!("soak violations:\n{}", r.render()));
        assert_eq!(report.panics_injected, 0);
        assert_eq!(report.worker_panics, 0, "{}", report.render());
        assert_eq!(report.fault_checks, 0, "disabled layer must not evaluate sites");
    }
}
