//! The end-to-end run of one workload: set-up, correctness oracle, the
//! timed closed-loop phase over a real socket, and the twelve figures.
//! Tracing is off here; `traced.rs` is the separate per-layer run.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use gent_discovery::DataLake;
use gent_store::snapshot;
use gent_table::Table;

use crate::check::{self, Expected};
use crate::client::{render_get, Client, Exchange};
use crate::daemon::Daemon;
use crate::stats;
use crate::workload::{self, Item, Spec};

/// How often set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// How often the cold first reclaim is repeated; the figure is the median.
const COLD_REPEATS: usize = 25;
/// Untimed requests each client sends before the timed phase, so worker
/// threads, sockets and allocator arenas are past their first use.
const SOCKET_WARMUPS: usize = 3;

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Tiny lakes, for tests.
    pub smoke: bool,
    /// Run length in units of a nominal 10 s.
    pub units: usize,
    /// Directory for snapshot files (inside the checkout).
    pub scratch: PathBuf,
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: usize,
}

/// The result of one run (either kind).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phases.
    pub attempted: usize,
    /// Of those, how many failed (I/O error, non-200, wrong answer).
    pub failed: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// The figures, in `BENCHMARK.json` order.
    pub figures: Vec<Figure>,
    /// Human-readable side notes (phase lengths, p99, budget tables …).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Did every operation succeed with the right answer?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub(crate) fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }
}

/// The samples one stream (all readers, or the writer) produced.
#[derive(Debug)]
struct Stream {
    /// `(item index, latency ms)` of every successful exchange.
    samples: Vec<(usize, f64)>,
    attempted: usize,
    failures: Vec<String>,
    started: Instant,
    ended: Instant,
}

impl Stream {
    /// An empty stream whose clock starts now.
    fn begin() -> Stream {
        let now = Instant::now();
        Stream { samples: Vec::new(), attempted: 0, failures: Vec::new(), started: now, ended: now }
    }

    /// Record one exchange: a sample if it was answered 200 and `check`
    /// accepts the body, a failure otherwise.
    fn record(
        &mut self,
        what: &str,
        i: usize,
        exchange: std::io::Result<Exchange>,
        check: impl FnOnce(&[u8]) -> Result<(), String>,
    ) {
        self.attempted += 1;
        match checked(exchange, check) {
            Ok(x) => self.samples.push((i, ms(x.latency))),
            Err(e) => self.failures.push(format!("{what} {i}: {e}")),
        }
    }

    fn merge(mut self, other: Stream) -> Stream {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.started = self.started.min(other.started);
        self.ended = self.ended.max(other.ended);
        self
    }

    fn wall(&self) -> Duration {
        self.ended.duration_since(self.started)
    }

    fn latencies(&self) -> Vec<f64> {
        stats::sorted(self.samples.iter().map(|&(_, ms)| ms).collect())
    }
}

/// An exchange that was answered 200 with a body `check` accepts.
fn checked(
    exchange: std::io::Result<Exchange>,
    check: impl FnOnce(&[u8]) -> Result<(), String>,
) -> Result<Exchange, String> {
    let x = exchange.map_err(|e| e.to_string())?;
    if x.status != 200 {
        let body = String::from_utf8_lossy(&x.body[..x.body.len().min(200)]);
        return Err(format!("status {} {body}", x.status));
    }
    check(&x.body)?;
    Ok(x)
}

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Build the lake's index and write its snapshot to `path`.
pub(crate) fn build_and_save(tables: Vec<Table>, path: &Path) -> Result<(), String> {
    let lake = DataLake::from_tables(tables);
    snapshot::save(path, &lake, None).map_err(|e| format!("snapshot save: {e}"))
}

/// One full set-up, timed: datagen, index build, snapshot save, daemon
/// boot, first answered probe. Leaves the snapshot at `path`.
fn setup_once(spec: &Spec, opts: &Options, path: &Path) -> Result<Duration, String> {
    let t0 = Instant::now();
    let inputs = workload::generate(spec, opts.seed, opts.smoke, opts.units);
    build_and_save(inputs.lake_tables, path)?;
    let daemon = Daemon::boot_snapshot(path)?;
    let mut client = Client::new(daemon.addr);
    let probe = client.exchange(&render_get("/healthz"));
    let elapsed = t0.elapsed();
    drop(client);
    daemon.stop()?;
    checked(probe, |_| Ok(())).map_err(|e| format!("healthz: {e}"))?;
    Ok(elapsed)
}

/// Fresh open + boot + the first reclaim of one fixed source: what a
/// caller pays who arrives right after a (re)start. The OS page cache is
/// warm; index thaw and first-touch table decode are paid here.
fn cold_first_reclaim(path: &Path, item: &Item, expected: &Expected) -> Result<Duration, String> {
    let t0 = Instant::now();
    let daemon = Daemon::boot_snapshot(path)?;
    let mut client = Client::new(daemon.addr);
    let exchange = client.exchange(&item.request);
    let elapsed = t0.elapsed();
    drop(client);
    daemon.stop()?;
    checked(exchange, |body| expected.verify(body)).map_err(|e| format!("cold reclaim: {e}"))?;
    Ok(elapsed)
}

/// What every reader of a phase shares.
struct Reads<'a> {
    addr: SocketAddr,
    sources: &'a [Item],
    expected: &'a [Expected],
    /// Source indices in sending order.
    order: &'a [usize],
    /// Next position of `order` to send; readers draw from it.
    cursor: AtomicUsize,
    /// The cheap source each reader warms its socket up with.
    warm_up: &'a Item,
}

/// One reader: draw the next position of the order, send that source,
/// check the answer. `until` makes the walk cyclic — it ends when the flag
/// is raised (the writer finished) instead of when the order is exhausted.
fn read_stream(reads: &Reads<'_>, until: Option<&AtomicBool>, start: &Barrier) -> Stream {
    let mut client = Client::new(reads.addr);
    for _ in 0..SOCKET_WARMUPS {
        let _ = client.exchange(&reads.warm_up.request);
    }
    start.wait();
    let mut stream = Stream::begin();
    loop {
        let k = reads.cursor.fetch_add(1, Ordering::Relaxed);
        let i = match until {
            Some(done) if done.load(Ordering::SeqCst) => break,
            Some(_) => reads.order[k % reads.order.len()],
            None => match reads.order.get(k) {
                Some(&i) => i,
                None => break,
            },
        };
        let exchange = client.exchange(&reads.sources[i].request);
        stream.record("source", i, exchange, |body| reads.expected[i].verify(body));
    }
    stream.ended = Instant::now();
    stream
}

/// The writer: every ingest in order, one at a time.
fn write_stream(addr: SocketAddr, ingests: &[Item], start: Option<&Barrier>) -> Stream {
    let mut client = Client::new(addr);
    let _ = client.exchange(&render_get("/healthz"));
    if let Some(start) = start {
        start.wait();
    }
    let mut stream = Stream::begin();
    for (i, item) in ingests.iter().enumerate() {
        stream.record("ingest", i, client.exchange(&item.request), |_| Ok(()));
    }
    stream.ended = Instant::now();
    stream
}

/// Run the two streams: concurrently (one reader, one writer) or reads
/// first on two clients, then the writer alone. `after_reads` runs at the
/// point the phase's peak memory is taken.
fn timed_phase(
    concurrent: bool,
    reads: &Reads<'_>,
    ingests: &[Item],
    after_reads: impl FnOnce(),
) -> (Stream, Stream) {
    if concurrent {
        let done = AtomicBool::new(false);
        let start = Barrier::new(2);
        let streams = std::thread::scope(|scope| {
            let reader = scope.spawn(|| read_stream(reads, Some(&done), &start));
            let written = write_stream(reads.addr, ingests, Some(&start));
            done.store(true, Ordering::SeqCst);
            (reader.join().expect("reader thread"), written)
        });
        after_reads();
        streams
    } else {
        let start = Barrier::new(crate::CLIENTS);
        let read = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..crate::CLIENTS)
                .map(|_| scope.spawn(|| read_stream(reads, None, &start)))
                .collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("reader thread"))
                .reduce(Stream::merge)
                .expect("at least one client")
        });
        after_reads();
        (read, write_stream(reads.addr, ingests, None))
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset the high-water mark so it covers the timed phase only. Best
/// effort: where `/proc/self/clear_refs` is read-only the figure includes
/// set-up, on both sides of any comparison alike.
fn reset_peak_rss() {
    release_free_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hand the allocator's free pages back to the OS. Set-up and the oracle
/// pass leave about a gigabyte of freed heap resident (glibc keeps it in
/// the arenas of threads that have since exited), which would otherwise
/// sit under every later peak and vary from run to run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time from any thread; it only returns free heap pages to the OS.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Run one workload end to end with tracing off.
pub fn run(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let path = opts.scratch.join(format!("{}.gentlake", spec.name));

    // Set-up, repeated; the last repeat's snapshot is the one served.
    let t_all = Instant::now();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        setups.push(setup_once(spec, opts, &path)?.as_secs_f64());
    }
    let snapshot_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let mut inputs = workload::generate(spec, opts.seed, opts.smoke, opts.units);
    let n_tables = inputs.lake_tables.len();
    // The generated tables are on disk now; keep them out of peak memory.
    inputs.lake_tables = Vec::new();

    // Open the snapshot as `gent serve` does and reclaim every source
    // in-process: the oracle, and the warm-up of the lake about to be
    // served (index thawed, the touched tables decoded).
    let t_oracle = Instant::now();
    let loaded = snapshot::load(&path).map_err(|e| format!("snapshot open: {e}"))?;
    let oracle = check::oracle(&loaded.lake, &inputs.sources, crate::CLIENTS)?;
    let oracle_s = t_oracle.elapsed().as_secs_f64();
    let (expected, cost): (Vec<Expected>, Vec<Duration>) = oracle.into_iter().unzip();

    // Longest first, every pass: two clients draining one list finish
    // within one cheap request of each other, so throughput does not
    // depend on which client drew the 3 s source last.
    let mut by_cost: Vec<usize> = (0..inputs.sources.len()).collect();
    by_cost.sort_by(|&a, &b| cost[b].cmp(&cost[a]).then(a.cmp(&b)));
    let passes = if opts.smoke { 1 } else { spec.read_passes * opts.units };
    let order: Vec<usize> = if spec.concurrent_ingest {
        (0..inputs.sources.len()).collect()
    } else {
        (0..passes).flat_map(|_| by_cost.iter().copied()).collect()
    };

    let daemon = Daemon::boot_loaded(loaded, &path)?;

    let t_cold = Instant::now();
    let cold = spec.cold_source.min(inputs.sources.len() - 1);
    let mut colds = Vec::with_capacity(COLD_REPEATS);
    for _ in 0..if opts.smoke { 3 } else { COLD_REPEATS } {
        colds.push(ms(cold_first_reclaim(&path, &inputs.sources[cold], &expected[cold])?));
    }
    let cold_s = t_cold.elapsed().as_secs_f64();

    // Memory: the daemon's peak while it answers its costliest request,
    // alone. (The peak over the concurrent phase is printed too, but it is
    // bimodal — 1.5 or 2.2 GB on `tptr_med` — by whether the two largest
    // requests' peaks happen to coincide.)
    reset_peak_rss();
    let costliest = by_cost[0];
    let mut client = Client::new(daemon.addr);
    let solo = client.exchange(&inputs.sources[costliest].request);
    drop(client);
    let solo_peak = peak_rss_mb();
    if let Err(e) = checked(solo, |body| expected[costliest].verify(body)) {
        out.fail(format!("memory probe, source {costliest}: {e}"));
    }

    reset_peak_rss();
    let mut phase_peak = None;
    let t_timed = Instant::now();
    let plan = Reads {
        addr: daemon.addr,
        sources: &inputs.sources,
        expected: &expected,
        order: &order,
        cursor: AtomicUsize::new(0),
        warm_up: &inputs.sources[cold],
    };
    let (reads, writes) =
        timed_phase(spec.concurrent_ingest, &plan, &inputs.ingests, || phase_peak = peak_rss_mb());
    let timed_s = t_timed.elapsed().as_secs_f64();
    daemon.stop()?;

    out.attempted = 1 + reads.attempted + writes.attempted;
    for failure in reads.failures.iter().chain(&writes.failures) {
        out.fail(failure.clone());
    }
    // Durability: every acknowledged table, from the bytes on disk.
    let acknowledged: Vec<&Table> =
        writes.samples.iter().map(|&(i, _)| &inputs.ingests[i].table).collect();
    if let Err(e) = check::verify_durable(&path, &acknowledged) {
        out.fail(e);
    }
    let final_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let _ = std::fs::remove_file(&path);

    if reads.samples.is_empty() || writes.samples.is_empty() {
        out.fail("a stream completed no operation".into());
        return Ok(out);
    }
    let read_ms = reads.latencies();
    let write_ms = writes.latencies();
    let mut answered: Vec<usize> = reads.samples.iter().map(|&(i, _)| i).collect();
    answered.sort_unstable();
    answered.dedup();
    // Over distinct sources in index order, so the figure is exact and
    // independent of how many passes a cyclic reader got through.
    let mean_eis = answered.iter().map(|&i| expected[i].eis).sum::<f64>() / answered.len() as f64;

    let figure = |name, value, samples| Figure { name, value, samples };
    out.figures = vec![
        figure("setup_s", stats::median(&setups), setups.len()),
        figure("reclaim_p50_ms", stats::percentile(&read_ms, 50.0), read_ms.len()),
        figure("reclaim_p90_ms", stats::percentile(&read_ms, 90.0), read_ms.len()),
        figure("reclaims_per_s", read_ms.len() as f64 / reads.wall().as_secs_f64(), read_ms.len()),
        figure("cold_first_reclaim_ms", stats::median(&colds), colds.len()),
        figure("ingest_p50_ms", stats::percentile(&write_ms, 50.0), write_ms.len()),
        figure("ingest_p90_ms", stats::percentile(&write_ms, 90.0), write_ms.len()),
        figure(
            "ingests_per_s",
            write_ms.len() as f64 / writes.wall().as_secs_f64(),
            write_ms.len(),
        ),
        figure("mean_eis", mean_eis, answered.len()),
        figure("peak_rss_mb", solo_peak.unwrap_or(f64::NAN), 1),
    ];

    out.notes.push(format!(
        "lake: {n_tables} tables, snapshot {:.1} MB (after ingests {:.1} MB); {} sources, {} read passes, {} ingests",
        snapshot_bytes as f64 / 1e6,
        final_bytes as f64 / 1e6,
        inputs.sources.len(),
        if spec.concurrent_ingest { read_ms.len() as f64 / inputs.sources.len() as f64 } else { passes as f64 },
        inputs.ingests.len(),
    ));
    out.notes.push(format!(
        "phases: set-up x{SETUP_REPEATS} {:.1} s, oracle+warm-up {oracle_s:.1} s, cold x{} {cold_s:.1} s, timed {timed_s:.1} s (reads {:.1} s, writes {:.1} s); whole run {:.1} s",
        setups.iter().sum::<f64>(),
        colds.len(),
        reads.wall().as_secs_f64(),
        writes.wall().as_secs_f64(),
        t_all.elapsed().as_secs_f64(),
    ));
    if let Some(p) = stats::highest_supported_percentile(read_ms.len()).filter(|&p| p > 90.0) {
        out.notes.push(format!(
            "reclaim tail: p{p} = {:.3} ms (highest percentile with >=10 of {} samples beyond it)",
            stats::percentile(&read_ms, p),
            read_ms.len()
        ));
    }
    out.notes.push(format!(
        "peak RSS over the concurrent timed phase: {:.0} MB",
        phase_peak.unwrap_or(f64::NAN)
    ));
    out.notes.push(format!(
        "failed_share: {:.4} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    Ok(out)
}
