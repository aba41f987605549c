//! The traced run: where a request's time goes, layer by layer.
//!
//! Every request of a workload is executed three ways, each by whichever
//! of two worker threads is free (so each runs beside one busy neighbour,
//! as in the end-to-end run):
//!
//! * **socket** — sent to the daemon over loopback; gives the latency the
//!   budget must add up to, and the answer the replay must reproduce;
//! * **respond** — `Router::respond` called in-process on a second router
//!   over the same snapshot; the whole request without a socket;
//! * **replay** — the request re-executed stage by stage through each
//!   crate's public functions, one span per call. `Expand`, matrix
//!   building and the ⊎/κ/β operators run inside `matrix_traversal` and
//!   `integrate`, out of reach from here, so they are executed once more
//!   on their own (the `dissect` span) to split those two stages.
//!
//! The replay's integrated table must equal the served one, or the run
//! fails: a budget table for a different computation is worthless.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use gent_core::{
    expand_with_stats, integrate, matrix_traversal, project_select, AlignmentMatrix, GenTConfig,
};
use gent_discovery::{
    set_similarity_cached, DataLake, DiscoveryCache, OverlapRetriever, TableRetriever,
};
use gent_metrics::evaluate;
use gent_ops::{complementation, outer_union_all, subsumption};
use gent_serve::http::read_request;
use gent_serve::routing::COMPACT_FRAME_THRESHOLD;
use gent_serve::{table_from_json, table_to_json, Json, Response, Router};
use gent_store::snapshot;
use gent_table::Table;

use crate::check::{self, Expected};
use crate::client::{object_member, render_get, Client};
use crate::daemon::{router_over_snapshot, Daemon};
use crate::metrics::PER_LAYER;
use crate::run::{ms, Figure, Options, Outcome};
use crate::stats;
use crate::trace::{self_by_request, Recorder, Span};
use crate::workload::{self, Inputs, Spec};

/// Spans that are direct children of a read's `request` span, in request
/// order: the calls a reclaim makes, as far as public functions reach.
const READ_STAGES: [&str; 11] = [
    "serve.http_read",
    "serve.json_parse",
    "serve.table_from_json",
    "discovery.first_stage",
    "discovery.set_similarity",
    "core.traversal",
    "core.integrate",
    "metrics.evaluate",
    "serve.table_to_json",
    "serve.json_render",
    "serve.response_write",
];

/// Of those, the ones that run inside `Router::respond` (reading the
/// request and writing the response happen around it).
fn inside_respond(stage: &str) -> bool {
    stage != "serve.http_read" && stage != "serve.response_write"
}

/// Request ids of ingests start here, above any read's.
const INGEST_ID_BASE: u32 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Socket,
    Respond,
    Replay,
}

/// What one execution of a read produced.
enum Done {
    Socket(f64, Vec<u8>),
    Respond(f64),
    Replay(Expected, ReadCounts),
}

/// Counts the staged replay of one read collected.
#[derive(Debug, Clone, Default)]
struct ReadCounts {
    candidates: usize,
    memo_hits: u64,
    memo_lookups: u64,
    expand_paths: u64,
    expand_memo_hits: u64,
    expanded_tables: usize,
    expanded_rows: usize,
    originating: usize,
    rounds: u32,
    rows_rescored: u64,
    candidates_pruned: u64,
}

/// Everything known about one read after its three executions.
#[derive(Debug, Default)]
struct ReadRecord {
    socket_ms: Option<f64>,
    respond_ms: Option<f64>,
    served: Option<Vec<u8>>,
    replayed: Option<(Expected, ReadCounts)>,
    errors: Vec<String>,
}

/// One ingest: its socket latency and whether the daemon compacted.
#[derive(Debug, Default, Clone)]
struct IngestRecord {
    socket_ms: f64,
    compacted: bool,
}

struct Shared<'a> {
    inputs: &'a Inputs,
    cfg: GenTConfig,
    daemon_addr: std::net::SocketAddr,
    router: &'a Router,
    /// The lake the replay reads; swapped after each replayed ingest, as
    /// the daemon swaps its own.
    replay_lake: RwLock<Arc<DataLake>>,
    replay_path: &'a Path,
    tasks: Vec<(usize, Kind)>,
    cursor: AtomicUsize,
    reads: Mutex<Vec<ReadRecord>>,
    ingests: Mutex<Vec<IngestRecord>>,
    failures: Mutex<Vec<String>>,
    epoch: Instant,
}

impl Shared<'_> {
    fn fail(&self, message: String) {
        self.failures.lock().expect("failures lock").push(message);
    }
}

/// Replay one reclaim request stage by stage. Mirrors
/// `GenT::reclaim_with_cache` + `LakeService::reclaim_body` as of this
/// commit: first-stage retrieval only above the lake-size threshold, a
/// fresh `DiscoveryCache` per request.
fn replay_read(
    rec: &mut Recorder,
    lake: &DataLake,
    cfg: &GenTConfig,
    wire: &[u8],
) -> Result<(Expected, ReadCounts), String> {
    let mut counts = ReadCounts::default();
    let (source, candidates, originating, expected) = rec.span("request", |rec| {
        let request =
            rec.span("serve.http_read", |_| read_request(wire)).map_err(|e| e.to_string())?;
        let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let body =
            rec.span("serve.json_parse", |_| Json::parse(text)).map_err(|e| e.to_string())?;
        let inline = body.get("source").ok_or("request without `source`")?;
        let source = rec
            .span("serve.table_from_json", |_| table_from_json(inline))
            .map_err(|e| e.message)?;
        lake.ensure_index()?;
        let restrict = (lake.len() > cfg.first_stage_threshold).then(|| {
            rec.span("discovery.first_stage", |_| {
                OverlapRetriever.retrieve(lake, &source, cfg.first_stage_k)
            })
        });
        let mut cache = DiscoveryCache::new();
        let found = rec.span("discovery.set_similarity", |_| {
            set_similarity_cached(
                lake,
                &source,
                restrict.as_deref(),
                &cfg.set_similarity,
                &mut cache,
            )
        });
        counts.memo_hits = cache.hits();
        counts.memo_lookups = cache.hits() + cache.misses();
        let candidates: Vec<Table> = found.into_iter().map(|c| c.table).collect();
        counts.candidates = candidates.len();
        let outcome = rec.span("core.traversal", |_| matrix_traversal(&source, &candidates, cfg));
        counts.rounds = outcome.stats.rounds;
        counts.rows_rescored = outcome.stats.rows_rescored;
        counts.candidates_pruned = outcome.stats.candidates_pruned;
        counts.originating = outcome.originating.len();
        let reclaimed =
            rec.span("core.integrate", |_| integrate(&outcome.originating, &source, cfg));
        let report = rec.span("metrics.evaluate", |_| evaluate(&source, &reclaimed));
        let table = rec.span("serve.table_to_json", |_| table_to_json(&reclaimed));
        // The response document, as far as it can be built from outside
        // (`reclamation_json` is crate-private): the reclaimed table is
        // nearly all of its bytes.
        let doc = Json::Object(vec![
            ("source".into(), Json::str(source.name())),
            ("metrics".into(), Json::Object(vec![("eis".into(), Json::Float(report.eis))])),
            ("reclaimed".into(), table),
        ]);
        let rendered = rec.span("serve.json_render", |_| doc.render());
        let response = Response::ok(rendered);
        let mut wire_out = Vec::new();
        rec.span("serve.response_write", |_| response.write_with(&mut wire_out, true))
            .map_err(|e| e.to_string())?;
        black_box(&wire_out);
        let expected = Expected::of(&reclaimed, report.eis);
        Ok::<_, String>((source, candidates, outcome.originating, expected))
    })?;

    rec.span("dissect", |rec| {
        let key_names = source.schema().key_names();
        let (expanded, stats) = rec.span("core.expand", |_| {
            expand_with_stats(&candidates, &key_names, cfg.expand_max_depth)
        });
        counts.expand_paths = stats.paths_considered;
        counts.expand_memo_hits = stats.memo_hits;
        counts.expanded_tables = expanded.len();
        counts.expanded_rows = expanded.iter().map(Table::n_rows).sum();
        rec.span("core.matrix_build", |_| {
            for t in &expanded {
                black_box(AlignmentMatrix::build(
                    &source,
                    t,
                    cfg.three_valued,
                    cfg.max_aligned_per_key,
                ));
            }
        });
        // κ and β over the outer union of the originating tables, after
        // the same project/select `integrate` starts with.
        let projected: Vec<Table> =
            originating.iter().filter_map(|t| project_select(t, &source)).collect();
        let unioned = rec.span("ops.outer_union", |_| outer_union_all(&projected));
        if let Ok(Some(unioned)) = unioned {
            rec.span("ops.kappa_beta", |_| {
                black_box(complementation(&unioned));
                black_box(subsumption(&unioned));
            });
        }
    });
    Ok((expected, counts))
}

/// Replay one ingest stage by stage on the replay's own snapshot copy;
/// returns the re-opened lake, which becomes the replay's read lake.
fn replay_ingest(rec: &mut Recorder, path: &Path, wire: &[u8]) -> Result<DataLake, String> {
    rec.span("ingest", |rec| {
        let request =
            rec.span("serve.http_read", |_| read_request(wire)).map_err(|e| e.to_string())?;
        let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let body =
            rec.span("serve.json_parse", |_| Json::parse(text)).map_err(|e| e.to_string())?;
        let inline =
            body.get("tables").and_then(Json::as_array).ok_or("ingest without `tables`")?;
        let tables = rec
            .span("serve.table_from_json", |_| {
                inline.iter().map(table_from_json).collect::<Result<Vec<Table>, _>>()
            })
            .map_err(|e| e.message)?;
        let outcome = rec
            .span("store.append", |_| gent_store::append_tables(path, &tables))
            .map_err(|e| e.to_string())?;
        if outcome.frames_after >= COMPACT_FRAME_THRESHOLD {
            rec.span("store.compact", |_| gent_store::compact(path)).map_err(|e| e.to_string())?;
        }
        let loaded =
            rec.span("store.reopen", |_| snapshot::load(path)).map_err(|e| e.to_string())?;
        Ok(loaded.lake)
    })
}

/// The write lane: every ingest, in order — over the socket, then replayed.
fn ingest_lane(shared: &Shared<'_>, rec: &mut Recorder, client: &mut Client) {
    for (j, item) in shared.inputs.ingests.iter().enumerate() {
        rec.set_request(INGEST_ID_BASE + j as u32);
        let mut record = IngestRecord::default();
        match client.exchange(&item.request) {
            Ok(x) if x.status == 200 => {
                record.socket_ms = ms(x.latency);
                record.compacted = object_member(&x.body, "compacted") == Some(b"true");
            }
            Ok(x) => shared.fail(format!("ingest {j}: status {}", x.status)),
            Err(e) => shared.fail(format!("ingest {j}: {e}")),
        }
        // Keep the in-process router's lake in step with the daemon's: the
        // same append, compaction and swap, on its own snapshot copy.
        match read_request(&item.request[..]).map(|r| shared.router.respond(Ok(r)).status) {
            Ok(200) => {}
            other => shared.fail(format!("ingest {j}: in-process respond gave {other:?}")),
        }
        match replay_ingest(rec, shared.replay_path, &item.request) {
            Ok(lake) => *shared.replay_lake.write().expect("replay lake lock") = Arc::new(lake),
            Err(e) => shared.fail(format!("ingest {j} replay: {e}")),
        }
        shared.ingests.lock().expect("ingests lock").push(record);
    }
}

/// A worker: optionally the write lane first, then read tasks until none
/// are left.
fn worker(shared: &Shared<'_>, ingest_first: bool) -> Vec<Span> {
    let mut rec = Recorder::new(shared.epoch);
    let mut client = Client::new(shared.daemon_addr);
    if ingest_first {
        ingest_lane(shared, &mut rec, &mut client);
    }
    let n = shared.inputs.sources.len();
    while let Some(&(slot, kind)) = shared.tasks.get(shared.cursor.fetch_add(1, Ordering::Relaxed))
    {
        let item = &shared.inputs.sources[slot % n];
        rec.set_request(slot as u32 + 1);
        let done: Result<Done, String> = match kind {
            Kind::Socket => match client.exchange(&item.request) {
                Ok(x) if x.status == 200 => Ok(Done::Socket(ms(x.latency), x.body)),
                Ok(x) => Err(format!("socket: status {}", x.status)),
                Err(e) => Err(format!("socket: {e}")),
            },
            Kind::Respond => {
                read_request(&item.request[..]).map_err(|e| e.to_string()).and_then(|request| {
                    let t0 = Instant::now();
                    let response = shared.router.respond(Ok(request));
                    let elapsed = ms(t0.elapsed());
                    match response.status {
                        200 => Ok(Done::Respond(elapsed)),
                        s => Err(format!("respond: status {s}")),
                    }
                })
            }
            Kind::Replay => {
                let lake = Arc::clone(&shared.replay_lake.read().expect("replay lake lock"));
                replay_read(&mut rec, &lake, &shared.cfg, &item.request)
                    .map(|(expected, counts)| Done::Replay(expected, counts))
                    .map_err(|e| format!("replay: {e}"))
            }
        };
        let record = &mut shared.reads.lock().expect("reads lock")[slot];
        match done {
            Ok(Done::Socket(latency, body)) => {
                record.socket_ms = Some(latency);
                record.served = Some(body);
            }
            Ok(Done::Respond(elapsed)) => record.respond_ms = Some(elapsed),
            Ok(Done::Replay(expected, counts)) => record.replayed = Some((expected, counts)),
            Err(e) => record.errors.push(e),
        }
    }
    rec.into_spans()
}

/// One line of a budget table: a label and its per-request values (ms).
struct Row<'a> {
    label: &'a str,
    values: &'a [f64],
    /// Computed by subtraction rather than timed directly.
    residual: bool,
}

impl<'a> Row<'a> {
    fn timed(label: &'a str, values: &'a [f64]) -> Row<'a> {
        Row { label, values, residual: false }
    }

    fn residual(label: &'a str, values: &'a [f64]) -> Row<'a> {
        Row { label, values, residual: true }
    }
}

/// Format a latency budget: rows in request order with the median and the
/// total self time of each and its share of the summed socket latency,
/// then the sum line and the per-layer shares.
fn budget_table(title: &str, rows: &[Row<'_>], latency: &[f64]) -> Vec<String> {
    let whole: f64 = latency.iter().sum();
    if latency.is_empty() || whole <= 0.0 {
        return vec![format!("{title}: nothing measured")];
    }
    let mut lines = vec![
        format!("{title} (* = by subtraction)"),
        format!("  {:<50} {:>11} {:>12} {:>8}", "layer.span", "median ms", "total ms", "share"),
    ];
    let mut layers: Vec<(&str, f64)> = Vec::new();
    let mut sum = 0.0;
    for row in rows {
        let total: f64 = row.values.iter().sum();
        sum += total;
        let layer = row.label.split('.').next().unwrap_or(row.label);
        match layers.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, t)) => *t += total,
            None => layers.push((layer, total)),
        }
        lines.push(format!(
            "  {:<50} {:>11.3} {:>12.1} {:>7.1}%{}",
            row.label,
            median_or_zero(row.values),
            total,
            100.0 * total / whole,
            if row.residual { " *" } else { "" }
        ));
    }
    lines.push(format!(
        "  {:<50} {:>11.3} {:>12.1} {:>7.1}%  (socket latency: median {:.3} ms, total {:.1} ms)",
        "sum of rows",
        rows.iter().map(|r| median_or_zero(r.values)).sum::<f64>(),
        sum,
        100.0 * sum / whole,
        median_or_zero(latency),
        whole
    ));
    lines.push(format!(
        "  by layer: {}",
        layers
            .iter()
            .map(|(l, t)| format!("{l} {:.1}%", 100.0 * t / whole))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    lines
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// The per-layer figures as they are measured: value and sample count by
/// metric name.
#[derive(Default)]
struct Values(BTreeMap<String, (f64, usize)>);

impl Values {
    fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.0.insert(name.to_string(), (value, samples));
    }

    /// The median of `samples`, 0 when there are none (a stage that never
    /// ran on this workload).
    fn put_median(&mut self, name: &str, samples: &[f64]) {
        self.put(name, median_or_zero(samples), samples.len());
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).unwrap_or_else(|| panic!("{name} was not measured")).0
    }
}

/// The set-up layers: build the index, save the snapshot once per role,
/// then open it fresh a few times for open, thaw and decode. Returns the
/// table count and the snapshot size.
fn setup_layers(
    tables: Vec<Table>,
    paths: &[PathBuf],
    values: &mut Values,
) -> Result<(usize, u64), String> {
    let t0 = Instant::now();
    let lake = DataLake::from_tables(tables);
    values.put("discovery.index_build_ms", ms(t0.elapsed()), 1);
    let mut saves = Vec::new();
    for path in paths {
        let t0 = Instant::now();
        snapshot::save(path, &lake, None).map_err(|e| format!("snapshot save: {e}"))?;
        saves.push(ms(t0.elapsed()));
    }
    values.put_median("store.save_ms", &saves);
    let bytes = std::fs::metadata(&paths[0]).map_err(|e| e.to_string())?.len();
    values.put("store.snapshot_bytes", bytes as f64, 1);

    let (mut opens, mut thaws, mut decodes) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let fresh = snapshot::load(&paths[0]).map_err(|e| format!("snapshot open: {e}"))?;
        opens.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        fresh.lake.ensure_index()?;
        thaws.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        fresh.lake.decode_all(1).map_err(|e| format!("decode_all: {e}"))?;
        decodes.push(ms(t0.elapsed()));
    }
    values.put_median("store.open_ms", &opens);
    values.put_median("discovery.index_thaw_ms", &thaws);
    values.put_median("table.decode_all_ms", &decodes);
    let decode_s = stats::median(&decodes) / 1e3;
    values.put("table.decode_mb_per_s", bytes as f64 / 1e6 / decode_s, decodes.len());
    Ok((lake.len(), bytes))
}

/// Run one workload traced; the figures are the per-layer metrics.
pub fn run(spec: &Spec, opts: &Options, trace_out: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t_all = Instant::now();
    let mut values = Values::default();

    // The traced run replays fewer ingests than the end-to-end run sends:
    // one compaction cycle (two on `ingest_mix`) shows every store span.
    let mut inputs = workload::generate(spec, opts.seed, opts.smoke, 1);
    inputs.ingests.truncate(if spec.concurrent_ingest { 2 * COMPACT_FRAME_THRESHOLD } else { 9 });
    let paths: Vec<PathBuf> = ["socket", "respond", "replay"]
        .iter()
        .map(|role| opts.scratch.join(format!("{}-{role}.gentlake", spec.name)))
        .collect();
    let (n_tables, snapshot_bytes) =
        setup_layers(std::mem::take(&mut inputs.lake_tables), &paths, &mut values)?;

    // ---- the three executions of every request --------------------------
    let daemon = Daemon::boot_snapshot(&paths[0])?;
    let router = router_over_snapshot(&paths[1])?;
    let replay_lake = snapshot::load(&paths[2]).map_err(|e| format!("snapshot open: {e}"))?.lake;
    replay_lake.ensure_index()?;
    let n = inputs.sources.len();
    let passes = if opts.smoke { 1 } else { spec.traced_passes };
    let tasks: Vec<(usize, Kind)> = (0..passes * n)
        .flat_map(|slot| [Kind::Socket, Kind::Respond, Kind::Replay].map(|k| (slot, k)))
        .collect();
    let shared = Shared {
        inputs: &inputs,
        cfg: GenTConfig::default(),
        daemon_addr: daemon.addr,
        router: &router,
        replay_lake: RwLock::new(Arc::new(replay_lake)),
        replay_path: &paths[2],
        tasks,
        cursor: AtomicUsize::new(0),
        reads: Mutex::new((0..passes * n).map(|_| ReadRecord::default()).collect()),
        ingests: Mutex::new(Vec::new()),
        failures: Mutex::new(Vec::new()),
        epoch: Instant::now(),
    };
    // Thaw the daemon's and the router's index outside the measurement.
    let warm = &inputs.sources[spec.cold_source.min(n - 1)];
    let mut client = Client::new(daemon.addr);
    let _ = client.exchange(&warm.request);
    // The daemon has one worker per connection: an idle third connection
    // would hold one of its two workers until the idle timeout.
    client.reset();
    if let Ok(request) = read_request(&warm.request[..]) {
        let _ = router.respond(Ok(request));
    }

    let mut threads: Vec<Vec<Span>> = std::thread::scope(|scope| {
        let a = scope.spawn(|| worker(&shared, false));
        let b = scope.spawn(|| worker(&shared, spec.concurrent_ingest));
        vec![a.join().expect("worker thread"), b.join().expect("worker thread")]
    });
    // What the reads left decoded, before any epilogue swap resets it.
    let stat = client.exchange(&render_get("/lake/stat")).map_err(|e| format!("lake/stat: {e}"))?;
    let stat_field = |key: &str| -> f64 {
        object_member(&stat.body, key)
            .and_then(|v| std::str::from_utf8(v).ok()?.parse().ok())
            .unwrap_or(0.0)
    };
    let decoded_share = stat_field("tables_decoded") / stat_field("tables_total").max(1.0);
    if !spec.concurrent_ingest {
        let mut rec = Recorder::new(shared.epoch);
        ingest_lane(&shared, &mut rec, &mut client);
        threads.push(rec.into_spans());
    }
    drop(client);
    daemon.stop()?;

    // ---- correctness: the replay reproduced the served answers ----------
    let reads = std::mem::take(&mut *shared.reads.lock().expect("reads lock"));
    let ingests = std::mem::take(&mut *shared.ingests.lock().expect("ingests lock"));
    out.attempted = reads.len() + inputs.ingests.len();
    for failure in std::mem::take(&mut *shared.failures.lock().expect("failures lock")) {
        out.fail(failure);
    }
    for (slot, r) in reads.iter().enumerate() {
        for e in &r.errors {
            out.fail(format!("source {}: {e}", slot % n));
        }
        match (&r.served, &r.replayed) {
            (Some(body), Some((expected, _))) => {
                if let Err(e) = expected.verify(body) {
                    out.fail(format!(
                        "source {}: replay does not reproduce the served answer: {e}",
                        slot % n
                    ));
                }
            }
            _ if r.errors.is_empty() => out.fail(format!("source {}: execution missing", slot % n)),
            _ => {}
        }
    }
    let acknowledged: Vec<&Table> = inputs.ingests.iter().map(|i| &i.table).collect();
    if out.failed == 0 {
        if let Err(e) = check::verify_durable(&paths[0], &acknowledged) {
            out.fail(e);
        }
    }
    let final_bytes = std::fs::metadata(&paths[0]).map_err(|e| e.to_string())?.len();
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    if !out.correct() {
        return Ok(out);
    }

    // ---- per-request self times ------------------------------------------
    let mut by_request: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for spans in &threads {
        for (request, names) in self_by_request(spans) {
            let entry = by_request.entry(request).or_default();
            for (name, ns) in names {
                *entry.entry(name).or_default() += ns;
            }
        }
    }
    let span_ms = |request: u32, name: &str| -> f64 {
        by_request.get(&request).and_then(|m| m.get(name)).map_or(0.0, |&ns| ns as f64 / 1e6)
    };

    let read_ids: Vec<u32> = (1..=reads.len() as u32).collect();
    let col = |name: &str| -> Vec<f64> { read_ids.iter().map(|&id| span_ms(id, name)).collect() };
    let socket: Vec<f64> = reads.iter().map(|r| r.socket_ms.unwrap_or(0.0)).collect();
    let respond: Vec<f64> = reads.iter().map(|r| r.respond_ms.unwrap_or(0.0)).collect();
    let stage_cols: Vec<(&str, Vec<f64>)> = READ_STAGES.iter().map(|&s| (s, col(s))).collect();
    let inner_sum: Vec<f64> = (0..reads.len())
        .map(|k| stage_cols.iter().filter(|(s, _)| inside_respond(s)).map(|(_, c)| c[k]).sum())
        .collect();
    let serve_self: Vec<f64> = respond.iter().zip(&inner_sum).map(|(r, i)| r - i).collect();
    let serve_socket: Vec<f64> = socket.iter().zip(&respond).map(|(l, r)| l - r).collect();
    let (expand, build) = (col("core.expand"), col("core.matrix_build"));
    let (union, kappa_beta) = (col("ops.outer_union"), col("ops.kappa_beta"));
    let traversal = col("core.traversal");
    let greedy: Vec<f64> =
        (0..reads.len()).map(|k| (traversal[k] - expand[k] - build[k]).max(0.0)).collect();

    for (stage, column) in &stage_cols {
        values.put_median(&format!("{stage}_ms"), column);
    }
    values.put_median("serve.respond_ms", &respond);
    values.put_median("serve.self_ms", &serve_self);
    values.put_median("serve.socket_ms", &serve_socket);
    values.put_median("core.expand_ms", &expand);
    values.put_median("core.matrix_build_ms", &build);
    values.put_median("core.greedy_ms", &greedy);
    values.put_median("ops.outer_union_ms", &union);
    values.put_median("ops.kappa_beta_ms", &kappa_beta);

    let counts: Vec<&ReadCounts> =
        reads.iter().filter_map(|r| r.replayed.as_ref()).map(|(_, c)| c).collect();
    let total = |f: &dyn Fn(&ReadCounts) -> f64| counts.iter().map(|c| f(c)).sum::<f64>();
    let mut put_mean = |name: &str, f: &dyn Fn(&ReadCounts) -> f64| {
        values.put(name, total(f) / counts.len() as f64, counts.len());
    };
    put_mean("discovery.candidates", &|c| c.candidates as f64);
    put_mean("core.expand_paths", &|c| c.expand_paths as f64);
    put_mean("core.expand_memo_hits", &|c| c.expand_memo_hits as f64);
    put_mean("core.expanded_tables", &|c| c.expanded_tables as f64);
    put_mean("core.expanded_rows", &|c| c.expanded_rows as f64);
    put_mean("core.rounds", &|c| f64::from(c.rounds));
    put_mean("core.rows_rescored", &|c| c.rows_rescored as f64);
    put_mean("core.candidates_pruned", &|c| c.candidates_pruned as f64);
    values.put(
        "discovery.memo_hit_ratio",
        total(&|c| c.memo_hits as f64) / total(&|c| c.memo_lookups as f64).max(1.0),
        counts.len(),
    );
    values.put(
        "core.selected_ratio",
        total(&|c| c.originating as f64) / total(&|c| c.expanded_tables as f64).max(1.0),
        counts.len(),
    );
    let request_bytes: Vec<f64> = inputs.sources.iter().map(|s| s.request.len() as f64).collect();
    let response_bytes: Vec<f64> =
        reads.iter().filter_map(|r| r.served.as_ref()).map(|b| b.len() as f64).collect();
    values.put_median("serve.request_bytes", &request_bytes);
    values.put_median("serve.response_bytes", &response_bytes);
    values.put("table.tables_decoded_share", decoded_share, 1);

    // ---- the write path ---------------------------------------------------
    let ingest_ids: Vec<u32> = (0..ingests.len() as u32).map(|j| INGEST_ID_BASE + j).collect();
    let ingest_col =
        |name: &str| -> Vec<f64> { ingest_ids.iter().map(|&id| span_ms(id, name)).collect() };
    let staged = [
        "serve.http_read",
        "serve.json_parse",
        "serve.table_from_json",
        "store.append",
        "store.compact",
        "store.reopen",
    ];
    let staged_cols: Vec<Vec<f64>> = staged.iter().map(|s| ingest_col(s)).collect();
    for (stage, column) in staged.iter().zip(&staged_cols).skip(3) {
        // Over the ingests the stage ran in (a compaction is every 8th).
        let ran: Vec<f64> = column.iter().copied().filter(|&v| v > 0.0).collect();
        values.put_median(&format!("{stage}_ms"), &ran);
    }
    let compactions = ingests.iter().filter(|i| i.compacted).count();
    values.put("store.compactions", compactions as f64, ingests.len());
    let user_bytes: usize = inputs.ingests.iter().map(|i| i.request.len()).sum();
    values.put(
        "store.bytes_per_user_byte",
        final_bytes as f64 / (snapshot_bytes as f64 + user_bytes as f64),
        ingests.len(),
    );

    // ---- how much of the socket latency the spans explain -----------------
    let socket_total: f64 = socket.iter().sum();
    let direct_total: f64 = stage_cols.iter().map(|(_, c)| c.iter().sum::<f64>()).sum();
    values.put("trace.coverage", direct_total / socket_total, reads.len());
    let replay_total: f64 = threads
        .iter()
        .flatten()
        .filter(|s| s.name == "request" && s.parent.is_none())
        .map(|s| s.duration() as f64 / 1e6)
        .sum();
    values.put("trace.overhead_ratio", replay_total / respond.iter().sum::<f64>(), reads.len());

    out.figures = PER_LAYER
        .iter()
        .map(|m| {
            let (value, samples) =
                *values.0.get(m.name).unwrap_or_else(|| panic!("{} was not measured", m.name));
            Figure { name: m.name, value, samples }
        })
        .collect();

    // ---- the budget tables --------------------------------------------------
    let column = |name: &str| -> &[f64] {
        &stage_cols.iter().find(|(s, _)| *s == name).expect("a read stage").1
    };
    let integrate_self: Vec<f64> = (0..reads.len())
        .map(|k| (column("core.integrate")[k] - union[k] - kappa_beta[k]).max(0.0))
        .collect();
    // Reading the request and writing the response happen in the daemon
    // around `respond`, so they come out of the socket residual.
    let socket_self: Vec<f64> = (0..reads.len())
        .map(|k| serve_socket[k] - column("serve.http_read")[k] - column("serve.response_write")[k])
        .collect();
    let read_rows: Vec<Row<'_>> = vec![
        Row::residual("serve.socket (latency - respond - read - write)", &socket_self),
        Row::timed("serve.http_read", column("serve.http_read")),
        Row::residual("serve.self (respond - stages below)", &serve_self),
        Row::timed("serve.json_parse", column("serve.json_parse")),
        Row::timed("serve.table_from_json", column("serve.table_from_json")),
        Row::timed("discovery.first_stage", column("discovery.first_stage")),
        Row::timed("discovery.set_similarity", column("discovery.set_similarity")),
        Row::timed("core.expand", &expand),
        Row::timed("core.matrix_build", &build),
        Row::timed("core.greedy (traversal - expand - build)", &greedy),
        Row::timed("ops.outer_union", &union),
        Row::timed("ops.kappa_beta", &kappa_beta),
        Row::timed("core.integrate (less the two above)", &integrate_self),
        Row::timed("metrics.evaluate", column("metrics.evaluate")),
        Row::timed("serve.table_to_json", column("serve.table_to_json")),
        Row::timed("serve.json_render", column("serve.json_render")),
        Row::timed("serve.response_write", column("serve.response_write")),
    ];
    out.notes.push(format!(
        "lake: {n_tables} tables, snapshot {:.1} MB; {n} sources x {passes} traced passes, {} ingests; whole run {:.1} s",
        snapshot_bytes as f64 / 1e6,
        ingests.len(),
        t_all.elapsed().as_secs_f64()
    ));
    out.notes.extend(budget_table(
        &format!("latency budget, {} reclaims over the socket", reads.len()),
        &read_rows,
        &socket,
    ));
    out.notes.push(format!(
        "trace.coverage {:.3}: share of the socket latency inside directly timed calls (rows without *); trace.overhead_ratio {:.3}: staged replay with spans / opaque Router::respond",
        values.get("trace.coverage"),
        values.get("trace.overhead_ratio")
    ));

    let ingest_latency: Vec<f64> = ingests.iter().map(|i| i.socket_ms).collect();
    let rest: Vec<f64> = (0..ingests.len())
        .map(|k| ingest_latency[k] - staged_cols.iter().map(|c| c[k]).sum::<f64>())
        .collect();
    let mut ingest_rows: Vec<Row<'_>> =
        staged.iter().zip(&staged_cols).map(|(s, c)| Row::timed(s, c)).collect();
    ingest_rows.push(Row::residual("serve.rest (latency - stages above)", &rest));
    out.notes.extend(budget_table(
        &format!("latency budget, {} ingests over the socket", ingests.len()),
        &ingest_rows,
        &ingest_latency,
    ));
    let plain: Vec<usize> = (0..ingests.len()).filter(|&k| !ingests[k].compacted).collect();
    let plain_latency: f64 = plain.iter().map(|&k| ingest_latency[k]).sum();
    let plain_store_parse: f64 =
        plain.iter().map(|&k| staged_cols[1][k] + staged_cols[3][k] + staged_cols[5][k]).sum();
    out.notes.push(format!(
        "plain (non-compacting) ingests: store.* + serve.json_parse are {:.1} % of their latency",
        100.0 * plain_store_parse / plain_latency.max(f64::MIN_POSITIVE)
    ));

    let trace: Vec<(usize, Span)> = threads
        .into_iter()
        .enumerate()
        .flat_map(|(t, spans)| spans.into_iter().map(move |s| (t, s)))
        .collect();
    std::fs::write(trace_out, crate::trace::render_trace(&trace))
        .map_err(|e| format!("write {}: {e}", trace_out.display()))?;
    out.notes.push(format!("trace: {} spans written to {}", trace.len(), trace_out.display()));
    Ok(out)
}
