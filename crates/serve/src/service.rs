//! The reclamation service over one warm lake: pipeline + stats.
//!
//! A [`LakeService`] owns the lake exactly once — tables and inverted index
//! (usually a `FrozenIndex` straight from a snapshot) — and every request
//! borrows it. Nothing is re-derived or cloned per request: the router
//! wraps the service in an `Arc` and all worker threads reclaim against
//! the same handle, which is what makes warm serving cheap. Dispatch lives
//! in [`crate::routing::Router`]; this module holds what a request does
//! once it has been routed to a lake, the request envelope, and the
//! instruments.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use gent_core::{GenT, GenTConfig, GentError, ReclamationResult};
use gent_discovery::DataLake;
use gent_obs::{Counter, Gauge, Histogram, Registry, LATENCY_BOUNDS_US};
use gent_store::LoadedLake;
use gent_table::key::ensure_key;
use gent_table::Table;

use crate::http::{HttpError, Request, Response};
use crate::json::Json;

/// Server-side ceiling for the `max_candidates` per-request override —
/// requests asking for more are clamped, not rejected (the knob tunes
/// quality/latency, it must not become a memory amplifier).
pub const MAX_CANDIDATES_CAP: usize = 200;

/// Per-endpoint instruments: request/error counters, an in-flight gauge,
/// and the latency histogram that backs **both** views — the `/lake/stat`
/// JSON rendering ([`latency_json`]) and the Prometheus exposition behind
/// `GET /metrics`. One `gent_obs::Histogram` per endpoint is the single
/// source of truth, so the two views cannot drift (pinned by the
/// `stat_and_metrics_views_agree` regression test).
#[derive(Debug)]
struct EndpointMetrics {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    in_flight: Arc<Gauge>,
    latency: Arc<Histogram>,
}

impl EndpointMetrics {
    fn new(reg: &Registry, endpoint: &'static str) -> EndpointMetrics {
        let labels: &[(&'static str, &str)] = &[("endpoint", endpoint)];
        EndpointMetrics {
            requests: reg.counter(
                "gent_http_requests_total",
                "Requests answered, by endpoint",
                labels,
            ),
            errors: reg.counter(
                "gent_http_errors_total",
                "Requests answered with a 4xx/5xx status, by endpoint",
                labels,
            ),
            in_flight: reg.gauge(
                "gent_http_in_flight",
                "Requests currently being handled, by endpoint",
                labels,
            ),
            latency: reg.histogram(
                "gent_http_request_duration_us",
                "Wall-clock time answering requests (microseconds), by endpoint",
                labels,
                LATENCY_BOUNDS_US,
            ),
        }
    }
}

/// The daemon's HTTP metrics, registered in a **service-owned**
/// [`Registry`]: every [`LakeService`] gets its own, so concurrent daemons
/// in one process (the test suite boots several) never pool counts.
/// `GET /metrics` renders this registry after the process-global one
/// (pipeline stages, store opens), giving one exposition for the whole
/// daemon.
#[derive(Debug)]
pub(crate) struct HttpMetrics {
    registry: Registry,
    healthz: EndpointMetrics,
    lake_stat: EndpointMetrics,
    reclaim: EndpointMetrics,
    metrics: EndpointMetrics,
    lakes: EndpointMetrics,
    admin_reload: EndpointMetrics,
    admin_ingest: EndpointMetrics,
    admin_compact: EndpointMetrics,
    other: EndpointMetrics,
    /// `gent_http_connections_total` — TCP connections served.
    pub(crate) connections: Arc<Counter>,
    /// `gent_http_keepalive_reuses_total` — requests after the first on a
    /// kept-alive connection.
    pub(crate) keepalive_reuses: Arc<Counter>,
    /// `gent_http_queue_depth` — accepted connections waiting for a worker.
    pub(crate) queue_depth: Arc<Gauge>,
    /// `gent_http_queue_depth_peak` — high-water mark of the bounded queue,
    /// raised with [`Gauge::set_max`] at every successful enqueue. Under the
    /// backpressure test this pins the bound itself.
    pub(crate) queue_depth_peak: Arc<Gauge>,
    /// `gent_http_shed_total` — connections answered `429 Too Many
    /// Requests` from the accept loop because the queue was full.
    pub(crate) shed_total: Arc<Counter>,
    /// `gent_worker_panics_total` — connections whose handler panicked.
    /// The worker catches the panic, drops the socket, and keeps serving
    /// (the pool never shrinks); this counter is the only visible scar.
    pub(crate) worker_panics: Arc<Counter>,
    /// `gent_uptime_seconds` — set at scrape time by whoever renders.
    pub(crate) uptime_seconds: Arc<Gauge>,
}

impl HttpMetrics {
    fn new() -> HttpMetrics {
        let reg = Registry::new();
        HttpMetrics {
            healthz: EndpointMetrics::new(&reg, "healthz"),
            lake_stat: EndpointMetrics::new(&reg, "lake_stat"),
            reclaim: EndpointMetrics::new(&reg, "reclaim"),
            metrics: EndpointMetrics::new(&reg, "metrics"),
            lakes: EndpointMetrics::new(&reg, "lakes"),
            admin_reload: EndpointMetrics::new(&reg, "admin_reload"),
            admin_ingest: EndpointMetrics::new(&reg, "admin_ingest"),
            admin_compact: EndpointMetrics::new(&reg, "admin_compact"),
            other: EndpointMetrics::new(&reg, "other"),
            connections: reg.counter(
                "gent_http_connections_total",
                "TCP connections served by the daemon",
                &[],
            ),
            keepalive_reuses: reg.counter(
                "gent_http_keepalive_reuses_total",
                "Requests served after the first on a kept-alive connection",
                &[],
            ),
            queue_depth: reg.gauge(
                "gent_http_queue_depth",
                "Accepted connections waiting for a worker thread",
                &[],
            ),
            queue_depth_peak: reg.gauge(
                "gent_http_queue_depth_peak",
                "Highest queue depth reached since the daemon started",
                &[],
            ),
            shed_total: reg.counter(
                "gent_http_shed_total",
                "Connections answered 429 because the worker queue was full",
                &[],
            ),
            worker_panics: reg.counter(
                "gent_worker_panics_total",
                "Connections whose handler panicked; the worker was respawned in place",
                &[],
            ),
            uptime_seconds: reg.gauge(
                "gent_uptime_seconds",
                "Seconds since the service was constructed",
                &[],
            ),
            registry: reg,
        }
    }

    fn for_path(&self, path: Option<&str>) -> &EndpointMetrics {
        match path {
            // The liveness/readiness splits share /healthz's instruments:
            // same probe traffic, no extra families to scrape.
            Some("/healthz" | "/healthz/live" | "/healthz/ready") => &self.healthz,
            Some("/lake/stat") => &self.lake_stat,
            Some("/reclaim") => &self.reclaim,
            Some("/metrics") => &self.metrics,
            Some("/lakes") => &self.lakes,
            Some("/admin/reload") => &self.admin_reload,
            Some("/admin/ingest") => &self.admin_ingest,
            Some("/admin/compact") => &self.admin_compact,
            _ => &self.other,
        }
    }

    /// The lazy-decode gauges for one named lake, labelled `{lake="…"}` —
    /// registered on first use, shared on every later lookup, so hosting N
    /// lakes behind one address yields one family with N labelled series
    /// instead of N colliding unlabelled ones.
    pub(crate) fn lake_gauges(&self, lake: &str) -> LakeGauges {
        let labels: &[(&'static str, &str)] = &[("lake", lake)];
        LakeGauges {
            tables_decoded: self.registry.gauge(
                "gent_lake_tables_decoded",
                "Lake tables whose cells have been materialized, by lake",
                labels,
            ),
            tables_total: self.registry.gauge(
                "gent_lake_tables_total",
                "Tables in the warm lake, by lake",
                labels,
            ),
            quarantined_tables: self.registry.gauge(
                "gent_lake_quarantined_tables",
                "Tables quarantined by a degraded open (checksum failures), by lake",
                labels,
            ),
        }
    }

    /// `gent_lake_reloads_total{lake=…}` — successful atomic snapshot swaps.
    pub(crate) fn reloads(&self, lake: &str) -> Arc<Counter> {
        self.registry.counter(
            "gent_lake_reloads_total",
            "Successful atomic snapshot hot-reloads, by lake",
            &[("lake", lake)],
        )
    }

    /// `gent_lake_ingests_total{lake=…}` — delta frames accepted through
    /// `POST /admin/ingest`.
    pub(crate) fn ingests(&self, lake: &str) -> Arc<Counter> {
        self.registry.counter(
            "gent_lake_ingests_total",
            "Delta-frame ingests accepted and made live, by lake",
            &[("lake", lake)],
        )
    }

    /// `gent_lake_compactions_total{lake=…}` — frame logs folded into a
    /// clean base (explicit `POST /admin/compact` or the ingest threshold).
    pub(crate) fn lake_compactions(&self, lake: &str) -> Arc<Counter> {
        self.registry.counter(
            "gent_lake_compactions_total",
            "Delta-frame logs folded into a clean base snapshot, by lake",
            &[("lake", lake)],
        )
    }

    /// The `/lake/stat` latency block: the original four endpoints, in the
    /// original JSON shape (clients predate `/metrics` and parse this).
    fn latency_json(&self) -> Json {
        Json::Object(vec![
            ("healthz".into(), latency_json(&self.healthz.latency)),
            ("lake_stat".into(), latency_json(&self.lake_stat.latency)),
            ("reclaim".into(), latency_json(&self.reclaim.latency)),
            ("other".into(), latency_json(&self.other.latency)),
        ])
    }
}

/// The per-lake lazy-decode gauges (see [`HttpMetrics::lake_gauges`]).
#[derive(Debug)]
pub(crate) struct LakeGauges {
    pub(crate) tables_decoded: Arc<Gauge>,
    pub(crate) tables_total: Arc<Gauge>,
    pub(crate) quarantined_tables: Arc<Gauge>,
}

/// Render one latency histogram in the `/lake/stat` wire shape: count,
/// mean/max in milliseconds, and per-bucket counts with `le_ms` upper
/// bounds (`"+inf"` for the overflow bucket) — byte-identical to the
/// pre-`gent-obs` `LatencyHistogram::to_json`.
fn latency_json(h: &Histogram) -> Json {
    let count = h.count();
    let mean_ms = if count == 0 { 0.0 } else { h.sum() as f64 / count as f64 / 1e3 };
    let buckets: Vec<Json> = h
        .bucket_counts()
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let le = match h.bounds().get(i) {
                Some(&us) => Json::Float(us as f64 / 1e3),
                None => Json::str("+inf"),
            };
            Json::Object(vec![("le_ms".into(), le), ("count".into(), Json::Int(c as i64))])
        })
        .collect();
    Json::Object(vec![
        ("count".into(), Json::Int(count as i64)),
        ("mean_ms".into(), Json::Float(mean_ms)),
        ("max_ms".into(), Json::Float(h.max() as f64 / 1e3)),
        ("buckets".into(), Json::Array(buckets)),
    ])
}

/// Is `id` acceptable as a client-supplied `X-Request-Id`? Bounded and
/// shell/log-safe: 1–64 ASCII alphanumerics, `-` or `_`. Anything else is
/// replaced by a generated ID rather than echoed back verbatim.
fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// An API failure: an HTTP status plus a machine-readable error kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to answer with (always 4xx/5xx).
    pub status: u16,
    /// Stable, machine-readable kind (e.g. `unknown_table`).
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// Build an error with an HTTP status, stable kind, and free-form detail.
    pub fn new(status: u16, kind: &'static str, message: impl Into<String>) -> ApiError {
        ApiError { status, kind, message: message.into() }
    }

    /// Render as the wire-format error response. When a trace ID is
    /// installed (every request handled through
    /// [`crate::routing::Router::respond`] installs one), the error body
    /// carries it too, so a client that discarded the `X-Request-Id` header
    /// can still correlate the failure with the daemon's logs.
    pub fn to_response(&self) -> Response {
        let mut error = vec![
            ("kind".into(), Json::str(self.kind)),
            ("message".into(), Json::str(self.message.clone())),
        ];
        if let Some(id) = gent_obs::current_trace_id() {
            error.push(("trace_id".into(), Json::str(id)));
        }
        let body = Json::Object(vec![("error".into(), Json::Object(error))]);
        Response { status: self.status, body: body.render(), headers: Vec::new() }
    }
}

/// The reclamation service: one warm lake, shared by every request.
pub struct LakeService {
    lake: DataLake,
    gen_t: GenT,
    origin: String,
    lake_label: String,
    total_rows: u64,
    total_cols: u64,
    /// Names of tables a degraded open quarantined (empty placeholders in
    /// the lake). Requests naming one answer a structured `410
    /// quarantined` instead of reclaiming against an empty stand-in.
    quarantined: std::collections::HashSet<String>,
    /// Delta frames the snapshot carried when this service was built.
    n_frames: usize,
    metrics: Arc<HttpMetrics>,
}

impl LakeService {
    /// Build the service around an already-loaded lake (typically from
    /// [`gent_store::snapshot::load`], or `LoadedLake::from` a lake
    /// `DataLake::from_tables` built); `origin` describes where it came from
    /// for `/lake/stat`. Construction touches only slot metadata — a
    /// lazily-opened snapshot stays fully undecoded until the first
    /// reclaim needs a table. The lake registers under the routing label
    /// `default`; multi-lake daemons share one registry via `with_shared`.
    pub fn new(loaded: LoadedLake, config: GenTConfig, origin: impl Into<String>) -> LakeService {
        LakeService::with_shared(loaded, config, origin, "default", Arc::new(HttpMetrics::new()))
    }

    /// Build a service that shares the daemon-wide [`HttpMetrics`] with its
    /// sibling lakes and registers its decode gauges under
    /// `{lake="<label>"}`. This is what the multi-lake router constructs —
    /// one shared registry means one Prometheus family per metric no matter
    /// how many lakes (or reload generations) the daemon has seen.
    pub(crate) fn with_shared(
        loaded: LoadedLake,
        config: GenTConfig,
        origin: impl Into<String>,
        lake_label: impl Into<String>,
        metrics: Arc<HttpMetrics>,
    ) -> LakeService {
        let total_rows = loaded.lake.slots().iter().map(|s| s.n_rows() as u64).sum();
        let total_cols = loaded.lake.slots().iter().map(|s| s.n_cols() as u64).sum();
        LakeService {
            lake: loaded.lake,
            gen_t: GenT::new(config),
            origin: origin.into(),
            lake_label: lake_label.into(),
            total_rows,
            total_cols,
            quarantined: loaded.quarantined.iter().map(|q| q.name.clone()).collect(),
            n_frames: loaded.n_frames,
            metrics,
        }
    }

    /// Names of the tables quarantined by a degraded open, sorted.
    pub fn quarantined_tables(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.quarantined.iter().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Delta frames the snapshot carried when this service went live.
    pub fn n_frames(&self) -> usize {
        self.n_frames
    }

    /// A shareable handle to the same instruments, for the router.
    pub(crate) fn metrics_arc(&self) -> Arc<HttpMetrics> {
        Arc::clone(&self.metrics)
    }

    /// A fresh daemon-wide instrument set, for routers built from scratch.
    pub(crate) fn fresh_metrics() -> Arc<HttpMetrics> {
        Arc::new(HttpMetrics::new())
    }

    /// The routing label this lake's per-lake metrics register under.
    pub(crate) fn lake_label(&self) -> &str {
        &self.lake_label
    }

    /// Where the lake came from, as reported by `/lake/stat`.
    pub(crate) fn origin(&self) -> &str {
        &self.origin
    }

    /// The pipeline configuration this service was built with — the base
    /// that per-request overrides are applied on top of.
    pub(crate) fn base_config(&self) -> &GenTConfig {
        self.gen_t.config()
    }

    /// The shared lake (borrowed — the service owns the only copy).
    pub fn lake(&self) -> &DataLake {
        &self.lake
    }

    /// `/lake/stat`: counts come from slot metadata and the header-derived
    /// totals, the decode gauges from `OnceLock` states — the endpoint
    /// itself never forces a table decode, so statting a lazily
    /// opened TB-scale lake stays O(tables), not O(cells).
    pub(crate) fn lake_stat(&self) -> Response {
        Response::ok(
            Json::Object(vec![
                ("origin".into(), Json::str(self.origin.clone())),
                ("tables".into(), Json::Int(self.lake.len() as i64)),
                ("rows".into(), Json::Int(self.total_rows as i64)),
                ("columns".into(), Json::Int(self.total_cols as i64)),
                ("index_values".into(), Json::Int(self.lake.index_len() as i64)),
                // Lazy-decode observability: how much of the snapshot has
                // actually been materialized so far.
                ("tables_decoded".into(), Json::Int(self.lake.tables_decoded() as i64)),
                ("tables_total".into(), Json::Int(self.lake.len() as i64)),
                // Durable-lake observability: the frame log's length and
                // whatever a degraded open had to quarantine.
                ("frames".into(), Json::Int(self.n_frames as i64)),
                (
                    "quarantined".into(),
                    Json::Array(self.quarantined_tables().into_iter().map(Json::str).collect()),
                ),
                ("latency".into(), self.metrics.latency_json()),
            ])
            .render(),
        )
    }

    /// Refresh this lake's `{lake=…}` decode gauges from the `OnceLock`
    /// states. The router calls this on every slot before rendering a
    /// multi-lake scrape.
    pub(crate) fn sample_lake_gauges(&self) {
        let g = self.metrics.lake_gauges(&self.lake_label);
        g.tables_decoded.set(self.lake.tables_decoded() as i64);
        g.tables_total.set(self.lake.len() as i64);
        g.quarantined_tables.set(self.quarantined.len() as i64);
    }

    /// Handle one parsed `/reclaim` body against this lake: parse the
    /// source, apply any per-request overrides, run the pipeline, render.
    /// The router calls this directly after resolving the `lake` field.
    pub(crate) fn reclaim_body(&self, body: &Json) -> Result<Response, ApiError> {
        let source = self.parse_source(body)?;
        let cfg = effective_config(self.gen_t.config(), body)?;
        let result = match &cfg {
            Some(overridden) => GenT::new(overridden.clone()).reclaim(&source, &self.lake),
            None => self.gen_t.reclaim(&source, &self.lake),
        }
        .map_err(|e| ApiError::new(422, pipeline_error_kind(&e), e.to_string()))?;
        Ok(Response::ok(reclamation_json(source.name(), &result, cfg.as_ref()).render()))
    }

    /// Build the source table from the request body: either an inline
    /// `"source"` object or a `"source_name"` naming a lake table. A lake
    /// table is *borrowed* from the warm lake; it is cloned only when the
    /// request forces a schema change (a `key` override, or key mining) —
    /// no per-request table copy on the already-keyed path.
    fn parse_source(&self, body: &Json) -> Result<Cow<'_, Table>, ApiError> {
        let mut source: Cow<'_, Table> = match (body.get("source"), body.get("source_name")) {
            (Some(inline), None) => Cow::Owned(table_from_json(inline)?),
            (None, Some(name)) => {
                let name = name.as_str().ok_or_else(|| {
                    ApiError::new(400, "bad_json", "`source_name` must be a string")
                })?;
                if self.quarantined.contains(name) {
                    return Err(ApiError::new(
                        410,
                        "quarantined",
                        format!(
                            "table `{name}` is quarantined: its snapshot section failed its \
                             checksum; restore from a replica or run `gent lake fsck --repair`"
                        ),
                    ));
                }
                Cow::Borrowed(self.lake.get_by_name(name).ok_or_else(|| {
                    ApiError::new(404, "unknown_table", format!("lake has no table named `{name}`"))
                })?)
            }
            (Some(_), Some(_)) => {
                return Err(ApiError::new(
                    400,
                    "bad_json",
                    "pass either `source` or `source_name`, not both",
                ))
            }
            (None, None) => {
                return Err(ApiError::new(
                    400,
                    "bad_json",
                    "body must carry `source` (inline table) or `source_name` (lake table)",
                ))
            }
        };
        if let Some(key) = body.get("key") {
            let cols = string_array(key).ok_or_else(|| {
                ApiError::new(400, "bad_json", "`key` must be an array of column names")
            })?;
            source
                .to_mut()
                .schema_mut()
                .set_key(cols.iter().map(|s| s.as_str()))
                .map_err(|e| ApiError::new(422, "bad_key", e.to_string()))?;
        } else if !source.schema().has_key() && !ensure_key(source.to_mut()) {
            return Err(ApiError::new(
                422,
                "no_key",
                "no key column could be mined from the source; pass one in `key`",
            ));
        }
        Ok(source)
    }
}

/// Milliseconds as a float, for the wire.
fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The request envelope around the router's dispatch: trace-ID install
/// (echoed from a well-formed client `X-Request-Id`, generated otherwise),
/// per-endpoint instruments
/// (request/error counters, in-flight gauge, latency histogram), panic
/// containment (a panicking handler answers 500 and the daemon lives on),
/// one structured log line, and the `X-Request-Id` response header.
pub(crate) fn respond_enveloped(
    metrics: &HttpMetrics,
    input: Result<Request, HttpError>,
    handler: impl FnOnce(&Request) -> Result<Response, ApiError>,
) -> Response {
    let trace_id = input
        .as_ref()
        .ok()
        .and_then(|r| r.header("x-request-id"))
        .filter(|id| valid_trace_id(id))
        .map(str::to_string)
        .unwrap_or_else(gent_obs::gen_trace_id);
    let prev = gent_obs::set_trace_id(Some(trace_id.clone()));
    let t0 = Instant::now();
    let (path, method) = match &input {
        Ok(r) => (Some(r.path.split('?').next().unwrap_or("").to_string()), r.method.clone()),
        Err(_) => (None, String::new()),
    };
    let ep = metrics.for_path(path.as_deref());
    ep.requests.inc();
    ep.in_flight.inc();
    let response = match input {
        Ok(request) => {
            let result = catch_unwind(AssertUnwindSafe(|| handler(&request)));
            match result {
                Ok(Ok(response)) => response,
                Ok(Err(api)) => api.to_response(),
                Err(_) => ApiError::new(
                    500,
                    "internal_error",
                    "request handler panicked; the lake is read-only and unaffected",
                )
                .to_response(),
            }
        }
        Err(e) => read_error_response(&e),
    };
    ep.in_flight.dec();
    if response.status >= 400 {
        ep.errors.inc();
    }
    let elapsed = t0.elapsed();
    ep.latency.observe_duration(elapsed);
    gent_obs::log(
        gent_obs::Level::Info,
        "gent_serve",
        "request",
        &[
            ("method", if method.is_empty() { "-" } else { &method }.into()),
            ("path", path.as_deref().unwrap_or("-").into()),
            ("status", u64::from(response.status).into()),
            ("elapsed_us", u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX).into()),
        ],
    );
    gent_obs::set_trace_id(prev);
    response.with_header("X-Request-Id", trace_id)
}

/// Apply the request's `overrides` block — if any — to the service's base
/// configuration. Shape errors (not an object, unknown key, wrong type)
/// answer 400; a `tau` outside `[0, 1]` answers 422; `max_candidates` is
/// clamped server-side to `[1, MAX_CANDIDATES_CAP]` rather than rejected.
/// Returns `None` when the request carries no overrides, so the untouched
/// fast path keeps serving byte-identical responses.
fn effective_config(base: &GenTConfig, body: &Json) -> Result<Option<GenTConfig>, ApiError> {
    let Some(overrides) = body.get("overrides") else { return Ok(None) };
    let Json::Object(fields) = overrides else {
        return Err(ApiError::new(400, "bad_override", "`overrides` must be an object"));
    };
    let mut cfg = base.clone();
    for (key, value) in fields {
        match key.as_str() {
            "tau" => {
                let tau = value.as_f64().ok_or_else(|| {
                    ApiError::new(422, "bad_override", "`overrides.tau` must be a number")
                })?;
                if !tau.is_finite() || !(0.0..=1.0).contains(&tau) {
                    return Err(ApiError::new(
                        422,
                        "bad_override",
                        format!("`overrides.tau` must be within [0, 1], got {tau}"),
                    ));
                }
                cfg.set_similarity.tau = tau;
            }
            "max_candidates" => {
                let m = value.as_i64().ok_or_else(|| {
                    ApiError::new(
                        422,
                        "bad_override",
                        "`overrides.max_candidates` must be an integer",
                    )
                })?;
                cfg.set_similarity.max_candidates =
                    usize::try_from(m.max(1)).unwrap_or(1).min(MAX_CANDIDATES_CAP);
            }
            other => {
                return Err(ApiError::new(
                    400,
                    "bad_override",
                    format!("unknown override `{other}`; supported: tau, max_candidates"),
                ))
            }
        }
    }
    Ok(Some(cfg))
}

/// Render one reclamation result in the `/reclaim` wire shape. When the
/// request overrode the configuration, a `config` block echoes the
/// effective (clamped) values; requests without overrides get the exact
/// pre-override response bytes.
fn reclamation_json(
    source_name: &str,
    result: &ReclamationResult,
    overridden: Option<&GenTConfig>,
) -> Json {
    let originating: Vec<Json> = result
        .originating
        .iter()
        .map(|t| {
            Json::Object(vec![
                ("name".into(), Json::str(t.name())),
                ("rows".into(), Json::Int(t.n_rows() as i64)),
                ("columns".into(), Json::Int(t.n_cols() as i64)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("source".into(), Json::str(source_name)),
        (
            "metrics".into(),
            Json::Object(vec![
                ("eis".into(), Json::Float(result.eis)),
                ("recall".into(), Json::Float(result.report.recall)),
                ("precision".into(), Json::Float(result.report.precision)),
                ("f1".into(), Json::Float(result.report.f1)),
                ("inst_div".into(), Json::Float(result.report.inst_div)),
                ("perfect".into(), Json::Bool(result.report.perfect)),
            ]),
        ),
        ("candidates_considered".into(), Json::Int(result.candidates_considered as i64)),
        // The pipeline's wall-clock breakdown: where this request's
        // time went (per request, so it varies run to run — clients
        // comparing responses must compare everything *but* this).
        (
            "timings".into(),
            Json::Object(vec![
                ("discovery_ms".into(), Json::Float(ms(result.timings.discovery))),
                ("traversal_ms".into(), Json::Float(ms(result.timings.traversal))),
                ("integration_ms".into(), Json::Float(ms(result.timings.integration))),
                ("total_ms".into(), Json::Float(ms(result.timings.total()))),
                // The traversal's incremental-round breakdown: how many
                // greedy rounds ran, how many dirty rows were rescored,
                // and how many candidate scorings the admissible bound
                // skipped outright.
                ("traversal_rounds".into(), Json::Int(i64::from(result.timings.traversal_rounds))),
                (
                    "rows_rescored".into(),
                    Json::Int(i64::try_from(result.timings.rows_rescored).unwrap_or(i64::MAX)),
                ),
                (
                    "candidates_pruned".into(),
                    Json::Int(i64::try_from(result.timings.candidates_pruned).unwrap_or(i64::MAX)),
                ),
                // The Expand engine's counters: best-first search effort,
                // suffix-memo reuse, dropped keyless candidates, and
                // deduplicated expansions.
                (
                    "expand_paths_considered".into(),
                    Json::Int(
                        i64::try_from(result.timings.expand_paths_considered).unwrap_or(i64::MAX),
                    ),
                ),
                (
                    "expand_memo_hits".into(),
                    Json::Int(i64::try_from(result.timings.expand_memo_hits).unwrap_or(i64::MAX)),
                ),
                (
                    "expand_candidates_dropped".into(),
                    Json::Int(
                        i64::try_from(result.timings.expand_candidates_dropped).unwrap_or(i64::MAX),
                    ),
                ),
                (
                    "expand_dedup".into(),
                    Json::Int(i64::try_from(result.timings.expand_dedup).unwrap_or(i64::MAX)),
                ),
            ]),
        ),
        ("originating".into(), Json::Array(originating)),
        ("reclaimed".into(), table_to_json(&result.reclaimed)),
    ];
    if let Some(cfg) = overridden {
        fields.push((
            "config".into(),
            Json::Object(vec![
                ("tau".into(), Json::Float(cfg.set_similarity.tau)),
                ("max_candidates".into(), Json::Int(cfg.set_similarity.max_candidates as i64)),
            ]),
        ));
    }
    Json::Object(fields)
}

/// The structured error kind for a failed reclamation: corrupt-index
/// failures get their own kind so clients can tell data damage from a bad
/// request.
fn pipeline_error_kind(e: &GentError) -> &'static str {
    match e {
        GentError::IndexCorrupt(_) => "corrupt_snapshot",
        _ => "pipeline",
    }
}

/// Decode and parse a request body as JSON, with the structured 400s every
/// POST endpoint answers for non-UTF-8 or malformed bodies.
pub(crate) fn parse_json_body(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new(400, "bad_json", "request body is not UTF-8"))?;
    Json::parse(text).map_err(|e| ApiError::new(400, "bad_json", format!("request body: {e}")))
}

/// Render the full Prometheus exposition: the process-global registry
/// (pipeline stages, traversal counters, store opens) followed by the
/// daemon's shared HTTP registry.
pub(crate) fn render_metrics(metrics: &HttpMetrics) -> Response {
    let mut text = gent_obs::registry().render_prometheus();
    text.push_str(&metrics.registry.render_prometheus());
    Response::ok(text).with_header("Content-Type", "text/plain; version=0.0.4")
}

fn read_error_response(e: &HttpError) -> Response {
    let (status, kind) = match e {
        // Normally never rendered: the server drops cleanly-closed
        // connections without answering. Kept total so `respond` stays
        // usable with any read result.
        HttpError::ConnectionClosed => (400, "connection_closed"),
        HttpError::Malformed(_) => (400, "malformed_request"),
        HttpError::TooLarge(_) => (413, "too_large"),
        HttpError::Truncated { .. } => (400, "truncated_body"),
        HttpError::Timeout => (408, "timeout"),
        HttpError::Io(_) => (400, "io"),
    };
    ApiError::new(status, kind, e.to_string()).to_response()
}

/// Serialize a table for the wire.
pub fn table_to_json(t: &Table) -> Json {
    let columns: Vec<Json> = t.schema().columns().map(Json::str).collect();
    let key: Vec<Json> = t.schema().key_names().into_iter().map(Json::str).collect();
    let rows: Vec<Json> =
        t.rows().iter().map(|r| Json::Array(r.iter().map(Json::from_value).collect())).collect();
    Json::Object(vec![
        ("name".into(), Json::str(t.name())),
        ("columns".into(), Json::Array(columns)),
        ("key".into(), Json::Array(key)),
        ("rows".into(), Json::Array(rows)),
    ])
}

/// Deserialize an inline source table: `{"name"?, "columns", "key"?,
/// "rows"}` with scalar cells.
pub fn table_from_json(v: &Json) -> Result<Table, ApiError> {
    let bad = |m: String| ApiError::new(400, "bad_json", m);
    let name = match v.get("name") {
        None => "source",
        Some(n) => n.as_str().ok_or_else(|| bad("`source.name` must be a string".into()))?,
    };
    let columns = v
        .get("columns")
        .and_then(string_array)
        .ok_or_else(|| bad("`source.columns` must be an array of strings".into()))?;
    let rows_json = v
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("`source.rows` must be an array of rows".into()))?;
    let mut rows = Vec::with_capacity(rows_json.len());
    for (i, row) in rows_json.iter().enumerate() {
        let cells =
            row.as_array().ok_or_else(|| bad(format!("`source.rows[{i}]` must be an array")))?;
        let mut out = Vec::with_capacity(cells.len());
        for cell in cells {
            out.push(cell.to_value().map_err(|m| bad(format!("`source.rows[{i}]`: {m}")))?);
        }
        rows.push(out);
    }
    let key = match v.get("key") {
        None => Vec::new(),
        Some(k) => {
            string_array(k).ok_or_else(|| bad("`source.key` must be an array of strings".into()))?
        }
    };
    let key_refs: Vec<&str> = key.iter().map(|s| s.as_str()).collect();
    Table::build(name, &columns, &key_refs, rows)
        .map_err(|e| ApiError::new(422, "bad_source", e.to_string()))
}

fn string_array(v: &Json) -> Option<Vec<String>> {
    v.as_array()?.iter().map(|s| s.as_str().map(str::to_string)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Router;
    use gent_table::Value as V;

    fn service() -> LakeService {
        let tables = vec![
            Table::build(
                "people",
                &["id", "name", "age"],
                &[],
                vec![
                    vec![V::Int(0), V::str("Smith"), V::Int(27)],
                    vec![V::Int(1), V::str("Brown"), V::Int(24)],
                ],
            )
            .unwrap(),
            Table::build(
                "ids",
                &["id", "name"],
                &[],
                vec![vec![V::Int(0), V::str("Smith")], vec![V::Int(1), V::str("Brown")]],
            )
            .unwrap(),
        ];
        let loaded = LoadedLake::from(DataLake::from_tables(tables));
        LakeService::new(loaded, GenTConfig::default(), "test lake")
    }

    /// The single-lake router every request below goes through — the one
    /// dispatch table the daemon serves from.
    fn router() -> Router {
        Router::single(service())
    }

    fn post(body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: "/reclaim".into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn healthz_reports_ok() {
        let s = router();
        let r = s.respond(Ok(Request {
            method: "GET".into(),
            path: "/healthz".into(),
            headers: vec![],
            body: vec![],
        }));
        assert_eq!(r.status, 200);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(v.get("tables").and_then(Json::as_i64), Some(2));
    }

    #[test]
    fn lake_stat_reports_counts() {
        let s = router();
        let r = s.respond(Ok(Request {
            method: "GET".into(),
            path: "/lake/stat".into(),
            headers: vec![],
            body: vec![],
        }));
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("tables").and_then(Json::as_i64), Some(2));
        assert_eq!(v.get("rows").and_then(Json::as_i64), Some(4));
        assert!(v.get("index_values").and_then(Json::as_i64).unwrap() > 0);
    }

    #[test]
    fn reclaim_inline_source_round_trips() {
        let s = router();
        let body = r#"{"source": {"name": "S", "columns": ["id", "name", "age"],
            "key": ["id"],
            "rows": [[0, "Smith", 27], [1, "Brown", 24]]}}"#;
        let r = s.respond(Ok(post(body)));
        assert_eq!(r.status, 200, "body: {}", r.body);
        let v = Json::parse(&r.body).unwrap();
        let eis = v.get("metrics").unwrap().get("eis").and_then(Json::as_f64).unwrap();
        assert!(eis > 0.99, "eis {eis}");
        let reclaimed = v.get("reclaimed").unwrap();
        assert_eq!(reclaimed.get("columns").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(reclaimed.get("rows").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn reclaim_reports_pipeline_timings() {
        let s = router();
        let body = r#"{"source": {"name": "S", "columns": ["id", "name", "age"],
            "key": ["id"],
            "rows": [[0, "Smith", 27], [1, "Brown", 24]]}}"#;
        let r = s.respond(Ok(post(body)));
        assert_eq!(r.status, 200, "body: {}", r.body);
        let v = Json::parse(&r.body).unwrap();
        let t = v.get("timings").expect("reclaim responses carry a timings breakdown");
        let field = |k: &str| t.get(k).and_then(Json::as_f64).unwrap_or_else(|| panic!("{k}"));
        let (d, tr, int) = (field("discovery_ms"), field("traversal_ms"), field("integration_ms"));
        let total = field("total_ms");
        assert!(d >= 0.0 && tr >= 0.0 && int >= 0.0);
        assert!((total - (d + tr + int)).abs() < 1e-6, "total {total} vs {d}+{tr}+{int}");
        // The greedy-round counters ride along (this tiny lake may align
        // only one candidate, so zero rounds is legitimate here; the e2e
        // suite asserts they actually move on a real lake).
        let counter = |k: &str| t.get(k).and_then(Json::as_i64).unwrap_or_else(|| panic!("{k}"));
        for k in [
            "traversal_rounds",
            "rows_rescored",
            "candidates_pruned",
            "expand_paths_considered",
            "expand_memo_hits",
            "expand_candidates_dropped",
            "expand_dedup",
        ] {
            assert!(counter(k) >= 0, "{k} must be a non-negative counter");
        }
    }

    #[test]
    fn reclaim_by_lake_name() {
        let s = router();
        let r = s.respond(Ok(post(r#"{"source_name": "ids", "key": ["id"]}"#)));
        assert_eq!(r.status, 200, "body: {}", r.body);
    }

    #[test]
    fn unknown_table_is_404() {
        let s = router();
        let r = s.respond(Ok(post(r#"{"source_name": "nope"}"#)));
        assert_eq!(r.status, 404);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").and_then(Json::as_str),
            Some("unknown_table")
        );
    }

    #[test]
    fn bad_json_is_400() {
        let s = router();
        let r = s.respond(Ok(post("{not json")));
        assert_eq!(r.status, 400);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("error").unwrap().get("kind").and_then(Json::as_str), Some("bad_json"));
    }

    #[test]
    fn wrong_method_is_405_and_unknown_path_404() {
        let s = router();
        let get_reclaim = Request {
            method: "GET".into(),
            path: "/reclaim".into(),
            headers: vec![],
            body: vec![],
        };
        assert_eq!(s.respond(Ok(get_reclaim)).status, 405);
        let nowhere = Request {
            method: "GET".into(),
            path: "/nowhere".into(),
            headers: vec![],
            body: vec![],
        };
        assert_eq!(s.respond(Ok(nowhere)).status, 404);
    }

    #[test]
    fn read_errors_map_to_structured_responses() {
        let s = router();
        let r = s.respond(Err(HttpError::Truncated { expected: 10, got: 3 }));
        assert_eq!(r.status, 400);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").and_then(Json::as_str),
            Some("truncated_body")
        );
        assert_eq!(s.respond(Err(HttpError::TooLarge("x".into()))).status, 413);
        assert_eq!(s.respond(Err(HttpError::Timeout)).status, 408);
    }

    /// A `source_name` request with no `key` override against an
    /// already-keyed lake table must borrow it, not clone it.
    #[test]
    fn keyed_lake_source_is_borrowed() {
        let keyed = Table::build(
            "keyed",
            &["id", "v"],
            &["id"],
            vec![vec![V::Int(1), V::str("a")], vec![V::Int(2), V::str("b")]],
        )
        .unwrap();
        assert!(keyed.key_is_valid());
        let loaded = LoadedLake::from(DataLake::from_tables(vec![keyed.clone()]));
        let s = LakeService::new(loaded, GenTConfig::default(), "borrow test");
        let body = Json::parse(r#"{"source_name": "keyed"}"#).unwrap();
        let source = s.parse_source(&body).unwrap();
        assert!(
            matches!(source, std::borrow::Cow::Borrowed(_)),
            "already-keyed lake table must not be cloned per request"
        );
        // A key override forces the (correct) copy-on-write.
        let body = Json::parse(r#"{"source_name": "keyed", "key": ["v"]}"#).unwrap();
        let source = s.parse_source(&body).unwrap();
        assert!(matches!(source, std::borrow::Cow::Owned(_)));
    }

    /// `/lake/stat` reports the lazy-decode gauge and per-endpoint latency
    /// histograms, and the histograms actually accumulate observations.
    #[test]
    fn lake_stat_reports_decode_gauge_and_latency() {
        let s = router();
        let stat = |s: &Router| {
            let r = s.respond(Ok(Request {
                method: "GET".into(),
                path: "/lake/stat".into(),
                headers: vec![],
                body: vec![],
            }));
            assert_eq!(r.status, 200);
            Json::parse(&r.body).unwrap()
        };
        let v = stat(&s);
        // In-memory lakes are fully materialized by construction.
        assert_eq!(v.get("tables_decoded").and_then(Json::as_i64), Some(2));
        assert_eq!(v.get("tables_total").and_then(Json::as_i64), Some(2));
        let lat = v.get("latency").expect("latency histograms");
        for endpoint in ["healthz", "lake_stat", "reclaim", "other"] {
            let h = lat.get(endpoint).unwrap_or_else(|| panic!("latency.{endpoint}"));
            assert!(h.get("count").and_then(Json::as_i64).is_some());
            assert!(h.get("mean_ms").and_then(Json::as_f64).is_some());
            let buckets = h.get("buckets").and_then(Json::as_array).expect("buckets");
            assert_eq!(buckets.len(), super::LATENCY_BOUNDS_US.len() + 1);
        }
        // The first stat call was recorded before the second reads it; a
        // reclaim and a read error land in their own histograms.
        s.respond(Ok(post("{}")));
        s.respond(Err(HttpError::Timeout));
        let v = stat(&s);
        let count = |ep: &str| {
            v.get("latency").unwrap().get(ep).unwrap().get("count").and_then(Json::as_i64).unwrap()
        };
        assert!(count("lake_stat") >= 1, "stat requests observed");
        assert_eq!(count("reclaim"), 1, "reclaim observed");
        assert_eq!(count("other"), 1, "read error observed");
        let reclaim = v.get("latency").unwrap().get("reclaim").unwrap();
        let bucket_sum: i64 = reclaim
            .get("buckets")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|b| b.get("count").and_then(Json::as_i64).unwrap())
            .sum();
        assert_eq!(bucket_sum, 1, "every observation lands in exactly one bucket");
    }

    #[test]
    fn request_counter_increments() {
        let s = router();
        assert_eq!(s.requests_served(), 0);
        s.respond(Ok(post("{}")));
        s.respond(Err(HttpError::Malformed("x".into())));
        assert_eq!(s.requests_served(), 2);
    }

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), headers: vec![], body: vec![] }
    }

    fn request_id(r: &Response) -> String {
        r.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("x-request-id"))
            .map(|(_, v)| v.clone())
            .expect("every response carries X-Request-Id")
    }

    #[test]
    fn metrics_exposition_serves_prometheus_text() {
        let s = router();
        s.respond(Ok(get("/healthz")));
        s.respond(Ok(post("{}"))); // bad JSON → reclaim error
        let r = s.respond(Ok(get("/metrics")));
        assert_eq!(r.status, 200);
        assert!(
            r.headers
                .iter()
                .any(|(n, v)| n.eq_ignore_ascii_case("content-type")
                    && v.starts_with("text/plain")),
            "{:?}",
            r.headers
        );
        for family in [
            "gent_http_requests_total",
            "gent_http_errors_total",
            "gent_http_in_flight",
            "gent_http_request_duration_us",
            "gent_http_connections_total",
            "gent_http_queue_depth",
            "gent_lake_tables_decoded",
            "gent_lake_tables_total",
            "gent_uptime_seconds",
        ] {
            assert!(r.body.contains(&format!("# TYPE {family} ")), "{family} missing");
        }
        assert!(r.body.contains("gent_http_requests_total{endpoint=\"healthz\"} 1"), "{}", r.body);
        assert!(r.body.contains("gent_http_errors_total{endpoint=\"reclaim\"} 1"), "{}", r.body);
        // The in-memory test lake is fully decoded by construction; the
        // decode gauges carry the routing label of their lake.
        assert!(r.body.contains("gent_lake_tables_decoded{lake=\"default\"} 2"), "{}", r.body);
        // The scrape itself is the one request mid-flight while rendering.
        assert!(r.body.contains("gent_http_in_flight{endpoint=\"metrics\"} 1"), "{}", r.body);
        assert!(r.body.contains("gent_http_in_flight{endpoint=\"healthz\"} 0"), "{}", r.body);
    }

    #[test]
    fn responses_echo_or_generate_request_ids() {
        let s = router();
        // A well-formed client ID is echoed verbatim.
        let r = s.respond(Ok(Request {
            method: "GET".into(),
            path: "/healthz".into(),
            headers: vec![("x-request-id".into(), "client-id-42".into())],
            body: vec![],
        }));
        assert_eq!(request_id(&r), "client-id-42");
        // No header → a generated 16-hex-char ID.
        let r = s.respond(Ok(get("/healthz")));
        let id = request_id(&r);
        assert_eq!(id.len(), 16, "{id}");
        assert!(id.bytes().all(|b| b.is_ascii_hexdigit()), "{id}");
        // A hostile header value (spaces, quotes) is replaced, not echoed.
        let r = s.respond(Ok(Request {
            method: "GET".into(),
            path: "/healthz".into(),
            headers: vec![("x-request-id".into(), "bad id \"quoted\"".into())],
            body: vec![],
        }));
        assert_ne!(request_id(&r), "bad id \"quoted\"");
        // Error paths carry the ID too: in the header *and* the error body.
        let r = s.respond(Ok(Request {
            method: "POST".into(),
            path: "/reclaim".into(),
            headers: vec![("x-request-id".into(), "err-trace-1".into())],
            body: b"{not json".to_vec(),
        }));
        assert_eq!(r.status, 400);
        assert_eq!(request_id(&r), "err-trace-1");
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("trace_id").and_then(Json::as_str),
            Some("err-trace-1")
        );
        // Even a request that never parsed gets a (generated) ID.
        let r = s.respond(Err(HttpError::Timeout));
        let id = request_id(&r);
        assert_eq!(id.len(), 16);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("trace_id").and_then(Json::as_str),
            Some(id.as_str())
        );
    }

    /// The re-homing regression test: `/lake/stat`'s JSON histograms and
    /// `/metrics`' Prometheus exposition render the *same* underlying
    /// buckets — counts, per-bucket tallies and sums must agree exactly.
    #[test]
    fn stat_and_metrics_views_agree() {
        let s = router();
        for _ in 0..3 {
            s.respond(Ok(get("/healthz")));
        }
        s.respond(Ok(post("{}")));
        s.respond(Err(HttpError::Timeout));

        // Scrape `/metrics` first: a request's latency is observed *after*
        // its body renders, so the later `/lake/stat` call sees exactly the
        // observations the scrape saw (its own is not yet recorded either
        // way), keeping the two snapshots comparable.
        let prom = s.respond(Ok(get("/metrics"))).body;
        let stat = Json::parse(&s.respond(Ok(get("/lake/stat"))).body).unwrap();
        let sample = |line_start: &str| -> i64 {
            prom.lines()
                .find(|l| {
                    l.starts_with(line_start)
                        && l.len() > line_start.len()
                        && l.as_bytes()[line_start.len()] == b' '
                })
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no sample `{line_start}` in:\n{prom}"))
        };
        for endpoint in ["healthz", "lake_stat", "reclaim", "other"] {
            let h = stat.get("latency").unwrap().get(endpoint).unwrap();
            let stat_count = h.get("count").and_then(Json::as_i64).unwrap();
            let prom_count =
                sample(&format!("gent_http_request_duration_us_count{{endpoint=\"{endpoint}\"}}"));
            assert_eq!(stat_count, prom_count, "{endpoint} count");
            // Stat buckets are per-bucket, Prometheus buckets cumulative:
            // the running sum of the former must reproduce the latter.
            let buckets = h.get("buckets").and_then(Json::as_array).unwrap();
            let mut cumulative = 0i64;
            for (i, b) in buckets.iter().enumerate() {
                cumulative += b.get("count").and_then(Json::as_i64).unwrap();
                let le = match LATENCY_BOUNDS_US.get(i) {
                    Some(us) => us.to_string(),
                    None => "+Inf".into(),
                };
                let prom_bucket = sample(&format!(
                    "gent_http_request_duration_us_bucket{{endpoint=\"{endpoint}\",le=\"{le}\"}}"
                ));
                assert_eq!(cumulative, prom_bucket, "{endpoint} bucket le={le}");
            }
        }
    }
}
