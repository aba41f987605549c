//! Multi-lake routing: many `*.gentlake` snapshots behind one address.
//!
//! A [`Router`] owns a fixed set of named lake *slots*. Each slot holds an
//! `Arc<LakeService>` behind a reader-writer lock:
//!
//! * **request path** — handlers clone the `Arc` under a read lock and run
//!   against that snapshot to completion, so a request always answers from
//!   the buffer it started on;
//! * **reload path** — `POST /admin/reload` loads the replacement snapshot
//!   entirely *off*-lock, then swaps the pointer under a brief write lock
//!   and bumps the slot's generation. In-flight requests keep their old
//!   `Arc`; the retired snapshot is freed when the last of them finishes.
//!
//! Requests pick their lake with a `"lake"` field in the body (POST) or a
//! `?lake=` query parameter (GET); the first registered lake is the default
//! when the field is absent, which keeps single-lake clients — and every
//! pre-router test — working unchanged. `GET /lakes` lists the slots.
//!
//! All slots share one `HttpMetrics` registry: per-endpoint instruments
//! are daemon-wide, per-lake instruments (`gent_lake_tables_decoded`,
//! `gent_lake_reloads_total`, …) carry a `{lake="…"}` label.
//! Reloading never re-registers a family, so scrapes stay collision-free
//! across generations.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gent_core::GenTConfig;
use gent_store::{LoadedLake, StoreError};
use parking_lot::{Mutex, RwLock};

use crate::http::{HttpError, Request, Response};
use crate::json::Json;
use crate::service::{
    parse_json_body, render_metrics, respond_enveloped, table_from_json, ApiError, HttpMetrics,
    LakeService,
};

/// Ingest folds the delta log back into a clean base once it reaches this
/// many frames, so open cost and tail-scan time stay bounded no matter how
/// long the daemon keeps accepting deltas.
pub const COMPACT_FRAME_THRESHOLD: usize = 8;

/// One hosted lake: its routing name, the snapshot path it can hot-reload
/// from, the live service, and a monotonically increasing generation.
struct LakeSlot {
    name: String,
    path: RwLock<Option<PathBuf>>,
    current: RwLock<Arc<LakeService>>,
    generation: AtomicU64,
    /// Serializes writers to the slot's snapshot file (ingest appends and
    /// compactions). Request traffic never takes this — reads answer from
    /// the in-memory service while an append runs.
    ingest: Mutex<()>,
}

impl LakeSlot {
    fn new(name: &str, path: Option<PathBuf>, service: LakeService) -> LakeSlot {
        LakeSlot {
            name: name.to_string(),
            path: RwLock::new(path),
            current: RwLock::new(Arc::new(service)),
            generation: AtomicU64::new(0),
            ingest: Mutex::new(()),
        }
    }

    /// Clone the live service handle. The read lock is held only for the
    /// clone — the request then runs lock-free against its snapshot, and a
    /// concurrent reload cannot invalidate it.
    fn service(&self) -> Arc<LakeService> {
        Arc::clone(&self.current.read())
    }
}

/// Is `name` acceptable as a lake routing name? Same alphabet as
/// [`gent_store::default_lake_name`] produces: 1–64 alphanumerics, `-`, `_`.
fn valid_lake_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_alphanumeric() || c == '-' || c == '_')
}

/// Builds a [`Router`] slot by slot. The first lake added becomes the
/// default route.
pub struct RouterBuilder {
    config: GenTConfig,
    metrics: Arc<HttpMetrics>,
    slots: Vec<LakeSlot>,
    degraded: bool,
}

impl RouterBuilder {
    /// Open snapshots in **degraded mode** (`gent serve --degraded`):
    /// corrupt tables are quarantined instead of failing the boot or
    /// reload, and quarantined names answer `410 quarantined`. Call before
    /// [`Self::add_snapshot`] — the flag applies to boot-time opens as
    /// well as every later reload and ingest swap.
    pub fn set_degraded(&mut self, on: bool) {
        self.degraded = on;
    }

    fn check_name(&self, name: &str) -> Result<(), String> {
        if !valid_lake_name(name) {
            return Err(format!("invalid lake name `{name}`: use 1-64 alphanumerics, `-` or `_`"));
        }
        if self.slots.iter().any(|s| s.name == name) {
            return Err(format!("duplicate lake name `{name}`"));
        }
        Ok(())
    }

    /// Register a snapshot file under `name`. The snapshot opens lazily —
    /// registration costs header metadata, not a cell decode — and the slot
    /// remembers `path` so `POST /admin/reload` can re-read it without
    /// being told where.
    pub fn add_snapshot(&mut self, name: &str, path: &Path) -> Result<(), String> {
        self.check_name(name)?;
        let loaded = open_snapshot(path, self.degraded)
            .map_err(|e| format!("lake `{name}`: cannot open `{}`: {e}", path.display()))?;
        let service = LakeService::with_shared(
            loaded,
            self.config.clone(),
            path.display().to_string(),
            name,
            Arc::clone(&self.metrics),
        );
        self.slots.push(LakeSlot::new(name, Some(path.to_path_buf()), service));
        Ok(())
    }

    /// Register a lake the caller already opened from `path` — e.g. after
    /// an eager pre-decode pass. Behaves like [`Self::add_snapshot`]
    /// (the slot remembers `path` for reloads) without re-reading the file.
    pub fn add_loaded_snapshot(
        &mut self,
        name: &str,
        loaded: LoadedLake,
        path: &Path,
    ) -> Result<(), String> {
        self.check_name(name)?;
        let service = LakeService::with_shared(
            loaded,
            self.config.clone(),
            path.display().to_string(),
            name,
            Arc::clone(&self.metrics),
        );
        self.slots.push(LakeSlot::new(name, Some(path.to_path_buf()), service));
        Ok(())
    }

    /// Register an already-loaded lake (tests, in-process embedding). The
    /// slot has no snapshot path, so reloading it requires an explicit
    /// `path` in the reload request.
    pub fn add_loaded(
        &mut self,
        name: &str,
        loaded: LoadedLake,
        origin: &str,
    ) -> Result<(), String> {
        self.check_name(name)?;
        let service = LakeService::with_shared(
            loaded,
            self.config.clone(),
            origin,
            name,
            Arc::clone(&self.metrics),
        );
        self.slots.push(LakeSlot::new(name, None, service));
        Ok(())
    }

    /// Finish the build. Fails on an empty router — a daemon must host at
    /// least one lake.
    pub fn build(self) -> Result<Router, String> {
        if self.slots.is_empty() {
            return Err("a router needs at least one lake".into());
        }
        Ok(Router {
            slots: self.slots,
            base_config: self.config,
            metrics: self.metrics,
            started: Instant::now(),
            served: AtomicU64::new(0),
            draining: Arc::new(AtomicBool::new(false)),
            degraded: self.degraded,
        })
    }
}

/// The multi-lake request router — see the module docs for the locking
/// story. The server holds one of these in an `Arc` shared by every worker.
pub struct Router {
    slots: Vec<LakeSlot>,
    base_config: GenTConfig,
    metrics: Arc<HttpMetrics>,
    started: Instant,
    served: AtomicU64,
    /// Set by [`crate::ServerHandle::begin_drain`]/`stop`: readiness
    /// (`GET /healthz/ready`) answers 503 and every response advertises
    /// `Connection: close`, steering load balancers and pooled clients
    /// away while in-flight work completes. Liveness is unaffected.
    draining: Arc<AtomicBool>,
    /// Open snapshots in degraded (quarantining) mode on reload and
    /// ingest swaps — see [`RouterBuilder::set_degraded`].
    degraded: bool,
}

impl Router {
    /// Start building a router whose lakes all reclaim with `config` (the
    /// base that per-request overrides are applied on top of).
    pub fn builder(config: GenTConfig) -> RouterBuilder {
        RouterBuilder {
            config,
            metrics: LakeService::fresh_metrics(),
            slots: Vec::new(),
            degraded: false,
        }
    }

    /// Wrap a single pre-built service — the compatibility path behind
    /// [`crate::Server::bind`], and the cheapest way to serve one lake.
    pub fn single(service: LakeService) -> Router {
        let metrics = service.metrics_arc();
        let base_config = service.base_config().clone();
        let name = service.lake_label().to_string();
        Router {
            slots: vec![LakeSlot::new(&name, None, service)],
            base_config,
            metrics,
            started: Instant::now(),
            served: AtomicU64::new(0),
            draining: Arc::new(AtomicBool::new(false)),
            degraded: false,
        }
    }

    /// The routing names of the hosted lakes, default first.
    pub fn lake_names(&self) -> Vec<String> {
        self.slots.iter().map(|s| s.name.clone()).collect()
    }

    /// Requests answered so far, across all lakes.
    pub fn requests_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    pub(crate) fn http_metrics(&self) -> &HttpMetrics {
        &self.metrics
    }

    /// The drain flag shared with the server's [`crate::ServerHandle`].
    pub(crate) fn draining_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.draining)
    }

    /// Is the daemon draining (readiness withdrawn, connections closing)?
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn slot(&self, name: Option<&str>) -> Result<&LakeSlot, ApiError> {
        match name {
            None => Ok(&self.slots[0]),
            Some(n) => self.slots.iter().find(|s| s.name == n).ok_or_else(|| {
                ApiError::new(
                    404,
                    "unknown_lake",
                    format!("no lake named `{n}`; GET /lakes lists the hosted lakes"),
                )
            }),
        }
    }

    /// Answer one connection's worth of input: either a parsed request or
    /// the read error it failed with. Never panics outward — a panicking
    /// handler answers 500 and the daemon lives on. Every answer lands in
    /// the per-endpoint instruments (latency histogram, request/error
    /// counters, in-flight gauge), carries the request's trace ID back in
    /// an `X-Request-Id` header — propagated from the client's header when
    /// it sent a well-formed one, generated otherwise — and is logged as
    /// one structured line with that same ID.
    pub fn respond(&self, input: Result<Request, HttpError>) -> Response {
        self.served.fetch_add(1, Ordering::Relaxed);
        respond_enveloped(&self.metrics, input, |request| self.route(request))
    }

    fn route(&self, request: &Request) -> Result<Response, ApiError> {
        let (path, query) = match request.path.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (request.path.as_str(), None),
        };
        match (request.method.as_str(), path) {
            ("GET", "/healthz") => Ok(self.healthz()),
            ("GET", "/healthz/live") => Ok(self.liveness()),
            ("GET", "/healthz/ready") => Ok(self.readiness()),
            ("GET", "/lakes") => Ok(self.list_lakes()),
            ("GET", "/lake/stat") => {
                let slot = self.slot(query_param(query, "lake"))?;
                Ok(with_generation(slot.service().lake_stat(), slot))
            }
            ("GET", "/metrics") => Ok(self.metrics_all()),
            ("POST", "/reclaim") => {
                let body = parse_json_body(&request.body)?;
                let slot = self.slot(body_lake(&body)?)?;
                slot.service().reclaim_body(&body).map(|r| with_generation(r, slot))
            }
            ("POST", "/admin/reload") => {
                let body = parse_json_body(&request.body)?;
                self.admin_reload(&body)
            }
            ("POST", "/admin/ingest") => {
                let body = parse_json_body(&request.body)?;
                self.admin_ingest(&body)
            }
            ("POST", "/admin/compact") => {
                let body = parse_json_body(&request.body)?;
                self.admin_compact(&body)
            }
            (
                _,
                "/healthz" | "/healthz/live" | "/healthz/ready" | "/lakes" | "/lake/stat"
                | "/metrics",
            ) => Err(ApiError::new(
                405,
                "bad_method",
                format!("{} does not accept {}; use GET", path, request.method),
            )),
            (_, "/reclaim" | "/admin/reload" | "/admin/ingest" | "/admin/compact") => {
                Err(ApiError::new(
                    405,
                    "bad_method",
                    format!("{} does not accept {}; use POST", path, request.method),
                ))
            }
            _ => Err(ApiError::new(404, "unknown_path", format!("no such endpoint `{path}`"))),
        }
    }

    /// `GET /healthz/live`: is the process able to answer at all? Always
    /// 200 while the daemon runs — draining does not affect liveness, so
    /// orchestrators keep the process alive while it finishes its work.
    fn liveness(&self) -> Response {
        Response::ok(Json::Object(vec![("status".into(), Json::str("live"))]).render())
    }

    /// `GET /healthz/ready`: should new traffic be sent here? 200 while
    /// serving; 503 + `Retry-After` once draining begins, so load
    /// balancers route away *before* the listener closes.
    fn readiness(&self) -> Response {
        if self.is_draining() {
            return ApiError::new(
                503,
                "draining",
                "daemon is draining; in-flight requests finish, new traffic should go elsewhere",
            )
            .to_response()
            .with_header("Retry-After", "1");
        }
        Response::ok(
            Json::Object(vec![
                ("status".into(), Json::str("ready")),
                ("lakes".into(), Json::Int(self.slots.len() as i64)),
            ])
            .render(),
        )
    }

    fn healthz(&self) -> Response {
        let default = self.slots[0].service();
        Response::ok(
            Json::Object(vec![
                ("status".into(), Json::str("ok")),
                ("tables".into(), Json::Int(default.lake().len() as i64)),
                ("uptime_secs".into(), Json::Float(self.started.elapsed().as_secs_f64())),
                ("requests_served".into(), Json::Int(self.requests_served() as i64)),
                ("lakes".into(), Json::Int(self.slots.len() as i64)),
            ])
            .render(),
        )
    }

    fn list_lakes(&self) -> Response {
        let lakes: Vec<Json> = self
            .slots
            .iter()
            .map(|slot| {
                let service = slot.service();
                Json::Object(vec![
                    ("name".into(), Json::str(slot.name.clone())),
                    ("origin".into(), Json::str(service.origin())),
                    ("tables".into(), Json::Int(service.lake().len() as i64)),
                    (
                        "generation".into(),
                        Json::Int(slot.generation.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "path".into(),
                        match &*slot.path.read() {
                            Some(p) => Json::str(p.display().to_string()),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        Response::ok(
            Json::Object(vec![
                ("default".into(), Json::str(self.slots[0].name.clone())),
                ("lakes".into(), Json::Array(lakes)),
            ])
            .render(),
        )
    }

    /// `GET /metrics` for the whole daemon: refresh every slot's labelled
    /// decode gauges, stamp uptime from the router's start, render the
    /// process-global registry followed by the shared HTTP registry.
    fn metrics_all(&self) -> Response {
        for slot in &self.slots {
            slot.service().sample_lake_gauges();
        }
        self.metrics
            .uptime_seconds
            .set(i64::try_from(self.started.elapsed().as_secs()).unwrap_or(i64::MAX));
        render_metrics(&self.metrics)
    }

    /// `POST /admin/reload`: atomically replace one lake's snapshot. The
    /// replacement loads entirely off-lock (a corrupt or missing file
    /// answers 422 and leaves the live snapshot untouched); only the
    /// pointer swap takes the write lock. In-flight requests complete
    /// against the snapshot they cloned at dispatch.
    fn admin_reload(&self, body: &Json) -> Result<Response, ApiError> {
        let slot = self.slot(body_lake(body)?)?;
        let path = match body.get("path") {
            Some(p) => PathBuf::from(
                p.as_str()
                    .ok_or_else(|| ApiError::new(400, "bad_json", "`path` must be a string"))?,
            ),
            None => slot.path.read().clone().ok_or_else(|| {
                ApiError::new(
                    400,
                    "bad_json",
                    format!("lake `{}` was not loaded from a snapshot; pass `path`", slot.name),
                )
            })?,
        };
        let (service, generation) = self.swap_in(slot, &path)?;
        self.metrics.reloads(&slot.name).inc();
        Ok(Response::ok(
            Json::Object(vec![
                ("lake".into(), Json::str(slot.name.clone())),
                ("path".into(), Json::str(path.display().to_string())),
                ("generation".into(), Json::Int(generation as i64)),
                ("tables".into(), Json::Int(service.lake().len() as i64)),
            ])
            .render(),
        )
        .with_header("X-Gent-Generation", generation.to_string()))
    }

    /// Load `path` (honouring degraded mode), swap it into `slot` under a
    /// brief write lock, and bump the generation. The load runs entirely
    /// off-lock: a corrupt file answers 422 and the live snapshot is
    /// untouched.
    fn swap_in(&self, slot: &LakeSlot, path: &Path) -> Result<(Arc<LakeService>, u64), ApiError> {
        let loaded = open_snapshot(path, self.degraded).map_err(|e| {
            ApiError::new(422, "reload_failed", format!("cannot load `{}`: {e}", path.display()))
        })?;
        let service = Arc::new(LakeService::with_shared(
            loaded,
            self.base_config.clone(),
            path.display().to_string(),
            &slot.name,
            Arc::clone(&self.metrics),
        ));
        *slot.current.write() = Arc::clone(&service);
        *slot.path.write() = Some(path.to_path_buf());
        let generation = slot.generation.fetch_add(1, Ordering::SeqCst) + 1;
        Ok((service, generation))
    }

    /// `POST /admin/ingest`: `{"lake"?, "tables": [<inline table>, …]}` —
    /// append the tables to the lake's snapshot as one crash-safe delta
    /// frame, then make them live with the same off-lock load +
    /// pointer-swap as `/admin/reload`. The append itself holds only the
    /// slot's ingest mutex: request traffic keeps answering from the
    /// in-memory snapshot the whole time, and the frame is fsynced +
    /// commit-marked before the swap, so an acknowledged ingest survives
    /// any crash. Once the frame log reaches
    /// [`COMPACT_FRAME_THRESHOLD`], the log is folded into a clean base
    /// inline before the swap.
    fn admin_ingest(&self, body: &Json) -> Result<Response, ApiError> {
        let slot = self.slot(body_lake(body)?)?;
        let path = slot.path.read().clone().ok_or_else(|| {
            ApiError::new(
                400,
                "bad_json",
                format!(
                    "lake `{}` was not loaded from a snapshot; ingest needs a durable file",
                    slot.name
                ),
            )
        })?;
        let tables_json = body.get("tables").and_then(Json::as_array).ok_or_else(|| {
            ApiError::new(400, "bad_json", "`tables` must be an array of inline tables")
        })?;
        if tables_json.is_empty() {
            return Err(ApiError::new(400, "empty_ingest", "`tables` must not be empty"));
        }
        let mut tables = Vec::with_capacity(tables_json.len());
        let mut seen = std::collections::HashSet::new();
        let live = slot.service();
        for (i, item) in tables_json.iter().enumerate() {
            let t = table_from_json(item).map_err(|e| {
                ApiError::new(e.status, e.kind, format!("tables[{i}]: {}", e.message))
            })?;
            if live.lake().get_by_name(t.name()).is_some() || !seen.insert(t.name().to_string()) {
                return Err(ApiError::new(
                    409,
                    "duplicate_table",
                    format!("tables[{i}]: the lake already has a table named `{}`", t.name()),
                ));
            }
            tables.push(t);
        }

        // Serialize writers; readers never wait on this lock.
        let guard = slot.ingest.lock();
        let outcome = gent_store::append_tables(&path, &tables).map_err(|e| {
            ApiError::new(422, "ingest_failed", format!("append to `{}`: {e}", path.display()))
        })?;
        // The frame is durable from here on — compaction or swap failures
        // can no longer lose it.
        let compacted = if outcome.frames_after >= COMPACT_FRAME_THRESHOLD {
            match gent_store::compact(&path) {
                Ok(folded) => folded > 0,
                Err(e) => {
                    gent_obs::log(
                        gent_obs::Level::Warn,
                        "gent_serve::ingest",
                        "inline compaction failed; frames remain on disk",
                        &[("lake", slot.name.as_str().into()), ("error", e.to_string().into())],
                    );
                    false
                }
            }
        } else {
            false
        };
        let (service, generation) = self.swap_in(slot, &path)?;
        drop(guard);

        self.metrics.ingests(&slot.name).inc();
        if compacted {
            self.metrics.lake_compactions(&slot.name).inc();
        }
        Ok(Response::ok(
            Json::Object(vec![
                ("lake".into(), Json::str(slot.name.clone())),
                ("appended".into(), Json::Int(tables.len() as i64)),
                ("tables".into(), Json::Int(service.lake().len() as i64)),
                ("frames".into(), Json::Int(service.n_frames() as i64)),
                ("compacted".into(), Json::Bool(compacted)),
                ("recovered_torn_tail".into(), Json::Bool(outcome.truncated_torn_tail)),
                ("generation".into(), Json::Int(generation as i64)),
            ])
            .render(),
        )
        .with_header("X-Gent-Generation", generation.to_string()))
    }

    /// `POST /admin/compact`: fold the lake's delta-frame log into a clean
    /// base file and swap the compacted snapshot live. A frameless lake
    /// answers 200 with `folded: 0` and no swap.
    fn admin_compact(&self, body: &Json) -> Result<Response, ApiError> {
        let slot = self.slot(body_lake(body)?)?;
        let path = slot.path.read().clone().ok_or_else(|| {
            ApiError::new(
                400,
                "bad_json",
                format!("lake `{}` was not loaded from a snapshot; nothing to compact", slot.name),
            )
        })?;
        let guard = slot.ingest.lock();
        let folded = gent_store::compact(&path).map_err(|e| {
            ApiError::new(422, "compact_failed", format!("compact `{}`: {e}", path.display()))
        })?;
        let (service, generation) = if folded > 0 {
            let swapped = self.swap_in(slot, &path)?;
            self.metrics.lake_compactions(&slot.name).inc();
            swapped
        } else {
            (slot.service(), slot.generation.load(Ordering::SeqCst))
        };
        drop(guard);
        Ok(Response::ok(
            Json::Object(vec![
                ("lake".into(), Json::str(slot.name.clone())),
                ("folded".into(), Json::Int(folded as i64)),
                ("tables".into(), Json::Int(service.lake().len() as i64)),
                ("generation".into(), Json::Int(generation as i64)),
            ])
            .render(),
        )
        .with_header("X-Gent-Generation", generation.to_string()))
    }
}

/// Stamp a slot-routed response with the snapshot generation it answered
/// from, so retrying clients can tell when a `/admin/reload` swap happened
/// between attempts (see [`crate::client::RetryClient`]).
fn with_generation(response: Response, slot: &LakeSlot) -> Response {
    let generation = slot.generation.load(Ordering::SeqCst);
    response.with_header("X-Gent-Generation", generation.to_string())
}

/// Pull the optional `"lake"` routing field out of a POST body.
fn body_lake(body: &Json) -> Result<Option<&str>, ApiError> {
    match body.get("lake") {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| ApiError::new(400, "bad_json", "`lake` must be a string")),
    }
}

/// Find `key=` in a raw query string. No percent-decoding: lake names are
/// restricted to an alphabet that never needs it.
fn query_param<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query?.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// Open the snapshot at `path` the way the daemon was told to — strict, or
/// degraded (quarantining damaged tables) — for boot, reload and ingest
/// alike.
fn open_snapshot(path: &Path, degraded: bool) -> Result<LoadedLake, StoreError> {
    if degraded {
        gent_store::load_degraded(path)
    } else {
        gent_store::snapshot::load(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_discovery::DataLake;
    use gent_table::{Table, Value as V};

    fn lake_tables(tag: &str) -> Vec<Table> {
        vec![
            Table::build(
                &format!("{tag}_people"),
                &["id", "name", "age"],
                &[],
                vec![
                    vec![V::Int(0), V::str("Smith"), V::Int(27)],
                    vec![V::Int(1), V::str("Brown"), V::Int(24)],
                ],
            )
            .unwrap(),
            Table::build(
                &format!("{tag}_ids"),
                &["id", "name"],
                &[],
                vec![vec![V::Int(0), V::str("Smith")], vec![V::Int(1), V::str("Brown")]],
            )
            .unwrap(),
        ]
    }

    fn router() -> Router {
        let mut b = Router::builder(GenTConfig::default());
        for name in ["alpha", "beta"] {
            let loaded = LoadedLake::from(DataLake::from_tables(lake_tables(name)));
            b.add_loaded(name, loaded, &format!("{name} origin")).unwrap();
        }
        b.build().unwrap()
    }

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), headers: vec![], body: vec![] }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn builder_rejects_bad_names() {
        let mut b = Router::builder(GenTConfig::default());
        let loaded = LoadedLake::from(DataLake::from_tables(lake_tables("x")));
        b.add_loaded("ok-name", loaded, "o").unwrap();
        let loaded = LoadedLake::from(DataLake::from_tables(lake_tables("x")));
        assert!(b.add_loaded("ok-name", loaded, "o").unwrap_err().contains("duplicate"));
        let loaded = LoadedLake::from(DataLake::from_tables(lake_tables("x")));
        assert!(b.add_loaded("bad name!", loaded, "o").unwrap_err().contains("invalid"));
        assert!(Router::builder(GenTConfig::default()).build().is_err());
    }

    #[test]
    fn lakes_listing_and_healthz_count() {
        let r = router();
        let resp = r.respond(Ok(get("/lakes")));
        assert_eq!(resp.status, 200);
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("default").and_then(Json::as_str), Some("alpha"));
        let lakes = v.get("lakes").and_then(Json::as_array).unwrap();
        assert_eq!(lakes.len(), 2);
        assert_eq!(lakes[1].get("name").and_then(Json::as_str), Some("beta"));
        assert_eq!(lakes[1].get("origin").and_then(Json::as_str), Some("beta origin"));
        let health = Json::parse(&r.respond(Ok(get("/healthz"))).body).unwrap();
        assert_eq!(health.get("lakes").and_then(Json::as_i64), Some(2));
    }

    #[test]
    fn reclaim_routes_by_lake_field() {
        let r = router();
        // Default route: alpha's tables resolve, beta's don't.
        let ok = r.respond(Ok(post("/reclaim", r#"{"source_name": "alpha_ids", "key": ["id"]}"#)));
        assert_eq!(ok.status, 200, "{}", ok.body);
        let routed = r.respond(Ok(post(
            "/reclaim",
            r#"{"lake": "beta", "source_name": "beta_ids", "key": ["id"]}"#,
        )));
        assert_eq!(routed.status, 200, "{}", routed.body);
        let wrong =
            r.respond(Ok(post("/reclaim", r#"{"source_name": "beta_ids", "key": ["id"]}"#)));
        assert_eq!(wrong.status, 404, "beta's table must not resolve on alpha");
        let unknown = r.respond(Ok(post("/reclaim", r#"{"lake": "nope", "source_name": "x"}"#)));
        assert_eq!(unknown.status, 404);
        let v = Json::parse(&unknown.body).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").and_then(Json::as_str),
            Some("unknown_lake")
        );
    }

    #[test]
    fn stat_routes_by_query_param() {
        let r = router();
        let v = Json::parse(&r.respond(Ok(get("/lake/stat?lake=beta"))).body).unwrap();
        assert_eq!(v.get("origin").and_then(Json::as_str), Some("beta origin"));
        assert_eq!(r.respond(Ok(get("/lake/stat?lake=nope"))).status, 404);
    }

    #[test]
    fn overrides_are_validated_and_echoed() {
        let r = router();
        let body = r#"{"source_name": "alpha_ids", "key": ["id"],
            "overrides": {"tau": 0.5, "max_candidates": 100000}}"#;
        let resp = r.respond(Ok(post("/reclaim", body)));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        let cfg = v.get("config").expect("overridden requests echo the effective config");
        assert_eq!(cfg.get("tau").and_then(Json::as_f64), Some(0.5));
        // Clamped server-side, not rejected.
        assert_eq!(
            cfg.get("max_candidates").and_then(Json::as_i64),
            Some(crate::service::MAX_CANDIDATES_CAP as i64)
        );
        // No overrides → no config block (pre-override responses unchanged).
        let plain =
            r.respond(Ok(post("/reclaim", r#"{"source_name": "alpha_ids", "key": ["id"]}"#)));
        assert!(Json::parse(&plain.body).unwrap().get("config").is_none());
        // Out-of-range tau is a structured 422.
        let bad = r.respond(Ok(post(
            "/reclaim",
            r#"{"source_name": "alpha_ids", "key": ["id"], "overrides": {"tau": 1.5}}"#,
        )));
        assert_eq!(bad.status, 422, "{}", bad.body);
        let v = Json::parse(&bad.body).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").and_then(Json::as_str),
            Some("bad_override")
        );
    }

    #[test]
    fn reload_swaps_snapshot_and_bumps_generation() {
        let dir = std::env::temp_dir().join(format!("gent-routing-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = dir.join("v1.gentlake");
        let v2 = dir.join("v2.gentlake");
        let lake1 = gent_discovery::DataLake::from_tables(lake_tables("one"));
        let lake2 = gent_discovery::DataLake::from_tables(lake_tables("two"));
        gent_store::snapshot::write(&v1, &lake1).unwrap();
        gent_store::snapshot::write(&v2, &lake2).unwrap();

        let mut b = Router::builder(GenTConfig::default());
        b.add_snapshot("main", &v1).unwrap();
        let r = b.build().unwrap();

        // v1 serves one_ids; v2's tables don't exist yet.
        assert_eq!(
            r.respond(Ok(post("/reclaim", r#"{"source_name": "one_ids", "key": ["id"]}"#))).status,
            200
        );
        // Reload to v2 (explicit path), generation bumps.
        let swap = r.respond(Ok(post(
            "/admin/reload",
            &format!(r#"{{"lake": "main", "path": "{}"}}"#, v2.display()),
        )));
        assert_eq!(swap.status, 200, "{}", swap.body);
        let v = Json::parse(&swap.body).unwrap();
        assert_eq!(v.get("generation").and_then(Json::as_i64), Some(1));
        assert_eq!(
            r.respond(Ok(post("/reclaim", r#"{"source_name": "two_ids", "key": ["id"]}"#))).status,
            200,
            "after reload the new snapshot's tables resolve"
        );
        assert_eq!(
            r.respond(Ok(post("/reclaim", r#"{"source_name": "one_ids", "key": ["id"]}"#))).status,
            404,
            "after reload the old snapshot's tables are gone"
        );
        // Pathless reload re-reads the remembered path.
        let again = r.respond(Ok(post("/admin/reload", r#"{"lake": "main"}"#)));
        assert_eq!(again.status, 200, "{}", again.body);
        assert_eq!(
            Json::parse(&again.body).unwrap().get("generation").and_then(Json::as_i64),
            Some(2)
        );
        // A missing file is a structured 422 and the live snapshot survives.
        let bad = r.respond(Ok(post(
            "/admin/reload",
            &format!(r#"{{"lake": "main", "path": "{}"}}"#, dir.join("nope.gentlake").display()),
        )));
        assert_eq!(bad.status, 422, "{}", bad.body);
        let v = Json::parse(&bad.body).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").and_then(Json::as_str),
            Some("reload_failed")
        );
        assert_eq!(
            r.respond(Ok(post("/reclaim", r#"{"source_name": "two_ids", "key": ["id"]}"#))).status,
            200,
            "failed reload must not disturb the live snapshot"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A file of a retired format generation (a current file whose version
    /// word is overwritten with 1 or 2) gets the structured
    /// `StoreError::Version` everywhere a snapshot is opened, a problem
    /// line from fsck, and `422 reload_failed` from a reload onto it —
    /// which leaves the live snapshot serving.
    #[test]
    fn retired_format_versions_are_refused_everywhere() {
        use gent_store::{snapshot, StoreError};
        let dir = std::env::temp_dir().join(format!("gent-routing-retired-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let live = dir.join("live.gentlake");
        let lake = gent_discovery::DataLake::from_tables(lake_tables("one"));
        snapshot::write(&live, &lake).unwrap();
        let mut b = Router::builder(GenTConfig::default());
        b.add_snapshot("main", &live).unwrap();
        let r = b.build().unwrap();

        for version in [1u16, 2] {
            let old = dir.join(format!("v{version}.gentlake"));
            let mut bytes = std::fs::read(&live).unwrap();
            bytes[8..10].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&old, &bytes).unwrap();

            let refused = |e: StoreError| match e {
                StoreError::Version { found, supported: 3 } => found == version,
                _ => false,
            };
            assert!(refused(snapshot::load(&old).unwrap_err()));
            assert!(refused(gent_store::load_degraded(&old).unwrap_err()));
            assert!(refused(snapshot::stat(&old).unwrap_err()));
            assert!(refused(gent_store::append_tables(&old, &lake_tables("x")).unwrap_err()));
            let report = gent_store::fsck(&old).unwrap();
            assert!(
                report.problems.iter().any(|p| p.what == "header"
                    && p.detail.contains(&format!("version {version} is not supported"))),
                "{:?}",
                report.problems
            );

            let resp = r.respond(Ok(post(
                "/admin/reload",
                &format!(r#"{{"lake": "main", "path": "{}"}}"#, old.display()),
            )));
            assert_eq!(resp.status, 422, "{}", resp.body);
            let v = Json::parse(&resp.body).unwrap();
            assert_eq!(
                v.get("error").unwrap().get("kind").and_then(Json::as_str),
                Some("reload_failed")
            );
            let served =
                r.respond(Ok(post("/reclaim", r#"{"source_name": "one_ids", "key": ["id"]}"#)));
            assert_eq!(served.status, 200, "failed reload must not disturb the live snapshot");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_appends_swaps_and_compacts_at_threshold() {
        let dir = std::env::temp_dir().join(format!("gent-routing-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("live.gentlake");
        let lake = gent_discovery::DataLake::from_tables(lake_tables("one"));
        gent_store::snapshot::write(&snap, &lake).unwrap();

        let mut b = Router::builder(GenTConfig::default());
        b.add_snapshot("main", &snap).unwrap();
        let r = b.build().unwrap();

        let ingest_body = |name: &str| {
            format!(
                r#"{{"lake": "main", "tables": [{{"name": "{name}",
                    "columns": ["id", "tag"],
                    "rows": [[1, "x"], [2, "y"]]}}]}}"#
            )
        };

        // A memory-only lake (no snapshot path) cannot ingest.
        let memless = router().respond(Ok(post("/admin/ingest", &ingest_body("t"))));
        assert_eq!(memless.status, 404, "{}", memless.body); // router() has no "main"

        // First ingest: table appears, generation bumps, frame count is 1.
        let first = r.respond(Ok(post("/admin/ingest", &ingest_body("fresh_a"))));
        assert_eq!(first.status, 200, "{}", first.body);
        let v = Json::parse(&first.body).unwrap();
        assert_eq!(v.get("appended").and_then(Json::as_i64), Some(1));
        assert_eq!(v.get("tables").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("frames").and_then(Json::as_i64), Some(1));
        assert_eq!(v.get("compacted").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("generation").and_then(Json::as_i64), Some(1));
        assert!(
            first.headers.iter().any(|(k, v)| k == "X-Gent-Generation" && v == "1"),
            "{:?}",
            first.headers
        );
        assert_eq!(
            r.respond(Ok(post("/reclaim", r#"{"source_name": "fresh_a", "key": ["id"]}"#))).status,
            200,
            "ingested table must be reclaimable immediately"
        );

        // Duplicate names are rejected without touching the file.
        let dup = r.respond(Ok(post("/admin/ingest", &ingest_body("fresh_a"))));
        assert_eq!(dup.status, 409, "{}", dup.body);
        let v = Json::parse(&dup.body).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").and_then(Json::as_str),
            Some("duplicate_table")
        );
        let empty = r.respond(Ok(post("/admin/ingest", r#"{"lake": "main", "tables": []}"#)));
        assert_eq!(empty.status, 400, "{}", empty.body);

        // Keep ingesting until the frame log hits the threshold: the
        // response that crosses it reports compacted=true and frames resets.
        let mut compacted_seen = false;
        for i in 0..COMPACT_FRAME_THRESHOLD {
            let resp = r.respond(Ok(post("/admin/ingest", &ingest_body(&format!("fresh_b{i}")))));
            assert_eq!(resp.status, 200, "{}", resp.body);
            let v = Json::parse(&resp.body).unwrap();
            if v.get("compacted").and_then(Json::as_bool) == Some(true) {
                assert_eq!(v.get("frames").and_then(Json::as_i64), Some(0));
                compacted_seen = true;
            }
        }
        assert!(compacted_seen, "crossing the frame threshold must auto-compact");
        let (frames, _) = gent_store::frame_count(&snap).unwrap();
        assert!(frames < COMPACT_FRAME_THRESHOLD, "on-disk frame log was folded");

        // Explicit compact folds whatever is left and is a no-op when clean.
        let c = r.respond(Ok(post("/admin/compact", r#"{"lake": "main"}"#)));
        assert_eq!(c.status, 200, "{}", c.body);
        assert_eq!(gent_store::frame_count(&snap).unwrap().0, 0);
        let again = r.respond(Ok(post("/admin/compact", r#"{"lake": "main"}"#)));
        let v = Json::parse(&again.body).unwrap();
        assert_eq!(v.get("folded").and_then(Json::as_i64), Some(0));

        // Everything ingested survives the compactions.
        for name in ["one_ids", "fresh_a", "fresh_b0"] {
            let body = format!(r#"{{"source_name": "{name}", "key": ["id"]}}"#);
            assert_eq!(r.respond(Ok(post("/reclaim", &body))).status, 200, "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_scrape_labels_every_lake() {
        let r = router();
        r.respond(Ok(post("/reclaim", r#"{"source_name": "alpha_ids", "key": ["id"]}"#)));
        let body = r.respond(Ok(get("/metrics"))).body;
        assert!(body.contains("gent_lake_tables_decoded{lake=\"alpha\"}"), "{body}");
        assert!(body.contains("gent_lake_tables_decoded{lake=\"beta\"}"), "{body}");
        assert!(body.contains("gent_http_requests_total{endpoint=\"reclaim\"} 1"), "{body}");
    }
}
