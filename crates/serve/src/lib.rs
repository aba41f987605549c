//! # gent-serve — the `gent serve` warm-lake reclamation daemon
//!
//! The Gen-T pipeline is a batch algorithm, but the workloads it targets are
//! not: a data lake is built once and queried by many source tables over a
//! long lifetime. `gent-store` makes the lake *reopenable* in milliseconds
//! (`*.gentlake` snapshots persist the inverted index in its serving
//! layout); this crate makes it *servable* — a long-running
//! daemon that opens one snapshot once and answers reclamation requests
//! against the warm lake over HTTP:
//!
//! ```text
//! gent lake build lake-dir/ --out lake.gentlake     # ingest + index once
//! gent serve --lake lake.gentlake --addr 127.0.0.1:7744
//! curl -s localhost:7744/healthz
//! curl -s -X POST localhost:7744/reclaim -d '{"source": {...}}'
//! ```
//!
//! Everything is built on `std::net` — the build image has no network
//! crates, so the HTTP/1.1 layer ([`http`]) and the JSON codec ([`json`])
//! are hand-rolled, and the worker pool ([`server`]) uses the vendored
//! `crossbeam` scoped threads and `parking_lot` mutex.
//!
//! ## Endpoints
//!
//! | Endpoint | Body | Answer |
//! |---|---|---|
//! | `GET /healthz` | — | liveness, uptime, request count, hosted-lake count |
//! | `GET /lakes` | — | the hosted lakes: name, origin, generation, default route |
//! | `GET /lake/stat` | `?lake=name` | table/row/index counts + latency histograms of one warm lake |
//! | `GET /metrics` | — | Prometheus text exposition (pipeline, store and HTTP metrics) |
//! | `POST /reclaim` | `{"source": {...}}` or `{"source_name": "t"}`, optional `"lake"`, `"overrides"` | metrics + reclaimed table + originating tables |
//! | `POST /admin/reload` | `{"lake": "n", "path": "new.gentlake"}` | atomic snapshot hot-swap; generation bump |
//! | `POST /admin/ingest` | `{"lake": "n", "tables": [{...}, …]}` | crash-safe delta append + hot-swap; generation bump |
//! | `POST /admin/compact` | `{"lake": "n"}` | fold the delta-frame log into a clean base |
//!
//! A daemon hosts one or many lakes ([`routing::Router`]): requests route
//! with a `"lake"` body field / `?lake=` query parameter and fall back to
//! the first (default) lake; many sources are many concurrent
//! `POST /reclaim`s (the measured-faster shape, see `docs/serving.md`).
//! `POST /admin/reload` swaps a slot's snapshot without dropping in-flight
//! requests (they finish on the buffer they started on). `POST
//! /admin/ingest` makes the lake *live*:
//! new tables append to the snapshot file as fsynced, commit-marked delta
//! frames (acknowledged writes survive any crash), become reclaimable via
//! the same off-lock load + pointer swap as a reload, and fold into a
//! clean base automatically once the frame log reaches
//! [`routing::COMPACT_FRAME_THRESHOLD`]. When the bounded worker queue is
//! full the accept loop sheds load with `429 Too Many Requests` +
//! `Retry-After` instead of stalling — see `docs/serving.md`.
//!
//! With `gent serve --degraded` ([`RouterBuilder::set_degraded`]) a
//! snapshot that fails some per-section checksums still boots: corrupt
//! tables are quarantined — lookups answer a structured `410 quarantined`,
//! the `gent_lake_quarantined_tables` gauge counts them — while every
//! healthy table keeps serving byte-identical answers.
//!
//! Errors are structured: every 4xx/5xx body is
//! `{"error": {"kind": "...", "message": "...", "trace_id": "..."}}`, and no
//! client input can kill the daemon (malformed HTTP, bad JSON, truncated
//! bodies and panicking handlers all map to error responses).
//!
//! ## Observability
//!
//! Every response carries an `X-Request-Id` header — propagated from the
//! client's header when it sent a well-formed one, generated otherwise —
//! and the same ID tags the daemon's structured JSON log line for the
//! request (enable with `GENT_LOG=info` or `gent serve --log-level info`).
//! Instruments live in a per-service `gent_obs::Registry` (per-endpoint
//! request/error counters, in-flight gauges, latency histograms,
//! connection/keep-alive/queue-depth stats) rendered by `GET /metrics`
//! together with the process-global registry (pipeline stage histograms,
//! store open metrics). See `docs/observability.md` for the full catalog.
//!
//! Connections close after one exchange by default; clients that send
//! `Connection: keep-alive` may reuse the socket for up to
//! [`server::MAX_REQUESTS_PER_CONNECTION`] requests, each under its own
//! read deadline — repeated reclaims stop paying per-request TCP setup
//! (`tests/serve_e2e.rs` drives one such persistent connection).
//!
//! ## The sharing contract
//!
//! The daemon's whole point is that concurrent requests share one lake
//! handle: [`service::LakeService`] owns the `DataLake` (and its
//! `FrozenIndex`) exactly once, the server wraps it in an
//! `Arc`, and request handlers *borrow* it — `GenT::reclaim` takes
//! `&DataLake`, so serving N concurrent requests re-derives and copies
//! nothing per request.
//!
//! # Examples
//!
//! Boot a daemon on an ephemeral port and query it:
//!
//! ```no_run
//! use gent_serve::{LakeService, ServeConfig, Server};
//! use gent_core::GenTConfig;
//! use gent_store::snapshot;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let loaded = snapshot::load("lake.gentlake".as_ref())?;
//! let service = LakeService::new(loaded, GenTConfig::default(), "lake.gentlake");
//! let server = Server::bind(&ServeConfig::default(), service)?;
//! println!("serving on http://{}", server.local_addr()?);
//! server.run()?; // blocks until ServerHandle::stop
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
pub mod routing;
pub mod server;
pub mod service;

pub use client::{ClientResponse, RetryClient, RetryPolicy};
pub use http::{DeadlineStream, HttpError, Request, Response};
pub use json::{Json, JsonError};
pub use routing::{Router, RouterBuilder};
pub use server::{ServeConfig, Server, ServerHandle};
pub use service::{table_from_json, table_to_json, ApiError, LakeService};
