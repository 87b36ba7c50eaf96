//! Request routing and endpoint handlers.
//!
//! Read endpoints (`/healthz`, `/metrics`, `/groups`,
//! `/groups_behind_arc`, `/company/{id}`) clone the current snapshot
//! `Arc` and run lock-free on that epoch.  Write endpoints (`/ingest`,
//! `/reload`) serialize on the single writer lock, build the next
//! [`ServeSnapshot`] off to the side and swap it in atomically — the
//! readers that started on the old epoch finish on it.

use crate::http::{Request, Response};
use crate::pool::PoolMetrics;
use crate::responses;
use crate::store::{ServeSnapshot, SnapshotStore};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpiin_core::{groups_behind_arc, MinerRegistry};
use tpiin_delta::{DeltaEngine, DeltaError};
use tpiin_io::json::Json;
use tpiin_model::{CompanyId, MutationBatch, TradingRecord};
use tpiin_obs::{SloEngine, Span, Timeline, TraceContext, TraceId};

/// A joinable cancellation latch for the daemon's background threads
/// (the `/proc` sampler and the telemetry recorder).  Threads park in
/// [`Cancel::wait_for`] instead of `thread::sleep`, so `POST /shutdown`
/// wakes them immediately and the join in `shutdown_impl` never waits
/// out a sleep interval.
pub(crate) struct Cancel {
    cancelled: std::sync::Mutex<bool>,
    wake: std::sync::Condvar,
}

impl Cancel {
    pub(crate) fn new() -> Cancel {
        Cancel {
            cancelled: std::sync::Mutex::new(false),
            wake: std::sync::Condvar::new(),
        }
    }

    /// Latches cancellation and wakes every parked waiter.
    pub(crate) fn cancel(&self) {
        *self.cancelled.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.wake.notify_all();
    }

    /// Parks for up to `timeout`; returns `true` once cancelled
    /// (immediately if cancellation already latched).
    pub(crate) fn wait_for(&self, timeout: Duration) -> bool {
        let cancelled = self.cancelled.lock().unwrap_or_else(|e| e.into_inner());
        if *cancelled {
            return true;
        }
        let (cancelled, _) = self
            .wake
            .wait_timeout(cancelled, timeout)
            .unwrap_or_else(|e| e.into_inner());
        *cancelled
    }
}

/// The continuous-telemetry half of the daemon: the timeline store and
/// the SLO health engine, fed once per tick by the recorder thread.
pub(crate) struct Telemetry {
    pub(crate) timeline: Timeline,
    pub(crate) slo: SloEngine,
    /// Wall-clock length of one recorder tick.
    pub(crate) tick: Duration,
}

/// One slow-request exemplar: everything needed to chase a latency
/// outlier to its trace without grepping logs.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// Daemon uptime (seconds) when the request finished.
    pub at_secs: f64,
    /// Endpoint slug (as used in `serve.latency.*`).
    pub endpoint: &'static str,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// Epoch being served when the request finished.
    pub epoch: u64,
    /// Wall-clock latency in microseconds.
    pub latency_us: u64,
    /// The request's trace id, when tracing was on — resolvable at
    /// `/trace/{id}` while the trace ring still holds it.
    pub trace: Option<String>,
    /// Bytes allocated on the handling thread during the request.
    pub alloc_bytes: u64,
    /// Allocation calls on the handling thread during the request.
    pub allocs: u64,
}

/// Everything the handlers share: the hot-swap store, the single-writer
/// ingest state, the shutdown latch and the recent-trace ring.
pub struct ServerState {
    pub(crate) store: SnapshotStore,
    pub(crate) miners: MinerRegistry,
    pub(crate) writer: Mutex<DeltaEngine>,
    pub(crate) epoch: AtomicU64,
    pub(crate) snapshot_path: Option<PathBuf>,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) addr: SocketAddr,
    pub(crate) tracing: bool,
    pub(crate) trace_ring: usize,
    pub(crate) traces: Mutex<VecDeque<Arc<TraceContext>>>,
    /// When the daemon started, for `/status` uptime.
    pub(crate) started: Instant,
    /// Microseconds the last `/reload` (endpoint or watcher) spent
    /// reading + parsing the snapshot file; `/status` reports it as
    /// `snapshot_load_ms` (0 until the first reload).
    pub(crate) last_load_micros: AtomicU64,
    /// Worker-pool occupancy, shared with the accept loop's pool.
    pub(crate) pool: Arc<PoolMetrics>,
    /// Timeline + SLO engine; `None` when telemetry is configured off
    /// (overhead benchmarking), in which case `/timeline`, `/alerts`
    /// and `/slowlog`'s alert summary answer 404 / `off`.
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    /// The slow-request exemplar ring, newest at the back.
    pub(crate) slowlog: Mutex<VecDeque<SlowEntry>>,
    /// Requests at or above this latency enter the slowlog.
    pub(crate) slowlog_threshold: Duration,
    /// Entries the slowlog ring retains.
    pub(crate) slowlog_capacity: usize,
    /// Wakes the sampler + recorder threads for a prompt join.
    pub(crate) cancel: Cancel,
}

impl ServerState {
    /// Whether shutdown has been requested (by handle or `/shutdown`).
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// The next epoch number (monotone across ingest and reload).
    fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Pushes a finished request trace into the replay ring, evicting
    /// the oldest once `trace_ring` traces are held.
    pub(crate) fn remember_trace(&self, trace: Arc<TraceContext>) {
        let mut ring = self.traces.lock();
        while ring.len() >= self.trace_ring {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Looks a recent request trace up by id (`GET /trace/{id}`).
    pub(crate) fn find_trace(&self, id: TraceId) -> Option<Arc<TraceContext>> {
        self.traces.lock().iter().find(|t| t.id() == id).cloned()
    }

    /// Latches the shutdown flag, wakes the background threads and
    /// pokes the accept loop so everything exits without more traffic.
    pub(crate) fn request_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        self.cancel.cancel();
        let _ = std::net::TcpStream::connect(self.addr);
    }

    /// Pushes a slow-request exemplar, evicting the oldest at capacity.
    pub(crate) fn remember_slow(&self, entry: SlowEntry) {
        let mut ring = self.slowlog.lock();
        while ring.len() >= self.slowlog_capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(entry);
    }
}

/// Dispatches one parsed request; returns the endpoint slug used for
/// metrics plus the response.
pub fn route(state: &ServerState, req: &Request) -> (&'static str, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("healthz", health(state)),
        ("GET", "/metrics") => ("metrics", metrics()),
        ("GET", "/status") => ("status", status(state)),
        ("GET", "/timeline") => ("timeline", timeline(state, req)),
        ("GET", "/timeline/export") => ("timeline_export", timeline_export(state)),
        ("GET", "/alerts") => ("alerts", alerts(state)),
        ("GET", "/slowlog") => ("slowlog", slowlog(state)),
        ("GET", "/groups") => ("groups", groups(state, req)),
        ("GET", "/groups_behind_arc") => ("groups_behind_arc", arc_query(state, req)),
        ("GET", path) if path.starts_with("/groups/") && path.ends_with("/provenance") => {
            ("provenance", provenance(state, req))
        }
        ("GET", path) if path.starts_with("/trace/") => ("trace", trace_lookup(state, req)),
        ("GET", path) if path.starts_with("/company/") => ("company", company(state, req)),
        ("POST", "/ingest") => ("ingest", ingest(state, req)),
        ("POST", "/reload") => ("reload", reload_endpoint(state)),
        ("POST", "/shutdown") => ("shutdown", shutdown(state)),
        ("GET" | "POST", _) => ("not_found", Response::error(404, "no such endpoint")),
        _ => ("bad_method", Response::error(405, "method not allowed")),
    }
}

fn health(state: &ServerState) -> Response {
    let snap = state.store.current();
    Response::json(200, &responses::health_json(&snap))
}

fn metrics() -> Response {
    Response::text(200, tpiin_obs::text_exposition(tpiin_obs::global()))
}

/// `GET /timeline[?metric=NAME&since=TICK]` — without `metric`, the
/// queryable series index; with it, that series' points from `since`
/// (tick 0 by default) to now, coarse tier seamlessly backing the fine
/// tier.  Unknown query parameters are a 400, like `/groups`.
fn timeline(state: &ServerState, req: &Request) -> Response {
    let Some(telemetry) = &state.telemetry else {
        return Response::error(404, "telemetry recorder is disabled");
    };
    let mut metric = None;
    let mut since = 0u64;
    for (key, value) in &req.query {
        match key.as_str() {
            "metric" => metric = Some(value.clone()),
            "since" => match value.parse::<u64>() {
                Ok(tick) => since = tick,
                Err(_) => return Response::error(400, format!("bad since `{value}`")),
            },
            other => {
                return Response::error(400, format!("unknown query parameter `{other}`"));
            }
        }
    }
    let timeline = &telemetry.timeline;
    match metric {
        None => Response::json(
            200,
            &responses::timeline_index_json(
                &timeline.metric_names(),
                timeline.last_tick(),
                timeline.config(),
            ),
        ),
        Some(metric) => {
            if !timeline.has_metric(&metric) {
                return Response::error(404, format!("no timeline series `{metric}`"));
            }
            let points = timeline.query(&metric, since);
            Response::json(200, &responses::timeline_json(&metric, since, &points))
        }
    }
}

/// `GET /timeline/export` — the whole store as JSONL, one compact JSON
/// object per line, for offline analysis (CI archives this artifact).
fn timeline_export(state: &ServerState) -> Response {
    let Some(telemetry) = &state.telemetry else {
        return Response::error(404, "telemetry recorder is disabled");
    };
    Response::text(200, telemetry.timeline.to_jsonl())
}

/// `GET /alerts` — every SLO state machine's standing as of the last
/// recorder tick.
fn alerts(state: &ServerState) -> Response {
    let Some(telemetry) = &state.telemetry else {
        return Response::error(404, "telemetry recorder is disabled");
    };
    Response::json(
        200,
        &responses::alerts_json(
            &telemetry.slo.statuses(),
            telemetry.slo.worst(),
            telemetry.timeline.last_tick(),
        ),
    )
}

/// `GET /slowlog` — the slow-request exemplar ring, oldest first, each
/// entry linking to its `/trace/{id}` replay.
fn slowlog(state: &ServerState) -> Response {
    let entries: Vec<SlowEntry> = state.slowlog.lock().iter().cloned().collect();
    Response::json(
        200,
        &responses::slowlog_json(
            state.slowlog_threshold.as_secs_f64() * 1e3,
            state.slowlog_capacity,
            &entries,
        ),
    )
}

/// `GET /status` — one JSON view of the daemon's runtime health: the
/// served epoch and its approximate heap size, uptime, worker-pool
/// occupancy, shed/reload counters and the process resource state
/// (allocator ledger + RSS/page faults when available).  Distinct from
/// the Prometheus text of `/metrics`: this is the operator's one-call
/// snapshot, not a scrape target.
fn status(state: &ServerState) -> Response {
    let snap = state.store.current();
    let registry = tpiin_obs::global();
    // Summarize the SLO machines so one `/status` call answers "is the
    // daemon healthy" without also fetching `/alerts`.
    let (health, alerts_ok, alerts_warn, alerts_page) = match &state.telemetry {
        Some(telemetry) => {
            let statuses = telemetry.slo.statuses();
            let count =
                |state: tpiin_obs::AlertState| statuses.iter().filter(|s| s.state == state).count();
            (
                telemetry.slo.worst().as_str().to_string(),
                count(tpiin_obs::AlertState::Ok),
                count(tpiin_obs::AlertState::Warn),
                count(tpiin_obs::AlertState::Page),
            )
        }
        None => ("off".to_string(), 0, 0, 0),
    };
    let report = responses::StatusReport {
        health,
        alerts_ok,
        alerts_warn,
        alerts_page,
        uptime_secs: state.started.elapsed().as_secs_f64(),
        workers: state.pool.workers.load(Ordering::Relaxed),
        busy_workers: state.pool.busy.load(Ordering::Relaxed),
        queued_requests: state.pool.queued.load(Ordering::Relaxed),
        queue_capacity: state.pool.capacity.load(Ordering::Relaxed),
        shed_requests: registry.counter("serve.shed").get(),
        reloads: registry.counter("serve.reloads").get(),
        snapshot_load_ms: state.last_load_micros.load(Ordering::Relaxed) as f64 / 1_000.0,
        // The delta engine publishes its counters as gauges after every
        // applied batch, so `/status` reads them lock-free instead of
        // contending on the writer mutex mid-ingest.
        batches_applied: registry.gauge("delta.batches").get() as u64,
        arcs_patched: registry.gauge("delta.arcs_patched").get() as u64,
        company_appends: registry.gauge("delta.company_appends").get() as u64,
        full_rebuilds: registry.gauge("delta.full_rebuilds").get() as u64,
        shards_remined: registry.gauge("delta.shards_remined").get() as u64,
        shard_cache_hits: registry.gauge("delta.cache_hits").get() as u64,
        alloc: tpiin_obs::alloc::stats(),
        proc: tpiin_obs::proc::sample(),
    };
    Response::json(200, &responses::status_json(&snap, &report))
}

/// `GET /groups[?miner=NAME&limit=N&offset=N]` — one miner's detection
/// (the primary by default), paginated.  Unknown query parameters are a
/// 400, not silently ignored: a typo like `?mnier=circular` must not
/// quietly serve the full primary listing.
fn groups(state: &ServerState, req: &Request) -> Response {
    let mut limit = None;
    let mut offset = 0;
    let mut miner = None;
    for (key, value) in &req.query {
        match key.as_str() {
            "limit" => match value.parse::<usize>() {
                Ok(n) => limit = Some(n),
                Err(_) => return Response::error(400, format!("bad limit `{value}`")),
            },
            "offset" => match value.parse::<usize>() {
                Ok(n) => offset = n,
                Err(_) => return Response::error(400, format!("bad offset `{value}`")),
            },
            "miner" => miner = Some(value.clone()),
            other => {
                return Response::error(400, format!("unknown query parameter `{other}`"));
            }
        }
    }
    let snap = state.store.current();
    let miner = miner.unwrap_or_else(|| snap.primary_miner().to_string());
    let Some(detection) = snap.detection_for(&miner) else {
        return Response::error(
            404,
            format!(
                "no miner `{miner}` (serving: {})",
                snap.miner_names().join(", ")
            ),
        );
    };
    Response::json(
        200,
        &responses::groups_json(&snap, &miner, detection, limit, offset),
    )
}

fn arc_query(state: &ServerState, req: &Request) -> Response {
    let (Some(src), Some(dst)) = (req.query_param("src"), req.query_param("dst")) else {
        return Response::error(400, "src and dst query parameters are required");
    };
    let snap = state.store.current();
    let Some(src_node) = snap.resolve_node(src) else {
        return Response::error(404, format!("unknown node `{src}`"));
    };
    let Some(dst_node) = snap.resolve_node(dst) else {
        return Response::error(404, format!("unknown node `{dst}`"));
    };
    let groups = groups_behind_arc(&snap.tpiin, src_node, dst_node);
    Response::json(
        200,
        &responses::arc_query_json(&snap.tpiin, snap.epoch, src_node, dst_node, &groups),
    )
}

/// `GET /groups/{id}/provenance[?miner=NAME]` — the full evidence chain
/// behind one mined group, by its index in that miner's `/groups` order
/// (the primary miner by default).
fn provenance(state: &ServerState, req: &Request) -> Response {
    let inner = &req.path["/groups/".len()..req.path.len() - "/provenance".len()];
    let inner = inner.trim_end_matches('/');
    let Ok(index) = inner.parse::<usize>() else {
        return Response::error(400, format!("bad group id `{inner}`"));
    };
    let mut miner = None;
    for (key, value) in &req.query {
        match key.as_str() {
            "miner" => miner = Some(value.clone()),
            other => {
                return Response::error(400, format!("unknown query parameter `{other}`"));
            }
        }
    }
    let snap = state.store.current();
    let miner = miner.unwrap_or_else(|| snap.primary_miner().to_string());
    let Some(detection) = snap.detection_for(&miner) else {
        return Response::error(
            404,
            format!(
                "no miner `{miner}` (serving: {})",
                snap.miner_names().join(", ")
            ),
        );
    };
    if index >= detection.groups.len() {
        return Response::error(
            404,
            format!(
                "no group {index} for miner `{miner}` (epoch {} has {})",
                snap.epoch,
                detection.groups.len()
            ),
        );
    }
    let group = detection.groups.row(index);
    let Some(prov) = state
        .miners
        .get(&miner)
        .and_then(|m| m.provenance(&snap.tpiin, group))
    else {
        return Response::error(
            422,
            format!(
                "miner `{miner}` has no provenance hook; its groups carry no \
                 evidence chain (use /groups?miner={miner} for the group itself)"
            ),
        );
    };
    Response::json(
        200,
        &responses::provenance_json(&snap, &miner, group, index, &prov),
    )
}

/// `GET /trace/{id}` — replays a recent request's trace as Chrome
/// `trace_event` JSON (Perfetto-loadable).
fn trace_lookup(state: &ServerState, req: &Request) -> Response {
    let text = req.path.trim_start_matches("/trace/");
    let Some(id) = TraceId::parse(text) else {
        return Response::error(400, format!("bad trace id `{text}` (want 32 hex digits)"));
    };
    let Some(trace) = state.find_trace(id) else {
        return Response::error(
            404,
            format!(
                "trace {id} not held (ring keeps the last {})",
                state.trace_ring
            ),
        );
    };
    Response::json_text(200, trace.to_chrome_json().to_pretty())
}

fn company(state: &ServerState, req: &Request) -> Response {
    let id = req.path.trim_start_matches("/company/");
    if id.is_empty() {
        return Response::error(400, "missing company id");
    }
    let snap = state.store.current();
    let Some(node) = snap.resolve_node(id) else {
        return Response::error(404, format!("unknown node `{id}`"));
    };
    Response::json(200, &responses::company_json(&snap, node))
}

/// Decodes `{"records": [{"seller": n, "buyer": n, "volume": x}, ...]}`.
fn parse_records(json: &Json) -> Result<Vec<TradingRecord>, String> {
    let Some(Json::Array(items)) = json.get("records") else {
        return Err("body must be {\"records\": [...]}".to_string());
    };
    let mut records = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field = |key: &str| {
            item.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("record {i}: missing numeric `{key}`"))
        };
        let seller = field("seller")?;
        let buyer = field("buyer")?;
        let volume = item.get("volume").and_then(Json::as_f64).unwrap_or(1.0);
        if seller < 0.0 || seller.fract() != 0.0 || buyer < 0.0 || buyer.fract() != 0.0 {
            return Err(format!(
                "record {i}: seller/buyer must be non-negative integers"
            ));
        }
        records.push(TradingRecord {
            seller: CompanyId(seller as u32),
            buyer: CompanyId(buyer as u32),
            volume,
        });
    }
    Ok(records)
}

/// Decodes an ingest body into a mutation batch.  Two shapes are
/// accepted: the original trading-only `{"records": [...]}` and the
/// full registry-mutation `{"mutations": [...]}` feed format of
/// [`tpiin_io::mutation_feed`].
fn parse_batch(json: &Json) -> Result<MutationBatch, String> {
    if json.get("mutations").is_some() {
        return tpiin_io::mutation_feed::batch_from_json(json, "ingest", 1)
            .map_err(|err| err.to_string());
    }
    Ok(MutationBatch::trading(parse_records(json)?))
}

fn ingest(state: &ServerState, req: &Request) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let json = match Json::parse(text) {
        Ok(json) => json,
        Err(err) => return Response::error(400, format!("bad JSON: {err}")),
    };
    let batch = match parse_batch(&json) {
        Ok(batch) => batch,
        Err(err) => return Response::error(400, err),
    };

    // Single-writer section: apply the delta, then swap the next epoch
    // in while still holding the writer lock so concurrent `/reload`
    // serializes.  Readers keep serving the previous epoch throughout.
    let mut writer = state.writer.lock();
    let span = Span::at("serve.ingest.delta");
    let outcome = match writer.apply(&batch) {
        Ok(outcome) => outcome,
        // A rejected batch leaves the engine (and the served epoch)
        // untouched; atomicity is the engine's contract.
        Err(err @ DeltaError::RegistryRequired) => return Response::error(422, err.to_string()),
        Err(err) => return Response::error(400, err.to_string()),
    };
    let stats = writer.stats();
    let prev = state.store.current();
    let epoch = state.next_epoch();
    let prev = Some((&*prev, outcome.path));
    let snapshot = ServeSnapshot::from_engine(epoch, &writer, &state.miners, prev);
    let body = responses::ingest_json(&snapshot.tpiin, epoch, &outcome, &stats);
    state.store.swap(snapshot);
    drop(span);
    drop(writer);
    Response::json(200, &body)
}

/// Reloads the snapshot file and swaps the result in; used by both the
/// `/reload` endpoint and the file watcher.
pub fn reload(state: &ServerState) -> Result<u64, (u16, String)> {
    let Some(path) = state.snapshot_path.as_ref() else {
        return Err((400, "no snapshot path configured".to_string()));
    };
    let span = Span::at("serve.reload");
    let load_started = Instant::now();
    // Bytes, not a string: the file may be the binary zero-copy format,
    // which `read_snapshot_bytes` auto-detects by its magic prefix.
    let bytes =
        std::fs::read(path).map_err(|err| (500, format!("reading {}: {err}", path.display())))?;
    let tpiin = tpiin_io::snapshot::read_snapshot_bytes(&bytes)
        .map_err(|err| (400, format!("parsing {}: {err}", path.display())))?;
    let load_micros = load_started.elapsed().as_micros() as u64;

    let mut writer = state.writer.lock();
    let epoch = state.next_epoch();
    // A snapshot file carries no source registry, so the reloaded
    // engine serves trading-append deltas only (registry mutations get
    // 422 until the daemon is restarted with a registry).
    *writer = DeltaEngine::from_tpiin(tpiin);
    let snapshot = ServeSnapshot::from_engine(epoch, &writer, &state.miners, None);
    state.store.swap(snapshot);
    drop(writer);
    state.last_load_micros.store(load_micros, Ordering::Relaxed);
    drop(span);
    // The sliding 60s latency windows measured the old epoch; clear
    // them so the twin `_window` series restarts cleanly instead of
    // blending two snapshots' latencies mid-window.
    tpiin_obs::global().reset_histogram_windows("serve.latency.");
    tpiin_obs::global().counter("serve.reloads").inc();
    Ok(epoch)
}

fn reload_endpoint(state: &ServerState) -> Response {
    match reload(state) {
        Ok(epoch) => Response::json(
            200,
            &Json::Object(vec![
                ("reloaded".to_string(), Json::Bool(true)),
                ("epoch".to_string(), Json::int(epoch as usize)),
            ]),
        ),
        Err((status, reason)) => Response::error(status, reason),
    }
}

fn shutdown(state: &ServerState) -> Response {
    // Latch, wake the sampler/recorder out of their waits, and poke the
    // accept loop so it notices without another client connecting.
    state.request_shutdown();
    Response::json(
        200,
        &Json::Object(vec![("shutting_down".to_string(), Json::Bool(true))]),
    )
}
