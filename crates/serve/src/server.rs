//! The daemon: accept loop, per-request metrics, graceful shutdown and
//! the optional snapshot file watcher.

use crate::handlers::{self, ServerState};
use crate::http::{parse_request, Response};
use crate::pool::{BoundedPool, PoolMetrics};
use crate::store::{ServeSnapshot, SnapshotStore};
use parking_lot::Mutex;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};
use tpiin_core::MinerRegistry;
use tpiin_delta::DeltaEngine;
use tpiin_fusion::Tpiin;
use tpiin_model::SourceRegistry;

/// How the daemon listens and sheds load.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Connections allowed to wait for a worker before 503.
    pub queue_capacity: usize,
    /// Per-request deadline, enforced as socket read/write timeouts.
    pub request_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Snapshot file served on `/reload` (and watched when `watch`).
    pub snapshot_path: Option<PathBuf>,
    /// Poll `snapshot_path` for modification and hot-reload it.
    pub watch: bool,
    /// Write a final [`tpiin_obs::RunProfile`] here on shutdown.
    pub profile_out: Option<PathBuf>,
    /// Mint a [`tpiin_obs::TraceContext`] per request, echo its id in
    /// the `x-tpiin-trace` response header and keep the last
    /// `trace_ring` traces for `GET /trace/{id}`.  Off for overhead
    /// benchmarking.
    pub tracing: bool,
    /// How many recent request traces `GET /trace/{id}` can replay.
    pub trace_ring: usize,
    /// Miner specs to run on every full snapshot build (startup and
    /// reload), e.g. `["rules", "circular", "windowed:rules@0..100"]`.
    /// The first is the primary strategy served by default.  Empty means
    /// the built-in default set (`rules` + `circular`).
    pub miners: Vec<String>,
    /// Run the continuous telemetry recorder (timeline sampling + SLO
    /// evaluation once per [`ServeConfig::telemetry_tick`]).  Off for
    /// overhead benchmarking; `/timeline` and `/alerts` then 404.
    pub telemetry: bool,
    /// Wall-clock length of one recorder tick (default 1 s).
    pub telemetry_tick: Duration,
    /// Timeline retention tiers (default: 600 fine points, one coarse
    /// point per 15 ticks, 480 coarse points — 10 min + 2 h at a 1 s
    /// tick).
    pub timeline: tpiin_obs::TimelineConfig,
    /// SLO specs for the health engine; `None` means the built-in serve
    /// objectives ([`default_slos`]).
    pub slos: Option<Vec<tpiin_obs::SloSpec>>,
    /// Requests at or above this latency enter the slowlog ring.
    pub slowlog_threshold: Duration,
    /// Slow-request exemplars the slowlog ring retains.
    pub slowlog_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(2),
            max_body_bytes: 1 << 20,
            snapshot_path: None,
            watch: false,
            profile_out: None,
            tracing: true,
            trace_ring: 64,
            miners: Vec::new(),
            telemetry: true,
            telemetry_tick: Duration::from_secs(1),
            timeline: tpiin_obs::TimelineConfig::default(),
            slos: None,
            slowlog_threshold: Duration::from_millis(250),
            slowlog_capacity: 64,
        }
    }
}

/// The built-in serve objectives: per-endpoint p99 latency (reload
/// included), and the error and shed fractions.  A re-fuse is the delta
/// engine's ordinary path for every person registration, so its rate is
/// no objective; `serve.ingest.p99` bounds what it costs.  Windows
/// assume the default 1 s tick (short 60 ticks / long 300 ticks);
/// thresholds are deliberately loose — they are floors for "something
/// is clearly wrong", not tuning targets.
pub fn default_slos() -> Vec<tpiin_obs::SloSpec> {
    use tpiin_obs::SloSpec;
    vec![
        SloSpec::latency_p99("serve.groups.p99", "serve.latency.groups", 250e6),
        SloSpec::latency_p99(
            "serve.groups_behind_arc.p99",
            "serve.latency.groups_behind_arc",
            250e6,
        ),
        SloSpec::latency_p99("serve.company.p99", "serve.latency.company", 250e6),
        SloSpec::latency_p99("serve.healthz.p99", "serve.latency.healthz", 50e6),
        SloSpec::latency_p99("serve.ingest.p99", "serve.latency.ingest", 1e9),
        SloSpec::latency_p99("serve.reload.p99", "serve.latency.reload", 4e9),
        // 5xx responses against a 1% error budget.
        SloSpec::rate_ratio(
            "serve.error_rate",
            &["serve.responses.5xx"],
            &["serve.responses."],
            0.01,
        ),
        // Shed connections never reach the response counters, so the
        // denominator is answered + shed.
        SloSpec::rate_ratio(
            "serve.shed_rate",
            &["serve.shed"],
            &["serve.responses.", "serve.shed"],
            0.01,
        ),
    ]
}

/// Errors starting or feeding the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Could not bind the listen address.
    Bind {
        /// The requested address.
        addr: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// Could not read the snapshot file.
    File {
        /// The offending path.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The snapshot file did not parse.
    Snapshot(tpiin_io::IoError),
    /// A configured miner spec did not resolve.
    Miner(String),
    /// The source registry handed to [`ServerHandle::bind_with_registry`]
    /// did not fuse.
    Registry(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "binding {addr}: {source}"),
            ServeError::File { path, source } => {
                write!(f, "reading {}: {source}", path.display())
            }
            ServeError::Snapshot(err) => write!(f, "snapshot: {err}"),
            ServeError::Miner(reason) => write!(f, "miner config: {reason}"),
            ServeError::Registry(reason) => write!(f, "registry: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } | ServeError::File { source, .. } => Some(source),
            ServeError::Snapshot(err) => Some(err),
            ServeError::Miner(_) | ServeError::Registry(_) => None,
        }
    }
}

/// Loads and parses a TPIINBIN snapshot file (CLI and daemon startup).
pub fn load_snapshot_file(path: &std::path::Path) -> Result<Tpiin, ServeError> {
    let bytes = std::fs::read(path).map_err(|source| ServeError::File {
        path: path.to_path_buf(),
        source,
    })?;
    tpiin_io::snapshot_bin::read_snapshot_bin(&bytes).map_err(ServeError::Snapshot)
}

/// A running daemon; dropping it (or calling [`ServerHandle::shutdown`])
/// stops accepting, drains in-flight requests and joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
    recorder: Option<JoinHandle<()>>,
    profile_out: Option<PathBuf>,
}

impl ServerHandle {
    /// Builds the initial snapshot from `tpiin` (full detection), binds
    /// `config.addr` and starts serving.  The ingest writer runs in
    /// trading-append mode: registry mutations get 422 because no
    /// source registry backs the snapshot.
    pub fn bind(tpiin: Tpiin, config: ServeConfig) -> Result<ServerHandle, ServeError> {
        ServerHandle::bind_engine(DeltaEngine::from_tpiin(tpiin), config)
    }

    /// Fuses `registry`, binds `config.addr` and starts serving with a
    /// registry-backed delta engine: `POST /ingest` then accepts the
    /// full mutation vocabulary (companies, directors, investments,
    /// trading) and maintains the served TPIIN incrementally.
    pub fn bind_with_registry(
        registry: SourceRegistry,
        config: ServeConfig,
    ) -> Result<ServerHandle, ServeError> {
        let engine =
            DeltaEngine::new(registry).map_err(|err| ServeError::Registry(err.to_string()))?;
        ServerHandle::bind_engine(engine, config)
    }

    fn bind_engine(engine: DeltaEngine, config: ServeConfig) -> Result<ServerHandle, ServeError> {
        let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Bind {
            addr: config.addr.clone(),
            source,
        })?;
        let addr = listener.local_addr().map_err(|source| ServeError::Bind {
            addr: config.addr.clone(),
            source,
        })?;

        let miners = if config.miners.is_empty() {
            MinerRegistry::with_defaults()
        } else {
            MinerRegistry::from_specs(&config.miners).map_err(ServeError::Miner)?
        };
        let snapshot = ServeSnapshot::from_engine(1, &engine, &miners, None);
        let telemetry = config.telemetry.then(|| {
            Arc::new(handlers::Telemetry {
                timeline: tpiin_obs::Timeline::new(config.timeline.clone()),
                slo: tpiin_obs::SloEngine::new(config.slos.clone().unwrap_or_else(default_slos)),
                tick: config.telemetry_tick.max(Duration::from_millis(1)),
            })
        });
        let state = Arc::new(ServerState {
            store: SnapshotStore::new(snapshot),
            miners,
            writer: Mutex::new(engine),
            epoch: AtomicU64::new(1),
            snapshot_path: config.snapshot_path.clone(),
            shutting_down: AtomicBool::new(false),
            addr,
            tracing: config.tracing,
            trace_ring: config.trace_ring.max(1),
            traces: Mutex::new(std::collections::VecDeque::new()),
            started: Instant::now(),
            last_load_micros: AtomicU64::new(0),
            pool: Arc::new(PoolMetrics::default()),
            telemetry,
            slowlog: Mutex::new(std::collections::VecDeque::new()),
            slowlog_threshold: config.slowlog_threshold,
            slowlog_capacity: config.slowlog_capacity.max(1),
            cancel: handlers::Cancel::new(),
        });

        let accept = {
            let state = Arc::clone(&state);
            let config = config.clone();
            std::thread::Builder::new()
                .name("tpiin-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &state, &config))
                .expect("spawning accept thread")
        };
        // The flight recorder's OS-view sampler: refresh RSS/page-fault
        // and allocator gauges a few times a second so `/metrics` and
        // `/status` report a current process view, not a stale one.
        // Parks on the cancellation latch (not `thread::sleep`), so
        // `POST /shutdown` wakes and joins it without waiting out the
        // sampling interval.
        let sampler = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("tpiin-serve-sampler".to_string())
                .spawn(move || loop {
                    tpiin_obs::proc::record_gauges(tpiin_obs::global());
                    if state.cancel.wait_for(Duration::from_millis(250)) {
                        break;
                    }
                })
                .expect("spawning sampler thread")
        };
        // The telemetry recorder: once per tick, snapshot every
        // registered metric into the timeline and run the SLO machines.
        // Ticks are derived from uptime, so a stalled recorder skips
        // ticks instead of drifting the timeline's clock.
        let recorder = state.telemetry.as_ref().map(|telemetry| {
            let telemetry = Arc::clone(telemetry);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("tpiin-serve-telemetry".to_string())
                .spawn(move || {
                    let tick_len = telemetry.tick;
                    loop {
                        if state.cancel.wait_for(tick_len) {
                            break;
                        }
                        let tick = (state.started.elapsed().as_nanos() / tick_len.as_nanos()).max(1)
                            as u64;
                        telemetry.timeline.sample(tick, tpiin_obs::global());
                        telemetry.slo.evaluate(tick, &telemetry.timeline);
                    }
                })
                .expect("spawning telemetry recorder thread")
        });
        let watcher = if config.watch && config.snapshot_path.is_some() {
            let state = Arc::clone(&state);
            Some(
                std::thread::Builder::new()
                    .name("tpiin-serve-watch".to_string())
                    .spawn(move || watch_loop(&state))
                    .expect("spawning watcher thread"),
            )
        } else {
            None
        };

        tpiin_obs::info!(
            "serving on http://{addr} ({} workers, queue {})",
            config.workers.max(1),
            config.queue_capacity.max(1)
        );
        Ok(ServerHandle {
            addr,
            state,
            accept: Some(accept),
            watcher: Some(watcher).flatten(),
            sampler: Some(sampler),
            recorder,
            profile_out: config.profile_out,
        })
    }

    /// The bound address (with the actual port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown was requested (e.g. via `POST /shutdown`).
    pub fn is_shutting_down(&self) -> bool {
        self.state.is_shutting_down()
    }

    /// Blocks until a `POST /shutdown` (or Drop from another path) stops
    /// the daemon — the CLI foreground mode.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shutdown_impl();
    }

    /// Stops accepting, drains in-flight requests, joins all threads and
    /// flushes the final run profile.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        // Latches the flag, wakes the sampler/recorder waits, and
        // connects once to unblock `listener.incoming()` so the accept
        // loop observes the latch even with no traffic.
        self.state.request_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(watcher) = self.watcher.take() {
            let _ = watcher.join();
        }
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
        if let Some(recorder) = self.recorder.take() {
            let _ = recorder.join();
        }
        if let Some(path) = self.profile_out.take() {
            // One final sample so the flushed profile carries the
            // process's closing resource state.
            tpiin_obs::proc::record_gauges(tpiin_obs::global());
            let profile = tpiin_obs::RunProfile::capture();
            let _ = std::fs::write(&path, profile.to_json().to_pretty());
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>, config: &ServeConfig) {
    let pool = BoundedPool::with_metrics(
        config.workers,
        config.queue_capacity,
        Arc::clone(&state.pool),
    );
    for stream in listener.incoming() {
        if state.is_shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(config.request_timeout));
        let _ = stream.set_write_timeout(Some(config.request_timeout));
        // A second handle to the socket: if the pool refuses the job the
        // connection must still get its 503.
        let shed_handle = stream.try_clone();
        let job_state = Arc::clone(state);
        let max_body = config.max_body_bytes;
        let accepted = pool.try_execute(move || handle_connection(&job_state, stream, max_body));
        if accepted.is_err() {
            tpiin_obs::global().counter("serve.shed").inc();
            if let Ok(mut stream) = shed_handle {
                let _ = Response::error(503, "server saturated, retry later")
                    .with_header("Retry-After", retry_after_secs(&state.pool).to_string())
                    .write_to(&mut stream);
            }
        }
    }
    // Stop accepting first, then drain: every accepted connection gets
    // its response before the workers exit.
    pool.shutdown();
}

/// How long a shed client should back off, derived from how deep the
/// queue is relative to the worker pool: a full queue on a 4-worker
/// pool suggests waiting several service rounds, an empty one means
/// "a beat".  Clamped to [1, 30] so the header is always honest but
/// never tells a client to go away for minutes.
fn retry_after_secs(pool: &PoolMetrics) -> u64 {
    let queued = pool.queued.load(Ordering::Relaxed) as u64;
    let workers = pool.workers.load(Ordering::Relaxed).max(1) as u64;
    (1 + queued / workers).clamp(1, 30)
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream, max_body_bytes: usize) {
    let started = Instant::now();
    // Thread-local allocator window: the delta at the end attributes
    // the request's allocations to its slowlog exemplar, if it becomes
    // one.
    let alloc_start = tpiin_obs::alloc::checkpoint();
    // Per-request trace: installed for this thread only, so concurrent
    // requests each collect their own spans; the id goes back to the
    // client in `x-tpiin-trace` and the context into the replay ring.
    let trace = state
        .tracing
        .then(|| Arc::new(tpiin_obs::TraceContext::new()));
    let trace_guard = trace
        .as_ref()
        .map(|t| tpiin_obs::install_thread_trace(Arc::clone(t)));
    let parsed = {
        let mut reader = BufReader::new(&stream);
        parse_request(&mut reader, max_body_bytes)
    };
    let (endpoint, mut response) = match parsed {
        Ok(request) => handlers::route(state, &request),
        Err(err) => ("malformed", Response::error(err.status(), err.reason())),
    };
    let trace_id = trace.as_ref().map(|t| t.id().to_string());
    if let Some(trace) = &trace {
        trace.record_span(&format!("serve/{endpoint}"), started, started.elapsed());
        response = response.with_header("x-tpiin-trace", trace.id().to_string());
    }
    let _ = response.write_to(&mut stream);
    drop(trace_guard);
    if let Some(trace) = trace {
        state.remember_trace(trace);
    }

    let elapsed = started.elapsed();
    let alloc_used = tpiin_obs::alloc::consume(alloc_start);
    if elapsed >= state.slowlog_threshold {
        // A latency outlier: capture the exemplar with its trace id so
        // `/slowlog` links straight to `/trace/{id}`.
        state.remember_slow(handlers::SlowEntry {
            at_secs: state.started.elapsed().as_secs_f64(),
            endpoint,
            status: response.status,
            epoch: state.epoch.load(Ordering::Relaxed),
            latency_us: elapsed.as_micros().min(u64::MAX as u128) as u64,
            trace: trace_id,
            alloc_bytes: alloc_used.alloc_bytes,
            allocs: alloc_used.allocs,
        });
    }

    let registry = tpiin_obs::global();
    registry
        .counter(&format!("serve.requests.{endpoint}"))
        .inc();
    registry
        .counter(&format!("serve.responses.{}xx", response.status / 100))
        .inc();
    registry
        .histogram(&format!("serve.latency.{endpoint}"))
        .record(elapsed);
}

/// Polls the snapshot file's mtime and hot-reloads on change.
fn watch_loop(state: &Arc<ServerState>) {
    let Some(path) = state.snapshot_path.clone() else {
        return;
    };
    let mtime = |p: &std::path::Path| -> Option<SystemTime> {
        std::fs::metadata(p).and_then(|m| m.modified()).ok()
    };
    let mut last = mtime(&path);
    while !state.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(200));
        let now = mtime(&path);
        if now.is_some() && now != last {
            last = now;
            match handlers::reload(state) {
                Ok(epoch) => tpiin_obs::info!("watch: reloaded snapshot, epoch {epoch}"),
                Err((_, reason)) => tpiin_obs::warn!("watch: reload failed: {reason}"),
            }
        }
    }
}
