//! # tpiin-serve — the always-on query/ingest daemon
//!
//! The paper describes an offline pipeline feeding an online audit
//! workflow: inspectors at the Servyou platform pull up a suspicious
//! trading relationship and need the interest chains *behind* it
//! (Section 6), while the national feed keeps delivering trading
//! records at a daily peak of ten million.  This crate turns the batch
//! pipeline into that long-lived service:
//!
//! * **Hand-rolled HTTP/1.1** ([`http`]) over `std::net` — no external
//!   dependencies, one request per connection, hard limits everywhere,
//!   and a parser that returns errors instead of panicking on
//!   arbitrary bytes.
//! * **A bounded worker pool** ([`pool`]) with explicit load shedding:
//!   when the queue is full the daemon answers 503 immediately rather
//!   than buffering without bound.
//! * **Snapshot hot swap** ([`store`]): every request clones an
//!   `Arc<ServeSnapshot>` (network + per-miner detections + label
//!   index) and runs lock-free on that epoch; `/reload`, a snapshot-file watcher
//!   and `POST /ingest` build the next epoch off to the side and swap
//!   it in atomically.  In-flight requests finish on the epoch they
//!   started on.
//! * **Delta ingest**: `POST /ingest` feeds mutation batches (trading
//!   records or full registry mutations) through a
//!   [`tpiin_delta::DeltaEngine`] and answers with only the *new*
//!   suspicious groups — trading arcs and company registrations are
//!   patched surgically, every other registry delta re-fuses, and
//!   either way only the changed subTPIINs re-mine: the rest replay
//!   from the engine's shard cache.
//! * **Per-request tracing**: every request gets its own
//!   [`tpiin_obs::TraceContext`]; the trace id comes back in the
//!   `x-tpiin-trace` response header and `GET /trace/{id}` replays the
//!   request's spans as Chrome `trace_event` JSON (a ring keeps the
//!   last [`ServeConfig::trace_ring`] traces).
//! * **Group provenance**: `GET /groups/{id}/provenance` serves the
//!   full evidence chain behind one mined group — matched rule, arc
//!   lineage with winning source records, contraction lineage, score
//!   breakdown — assembled per request from `(tpiin, group)` through
//!   the owning miner's hook; no epoch stores chains.
//! * **Miner strategies**: bind and reload run the
//!   [`tpiin_core::GroupMiner`] set from [`ServeConfig::miners`]
//!   (default: the Rule 1/Rule 2 detector plus the circular-trading
//!   miner), except that `rules` is mined once, by the delta engine,
//!   and served from there; `?miner=NAME` on `/groups` and
//!   `/groups/{id}/provenance` selects which strategy's detection a
//!   request reads.
//!
//! ## Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness + current epoch and headline counts |
//! | `GET /metrics` | Prometheus text exposition of the tpiin-obs registry |
//! | `GET /status` | one-call operator snapshot: epoch, pool occupancy, delta counters, alert summary |
//! | `GET /timeline` | continuous telemetry: series index, or `?metric=..&since=..` points |
//! | `GET /timeline/export` | the whole timeline store as JSONL for offline analysis |
//! | `GET /alerts` | every SLO state machine's standing (ok/warn/page, burn rates) |
//! | `GET /slowlog` | slow-request exemplars, each linking to its `/trace/{id}` |
//! | `GET /groups` | one miner's detection (`?miner=NAME&limit=N&offset=N`; unknown params are a 400) |
//! | `GET /groups/{id}/provenance` | the evidence chain behind group `id` (`?miner=NAME`) |
//! | `GET /groups_behind_arc?src=..&dst=..` | Section 6: groups hiding behind one trading arc; `arc_exists` says whether that *trading* arc exists |
//! | `GET /trace/{id}` | Chrome trace JSON of a recent request (`x-tpiin-trace`) |
//! | `GET /company/{label}` | one node's profile and its groups |
//! | `POST /ingest` | `{"records": [{"seller": n, "buyer": n, "volume": x}]}` |
//! | `POST /reload` | re-read the snapshot file and hot-swap |
//! | `POST /shutdown` | graceful stop: drain, then exit |
//!
//! ```no_run
//! let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
//! let handle = tpiin_serve::ServerHandle::bind(tpiin, tpiin_serve::ServeConfig::default())
//!     .expect("bind");
//! println!("serving on {}", handle.addr());
//! handle.shutdown(); // stop accepting, drain, join
//! ```

pub mod handlers;
pub mod http;
pub mod pool;
pub mod responses;
pub mod server;
pub mod store;

pub use handlers::SlowEntry;
pub use http::{Request, Response};
pub use pool::{BoundedPool, Saturated};
pub use server::{default_slos, load_snapshot_file, ServeConfig, ServeError, ServerHandle};
pub use store::{ServeSnapshot, SnapshotStore};
