//! Machine-readable benchmark records (`BENCH_*.json`).
//!
//! CI tracks the headline detection benchmark over time; the record is
//! exported through `tpiin-obs`'s JSON writer so the schema matches the
//! profile files the CLI emits.

use std::path::Path;
use tpiin_obs::Json;

/// Version of the unified `BENCH_*.json` envelope.  Bump when the
/// shared fields change shape; `bench_check` refuses to compare
/// records across versions.
pub const SCHEMA_VERSION: u64 = 2;

/// Run metadata shared by every bench bin: which benchmark ran, on
/// which datasets, across which arms, on how parallel a host — plus
/// the `aborted` marker set when a run died partway and wrote only
/// what had completed.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchMeta {
    /// Benchmark family (`detect`, `fuse`, `serve`, `loadgen`).
    pub bench: String,
    /// Dataset labels the run covered (`fig7`, `province-0.5`, ...).
    pub datasets: Vec<String>,
    /// Arm labels the run compared (`csr_serial`, `parallel`, ...).
    pub arms: Vec<String>,
    /// Hardware threads the host exposes.
    pub host_cpus: usize,
    /// True when the run failed partway; the payload holds whatever
    /// completed.  `bench_check` fails on an aborted fresh record.
    pub aborted: bool,
}

impl BenchMeta {
    /// Metadata for a completed run on this host.
    pub fn new(
        bench: &str,
        datasets: impl IntoIterator<Item = String>,
        arms: impl IntoIterator<Item = &'static str>,
    ) -> BenchMeta {
        BenchMeta {
            bench: bench.to_string(),
            datasets: datasets.into_iter().collect(),
            arms: arms.into_iter().map(str::to_string).collect(),
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            aborted: false,
        }
    }

    /// The envelope fields, in canonical order.
    pub fn fields(&self) -> Vec<(String, Json)> {
        vec![
            ("schema_version".to_string(), Json::Int(SCHEMA_VERSION)),
            ("bench".to_string(), Json::Str(self.bench.clone())),
            (
                "datasets".to_string(),
                Json::Array(self.datasets.iter().map(|d| Json::Str(d.clone())).collect()),
            ),
            (
                "arms".to_string(),
                Json::Array(self.arms.iter().map(|a| Json::Str(a.clone())).collect()),
            ),
            ("host_cpus".to_string(), Json::Int(self.host_cpus as u64)),
            ("aborted".to_string(), Json::Bool(self.aborted)),
        ]
    }
}

/// Wraps `payload` (an object) in the unified envelope: the meta
/// fields first, then the payload's own fields.  A payload field named
/// like an envelope field is dropped in favour of the envelope.
pub fn enveloped(meta: &BenchMeta, payload: Json) -> Json {
    let mut fields = meta.fields();
    if let Json::Object(inner) = payload {
        let reserved: std::collections::BTreeSet<String> =
            fields.iter().map(|(k, _)| k.clone()).collect();
        for (key, value) in inner {
            if !reserved.contains(&key) {
                fields.push((key, value));
            }
        }
    }
    Json::Object(fields)
}

/// Writes `payload` under the unified envelope to `path`.  Every bench
/// bin funnels through here — including on partial failure, where the
/// caller sets `meta.aborted` and passes whatever completed.
pub fn write_enveloped(path: &Path, meta: &BenchMeta, payload: Json) -> std::io::Result<()> {
    std::fs::write(path, enveloped(meta, payload).to_pretty())
}

/// One rate step of an open-loop latency-vs-offered-throughput sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct RateStep {
    /// Offered arrival rate in requests per second (the independent
    /// variable — fixed regardless of how fast the server answers).
    pub offered_rps: f64,
    /// Requests whose scheduled arrival fell inside the step.
    pub sent: usize,
    /// Requests that completed with HTTP 200.
    pub completed: usize,
    /// Requests that errored or were shed (non-200, connect failure).
    pub errors: usize,
    /// Median latency in microseconds, measured from the *scheduled*
    /// arrival time so queueing delay counts (open-loop discipline).
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// Worst observed latency in microseconds.
    pub max_us: f64,
    /// Completions per second actually achieved during the step.
    pub achieved_rps: f64,
    /// Server-side peak live heap during the step (allocator ledger
    /// watermark, reset at the step boundary).
    pub server_peak_bytes: u64,
}

impl RateStep {
    /// The step as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("offered_rps".to_string(), Json::Float(self.offered_rps)),
            ("sent".to_string(), Json::Int(self.sent as u64)),
            ("completed".to_string(), Json::Int(self.completed as u64)),
            ("errors".to_string(), Json::Int(self.errors as u64)),
            ("p50_us".to_string(), Json::Float(self.p50_us)),
            ("p95_us".to_string(), Json::Float(self.p95_us)),
            ("p99_us".to_string(), Json::Float(self.p99_us)),
            ("max_us".to_string(), Json::Float(self.max_us)),
            ("achieved_rps".to_string(), Json::Float(self.achieved_rps)),
            (
                "server_peak_bytes".to_string(),
                Json::Int(self.server_peak_bytes),
            ),
        ])
    }
}

/// One latency-vs-offered-throughput curve: a workload, a request mix
/// and the swept rate steps.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadCurve {
    /// Workload label (`fig7`, ...).
    pub workload: String,
    /// Endpoint labels in the request mix.
    pub mix: Vec<String>,
    /// Seconds each rate step ran.
    pub step_secs: f64,
    /// The swept steps, in offered-rate order.
    pub steps: Vec<RateStep>,
}

impl LoadCurve {
    /// The curve as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("workload".to_string(), Json::Str(self.workload.clone())),
            (
                "mix".to_string(),
                Json::Array(self.mix.iter().map(|m| Json::Str(m.clone())).collect()),
            ),
            ("step_secs".to_string(), Json::Float(self.step_secs)),
            (
                "steps".to_string(),
                Json::Array(self.steps.iter().map(RateStep::to_json).collect()),
            ),
        ])
    }
}

/// The headline numbers of one detection benchmark run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchRecord {
    /// Wall-clock milliseconds for the detection pass.
    pub wall_ms: f64,
    /// Suspicious groups found.
    pub groups: usize,
    /// SubTPIINs the network segmented into.
    pub subtpiins: usize,
}

impl BenchRecord {
    /// The record as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("wall_ms".to_string(), Json::Float(self.wall_ms)),
            ("groups".to_string(), Json::Int(self.groups as u64)),
            ("subtpiins".to_string(), Json::Int(self.subtpiins as u64)),
        ])
    }

    /// Writes the record to `path` as pretty-printed JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }
}

/// One miner strategy timed end-to-end on a workload's full TPIIN.
///
/// The `name` field doubles as the element label `bench_check` matches
/// array entries by, so reordering strategies never fakes a regression
/// while dropping one is caught; `groups` is an exact-gated count and
/// `mine_ms` a tolerance-gated timing.
#[derive(Clone, Debug, PartialEq)]
pub struct MinerTiming {
    /// Strategy name (`rules`, `circular`, ...).
    pub name: String,
    /// Suspicious groups the strategy mined.
    pub groups: usize,
    /// Wall-clock milliseconds for one full `mine` pass.
    pub mine_ms: f64,
}

impl MinerTiming {
    /// The timing as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("groups".to_string(), Json::Int(self.groups as u64)),
            ("mine_ms".to_string(), Json::Float(self.mine_ms)),
        ])
    }
}

/// One workload timed across the two detection arms: the shards mined
/// serially and under the work-stealing scheduler — plus every registered
/// [`GroupMiner`](tpiin_core::GroupMiner) strategy end-to-end.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadRecord {
    /// Workload label (`fig7`, `province-0.5`, ...).
    pub name: String,
    /// Suspicious groups found (identical across arms by construction).
    pub groups: usize,
    /// SubTPIINs the network segmented into.
    pub subtpiins: usize,
    /// Serial detection over the frozen CSR shards.
    pub csr_serial_ms: f64,
    /// Work-stealing detection over the CSR shards at [`threads`](Self::threads).
    pub csr_threads_ms: f64,
    /// Worker-thread count of the stealing arm.
    pub threads: usize,
    /// Per-strategy end-to-end timings (segmentation included).
    pub miners: Vec<MinerTiming>,
}

impl WorkloadRecord {
    /// How much faster the stealing scheduler is than serial CSR.
    pub fn thread_speedup(&self) -> f64 {
        self.csr_serial_ms / self.csr_threads_ms
    }

    /// The workload as a JSON value (ratios included, pre-computed).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("groups".to_string(), Json::Int(self.groups as u64)),
            ("subtpiins".to_string(), Json::Int(self.subtpiins as u64)),
            ("csr_serial_ms".to_string(), Json::Float(self.csr_serial_ms)),
            (
                "csr_threads_ms".to_string(),
                Json::Float(self.csr_threads_ms),
            ),
            ("threads".to_string(), Json::Int(self.threads as u64)),
            (
                "thread_speedup".to_string(),
                Json::Float(self.thread_speedup()),
            ),
            (
                "miners".to_string(),
                Json::Array(self.miners.iter().map(MinerTiming::to_json).collect()),
            ),
        ])
    }
}

/// The full `BENCH_detect.json` payload: every workload, plus the
/// legacy top-level `{wall_ms, groups, subtpiins}` fields (taken from
/// the last — largest — workload's serial CSR arm) so existing trend
/// tooling keeps parsing.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectBench {
    /// Hardware threads the host actually exposes; lets readers judge
    /// whether the stealing arm could physically speed up.
    pub host_cpus: usize,
    /// Per-workload measurements.
    pub workloads: Vec<WorkloadRecord>,
}

impl DetectBench {
    /// The record as a JSON value.
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if let Some(last) = self.workloads.last() {
            fields.push(("wall_ms".to_string(), Json::Float(last.csr_serial_ms)));
            fields.push(("groups".to_string(), Json::Int(last.groups as u64)));
            fields.push(("subtpiins".to_string(), Json::Int(last.subtpiins as u64)));
        }
        fields.push(("host_cpus".to_string(), Json::Int(self.host_cpus as u64)));
        fields.push((
            "workloads".to_string(),
            Json::Array(self.workloads.iter().map(WorkloadRecord::to_json).collect()),
        ));
        Json::Object(fields)
    }

    /// Writes the record to `path` as pretty-printed JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }
}

/// Wall-clock milliseconds of one fusion pipeline stage.
#[derive(Clone, Debug, PartialEq)]
pub struct FuseStageMs {
    /// Stage name (`validate`, `contract_persons`, `contract_sccs`,
    /// `attach_trading`, `freeze`, `verify_dag`).
    pub stage: String,
    /// Wall-clock milliseconds.
    pub ms: f64,
}

/// One fusion arm (serial or parallel): total wall time plus the
/// per-stage breakdown from [`tpiin_fusion::FusionReport::stage_timings`].
#[derive(Clone, Debug, PartialEq)]
pub struct FuseArmRecord {
    /// Total wall-clock milliseconds of the whole `fuse_with` call.
    pub total_ms: f64,
    /// Per-stage timings in execution order.
    pub stages: Vec<FuseStageMs>,
}

impl FuseArmRecord {
    /// The arm as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("total_ms".to_string(), Json::Float(self.total_ms)),
            (
                "stages".to_string(),
                Json::Array(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::Object(vec![
                                ("stage".to_string(), Json::Str(s.stage.clone())),
                                ("ms".to_string(), Json::Float(s.ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One workload timed across the two fusion arms: the serial pipeline
/// (`threads = 1`) and the parallel front-end at [`threads`](Self::threads).
#[derive(Clone, Debug, PartialEq)]
pub struct FuseWorkloadRecord {
    /// Workload label (`fig7`, `province-0.5`, ...).
    pub name: String,
    /// TPIIN nodes produced (identical across arms by construction).
    pub tpiin_nodes: usize,
    /// Influence arcs in the fused TPIIN.
    pub influence_arcs: usize,
    /// Trading arcs in the fused TPIIN.
    pub trading_arcs: usize,
    /// Serial arm measurements.
    pub serial: FuseArmRecord,
    /// Parallel arm measurements.
    pub parallel: FuseArmRecord,
    /// Worker-thread count of the parallel arm.
    pub threads: usize,
}

impl FuseWorkloadRecord {
    /// How much faster the parallel front-end is than the serial pipeline.
    pub fn parallel_speedup(&self) -> f64 {
        self.serial.total_ms / self.parallel.total_ms
    }

    /// The workload as a JSON value (speedup included, pre-computed).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            (
                "tpiin_nodes".to_string(),
                Json::Int(self.tpiin_nodes as u64),
            ),
            (
                "influence_arcs".to_string(),
                Json::Int(self.influence_arcs as u64),
            ),
            (
                "trading_arcs".to_string(),
                Json::Int(self.trading_arcs as u64),
            ),
            ("serial".to_string(), self.serial.to_json()),
            ("parallel".to_string(), self.parallel.to_json()),
            ("threads".to_string(), Json::Int(self.threads as u64)),
            (
                "parallel_speedup".to_string(),
                Json::Float(self.parallel_speedup()),
            ),
        ])
    }
}

/// The full `BENCH_fuse.json` payload.
#[derive(Clone, Debug, PartialEq)]
pub struct FuseBench {
    /// Hardware threads the host actually exposes; lets readers judge
    /// whether the parallel arm could physically speed up.
    pub host_cpus: usize,
    /// Per-workload measurements.
    pub workloads: Vec<FuseWorkloadRecord>,
}

impl FuseBench {
    /// The record as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("host_cpus".to_string(), Json::Int(self.host_cpus as u64)),
            (
                "workloads".to_string(),
                Json::Array(
                    self.workloads
                        .iter()
                        .map(FuseWorkloadRecord::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the record to `path` as pretty-printed JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }
}

/// Client-observed latency percentiles of one daemon endpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct EndpointLatency {
    /// Endpoint label (`healthz`, `groups_behind_arc`, ...).
    pub endpoint: String,
    /// Requests measured.
    pub requests: usize,
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
}

impl EndpointLatency {
    /// The endpoint record as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("endpoint".to_string(), Json::Str(self.endpoint.clone())),
            ("requests".to_string(), Json::Int(self.requests as u64)),
            ("p50_us".to_string(), Json::Float(self.p50_us)),
            ("p95_us".to_string(), Json::Float(self.p95_us)),
            ("p99_us".to_string(), Json::Float(self.p99_us)),
        ])
    }
}

/// One served network hammered across its endpoints.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeWorkloadRecord {
    /// Workload label (`fig7`, `province-0.5`, ...).
    pub name: String,
    /// TPIIN nodes served.
    pub nodes: usize,
    /// Suspicious groups in the served snapshot.
    pub groups: usize,
    /// Per-endpoint latency percentiles.
    pub endpoints: Vec<EndpointLatency>,
}

impl ServeWorkloadRecord {
    /// The workload as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("nodes".to_string(), Json::Int(self.nodes as u64)),
            ("groups".to_string(), Json::Int(self.groups as u64)),
            (
                "endpoints".to_string(),
                Json::Array(
                    self.endpoints
                        .iter()
                        .map(EndpointLatency::to_json)
                        .collect(),
                ),
            ),
        ])
    }
}

/// The same endpoint measured with per-request tracing on and off —
/// the cost of minting a [`tpiin_obs::TraceContext`], recording the
/// `serve/{endpoint}` span, echoing `x-tpiin-trace` and keeping the
/// replay ring, expressed as an on/off latency ratio.
#[derive(Clone, Debug, PartialEq)]
pub struct TracingOverheadRecord {
    /// Endpoint the two arms hammered (`groups`, ...).
    pub endpoint: String,
    /// Latencies with tracing enabled (the default daemon config).
    pub tracing_on: EndpointLatency,
    /// Latencies with `ServeConfig::tracing` disabled.
    pub tracing_off: EndpointLatency,
}

impl TracingOverheadRecord {
    /// p95 with tracing divided by p95 without; `1.05` means tracing
    /// costs five percent at the tail.
    pub fn p95_ratio(&self) -> f64 {
        self.tracing_on.p95_us / self.tracing_off.p95_us
    }

    /// The overhead record as a JSON value (ratio pre-computed).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("endpoint".to_string(), Json::Str(self.endpoint.clone())),
            ("tracing_on".to_string(), self.tracing_on.to_json()),
            ("tracing_off".to_string(), self.tracing_off.to_json()),
            ("p95_ratio".to_string(), Json::Float(self.p95_ratio())),
        ])
    }
}

/// The same endpoint measured with the continuous-telemetry engine on
/// and off — the cost of the background recorder (timeline sampling +
/// SLO evaluation each tick) plus the per-request slowlog threshold
/// check, expressed as on/off latency ratios.  The acceptance bar is a
/// p99 within one percent of the off arm on the nation workload.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryOverheadRecord {
    /// Endpoint the two arms hammered (`groups`, ...).
    pub endpoint: String,
    /// Latencies with telemetry enabled (the default daemon config).
    pub telemetry_on: EndpointLatency,
    /// Latencies with `ServeConfig::telemetry` disabled.
    pub telemetry_off: EndpointLatency,
}

impl TelemetryOverheadRecord {
    /// p95 with telemetry divided by p95 without.
    pub fn p95_ratio(&self) -> f64 {
        self.telemetry_on.p95_us / self.telemetry_off.p95_us
    }

    /// p99 with telemetry divided by p99 without; `1.01` means the
    /// recorder costs one percent at the tail.
    pub fn p99_ratio(&self) -> f64 {
        self.telemetry_on.p99_us / self.telemetry_off.p99_us
    }

    /// The overhead record as a JSON value (ratios pre-computed; both
    /// are `_ratio` keys, so `bench_check` gates them against its
    /// absolute cap).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("endpoint".to_string(), Json::Str(self.endpoint.clone())),
            ("telemetry_on".to_string(), self.telemetry_on.to_json()),
            ("telemetry_off".to_string(), self.telemetry_off.to_json()),
            ("p95_ratio".to_string(), Json::Float(self.p95_ratio())),
            ("p99_ratio".to_string(), Json::Float(self.p99_ratio())),
        ])
    }
}

/// One snapshot encoding timed end-to-end: bytes on disk and the
/// median wall-clock of a full parse back into a served TPIIN.
///
/// Text and binary arms of the same workload appear as sibling entries
/// (`nation-0.1-text` / `nation-0.1-bin`); `name` is the label
/// `bench_check` matches array elements by, `groups` is an exact gate
/// proving both encodings decode to the same detection, and `load_ms`
/// is the tolerance-gated timing.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotLoadRecord {
    /// Arm label, `<workload>-<encoding>`.
    pub name: String,
    /// Snapshot size on disk in bytes.
    pub bytes: usize,
    /// Median wall-clock milliseconds for one full load (bytes →
    /// [`tpiin_fusion::Tpiin`] with frozen CSR).
    pub load_ms: f64,
    /// Suspicious groups detected over the restored network.
    pub groups: usize,
}

impl SnapshotLoadRecord {
    /// The load record as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("bytes".to_string(), Json::Int(self.bytes as u64)),
            ("load_ms".to_string(), Json::Float(self.load_ms)),
            ("groups".to_string(), Json::Int(self.groups as u64)),
        ])
    }
}

/// The full `BENCH_serve.json` payload.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeBench {
    /// Hardware threads the host actually exposes.
    pub host_cpus: usize,
    /// Daemon worker threads used for the run.
    pub workers: usize,
    /// Concurrent client threads hammering each endpoint.
    pub clients: usize,
    /// Per-workload measurements.
    pub workloads: Vec<ServeWorkloadRecord>,
    /// Tracing on-vs-off arms, when the benchmark ran them.
    pub tracing_overhead: Option<TracingOverheadRecord>,
    /// Telemetry-recorder on-vs-off arms, when the benchmark ran them.
    pub telemetry_overhead: Option<TelemetryOverheadRecord>,
    /// Open-loop latency-vs-offered-throughput curves, when the
    /// benchmark swept them.
    pub load_curves: Vec<LoadCurve>,
    /// Snapshot load-time arms (text vs binary per workload), when the
    /// benchmark measured them.
    pub snapshot_loads: Vec<SnapshotLoadRecord>,
}

impl ServeBench {
    /// The record as a JSON value.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("host_cpus".to_string(), Json::Int(self.host_cpus as u64)),
            ("workers".to_string(), Json::Int(self.workers as u64)),
            ("clients".to_string(), Json::Int(self.clients as u64)),
            (
                "workloads".to_string(),
                Json::Array(
                    self.workloads
                        .iter()
                        .map(ServeWorkloadRecord::to_json)
                        .collect(),
                ),
            ),
        ];
        if let Some(overhead) = &self.tracing_overhead {
            fields.push(("tracing_overhead".to_string(), overhead.to_json()));
        }
        if let Some(overhead) = &self.telemetry_overhead {
            fields.push(("telemetry_overhead".to_string(), overhead.to_json()));
        }
        if !self.load_curves.is_empty() {
            fields.push((
                "load_curves".to_string(),
                Json::Array(self.load_curves.iter().map(LoadCurve::to_json).collect()),
            ));
        }
        if !self.snapshot_loads.is_empty() {
            fields.push((
                "snapshot_loads".to_string(),
                Json::Array(
                    self.snapshot_loads
                        .iter()
                        .map(SnapshotLoadRecord::to_json)
                        .collect(),
                ),
            ));
        }
        Json::Object(fields)
    }

    /// Writes the record to `path` as pretty-printed JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }
}

/// Latency percentiles of one operation family, in microseconds.
/// `p50_us`/`p95_us` are tolerance-gated by `bench_check`; `p99_us`
/// and `max_us` stay informational (shared-runner tail noise).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyUs {
    /// Median latency.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Worst observed.
    pub max_us: f64,
}

impl LatencyUs {
    /// Percentiles over an unsorted sample (microseconds).
    pub fn from_samples(samples: &mut [f64]) -> LatencyUs {
        samples.sort_by(f64::total_cmp);
        let pct = |q: f64| {
            if samples.is_empty() {
                0.0
            } else {
                samples[(q * (samples.len() - 1) as f64).round() as usize]
            }
        };
        LatencyUs {
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
            max_us: samples.last().copied().unwrap_or(0.0),
        }
    }

    /// The percentiles as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("p50_us".to_string(), Json::Float(self.p50_us)),
            ("p95_us".to_string(), Json::Float(self.p95_us)),
            ("p99_us".to_string(), Json::Float(self.p99_us)),
            ("max_us".to_string(), Json::Float(self.max_us)),
        ])
    }
}

/// One ingest arm replaying the same mutation feed end to end.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestArmRecord {
    /// Arm label (`delta`, `full_rebuild`).
    pub name: String,
    /// Batches replayed.
    pub batches: usize,
    /// Suspicious groups after the full feed (exact-gated: both arms
    /// must land on the same detection).
    pub groups: usize,
    /// Batches applied per second over the whole feed.
    pub batches_per_sec: f64,
    /// Per-batch apply latency percentiles.
    pub apply: LatencyUs,
}

impl IngestArmRecord {
    /// The arm as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("batches".to_string(), Json::Int(self.batches as u64)),
            ("groups".to_string(), Json::Int(self.groups as u64)),
            (
                "batches_per_sec".to_string(),
                Json::Float(self.batches_per_sec),
            ),
            ("apply".to_string(), self.apply.to_json()),
        ])
    }
}

/// The single-batch registry-delta comparison the acceptance bar
/// names: one planted registry batch applied through the engine's
/// bounded incremental path vs a from-scratch fuse + detect of the
/// same resulting registry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegistryDeltaRecord {
    /// Median milliseconds for the engine's incremental apply.
    pub delta_apply_ms: f64,
    /// Median milliseconds for the from-scratch fuse + detect.
    pub full_rebuild_ms: f64,
}

impl RegistryDeltaRecord {
    /// How much faster the incremental path is.
    pub fn speedup(&self) -> f64 {
        self.full_rebuild_ms / self.delta_apply_ms
    }

    /// The comparison as a JSON value (speedup pre-computed).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            (
                "delta_apply_ms".to_string(),
                Json::Float(self.delta_apply_ms),
            ),
            (
                "full_rebuild_ms".to_string(),
                Json::Float(self.full_rebuild_ms),
            ),
            ("speedup".to_string(), Json::Float(self.speedup())),
        ])
    }
}

/// The full `BENCH_ingest.json` payload: both replay arms, the
/// single-batch registry-delta comparison, and read latencies observed
/// against a live daemon *while* the feed was streaming into it.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestBench {
    /// Hardware threads the host actually exposes.
    pub host_cpus: usize,
    /// Random trading records per feed batch.
    pub records_per_batch: usize,
    /// Evasion rings planted mid-stream.
    pub planted_groups: usize,
    /// The replay arms (`delta`, `full_rebuild`).
    pub workloads: Vec<IngestArmRecord>,
    /// Single-batch registry-delta timing.
    pub registry_delta: RegistryDeltaRecord,
    /// Read-side `/groups` latencies sampled while the daemon was
    /// ingesting the feed (readers must never block on the writer).
    pub read_while_ingesting: EndpointLatency,
}

impl IngestBench {
    /// The record as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("host_cpus".to_string(), Json::Int(self.host_cpus as u64)),
            (
                "records_per_batch".to_string(),
                Json::Int(self.records_per_batch as u64),
            ),
            (
                "planted_groups".to_string(),
                Json::Int(self.planted_groups as u64),
            ),
            (
                "workloads".to_string(),
                Json::Array(
                    self.workloads
                        .iter()
                        .map(IngestArmRecord::to_json)
                        .collect(),
                ),
            ),
            ("registry_delta".to_string(), self.registry_delta.to_json()),
            (
                "read_while_ingesting".to_string(),
                self.read_while_ingesting.to_json(),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serializes_all_three_fields() {
        let record = BenchRecord {
            wall_ms: 12.5,
            groups: 42,
            subtpiins: 7,
        };
        let text = record.to_json().to_pretty();
        assert!(text.contains("\"wall_ms\": 12.5"));
        assert!(text.contains("\"groups\": 42"));
        assert!(text.contains("\"subtpiins\": 7"));
    }

    #[test]
    fn workload_ratios_divide_the_right_way() {
        let w = WorkloadRecord {
            name: "toy".into(),
            groups: 3,
            subtpiins: 2,
            csr_serial_ms: 20.0,
            csr_threads_ms: 5.0,
            threads: 8,
            miners: Vec::new(),
        };
        assert!((w.thread_speedup() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn detect_bench_keeps_legacy_headline_fields() {
        let bench = DetectBench {
            host_cpus: 8,
            workloads: vec![WorkloadRecord {
                name: "province-0.5".into(),
                groups: 42,
                subtpiins: 7,
                csr_serial_ms: 12.5,
                csr_threads_ms: 4.0,
                threads: 8,
                miners: vec![MinerTiming {
                    name: "rules".into(),
                    groups: 42,
                    mine_ms: 13.0,
                }],
            }],
        };
        let text = bench.to_json().to_pretty();
        assert!(text.contains("\"wall_ms\": 12.5"));
        assert!(text.contains("\"groups\": 42"));
        assert!(text.contains("\"subtpiins\": 7"));
        assert!(text.contains("\"workloads\""));
        assert!(text.contains("\"thread_speedup\""));
        assert!(text.contains("\"miners\""));
        assert!(text.contains("\"rules\""));
        assert!(text.contains("\"mine_ms\": 13"));
    }

    #[test]
    fn serve_bench_serializes_percentiles() {
        let bench = ServeBench {
            host_cpus: 8,
            workers: 4,
            clients: 8,
            workloads: vec![ServeWorkloadRecord {
                name: "fig7".into(),
                nodes: 15,
                groups: 3,
                endpoints: vec![EndpointLatency {
                    endpoint: "groups_behind_arc".into(),
                    requests: 200,
                    p50_us: 120.0,
                    p95_us: 340.5,
                    p99_us: 900.0,
                }],
            }],
            tracing_overhead: None,
            telemetry_overhead: None,
            load_curves: Vec::new(),
            snapshot_loads: vec![SnapshotLoadRecord {
                name: "nation-0.1-bin".into(),
                bytes: 1024,
                load_ms: 2.5,
                groups: 7,
            }],
        };
        let text = bench.to_json().to_pretty();
        assert!(text.contains("\"workers\": 4"));
        assert!(text.contains("\"snapshot_loads\""));
        assert!(text.contains("\"nation-0.1-bin\""));
        assert!(text.contains("\"load_ms\": 2.5"));
        assert!(text.contains("\"groups_behind_arc\""));
        assert!(text.contains("\"p50_us\": 120"));
        assert!(text.contains("\"p95_us\": 340.5"));
        assert!(text.contains("\"p99_us\": 900"));
        // Without the overhead arms the fields are omitted, so
        // pre-existing trend tooling sees the exact schema it always
        // did.
        assert!(!text.contains("tracing_overhead"));
        assert!(!text.contains("telemetry_overhead"));
    }

    #[test]
    fn tracing_overhead_ratio_divides_on_by_off() {
        let lat = |p95: f64| EndpointLatency {
            endpoint: "groups".into(),
            requests: 200,
            p50_us: p95 / 2.0,
            p95_us: p95,
            p99_us: p95 * 2.0,
        };
        let overhead = TracingOverheadRecord {
            endpoint: "groups".into(),
            tracing_on: lat(210.0),
            tracing_off: lat(200.0),
        };
        assert!((overhead.p95_ratio() - 1.05).abs() < 1e-12);
        let bench = ServeBench {
            host_cpus: 8,
            workers: 4,
            clients: 8,
            workloads: Vec::new(),
            tracing_overhead: Some(overhead),
            telemetry_overhead: Some(TelemetryOverheadRecord {
                endpoint: "groups".into(),
                telemetry_on: lat(202.0),
                telemetry_off: lat(200.0),
            }),
            load_curves: Vec::new(),
            snapshot_loads: Vec::new(),
        };
        let text = bench.to_json().to_pretty();
        // Without snapshot-load arms the field is omitted.
        assert!(!text.contains("snapshot_loads"), "{text}");
        assert!(text.contains("\"tracing_overhead\""), "{text}");
        assert!(text.contains("\"tracing_on\""), "{text}");
        assert!(text.contains("\"tracing_off\""), "{text}");
        assert!(text.contains("\"p95_ratio\": 1.05"), "{text}");
        // The telemetry arms carry both tail ratios for the gate.
        assert!(text.contains("\"telemetry_overhead\""), "{text}");
        assert!(text.contains("\"telemetry_on\""), "{text}");
        assert!(text.contains("\"telemetry_off\""), "{text}");
        assert!(text.contains("\"p99_ratio\": 1.01"), "{text}");
    }

    #[test]
    fn fuse_bench_serializes_stages_and_speedup() {
        let arm = |total: f64| FuseArmRecord {
            total_ms: total,
            stages: vec![
                FuseStageMs {
                    stage: "validate".into(),
                    ms: total / 2.0,
                },
                FuseStageMs {
                    stage: "freeze".into(),
                    ms: total / 2.0,
                },
            ],
        };
        let bench = FuseBench {
            host_cpus: 4,
            workloads: vec![FuseWorkloadRecord {
                name: "province-0.5".into(),
                tpiin_nodes: 1000,
                influence_arcs: 2000,
                trading_arcs: 500,
                serial: arm(8.0),
                parallel: arm(4.0),
                threads: 4,
            }],
        };
        assert!((bench.workloads[0].parallel_speedup() - 2.0).abs() < 1e-12);
        let text = bench.to_json().to_pretty();
        assert!(text.contains("\"host_cpus\": 4"));
        assert!(text.contains("\"parallel_speedup\": 2"));
        assert!(text.contains("\"validate\""));
        assert!(text.contains("\"freeze\""));
        assert!(text.contains("\"tpiin_nodes\": 1000"));
    }

    #[test]
    fn envelope_prepends_meta_and_wins_on_collision() {
        let meta = BenchMeta {
            bench: "detect".into(),
            datasets: vec!["fig7".into()],
            arms: vec!["csr_serial".into()],
            host_cpus: 4,
            aborted: false,
        };
        let payload = Json::Object(vec![
            ("host_cpus".to_string(), Json::Int(999)),
            ("wall_ms".to_string(), Json::Float(1.5)),
        ]);
        let text = enveloped(&meta, payload).to_pretty();
        assert!(text.contains("\"schema_version\": 2"));
        assert!(text.contains("\"bench\": \"detect\""));
        assert!(text.contains("\"datasets\""));
        assert!(text.contains("\"arms\""));
        assert!(text.contains("\"aborted\": false"));
        assert!(text.contains("\"host_cpus\": 4"), "envelope wins: {text}");
        assert!(!text.contains("999"));
        assert!(text.contains("\"wall_ms\": 1.5"));
    }

    #[test]
    fn ingest_bench_serializes_arms_and_speedup() {
        let lat = LatencyUs {
            p50_us: 100.0,
            p95_us: 200.0,
            p99_us: 900.0,
            max_us: 1200.0,
        };
        let arm = |name: &str, bps: f64| IngestArmRecord {
            name: name.into(),
            batches: 24,
            groups: 17,
            batches_per_sec: bps,
            apply: lat,
        };
        let bench = IngestBench {
            host_cpus: 8,
            records_per_batch: 64,
            planted_groups: 3,
            workloads: vec![arm("delta", 900.0), arm("full_rebuild", 40.0)],
            registry_delta: RegistryDeltaRecord {
                delta_apply_ms: 0.5,
                full_rebuild_ms: 10.0,
            },
            read_while_ingesting: EndpointLatency {
                endpoint: "groups".into(),
                requests: 500,
                p50_us: 150.0,
                p95_us: 400.0,
                p99_us: 2000.0,
            },
        };
        assert!((bench.registry_delta.speedup() - 20.0).abs() < 1e-12);
        let text = bench.to_json().to_pretty();
        for key in [
            "\"delta\"",
            "\"full_rebuild\"",
            "\"batches_per_sec\"",
            "\"apply\"",
            "\"speedup\": 20",
            "\"read_while_ingesting\"",
            "\"planted_groups\": 3",
            "\"groups\": 17",
        ] {
            assert!(text.contains(key), "missing {key}: {text}");
        }
    }

    #[test]
    fn latency_percentiles_come_from_the_sorted_sample() {
        let mut samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        samples.reverse();
        let lat = LatencyUs::from_samples(&mut samples);
        // Nearest-rank over indices 0..=99: q * 99, rounded.
        assert_eq!(lat.p50_us, 51.0);
        assert_eq!(lat.p95_us, 95.0);
        assert_eq!(lat.p99_us, 99.0);
        assert_eq!(lat.max_us, 100.0);
    }

    #[test]
    fn load_curve_serializes_every_step_column() {
        let curve = LoadCurve {
            workload: "fig7".into(),
            mix: vec!["groups".into(), "company".into()],
            step_secs: 1.0,
            steps: vec![RateStep {
                offered_rps: 100.0,
                sent: 100,
                completed: 98,
                errors: 2,
                p50_us: 150.0,
                p95_us: 900.0,
                p99_us: 2500.0,
                max_us: 9000.0,
                achieved_rps: 97.5,
                server_peak_bytes: 1 << 20,
            }],
        };
        let text = curve.to_json().to_pretty();
        for key in [
            "offered_rps",
            "p50_us",
            "p95_us",
            "p99_us",
            "achieved_rps",
            "server_peak_bytes",
            "step_secs",
        ] {
            assert!(text.contains(key), "missing {key}: {text}");
        }
    }
}
