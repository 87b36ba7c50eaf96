//! The two batch workloads: the paper's whole path, run in process.
//!
//! One rep is three timed segments, each through the entry points the
//! CLI, the facade and the daemon use:
//!
//! 1. `snapshot_build` — CSV registry dir → validated registry → fused
//!    TPIIN → binary snapshot file on disk;
//! 2. `pipeline` — in-memory registry → fuse → rules + circular miners
//!    → groups (the paper's Table 1 quantity);
//! 3. `cold_start` — snapshot file → daemon bound → first answer to
//!    `/groups?limit=5`.

use crate::http::{self, json_usize};
use crate::inputs::{self, Size};
use crate::report::Report;
use crate::trace::{self, Tracer};
use crate::{ms, stats, timed, Run};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tpiin_core::{
    mine_shard, mine_with_obs, segment_tpiin, DetectionResult, DetectorConfig, MineContext,
    MinerRegistry, BASELINE_MINER, CIRCULAR_MINER, RULES_MINER,
};
use tpiin_fusion::{fuse_with, FuseOptions, FusionReport, INFLUENCE_LANE};
use tpiin_io::{registry_csv, snapshot_bin};
use tpiin_model::SourceRegistry;
use tpiin_serve::{load_snapshot_file, ServeConfig, ServeSnapshot, ServerHandle};

/// Which input the workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    Nation,
    DenseProvince,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Order-independent hash of a detection's group keys (FNV-1a per
/// group, wrapping sum across groups).
pub fn groups_hash(result: &DetectionResult) -> u64 {
    result
        .groups
        .iter()
        .map(|g| {
            let (arc, with_trade, plain) = g.key();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |x: usize| {
                for b in (x as u64).to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            eat(arc.0.index());
            eat(arc.1.index());
            eat(usize::MAX);
            with_trade.iter().for_each(|n| eat(n.index()));
            eat(usize::MAX);
            plain.iter().for_each(|n| eat(n.index()));
            h
        })
        .fold(0u64, u64::wrapping_add)
}

/// What one rep measured and mined.
struct Rep {
    snapshot_build: Duration,
    pipeline: Duration,
    cold_start: Duration,
    peak_bytes: u64,
    snapshot_bytes: usize,
    fusion: FusionReport,
    fuse_alloc_bytes: u64,
    mine_alloc_bytes: u64,
    rules: Mined,
    circular: Mined,
    /// `group_count` the cold-started daemon served, per miner.
    served_rules: Option<usize>,
    served_circular: Option<usize>,
}

/// What is kept of one miner's result once the rep is over: the groups
/// themselves are dropped, so live memory is the same on every rep.
struct Mined {
    groups: usize,
    hash: u64,
    suspicious_arcs: usize,
    truncated: bool,
}

impl Mined {
    fn of(result: &DetectionResult) -> Mined {
        Mined {
            groups: result.group_count(),
            hash: groups_hash(result),
            suspicious_arcs: result.suspicious_trading_arcs.len(),
            truncated: result.overflowed,
        }
    }
}

impl Rep {
    fn path(&self) -> Duration {
        self.snapshot_build + self.pipeline + self.cold_start
    }

    fn groups(&self) -> usize {
        self.rules.groups + self.circular.groups
    }
}

fn one_rep(
    registry: &SourceRegistry,
    csv_dir: &Path,
    snapshot_file: &Path,
    tracer: &Tracer,
    op: u64,
) -> Rep {
    tracer.span("rep", None, op, |rep| {
        let start = Instant::now();
        let snapshot_bytes = tracer.span("snapshot_build", rep, op, |seg| {
            let loaded = tracer.leaf("io.csv_load", seg, op, || {
                registry_csv::load_registry(csv_dir).expect("the registry saved in set-up loads")
            });
            tracer.leaf("model.validate", seg, op, || {
                loaded.validate().expect("generated registry is valid")
            });
            let (tpiin, _) = tracer.leaf("fusion.fuse", seg, op, || {
                fuse_with(&loaded, FuseOptions::from_env()).expect("generated registry fuses")
            });
            let bytes = tracer.leaf("io.snapshot_write", seg, op, || {
                snapshot_bin::write_snapshot_bin(&tpiin)
            });
            tracer.leaf("io.file_write", seg, op, || {
                std::fs::write(snapshot_file, &bytes).expect("snapshot file is writable")
            });
            bytes.len()
        });
        let snapshot_build = start.elapsed();

        tpiin_obs::alloc::reset_peak();
        let start = Instant::now();
        let (tpiin, fusion, fuse_alloc_bytes, rules, circular, mine_alloc_bytes) =
            tracer.span("pipeline", rep, op, |seg| {
                let before = tpiin_obs::alloc::stats().total_bytes;
                let (tpiin, fusion) = tracer.leaf("fusion.fuse", seg, op, || {
                    fuse_with(registry, FuseOptions::from_env()).expect("generated registry fuses")
                });
                let fused = tpiin_obs::alloc::stats().total_bytes;
                let miners = MinerRegistry::with_defaults();
                let ctx = MineContext {
                    config: DetectorConfig::default(),
                    tax_rates: registry.company_tax_rates(),
                };
                let rules = tracer.leaf("core.mine_rules", seg, op, || {
                    mine_with_obs(
                        miners.get(RULES_MINER).expect("default miner"),
                        &tpiin,
                        &ctx,
                    )
                });
                let circular = tracer.leaf("core.mine_circular", seg, op, || {
                    mine_with_obs(
                        miners.get(CIRCULAR_MINER).expect("default miner"),
                        &tpiin,
                        &ctx,
                    )
                });
                let mined = tpiin_obs::alloc::stats().total_bytes;
                (
                    tpiin,
                    fusion,
                    fused - before,
                    rules,
                    circular,
                    mined - fused,
                )
            });
        let pipeline = start.elapsed();
        let peak_bytes = tpiin_obs::alloc::stats().peak_bytes;
        // Keep hashes and counts only, so every rep starts its next
        // segment from the same live heap.
        let mined = (Mined::of(&rules), Mined::of(&circular));
        drop((tpiin, rules, circular));
        let (rules, circular) = mined;

        let start = Instant::now();
        let (handle, reply) = tracer.span("cold_start", rep, op, |seg| {
            let loaded = tracer.leaf("io.snapshot_load", seg, op, || {
                load_snapshot_file(snapshot_file).expect("the snapshot just written loads")
            });
            let handle = tracer.leaf("serve.bind", seg, op, || {
                ServerHandle::bind(loaded, ServeConfig::default()).expect("an ephemeral port binds")
            });
            let reply = tracer.leaf("serve.first_byte", seg, op, || {
                http::Client::new(handle.addr(), crate::load::TIMEOUT).get("/groups?limit=5")
            });
            (handle, reply)
        });
        let cold_start = start.elapsed();

        // Untimed: what the cold-started daemon serves must be what the
        // in-memory pipeline mined.
        let served_rules = reply
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| json_usize(&r.body, "group_count"));
        let served_circular = http::Client::new(handle.addr(), crate::load::TIMEOUT)
            .get("/groups?miner=circular&limit=0")
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| json_usize(&r.body, "group_count"));
        handle.shutdown();

        Rep {
            snapshot_build,
            pipeline,
            cold_start,
            peak_bytes,
            snapshot_bytes,
            fusion,
            fuse_alloc_bytes,
            mine_alloc_bytes,
            rules,
            circular,
            served_rules,
            served_circular,
        }
    })
}

/// The paper's claim, on inputs small enough for the global-traversal
/// baseline: the rules miner finds exactly the baseline's groups.
fn rules_equal_baseline(report: &mut Report) {
    for (name, registry) in [
        ("fig7", tpiin_datagen::fig7_registry()),
        ("province-0.05", inputs::dense_province(Size::Smoke)),
    ] {
        let (tpiin, _) =
            fuse_with(&registry, FuseOptions::from_env()).expect("sibling input fuses");
        let ctx = MineContext::default();
        let keys = |spec: &str| {
            let miner = MinerRegistry::resolve(spec).expect("built-in miner");
            let result = mine_with_obs(miner.as_ref(), &tpiin, &ctx);
            let mut keys: Vec<_> = result.groups.iter().map(|g| g.key()).collect();
            keys.sort();
            (keys, result.overflowed)
        };
        let (rules, _) = keys(RULES_MINER);
        let (baseline, overflowed) = keys(BASELINE_MINER);
        report.check(
            &format!("rules == baseline on {name} ({} groups)", rules.len()),
            !overflowed && !rules.is_empty() && rules == baseline,
        );
    }
}

pub fn run(input: Input, run: &Run) -> Report {
    let name = match input {
        Input::Nation => "batch_nation",
        Input::DenseProvince => "batch_province_dense",
    };
    let mut report = Report::new(name);
    let tracer = Tracer::new(run.trace);
    // Inside the checkout, per process.
    let dir = PathBuf::from(format!("bench/e2e/out/tmp-{}", std::process::id()));
    let csv_dir = dir.join("registry");
    let snapshot_file = dir.join("snapshot.tpiin");

    // Set-up, three times over: generate the registry and save it as
    // the CSV directory the first segment starts from.
    let mut setups = Vec::new();
    let mut registry = None;
    for op in 0..3 {
        let ((), took) = timed(|| {
            tracer.span("setup", None, op, |setup| {
                let generated = tracer.leaf("datagen.generate", setup, op, || match input {
                    Input::Nation => inputs::nation(run.size),
                    Input::DenseProvince => inputs::dense_province(run.size),
                });
                tracer.leaf("datagen.csv_save", setup, op, || {
                    registry_csv::save_registry(&generated, &csv_dir).expect("work dir is writable")
                });
                registry = Some(generated);
            })
        });
        setups.push(secs(took));
    }
    let registry = registry.expect("set-up ran");
    report.put_median("setup_s", &setups);

    // Reps until the time is up: one cold, then at least two warm.  In
    // a traced run the warm reps alternate span recording on and off,
    // which is what the tracing overhead is measured from.
    let plain = Tracer::new(false);
    let started = Instant::now();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    while reps.len() < 3 || secs(started.elapsed()) < run.seconds {
        let traced = run.trace && reps.len() % 2 == 1;
        let recorder = if traced || reps.is_empty() {
            &tracer
        } else {
            &plain
        };
        let rep = one_rep(
            &registry,
            &csv_dir,
            &snapshot_file,
            recorder,
            reps.len() as u64,
        );
        reps.push((traced, rep));
        if reps.len() >= 3 && run.size == Size::Smoke {
            break;
        }
    }
    let (cold, warm) = reps.split_first().expect("at least three reps ran");
    let cold = &cold.1;

    // Output checks.
    for (_, rep) in warm {
        report.count(3, 0);
        report.check(
            "mined group keys hash the same on every rep",
            rep.rules.hash == cold.rules.hash && rep.circular.hash == cold.circular.hash,
        );
        report.check(
            "the cold-started daemon serves the pipeline's group counts",
            rep.served_rules == Some(rep.rules.groups)
                && rep.served_circular == Some(rep.circular.groups),
        );
    }
    report.check("the pipeline mined groups", cold.rules.groups > 0);
    let reloaded = load_snapshot_file(&snapshot_file).expect("the snapshot just written loads");
    let remined = mine_with_obs(
        MinerRegistry::with_defaults()
            .get(RULES_MINER)
            .expect("default miner"),
        &reloaded,
        &MineContext::default(),
    );
    report.check(
        "group keys survive the binary-snapshot round trip",
        groups_hash(&remined) == cold.rules.hash && remined.group_count() == cold.rules.groups,
    );
    rules_equal_baseline(&mut report);

    // End-to-end numbers, from the untraced warm reps.
    let untraced: Vec<&Rep> = warm.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let of = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { untraced.iter().map(|r| f(r)).collect() };
    let paths = of(&|r| ms(r.path()));
    report.put_median("path_ms", &paths);
    // The slowest rep is by construction the cold one: what a process
    // that runs the path once pays.
    report.put("path_tail_ms", ms(cold.path()), 1, "the cold first rep");
    report.put_median(
        "throughput_per_s",
        &of(&|r| r.groups() as f64 / secs(r.pipeline)),
    );
    report.put_median("peak_mb", &of(&|r| r.peak_bytes as f64 / 1e6));

    if run.trace {
        layers(&mut report, &tracer, &registry, cold, warm, &paths);
        tracer.write(name);
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Median of `n` timings of `f`, in milliseconds.
fn median_ms<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..n).map(|_| ms(timed(&mut f).1)).collect();
    stats::median(&runs)
}

/// The per-layer numbers: span medians from the traced reps, plus
/// direct calls into single layers.
fn layers(
    report: &mut Report,
    tracer: &Tracer,
    registry: &SourceRegistry,
    cold: &Rep,
    warm: &[(bool, Rep)],
    untraced_paths: &[f64],
) {
    let spans = tracer.spans();
    let traced: Vec<&Rep> = warm.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let last = traced.last().expect("a traced rep ran");
    let nproc = crate::host_cpus();

    let of = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { traced.iter().map(|r| f(r)).collect() };
    report.put_median("e2e.snapshot_build_s", &of(&|r| secs(r.snapshot_build)));
    report.put_median("e2e.pipeline_s", &of(&|r| secs(r.pipeline)));
    report.put_median("e2e.cold_start_s", &of(&|r| secs(r.cold_start)));
    report.put_median("e2e.pipeline_peak_mb", &of(&|r| r.peak_bytes as f64 / 1e6));

    for (metric, span) in [
        ("datagen.generate_ms", "datagen.generate"),
        ("datagen.csv_save_ms", "datagen.csv_save"),
    ] {
        report.put_median(metric, &trace::durations_ms(&spans, span));
    }
    // The cold rep is op 0; leave its spans out of the medians.
    let warm_spans: Vec<trace::Span> = spans.iter().filter(|s| s.op != 0).cloned().collect();
    for (metric, span) in [
        ("io.csv_load_ms", "io.csv_load"),
        ("io.snapshot_write_ms", "io.snapshot_write"),
        ("io.snapshot_load_ms", "io.snapshot_load"),
        ("model.validate_ms", "model.validate"),
        ("core.mine_rules_ms", "core.mine_rules"),
        ("core.mine_circular_ms", "core.mine_circular"),
        ("serve.bind_ms", "serve.bind"),
        ("serve.first_byte_ms", "serve.first_byte"),
    ] {
        report.put_median(metric, &trace::durations_ms(&warm_spans, span));
    }
    report.put("io.snapshot_bytes", last.snapshot_bytes as f64, 1, "");

    // Fusion: the pipeline segment's fuse, stage by stage from the
    // report the call returns.
    let pipeline_fuses: Vec<f64> = warm_spans
        .iter()
        .filter(|s| s.name == "fusion.fuse" && s.parent.map(|p| spans[p].name) == Some("pipeline"))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    report.put_median("fusion.fuse_ms", &pipeline_fuses);
    for stage in [
        "validate",
        "contract_persons",
        "contract_sccs",
        "attach_trading",
        "freeze",
        "verify_dag",
    ] {
        let nanos: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.fusion.stage_timings.iter())
            .filter(|t| t.stage == stage)
            .map(|t| t.nanos as f64 / 1e6)
            .collect();
        report.put_median(&format!("fusion.{stage}_ms"), &nanos);
    }
    report.put("fusion.nodes", last.fusion.tpiin_nodes as f64, 1, "");
    report.put(
        "fusion.influence_arcs",
        last.fusion.influence_arcs as f64,
        1,
        "",
    );
    report.put(
        "fusion.trading_arcs",
        last.fusion.trading_arcs as f64,
        1,
        "",
    );
    report.put_median("fusion.alloc_mb", &of(&|r| r.fuse_alloc_bytes as f64 / 1e6));
    report.put_median(
        "core.mine_alloc_mb",
        &of(&|r| r.mine_alloc_bytes as f64 / 1e6),
    );

    let (tpiin, _) =
        fuse_with(registry, FuseOptions::from_env()).expect("generated registry fuses");
    let tpiin = &tpiin;
    report.put(
        "graph.freeze_ms",
        median_ms(3, || tpiin.graph.freeze()),
        3,
        "median",
    );
    report.put(
        "graph.scc_ms",
        median_ms(3, || tpiin.csr().tarjan_scc(INFLUENCE_LANE)),
        3,
        "median",
    );
    report.put(
        "graph.wcc_ms",
        median_ms(3, || tpiin.csr().weak_components(INFLUENCE_LANE)),
        3,
        "median",
    );

    report.put(
        "core.segment_ms",
        median_ms(3, || segment_tpiin(tpiin)),
        3,
        "median",
    );
    let shards = segment_tpiin(tpiin);
    report.put("core.subtpiins", shards.len() as f64, 1, "");
    report.put("core.groups_rules", last.rules.groups as f64, 1, "");
    report.put("core.groups_circular", last.circular.groups as f64, 1, "");
    report.put(
        "core.suspicious_arcs",
        last.rules.suspicious_arcs as f64,
        1,
        "",
    );
    report.put(
        "core.circular_truncated",
        f64::from(u8::from(last.circular.truncated)),
        1,
        "",
    );
    let config = DetectorConfig::default();
    let per_shard: Vec<f64> = shards
        .iter()
        .map(|s| ms(timed(|| mine_shard(s, &config)).1))
        .collect();
    report.put(
        "core.mine_shard_max_ms",
        per_shard.iter().copied().fold(0.0, f64::max),
        per_shard.len(),
        "max",
    );
    report.put(
        "core.mine_shard_sum_ms",
        per_shard.iter().sum(),
        per_shard.len(),
        "sum",
    );

    // Thread arms: serial ÷ one worker per core.  Never a number
    // measured on one core.
    if nproc >= 2 {
        let fuse_at = |threads| {
            median_ms(3, || {
                fuse_with(registry, FuseOptions { threads }).expect("fuses")
            })
        };
        report.put(
            "fusion.thread_speedup",
            fuse_at(1) / fuse_at(nproc),
            3,
            &format!("serial / {nproc} threads"),
        );
        let rules = MinerRegistry::resolve(RULES_MINER).expect("built-in miner");
        let mine_at = |threads| {
            let ctx = MineContext::with_config(DetectorConfig {
                threads,
                ..DetectorConfig::default()
            });
            median_ms(3, || mine_with_obs(rules.as_ref(), tpiin, &ctx))
        };
        report.put(
            "core.thread_speedup",
            mine_at(1) / mine_at(nproc),
            3,
            &format!("serial / {nproc} threads"),
        );
    } else {
        report.skip(
            "fusion.thread_speedup",
            "one core: a thread arm would measure only overhead",
        );
        report.skip(
            "core.thread_speedup",
            "one core: a thread arm would measure only overhead",
        );
    }

    // `bind` mines the rules set twice: once for the delta engine, once
    // for the served snapshot.
    let engine_runs: Vec<f64> = (0..3)
        .map(|_| {
            let clone = tpiin.clone();
            ms(timed(|| tpiin_delta::DeltaEngine::from_tpiin(clone)).1)
        })
        .collect();
    report.put_median("delta.from_tpiin_ms", &engine_runs);
    let miners = MinerRegistry::with_defaults();
    let snapshot_runs: Vec<f64> = (0..3)
        .map(|_| {
            let clone = tpiin.clone();
            ms(timed(|| ServeSnapshot::build_with(1, clone, &miners)).1)
        })
        .collect();
    report.put_median("serve.snapshot_build_ms", &snapshot_runs);
    let bind = report.get("serve.bind_ms").unwrap_or(0.0);
    report.put(
        "serve.bind_residual_ms",
        bind - stats::median(&engine_runs) - stats::median(&snapshot_runs),
        1,
        "bind - from_tpiin - snapshot_build",
    );

    // Sanity of the numbers above.
    let worst_residual = ["snapshot_build", "pipeline", "cold_start"]
        .iter()
        .map(|seg| trace::residual_ratio(&spans, seg))
        .fold(0.0, f64::max);
    report.put(
        "bench.residual_ratio",
        worst_residual,
        3,
        "worst of the three segments",
    );
    report.check(
        "per-layer spans explain >= 90 % of every segment",
        worst_residual <= 0.10,
    );
    let traced_paths = of(&|r| ms(r.path()));
    let overhead = stats::median(&traced_paths) / stats::median(untraced_paths);
    report.put(
        "bench.trace_overhead_ratio",
        overhead,
        traced_paths.len(),
        "traced / untraced path",
    );
    report.put(
        "bench.first_rep_ratio",
        ms(cold.path()) / stats::median(untraced_paths),
        1,
        "cold rep / warm median",
    );
    report.put_run_facts(traced.len(), "traced warm reps");
}
