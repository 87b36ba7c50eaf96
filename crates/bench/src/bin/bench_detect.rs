//! Headline detection benchmark: runs the fig7 worked example and a
//! generated province TPIIN through the two detection arms —
//!
//! 1. serial mining over the pre-segmented shards,
//! 2. work-stealing mining over the same shards at `THREADS` workers —
//!
//! plus every default [`GroupMiner`](tpiin_core::GroupMiner) strategy
//! end-to-end (segmentation included), and writes `BENCH_detect.json`
//! with per-workload timings, the per-miner `mine_ms` entries and the
//! derived `thread_speedup` ratio for CI trend tracking.  The top-level
//! `{wall_ms, groups, subtpiins}` fields stay compatible with the old
//! single-number schema.
//!
//! Usage: `bench_detect [OUT_PATH] [SCALE] [THREADS]` — defaults to
//! `BENCH_detect.json`, scale 0.5, 8 threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tpiin_bench::fixtures::{nation_tpiin_fixture, tpiin_fixture};
use tpiin_bench::record::{self, BenchMeta, DetectBench, MinerTiming, WorkloadRecord};
use tpiin_core::{
    segment_tpiin, DetectionResult, Detector, DetectorConfig, MineContext, MinerRegistry,
};
use tpiin_datagen::fig7_registry;
use tpiin_fusion::{fuse, Tpiin};

/// Median-of-`reps` wall time in milliseconds after `warmup` untimed
/// runs, plus the last result (so callers can cross-check group counts
/// between arms).  The warmup pre-faults the shard memory and primes
/// caches; the median is robust against scheduler hiccups that a
/// best-of-N would hide and a mean would amplify.
fn median_ms(
    warmup: usize,
    reps: usize,
    mut run: impl FnMut() -> DetectionResult,
) -> (f64, DetectionResult) {
    let mut last = None;
    for _ in 0..warmup {
        last = Some(run());
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let result = run();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(result);
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    let median = if samples.len() % 2 == 0 {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    };
    (median, last.expect("reps >= 1"))
}

fn measure(
    name: &str,
    tpiin: &Tpiin,
    warmup: usize,
    reps: usize,
    threads: usize,
) -> WorkloadRecord {
    let csr = segment_tpiin(tpiin);
    let serial = Detector::new(DetectorConfig {
        threads: 1,
        ..DetectorConfig::default()
    });
    let stealing = Detector::new(DetectorConfig {
        threads,
        ..DetectorConfig::default()
    });

    let (csr_serial_ms, r2) = median_ms(warmup, reps, || serial.detect_segmented(tpiin, &csr));
    let (csr_threads_ms, r3) = median_ms(warmup, reps, || stealing.detect_segmented(tpiin, &csr));
    assert_eq!(r2.group_count(), r3.group_count(), "{name}: arms disagree");

    // Each default strategy end-to-end (segmentation included), serial
    // so the timings are comparable across hosts with different core
    // counts.  The `rules` entry must agree with the detection arms —
    // the strategy facade wraps the same kernel.
    let ctx = MineContext::with_config(DetectorConfig {
        threads: 1,
        ..DetectorConfig::default()
    });
    let miners = MinerRegistry::with_defaults()
        .iter()
        .map(|miner| {
            let (mine_ms, result) = median_ms(warmup, reps, || miner.mine(tpiin, &ctx));
            MinerTiming {
                name: miner.name().to_string(),
                groups: result.group_count(),
                mine_ms,
            }
        })
        .collect::<Vec<_>>();
    if let Some(rules) = miners.iter().find(|m| m.name == tpiin_core::RULES_MINER) {
        assert_eq!(
            rules.groups,
            r2.group_count(),
            "{name}: rules miner disagrees"
        );
    }

    WorkloadRecord {
        name: name.to_string(),
        groups: r2.group_count(),
        subtpiins: csr.len(),
        csr_serial_ms,
        csr_threads_ms,
        threads,
        miners,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args
        .next()
        .unwrap_or_else(|| "BENCH_detect.json".to_string());
    let scale: f64 = args
        .next()
        .map(|s| s.parse().expect("SCALE must be a number"))
        .unwrap_or(0.5);
    let threads: usize = args
        .next()
        .map(|s| s.parse().expect("THREADS must be an integer"))
        .unwrap_or(8);

    let (fig7, _) = fuse(&fig7_registry()).expect("fig7 registry fuses");
    let province = tpiin_fixture(scale, 0.004, 20170417);
    let nation = nation_tpiin_fixture(scale, 20170417);

    // fig7 is tiny — repeat it enough for the timer to resolve; the
    // province run is the headline number and gets median-of-9 after
    // two warmup passes; the multi-province nation is the largest and
    // gets median-of-5.
    let specs: Vec<(String, &Tpiin, usize, usize)> = vec![
        ("fig7".to_string(), &fig7, 10, 51),
        (format!("province-{scale}"), &province, 2, 9),
        (format!("nation-{scale}"), &nation, 1, 5),
    ];
    let mut meta = BenchMeta::new(
        "detect",
        specs.iter().map(|(name, ..)| name.clone()),
        [
            "csr_serial",
            "csr_stealing",
            "miner:rules",
            "miner:circular",
        ],
    );

    // Each workload runs under catch_unwind so a crash partway still
    // writes the completed workloads — marked `aborted`, which the
    // bench_check gate treats as a hard failure.
    let mut workloads = Vec::new();
    for (name, tpiin, warmup, reps) in &specs {
        match catch_unwind(AssertUnwindSafe(|| {
            measure(name, tpiin, *warmup, *reps, threads)
        })) {
            Ok(record) => workloads.push(record),
            Err(_) => {
                eprintln!("bench detect [{name}]: PANICKED — marking record aborted");
                meta.aborted = true;
                break;
            }
        }
    }

    let bench = DetectBench {
        host_cpus: meta.host_cpus,
        workloads,
    };
    for w in &bench.workloads {
        println!(
            "bench detect [{}]: csr {:.2} ms, csr@{} {:.2} ms ({:.2}x), {} groups / {} subTPIINs",
            w.name,
            w.csr_serial_ms,
            w.threads,
            w.csr_threads_ms,
            w.thread_speedup(),
            w.groups,
            w.subtpiins
        );
        for m in &w.miners {
            println!(
                "bench detect [{}]: miner {} {:.2} ms, {} groups",
                w.name, m.name, m.mine_ms, m.groups
            );
        }
    }
    record::write_enveloped(std::path::Path::new(&path), &meta, bench.to_json())
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("record -> {path} (host_cpus = {})", bench.host_cpus);
    if meta.aborted {
        std::process::exit(1);
    }
}
