//! `bench_e2e` — the end-to-end + per-layer benchmark of the TPIIN
//! pipeline, daemon and ingest path.  See `bench/e2e/README.md`.
//!
//! ```text
//! bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run; last stdout line is the result
//! bench_e2e --all [--seed N] [--seconds S]                           every workload, untraced then traced
//! bench_e2e --aa N [--seconds S]                                     N untraced sets; spread vs bound
//! bench_e2e ... --smoke                                              tiny inputs (what the tests run)
//! ```

mod batch;
mod http;
mod ingest;
mod inputs;
mod load;
mod report;
mod serve_read;
mod stats;
mod trace;

use inputs::Size;
use report::Report;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "batch_nation",
    "batch_province_dense",
    "serve_read_nation",
    "ingest_stream_province",
];

/// `run_seconds` of `BENCHMARK.json` (held equal by a test).
const RUN_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 20170417;

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    pub seed: u64,
    /// Length of the measured part.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    pub size: Size,
}

/// Runs `f` and says how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_workload(name: &str, run: &Run) -> Option<Report> {
    Some(match name {
        "batch_nation" => batch::run(batch::Input::Nation, run),
        "batch_province_dense" => batch::run(batch::Input::DenseProvince, run),
        "serve_read_nation" => serve_read::run(run),
        "ingest_stream_province" => ingest::run(run),
        _ => return None,
    })
}

/// `--all`: every workload untraced, then every workload traced.
/// Returns whether every check of every run passed.
fn run_all(run: &Run) -> bool {
    let mut ok = true;
    for trace in [false, true] {
        for name in WORKLOADS {
            let report = run_workload(name, &Run { trace, ..*run }).expect("listed workload");
            println!(
                "# {name} ({})",
                if trace {
                    "traced: per-layer"
                } else {
                    "untraced: end-to-end"
                }
            );
            print!("{}", report.render());
            ok &= report.correct();
        }
    }
    ok
}

/// `--aa N`: N untraced sets on this build; per end-to-end metric and
/// workload the median, quartiles and spread against the bound.
fn run_aa(sets: usize, run: &Run, bounds: &[(String, f64)]) -> bool {
    let mut ok = true;
    let mut values: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); report::END_TO_END.len()]; WORKLOADS.len()];
    for set in 0..sets {
        for (w, name) in WORKLOADS.iter().enumerate() {
            // A different seed per set, as the acceptance rule runs it.
            let seeded = Run {
                seed: run.seed + set as u64,
                trace: false,
                ..*run
            };
            let report = run_workload(name, &seeded).expect("listed workload");
            ok &= report.correct();
            for (m, (metric, _)) in report::END_TO_END.iter().enumerate() {
                values[w][m].push(
                    report
                        .get(metric)
                        .expect("every workload reports every end-to-end metric"),
                );
            }
            eprintln!(
                "set {set} {name}: done{}",
                if report.correct() {
                    ""
                } else {
                    " (FAILED CHECKS)"
                }
            );
        }
    }
    println!("| workload | metric | unit | median | q1 | q3 | spread | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (w, name) in WORKLOADS.iter().enumerate() {
        for (m, (metric, unit)) in report::END_TO_END.iter().enumerate() {
            let (q1, q2, q3) = stats::quartiles(&values[w][m]);
            let spread = stats::spread(&values[w][m]);
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric)
                .map_or(0.0, |(_, b)| *b);
            // Set-up time is held to its bound between medians of two
            // sets of runs, not within one.
            let verdict = if spread <= bound || *metric == "setup_s" {
                "ok"
            } else {
                "EXCEEDS"
            };
            ok &= verdict == "ok";
            println!(
                "| {name} | {metric} | {unit} | {q2:.4} | {q1:.4} | {q3:.4} | {spread:.4} | {bound} | {verdict} |"
            );
        }
    }
    ok
}

/// The bounds of `BENCHMARK.json`, read from the checkout's root.
fn bounds() -> Vec<(String, f64)> {
    use tpiin_io::json::Json;
    let text =
        std::fs::read_to_string("BENCHMARK.json").expect("run from the root of the checkout");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Array(list)) = spec.get("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list")
    };
    list.iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("bound").and_then(Json::as_f64).expect("bound"),
            )
        })
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_e2e (--workload NAME | --all | --aa N) [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut run = Run {
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    let mut all = false;
    let mut aa = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => run.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => run.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => run.trace = value() == "1",
            "--smoke" => run.size = Size::Smoke,
            "--all" => all = true,
            "--aa" => aa = Some(value().parse::<usize>().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }

    let ok = if let Some(sets) = aa {
        run_aa(sets, &run, &bounds())
    } else if all {
        run_all(&run)
    } else {
        let name = workload.unwrap_or_else(|| usage());
        let report = run_workload(&name, &run).unwrap_or_else(|| usage());
        print!("{}", report.render());
        // The driver's contract: the result is the last line of stdout.
        println!("{}", report.result_line(run.trace));
        report.correct()
    };
    std::process::exit(if ok { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four workloads end to end at smoke size, untraced and
    /// traced, including the rules == baseline check.
    #[test]
    fn smoke_pass_of_every_workload() {
        // The workloads write under `bench/e2e/out` relative to the
        // checkout's root.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).unwrap();
        for trace in [false, true] {
            for name in WORKLOADS {
                let run = Run {
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    size: Size::Smoke,
                };
                let report = run_workload(name, &run).unwrap();
                assert!(
                    report.correct(),
                    "{name} trace={trace}:\n{}",
                    report.render()
                );
                assert!(report.attempted > 0);
                let declared: &[(&str, &str)] = if trace {
                    &report::PER_LAYER
                } else {
                    &report::END_TO_END
                };
                if !trace {
                    for (metric, _) in declared {
                        let value = report
                            .get(metric)
                            .unwrap_or_else(|| panic!("{name} lacks {metric}"));
                        assert!(value > 0.0, "{name} {metric} = {value}");
                    }
                }
                assert!(report.result_line(trace).starts_with("{\"correct\": true"));
            }
        }
    }

    #[test]
    fn run_seconds_matches_benchmark_json() {
        use tpiin_io::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
    }
}
