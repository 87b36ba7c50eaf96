//! Minimal flag parsing (no external dependency).

/// Parsed command-line options shared by all subcommands.
#[derive(Clone, Debug)]
pub struct Options {
    /// Province scale factor (1.0 = the paper's 4578-node network).
    pub scale: f64,
    /// RNG seed for the province and trading networks.
    pub seed: u64,
    /// Trading probabilities for sweeps / single runs.
    pub probs: Vec<f64>,
    /// Verify against the global-traversal baseline.
    pub verify: bool,
    /// Groups to print for `detect`.
    pub top: usize,
    /// Output path for `export-dot` / `export-graphml`.
    pub out: Option<String>,
    /// Directory for `import` / `save-province` / `report`.
    pub dir: Option<String>,
    /// Trading arc for `query`, as `SELLER,BUYER` company labels.
    pub arc: Option<(String, String)>,
    /// Company label for `company`.
    pub company: Option<String>,
    /// Listen address for `serve` (default 127.0.0.1:7878).
    pub addr: Option<String>,
    /// Snapshot file for `serve` (served, reloadable) / `save-snapshot`.
    pub snapshot: Option<String>,
    /// Worker threads for the `serve` request pool.
    pub workers: usize,
    /// Per-request deadline for `serve`, in milliseconds.
    pub request_timeout_ms: u64,
    /// Latency threshold for the `serve` slow-request exemplar log, in
    /// milliseconds.
    pub slowlog_threshold_ms: u64,
    /// Recorder tick for the `serve` telemetry timeline, in
    /// milliseconds.
    pub telemetry_tick_ms: u64,
    /// Disable the `serve` telemetry recorder (timeline + alerts).
    pub no_telemetry: bool,
    /// Dataset for `serve`/`save-snapshot` without a snapshot file:
    /// `fig7` or `province`.
    pub dataset: Option<String>,
    /// Watch the snapshot file and hot-reload on change (`serve`).
    pub watch: bool,
    /// Explicit log level (overrides the `TPIIN_LOG` environment variable).
    pub log_level: Option<tpiin_obs::Level>,
    /// Print the phase-timing table after the run.
    pub profile: bool,
    /// Write the run profile as JSON to this path.
    pub metrics_out: Option<String>,
    /// Write a Chrome `trace_event` JSON of the whole run to this path
    /// (one trace id spanning CLI, pipeline and detector).
    pub trace_out: Option<String>,
    /// Group index for `explain` (also accepted as a positional
    /// argument: `tpiin explain 0`).
    pub group: Option<usize>,
    /// Miner specs for `detect`/`serve` (repeatable `--miner NAME`).
    /// Empty means the command's default strategy set.
    pub miners: Vec<String>,
    /// Batches in the feed for `mutation-stream`.
    pub batches: usize,
    /// Random trading records per batch for `mutation-stream`.
    pub records: usize,
    /// Evasion rings planted mid-stream for `mutation-stream`.
    pub planted: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 1.0,
            seed: 20170417,
            probs: Vec::new(),
            verify: false,
            top: 10,
            out: None,
            dir: None,
            arc: None,
            company: None,
            addr: None,
            snapshot: None,
            workers: 4,
            request_timeout_ms: 2000,
            slowlog_threshold_ms: 250,
            telemetry_tick_ms: 1000,
            no_telemetry: false,
            dataset: None,
            watch: false,
            log_level: None,
            profile: false,
            metrics_out: None,
            trace_out: None,
            group: None,
            miners: Vec::new(),
            batches: 20,
            records: 64,
            planted: 3,
        }
    }
}

/// The paper's twenty trading-probability settings (Table 1, column 1).
pub const PAPER_PROBS: [f64; 20] = [
    0.002, 0.003, 0.004, 0.005, 0.006, 0.008, 0.010, 0.012, 0.014, 0.016, 0.018, 0.020, 0.030,
    0.040, 0.050, 0.060, 0.070, 0.080, 0.090, 0.100,
];

impl Options {
    /// Parses `--flag value` pairs; unknown flags are errors.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--scale" => {
                    opts.scale = value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?;
                    if !(opts.scale > 0.0 && opts.scale <= 1.0) {
                        return Err("--scale must be in (0, 1]".into());
                    }
                }
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--probs" => {
                    opts.probs = value("--probs")?
                        .split(',')
                        .map(|s| s.trim().parse::<f64>().map_err(|e| format!("--probs: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                "--top" => {
                    opts.top = value("--top")?.parse().map_err(|e| format!("--top: {e}"))?;
                }
                "--out" => opts.out = Some(value("--out")?),
                "--dir" => opts.dir = Some(value("--dir")?),
                "--company" => opts.company = Some(value("--company")?),
                "--arc" => {
                    let raw = value("--arc")?;
                    let (s_label, b_label) = raw
                        .split_once(',')
                        .ok_or_else(|| "--arc expects SELLER,BUYER".to_string())?;
                    opts.arc = Some((s_label.trim().to_string(), b_label.trim().to_string()));
                }
                "--addr" => opts.addr = Some(value("--addr")?),
                "--snapshot" => opts.snapshot = Some(value("--snapshot")?),
                "--workers" => {
                    opts.workers = value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?;
                }
                "--request-timeout-ms" => {
                    opts.request_timeout_ms = value("--request-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--request-timeout-ms: {e}"))?;
                }
                "--slowlog-threshold-ms" => {
                    opts.slowlog_threshold_ms = value("--slowlog-threshold-ms")?
                        .parse()
                        .map_err(|e| format!("--slowlog-threshold-ms: {e}"))?;
                }
                "--telemetry-tick-ms" => {
                    opts.telemetry_tick_ms = value("--telemetry-tick-ms")?
                        .parse()
                        .map_err(|e| format!("--telemetry-tick-ms: {e}"))?;
                    if opts.telemetry_tick_ms == 0 {
                        return Err("--telemetry-tick-ms must be positive".into());
                    }
                }
                "--no-telemetry" => opts.no_telemetry = true,
                "--dataset" => {
                    let name = value("--dataset")?;
                    if name != "fig7" && name != "province" {
                        return Err(format!("--dataset must be fig7 or province, got `{name}`"));
                    }
                    opts.dataset = Some(name);
                }
                "--watch" => opts.watch = true,
                "--verify" => opts.verify = true,
                "--log-level" => {
                    opts.log_level = Some(
                        value("--log-level")?
                            .parse()
                            .map_err(|e| format!("--log-level: {e}"))?,
                    );
                }
                "--profile" => opts.profile = true,
                "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
                "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
                "--group" => {
                    opts.group = Some(
                        value("--group")?
                            .parse()
                            .map_err(|e| format!("--group: {e}"))?,
                    );
                }
                "--miner" => opts.miners.push(value("--miner")?),
                "--batches" => {
                    opts.batches = value("--batches")?
                        .parse()
                        .map_err(|e| format!("--batches: {e}"))?;
                }
                "--records" => {
                    opts.records = value("--records")?
                        .parse()
                        .map_err(|e| format!("--records: {e}"))?;
                }
                "--planted" => {
                    opts.planted = value("--planted")?
                        .parse()
                        .map_err(|e| format!("--planted: {e}"))?;
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The probability list to sweep: `--probs` if given, else the
    /// paper's twenty settings.
    pub fn sweep_probs(&self) -> Vec<f64> {
        if self.probs.is_empty() {
            PAPER_PROBS.to_vec()
        } else {
            self.probs.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&argv)
    }

    #[test]
    fn defaults() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.scale, 1.0);
        assert_eq!(opts.seed, 20170417);
        assert!(!opts.verify);
        assert_eq!(opts.sweep_probs().len(), PAPER_PROBS.len());
    }

    #[test]
    fn all_flags_parse() {
        let opts = parse(&[
            "--scale",
            "0.5",
            "--seed",
            "9",
            "--probs",
            "0.01, 0.02",
            "--verify",
            "--top",
            "3",
            "--out",
            "x.dot",
            "--dir",
            "d",
            "--arc",
            "C1, C2",
            "--addr",
            "127.0.0.1:0",
            "--snapshot",
            "s.tpiin",
            "--workers",
            "8",
            "--request-timeout-ms",
            "500",
            "--slowlog-threshold-ms",
            "75",
            "--telemetry-tick-ms",
            "200",
            "--no-telemetry",
            "--dataset",
            "fig7",
            "--watch",
            "--log-level",
            "debug",
            "--profile",
            "--metrics-out",
            "p.json",
            "--trace-out",
            "t.json",
            "--group",
            "2",
            "--miner",
            "rules",
            "--miner",
            "circular",
            "--batches",
            "6",
            "--records",
            "16",
            "--planted",
            "1",
        ])
        .unwrap();
        assert_eq!(opts.scale, 0.5);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.probs, vec![0.01, 0.02]);
        assert!(opts.verify);
        assert_eq!(opts.top, 3);
        assert_eq!(opts.out.as_deref(), Some("x.dot"));
        assert_eq!(opts.dir.as_deref(), Some("d"));
        assert_eq!(opts.arc, Some(("C1".to_string(), "C2".to_string())));
        assert_eq!(opts.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.snapshot.as_deref(), Some("s.tpiin"));
        assert_eq!(opts.workers, 8);
        assert_eq!(opts.request_timeout_ms, 500);
        assert_eq!(opts.slowlog_threshold_ms, 75);
        assert_eq!(opts.telemetry_tick_ms, 200);
        assert!(opts.no_telemetry);
        assert_eq!(opts.dataset.as_deref(), Some("fig7"));
        assert!(opts.watch);
        assert_eq!(opts.sweep_probs(), vec![0.01, 0.02]);
        assert_eq!(opts.log_level, Some(tpiin_obs::Level::Debug));
        assert!(opts.profile);
        assert_eq!(opts.metrics_out.as_deref(), Some("p.json"));
        assert_eq!(opts.trace_out.as_deref(), Some("t.json"));
        assert_eq!(opts.group, Some(2));
        assert_eq!(opts.miners, vec!["rules", "circular"]);
        assert_eq!(opts.batches, 6);
        assert_eq!(opts.records, 16);
        assert_eq!(opts.planted, 1);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--scale"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["--scale", "2.0"]).unwrap_err().contains("(0, 1]"));
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--probs", "a,b"]).unwrap_err().contains("--probs"));
        assert!(parse(&["--arc", "C1"])
            .unwrap_err()
            .contains("SELLER,BUYER"));
        let err = parse(&["--log-level", "loud"]).unwrap_err();
        assert!(err.contains("--log-level"), "{err}");
        assert!(err.contains("unknown log level"), "{err}");
        assert!(parse(&["--dataset", "mars"])
            .unwrap_err()
            .contains("fig7 or province"));
        assert!(parse(&["--workers", "many"])
            .unwrap_err()
            .contains("--workers"));
        assert!(parse(&["--miner"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["--telemetry-tick-ms", "0"])
            .unwrap_err()
            .contains("positive"));
    }
}
