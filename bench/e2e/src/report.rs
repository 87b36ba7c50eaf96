//! What a run reports: named metrics with unit and sample count, the
//! outcome of every output check, and the result line the driver reads.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metric lists of
//! `BENCHMARK.json`; a test holds the two files to each other.

use crate::stats;

/// End-to-end metrics: what a user of each workload sees.  Every
/// workload measures every one of them (see README.md for what each
/// means on which workload).
pub const END_TO_END: [(&str, &str); 5] = [
    ("path_ms", "ms"),
    ("path_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `layer.what`.  A layer a workload does not
/// exercise reports 0 there: it did no work.
pub const PER_LAYER: [(&str, &str); 101] = [
    // The issue's named whole-path quantities, per workload family.
    ("e2e.snapshot_build_s", "s"),
    ("e2e.pipeline_s", "s"),
    ("e2e.cold_start_s", "s"),
    ("e2e.pipeline_peak_mb", "MB"),
    ("e2e.read_p50_ms", "ms"),
    ("e2e.read_p99_ms", "ms"),
    ("e2e.knee_rps", "1/s"),
    ("e2e.read_sat_rps", "1/s"),
    ("e2e.ingest_visible_p50_ms", "ms"),
    ("e2e.ingest_visible_p90_ms", "ms"),
    ("e2e.fail_ratio", "ratio"),
    ("datagen.generate_ms", "ms"),
    ("datagen.csv_save_ms", "ms"),
    ("io.csv_load_ms", "ms"),
    ("io.snapshot_write_ms", "ms"),
    ("io.snapshot_bytes", "count"),
    ("io.snapshot_load_ms", "ms"),
    ("io.feed_parse_us", "us"),
    ("io.json_render_us", "us"),
    ("model.validate_ms", "ms"),
    ("model.batch_apply_us", "us"),
    ("fusion.fuse_ms", "ms"),
    ("fusion.validate_ms", "ms"),
    ("fusion.contract_persons_ms", "ms"),
    ("fusion.contract_sccs_ms", "ms"),
    ("fusion.attach_trading_ms", "ms"),
    ("fusion.freeze_ms", "ms"),
    ("fusion.verify_dag_ms", "ms"),
    ("fusion.nodes", "count"),
    ("fusion.influence_arcs", "count"),
    ("fusion.trading_arcs", "count"),
    ("fusion.alloc_mb", "MB"),
    ("fusion.thread_speedup", "ratio"),
    ("graph.freeze_ms", "ms"),
    ("graph.scc_ms", "ms"),
    ("graph.wcc_ms", "ms"),
    ("core.segment_ms", "ms"),
    ("core.subtpiins", "count"),
    ("core.mine_rules_ms", "ms"),
    ("core.mine_circular_ms", "ms"),
    ("core.groups_rules", "count"),
    ("core.groups_circular", "count"),
    ("core.suspicious_arcs", "count"),
    ("core.circular_truncated", "count"),
    ("core.mine_alloc_mb", "MB"),
    ("core.mine_shard_max_ms", "ms"),
    ("core.mine_shard_sum_ms", "ms"),
    ("core.thread_speedup", "ratio"),
    ("core.arc_query_us", "us"),
    ("core.groups_involving_hot_us", "us"),
    ("core.groups_involving_cold_us", "us"),
    ("delta.from_tpiin_ms", "ms"),
    ("delta.engine_build_ms", "ms"),
    ("delta.apply_p50_ms", "ms"),
    ("delta.apply_p90_ms", "ms"),
    ("delta.apply_trading_append_ms", "ms"),
    ("delta.apply_company_append_ms", "ms"),
    ("delta.apply_incremental_ms", "ms"),
    ("delta.replay_batches_per_s", "1/s"),
    ("delta.full_rebuild_ms", "ms"),
    ("delta.speedup_vs_rebuild", "ratio"),
    ("delta.batches", "count"),
    ("delta.full_rebuilds", "count"),
    ("delta.shards_remined", "count"),
    ("delta.sccs_rerun", "count"),
    ("delta.arcs_patched", "count"),
    ("delta.company_appends", "count"),
    ("serve.snapshot_build_ms", "ms"),
    ("serve.bind_ms", "ms"),
    ("serve.bind_residual_ms", "ms"),
    ("serve.first_byte_ms", "ms"),
    ("serve.healthz_p50_us", "us"),
    ("serve.groups_p50_us", "us"),
    ("serve.company_hot_p50_ms", "ms"),
    ("serve.company_cold_p50_us", "us"),
    ("serve.arc_p50_us", "us"),
    ("serve.provenance_p50_us", "us"),
    ("serve.connect_us", "us"),
    ("serve.ttfb_us", "us"),
    ("serve.body_read_us", "us"),
    ("serve.company_json_hot_ms", "ms"),
    ("serve.company_render_hot_ms", "ms"),
    ("serve.groups_json_us", "us"),
    ("serve.arc_json_us", "us"),
    ("serve.response_bytes_company_hot", "count"),
    ("serve.response_bytes_groups", "count"),
    ("serve.conn_reuse_ratio", "ratio"),
    ("serve.shed_503", "count"),
    ("serve.read_during_ingest_p50_ms", "ms"),
    ("serve.read_during_ingest_p99_ms", "ms"),
    ("serve.ingest_post_p50_ms", "ms"),
    ("serve.ingest_overhead_ms", "ms"),
    ("serve.ingest_alloc_mb", "MB"),
    ("obs.tracing_ratio", "ratio"),
    ("obs.telemetry_ratio", "ratio"),
    ("bench.sched_lag_p99_us", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.residual_ratio", "ratio"),
    ("bench.first_rep_ratio", "ratio"),
    ("bench.host_cpus", "count"),
    ("bench.samples", "count"),
];

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarises (1 for a count).
    pub samples: usize,
    /// Which percentile it is, or why it was not measured.
    pub note: String,
}

/// Everything one run of one workload found.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures in words, for the person reading the log.
    pub failures: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared in report.rs"))
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            ..Report::default()
        }
    }

    /// Records a value under a declared name.
    pub fn put(&mut self, name: &str, value: f64, samples: usize, note: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit_of(name),
            value,
            samples,
            note: note.to_string(),
        });
    }

    /// Records the median of `samples`.
    pub fn put_median(&mut self, name: &str, samples: &[f64]) {
        self.put(name, stats::median(samples), samples.len(), "median");
    }

    /// Records a metric that could not be measured honestly here.
    pub fn skip(&mut self, name: &str, reason: &str) {
        self.put(name, 0.0, 0, &format!("skipped: {reason}"));
    }

    /// What every traced pass ends on: the failure share so far, the
    /// host's cores, and how many operations the spans cover.
    pub fn put_run_facts(&mut self, samples: usize, what: &str) {
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.put("e2e.fail_ratio", ratio, self.attempted as usize, "");
        self.put("bench.host_cpus", crate::host_cpus() as f64, 1, "");
        self.put("bench.samples", samples as f64, 1, what);
    }

    /// Counts `n` operations attempted, `bad` of them failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// One output check: counts as an attempted operation, and as a
    /// failed one when `ok` is false.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.count(1, u64::from(!ok));
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    /// Notes a failure in words (the count is the caller's).
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// One line per metric: name, value with all its digits, unit,
    /// sample count, note.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<24} {:<36} {:>16.4} {:<6} n={:<6} {}\n",
                self.workload, m.name, m.value, m.unit, m.samples, m.note
            ));
        }
        out.push_str(&format!(
            "{:<24} {:<36} {:>16.6} ratio  failed={} attempted={}\n",
            self.workload,
            "fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
        for f in &self.failures {
            out.push_str(&format!("{:<24} FAILURE {f}\n", self.workload));
        }
        out
    }

    /// The driver's result line: exactly the declared metrics of the
    /// pass that ran (`traced` → per-layer, else end-to-end).  A
    /// per-layer metric this workload did not produce is 0.
    pub fn result_line(&self, traced: bool) -> String {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpiin_io::json::Json;

    fn names(list: &Json) -> Vec<(String, String)> {
        let Json::Array(items) = list else {
            panic!("not a list")
        };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_and_workloads_in_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(spec.get("end_to_end").unwrap()), own(&END_TO_END));
        assert_eq!(names(spec.get("per_layer").unwrap()), own(&PER_LAYER));
        let Json::Array(workloads) = spec.get("workloads").unwrap() else {
            panic!()
        };
        let listed: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(listed, crate::WORKLOADS);
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut report = Report::new("w");
        report.put("path_ms", 1.25, 3, "median");
        report.put("core.groups_rules", 7.0, 1, "");
        report.check("ok", true);
        let line = Json::parse(&report.result_line(false)).unwrap();
        let Json::Object(fields) = line.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(fields.len(), END_TO_END.len());
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get("path_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let traced = Json::parse(&report.result_line(true)).unwrap();
        let Json::Object(fields) = traced.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(fields.len(), PER_LAYER.len());

        report.check("broken", false);
        assert!(!report.correct());
        assert!(report.render().contains("FAILURE check failed: broken"));
        assert!(report.result_line(false).contains("\"failed\": 1"));
    }
}
