//! The [`Pipeline`] builder: registry in, mined TPIIN out.
//!
//! One call chain configures and runs the whole system — fusion
//! (Section 4.1, five stages plus the CSR freeze), then Algorithm 1/2
//! group detection on the work-stealing scheduler:
//!
//! ```
//! use tpiin::prelude::*;
//!
//! let registry = tpiin::datagen::fig7_registry();
//! let out = Pipeline::from_registry(&registry).threads(4).run()?;
//! assert!(out.groups.group_count() > 0);
//! # Ok::<(), tpiin::Error>(())
//! ```

use crate::error::Error;
use std::sync::Arc;
use tpiin_core::{mine_with_obs, DetectionResult, DetectorConfig, MineContext, MinerRegistry};
use tpiin_fusion::{FusionReport, Tpiin};
use tpiin_model::SourceRegistry;
use tpiin_obs::{Level, RunProfile, TraceContext};

/// Everything one [`Pipeline::run`] produces.
#[derive(Debug)]
pub struct RunOutput {
    /// The fused network (with its frozen CSR kernel).
    pub tpiin: Tpiin,
    /// Per-stage fusion statistics and timings.
    pub report: FusionReport,
    /// The primary detection result — the first configured miner's
    /// (the Rule 1/Rule 2 detector unless [`Pipeline::miner`] chose
    /// otherwise): suspicious groups, arcs, per-shard stats.
    pub groups: DetectionResult,
    /// Name of the miner that produced [`RunOutput::groups`].
    pub primary_miner: String,
    /// Results of any additional miners beyond the first, in request
    /// order; see [`RunOutput::result_for`].
    pub miner_results: Vec<(String, DetectionResult)>,
    /// The run profile, when [`Pipeline::profile`] was enabled.
    pub profile: Option<RunProfile>,
}

impl RunOutput {
    /// The result of the miner named `name`, whether primary or
    /// additional.
    pub fn result_for(&self, name: &str) -> Option<&DetectionResult> {
        if self.primary_miner == name {
            return Some(&self.groups);
        }
        self.miner_results
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r)
    }
}

/// Builder over the fuse-then-detect pipeline.
///
/// Borrows the registry; all knobs default to the serial,
/// group-collecting, unprofiled configuration that [`tpiin_fusion::fuse`]
/// plus [`tpiin_core::detect`] would give.
#[derive(Debug)]
pub struct Pipeline<'a> {
    registry: &'a SourceRegistry,
    config: DetectorConfig,
    miners: Vec<String>,
    log_level: Option<Level>,
    profile: bool,
    trace: Option<Arc<TraceContext>>,
}

impl<'a> Pipeline<'a> {
    /// Starts a pipeline over `registry` with default settings: serial
    /// detection, groups collected, no profile, no trace.  Fusion is
    /// always one serial pass ([`tpiin_fusion::fuse`]).
    pub fn from_registry(registry: &'a SourceRegistry) -> Pipeline<'a> {
        Pipeline {
            registry,
            config: DetectorConfig::default(),
            miners: Vec::new(),
            log_level: None,
            profile: false,
            trace: None,
        }
    }

    /// Adds one detection strategy by spec (`rules`, `baseline`,
    /// `circular`, `windowed:<inner>@<start>..<end>`; see
    /// [`tpiin_core::MinerRegistry::resolve`]).  Repeatable; the first
    /// added miner becomes [`RunOutput::groups`].  Without any call the
    /// pipeline runs the Rule 1/Rule 2 detector alone.
    pub fn miner(mut self, spec: impl Into<String>) -> Self {
        self.miners.push(spec.into());
        self
    }

    /// Adds several detection strategies at once (see
    /// [`Pipeline::miner`]).
    pub fn miners<I, S>(mut self, specs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.miners.extend(specs.into_iter().map(Into::into));
        self
    }

    /// Worker threads for detection ([`DetectorConfig::threads`]); `0`
    /// or `1` mines serially.  Fusion is serial either way, and the
    /// detection result is bit-identical at every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the global log level for the run (overrides `TPIIN_LOG`).
    pub fn log_level(mut self, level: Level) -> Self {
        self.log_level = Some(level);
        self
    }

    /// Enables profiling; the captured [`RunProfile`] lands in
    /// [`RunOutput::profile`].
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Records the whole run into `trace`: installed as the process-wide
    /// active context for the duration of [`Pipeline::run`], so fusion
    /// and detector spans on every worker thread land in it under one
    /// trace id.  Export afterwards with
    /// [`TraceContext::to_chrome_json`].
    pub fn trace(mut self, trace: Arc<TraceContext>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Whether to fill [`tpiin_core::DetectionResult::groups`] (`true`
    /// by default); counting-only sweeps run leaner with `false`.
    pub fn collect_groups(mut self, on: bool) -> Self {
        self.config.collect_groups = on;
        self
    }

    /// Upper bound on patterns-tree nodes per root (overflow guard).
    pub fn max_tree_nodes(mut self, bound: usize) -> Self {
        self.config.max_tree_nodes = bound;
        self
    }

    /// Fuses the registry and starts the query/ingest daemon over the
    /// result (the [`tpiin_serve`] crate): the returned handle serves
    /// `/groups`, `/groups_behind_arc`, `/company/{id}`, `POST /ingest`
    /// and friends until shut down.  Detection runs once at startup to
    /// build the first snapshot epoch.  The daemon keeps a copy of the
    /// registry, so `POST /ingest` accepts the full mutation vocabulary
    /// (companies, directors, investments, trading) and maintains the
    /// served TPIIN via the delta engine.
    pub fn serve(
        self,
        config: tpiin_serve::ServeConfig,
    ) -> Result<tpiin_serve::ServerHandle, Error> {
        if self.log_level.is_some() {
            tpiin_obs::log::set_level(self.log_level);
        }
        if self.profile {
            tpiin_obs::set_profiling(true);
            tpiin_obs::global().reset();
        }
        // Validate eagerly so bad registries surface as Error::Model
        // with the full violation list, like Pipeline::run.
        self.registry.validate()?;
        Ok(tpiin_serve::ServerHandle::bind_with_registry(
            self.registry.clone(),
            config,
        )?)
    }

    /// Fuses the registry into a streaming [`tpiin_delta::DeltaEngine`]:
    /// the returned engine owns a copy of the registry and maintains
    /// the fused TPIIN plus its mined groups incrementally under
    /// [`tpiin_model::MutationBatch`]es ([`tpiin_delta::DeltaEngine::apply`]).
    /// The detector knobs configured on this builder
    /// ([`Pipeline::collect_groups`] is forced on — diffing needs group
    /// bodies — and [`Pipeline::max_tree_nodes`], [`Pipeline::threads`])
    /// carry over to every re-mine.
    pub fn delta(self) -> Result<tpiin_delta::DeltaEngine, Error> {
        if self.log_level.is_some() {
            tpiin_obs::log::set_level(self.log_level);
        }
        let mut config = tpiin_delta::DeltaConfig::default();
        config.detector = self.config;
        config.detector.collect_groups = true;
        tpiin_delta::DeltaEngine::with_config(self.registry.clone(), config).map_err(
            |err| match err {
                tpiin_delta::DeltaError::Fusion(e) => Error::from(e),
                tpiin_delta::DeltaError::Mutation(e) => Error::Model(vec![e]),
                other => Error::Usage(other.to_string()),
            },
        )
    }

    /// Fuses the registry and mines suspicious groups with every
    /// configured strategy (the Rule 1/Rule 2 detector by default).
    pub fn run(self) -> Result<RunOutput, Error> {
        let specs: Vec<String> = if self.miners.is_empty() {
            vec![tpiin_core::RULES_MINER.to_string()]
        } else {
            self.miners.clone()
        };
        let registry = MinerRegistry::from_specs(&specs).map_err(Error::Usage)?;
        if self.log_level.is_some() {
            tpiin_obs::log::set_level(self.log_level);
        }
        if self.profile {
            tpiin_obs::set_profiling(true);
            tpiin_obs::global().reset();
        }
        let installed_trace = self.trace.is_some();
        if let Some(trace) = &self.trace {
            tpiin_obs::set_active_trace(Some(Arc::clone(trace)));
        }
        let ctx = MineContext {
            config: self.config,
            tax_rates: self.registry.company_tax_rates(),
        };
        let outcome = (|| {
            let _root = tpiin_obs::Span::at("pipeline");
            let (tpiin, report) = tpiin_fusion::fuse(self.registry)?;
            let results: Vec<(String, DetectionResult)> = registry
                .iter()
                .map(|m| (m.name().to_string(), mine_with_obs(m, &tpiin, &ctx)))
                .collect();
            Ok::<_, Error>((tpiin, report, results))
        })();
        if installed_trace {
            tpiin_obs::set_active_trace(None);
        }
        let (tpiin, report, mut results) = outcome?;
        let (primary_miner, groups) = results.remove(0);
        let profile = self.profile.then(RunProfile::capture);
        Ok(RunOutput {
            tpiin,
            report,
            groups,
            primary_miner,
            miner_results: results,
            profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_runs_the_worked_example() {
        let registry = tpiin_datagen::fig7_registry();
        let out = Pipeline::from_registry(&registry)
            .threads(2)
            .run()
            .expect("fig7 is valid");
        assert_eq!(out.groups.group_count(), 3);
        assert!(out.report.tpiin_nodes > 0);
        assert!(out.profile.is_none());
    }

    #[test]
    fn profile_capture_is_opt_in() {
        let registry = tpiin_datagen::fig7_registry();
        let out = Pipeline::from_registry(&registry)
            .profile(true)
            .run()
            .expect("fig7 is valid");
        let profile = out.profile.expect("profiling was requested");
        assert!(profile.phase("fusion").is_some());
    }

    #[test]
    fn invalid_registry_surfaces_as_model_error() {
        let mut registry = SourceRegistry::new();
        registry.add_company("orphan"); // no legal person
        let err = Pipeline::from_registry(&registry).run().unwrap_err();
        assert!(matches!(err, Error::Model(_)), "{err:?}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn serve_binds_and_answers_healthz() {
        use std::io::{Read as _, Write as _};
        let registry = tpiin_datagen::fig7_registry();
        let handle = Pipeline::from_registry(&registry)
            .serve(tpiin_serve::ServeConfig::default())
            .expect("ephemeral bind");
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        write!(stream, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("\"status\":\"ok\""), "{text}");
        handle.shutdown();
    }

    #[test]
    fn delta_builder_streams_batches_through_the_engine() {
        use tpiin_model::{CompanyId, Mutation, MutationBatch, TradingRecord};
        let mut registry = tpiin_datagen::case2_registry();
        registry.clear_trading();
        let mut engine = Pipeline::from_registry(&registry)
            .delta()
            .expect("case2 is valid");
        assert_eq!(engine.detection().group_count(), 0);
        let batch = MutationBatch::new(vec![Mutation::AddTrading(TradingRecord {
            seller: CompanyId(1),
            buyer: CompanyId(2),
            volume: 7.5,
        })]);
        let outcome = engine.apply(&batch).expect("trading append");
        assert_eq!(outcome.new_groups.len(), 1);
        // The maintained state equals a from-scratch run over the
        // mutated registry.
        let mut shadow = registry.clone();
        batch.apply_to_registry(&mut shadow).unwrap();
        let full = Pipeline::from_registry(&shadow).run().unwrap();
        assert_eq!(engine.detection().groups, full.groups.groups);
    }

    #[test]
    fn trace_collects_fusion_and_detector_spans_under_one_id() {
        let registry = tpiin_datagen::fig7_registry();
        let trace = Arc::new(TraceContext::new());
        let out = Pipeline::from_registry(&registry)
            .threads(2)
            .trace(Arc::clone(&trace))
            .run()
            .expect("fig7 is valid");
        assert_eq!(out.groups.group_count(), 3);
        let names: Vec<String> = trace.events().into_iter().map(|e| e.name).collect();
        for expected in ["pipeline", "fusion", "detect", "detect/build_tree"] {
            assert!(
                names.iter().any(|n| n == expected),
                "span {expected:?} missing from {names:?}"
            );
        }
        let json = trace.to_chrome_json().to_pretty();
        assert!(json.contains(&format!("\"traceId\": \"{}\"", trace.id())));
        // The context uninstalls when run() returns.
        assert!(tpiin_obs::current_trace().is_none() || !tpiin_obs::tracing_enabled());
    }

    #[test]
    fn miners_run_in_request_order_with_primary_first() {
        let registry = tpiin_datagen::circular_case_registry();
        let out = Pipeline::from_registry(&registry)
            .miner("circular")
            .miner("rules")
            .run()
            .expect("scenario is valid");
        assert_eq!(out.primary_miner, "circular");
        assert_eq!(out.groups.group_count(), 1, "the planted ring");
        assert_eq!(out.miner_results.len(), 1);
        assert_eq!(
            out.result_for("rules").expect("rules ran").group_count(),
            0,
            "no shared antecedent in the scenario"
        );
        assert!(out.result_for("zebra").is_none());
    }

    #[test]
    fn unknown_miner_spec_is_a_usage_error() {
        let registry = tpiin_datagen::fig7_registry();
        let err = Pipeline::from_registry(&registry)
            .miner("zebra")
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Usage(_)), "{err:?}");
    }

    #[test]
    fn counting_only_mode_skips_group_bodies() {
        let registry = tpiin_datagen::fig7_registry();
        let out = Pipeline::from_registry(&registry)
            .collect_groups(false)
            .run()
            .expect("fig7 is valid");
        assert!(out.groups.groups.is_empty());
        assert_eq!(out.groups.group_count(), 3);
    }
}
