//! The SLO health engine: declarative objectives evaluated against the
//! [`Timeline`] with multi-window burn
//! rates, feeding an ok→warn→page alert state machine with hysteresis.
//!
//! # Burn-rate math
//!
//! Every [`SloSpec`] reduces, per evaluation window, to a single
//! dimensionless **burn rate**: "how many times over its objective is
//! this signal right now".
//!
//! * [`SloKind::LatencyP99`] — the windowed p99 (estimated from
//!   histogram bucket deltas, see
//!   [`estimate_quantile_ns`])
//!   divided by the latency objective.  p99 at exactly the objective
//!   burns at 1.0; twice the objective burns at 2.0.
//! * [`SloKind::RateRatio`] — the observed bad-event fraction
//!   (Δbad / Δtotal over the window) divided by the error budget.
//!   A 1% budget with 2% observed errors burns at 2.0.
//!
//! A window with no data burns at 0 — an idle daemon is healthy, and a
//! latency SLO cannot page on the absence of traffic.
//!
//! # Multi-window rule and hysteresis
//!
//! Each spec is evaluated over a **short** and a **long** window (SRE
//! burn-rate alerting): severity escalates only when *both* windows
//! burn past a threshold, so a one-tick blip cannot page (the long
//! window dilutes it) and a long-ago incident cannot page either (the
//! short window has recovered).  Escalation is immediate; de-escalation
//! requires [`SloSpec::clear_ticks`] consecutive evaluations at the
//! lower severity before the state steps down — the hysteresis that
//! stops a flapping signal from re-paging every other tick.  Every
//! transition is logged through the crate logger.

use crate::timeline::{estimate_quantile_ns, Timeline};
use parking_lot::Mutex;

/// What a spec measures and the objective it is held to.
#[derive(Clone, Debug)]
pub enum SloKind {
    /// Windowed p99 of a histogram against a latency objective (ns).
    LatencyP99 {
        /// Histogram metric name (e.g. `serve.latency.groups`).
        metric: String,
        /// The p99 objective in nanoseconds.
        threshold_ns: f64,
    },
    /// Bad-event fraction of counters against an error budget.
    RateRatio {
        /// Numerator counters; a trailing `.` matches as a prefix.
        bad: Vec<String>,
        /// Denominator counters; a trailing `.` matches as a prefix.
        total: Vec<String>,
        /// Budgeted bad fraction, e.g. `0.01` for a 1% error budget.
        budget: f64,
    },
}

/// One declarative objective plus its window and hysteresis policy.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Stable alert name (`serve.groups.p99`, `serve.error_rate`, …).
    pub name: String,
    /// The measured signal and objective.
    pub kind: SloKind,
    /// Short burn window, in recorder ticks.
    pub short_ticks: u64,
    /// Long burn window, in recorder ticks.
    pub long_ticks: u64,
    /// Both windows at or above this burn → at least `warn`.
    pub warn_burn: f64,
    /// Both windows at or above this burn → `page`.
    pub page_burn: f64,
    /// Consecutive calmer evaluations required before de-escalating.
    pub clear_ticks: u32,
}

impl SloSpec {
    /// A latency-p99 objective with the default windows and policy.
    pub fn latency_p99(name: &str, metric: &str, threshold_ns: f64) -> SloSpec {
        SloSpec::with_policy_defaults(
            name,
            SloKind::LatencyP99 {
                metric: metric.to_string(),
                threshold_ns,
            },
        )
    }

    /// A bad-fraction objective with the default windows and policy.
    pub fn rate_ratio(name: &str, bad: &[&str], total: &[&str], budget: f64) -> SloSpec {
        SloSpec::with_policy_defaults(
            name,
            SloKind::RateRatio {
                bad: bad.iter().map(|s| s.to_string()).collect(),
                total: total.iter().map(|s| s.to_string()).collect(),
                budget,
            },
        )
    }

    fn with_policy_defaults(name: &str, kind: SloKind) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            kind,
            short_ticks: 60,
            long_ticks: 300,
            warn_burn: 1.0,
            page_burn: 3.0,
            clear_ticks: 5,
        }
    }

    /// One-line human description of the objective, for `/alerts`.
    pub fn objective(&self) -> String {
        match &self.kind {
            SloKind::LatencyP99 {
                metric,
                threshold_ns,
            } => format!("p99({metric}) <= {:.1}ms", threshold_ns / 1e6),
            SloKind::RateRatio { bad, total, budget } => format!(
                "sum({})/sum({}) <= {:.2}%",
                bad.join("+"),
                total.join("+"),
                budget * 100.0
            ),
        }
    }

    /// The burn rate over the trailing `window` ticks at `now`; 0 when
    /// the window holds no data (see the module docs).
    fn burn(&self, timeline: &Timeline, window: u64, now: u64) -> f64 {
        match &self.kind {
            SloKind::LatencyP99 {
                metric,
                threshold_ns,
            } => {
                let Some(delta) = timeline.hist_window_delta(metric, window, now) else {
                    return 0.0;
                };
                match estimate_quantile_ns(&delta.buckets, 0.99) {
                    Some(p99) if *threshold_ns > 0.0 => p99 / threshold_ns,
                    _ => 0.0,
                }
            }
            SloKind::RateRatio { bad, total, budget } => {
                let bad_delta = timeline.window_delta_sum(bad, window, now).max(0.0);
                let total_delta = timeline.window_delta_sum(total, window, now);
                if total_delta <= 0.0 || *budget <= 0.0 {
                    return 0.0;
                }
                (bad_delta / total_delta) / budget
            }
        }
    }
}

/// Alert severity, ordered so `max` escalates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertState {
    /// Burning within budget on at least one window.
    Ok,
    /// Both windows past `warn_burn`.
    Warn,
    /// Both windows past `page_burn`.
    Page,
}

impl AlertState {
    /// Lower-case name, as served in `/alerts` and `/status`.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Warn => "warn",
            AlertState::Page => "page",
        }
    }
}

/// One spec's current standing, as of the last evaluation.
#[derive(Clone, Debug)]
pub struct AlertStatus {
    /// The spec's [`SloSpec::name`].
    pub name: String,
    /// Human description of the objective.
    pub objective: String,
    /// Current state after hysteresis.
    pub state: AlertState,
    /// Burn over the short window at the last evaluation.
    pub burn_short: f64,
    /// Burn over the long window at the last evaluation.
    pub burn_long: f64,
    /// Tick of the last state transition (0 = never transitioned).
    pub since_tick: u64,
}

/// Per-spec state machine: current severity plus the de-escalation
/// streak counter.
struct Machine {
    state: AlertState,
    calmer_streak: u32,
    since_tick: u64,
    burn_short: f64,
    burn_long: f64,
}

/// Evaluates a set of [`SloSpec`]s against a timeline and holds the
/// resulting alert state machines.
pub struct SloEngine {
    specs: Vec<SloSpec>,
    machines: Mutex<Vec<Machine>>,
}

impl SloEngine {
    /// All machines start at `ok`.
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        let machines = specs
            .iter()
            .map(|_| Machine {
                state: AlertState::Ok,
                calmer_streak: 0,
                since_tick: 0,
                burn_short: 0.0,
                burn_long: 0.0,
            })
            .collect();
        SloEngine {
            specs,
            machines: Mutex::new(machines),
        }
    }

    /// The configured specs.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Evaluates every spec at `now` and advances its state machine.
    /// Called once per recorder tick, after [`Timeline::sample`].
    pub fn evaluate(&self, now: u64, timeline: &Timeline) -> Vec<AlertStatus> {
        let mut machines = self.machines.lock();
        for (spec, machine) in self.specs.iter().zip(machines.iter_mut()) {
            let burn_short = spec.burn(timeline, spec.short_ticks, now);
            let burn_long = spec.burn(timeline, spec.long_ticks, now);
            // The multi-window AND: the *smaller* burn decides, so both
            // windows must agree before severity moves.
            let gate = burn_short.min(burn_long);
            let target = if gate >= spec.page_burn {
                AlertState::Page
            } else if gate >= spec.warn_burn {
                AlertState::Warn
            } else {
                AlertState::Ok
            };
            machine.burn_short = burn_short;
            machine.burn_long = burn_long;
            if target > machine.state {
                crate::warn!(
                    "slo {}: {} -> {} (burn short {burn_short:.2} long {burn_long:.2}, {})",
                    spec.name,
                    machine.state.as_str(),
                    target.as_str(),
                    spec.objective()
                );
                machine.state = target;
                machine.since_tick = now;
                machine.calmer_streak = 0;
            } else if target < machine.state {
                machine.calmer_streak += 1;
                if machine.calmer_streak >= spec.clear_ticks {
                    crate::info!(
                        "slo {}: {} -> {} after {} calm ticks",
                        spec.name,
                        machine.state.as_str(),
                        target.as_str(),
                        machine.calmer_streak
                    );
                    machine.state = target;
                    machine.since_tick = now;
                    machine.calmer_streak = 0;
                }
            } else {
                machine.calmer_streak = 0;
            }
        }
        drop(machines);
        self.statuses()
    }

    /// The machines' standing as of the last [`SloEngine::evaluate`].
    pub fn statuses(&self) -> Vec<AlertStatus> {
        let machines = self.machines.lock();
        self.specs
            .iter()
            .zip(machines.iter())
            .map(|(spec, machine)| AlertStatus {
                name: spec.name.clone(),
                objective: spec.objective(),
                state: machine.state,
                burn_short: machine.burn_short,
                burn_long: machine.burn_long,
                since_tick: machine.since_tick,
            })
            .collect()
    }

    /// The worst current state across all specs (`ok` when empty).
    pub fn worst(&self) -> AlertState {
        self.machines
            .lock()
            .iter()
            .map(|m| m.state)
            .max()
            .unwrap_or(AlertState::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::timeline::TimelineConfig;
    use std::time::Duration;

    fn timeline() -> Timeline {
        Timeline::new(TimelineConfig {
            fine_capacity: 64,
            coarse_every: 1 << 32, // fine tier only
            coarse_capacity: 1,
        })
    }

    /// A latency spec with tight test windows: short 3, long 6 ticks,
    /// warn at 1x, page at 3x the 1 ms objective, 3 calm ticks to clear.
    fn tight_latency_spec() -> SloSpec {
        SloSpec {
            short_ticks: 3,
            long_ticks: 6,
            warn_burn: 1.0,
            page_burn: 3.0,
            clear_ticks: 3,
            ..SloSpec::latency_p99("lat.p99", "lat", 1_000_000.0)
        }
    }

    #[test]
    fn latency_spike_escalates_ok_warn_page_and_clears_with_hysteresis() {
        let registry = MetricsRegistry::new();
        let timeline = timeline();
        let engine = SloEngine::new(vec![tight_latency_spec()]);
        let h = registry.histogram("lat");
        let state_at = |engine: &SloEngine| engine.statuses()[0].state;

        // Healthy traffic: ~2µs requests, well under the 1ms objective.
        let mut tick = 0;
        for _ in 0..8 {
            tick += 1;
            h.record(Duration::from_micros(2));
            timeline.sample(tick, &registry);
            engine.evaluate(tick, &timeline);
            assert_eq!(state_at(&engine), AlertState::Ok);
        }

        // Degradation: ~600µs requests -> the p99 estimate tops out at
        // the (256µs, 1ms] bucket's upper bound, exactly the objective:
        // burn 1.0 on both windows — warn, but short of page (3x).
        for _ in 0..8 {
            tick += 1;
            for _ in 0..10 {
                h.record(Duration::from_micros(600));
            }
            timeline.sample(tick, &registry);
            engine.evaluate(tick, &timeline);
        }
        assert_eq!(state_at(&engine), AlertState::Warn, "sustained 600µs warns");

        // Outage: ~300ms requests burn far past page on both windows.
        for _ in 0..8 {
            tick += 1;
            for _ in 0..10 {
                h.record(Duration::from_millis(300));
            }
            timeline.sample(tick, &registry);
            engine.evaluate(tick, &timeline);
        }
        assert_eq!(state_at(&engine), AlertState::Page, "sustained 300ms pages");
        let paged_since = engine.statuses()[0].since_tick;
        assert!(paged_since > 0);

        // Recovery: healthy again, but hysteresis holds `page` for
        // `clear_ticks` calm evaluations before stepping down.
        for calm in 1..=2 {
            tick += 1;
            h.record(Duration::from_micros(2));
            timeline.sample(tick, &registry);
            engine.evaluate(tick, &timeline);
            assert_eq!(
                state_at(&engine),
                AlertState::Page,
                "still paged after {calm} calm ticks"
            );
        }
        // Third calm tick clears.  (The old spike left the long window
        // by now: windows look at bucket deltas, not the 60s ring.)
        for _ in 0..8 {
            tick += 1;
            h.record(Duration::from_micros(2));
            timeline.sample(tick, &registry);
            engine.evaluate(tick, &timeline);
        }
        assert_eq!(state_at(&engine), AlertState::Ok, "cleared after calm run");
        assert_eq!(engine.worst(), AlertState::Ok);
    }

    #[test]
    fn short_blip_does_not_page_because_long_window_dilutes() {
        let registry = MetricsRegistry::new();
        let timeline = timeline();
        let spec = SloSpec {
            long_ticks: 20,
            ..tight_latency_spec()
        };
        let engine = SloEngine::new(vec![spec]);
        let h = registry.histogram("lat");
        // A long healthy history...
        let mut tick = 0;
        for _ in 0..20 {
            tick += 1;
            for _ in 0..10 {
                h.record(Duration::from_micros(2));
            }
            timeline.sample(tick, &registry);
            engine.evaluate(tick, &timeline);
        }
        // ...then one bad tick: the short window burns but the long
        // window's p99 stays dominated by the healthy majority.
        tick += 1;
        h.record(Duration::from_millis(300));
        timeline.sample(tick, &registry);
        let status = &engine.evaluate(tick, &timeline)[0];
        assert!(status.burn_short > 3.0, "short window sees the blip");
        assert_eq!(status.state, AlertState::Ok, "long window gates paging");
    }

    #[test]
    fn rate_ratio_burns_against_error_budget() {
        let registry = MetricsRegistry::new();
        let timeline = timeline();
        let spec = SloSpec {
            short_ticks: 4,
            long_ticks: 8,
            ..SloSpec::rate_ratio(
                "errors",
                &["serve.responses.5xx"],
                &["serve.responses."],
                0.01,
            )
        };
        let engine = SloEngine::new(vec![spec]);
        let ok = registry.counter("serve.responses.2xx");
        let bad = registry.counter("serve.responses.5xx");
        timeline.sample(1, &registry);
        // 2% errors against a 1% budget: burn 2.0 on both windows.
        ok.add(98);
        bad.add(2);
        timeline.sample(2, &registry);
        let status = &engine.evaluate(2, &timeline)[0];
        assert!(
            (status.burn_short - 2.0).abs() < 1e-9,
            "{}",
            status.burn_short
        );
        assert_eq!(status.state, AlertState::Warn);
        // No traffic at all burns 0, not NaN.
        let idle = SloEngine::new(vec![SloSpec::rate_ratio(
            "idle",
            &["nope"],
            &["nothing."],
            0.01,
        )]);
        let status = &idle.evaluate(2, &timeline)[0];
        assert_eq!(status.burn_short, 0.0);
        assert_eq!(status.state, AlertState::Ok);
    }

    #[test]
    fn worst_reports_highest_severity_across_specs() {
        let registry = MetricsRegistry::new();
        let timeline = timeline();
        let engine = SloEngine::new(vec![
            tight_latency_spec(),
            SloSpec::rate_ratio("quiet", &["nope"], &["nothing."], 0.01),
        ]);
        let h = registry.histogram("lat");
        let mut tick = 0;
        for _ in 0..6 {
            tick += 1;
            for _ in 0..10 {
                h.record(Duration::from_millis(300));
            }
            timeline.sample(tick, &registry);
            engine.evaluate(tick, &timeline);
        }
        assert_eq!(engine.worst(), AlertState::Page);
        let statuses = engine.statuses();
        assert_eq!(statuses[1].state, AlertState::Ok, "quiet spec stays ok");
    }
}
