//! # tpiin-obs — observability substrate for the TPIIN pipeline
//!
//! The paper's evaluation is entirely about per-stage numbers (graph
//! sizes after each fusion stage, segmentation counts, pattern-tree and
//! matching timings), so every crate in this workspace reports into one
//! lightweight, zero-external-dependency layer:
//!
//! * [`MetricsRegistry`] — a process-global registry of lock-free
//!   [`Counter`]s, [`Gauge`]s and fixed-bucket duration [`Histogram`]s.
//!   Handles are `Arc`s; after first registration every update is a
//!   single atomic operation.
//! * [`Span`] — RAII phase timers with parent/child nesting.  Spans
//!   aggregate into a per-phase timing tree keyed by `/`-separated
//!   paths (`fusion/validate`, `detect/match_patterns`, …).  With
//!   profiling off ([`set_profiling`]) a span is one relaxed atomic
//!   load — cheap enough to leave compiled into every hot path.
//! * [`log`] — a leveled stderr logger controlled by the `TPIIN_LOG`
//!   environment variable or [`log::set_level`].
//! * [`RunProfile`] — a snapshot of everything above (phase tree,
//!   counters, gauges, histograms) with a
//!   human-readable table renderer and a JSON exporter.
//! * [`mod@trace`] — per-run / per-request [`TraceContext`]s: 128-bit
//!   trace ids, a thread-safe completed-span buffer fed by the same
//!   [`Span`]s that build the phase tree, and a Chrome `trace_event`
//!   JSON exporter so any run opens in Perfetto / `chrome://tracing`.
//!
//! Phase names map onto the paper's algorithms: the fusion stages
//! `validate → contract_persons → contract_sccs → attach_trading →
//! verify_dag` follow Section 4.1, and the detection phases
//! `segment → build_tree → match_patterns → score` follow Algorithm 1
//! (segmentation) and Algorithm 2 (patterns tree + matching).

pub mod alloc;
pub mod expo;
pub mod json;
pub mod log;
pub mod metrics;
pub mod proc;
pub mod profile;
pub mod slo;
pub mod span;
pub mod timeline;
pub mod trace;

pub use alloc::{AllocStats, SpanResources};
pub use expo::text_exposition;
pub use json::Json;
pub use log::Level;
pub use metrics::{global, Counter, Gauge, Histogram, MetricsRegistry, PhaseRow};
pub use proc::ProcSample;
pub use profile::{HistogramSnapshot, PhaseProfile, RunProfile};
pub use slo::{AlertState, AlertStatus, SloEngine, SloKind, SloSpec};
pub use span::{Span, TimedScope};
pub use timeline::{HistDelta, HistPoint, Timeline, TimelineConfig, TimelinePoint};
pub use trace::{
    current_trace, install_thread_trace, set_active_trace, tracing_enabled, TraceContext,
    TraceEvent, TraceId,
};

use std::sync::atomic::{AtomicBool, Ordering};

static PROFILING: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables span/metric recording.  Off by default;
/// the CLI turns it on for `--profile` / `--metrics-out` runs.
pub fn set_profiling(enabled: bool) {
    PROFILING.store(enabled, Ordering::Relaxed);
}

/// Whether spans and metrics currently record into the global registry.
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}
