//! RAII span timers.
//!
//! A [`Span`] measures the wall-clock time between construction and drop
//! and folds it into the global phase tree
//! ([`MetricsRegistry::record_phase`]); when a trace context is
//! installed ([`mod@crate::trace`]) the same span is also appended to the
//! trace's event buffer, so one instrumentation point feeds both the
//! aggregate profile and the per-run/per-request timeline.  Two
//! constructors cover the pipeline:
//!
//! * [`Span::enter`] nests under whatever span is already open on the
//!   *current thread* (a thread-local path stack), so sequential code
//!   gets a parent/child tree for free.
//! * [`Span::at`] records under an explicit absolute path, which keeps
//!   a phase's name fixed wherever it is opened from (the detector's
//!   `detect/*` phases, a request handled on any daemon worker).
//!
//! When both profiling ([`crate::set_profiling`]) and tracing are
//! disabled, every constructor costs one relaxed atomic load each and
//! records nothing.

use crate::alloc::{checkpoint, consume, AllocCheckpoint};
use crate::metrics::{global, MetricsRegistry};
use crate::profiling_enabled;
use crate::trace::{current_trace, tracing_enabled};
use std::cell::RefCell;
use std::time::{Duration, Instant};

thread_local! {
    static CURRENT_PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// An RAII timer that records into the global phase tree on drop.
#[must_use = "a span records its phase when dropped; binding it to `_` drops it immediately"]
pub struct Span {
    /// `None` when both profiling and tracing are off — drop is then a
    /// no-op.
    active: Option<SpanInner>,
}

struct SpanInner {
    path: String,
    /// Byte length of the thread-local path before this span opened;
    /// restored on drop.  `None` for absolute ([`Span::at`]) spans,
    /// which leave the thread-local stack untouched.
    saved_len: Option<usize>,
    started: Instant,
    /// The allocator-ledger position at open; diffed on drop so the
    /// phase aggregate carries bytes/allocs/peak next to wall time.
    alloc_start: AllocCheckpoint,
}

fn recording() -> bool {
    profiling_enabled() || tracing_enabled()
}

impl Span {
    /// Opens a span named `name` nested under the current thread's
    /// innermost open span (if any).
    pub fn enter(name: &str) -> Span {
        if !recording() {
            return Span { active: None };
        }
        let (path, saved_len) = CURRENT_PATH.with(|current| {
            let mut current = current.borrow_mut();
            let saved_len = current.len();
            if !current.is_empty() {
                current.push('/');
            }
            current.push_str(name);
            (current.clone(), saved_len)
        });
        Span {
            active: Some(SpanInner {
                path,
                saved_len: Some(saved_len),
                started: Instant::now(),
                alloc_start: checkpoint(),
            }),
        }
    }

    /// Opens a span at the absolute `path`, independent of any
    /// thread-local nesting, so the phase name is the same wherever
    /// the span opens.
    pub fn at(path: &str) -> Span {
        if !recording() {
            return Span { active: None };
        }
        Span {
            active: Some(SpanInner {
                path: path.to_string(),
                saved_len: None,
                started: Instant::now(),
                alloc_start: checkpoint(),
            }),
        }
    }

    /// The full `/`-separated path this span records under, or `None`
    /// when neither profiling nor tracing was on at construction.
    pub fn path(&self) -> Option<&str> {
        self.active.as_ref().map(|inner| inner.path.as_str())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.active.take() else {
            return;
        };
        let elapsed = inner.started.elapsed();
        // Always consume the checkpoint (it restores the thread's peak
        // watermark), even if profiling was switched off mid-span.
        let resources = consume(inner.alloc_start);
        if let Some(saved_len) = inner.saved_len {
            CURRENT_PATH.with(|current| current.borrow_mut().truncate(saved_len));
        }
        if profiling_enabled() {
            global().record_phase_resources(&inner.path, elapsed, resources);
        }
        if let Some(trace) = current_trace() {
            trace.record_span(&inner.path, inner.started, elapsed);
        }
    }
}

/// A scope timer that *always* measures and hands the duration back,
/// recording into a registry only when profiling is on (and into the
/// current trace context only when tracing is on).
///
/// Fusion uses this for `FusionReport::stage_timings`, which must be
/// populated on every run regardless of `--profile`.
pub struct TimedScope {
    started: Instant,
    alloc_start: AllocCheckpoint,
}

impl TimedScope {
    /// Starts measuring.
    pub fn start() -> TimedScope {
        TimedScope {
            started: Instant::now(),
            alloc_start: checkpoint(),
        }
    }

    /// Stops measuring, records under `path` in the global registry when
    /// profiling is enabled, and returns the elapsed duration either way.
    pub fn finish(self, path: &str) -> Duration {
        self.finish_into(global(), path)
    }

    /// As [`TimedScope::finish`], against an explicit registry (tests).
    pub fn finish_into(self, registry: &MetricsRegistry, path: &str) -> Duration {
        let elapsed = self.started.elapsed();
        // Consumed unconditionally to keep the thread's peak-watermark
        // stack balanced (scopes nest like spans do).
        let resources = consume(self.alloc_start);
        if profiling_enabled() {
            registry.record_phase_resources(path, elapsed, resources);
        }
        if let Some(trace) = current_trace() {
            trace.record_span(path, self.started, elapsed);
        }
        elapsed
    }
}
