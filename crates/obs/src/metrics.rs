//! The process-global metrics registry: counters, gauges, duration
//! histograms and the aggregated span-phase tree.
//!
//! Registration (name -> handle) takes a short-lived lock on a `BTreeMap`;
//! the returned handles are `Arc`s whose updates are single atomic
//! operations, so hot paths that cache their handle are lock-free.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point measurement (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the gauge value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Upper bounds (inclusive, in nanoseconds) of the fixed histogram
/// buckets: 1µs to 4s in factor-4 steps, plus an overflow bucket.
pub const BUCKET_BOUNDS_NS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    256_000_000,
    1_000_000_000,
    4_000_000_000,
];

/// Number of slots in the sliding-window ring of a [`Histogram`].
pub const WINDOW_SLOTS: usize = 12;

/// Seconds covered by one window slot; the full window is
/// `WINDOW_SLOTS * WINDOW_SLOT_SECS` = 60 seconds.
pub const WINDOW_SLOT_SECS: u64 = 5;

/// The process-wide anchor that window periods are measured from.
fn window_anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// The current 5-second window period since process start.
fn current_period() -> u64 {
    window_anchor().elapsed().as_secs() / WINDOW_SLOT_SECS
}

/// One 5-second slot of a histogram's sliding window.
#[derive(Debug)]
struct WindowSlot {
    /// Which period the counts below belong to; `u64::MAX` = never used.
    period: AtomicU64,
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len() + 1],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for WindowSlot {
    fn default() -> Self {
        WindowSlot {
            period: AtomicU64::new(u64::MAX),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket duration histogram (lock-free recording) with both
/// cumulative-since-boot totals and a sliding 60-second window (a ring
/// of [`WINDOW_SLOTS`] five-second slots), so `/metrics` can expose
/// percentiles that reflect current load alongside lifetime totals.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len() + 1],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    window: [WindowSlot; WINDOW_SLOTS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            window: std::array::from_fn(|_| WindowSlot::default()),
        }
    }
}

impl Histogram {
    /// Records one duration observation.
    pub fn record(&self, d: Duration) {
        self.record_at_period(current_period(), d);
    }

    /// As [`Histogram::record`] with an explicit window period
    /// (deterministic tests; production recording uses the wall clock).
    pub fn record_at_period(&self, period: u64, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);

        // Sliding window: reclaim the ring slot if it still holds a past
        // period.  The reclaim is best-effort — a recorder racing the
        // slot turnover can lose one observation at the 5s boundary,
        // which is acceptable for a load-trend window.
        let slot = &self.window[(period % WINDOW_SLOTS as u64) as usize];
        let stamped = slot.period.load(Ordering::Acquire);
        if stamped != period {
            for b in &slot.buckets {
                b.store(0, Ordering::Relaxed);
            }
            slot.count.store(0, Ordering::Relaxed);
            slot.sum_ns.store(0, Ordering::Relaxed);
            let _ =
                slot.period
                    .compare_exchange(stamped, period, Ordering::AcqRel, Ordering::Relaxed);
        }
        slot.buckets[idx].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Largest observation in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, aligned with [`BUCKET_BOUNDS_NS`] plus the
    /// overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// `(bucket_counts, count, sum_ns)` over the live slots of the ring
    /// at `period` — everything recorded in the last 60 seconds.
    fn window_totals_at(&self, period: u64) -> (Vec<u64>, u64, u64) {
        let oldest = period.saturating_sub(WINDOW_SLOTS as u64 - 1);
        let mut buckets = vec![0u64; BUCKET_BOUNDS_NS.len() + 1];
        let mut count = 0u64;
        let mut sum_ns = 0u64;
        for slot in &self.window {
            let stamped = slot.period.load(Ordering::Acquire);
            if stamped == u64::MAX || stamped < oldest || stamped > period {
                continue;
            }
            for (total, b) in buckets.iter_mut().zip(&slot.buckets) {
                *total += b.load(Ordering::Relaxed);
            }
            count += slot.count.load(Ordering::Relaxed);
            sum_ns += slot.sum_ns.load(Ordering::Relaxed);
        }
        (buckets, count, sum_ns)
    }

    /// Discards the sliding-window ring, leaving the cumulative totals
    /// untouched.  The serving daemon calls this (via
    /// [`MetricsRegistry::reset_histogram_windows`]) when a snapshot
    /// hot-swap replaces the served epoch: latencies measured against
    /// the old snapshot must not leak into the new epoch's "now" view.
    pub fn reset_window(&self) {
        for slot in &self.window {
            // Stamp first: a recorder racing this reset sees a stale
            // period and re-zeroes the slot before adding its own
            // observation, so the worst case is one lost sample.
            slot.period.store(u64::MAX, Ordering::Release);
            for b in &slot.buckets {
                b.store(0, Ordering::Relaxed);
            }
            slot.count.store(0, Ordering::Relaxed);
            slot.sum_ns.store(0, Ordering::Relaxed);
        }
    }

    /// Per-bucket counts over the sliding 60-second window.
    pub fn window_bucket_counts(&self) -> Vec<u64> {
        self.window_totals_at(current_period()).0
    }

    /// Observations recorded in the sliding 60-second window.
    pub fn window_count(&self) -> u64 {
        self.window_totals_at(current_period()).1
    }

    /// Sum (nanoseconds) of observations in the sliding 60-second window.
    pub fn window_sum_ns(&self) -> u64 {
        self.window_totals_at(current_period()).2
    }
}

/// Aggregated span timings and resource attribution for one phase path.
#[derive(Debug, Default)]
pub(crate) struct PhaseAgg {
    pub(crate) total_ns: AtomicU64,
    pub(crate) calls: AtomicU64,
    /// Bytes allocated on the recording thread, summed over calls.
    pub(crate) alloc_bytes: AtomicU64,
    /// Allocation calls on the recording thread, summed over calls.
    pub(crate) allocs: AtomicU64,
    /// Highest live-byte watermark any single call saw.
    pub(crate) peak_live_bytes: AtomicU64,
}

/// One row of [`MetricsRegistry::phases_snapshot_full`]: a phase path
/// with its aggregated wall-clock and allocator attribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseRow {
    /// Full `/`-separated phase path.
    pub path: String,
    /// Total wall-clock nanoseconds across calls.
    pub total_ns: u64,
    /// Spans recorded at this path.
    pub calls: u64,
    /// Bytes allocated while spans at this path were open (recording
    /// thread only), summed over calls.
    pub alloc_bytes: u64,
    /// Allocation calls while spans at this path were open.
    pub allocs: u64,
    /// Highest live-byte watermark any single call saw.
    pub peak_live_bytes: u64,
}

/// The process-global registry behind [`global`].
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    phases: RwLock<BTreeMap<String, Arc<PhaseAgg>>>,
}

fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(existing) = map.read().get(name) {
        return Arc::clone(existing);
    }
    Arc::clone(map.write().entry(name.to_string()).or_default())
}

impl MetricsRegistry {
    /// Creates an empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// Returns (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// Returns (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Folds one span duration into the phase aggregate at `path`.
    pub fn record_phase(&self, path: &str, d: Duration) {
        self.record_phase_resources(path, d, crate::alloc::SpanResources::default());
    }

    /// Folds one span duration plus its allocator attribution into the
    /// phase aggregate at `path`.  [`crate::Span`] and
    /// [`crate::TimedScope`] call this with the deltas of the span's
    /// [`crate::alloc::checkpoint`] window.
    pub fn record_phase_resources(
        &self,
        path: &str,
        d: Duration,
        resources: crate::alloc::SpanResources,
    ) {
        let agg = get_or_insert(&self.phases, path);
        agg.total_ns
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        agg.calls.fetch_add(1, Ordering::Relaxed);
        agg.alloc_bytes
            .fetch_add(resources.alloc_bytes, Ordering::Relaxed);
        agg.allocs.fetch_add(resources.allocs, Ordering::Relaxed);
        agg.peak_live_bytes
            .fetch_max(resources.peak_live_bytes, Ordering::Relaxed);
    }

    /// Sorted `(name, value)` snapshot of all counters.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    /// Sorted `(name, value)` snapshot of all gauges.
    pub fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        self.gauges
            .read()
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect()
    }

    /// Sorted `(name, histogram)` snapshot of all histograms.
    pub fn histograms_snapshot(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .read()
            .iter()
            .map(|(name, h)| (name.clone(), Arc::clone(h)))
            .collect()
    }

    /// Sorted `(path, total_ns, calls)` snapshot of the phase tree.
    pub fn phases_snapshot(&self) -> Vec<(String, u64, u64)> {
        self.phases_snapshot_full()
            .into_iter()
            .map(|row| (row.path, row.total_ns, row.calls))
            .collect()
    }

    /// Sorted snapshot of the phase tree with allocator attribution.
    pub fn phases_snapshot_full(&self) -> Vec<PhaseRow> {
        self.phases
            .read()
            .iter()
            .map(|(path, agg)| PhaseRow {
                path: path.clone(),
                total_ns: agg.total_ns.load(Ordering::Relaxed),
                calls: agg.calls.load(Ordering::Relaxed),
                alloc_bytes: agg.alloc_bytes.load(Ordering::Relaxed),
                allocs: agg.allocs.load(Ordering::Relaxed),
                peak_live_bytes: agg.peak_live_bytes.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Resets the sliding 60-second window of every histogram whose
    /// name starts with `prefix`, leaving cumulative totals untouched.
    /// Returns how many histograms were reset.  The serving daemon
    /// calls this with `"serve.latency."` on snapshot hot-swaps.
    pub fn reset_histogram_windows(&self, prefix: &str) -> usize {
        let mut reset = 0;
        for (name, histogram) in self.histograms.read().iter() {
            if name.starts_with(prefix) {
                histogram.reset_window();
                reset += 1;
            }
        }
        reset
    }

    /// Clears every metric and phase aggregate.  The CLI
    /// calls this once before a profiled run so the exported
    /// [`crate::RunProfile`] covers exactly one command.
    pub fn reset(&self) {
        self.counters.write().clear();
        self.gauges.write().clear();
        self.histograms.write().clear();
        self.phases.write().clear();
    }
}

/// The process-global registry every span, counter and the CLI report to.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(registry.counter("c").get(), 5);
        registry.gauge("g").set(2.5);
        assert_eq!(registry.gauge("g").get(), 2.5);
        assert_eq!(registry.counters_snapshot(), vec![("c".to_string(), 5)]);
    }

    #[test]
    fn histogram_buckets_cover_all_magnitudes() {
        let h = Histogram::default();
        h.record(Duration::from_nanos(500)); // bucket 0 (<= 1µs)
        h.record(Duration::from_micros(100)); // <= 256µs
        h.record(Duration::from_millis(2)); // <= 4ms
        h.record(Duration::from_secs(60)); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_ns(), 60_000_000_000);
        let buckets = h.bucket_counts();
        assert_eq!(buckets.iter().sum::<u64>(), 4);
        assert_eq!(buckets[0], 1);
        assert_eq!(*buckets.last().unwrap(), 1);
    }

    #[test]
    fn phase_aggregation_sums_durations_and_calls() {
        let registry = MetricsRegistry::new();
        registry.record_phase("a/b", Duration::from_nanos(10));
        registry.record_phase("a/b", Duration::from_nanos(30));
        registry.record_phase("a", Duration::from_nanos(50));
        assert_eq!(
            registry.phases_snapshot(),
            vec![("a".to_string(), 50, 1), ("a/b".to_string(), 40, 2)]
        );
    }

    #[test]
    fn reset_clears_everything() {
        let registry = MetricsRegistry::new();
        registry.counter("x").inc();
        registry.record_phase("p", Duration::from_nanos(1));
        registry.reset();
        assert!(registry.counters_snapshot().is_empty());
        assert!(registry.phases_snapshot().is_empty());
    }

    #[test]
    fn window_tracks_only_recent_periods() {
        let h = Histogram::default();
        // Two observations in period 0, one in period 3.
        h.record_at_period(0, Duration::from_nanos(500));
        h.record_at_period(0, Duration::from_micros(100));
        h.record_at_period(3, Duration::from_millis(2));
        // At period 3 everything is within the 12-slot window.
        let (buckets, count, sum) = h.window_totals_at(3);
        assert_eq!(count, 3);
        assert_eq!(buckets.iter().sum::<u64>(), 3);
        assert_eq!(sum, 500 + 100_000 + 2_000_000);
        // Far in the future only period 3 survives ...
        let (_, count, sum) = h.window_totals_at(3 + WINDOW_SLOTS as u64 - 1);
        assert_eq!(count, 1);
        assert_eq!(sum, 2_000_000);
        // ... and later still the window is empty, while the cumulative
        // totals keep everything.
        let (_, count, _) = h.window_totals_at(100);
        assert_eq!(count, 0);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn phase_resources_sum_and_max() {
        let registry = MetricsRegistry::new();
        let res = |bytes, allocs, peak| crate::alloc::SpanResources {
            alloc_bytes: bytes,
            allocs,
            peak_live_bytes: peak,
        };
        registry.record_phase_resources("f/v", Duration::from_nanos(5), res(100, 2, 900));
        registry.record_phase_resources("f/v", Duration::from_nanos(5), res(50, 1, 400));
        let rows = registry.phases_snapshot_full();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].path, "f/v");
        assert_eq!(rows[0].calls, 2);
        assert_eq!(rows[0].alloc_bytes, 150);
        assert_eq!(rows[0].allocs, 3);
        assert_eq!(rows[0].peak_live_bytes, 900, "peak is a max, not a sum");
    }

    #[test]
    fn window_reset_clears_ring_but_keeps_totals() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("serve.latency.groups");
        h.record_at_period(3, Duration::from_micros(10));
        h.record_at_period(3, Duration::from_micros(20));
        assert_eq!(h.window_totals_at(3).1, 2);
        let other = registry.histogram("detect.match_root");
        other.record_at_period(3, Duration::from_micros(5));
        assert_eq!(registry.reset_histogram_windows("serve.latency."), 1);
        assert_eq!(h.window_totals_at(3).1, 0, "window cleared");
        assert_eq!(h.count(), 2, "cumulative totals survive");
        assert_eq!(other.window_totals_at(3).1, 1, "other prefixes untouched");
        // New observations land cleanly in the reset ring.
        h.record_at_period(4, Duration::from_micros(30));
        assert_eq!(h.window_totals_at(4).1, 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn idle_gap_longer_than_window_excludes_every_stale_slot() {
        let h = Histogram::default();
        // Fill several slots, then go idle for much longer than the
        // full window (several ring revolutions), then record again.
        // The ring slots still stamped with pre-gap periods must not
        // leak into the window totals — only the post-gap observation
        // counts, even though most slots were never physically
        // reclaimed by a recorder landing on them.
        for period in 0..4 {
            h.record_at_period(period, Duration::from_micros(10));
        }
        let resume = 4 + 3 * WINDOW_SLOTS as u64 + 1;
        h.record_at_period(resume, Duration::from_millis(7));
        let (buckets, count, sum) = h.window_totals_at(resume);
        assert_eq!(count, 1, "stale pre-gap slots leaked into the window");
        assert_eq!(sum, 7_000_000);
        assert_eq!(buckets.iter().sum::<u64>(), 1);
        // Cumulative totals still remember everything.
        assert_eq!(h.count(), 5);
        // The pre-gap observations stay visible *at their own time*:
        // totals evaluated inside the original window still see them.
        let (_, old_count, _) = h.window_totals_at(3);
        assert_eq!(old_count, 4);
    }

    #[test]
    fn window_ring_slot_is_reclaimed_after_wraparound() {
        let h = Histogram::default();
        h.record_at_period(1, Duration::from_nanos(10));
        // Period 1 + WINDOW_SLOTS lands on the same ring slot; the old
        // counts must be discarded, not added to.
        h.record_at_period(1 + WINDOW_SLOTS as u64, Duration::from_nanos(20));
        let (_, count, sum) = h.window_totals_at(1 + WINDOW_SLOTS as u64);
        assert_eq!(count, 1);
        assert_eq!(sum, 20);
        assert_eq!(h.count(), 2);
    }
}
