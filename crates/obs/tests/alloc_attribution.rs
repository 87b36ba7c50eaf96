//! Allocator attribution through the span layer: spans must report the
//! bytes and allocation calls made while they were open, and nested
//! spans must fold consistently into their parents.
//!
//! Every test records under a unique path in the process-global
//! registry (integration-test binaries get their own process, but the
//! tests within it share the registry and run concurrently).

use std::sync::atomic::{AtomicU64, Ordering};
use tpiin_obs::{global, set_profiling, Span, TimedScope};

use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

fn unique_path(stem: &str) -> String {
    format!("alloc_attr/{stem}{}", CASE.fetch_add(1, Ordering::Relaxed))
}

#[test]
fn span_reports_boxed_allocations() {
    set_profiling(true);
    let path = unique_path("boxed");
    const N: usize = 32;
    const SIZE: usize = 2048;
    {
        let _span = Span::at(&path);
        let held: Vec<Box<[u8; SIZE]>> = (0..N).map(|_| Box::new([0u8; SIZE])).collect();
        assert_eq!(held.len(), N);
    }
    let rows = global().phases_snapshot_full();
    let row = rows
        .iter()
        .find(|r| r.path == path)
        .expect("span recorded a phase row");
    assert!(row.allocs >= N as u64, "allocs = {}", row.allocs);
    assert!(
        row.alloc_bytes >= (N * SIZE) as u64,
        "alloc_bytes = {}",
        row.alloc_bytes
    );
    // Plausibility ceiling: the span allocated N boxes plus the Vec's
    // backing storage and a handful of incidental allocations — not
    // megabytes beyond it.
    assert!(
        row.alloc_bytes < (N * SIZE) as u64 + 1_048_576,
        "alloc_bytes = {} is implausibly large",
        row.alloc_bytes
    );
    // All N boxes were live at once, so the peak watermark must have
    // been at least their combined size.
    assert!(
        row.peak_live_bytes >= (N * SIZE) as u64,
        "peak_live_bytes = {}",
        row.peak_live_bytes
    );
}

#[test]
fn timed_scope_reports_resources() {
    set_profiling(true);
    let path = unique_path("scope");
    let scope = TimedScope::start();
    // `black_box` keeps the optimiser from eliding the allocation, whose
    // only other use is a constant length.
    let buffer = std::hint::black_box(vec![1u8; 100_000]);
    assert_eq!(buffer.len(), 100_000);
    drop(buffer);
    scope.finish(&path);
    let rows = global().phases_snapshot_full();
    let row = rows.iter().find(|r| r.path == path).expect("scope row");
    assert!(row.alloc_bytes >= 100_000, "bytes = {}", row.alloc_bytes);
    assert!(row.allocs >= 1);
    assert!(row.peak_live_bytes >= 100_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Nested child spans' counters must sum consistently into the
    /// parent: the parent's byte/call counts are supersets of the
    /// children's combined counts (the thread-local counters are
    /// cumulative), and the parent's peak watermark dominates every
    /// child's (the save/reset/fold protocol).
    #[test]
    fn nested_spans_sum_consistently(sizes in proptest::collection::vec(1usize..4096, 1..8)) {
        set_profiling(true);
        let parent_path = unique_path("nest");
        {
            let _parent = Span::at(&parent_path);
            for (i, &size) in sizes.iter().enumerate() {
                let _child = Span::at(&format!("{parent_path}/c{i}"));
                let buffer = vec![0u8; size];
                prop_assert_eq!(buffer.len(), size);
            }
        }
        let rows = global().phases_snapshot_full();
        let parent = rows
            .iter()
            .find(|r| r.path == parent_path)
            .expect("parent row");
        let child_prefix = format!("{parent_path}/");
        let children: Vec<_> = rows
            .iter()
            .filter(|r| r.path.starts_with(&child_prefix))
            .collect();
        prop_assert_eq!(children.len(), sizes.len());
        let child_bytes: u64 = children.iter().map(|r| r.alloc_bytes).sum();
        let child_allocs: u64 = children.iter().map(|r| r.allocs).sum();
        let max_child_peak = children.iter().map(|r| r.peak_live_bytes).max().unwrap_or(0);
        prop_assert!(
            parent.alloc_bytes >= child_bytes,
            "parent bytes {} < children {}", parent.alloc_bytes, child_bytes
        );
        prop_assert!(
            parent.allocs >= child_allocs,
            "parent allocs {} < children {}", parent.allocs, child_allocs
        );
        // Each child allocated `size` bytes, so collectively at least
        // the sum must be attributed somewhere under the parent.
        let total: u64 = sizes.iter().map(|&s| s as u64).sum();
        prop_assert!(parent.alloc_bytes >= total);
        prop_assert!(
            parent.peak_live_bytes >= max_child_peak,
            "parent peak {} < child peak {}", parent.peak_live_bytes, max_child_peak
        );
    }
}
