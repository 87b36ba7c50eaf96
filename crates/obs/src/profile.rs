//! [`RunProfile`]: a point-in-time snapshot of the global registry with
//! a human-readable table renderer (for `--profile`) and a JSON
//! exporter (for `--metrics-out`).

use crate::json::Json;
use crate::metrics::{MetricsRegistry, PhaseRow, BUCKET_BOUNDS_NS};
use serde::{Deserialize, Serialize};

/// One node of the phase timing tree.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Leaf name (last `/`-segment of the path).
    pub name: String,
    /// Full `/`-separated path.
    pub path: String,
    /// Total wall-clock nanoseconds across all calls.
    pub total_ns: u64,
    /// Number of spans recorded at this path.
    pub calls: u64,
    /// Bytes allocated on the recording thread while spans at this
    /// path were open, summed over calls.
    #[serde(default)]
    pub alloc_bytes: u64,
    /// Allocation calls attributed to this phase.
    #[serde(default)]
    pub allocs: u64,
    /// Highest live-heap watermark any single call at this path saw on
    /// its recording thread (a max, not a sum).
    #[serde(default)]
    pub peak_live_bytes: u64,
    /// Child phases, ordered by path.
    pub children: Vec<PhaseProfile>,
}

/// A histogram snapshot: bucket counts aligned with
/// [`BUCKET_BOUNDS_NS`] plus one overflow bucket.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registered histogram name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations in nanoseconds.
    pub sum_ns: u64,
    /// Largest observation in nanoseconds.
    pub max_ns: u64,
    /// Per-bucket observation counts.
    pub buckets: Vec<u64>,
}

/// Everything a profiled run recorded, ready to render or export.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunProfile {
    /// Root phases of the timing tree.
    pub phases: Vec<PhaseProfile>,
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl RunProfile {
    /// Snapshots the process-global registry.
    pub fn capture() -> RunProfile {
        RunProfile::capture_from(crate::metrics::global())
    }

    /// Snapshots an explicit registry (tests).
    pub fn capture_from(registry: &MetricsRegistry) -> RunProfile {
        RunProfile {
            phases: build_tree(registry.phases_snapshot_full()),
            counters: registry.counters_snapshot(),
            gauges: registry.gauges_snapshot(),
            histograms: registry
                .histograms_snapshot()
                .into_iter()
                .map(|(name, h)| HistogramSnapshot {
                    name,
                    count: h.count(),
                    sum_ns: h.sum_ns(),
                    max_ns: h.max_ns(),
                    buckets: h.bucket_counts(),
                })
                .collect(),
        }
    }

    /// Finds a phase by its full `/`-separated path.
    pub fn phase(&self, path: &str) -> Option<&PhaseProfile> {
        fn walk<'a>(nodes: &'a [PhaseProfile], path: &str) -> Option<&'a PhaseProfile> {
            for node in nodes {
                if node.path == path {
                    return Some(node);
                }
                if path.starts_with(&node.path)
                    && path.as_bytes().get(node.path.len()) == Some(&b'/')
                {
                    return walk(&node.children, path);
                }
            }
            None
        }
        walk(&self.phases, path)
    }

    /// Renders the phase-timing table (plus a counter section when
    /// present) for `--profile` output.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>12} {:>8} {:>12} {:>10} {:>9} {:>10}\n",
            "phase", "total", "calls", "mean", "alloc", "allocs", "peak"
        ));
        fn render_nodes(out: &mut String, nodes: &[PhaseProfile], depth: usize) {
            for node in nodes {
                let label = format!("{}{}", "  ".repeat(depth), node.name);
                let mean = node.total_ns.checked_div(node.calls).unwrap_or(0);
                out.push_str(&format!(
                    "{:<40} {:>12} {:>8} {:>12} {:>10} {:>9} {:>10}\n",
                    label,
                    fmt_ns(node.total_ns),
                    node.calls,
                    fmt_ns(mean),
                    fmt_bytes(node.alloc_bytes),
                    node.allocs,
                    fmt_bytes(node.peak_live_bytes)
                ));
                render_nodes(out, &node.children, depth + 1);
            }
        }
        render_nodes(&mut out, &self.phases, 0);
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<40} {:>12}\n", "counter", "value"));
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<40} {value:>12}\n"));
            }
        }
        out
    }

    /// Exports the whole profile as a JSON value.
    pub fn to_json(&self) -> Json {
        fn phase_json(node: &PhaseProfile) -> Json {
            Json::Object(vec![
                ("name".to_string(), Json::Str(node.name.clone())),
                ("path".to_string(), Json::Str(node.path.clone())),
                ("total_ns".to_string(), Json::Int(node.total_ns)),
                ("calls".to_string(), Json::Int(node.calls)),
                ("alloc_bytes".to_string(), Json::Int(node.alloc_bytes)),
                ("allocs".to_string(), Json::Int(node.allocs)),
                (
                    "peak_live_bytes".to_string(),
                    Json::Int(node.peak_live_bytes),
                ),
                (
                    "children".to_string(),
                    Json::Array(node.children.iter().map(phase_json).collect()),
                ),
            ])
        }
        Json::Object(vec![
            (
                "phases".to_string(),
                Json::Array(self.phases.iter().map(phase_json).collect()),
            ),
            (
                "counters".to_string(),
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::Int(*value)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Json::Object(
                    self.gauges
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::Float(*value)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Json::Array(
                    self.histograms
                        .iter()
                        .map(|h| {
                            Json::Object(vec![
                                ("name".to_string(), Json::Str(h.name.clone())),
                                ("count".to_string(), Json::Int(h.count)),
                                ("sum_ns".to_string(), Json::Int(h.sum_ns)),
                                ("max_ns".to_string(), Json::Int(h.max_ns)),
                                (
                                    "bucket_bounds_ns".to_string(),
                                    Json::Array(
                                        BUCKET_BOUNDS_NS.iter().map(|&b| Json::Int(b)).collect(),
                                    ),
                                ),
                                (
                                    "buckets".to_string(),
                                    Json::Array(h.buckets.iter().map(|&c| Json::Int(c)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Builds the phase tree from sorted [`PhaseRow`]s.
/// A child path whose parent was never recorded directly (e.g. only
/// `detect/score` was recorded, not `detect`) gets a zero-duration
/// parent node so the tree stays connected.
fn build_tree(rows: Vec<PhaseRow>) -> Vec<PhaseProfile> {
    let mut roots: Vec<PhaseProfile> = Vec::new();
    for row in rows {
        insert(&mut roots, &row.path, &row);
    }
    roots
}

fn insert(nodes: &mut Vec<PhaseProfile>, path: &str, row: &PhaseRow) {
    // Walk down one level at a time, materialising missing ancestors.
    let mut level = nodes;
    let mut consumed = 0usize;
    loop {
        let rest = &path[consumed..];
        let (segment, is_leaf) = match rest.find('/') {
            Some(i) => (&rest[..i], false),
            None => (rest, true),
        };
        let node_path_len = consumed + segment.len();
        let node_path = &path[..node_path_len];
        let idx = match level.iter().position(|n| n.path == node_path) {
            Some(idx) => idx,
            None => {
                level.push(PhaseProfile {
                    name: segment.to_string(),
                    path: node_path.to_string(),
                    total_ns: 0,
                    calls: 0,
                    alloc_bytes: 0,
                    allocs: 0,
                    peak_live_bytes: 0,
                    children: Vec::new(),
                });
                level.len() - 1
            }
        };
        if is_leaf {
            level[idx].total_ns += row.total_ns;
            level[idx].calls += row.calls;
            level[idx].alloc_bytes += row.alloc_bytes;
            level[idx].allocs += row.allocs;
            level[idx].peak_live_bytes = level[idx].peak_live_bytes.max(row.peak_live_bytes);
            return;
        }
        consumed = node_path_len + 1;
        level = &mut level[idx].children;
    }
}

/// Formats a byte count with an adaptive unit.
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{:.2}GiB", bytes as f64 / (1u64 << 30) as f64)
    } else if bytes >= 1 << 20 {
        format!("{:.2}MiB", bytes as f64 / (1u64 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1}KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes}B")
    }
}

/// Formats a nanosecond count with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn row(path: &str, total_ns: u64, calls: u64) -> PhaseRow {
        PhaseRow {
            path: path.to_string(),
            total_ns,
            calls,
            ..PhaseRow::default()
        }
    }

    #[test]
    fn tree_materialises_missing_parents() {
        let rows = vec![
            row("detect/score", 40, 4),
            row("fusion", 100, 1),
            row("fusion/validate", 60, 1),
        ];
        let tree = build_tree(rows);
        assert_eq!(tree.len(), 2);
        let detect = tree.iter().find(|n| n.path == "detect").unwrap();
        assert_eq!(detect.calls, 0);
        assert_eq!(detect.children[0].path, "detect/score");
        assert_eq!(detect.children[0].total_ns, 40);
        let fusion = tree.iter().find(|n| n.path == "fusion").unwrap();
        assert_eq!(fusion.total_ns, 100);
        assert_eq!(fusion.children[0].name, "validate");
    }

    #[test]
    fn capture_renders_and_exports() {
        let registry = MetricsRegistry::new();
        registry.record_phase("fusion", Duration::from_millis(5));
        registry.record_phase("fusion/validate", Duration::from_millis(2));
        registry.counter("arcs_dropped").add(7);
        registry.gauge("suspicious_fraction").set(0.05);
        registry
            .histogram("match_root")
            .record(Duration::from_micros(3));
        let profile = RunProfile::capture_from(&registry);
        assert_eq!(profile.phase("fusion/validate").unwrap().calls, 1);
        assert!(profile.phase("fusion/missing").is_none());

        let table = profile.render_table();
        assert!(table.contains("fusion"));
        assert!(table.contains("  validate"));
        assert!(table.contains("arcs_dropped"));

        let json = profile.to_json().to_pretty();
        assert!(json.contains("\"path\": \"fusion/validate\""));
        assert!(json.contains("\"arcs_dropped\": 7"));
        assert!(json.contains("\"suspicious_fraction\": 0.05"));
        assert!(json.contains("\"match_root\""));
    }

    #[test]
    fn fmt_ns_picks_unit() {
        assert_eq!(fmt_ns(750), "750ns");
        assert_eq!(fmt_ns(2_500), "2.5us");
        assert_eq!(fmt_ns(3_000_000), "3.000ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.500s");
    }
}
