//! Immutable serving snapshots with atomic hot swap.
//!
//! A [`ServeSnapshot`] bundles everything one request needs — the fused
//! TPIIN, a full detection result and a label index — behind an `Arc`.
//! The [`SnapshotStore`] holds the current snapshot under a `RwLock`
//! taken only long enough to clone the `Arc`: readers never block each
//! other, never block on detection, and in-flight requests keep serving
//! the epoch they started on while a reload or ingest swaps a newer
//! snapshot in behind them.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use tpiin_core::{mine_with_obs, DetectionResult, MineContext, MinerRegistry, RULES_MINER};
use tpiin_delta::DeltaEngine;
use tpiin_fusion::Tpiin;
use tpiin_graph::NodeId;

/// One immutable epoch of the served network.
pub struct ServeSnapshot {
    /// Monotone generation counter; bumps on every swap.
    pub epoch: u64,
    /// The fused network this epoch serves.
    pub tpiin: Tpiin,
    /// Full detection over `tpiin`, keyed by miner name in request
    /// order.  The first is the primary strategy (the Rule 1/Rule 2
    /// detector unless `--miner` says otherwise);
    /// `/groups?miner=...` selects the others.
    pub detections: Vec<(String, DetectionResult)>,
    /// Label -> node index for query-by-label endpoints.
    labels: BTreeMap<String, NodeId>,
}

impl ServeSnapshot {
    /// Runs the default serving miner set
    /// ([`MinerRegistry::with_defaults`]: Rule 1/Rule 2 plus
    /// circular trading) over `tpiin` and indexes its labels.
    pub fn build(epoch: u64, tpiin: Tpiin) -> ServeSnapshot {
        ServeSnapshot::build_with(epoch, tpiin, &MinerRegistry::with_defaults())
    }

    /// Runs an explicit miner set over `tpiin`.
    pub fn build_with(epoch: u64, tpiin: Tpiin, miners: &MinerRegistry) -> ServeSnapshot {
        let ctx = MineContext::default();
        let detections = miners
            .iter()
            .map(|m| (m.name().to_string(), mine_with_obs(m, &tpiin, &ctx)))
            .collect();
        ServeSnapshot::with_detections(epoch, tpiin, detections)
    }

    /// The next epoch from the delta engine's state — the one way bind,
    /// reload and ingest turn an engine into what is served.  The engine
    /// already maintains the Rule 1/Rule 2 result (under the same
    /// default [`tpiin_core::DetectorConfig`] a fresh mine would use), so
    /// `rules` is taken from it, never mined again.  Every other miner
    /// in `miners` is carried over from `prev` when the caller has a
    /// previous epoch (ingest: those results refresh on the next reload)
    /// and mined over the engine's network otherwise (bind, reload) —
    /// with the tax rates of the engine's registry when it has one, as
    /// `Pipeline` and `tpiin detect` mine, so a registry-backed daemon
    /// ranks rings by their rate differential.  A snapshot-backed engine
    /// carries no registry and mines with every rate at the default.
    pub(crate) fn from_engine(
        epoch: u64,
        engine: &DeltaEngine,
        miners: &MinerRegistry,
        prev: Option<&ServeSnapshot>,
    ) -> ServeSnapshot {
        let tpiin = engine.tpiin().clone();
        let ctx = MineContext {
            tax_rates: engine.registry().and_then(|r| r.company_tax_rates()),
            ..MineContext::default()
        };
        let detections = miners
            .iter()
            .map(|m| {
                let detection = if m.name() == RULES_MINER {
                    engine.detection().clone()
                } else if let Some(carried) = prev.and_then(|p| p.detection_for(m.name())) {
                    carried.clone()
                } else {
                    mine_with_obs(m, &tpiin, &ctx)
                };
                (m.name().to_string(), detection)
            })
            .collect();
        ServeSnapshot::with_detections(epoch, tpiin, detections)
    }

    /// Wraps already-computed per-miner detection results.
    ///
    /// # Panics
    ///
    /// Panics when `detections` is empty — a snapshot always serves at
    /// least its primary result.
    pub fn with_detections(
        epoch: u64,
        tpiin: Tpiin,
        detections: Vec<(String, DetectionResult)>,
    ) -> ServeSnapshot {
        assert!(!detections.is_empty(), "a snapshot needs >= 1 detection");
        let labels = tpiin
            .graph
            .nodes()
            .map(|(id, node)| (node.label().to_string(), id))
            .collect();
        ServeSnapshot {
            epoch,
            tpiin,
            detections,
            labels,
        }
    }

    /// The primary detection result (the first configured miner's —
    /// the Rule 1/Rule 2 detector in the default configuration).
    pub fn detection(&self) -> &DetectionResult {
        &self.detections[0].1
    }

    /// Name of the primary miner.
    pub fn primary_miner(&self) -> &str {
        &self.detections[0].0
    }

    /// The detection result of the miner named `name`.
    pub fn detection_for(&self, name: &str) -> Option<&DetectionResult> {
        self.detections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
    }

    /// The served miner names, in mining order.
    pub fn miner_names(&self) -> Vec<&str> {
        self.detections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Resolves `text` to a node: exact label first, then a bare node
    /// index (useful for syndicate nodes with long composite labels).
    pub fn resolve_node(&self, text: &str) -> Option<NodeId> {
        if let Some(&id) = self.labels.get(text) {
            return Some(id);
        }
        let index: usize = text.parse().ok()?;
        (index < self.tpiin.node_count()).then(|| NodeId::from_index(index))
    }
}

/// The hot-swap cell: readers clone the `Arc`, the single writer
/// replaces it.
pub struct SnapshotStore {
    current: RwLock<Arc<ServeSnapshot>>,
}

impl SnapshotStore {
    /// Starts serving `snapshot`.
    pub fn new(snapshot: ServeSnapshot) -> SnapshotStore {
        SnapshotStore {
            current: RwLock::new(Arc::new(snapshot)),
        }
    }

    /// The snapshot to serve this request from.  The read lock is held
    /// only for the `Arc` clone; the request then runs lock-free.
    pub fn current(&self) -> Arc<ServeSnapshot> {
        Arc::clone(&self.current.read())
    }

    /// Atomically replaces the served snapshot; returns its epoch.
    /// In-flight requests holding the old `Arc` finish undisturbed.
    pub fn swap(&self, snapshot: ServeSnapshot) -> u64 {
        let epoch = snapshot.epoch;
        *self.current.write() = Arc::new(snapshot);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig7_snapshot() -> ServeSnapshot {
        let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
        ServeSnapshot::build(1, tpiin)
    }

    #[test]
    fn build_detects_and_indexes_labels() {
        let snap = fig7_snapshot();
        assert!(snap.detection().group_count() > 0);
        assert_eq!(snap.primary_miner(), "rules");
        assert_eq!(snap.miner_names(), ["rules", "circular"]);
        assert!(snap.detection_for("circular").is_some());
        assert!(snap.detection_for("no-such-miner").is_none());
        let c3 = snap.resolve_node("C3").expect("C3 label resolves");
        assert_eq!(snap.tpiin.label(c3), "C3");
        // Bare indexes resolve too.
        assert_eq!(snap.resolve_node("0"), Some(NodeId::from_index(0)));
        assert_eq!(snap.resolve_node("no-such-label"), None);
        assert_eq!(snap.resolve_node("999999"), None);
    }

    #[test]
    fn swap_replaces_while_old_arc_keeps_serving() {
        let store = SnapshotStore::new(fig7_snapshot());
        let old = store.current();
        assert_eq!(old.epoch, 1);
        let mut next = fig7_snapshot();
        next.epoch = 2;
        assert_eq!(store.swap(next), 2);
        assert_eq!(store.current().epoch, 2);
        // The in-flight reader still owns the old epoch.
        assert_eq!(old.epoch, 1);
        assert!(old.detection().group_count() > 0);
    }
}
