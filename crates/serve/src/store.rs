//! Immutable serving snapshots with atomic hot swap.
//!
//! A [`ServeSnapshot`] bundles everything one request needs — the fused
//! TPIIN, a full detection result and a label index — behind an `Arc`.
//! The parts an ingest did not change (every miner but `rules`, and the
//! label index when no node was added or relabelled) are themselves
//! `Arc`s shared with the previous epoch, not copies of it.  The label
//! index is built by the first lookup that needs it, not at the swap.
//! The [`SnapshotStore`] holds the current snapshot under a `RwLock`
//! taken only long enough to clone the `Arc`: readers never block each
//! other, never block on detection, and in-flight requests keep serving
//! the epoch they started on while a reload or ingest swaps a newer
//! snapshot in behind them.

use parking_lot::RwLock;
use std::cell::OnceCell;
use std::sync::{Arc, OnceLock};
use tpiin_core::{mine_with_obs, DetectionResult, MineContext, MinerRegistry, RULES_MINER};
use tpiin_delta::{DeltaEngine, DeltaPath};
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
    pub detections: Vec<(String, Arc<DetectionResult>)>,
    /// The epoch each `detections` entry was mined at, in the same
    /// order: older than `epoch` for a result carried across an ingest.
    mined_at: Vec<u64>,
    /// Label -> node index for query-by-label endpoints, built on the
    /// first lookup: every node id, stably sorted by label.
    labels: Arc<OnceLock<Vec<NodeId>>>,
}

fn label_index(tpiin: &Tpiin) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = tpiin.graph.nodes().map(|(id, _)| id).collect();
    ids.sort_by(|&a, &b| tpiin.label(a).cmp(tpiin.label(b)));
    ids
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
    /// `rules` is taken from it, never mined again — and never copied:
    /// the epoch shares the engine's `Arc`
    /// ([`DeltaEngine::shared_detection`]), and the engine copies the
    /// result on write at the next batch that changes it.  Every other miner
    /// in `miners` is carried over from `prev` when the caller has a
    /// previous epoch (ingest: those results refresh on the next reload,
    /// are shared with `prev` rather than copied, and keep reporting the
    /// epoch they were mined at) and mined over the engine's network
    /// otherwise (bind, reload) —
    /// with the tax rates of the engine's registry when it has one, as
    /// `Pipeline` and `tpiin detect` mine, so a registry-backed daemon
    /// ranks rings by their rate differential.  A snapshot-backed engine
    /// carries no registry and mines with every rate at the default.
    /// The rates are gathered only when some miner is mined here.
    ///
    /// `prev` comes with the path the batch took: a trading append adds
    /// and relabels no node, so the label index is `prev`'s; any other
    /// path starts an empty one.
    pub(crate) fn from_engine(
        epoch: u64,
        engine: &DeltaEngine,
        miners: &MinerRegistry,
        prev: Option<(&ServeSnapshot, DeltaPath)>,
    ) -> ServeSnapshot {
        let tpiin = engine.tpiin().clone();
        let ctx = OnceCell::new();
        let ctx = || {
            ctx.get_or_init(|| MineContext {
                tax_rates: engine.registry().and_then(|r| r.company_tax_rates()),
                ..MineContext::default()
            })
        };
        let carried = |name: &str| {
            let (p, _) = prev?;
            let i = p.position(name)?;
            Some((Arc::clone(&p.detections[i].1), p.mined_at[i]))
        };
        let (detections, mined_at) = miners
            .iter()
            .map(|m| {
                let (detection, mined_at) = if m.name() == RULES_MINER {
                    (engine.shared_detection(), epoch)
                } else {
                    carried(m.name())
                        .unwrap_or_else(|| (Arc::new(mine_with_obs(m, &tpiin, ctx())), epoch))
                };
                ((m.name().to_string(), detection), mined_at)
            })
            .unzip();
        let labels = match prev {
            Some((p, DeltaPath::TradingAppend)) => Arc::clone(&p.labels),
            _ => Arc::default(),
        };
        ServeSnapshot {
            epoch,
            tpiin,
            detections,
            mined_at,
            labels,
        }
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
        ServeSnapshot {
            epoch,
            labels: Arc::default(),
            tpiin,
            mined_at: vec![epoch; detections.len()],
            detections: (detections.into_iter())
                .map(|(name, detection)| (name, Arc::new(detection)))
                .collect(),
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
        Some(&self.detections[self.position(name)?].1)
    }

    /// The epoch the result of the miner named `name` was mined at.  An
    /// ingest re-mines `rules` only, so any other miner keeps the epoch
    /// of the last bind or reload until the next one.
    pub fn mined_at_epoch(&self, name: &str) -> Option<u64> {
        Some(self.mined_at[self.position(name)?])
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.detections.iter().position(|(n, _)| n == name)
    }

    /// Every served miner with the epoch its result was mined at, in
    /// mining order.
    pub fn mined_at_epochs(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        let names = self.detections.iter().map(|(n, _)| n.as_str());
        names.zip(self.mined_at.iter().copied())
    }

    /// The served miner names, in mining order.
    pub fn miner_names(&self) -> Vec<&str> {
        self.detections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Resolves `text` to a node: exact label first, then a bare node
    /// index (useful for syndicate nodes with long composite labels).
    /// Of several nodes sharing a label, the highest id answers.
    pub fn resolve_node(&self, text: &str) -> Option<NodeId> {
        let ids = self.labels.get_or_init(|| label_index(&self.tpiin));
        let end = ids.partition_point(|&id| self.tpiin.label(id) <= text);
        if let Some(&id) = ids[..end]
            .last()
            .filter(|&&id| self.tpiin.label(id) == text)
        {
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
    /// In-flight requests holding the old `Arc` finish undisturbed, and
    /// the caller may keep a clone to answer from the new epoch.
    pub fn swap(&self, snapshot: Arc<ServeSnapshot>) -> u64 {
        let epoch = snapshot.epoch;
        *self.current.write() = snapshot;
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
    fn an_ingest_shares_what_it_did_not_change() {
        let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
        let mut engine = DeltaEngine::from_tpiin(tpiin);
        let miners = MinerRegistry::with_defaults();
        let bound = ServeSnapshot::from_engine(1, &engine, &miners, None);
        let outcome = engine
            .ingest(&[tpiin_model::TradingRecord {
                seller: tpiin_model::CompanyId(0),
                buyer: tpiin_model::CompanyId(4),
                volume: 5.0,
            }])
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::TradingAppend);
        let next = ServeSnapshot::from_engine(2, &engine, &miners, Some((&bound, outcome.path)));
        // `rules` is the engine's fresh result; `circular` and the label
        // index are the previous epoch's, by pointer.
        assert!(!Arc::ptr_eq(&bound.detections[0].1, &next.detections[0].1));
        assert!(Arc::ptr_eq(&bound.detections[1].1, &next.detections[1].1));
        assert!(Arc::ptr_eq(&bound.labels, &next.labels));
        // A lookup on either epoch builds the index both share.
        assert!(next.resolve_node("C3").is_some());
        assert!(bound.labels.get().is_some());
        assert_eq!(next.mined_at_epoch("rules"), Some(2));
        assert_eq!(next.mined_at_epoch("circular"), Some(1));
        assert_eq!(next.mined_at_epoch("no-such-miner"), None);
        // Any other path may have added or relabelled nodes: re-indexed.
        let prev = Some((&next, DeltaPath::CompanyAppend));
        let other = ServeSnapshot::from_engine(3, &engine, &miners, prev);
        assert!(!Arc::ptr_eq(&next.labels, &other.labels));
        assert!(other.labels.get().is_none(), "built on first lookup");
        for (id, node) in other.tpiin.graph.nodes() {
            assert_eq!(other.resolve_node(node.label()), Some(id));
        }
        assert_eq!(next.labels.get(), other.labels.get());
        assert_eq!(other.mined_at_epoch("circular"), Some(1));
    }

    #[test]
    fn a_shared_label_resolves_to_the_last_node_that_bears_it() {
        let mut registry = tpiin_datagen::fig7_registry();
        let ceo = tpiin_model::RoleSet::of(&[tpiin_model::Role::Ceo]);
        let person = registry.add_person("LT", ceo);
        let twin = registry.add_company("C3");
        registry.add_influence(tpiin_model::InfluenceRecord {
            person,
            company: twin,
            kind: tpiin_model::InfluenceKind::CeoOf,
            is_legal_person: true,
        });
        let (tpiin, _) = tpiin_fusion::fuse(&registry).unwrap();
        let bearers: Vec<NodeId> = tpiin
            .graph
            .nodes()
            .filter(|(_, node)| node.label() == "C3")
            .map(|(id, _)| id)
            .collect();
        assert_eq!(bearers.len(), 2, "{twin:?} shares C3's label");
        let snap = ServeSnapshot::build(1, tpiin);
        assert_eq!(snap.resolve_node("C3"), bearers.last().copied());
        // Neighbours of the shared label still resolve to themselves.
        for label in ["C2", "C4", "C30", "C"] {
            let want = snap
                .tpiin
                .graph
                .nodes()
                .find(|(_, node)| node.label() == label);
            assert_eq!(snap.resolve_node(label), want.map(|(id, _)| id), "{label}");
        }
    }

    #[test]
    fn swap_replaces_while_old_arc_keeps_serving() {
        let store = SnapshotStore::new(fig7_snapshot());
        let old = store.current();
        assert_eq!(old.epoch, 1);
        let mut next = fig7_snapshot();
        next.epoch = 2;
        assert_eq!(store.swap(Arc::new(next)), 2);
        assert_eq!(store.current().epoch, 2);
        // The in-flight reader still owns the old epoch.
        assert_eq!(old.epoch, 1);
        assert!(old.detection().group_count() > 0);
    }
}
