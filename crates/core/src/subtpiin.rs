//! Algorithm 1, steps 1–6: segmenting a TPIIN into `subTPIIN`s.
//!
//! A trading arc that connects two *different* weakly connected subgraphs
//! of the antecedent network cannot hide a common interest party, so the
//! TPIIN is split into independent mining units: the `i`-th maximal weakly
//! connected antecedent subgraph plus every trading arc between its
//! company nodes (Definition 4).
//!
//! Segmentation reads the TPIIN's frozen CSR lanes ([`Tpiin::csr`])
//! directly — the weak components come off the influence lane, and each
//! shard's adjacency is packed from the lanes straight into local CSR
//! arrays (count, prefix-sum, fill) so the tree DFS of Algorithm 2 walks
//! contiguous slices.  One packer serves [`segment_tpiin`],
//! [`segment_one`] and the per-arc query ([`crate::groups_behind_arc`]).

use tpiin_fusion::{NodeColor, Tpiin, INFLUENCE_LANE, TRADING_LANE};
use tpiin_graph::NodeId;

/// One independent mining unit: a weak component of the antecedent
/// network with its internal trading arcs, re-indexed to dense local node
/// ids and packed into per-color CSR arrays for cache-friendly traversal.
#[derive(Clone, Debug)]
pub struct SubTpiin {
    /// Position of this subTPIIN in the segmentation output.
    pub index: usize,
    /// Global TPIIN node for each local node id.
    pub global: Vec<NodeId>,
    /// Influence in-degree per local node (used to pick pattern-tree
    /// roots).
    pub influence_in_degree: Vec<u32>,
    /// Number of trading arcs inside this subTPIIN.
    pub trading_arc_count: usize,
    /// Whether each local node is a Person node (else Company).
    pub is_person: Vec<bool>,
    /// CSR offsets into `influence_targets` (length `node_count + 1`).
    influence_offsets: Vec<u32>,
    /// Influence out-neighbors, grouped by source node.
    influence_targets: Vec<u32>,
    /// CSR offsets into `trading_targets` (length `node_count + 1`).
    trading_offsets: Vec<u32>,
    /// Trading out-neighbors, grouped by source node.
    trading_targets: Vec<u32>,
}

impl SubTpiin {
    /// Packs per-node adjacency lists into a [`SubTpiin`], computing
    /// influence in-degrees and the trading-arc count.  Neighbor order
    /// within each node is preserved.  The entry point for hand-built
    /// shards ([`subtpiin_from_arcs`], tests); segmentation packs
    /// straight from the network's CSR lanes.
    pub fn from_adjacency(
        index: usize,
        global: Vec<NodeId>,
        influence_out: &[Vec<u32>],
        trading_out: &[Vec<u32>],
        is_person: Vec<bool>,
    ) -> SubTpiin {
        assert_eq!(influence_out.len(), global.len());
        assert_eq!(trading_out.len(), global.len());
        SubTpiin::pack(
            index,
            global,
            is_person,
            |l, _| influence_out[l].iter().copied(),
            |l, _| trading_out[l].iter().copied(),
        )
    }

    /// The one shard packer.  `influence(l, g)` / `trading(l, g)` yield
    /// the out-neighbours, in local ids, of local node `l` (global node
    /// `g = global[l]`); each lane is laid out directly as CSR — count,
    /// prefix-sum, fill — with no per-node list in between.
    pub(crate) fn pack<I, T>(
        index: usize,
        global: Vec<NodeId>,
        is_person: Vec<bool>,
        influence: impl Fn(usize, NodeId) -> I,
        trading: impl Fn(usize, NodeId) -> T,
    ) -> SubTpiin
    where
        I: Iterator<Item = u32>,
        T: Iterator<Item = u32>,
    {
        let (influence_offsets, influence_targets) = pack_lane(&global, influence);
        let (trading_offsets, trading_targets) = pack_lane(&global, trading);
        let mut influence_in_degree = vec![0u32; global.len()];
        for &t in &influence_targets {
            influence_in_degree[t as usize] += 1;
        }
        SubTpiin {
            index,
            global,
            influence_in_degree,
            trading_arc_count: trading_targets.len(),
            is_person,
            influence_offsets,
            influence_targets,
            trading_offsets,
            trading_targets,
        }
    }

    /// Number of local nodes.
    pub fn node_count(&self) -> usize {
        self.global.len()
    }

    /// Influence out-neighbors of local node `v` as a packed slice.
    #[inline]
    pub fn influence(&self, v: u32) -> &[u32] {
        &self.influence_targets[self.influence_offsets[v as usize] as usize
            ..self.influence_offsets[v as usize + 1] as usize]
    }

    /// Trading out-neighbors of local node `v` as a packed slice.
    #[inline]
    pub fn trading(&self, v: u32) -> &[u32] {
        &self.trading_targets[self.trading_offsets[v as usize] as usize
            ..self.trading_offsets[v as usize + 1] as usize]
    }

    /// Number of influence arcs.
    pub fn influence_arc_count(&self) -> usize {
        self.influence_targets.len()
    }

    /// Pattern-tree roots: local nodes with zero influence in-degree.
    ///
    /// In a fused TPIIN these are exactly the person nodes (every company
    /// has a legal-person arc); the influence-indegree criterion keeps the
    /// detector complete on hand-built networks where a company may lack
    /// influence in-arcs while still receiving trading arcs.
    pub fn roots(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.global.len() as u32).filter(move |&v| self.influence_in_degree[v as usize] == 0)
    }

    /// Total out-degree (influence + trading) of a local node.
    pub fn out_degree(&self, v: u32) -> usize {
        self.influence(v).len() + self.trading(v).len()
    }
}

/// One CSR lane of [`SubTpiin::pack`]: a counting pass fixes the
/// offsets (a running prefix sum) and the exact target capacity, a second
/// pass fills the targets in node order.
fn pack_lane<I: Iterator<Item = u32>>(
    global: &[NodeId],
    out: impl Fn(usize, NodeId) -> I,
) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = Vec::with_capacity(global.len() + 1);
    offsets.push(0u32);
    let mut total = 0u32;
    for (l, &g) in global.iter().enumerate() {
        total += out(l, g).count() as u32;
        offsets.push(total);
    }
    let mut targets = Vec::with_capacity(total as usize);
    for (l, &g) in global.iter().enumerate() {
        targets.extend(out(l, g));
    }
    (offsets, targets)
}

/// Packs the antecedent component over `members` (ascending global ids)
/// from the network's CSR lanes: every influence arc (none leaves a weak
/// antecedent component) and the trading arcs whose target is `inside`.
/// `local_of` maps each member to its position in `members`.
fn pack_component(
    tpiin: &Tpiin,
    index: usize,
    members: Vec<NodeId>,
    local_of: &[u32],
    inside: impl Fn(u32) -> bool,
) -> SubTpiin {
    let csr = tpiin.csr();
    let local = |&t: &u32| local_of[t as usize];
    let is_person = members
        .iter()
        .map(|&g| tpiin.color(g) == NodeColor::Person)
        .collect();
    SubTpiin::pack(
        index,
        members,
        is_person,
        |_, g| csr.out(INFLUENCE_LANE, g.index() as u32).iter().map(local),
        |_, g| {
            csr.out(TRADING_LANE, g.index() as u32)
                .iter()
                .filter(|&&t| inside(t))
                .map(local)
        },
    )
}

/// Segments `tpiin` into its subTPIINs (Algorithm 1 steps 1–6), reading
/// the frozen CSR lanes.
///
/// Components are ordered deterministically by their smallest global node
/// id.  Isolated antecedent nodes (degree zero) still form singleton
/// subTPIINs; they can never host a group and the detector skips them
/// cheaply.
pub fn segment_tpiin(tpiin: &Tpiin) -> Vec<SubTpiin> {
    let _span = tpiin_obs::Span::at("detect/segment");
    let csr = tpiin.csr();
    let n = csr.node_count();
    // Weak components of the *antecedent* network only: the influence lane.
    let (labels, count) = csr.weak_components(INFLUENCE_LANE);

    let mut sizes = vec![0usize; count];
    for &c in &labels {
        sizes[c as usize] += 1;
    }
    let mut members: Vec<Vec<NodeId>> = sizes.into_iter().map(Vec::with_capacity).collect();
    // Global node -> local id within its component.
    let mut local_of = vec![0u32; n];
    for (v, &c) in labels.iter().enumerate() {
        let comp = &mut members[c as usize];
        local_of[v] = comp.len() as u32;
        comp.push(NodeId::from_index(v));
    }

    members
        .into_iter()
        .enumerate()
        .map(|(i, comp)| {
            // Trading arcs crossing components are unsuspicious: skip.
            pack_component(tpiin, i, comp, &local_of, |t| {
                labels[t as usize] == i as u32
            })
        })
        .collect()
}

/// Re-segments a *single* antecedent component whose membership is
/// already known — the delta engine's shard-splice path, which tracks
/// per-node component assignments across batches and rebuilds only the
/// shards a batch touched instead of re-running [`segment_tpiin`] over
/// the whole network.
///
/// `members` must list exactly the component's nodes in ascending
/// global id order (the order [`segment_tpiin`] emits).  Trading arcs
/// whose target falls outside `members` cross components and are
/// skipped, just as global segmentation skips them.  The result is the
/// [`SubTpiin`] that `segment_tpiin(tpiin)[index]` would produce.
pub fn segment_one(tpiin: &Tpiin, index: usize, members: Vec<NodeId>) -> SubTpiin {
    let mut local_of = vec![u32::MAX; tpiin.node_count()];
    for (local, &g) in members.iter().enumerate() {
        local_of[g.index()] = local as u32;
    }
    pack_component(tpiin, index, members, &local_of, |t| {
        local_of[t as usize] != u32::MAX
    })
}

/// Builds a single [`SubTpiin`] directly from explicit arc lists — a
/// convenience for unit tests and the worked examples, bypassing fusion.
///
/// `n` local nodes; `influence`/`trading` are `(source, target)` pairs in
/// local ids; `is_person[v]` tags node colors.
pub fn subtpiin_from_arcs(
    n: usize,
    influence: &[(u32, u32)],
    trading: &[(u32, u32)],
    is_person: Vec<bool>,
) -> SubTpiin {
    assert_eq!(is_person.len(), n);
    let mut influence_out: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut trading_out: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(s, t) in influence {
        influence_out[s as usize].push(t);
    }
    for &(s, t) in trading {
        trading_out[s as usize].push(t);
    }
    SubTpiin::from_adjacency(
        0,
        (0..n).map(NodeId::from_index).collect(),
        &influence_out,
        &trading_out,
        is_person,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpiin_model::{
        InfluenceKind, InfluenceRecord, Role, RoleSet, SourceRegistry, TradingRecord,
    };

    /// Two disjoint conglomerates with a trading arc between them.
    fn two_component_registry() -> SourceRegistry {
        let mut r = SourceRegistry::new();
        let l1 = r.add_person("L1", RoleSet::of(&[Role::Ceo]));
        let l2 = r.add_person("L2", RoleSet::of(&[Role::Ceo]));
        let c1 = r.add_company("C1");
        let c2 = r.add_company("C2");
        let c3 = r.add_company("C3");
        let c4 = r.add_company("C4");
        for (p, c) in [(l1, c1), (l1, c2), (l2, c3), (l2, c4)] {
            r.add_influence(InfluenceRecord {
                person: p,
                company: c,
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            });
        }
        // Intra-component trade (suspicious candidate) ...
        r.add_trading(TradingRecord {
            seller: c1,
            buyer: c2,
            volume: 1.0,
        });
        // ... and a cross-component trade (must be dropped).
        r.add_trading(TradingRecord {
            seller: c2,
            buyer: c3,
            volume: 2.0,
        });
        r
    }

    #[test]
    fn segmentation_splits_components_and_drops_cross_trades() {
        let (tpiin, _) = tpiin_fusion::fuse(&two_component_registry()).unwrap();
        let subs = segment_tpiin(&tpiin);
        assert_eq!(subs.len(), 2);
        let total_nodes: usize = subs.iter().map(SubTpiin::node_count).sum();
        assert_eq!(total_nodes, tpiin.node_count());
        // Only the intra-component trading arc survives.
        let total_trades: usize = subs.iter().map(|s| s.trading_arc_count).sum();
        assert_eq!(total_trades, 1);
        // Influence arcs are all preserved.
        let total_influence: usize = subs.iter().map(SubTpiin::influence_arc_count).sum();
        assert_eq!(total_influence, tpiin.influence_arc_count);
    }

    #[test]
    fn roots_are_the_person_nodes_after_fusion() {
        let (tpiin, _) = tpiin_fusion::fuse(&two_component_registry()).unwrap();
        for sub in segment_tpiin(&tpiin) {
            for r in sub.roots() {
                assert!(sub.is_person[r as usize], "root {r} should be a person");
            }
            let person_count = sub.is_person.iter().filter(|&&p| p).count();
            assert_eq!(sub.roots().count(), person_count);
        }
    }

    #[test]
    fn local_indexing_is_consistent() {
        let (tpiin, _) = tpiin_fusion::fuse(&two_component_registry()).unwrap();
        for sub in segment_tpiin(&tpiin) {
            for (local, &g) in sub.global.iter().enumerate() {
                // Node colors agree with the global TPIIN.
                assert_eq!(
                    sub.is_person[local],
                    tpiin.color(g) == tpiin_fusion::NodeColor::Person
                );
            }
            // All adjacency targets are in range.
            for v in 0..sub.node_count() as u32 {
                for &t in sub.influence(v).iter().chain(sub.trading(v)) {
                    assert!((t as usize) < sub.node_count());
                }
            }
        }
    }

    #[test]
    fn segment_one_matches_global_segmentation_per_component() {
        let sources = [
            tpiin_fusion::fuse(&two_component_registry()).unwrap().0,
            tpiin_fusion::fuse(&tpiin_datagen::generate_province(
                &tpiin_datagen::ProvinceConfig::scaled(0.05),
            ))
            .unwrap()
            .0,
        ];
        for tpiin in &sources {
            for sub in segment_tpiin(tpiin) {
                let rebuilt = segment_one(tpiin, sub.index, sub.global.clone());
                assert_eq!(rebuilt.index, sub.index);
                assert_eq!(rebuilt.global, sub.global);
                assert_eq!(rebuilt.is_person, sub.is_person);
                assert_eq!(rebuilt.influence_in_degree, sub.influence_in_degree);
                assert_eq!(rebuilt.trading_arc_count, sub.trading_arc_count);
                for v in 0..sub.node_count() as u32 {
                    assert_eq!(rebuilt.influence(v), sub.influence(v));
                    assert_eq!(rebuilt.trading(v), sub.trading(v));
                }
            }
        }
    }

    #[test]
    fn manual_builder_counts_degrees() {
        let sub = subtpiin_from_arcs(3, &[(0, 1), (1, 2)], &[(2, 1)], vec![true, false, false]);
        assert_eq!(sub.influence_arc_count(), 2);
        assert_eq!(sub.trading_arc_count, 1);
        assert_eq!(sub.roots().collect::<Vec<_>>(), vec![0]);
        assert_eq!(sub.out_degree(1), 1);
        assert_eq!(sub.out_degree(2), 1);
        assert_eq!(sub.influence(0), &[1]);
        assert_eq!(sub.trading(2), &[1]);
        assert!(sub.influence(2).is_empty());
    }
}
