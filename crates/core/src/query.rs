//! Targeted queries: suspicious groups behind *one* trading relationship.
//!
//! The deployed system of Section 6 supports "the detection of suspicious
//! trading relationships and corresponding suspicious groups of specified
//! companies in a suspicious trading relationship": an investigator picks
//! a company or a transaction and asks for the proof chains behind it.
//! With the national feed peaking at ten million records a day, running
//! the full Algorithm 1 per query would be wasteful; [`groups_behind_arc`]
//! answers for a single arc by restricting the search to the ancestors of
//! its two endpoints.
//!
//! The same one-arc kernel mines what a trading append brings
//! ([`mine_appended`]): a group hangs off exactly one trading arc and its
//! trails are influence-only, so a new arc adds its own groups and
//! changes no other.

use crate::detector::{mine_root, DetectorConfig, Mined};
use crate::result::SuspiciousGroup;
use crate::subtpiin::SubTpiin;
use crate::table::GroupTable;
use crate::tree::PatternsTree;
use std::collections::HashSet;
use tpiin_fusion::{ArcColor, Tpiin, INFLUENCE_LANE};
use tpiin_graph::NodeId;

/// The one-arc kernel: mines the groups behind a single trading arc on
/// the TPIIN restricted to the influence-ancestors of the arc's two
/// endpoints, with that arc as the only trading arc.  Every trail of a
/// group behind `seller -> buyer` runs from a root to one of the two
/// endpoints, so it lies in the restriction; and because the
/// restriction is closed under ancestors, dropping the other nodes
/// prunes whole subtrees of each patterns tree, leaving the order of
/// the trails that remain as it was.  The kernel therefore emits
/// exactly the rows [`crate::Detector::detect`] emits for the arc, in
/// the same root-major order, through the detector's own
/// [`mine_root`] and circle dedup across roots — whenever the
/// detector's trees fit its `max_tree_nodes` (the restricted trees are
/// smaller still, and the kernel builds them unbounded).
#[derive(Default)]
struct ArcKernel {
    /// Per TPIIN node: its id in the restriction being built, or
    /// `u32::MAX` outside it; reset after each arc from the kept nodes.
    local_of: Vec<u32>,
    tree: PatternsTree,
    mined: Mined,
}

impl ArcKernel {
    /// Mines the arc `seller -> buyer`, leaving its groups in
    /// `self.mined.out.groups` in the ids of the returned restriction
    /// (whose `global` maps them to TPIIN nodes).  Also returns the
    /// number of influence trails ending at `seller`, over every root.
    fn mine(&mut self, tpiin: &Tpiin, seller: NodeId, buyer: NodeId) -> (SubTpiin, usize) {
        const OUT: u32 = u32::MAX;
        let csr = tpiin.csr();
        if self.local_of.len() < csr.node_count() {
            self.local_of.resize(csr.node_count(), OUT);
        }
        let local_of = &mut self.local_of;
        // Reverse search from both endpoints; a kept node is marked 0
        // until the kept set is sorted and numbered.
        let mut keep: Vec<NodeId> = Vec::new();
        for start in [seller, buyer] {
            if local_of[start.index()] == OUT {
                local_of[start.index()] = 0;
                keep.push(start);
            }
        }
        let mut next = 0;
        while let Some(&v) = keep.get(next) {
            next += 1;
            for &u in csr.sources(INFLUENCE_LANE, v.index() as u32) {
                if local_of[u as usize] == OUT {
                    local_of[u as usize] = 0;
                    keep.push(NodeId::from_index(u as usize));
                }
            }
        }
        // Ascending TPIIN ids keep the shard's root order.
        keep.sort_unstable();
        for (local, &g) in keep.iter().enumerate() {
            local_of[g.index()] = local as u32;
        }
        let (seller_local, buyer_local) = (local_of[seller.index()], local_of[buyer.index()]);
        let n = keep.len();
        let local_of = &*local_of;
        let sub = SubTpiin::pack(
            0,
            keep,
            vec![false; n], // node colours are not needed for matching
            |_, g| {
                csr.out(INFLUENCE_LANE, g.index() as u32)
                    .iter()
                    .map(|&t| local_of[t as usize])
                    .filter(|&t| t != OUT)
            },
            |l, _| {
                (l as u32 == seller_local)
                    .then_some(buyer_local)
                    .into_iter()
            },
        );
        for &g in &sub.global {
            self.local_of[g.index()] = OUT;
        }

        let config = DetectorConfig {
            collect_groups: true,
            max_tree_nodes: usize::MAX,
            ..DetectorConfig::default()
        };
        self.mined.clear();
        let mut seen = HashSet::new();
        let mut seller_trails = 0;
        for root in sub.roots() {
            mine_root(&sub, root, &config, &mut self.tree, &mut self.mined);
            // The arc is the only trading arc: one type-(b) leaf per
            // trail ending at the seller.
            seller_trails += self.tree.b_leaves().len();
            self.mined.flush_circles(&mut seen, true);
        }
        (sub, seller_trails)
    }
}

/// Finds every suspicious group whose interest-affiliated transaction is
/// the trading arc `seller -> buyer` (TPIIN node ids).
///
/// Returns the groups [`crate::detect`] reports for that arc, in the
/// order it reports them (tested equal), but touches only the subgraph
/// of common ancestors: the one-arc kernel the delta engine's trading
/// appends mine with ([`mine_appended`]).
///
/// Returns an empty vector if no such trading arc exists.
pub fn groups_behind_arc(tpiin: &Tpiin, seller: NodeId, buyer: NodeId) -> Vec<SuspiciousGroup> {
    if tpiin.find_arc(seller, buyer, ArcColor::Trading).is_none() {
        return Vec::new();
    }
    let mut kernel = ArcKernel::default();
    let (sub, _) = kernel.mine(tpiin, seller, buyer);
    kernel
        .mined
        .out
        .groups
        .iter()
        .map(|g| g.to_owned_mapped(0, |v| sub.global[v.index()]))
        .collect()
}

/// What trading arcs appended to one shard brought, in the shard's
/// local ids ([`mine_appended`]); [`crate::ShardOutcome::merge_appended`]
/// and [`crate::DetectionResult::merge_appended`] merge it in.
#[derive(Clone, Debug, Default)]
pub struct AppendedGroups {
    /// The new rows in the shard's row order: seller ascending, each
    /// seller's appended arcs in CSR order, each arc's rows root-major.
    pub groups: GroupTable,
    /// Complex groups among them.
    pub complex: usize,
    /// Simple groups among them, circles included.
    pub simple: usize,
    /// The appended arcs with at least one group, `(seller, buyer)`,
    /// sorted.
    pub arcs: Vec<(u32, u32)>,
    /// Component patterns the shard gained: every trail ending at a
    /// seller gains one type-(b) leaf per arc appended to it, and loses
    /// its type-(a) leaf if the seller had no out-arc before.
    pub patterns: usize,
}

/// Mines the groups behind trading arcs just appended to the shard
/// `sub` of `tpiin` (both as grown by the append), arc by arc through
/// the one-arc kernel of [`groups_behind_arc`], instead of re-mining the
/// shard.  `appended` lists `(seller, count)` in ascending local seller
/// id: the last `count` arcs of that seller's trading row are new —
/// appended arcs take the highest edge ids, so they close their
/// seller's row.
///
/// A trading arc never changes a patterns tree, so no existing group
/// changes and the result is exactly the rows a re-mine would add —
/// provided the shard's outcome before the append had no overflowed
/// root and at least one trading arc (a shard without trading arcs is
/// never mined, and its outcome counts no tree).  The caller checks
/// both and re-mines the shard otherwise.
pub fn mine_appended(tpiin: &Tpiin, sub: &SubTpiin, appended: &[(u32, u32)]) -> AppendedGroups {
    let _span = tpiin_obs::Span::at("detect/mine_appended");
    let mut kernel = ArcKernel::default();
    let mut added = AppendedGroups::default();
    let mut to_shard: Vec<u32> = Vec::new();
    for &(seller, count) in appended {
        let row = sub.trading(seller);
        let count = count as usize;
        assert!(count <= row.len(), "appended arcs are in the seller's row");
        let mut seller_trails = 0;
        for &buyer in &row[row.len() - count..] {
            let (restricted, trails) = kernel.mine(
                tpiin,
                sub.global[seller as usize],
                sub.global[buyer as usize],
            );
            seller_trails = trails;
            let groups = &kernel.mined.out.groups;
            if groups.is_empty() {
                continue;
            }
            to_shard.clear();
            to_shard.extend(restricted.global.iter().map(|g| {
                sub.global
                    .binary_search(g)
                    .expect("ancestors stay inside their shard") as u32
            }));
            added.groups.extend_mapped(groups, Some(sub.index), |v| {
                NodeId::from_index(to_shard[v.index()] as usize)
            });
            added.complex += kernel.mined.out.complex;
            added.simple += kernel.mined.out.simple;
            added.arcs.push((seller, buyer));
        }
        let had_none = row.len() == count && sub.influence(seller).is_empty();
        added.patterns += seller_trails * (count - usize::from(had_none));
    }
    added.arcs.sort_unstable();
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::detect;

    fn fig7() -> Tpiin {
        tpiin_fusion::fuse(&tpiin_datagen::fig7_registry())
            .unwrap()
            .0
    }

    fn node_by_label(tpiin: &Tpiin, label: &str) -> NodeId {
        tpiin
            .graph
            .nodes()
            .find(|(_, n)| n.label() == label)
            .map(|(id, _)| id)
            .expect("label exists")
    }

    #[test]
    fn query_matches_full_detection_per_arc() {
        let tpiin = fig7();
        let full = detect(&tpiin);
        // Check every trading arc of the worked example.
        for (seller, buyer) in [
            ("C3", "C5"),
            ("C5", "C6"),
            ("C5", "C7"),
            ("C7", "C8"),
            ("C8", "C4"),
        ] {
            let s = node_by_label(&tpiin, seller);
            let b = node_by_label(&tpiin, buyer);
            let mut queried: Vec<_> = groups_behind_arc(&tpiin, s, b)
                .iter()
                .map(|g| g.key())
                .collect();
            let mut expected: Vec<_> = full
                .groups
                .iter()
                .filter(|g| g.trading_arc == (s, b))
                .map(|g| g.key())
                .collect();
            queried.sort();
            expected.sort();
            assert_eq!(queried, expected, "arc {seller}->{buyer}");
        }
    }

    #[test]
    fn missing_arc_yields_nothing() {
        let tpiin = fig7();
        let c1 = node_by_label(&tpiin, "C1");
        let c2 = node_by_label(&tpiin, "C2");
        assert!(groups_behind_arc(&tpiin, c1, c2).is_empty());
    }

    #[test]
    fn query_agrees_on_a_random_province_slice() {
        let config = tpiin_datagen::ProvinceConfig {
            seed: 5,
            ..tpiin_datagen::ProvinceConfig::scaled(0.15)
        };
        let mut registry = tpiin_datagen::generate_province(&config);
        tpiin_datagen::add_random_trading(&mut registry, 0.01, 55);
        let (tpiin, _) = tpiin_fusion::fuse(&registry).unwrap();
        let full = detect(&tpiin);
        // Take the first 25 suspicious arcs and re-derive their groups.
        for &(s, b) in full.suspicious_trading_arcs.iter().take(25) {
            let mut queried: Vec<_> = groups_behind_arc(&tpiin, s, b)
                .iter()
                .map(|g| g.key())
                .collect();
            let mut expected: Vec<_> = full
                .groups
                .iter()
                .filter(|g| g.trading_arc == (s, b))
                .map(|g| g.key())
                .collect();
            queried.sort();
            expected.sort();
            assert_eq!(queried, expected);
            assert!(!queried.is_empty());
        }
    }
}
