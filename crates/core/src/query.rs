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

use crate::matching::match_root;
use crate::result::{GroupKind, SuspiciousGroup};
use crate::subtpiin::SubTpiin;
use crate::tree::PatternsTree;
use tpiin_fusion::{ArcColor, Tpiin, INFLUENCE_LANE};
use tpiin_graph::NodeId;

/// Influence-ancestors of `start` (including `start`), via reverse BFS.
fn ancestors(tpiin: &Tpiin, start: NodeId) -> Vec<bool> {
    let mut seen = vec![false; tpiin.graph.node_count()];
    seen[start.index()] = true;
    let mut queue = vec![start];
    while let Some(v) = queue.pop() {
        for &u in tpiin.csr().sources(INFLUENCE_LANE, v.index() as u32) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push(NodeId::from_index(u as usize));
            }
        }
    }
    seen
}

/// Finds every suspicious group whose interest-affiliated transaction is
/// the trading arc `seller -> buyer` (TPIIN node ids).
///
/// Returns the same groups [`crate::detect`] would report for that arc
/// (tested equal), but touches only the subgraph of common ancestors:
/// the patterns trees are built on the restriction of the TPIIN to
/// ancestors of the two endpoints, with the queried arc as the only
/// trading arc.
///
/// Returns an empty vector if no such trading arc exists.
pub fn groups_behind_arc(tpiin: &Tpiin, seller: NodeId, buyer: NodeId) -> Vec<SuspiciousGroup> {
    if tpiin.find_arc(seller, buyer, ArcColor::Trading).is_none() {
        return Vec::new();
    }
    // Restrict to nodes that can appear on either trail: ancestors of the
    // seller or of the buyer (trails run root -> … -> endpoint).
    let anc_seller = ancestors(tpiin, seller);
    let anc_buyer = ancestors(tpiin, buyer);
    let keep: Vec<NodeId> = tpiin
        .graph
        .node_ids()
        .filter(|v| anc_seller[v.index()] || anc_buyer[v.index()])
        .collect();
    let mut local_of = vec![u32::MAX; tpiin.graph.node_count()];
    for (local, &g) in keep.iter().enumerate() {
        local_of[g.index()] = local as u32;
    }
    let (seller_local, buyer_local) = (local_of[seller.index()], local_of[buyer.index()]);
    let csr = tpiin.csr();
    let n = keep.len();
    let sub = SubTpiin::pack(
        0,
        keep,
        vec![false; n], // node colors are not needed for matching
        |_, g| {
            csr.out(INFLUENCE_LANE, g.index() as u32)
                .iter()
                .map(|&t| local_of[t as usize])
                .filter(|&t| t != u32::MAX)
        },
        |l, _| {
            (l as u32 == seller_local)
                .then_some(buyer_local)
                .into_iter()
        },
    );

    let mut groups = Vec::new();
    let mut seen_circles: std::collections::HashSet<Vec<u32>> = std::collections::HashSet::new();
    let mut tree = PatternsTree::new();
    let to_global = |v: u32| sub.global[v as usize];
    for root in sub.roots() {
        assert!(
            tree.build(&sub, root, usize::MAX),
            "an unbounded tree cannot overflow"
        );
        match_root(&mut tree, |view| {
            if view.circle && !seen_circles.insert(view.prefix.to_vec()) {
                return;
            }
            groups.push(SuspiciousGroup {
                subtpiin: 0,
                kind: if view.circle {
                    GroupKind::Circle
                } else {
                    GroupKind::Matched
                },
                antecedent: if view.circle {
                    to_global(view.target)
                } else {
                    to_global(view.prefix[0])
                },
                end: to_global(view.target),
                trading_arc: (to_global(view.trade_source), to_global(view.target)),
                trail_with_trade: view.prefix.iter().map(|&v| to_global(v)).collect(),
                trail_plain: view.plain.iter().map(|&v| to_global(v)).collect(),
                simple: view.simple,
            });
        });
    }
    groups
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
