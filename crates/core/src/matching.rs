//! Pattern matching: from a patterns tree to suspicious groups.
//!
//! Section 4.3: "the task of detecting the suspicious groups of potential
//! tax evaders is to find two matched component patterns, both with the
//! same antecedent node `A1`, where one pattern is of type (b) ending in
//! `Cj` and the other is of type (a) or (b) with one of the elements
//! `Ai ≡ Cj`".  Operating on the patterns tree makes the match exact and
//! duplicate-free: a type-(b) leaf pairs with every *distinct influence
//! trail* from the root to its trading target (each such trail is one
//! tree node), rather than with every materialized pattern sharing that
//! prefix.
//!
//! The special case — a circle inside one `InOT-FTAOP` walk — is emitted
//! when the trading target already lies on the walk's own prefix; the
//! full walk is then not a simple trail, so the circle is the only group
//! extracted from it.
//!
//! Matching reads the tree arena of [`crate::tree`] as built: a type-(b)
//! leaf's partners are the `next` chain hanging off its target's `head`,
//! walked in ascending tree-node order, and both trails are written in
//! place into two buffers the arena keeps, so emission order is a pure
//! function of the tree and a match costs no allocation.  The caller
//! copies out only the groups it keeps.

use crate::tree::PatternsTree;
use std::collections::HashSet;

/// A borrowed view of one discovered group in subTPIIN-local node ids.
/// Buffers are reused across emissions; clone what you keep.
#[derive(Debug)]
pub struct LocalGroupView<'a> {
    /// Influence prefix `A1 … Am` of the trading trail.
    pub prefix: &'a [u32],
    /// The trading arc's source `Am` (last element of `prefix`).
    pub trade_source: u32,
    /// The trading arc's target `Cj` (the group's end node).
    pub target: u32,
    /// The trading arc's position in the shard's packed trading CSR
    /// ([`crate::TradingLeaf::arc`]).
    pub arc: u32,
    /// The matched pure influence trail `A1 … Cj`; for circles, the
    /// single-element trail `[Cj]`.
    pub plain: &'a [u32],
    /// Whether this is the circle special case.
    pub circle: bool,
    /// Definition 3 classification: trails disjoint except endpoints.
    pub simple: bool,
}

/// Matches all component patterns of the root `tree` was last built for,
/// invoking `emit` once per suspicious group, in order: per type-(b) leaf
/// in discovery order, its circle or its pairings with the influence
/// trails to its target in ascending tree-node order.
///
/// Circle groups are deduplicated within the tree (the same circle is
/// reachable through every prefix leading into it); cross-root circle
/// deduplication is the detector's job, since identical circles appear
/// under every root that reaches them.
///
/// Both trails are written into the tree's two reused buffers, so a
/// match allocates nothing; the only allocation here is the dedup key of
/// a circle seen for the first time.
pub fn match_root(tree: &mut PatternsTree, mut emit: impl FnMut(LocalGroupView<'_>)) {
    let _span = tpiin_obs::Span::at("detect/match_patterns");
    let [mut prefix, mut plain] = std::mem::take(&mut tree.trails);
    let mut seen_circles: HashSet<Vec<u32>> = HashSet::new();

    for leaf in tree.b_leaves() {
        tree.trail_into(leaf.tree_node, &mut prefix);
        let target = leaf.target;
        let trade_source = *prefix.last().expect("trail always contains the root");

        if let Some(pos) = prefix.iter().position(|&v| v == target) {
            // Circle: the trading arc re-enters the walk's prefix.  The
            // circle is `prefix[pos..] + arc`; the full walk is not a
            // simple trail, so no pairings are emitted for this leaf.
            // Membership is probed on the borrowed slice — the dedup set
            // only allocates for each *distinct* circle, never for the
            // (common) repeated rediscoveries.
            let circle = &prefix[pos..];
            if !seen_circles.contains(circle) {
                plain.clear();
                plain.push(target);
                emit(LocalGroupView {
                    prefix: circle,
                    trade_source,
                    target,
                    arc: leaf.arc,
                    plain: &plain,
                    circle: true,
                    // The circle's influence path and the single trading
                    // arc share only their endpoints.
                    simple: true,
                });
                seen_circles.insert(circle.to_vec());
            }
            continue;
        }

        // Regular matching: every distinct influence trail root -> target.
        for u in tree.endpoints(target) {
            tree.trail_into(u, &mut plain);
            // Interiors: prefix[1..] vs plain[1..len-1].
            let p_int = &prefix[1..];
            let q_int = &plain[1..plain.len().saturating_sub(1)];
            let disjoint = p_int.iter().all(|v| !q_int.contains(v));
            emit(LocalGroupView {
                prefix: &prefix,
                trade_source,
                target,
                arc: leaf.arc,
                plain: &plain,
                circle: false,
                simple: disjoint,
            });
        }
    }
    tree.trails = [prefix, plain];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subtpiin::{subtpiin_from_arcs, SubTpiin};

    type Found = (Vec<u32>, u32, Vec<u32>, bool, bool);

    fn collect(sub: &SubTpiin, root: u32) -> Vec<Found> {
        let mut tree = PatternsTree::new();
        assert!(tree.build(sub, root, usize::MAX));
        let mut out = Vec::new();
        match_root(&mut tree, |g| {
            out.push((
                g.prefix.to_vec(),
                g.target,
                g.plain.to_vec(),
                g.circle,
                g.simple,
            ));
        });
        out.sort();
        out
    }

    #[test]
    fn simple_triangle_like_case2() {
        // Fig. 3(a): C4(0) invests in C5(1) and C6(2); C5 trades with C6.
        let sub = subtpiin_from_arcs(3, &[(0, 1), (0, 2)], &[(1, 2)], vec![false, false, false]);
        let groups = collect(&sub, 0);
        assert_eq!(groups.len(), 1);
        let (prefix, target, plain, circle, simple) = &groups[0];
        assert_eq!(prefix, &vec![0, 1]);
        assert_eq!(*target, 2);
        assert_eq!(plain, &vec![0, 2]);
        assert!(!circle);
        assert!(simple);
    }

    #[test]
    fn case1_pentagon_with_merged_kin() {
        // Fig. 1(c): L'(0) -> C1(1) -> C3(2), L' -> C2(3), trading C3 -> C2.
        let sub = subtpiin_from_arcs(
            4,
            &[(0, 1), (1, 2), (0, 3)],
            &[(2, 3)],
            vec![true, false, false, false],
        );
        let groups = collect(&sub, 0);
        assert_eq!(groups.len(), 1);
        let (prefix, target, plain, _, simple) = &groups[0];
        assert_eq!(prefix, &vec![0, 1, 2]);
        assert_eq!(*target, 3);
        assert_eq!(plain, &vec![0, 3]);
        assert!(simple);
    }

    #[test]
    fn two_trading_arcs_to_same_end_do_not_pair_with_each_other() {
        // 0 -> 1, 0 -> 2, trading 1 -> 3 and 2 -> 3; no influence trail to
        // 3 exists, so no group (a pair of type-(b) patterns ending at the
        // same node would put two trading arcs in the union).
        let sub = subtpiin_from_arcs(
            4,
            &[(0, 1), (0, 2)],
            &[(1, 3), (2, 3)],
            vec![true, false, false, false],
        );
        assert!(collect(&sub, 0).is_empty());
    }

    #[test]
    fn complex_group_shares_an_interior_node() {
        // 0 -> 1 -> 2 (trades with 4), 1 -> 4: both trails pass through 1.
        let sub = subtpiin_from_arcs(
            5,
            &[(0, 1), (1, 2), (1, 4)],
            &[(2, 4)],
            vec![true, false, false, false, false],
        );
        let groups = collect(&sub, 0);
        assert_eq!(groups.len(), 1);
        let (_, _, plain, _, simple) = &groups[0];
        assert_eq!(plain, &vec![0, 1, 4]);
        assert!(!simple, "shared interior node 1 makes the group complex");
    }

    #[test]
    fn circle_is_emitted_once_and_simple() {
        // The paper's example: walk {A1, C4, C5, -> C4}.
        // A1(0) -> C4(1) -> C5(2), trading C5 -> C4.
        let sub = subtpiin_from_arcs(3, &[(0, 1), (1, 2)], &[(2, 1)], vec![true, false, false]);
        let groups = collect(&sub, 0);
        assert_eq!(groups.len(), 1);
        let (prefix, target, plain, circle, simple) = &groups[0];
        assert!(circle);
        assert!(simple);
        assert_eq!(prefix, &vec![1, 2], "circle nodes C4, C5");
        assert_eq!(*target, 1);
        assert_eq!(plain, &vec![1]);
    }

    #[test]
    fn circle_not_duplicated_across_two_prefixes() {
        // Two ways into the circle: 0 -> 1 and 0 -> 3 -> 1, with circle
        // 1 -> 2 -(trade)-> 1.
        let sub = subtpiin_from_arcs(
            4,
            &[(0, 1), (0, 3), (3, 1), (1, 2)],
            &[(2, 1)],
            vec![true, false, false, false],
        );
        let groups = collect(&sub, 0);
        let circles: Vec<_> = groups.iter().filter(|g| g.3).collect();
        assert_eq!(circles.len(), 1, "one distinct circle despite two prefixes");
    }

    #[test]
    fn multiple_plain_trails_multiply_groups() {
        // Two influence trails 0->..->4 pair with one trading trail.
        // 0 -> 1 (trades 4), 0 -> 2 -> 4, 0 -> 3 -> 4.
        let sub = subtpiin_from_arcs(
            5,
            &[(0, 1), (0, 2), (2, 4), (0, 3), (3, 4)],
            &[(1, 4)],
            vec![true, false, false, false, false],
        );
        let groups = collect(&sub, 0);
        assert_eq!(groups.len(), 2);
        assert!(
            groups.iter().all(|g| g.4),
            "both node-disjoint, hence simple"
        );
    }

    #[test]
    fn trading_arc_without_any_influence_trail_yields_nothing() {
        let sub = subtpiin_from_arcs(3, &[(0, 1)], &[(1, 2)], vec![true, false, false]);
        // No influence trail 0 -> 2 exists.
        assert!(collect(&sub, 0).is_empty());
    }
}
