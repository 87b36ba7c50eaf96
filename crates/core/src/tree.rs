//! The patterns tree of Algorithm 2.
//!
//! For one indegree-zero root, the tree enumerates every directed trail of
//! the antecedent network starting at the root (each tree node *is* one
//! trail — Property 1 guarantees trails in a DAG never repeat nodes).
//! Trading arcs never extend a trail: following Rule 2 they terminate it,
//! producing a *type-(b)* leaf (`InOT-FTAOP` walk).  A trail whose tip has
//! no outgoing arcs at all is a *type-(a)* leaf (Rule 1, `InOT-OutOSP`
//! walk).
//!
//! [`PatternsTree`] is a reusable arena, not a per-root value: a mining
//! call owns one and rebuilds it in place for every root it mines, so
//! once the arena has grown to the call's largest tree, building a tree
//! allocates nothing.  Tree nodes live in flat `node`/`parent`/`depth`
//! columns.  The endpoint index the matcher probes — which tree nodes end
//! at a given local node — is a `next` chain per tree node hanging off a
//! `head` per local node: `head` is sized to the shard, and only the
//! current tree's tips are ever set, so the next build resets it by
//! walking the old tree's nodes instead of clearing the array.  A trail
//! is written into the caller's buffer ([`PatternsTree::trail_into`]),
//! never returned as a fresh `Vec`.

use crate::subtpiin::SubTpiin;

/// End of a chain, and the parent of the root.
const NONE: u32 = u32::MAX;

/// A type-(b) leaf: the trail of `tree_node` extended by one trading arc
/// into `target`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TradingLeaf {
    /// Tree node holding the influence prefix (the trail `A1 … Am`).
    pub tree_node: u32,
    /// Local node the trading arc points at (`Cj`).
    pub target: u32,
    /// The trading arc's position in the shard's packed trading CSR
    /// ([`SubTpiin::trading_start`]): seller ascending, then the
    /// seller's row order.
    pub arc: u32,
}

/// The patterns tree of one root (Fig. 9), with its type-(a)/(b) leaves
/// and an index of trail endpoints used by the matcher — as an arena
/// that [`PatternsTree::build`] refills for each root.
///
/// Tree nodes are numbered in DFS discovery order; node 0 is the root.
#[derive(Debug, Default)]
pub struct PatternsTree {
    /// Local subTPIIN node at the tip of each tree node's trail.
    node: Vec<u32>,
    /// Parent tree node, or [`NONE`] for the root.
    parent: Vec<u32>,
    /// Trail length in arcs (the root has depth 0).
    depth: Vec<u32>,
    a_leaves: Vec<u32>,
    b_leaves: Vec<TradingLeaf>,
    /// Per tree node: the next tree node whose trail ends at the same
    /// local node, in ascending order; [`NONE`] ends the chain.
    next: Vec<u32>,
    /// Per local node: the first tree node whose trail ends there.
    /// Sized to the largest shard seen; [`NONE`] everywhere except at the
    /// tips of the tree last built.
    head: Vec<u32>,
    /// DFS stack.
    stack: Vec<u32>,
    /// The two trail buffers [`crate::match_root`] writes into, kept here
    /// so they are reused across roots as well as leaves.
    pub(crate) trails: [Vec<u32>; 2],
}

impl PatternsTree {
    /// An empty arena.
    pub fn new() -> PatternsTree {
        PatternsTree::default()
    }

    /// Builds the patterns tree for `root` of `sub` by iterative DFS over
    /// the influence arcs (Algorithm 2 steps 4–16), replacing whatever
    /// tree the arena held.
    ///
    /// `max_nodes` bounds the tree size as a safeguard against
    /// pathologically dense antecedent DAGs, whose trail count can grow
    /// exponentially; returns `false` on overflow, after which the arena
    /// holds no usable tree until the next build.  The paper's
    /// province-scale networks stay far below any practical bound.
    #[must_use]
    pub fn build(&mut self, sub: &SubTpiin, root: u32, max_nodes: usize) -> bool {
        for &v in &self.node {
            self.head[v as usize] = NONE;
        }
        if self.head.len() < sub.node_count() {
            self.head.resize(sub.node_count(), NONE);
        }
        self.node.clear();
        self.parent.clear();
        self.depth.clear();
        self.a_leaves.clear();
        self.b_leaves.clear();
        self.node.push(root);
        self.parent.push(NONE);
        self.depth.push(0);

        // DFS over tree nodes; each expansion appends children.
        self.stack.clear();
        self.stack.push(0);
        while let Some(t) = self.stack.pop() {
            let v = self.node[t as usize];
            let influence = sub.influence(v);
            let trading = sub.trading(v);
            // Rule 2: every outgoing trading arc ends one walk here.
            let first = sub.trading_start(v);
            self.b_leaves
                .extend(trading.iter().zip(first..).map(|(&c, arc)| TradingLeaf {
                    tree_node: t,
                    target: c,
                    arc,
                }));
            if influence.is_empty() {
                if trading.is_empty() {
                    // Rule 1: outdegree-zero tip.
                    self.a_leaves.push(t);
                }
                continue;
            }
            let depth = self.depth[t as usize] + 1;
            for &w in influence {
                if self.node.len() >= max_nodes {
                    return false;
                }
                self.stack.push(self.node.len() as u32);
                self.node.push(w);
                self.parent.push(t);
                self.depth.push(depth);
            }
        }

        // Chain the endpoints back to front, so each chain ascends.
        self.next.clear();
        self.next.resize(self.node.len(), NONE);
        for t in (0..self.node.len()).rev() {
            let v = self.node[t] as usize;
            self.next[t] = self.head[v];
            self.head[v] = t as u32;
        }
        true
    }

    /// Number of tree nodes, i.e. of trails from the root.
    pub fn node_count(&self) -> usize {
        self.node.len()
    }

    /// Local subTPIIN node at the tip of tree node `t`'s trail.
    pub fn local_node(&self, t: u32) -> u32 {
        self.node[t as usize]
    }

    /// Rule-1 leaves (`InOT-OutOSP` walks), in discovery order.
    pub fn a_leaves(&self) -> &[u32] {
        &self.a_leaves
    }

    /// Rule-2 leaves (`InOT-FTAOP` walks), in discovery order.
    pub fn b_leaves(&self) -> &[TradingLeaf] {
        &self.b_leaves
    }

    /// The tree nodes whose trail ends at local node `v`, ascending.
    pub fn endpoints(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let first = self.head[v as usize];
        std::iter::successors((first != NONE).then_some(first), |&t| {
            let next = self.next[t as usize];
            (next != NONE).then_some(next)
        })
    }

    /// Writes the trail of tree node `t` into `trail`, as local node ids
    /// from the root to the tip, replacing its contents.
    pub fn trail_into(&self, t: u32, trail: &mut Vec<u32>) {
        trail.clear();
        trail.resize(self.depth[t as usize] as usize + 1, 0);
        let mut cur = t;
        for slot in trail.iter_mut().rev() {
            *slot = self.node[cur as usize];
            cur = self.parent[cur as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subtpiin::subtpiin_from_arcs;

    /// L(0) -> C1(1) -> C2(2); C2 trades with C3(3); C3 is also directly
    /// influenced by L.
    fn diamond_sub() -> SubTpiin {
        subtpiin_from_arcs(
            4,
            &[(0, 1), (1, 2), (0, 3)],
            &[(2, 3)],
            vec![true, false, false, false],
        )
    }

    fn built(sub: &SubTpiin, root: u32) -> PatternsTree {
        let mut tree = PatternsTree::new();
        assert!(tree.build(sub, root, usize::MAX));
        tree
    }

    fn trail(tree: &PatternsTree, t: u32) -> Vec<u32> {
        let mut out = vec![99; 7]; // stale contents must be replaced
        tree.trail_into(t, &mut out);
        out
    }

    fn trails(tree: &PatternsTree) -> Vec<Vec<u32>> {
        (0..tree.node_count() as u32)
            .map(|t| trail(tree, t))
            .collect()
    }

    #[test]
    fn enumerates_all_trails_from_root() {
        let tree = built(&diamond_sub(), 0);
        // Trails: [0], [0,1], [0,1,2], [0,3].
        assert_eq!(tree.node_count(), 4);
        let trails = trails(&tree);
        assert!(trails.contains(&vec![0]));
        assert!(trails.contains(&vec![0, 1, 2]));
        assert!(trails.contains(&vec![0, 3]));
    }

    #[test]
    fn trading_arcs_terminate_walks_rule2() {
        let tree = built(&diamond_sub(), 0);
        assert_eq!(tree.b_leaves().len(), 1);
        let leaf = tree.b_leaves()[0];
        assert_eq!(tree.local_node(leaf.tree_node), 2);
        assert_eq!(leaf.target, 3);
        // The walk does not continue past the trading arc: no tree node's
        // trail passes "through" node 3 onto further arcs (3 has none here,
        // but the trail [0,1,2,3] must not exist either).
        assert!(!trails(&tree).contains(&vec![0, 1, 2, 3]));
    }

    #[test]
    fn outdegree_zero_tips_are_a_leaves_rule1() {
        let tree = built(&diamond_sub(), 0);
        // [0,3] ends at node 3 (no outgoing arcs): type (a).
        assert_eq!(tree.a_leaves().len(), 1);
        assert_eq!(trail(&tree, tree.a_leaves()[0]), vec![0, 3]);
    }

    #[test]
    fn node_with_both_trading_and_influence_children_branches_both_ways() {
        // 0 -> 1 (influence), 1 -> 2 (influence), 1 trades with 3.
        let sub = subtpiin_from_arcs(
            4,
            &[(0, 1), (1, 2)],
            &[(1, 3)],
            vec![true, false, false, false],
        );
        let tree = built(&sub, 0);
        // b-leaf at trail [0,1] -> 3, and influence continues to [0,1,2].
        assert_eq!(tree.b_leaves().len(), 1);
        assert_eq!(trail(&tree, tree.b_leaves()[0].tree_node), vec![0, 1]);
        assert!(trails(&tree).contains(&vec![0, 1, 2]));
        // [0,1,2] is an a-leaf (2 has no out-arcs).
        assert_eq!(tree.a_leaves().len(), 1);
    }

    #[test]
    fn endpoints_index_tracks_every_trail_tip() {
        let tree = built(&diamond_sub(), 0);
        assert_eq!(tree.endpoints(0).collect::<Vec<_>>(), vec![0]);
        let tips: Vec<u32> = tree.endpoints(3).collect();
        assert_eq!(tips.len(), 1);
        assert_eq!(trail(&tree, tips[0]), vec![0, 3]);
    }

    #[test]
    fn max_nodes_bound_aborts_cleanly() {
        let sub = diamond_sub();
        let mut tree = PatternsTree::new();
        assert!(!tree.build(&sub, 0, 2));
        assert!(tree.build(&sub, 0, 4));
        assert_eq!(tree.node_count(), 4);
    }

    #[test]
    fn multiple_distinct_trails_to_one_node_chain_in_ascending_order() {
        // 0->1->3, 0->2->3: two trails end at 3.
        let sub = subtpiin_from_arcs(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            &[],
            vec![true, false, false, false],
        );
        let tree = built(&sub, 0);
        let tips: Vec<u32> = tree.endpoints(3).collect();
        assert_eq!(tips.len(), 2);
        assert!(tips[0] < tips[1], "chains ascend: {tips:?}");
        let mut trails: Vec<Vec<u32>> = tips.iter().map(|&t| trail(&tree, t)).collect();
        trails.sort();
        assert_eq!(trails, vec![vec![0, 1, 3], vec![0, 2, 3]]);
    }

    #[test]
    fn rebuilding_the_arena_forgets_the_previous_tree() {
        // Two roots over one shard, then a smaller shard: every rebuild
        // must equal a build in a fresh arena, endpoint chains included.
        let big = subtpiin_from_arcs(
            6,
            &[(0, 2), (0, 3), (2, 4), (3, 4), (1, 3), (1, 5)],
            &[(2, 3)],
            vec![true, true, false, false, false, false],
        );
        let small = diamond_sub();
        let mut reused = PatternsTree::new();
        for (sub, root, overflow_first) in [
            (&big, 0, false),
            (&big, 1, true),
            (&small, 0, false),
            (&big, 0, true),
        ] {
            if overflow_first {
                assert!(!reused.build(sub, root, 2));
            }
            assert!(reused.build(sub, root, usize::MAX));
            let fresh = built(sub, root);
            assert_eq!(trails(&reused), trails(&fresh));
            assert_eq!(reused.a_leaves(), fresh.a_leaves());
            assert_eq!(reused.b_leaves(), fresh.b_leaves());
            for v in 0..sub.node_count() as u32 {
                assert_eq!(
                    reused.endpoints(v).collect::<Vec<_>>(),
                    fresh.endpoints(v).collect::<Vec<_>>(),
                    "endpoints of {v}"
                );
            }
        }
    }
}
