//! The patterns tree of Algorithm 2.
//!
//! For one indegree-zero root, the tree enumerates every directed trail of
//! the antecedent network starting at the root (each tree node *is* one
//! trail — Property 1 guarantees trails in a DAG never repeat nodes).
//! Trading arcs never extend a trail: following Rule 2 they terminate it,
//! producing a *type-(b)* leaf (`InOT-FTAOP` walk).  A trail whose tip has
//! no outgoing arcs at all is a *type-(a)* leaf (Rule 1, `InOT-OutOSP`
//! walk).

use crate::subtpiin::SubTpiin;
use std::collections::HashMap;

/// One node of a patterns tree: a trail from the root ending at
/// `local_node`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeNode {
    /// Local subTPIIN node at the tip of the trail.
    pub local_node: u32,
    /// Parent tree node, or `u32::MAX` for the root.
    pub parent: u32,
    /// Trail length in arcs (root has depth 0).
    pub depth: u32,
}

/// A type-(b) leaf: the trail of `tree_node` extended by one trading arc
/// into `target`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TradingLeaf {
    /// Tree node holding the influence prefix (the trail `A1 … Am`).
    pub tree_node: u32,
    /// Local node the trading arc points at (`Cj`).
    pub target: u32,
}

/// The patterns tree of one root (Fig. 9), with its type-(a)/(b) leaves
/// and an index of trail endpoints used by the matcher.
#[derive(Clone, Debug)]
pub struct PatternsTree {
    /// The root's local node id.
    pub root: u32,
    /// All tree nodes in DFS discovery order; index 0 is the root.
    pub nodes: Vec<TreeNode>,
    /// Rule-1 leaves (`InOT-OutOSP` walks), in discovery order.
    pub a_leaves: Vec<u32>,
    /// Rule-2 leaves (`InOT-FTAOP` walks), in discovery order.
    pub b_leaves: Vec<TradingLeaf>,
    /// For each local node, the tree nodes whose trail ends there.
    pub endpoints: HashMap<u32, Vec<u32>>,
}

impl PatternsTree {
    /// Builds the patterns tree for `root` by iterative DFS over the
    /// influence arcs of `sub` (Algorithm 2 steps 4–16).
    ///
    /// `max_nodes` bounds the tree size as a safeguard against
    /// pathologically dense antecedent DAGs, whose trail count can grow
    /// exponentially; `None` on overflow.  The paper's province-scale
    /// networks stay far below any practical bound.
    pub fn build(sub: &SubTpiin, root: u32, max_nodes: usize) -> Option<PatternsTree> {
        let mut tree = PatternsTree {
            root,
            nodes: vec![TreeNode {
                local_node: root,
                parent: u32::MAX,
                depth: 0,
            }],
            a_leaves: Vec::new(),
            b_leaves: Vec::new(),
            endpoints: HashMap::new(),
        };
        tree.endpoints.entry(root).or_default().push(0);

        // DFS over tree nodes; each expansion appends children.
        let mut stack: Vec<u32> = vec![0];
        while let Some(t) = stack.pop() {
            let v = tree.nodes[t as usize].local_node;
            let influence = sub.influence(v);
            let trading = sub.trading(v);
            // Rule 2: every outgoing trading arc ends one walk here.
            for &c in trading {
                tree.b_leaves.push(TradingLeaf {
                    tree_node: t,
                    target: c,
                });
            }
            if influence.is_empty() {
                if trading.is_empty() {
                    // Rule 1: outdegree-zero tip.
                    tree.a_leaves.push(t);
                }
                continue;
            }
            let depth = tree.nodes[t as usize].depth + 1;
            for &w in influence {
                if tree.nodes.len() >= max_nodes {
                    return None;
                }
                let child = tree.nodes.len() as u32;
                tree.nodes.push(TreeNode {
                    local_node: w,
                    parent: t,
                    depth,
                });
                tree.endpoints.entry(w).or_default().push(child);
                stack.push(child);
            }
        }
        Some(tree)
    }

    /// The trail of tree node `t`, as local node ids from the root to the
    /// tip.
    pub fn trail(&self, t: u32) -> Vec<u32> {
        let mut nodes = Vec::with_capacity(self.nodes[t as usize].depth as usize + 1);
        let mut cur = t;
        loop {
            let n = self.nodes[cur as usize];
            nodes.push(n.local_node);
            if n.parent == u32::MAX {
                break;
            }
            cur = n.parent;
        }
        nodes.reverse();
        nodes
    }

    /// Whether local node `node` lies on the trail of tree node `t`.
    pub fn trail_contains(&self, t: u32, node: u32) -> bool {
        let mut cur = t;
        loop {
            let n = self.nodes[cur as usize];
            if n.local_node == node {
                return true;
            }
            if n.parent == u32::MAX {
                return false;
            }
            cur = n.parent;
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

    #[test]
    fn enumerates_all_trails_from_root() {
        let sub = diamond_sub();
        let tree = PatternsTree::build(&sub, 0, usize::MAX).unwrap();
        // Trails: [0], [0,1], [0,1,2], [0,3].
        assert_eq!(tree.nodes.len(), 4);
        let trails: Vec<Vec<u32>> = (0..tree.nodes.len() as u32)
            .map(|t| tree.trail(t))
            .collect();
        assert!(trails.contains(&vec![0]));
        assert!(trails.contains(&vec![0, 1, 2]));
        assert!(trails.contains(&vec![0, 3]));
    }

    #[test]
    fn trading_arcs_terminate_walks_rule2() {
        let sub = diamond_sub();
        let tree = PatternsTree::build(&sub, 0, usize::MAX).unwrap();
        assert_eq!(tree.b_leaves.len(), 1);
        let leaf = tree.b_leaves[0];
        assert_eq!(tree.nodes[leaf.tree_node as usize].local_node, 2);
        assert_eq!(leaf.target, 3);
        // The walk does not continue past the trading arc: no tree node's
        // trail passes "through" node 3 onto further arcs (3 has none here,
        // but the trail [0,1,2,3] must not exist either).
        let trails: Vec<Vec<u32>> = (0..tree.nodes.len() as u32)
            .map(|t| tree.trail(t))
            .collect();
        assert!(!trails.contains(&vec![0, 1, 2, 3]));
    }

    #[test]
    fn outdegree_zero_tips_are_a_leaves_rule1() {
        let sub = diamond_sub();
        let tree = PatternsTree::build(&sub, 0, usize::MAX).unwrap();
        // [0,3] ends at node 3 (no outgoing arcs): type (a).
        assert_eq!(tree.a_leaves.len(), 1);
        assert_eq!(tree.trail(tree.a_leaves[0]), vec![0, 3]);
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
        let tree = PatternsTree::build(&sub, 0, usize::MAX).unwrap();
        // b-leaf at trail [0,1] -> 3, and influence continues to [0,1,2].
        assert_eq!(tree.b_leaves.len(), 1);
        assert_eq!(tree.trail(tree.b_leaves[0].tree_node), vec![0, 1]);
        let trails: Vec<Vec<u32>> = (0..tree.nodes.len() as u32)
            .map(|t| tree.trail(t))
            .collect();
        assert!(trails.contains(&vec![0, 1, 2]));
        // [0,1,2] is an a-leaf (2 has no out-arcs).
        assert_eq!(tree.a_leaves.len(), 1);
    }

    #[test]
    fn endpoints_index_tracks_every_trail_tip() {
        let sub = diamond_sub();
        let tree = PatternsTree::build(&sub, 0, usize::MAX).unwrap();
        assert_eq!(tree.endpoints[&0], vec![0]);
        assert_eq!(tree.endpoints[&3].len(), 1);
        assert_eq!(tree.trail(tree.endpoints[&3][0]), vec![0, 3]);
    }

    #[test]
    fn trail_contains_walks_ancestors() {
        let sub = diamond_sub();
        let tree = PatternsTree::build(&sub, 0, usize::MAX).unwrap();
        let tip = tree.endpoints[&2][0];
        assert!(tree.trail_contains(tip, 0));
        assert!(tree.trail_contains(tip, 1));
        assert!(tree.trail_contains(tip, 2));
        assert!(!tree.trail_contains(tip, 3));
    }

    #[test]
    fn max_nodes_bound_aborts_cleanly() {
        let sub = diamond_sub();
        assert!(PatternsTree::build(&sub, 0, 2).is_none());
        assert!(PatternsTree::build(&sub, 0, 4).is_some());
    }

    #[test]
    fn multiple_distinct_trails_to_one_node_are_kept_separately() {
        // 0->1->3, 0->2->3: two trails end at 3.
        let sub = subtpiin_from_arcs(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            &[],
            vec![true, false, false, false],
        );
        let tree = PatternsTree::build(&sub, 0, usize::MAX).unwrap();
        assert_eq!(tree.endpoints[&3].len(), 2);
        let mut trails: Vec<Vec<u32>> = tree.endpoints[&3].iter().map(|&t| tree.trail(t)).collect();
        trails.sort();
        assert_eq!(trails, vec![vec![0, 1, 3], vec![0, 2, 3]]);
    }
}
