//! Materialized potential component pattern base (Fig. 10).
//!
//! The detector itself matches on the patterns tree; this module renders
//! the explicit pattern base — the per-subTPIIN artifact the paper stores
//! in `patterns(i)` — for inspection, explanation and the worked-example
//! tests.

use crate::listd::listd_order;
use crate::subtpiin::SubTpiin;
use crate::tree::PatternsTree;
use tpiin_fusion::Tpiin;
use tpiin_graph::NodeId;

/// One suspicious relationship trail of the potential component pattern
/// base: `{A1, …, Am}` (type (a), an `InOT-OutOSP` walk) or
/// `{A1, …, Am, -> Cj}` (type (b), an `InOT-FTAOP` walk).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ComponentPattern {
    /// The influence prefix, in global TPIIN node ids.
    pub nodes: Vec<NodeId>,
    /// The trading-arc target for type-(b) patterns.
    pub trading_target: Option<NodeId>,
}

impl ComponentPattern {
    /// Whether this is an `InOT-FTAOP` walk (ends with a trading arc).
    pub fn is_type_b(&self) -> bool {
        self.trading_target.is_some()
    }

    /// Renders the pattern in the paper's Fig. 10 notation, e.g.
    /// `"L1, C2, C5 -> C6"`, using TPIIN labels.
    pub fn render(&self, tpiin: &Tpiin) -> String {
        let prefix: Vec<&str> = self.nodes.iter().map(|&n| tpiin.label(n)).collect();
        match self.trading_target {
            Some(t) => format!("{} -> {}", prefix.join(", "), tpiin.label(t)),
            None => prefix.join(", "),
        }
    }
}

/// Generates the potential component pattern base of one subTPIIN
/// (Algorithm 2's `patterns` file): all type-(a) and type-(b) walks, with
/// roots processed in `ListD` order and walks in DFS discovery order.
///
/// `max_tree_nodes` bounds each root's tree; `None` on overflow.
pub fn generate_pattern_base(
    sub: &SubTpiin,
    max_tree_nodes: usize,
) -> Option<Vec<ComponentPattern>> {
    let mut base = Vec::new();
    let mut tree = PatternsTree::new();
    let mut trail = Vec::new();
    for &v in &listd_order(sub) {
        if sub.influence_in_degree[v as usize] != 0 {
            continue;
        }
        if !tree.build(sub, v, max_tree_nodes) {
            return None;
        }
        // Interleave a/b leaves in discovery order: reconstruct by walking
        // leaves in tree-node order (a-leaves keyed by their tree node,
        // b-leaves by theirs).
        let mut tagged: Vec<(u32, usize, Option<u32>)> = Vec::new();
        for (i, &a) in tree.a_leaves().iter().enumerate() {
            tagged.push((a, i, None));
        }
        for (i, leaf) in tree.b_leaves().iter().enumerate() {
            tagged.push((leaf.tree_node, i, Some(leaf.target)));
        }
        tagged.sort_by_key(|&(t, i, ref target)| (t, target.is_some(), i));
        for (t, _, target) in tagged {
            tree.trail_into(t, &mut trail);
            base.push(ComponentPattern {
                nodes: trail.iter().map(|&l| sub.global[l as usize]).collect(),
                trading_target: target.map(|c| sub.global[c as usize]),
            });
        }
    }
    Some(base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subtpiin::subtpiin_from_arcs;

    #[test]
    fn base_contains_both_walk_types() {
        // 0 -> 1 -> 2, trading 2 -> 3, 0 -> 3 (3 has no out-arcs).
        let sub = subtpiin_from_arcs(
            4,
            &[(0, 1), (1, 2), (0, 3)],
            &[(2, 3)],
            vec![true, false, false, false],
        );
        let base = generate_pattern_base(&sub, usize::MAX).unwrap();
        let rendered: Vec<(Vec<usize>, Option<usize>)> = base
            .iter()
            .map(|p| {
                (
                    p.nodes.iter().map(|n| n.index()).collect(),
                    p.trading_target.map(|n| n.index()),
                )
            })
            .collect();
        assert!(
            rendered.contains(&(vec![0, 1, 2], Some(3))),
            "type (b): {rendered:?}"
        );
        assert!(
            rendered.contains(&(vec![0, 3], None)),
            "type (a): {rendered:?}"
        );
        assert_eq!(base.len(), 2);
    }

    #[test]
    fn type_b_flag() {
        let p = ComponentPattern {
            nodes: vec![NodeId::from_index(0)],
            trading_target: None,
        };
        assert!(!p.is_type_b());
        let q = ComponentPattern {
            nodes: vec![NodeId::from_index(0)],
            trading_target: Some(NodeId::from_index(1)),
        };
        assert!(q.is_type_b());
    }

    #[test]
    fn overflow_returns_none() {
        let sub = subtpiin_from_arcs(3, &[(0, 1), (1, 2)], &[], vec![true, false, false]);
        assert!(generate_pattern_base(&sub, 1).is_none());
    }

    #[test]
    fn isolated_root_yields_single_node_pattern() {
        let sub = subtpiin_from_arcs(1, &[], &[], vec![true]);
        let base = generate_pattern_base(&sub, usize::MAX).unwrap();
        assert_eq!(base.len(), 1);
        assert_eq!(base[0].nodes.len(), 1);
        assert!(!base[0].is_type_b());
    }
}
