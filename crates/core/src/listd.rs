//! The `ListD` node ordering of Algorithm 2, step 2.
//!
//! Algorithm 2 sorts the nodes of a subTPIIN "according to the increase in
//! indegree of each node and inverted order of outdegree of each node"
//! (Fig. 9(a)).  The ordering only affects the enumeration order of the
//! component pattern base, not its contents; we keep it for fidelity and
//! deterministic output.

use crate::subtpiin::SubTpiin;

/// Returns the local node ids of `sub` sorted by (indegree ascending,
/// outdegree descending, node id ascending).
///
/// Degrees are taken over the whole subTPIIN (influence + trading), as in
/// Algorithm 2 step 1.
pub fn listd_order(sub: &SubTpiin) -> Vec<u32> {
    let n = sub.node_count();
    let mut in_deg = vec![0u32; n];
    for v in 0..n as u32 {
        for &t in sub.influence(v).iter().chain(sub.trading(v)) {
            in_deg[t as usize] += 1;
        }
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (in_deg[v as usize], std::cmp::Reverse(sub.out_degree(v)), v));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subtpiin::subtpiin_from_arcs;

    #[test]
    fn indegree_ascending_then_outdegree_descending() {
        // Node 0: in 0, out 2. Node 1: in 0, out 1. Node 2: in 2, out 1.
        // Node 3: in 2, out 0.
        let sub = subtpiin_from_arcs(
            4,
            &[(0, 2), (0, 3), (1, 2)],
            &[(2, 3)],
            vec![true, true, false, false],
        );
        let order = listd_order(&sub);
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ties_break_by_node_id() {
        let sub = subtpiin_from_arcs(2, &[], &[], vec![true, true]);
        assert_eq!(listd_order(&sub), vec![0, 1]);
    }
}
