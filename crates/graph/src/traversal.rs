//! Reachability, cycle detection and topological ordering.
//!
//! Everything here is iterative — the synthetic province networks reach
//! hundreds of thousands of arcs and a recursive DFS would overflow the
//! stack long before that.

use crate::digraph::DiGraph;
use crate::ids::NodeId;

/// Error returned by [`topological_sort`] when the graph has a directed
/// cycle; carries one node known to lie on a cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleError {
    /// A node that participates in some directed cycle.
    pub on_cycle: NodeId,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph contains a directed cycle through {:?}",
            self.on_cycle
        )
    }
}

impl std::error::Error for CycleError {}

/// Boolean reachability mask from `start` (index = node index).
pub fn reachable_from<N, E>(graph: &DiGraph<N, E>, start: NodeId) -> Vec<bool> {
    let mut visited = vec![false; graph.node_count()];
    let mut stack = vec![start];
    visited[start.index()] = true;
    while let Some(node) = stack.pop() {
        for s in graph.successors(node) {
            if !std::mem::replace(&mut visited[s.index()], true) {
                stack.push(s);
            }
        }
    }
    visited
}

/// Kahn's algorithm.  Returns a topological order of all nodes, or a
/// [`CycleError`] naming a node on a directed cycle.
pub fn topological_sort<N, E>(graph: &DiGraph<N, E>) -> Result<Vec<NodeId>, CycleError> {
    let n = graph.node_count();
    let mut indegree: Vec<usize> = (0..n)
        .map(|i| graph.in_degree(NodeId::from_index(i)))
        .collect();
    let mut queue: Vec<NodeId> = graph
        .node_ids()
        .filter(|&v| indegree[v.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let node = queue[head];
        head += 1;
        order.push(node);
        for s in graph.successors(node) {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                queue.push(s);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let on_cycle = graph
            .node_ids()
            .find(|&v| indegree[v.index()] > 0)
            .expect("incomplete topological order implies a node with residual indegree");
        Err(CycleError { on_cycle })
    }
}

/// Whether the graph is a DAG.  The paper's antecedent network `G123` must
/// satisfy this after SCC contraction (Appendix A).
pub fn is_acyclic<N, E>(graph: &DiGraph<N, E>) -> bool {
    topological_sort(graph).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_from(edges: &[(usize, usize)], n: usize) -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
        for &(a, b) in edges {
            g.add_edge(ids[a], ids[b], ());
        }
        g
    }

    #[test]
    fn reachability_mask() {
        let g = graph_from(&[(0, 1), (1, 2), (3, 1)], 4);
        let mask = reachable_from(&g, NodeId::from_index(0));
        assert_eq!(mask, vec![true, true, true, false]);
    }

    #[test]
    fn topological_sort_of_dag() {
        let g = graph_from(&[(0, 1), (0, 2), (1, 3), (2, 3)], 4);
        let order = topological_sort(&g).unwrap();
        let pos = |i: usize| {
            order
                .iter()
                .position(|&v| v == NodeId::from_index(i))
                .unwrap()
        };
        assert!(pos(0) < pos(1) && pos(0) < pos(2));
        assert!(pos(1) < pos(3) && pos(2) < pos(3));
    }

    #[test]
    fn topological_sort_detects_cycles() {
        let g = graph_from(&[(0, 1), (1, 2), (2, 0)], 3);
        let err = topological_sort(&g).unwrap_err();
        assert!(err.on_cycle.index() < 3);
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = graph_from(&[(0, 0)], 1);
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert!(is_acyclic(&g));
        assert!(topological_sort(&g).unwrap().is_empty());
    }
}
