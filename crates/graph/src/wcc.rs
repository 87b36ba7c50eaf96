//! Weakly connected components.
//!
//! Step 3 of the paper's Algorithm 1 segments the antecedent network into
//! maximal weakly connected subgraphs (`MWCS`): a trading arc whose two
//! endpoints fall into different antecedent components cannot be backed by
//! a common interest party, so each component can be mined independently
//! (divide and conquer).

use crate::digraph::DiGraph;
use crate::unionfind::UnionFind;

/// Computes the weakly connected components of `graph` (edge direction
/// ignored).
///
/// Returns `(labels, count)`: `labels[v]` is the component of node `v`,
/// with labels dense in `0..count` and assigned in order of first
/// appearance by node index — deterministic across runs.
pub fn weakly_connected_components<N, E>(graph: &DiGraph<N, E>) -> (Vec<u32>, usize) {
    let mut uf = UnionFind::new(graph.node_count());
    for edge in graph.edges() {
        uf.union(edge.source.index(), edge.target.index());
    }
    uf.into_labels()
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
    fn direction_is_ignored() {
        // 0 -> 1 and 2 -> 1: all three weakly connected.
        let g = graph_from(&[(0, 1), (2, 1)], 3);
        let (labels, count) = weakly_connected_components(&g);
        assert_eq!(count, 1);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn isolated_nodes_are_their_own_components() {
        let g = graph_from(&[(0, 1)], 4);
        let (labels, count) = weakly_connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[2], labels[3]);
    }

    #[test]
    fn empty_graph() {
        let g: DiGraph<(), ()> = DiGraph::new();
        let (labels, count) = weakly_connected_components(&g);
        assert!(labels.is_empty());
        assert_eq!(count, 0);
    }
}
