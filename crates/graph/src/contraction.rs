//! Node contraction into syndicates via quotient graphs.
//!
//! The paper performs two contraction passes while building a TPIIN:
//!
//! 1. **Interdependence edge contraction** (`G12 -> G12'`): persons joined
//!    by kinship/interlocking edges collapse into a *person syndicate*
//!    (e.g. nodes `L6`/`LB` of Fig. 7 become syndicate `L1` of Fig. 8).
//! 2. **Strongly-connected-subgraph contraction** (`G_B -> G123`): mutually
//!    investing companies collapse into a *company syndicate*, turning the
//!    antecedent network into a DAG.
//!
//! Both are the same operation: pick a partition of the nodes and build
//! the quotient graph, keeping provenance of which original nodes were
//! merged.  [`Partition`] encodes the partition; [`Partition::quotient`]
//! builds the contracted graph.

use crate::digraph::DiGraph;
use crate::ids::NodeId;
use crate::unionfind::UnionFind;

/// A partition of the node set `0..len` of some graph into groups.
#[derive(Clone, Debug)]
pub struct Partition {
    /// `labels[v]` is the group of node `v`; labels are dense in
    /// `0..group_count`.
    labels: Vec<u32>,
    group_count: usize,
}

/// Result of contracting a graph along a [`Partition`].
pub struct ContractionOutcome<N2, E> {
    /// The quotient graph.  Node `k` corresponds to partition group `k`.
    pub graph: DiGraph<N2, E>,
    /// For each quotient node, the original node ids merged into it, in
    /// ascending order.  Singleton groups have a one-element list.
    pub members: Vec<Vec<NodeId>>,
    /// Number of self-loop edges dropped because both endpoints fell into
    /// the same group (e.g. the investment arcs inside a contracted SCC).
    pub dropped_internal_edges: usize,
}

impl Partition {
    /// Builds a partition from a dense labelling (`labels[v] < group_count`).
    ///
    /// # Panics
    /// Panics if any label is out of range.
    pub fn from_labels(labels: Vec<u32>, group_count: usize) -> Self {
        assert!(
            labels.iter().all(|&l| (l as usize) < group_count),
            "partition label out of range"
        );
        Partition {
            labels,
            group_count,
        }
    }

    /// Builds the partition whose groups are the connected components of
    /// the undirected relation given by `pairs` over `len` nodes.  This is
    /// exactly the fixed point of repeatedly contracting one relation edge
    /// at a time, as the paper describes for interdependence links.
    pub fn from_merge_pairs(len: usize, pairs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut uf = UnionFind::new(len);
        for (a, b) in pairs {
            uf.union(a.index(), b.index());
        }
        let (labels, group_count) = uf.into_labels();
        Partition {
            labels,
            group_count,
        }
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// The dense labelling: `labels()[v]` is the group of node `v`.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Group of node `v`, as a node id of the quotient graph.
    pub fn group_of(&self, v: NodeId) -> NodeId {
        NodeId::from_index(self.labels[v.index()] as usize)
    }

    /// Whether the partition is trivial (every group a singleton).
    pub fn is_identity(&self) -> bool {
        self.group_count == self.labels.len()
    }

    /// Contracts `graph` along this partition.
    ///
    /// * Quotient node `k`'s payload is produced by `merge_nodes`, which
    ///   receives the (non-empty, ascending) member list of group `k`.
    /// * Edges between distinct groups are kept (payload cloned); edges
    ///   internal to a group are dropped and counted.
    /// * Parallel quotient edges are preserved; dedupe afterwards if the
    ///   caller needs simple graphs.
    ///
    /// # Panics
    /// Panics if the partition length differs from the graph's node count.
    pub fn quotient<N, E: Clone, N2>(
        &self,
        graph: &DiGraph<N, E>,
        mut merge_nodes: impl FnMut(&[NodeId]) -> N2,
    ) -> ContractionOutcome<N2, E> {
        assert_eq!(
            self.labels.len(),
            graph.node_count(),
            "partition does not match graph size"
        );
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); self.group_count];
        for v in graph.node_ids() {
            members[self.labels[v.index()] as usize].push(v);
        }
        let mut quotient: DiGraph<N2, E> =
            DiGraph::with_capacity(self.group_count, graph.edge_count());
        for group in &members {
            debug_assert!(!group.is_empty(), "dense labels guarantee non-empty groups");
            quotient.add_node(merge_nodes(group));
        }
        let mut dropped = 0usize;
        for edge in graph.edges() {
            let s = self.group_of(edge.source);
            let t = self.group_of(edge.target);
            if s == t {
                dropped += 1;
            } else {
                quotient.add_edge(s, t, edge.weight.clone());
            }
        }
        ContractionOutcome {
            graph: quotient,
            members,
            dropped_internal_edges: dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_from(edges: &[(usize, usize)], n: usize) -> DiGraph<usize, u32> {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
        for (k, &(a, b)) in edges.iter().enumerate() {
            g.add_edge(ids[a], ids[b], k as u32);
        }
        g
    }

    #[test]
    fn merge_pairs_forms_transitive_groups() {
        let p = Partition::from_merge_pairs(
            5,
            [
                (NodeId::from_index(0), NodeId::from_index(1)),
                (NodeId::from_index(1), NodeId::from_index(2)),
            ],
        );
        assert_eq!(p.group_count(), 3);
        assert_eq!(
            p.group_of(NodeId::from_index(0)),
            p.group_of(NodeId::from_index(2))
        );
        assert_ne!(
            p.group_of(NodeId::from_index(0)),
            p.group_of(NodeId::from_index(3))
        );
        assert!(!p.is_identity());
    }

    #[test]
    fn quotient_reattaches_external_arcs_and_drops_internal() {
        // 0 -> 1 (will merge 0,1), 1 -> 2, 3 -> 0.
        let g = graph_from(&[(0, 1), (1, 2), (3, 0)], 4);
        let p = Partition::from_merge_pairs(4, [(NodeId::from_index(0), NodeId::from_index(1))]);
        let out = p.quotient(&g, |members| members.len());
        assert_eq!(out.graph.node_count(), 3);
        assert_eq!(out.dropped_internal_edges, 1);
        assert_eq!(out.graph.edge_count(), 2);
        // The merged group contains the two original nodes.
        let syndicate = p.group_of(NodeId::from_index(0));
        assert_eq!(
            out.members[syndicate.index()],
            vec![NodeId::from_index(0), NodeId::from_index(1)]
        );
        assert_eq!(*out.graph.node(syndicate), 2);
        // 1 -> 2 became syndicate -> group(2); 3 -> 0 became group(3) -> syndicate.
        assert!(out
            .graph
            .contains_edge(syndicate, p.group_of(NodeId::from_index(2))));
        assert!(out
            .graph
            .contains_edge(p.group_of(NodeId::from_index(3)), syndicate));
    }

    #[test]
    fn identity_partition_copies_the_graph() {
        let g = graph_from(&[(0, 1), (1, 2)], 3);
        let p = Partition::from_labels(vec![0, 1, 2], 3);
        assert!(p.is_identity());
        let out = p.quotient(&g, |m| m[0].index());
        assert_eq!(out.graph.node_count(), 3);
        assert_eq!(out.graph.edge_count(), 2);
        assert_eq!(out.dropped_internal_edges, 0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_rejected() {
        Partition::from_labels(vec![0, 3], 2);
    }

    #[test]
    #[should_panic(expected = "does not match graph size")]
    fn mismatched_partition_rejected() {
        let g = graph_from(&[], 2);
        let p = Partition::from_labels(vec![0], 1);
        let _ = p.quotient(&g, |_| ());
    }
}
