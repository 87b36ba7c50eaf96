//! Append-only directed multigraph with typed node and edge payloads.

use crate::ids::{EdgeId, NodeId};

#[derive(Clone, Debug)]
struct EdgeSlot<E> {
    source: NodeId,
    target: NodeId,
    weight: E,
}

/// A borrowed view of one edge: its id, endpoints, and payload.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRef<'g, E> {
    /// Identifier of the edge inside the owning graph.
    pub id: EdgeId,
    /// Tail of the arc.
    pub source: NodeId,
    /// Head of the arc.
    pub target: NodeId,
    /// Borrowed payload.
    pub weight: &'g E,
}

/// An append-only directed multigraph: a node column and an edge column,
/// nothing else.
///
/// * It keeps no adjacency.  Neighbour questions go to the
///   [`CsrGraph`](crate::CsrGraph) that [`DiGraph::freeze`] /
///   [`DiGraph::freeze_lanes`] pack from the edge column.
/// * Parallel edges and self-loops are allowed — the fusion pipeline
///   deduplicates where the paper requires it, not the storage layer.
/// * Nodes and edges can never be removed; fusion computes the
///   syndicate contractions as labels and assembles the final network
///   once, instead of deriving intermediate graphs.
/// * All iteration orders are deterministic (insertion order), which keeps
///   the detection output stable across runs — important because the
///   paper's component-pattern base (Fig. 10) is ordered.
#[derive(Clone, Debug)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<EdgeSlot<E>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    /// Panics if the graph already holds [`NodeId::MAX`] nodes.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        assert!(self.nodes.len() < NodeId::MAX, "node capacity exhausted");
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(weight);
        id
    }

    /// Adds a directed edge `source -> target` and returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint is not a node of this graph, or the edge
    /// capacity is exhausted.
    pub fn add_edge(&mut self, source: NodeId, target: NodeId, weight: E) -> EdgeId {
        assert!(
            source.index() < self.nodes.len(),
            "source {source:?} out of bounds"
        );
        assert!(
            target.index() < self.nodes.len(),
            "target {target:?} out of bounds"
        );
        assert!(self.edges.len() < EdgeId::MAX, "edge capacity exhausted");
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(EdgeSlot {
            source,
            target,
            weight,
        });
        id
    }

    /// Inserts a directed edge `source -> target` *at edge id `pos`*,
    /// shifting every existing edge id `>= pos` up by one.  The result
    /// is identical to rebuilding the graph from scratch with the new
    /// edge spliced into the insertion sequence at that position — the
    /// primitive that lets incremental maintenance mirror edge orders a
    /// from-scratch build would pin (e.g. "all antecedent arcs before
    /// all trading arcs").
    ///
    /// Costs O(E) for the id shift, vs O(1) for [`DiGraph::add_edge`]:
    /// meant for small deltas against graphs whose full rebuild would
    /// cost far more than one linear pass.
    ///
    /// # Panics
    /// Panics if either endpoint is not a node of this graph, if
    /// `pos > edge_count()`, or if the edge capacity is exhausted.
    pub fn splice_edge(&mut self, pos: usize, source: NodeId, target: NodeId, weight: E) -> EdgeId {
        assert!(
            source.index() < self.nodes.len(),
            "source {source:?} out of bounds"
        );
        assert!(
            target.index() < self.nodes.len(),
            "target {target:?} out of bounds"
        );
        assert!(
            pos <= self.edges.len(),
            "splice position {pos} out of bounds"
        );
        assert!(self.edges.len() < EdgeId::MAX, "edge capacity exhausted");
        self.edges.insert(
            pos,
            EdgeSlot {
                source,
                target,
                weight,
            },
        );
        EdgeId::from_index(pos)
    }

    /// Builds a graph from complete node and edge lists in one pass —
    /// identical to [`DiGraph::add_node`] / [`DiGraph::add_edge`] calls
    /// in the same order, without growing the columns one push at a
    /// time.
    ///
    /// # Panics
    /// Panics if any edge endpoint is out of bounds, or node/edge
    /// capacity is exhausted.
    pub fn from_edge_list(nodes: Vec<N>, edge_list: Vec<(NodeId, NodeId, E)>) -> Self {
        assert!(nodes.len() <= NodeId::MAX, "node capacity exhausted");
        assert!(edge_list.len() <= EdgeId::MAX, "edge capacity exhausted");
        let n = nodes.len();
        let edges = edge_list
            .into_iter()
            .map(|(source, target, weight)| {
                assert!(source.index() < n, "source {source:?} out of bounds");
                assert!(target.index() < n, "target {target:?} out of bounds");
                EdgeSlot {
                    source,
                    target,
                    weight,
                }
            })
            .collect();
        DiGraph { nodes, edges }
    }

    /// Exact heap bytes of the graph's own buffers: node slots and edge
    /// slots.  Allocations owned by the payloads themselves (e.g.
    /// strings inside `N`) are the caller's to count.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<N>()
            + self.edges.capacity() * std::mem::size_of::<EdgeSlot<E>>()
    }

    /// Borrow a node payload.
    #[inline]
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Borrow an edge payload.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &E {
        &self.edges[id.index()].weight
    }

    /// Endpoints `(source, target)` of an edge.
    #[inline]
    pub fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[id.index()];
        (e.source, e.target)
    }

    /// Iterator over all node ids in insertion order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterator over `(id, payload)` for all nodes.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &N)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, w)| (NodeId::from_index(i), w))
    }

    /// Iterator over all edges in insertion order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeRef<'_, E>> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| EdgeRef {
            id: EdgeId::from_index(i),
            source: e.source,
            target: e.target,
            weight: &e.weight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<u32, &'static str>, Vec<NodeId>) {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..4u32).map(|i| g.add_node(i)).collect();
        g.add_edge(n[0], n[1], "a");
        g.add_edge(n[0], n[2], "b");
        g.add_edge(n[1], n[3], "c");
        g.add_edge(n[2], n[3], "d");
        (g, n)
    }

    fn bulk_diamond() -> DiGraph<u32, &'static str> {
        let n = NodeId::from_index;
        DiGraph::from_edge_list(
            (0..4u32).collect(),
            vec![
                (n(0), n(1), "a"),
                (n(0), n(2), "b"),
                (n(1), n(3), "c"),
                (n(2), n(3), "d"),
            ],
        )
    }

    /// Per lane and node: out-neighbours, their edge ids, in-neighbours.
    type Rows = Vec<(Vec<u32>, Vec<EdgeId>, Vec<u32>)>;
    /// Node payloads, edge column, and the frozen rows of both lanes.
    type Shape = (Vec<u32>, Vec<(EdgeId, NodeId, NodeId, &'static str)>, Rows);

    /// Everything a reader can see of `g`: its columns, and the
    /// two-lane CSR it freezes to (lane = parity of the label's first
    /// byte, so both lanes mix arcs).
    fn shape(g: &DiGraph<u32, &'static str>) -> Shape {
        let csr = g.freeze_lanes(2, |_, w| usize::from(w.as_bytes()[0] % 2));
        let rows = (0..2)
            .flat_map(|lane| {
                let csr = &csr;
                (0..csr.node_count() as u32).map(move |v| {
                    (
                        csr.out(lane, v).to_vec(),
                        csr.out_edge_ids(lane, v).to_vec(),
                        csr.sources(lane, v).to_vec(),
                    )
                })
            })
            .collect();
        (
            g.nodes().map(|(_, &w)| w).collect(),
            g.edges()
                .map(|e| (e.id, e.source, e.target, *e.weight))
                .collect(),
            rows,
        )
    }

    #[test]
    fn from_edge_list_matches_incremental_build() {
        let (incremental, _) = diamond();
        assert_eq!(shape(&bulk_diamond()), shape(&incremental));
    }

    #[test]
    fn splice_edge_matches_from_scratch_insertion_order() {
        // Splicing "x" at position 2 must equal a clean build whose
        // insertion sequence has "x" third.
        let (mut spliced, n) = diamond();
        spliced.splice_edge(2, n[3], n[0], "x");

        let mut rebuilt = DiGraph::new();
        let m: Vec<_> = (0..4u32).map(|i| rebuilt.add_node(i)).collect();
        rebuilt.add_edge(m[0], m[1], "a");
        rebuilt.add_edge(m[0], m[2], "b");
        rebuilt.add_edge(m[3], m[0], "x");
        rebuilt.add_edge(m[1], m[3], "c");
        rebuilt.add_edge(m[2], m[3], "d");
        assert_eq!(shape(&spliced), shape(&rebuilt));

        // A bulk-built graph splices at the front the same way, and keeps
        // matching an incremental build as both grow a node and arcs.
        let mut bulk = bulk_diamond();
        bulk.splice_edge(0, n[3], n[0], "first");
        assert_eq!(*bulk.edge(EdgeId::from_index(0)), "first");
        assert_eq!(*bulk.edge(EdgeId::from_index(1)), "a");
        let csr = bulk.freeze();
        let out: Vec<_> = (csr.out_edge_ids(0, 0).iter())
            .map(|&id| *bulk.edge(id))
            .collect();
        assert_eq!(out, vec!["a", "b"]);
        assert_eq!(csr.sources(0, 0), &[3]);

        let mut incremental = DiGraph::new();
        let m: Vec<_> = (0..4u32).map(|i| incremental.add_node(i)).collect();
        incremental.add_edge(m[3], m[0], "first");
        incremental.add_edge(m[0], m[1], "a");
        incremental.add_edge(m[0], m[2], "b");
        incremental.add_edge(m[1], m[3], "c");
        incremental.add_edge(m[2], m[3], "d");
        for g in [&mut bulk, &mut incremental] {
            let extra = g.add_node(99);
            g.add_edge(n[3], extra, "e");
            g.add_edge(extra, n[0], "f");
        }
        assert_eq!(shape(&bulk), shape(&incremental));
        assert!(bulk.heap_bytes() > 0);
    }

    #[test]
    fn splice_edge_at_end_equals_add_edge() {
        let (mut spliced, n) = diamond();
        let (mut appended, _) = diamond();
        let a = spliced.splice_edge(spliced.edge_count(), n[3], n[1], "e");
        let b = appended.add_edge(n[3], n[1], "e");
        assert_eq!(a, b);
        assert_eq!(shape(&spliced), shape(&appended));
    }

    #[test]
    #[should_panic(expected = "splice position")]
    fn splice_edge_rejects_out_of_range_position() {
        let (mut g, n) = diamond();
        g.splice_edge(99, n[0], n[1], "z");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edge_list_rejects_dangling_endpoints() {
        DiGraph::from_edge_list(
            vec![0u32],
            vec![(NodeId::from_index(0), NodeId::from_index(9), "x")],
        );
    }

    #[test]
    fn counts_and_degrees() {
        let (g, _) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        let csr = g.freeze();
        assert_eq!(csr.out_degree(0, 0), 2);
        assert_eq!(csr.in_degree(0, 0), 0);
        assert_eq!(csr.in_degree(0, 3), 2);
        assert_eq!(csr.out_degree(0, 3), 0);
    }

    #[test]
    fn edge_lookup() {
        let (g, n) = diamond();
        let e = EdgeId::from_index(3);
        assert_eq!(*g.edge(e), "d");
        assert_eq!(g.endpoints(e), (n[2], n[3]));
    }

    #[test]
    fn parallel_edges_and_self_loops_are_preserved() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        g.add_edge(a, a, 3);
        let csr = g.freeze();
        assert_eq!(csr.out_degree(0, 0), 3);
        assert_eq!(csr.in_degree(0, 1), 2);
        assert_eq!(csr.in_degree(0, 0), 1);
        assert_eq!(csr.out(0, 0), &[1, 1, 0]);
        let weights: Vec<_> = (csr.out_edge_ids(0, 0).iter())
            .map(|&id| *g.edge(id))
            .collect();
        assert_eq!(weights, vec![1, 2, 3]);
    }

    #[test]
    fn node_and_edge_iterators() {
        let (g, _) = diamond();
        assert_eq!(g.node_ids().count(), 4);
        let weights: Vec<_> = g.edges().map(|e| *e.weight).collect();
        assert_eq!(weights, vec!["a", "b", "c", "d"]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn edge_to_missing_node_panics() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId::from_index(5), ());
    }
}
