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

/// Edge-id adjacency rows in one of two layouts: growable per-node
/// vectors while a graph is built incrementally, or a flat offsets+ids
/// pair (CSR-style) produced by bulk construction.  The flat layout
/// costs two allocations total instead of one `Vec` per node, which is
/// what makes snapshot materialization allocation-lean; the first
/// incremental edge insertion thaws it back into nested rows.
#[derive(Clone, Debug)]
enum Adjacency {
    Nested(Vec<Vec<EdgeId>>),
    Flat { offsets: Vec<u32>, ids: Vec<EdgeId> },
}

impl Adjacency {
    /// The edge ids adjacent to node `v`, in insertion order.
    #[inline]
    fn row(&self, v: usize) -> &[EdgeId] {
        match self {
            Adjacency::Nested(rows) => &rows[v],
            Adjacency::Flat { offsets, ids } => &ids[offsets[v] as usize..offsets[v + 1] as usize],
        }
    }

    /// Appends an empty row for a freshly added node.
    fn push_node(&mut self) {
        match self {
            Adjacency::Nested(rows) => rows.push(Vec::new()),
            // A new node has no edges: duplicating the final offset adds
            // an empty row without leaving the flat layout.
            Adjacency::Flat { offsets, .. } => {
                offsets.push(*offsets.last().expect("flat offsets start at [0]"));
            }
        }
    }

    /// Rebuilds a flat layout into nested rows so a single row can grow
    /// (inserting mid-array would shift every later row).
    fn thaw(&mut self) {
        if let Adjacency::Flat { offsets, ids } = self {
            let rows = (0..offsets.len() - 1)
                .map(|u| ids[offsets[u] as usize..offsets[u + 1] as usize].to_vec())
                .collect();
            *self = Adjacency::Nested(rows);
        }
    }

    /// Appends `id` to node `v`'s row, thawing a flat layout first.
    fn push_edge(&mut self, v: usize, id: EdgeId) {
        self.thaw();
        match self {
            Adjacency::Nested(rows) => rows[v].push(id),
            Adjacency::Flat { .. } => unreachable!("thawed above"),
        }
    }

    /// Shifts every stored edge id `>= pos` up by one, then inserts the
    /// freed id `pos` into node `v`'s row at its id-sorted position.
    /// Requires (and preserves) rows sorted ascending by edge id.
    fn splice_edge(&mut self, v: usize, pos: usize) {
        self.thaw();
        let Adjacency::Nested(rows) = self else {
            unreachable!("thawed above")
        };
        for row in rows.iter_mut() {
            for id in row.iter_mut() {
                if id.index() >= pos {
                    *id = EdgeId::from_index(id.index() + 1);
                }
            }
        }
        let row = &mut rows[v];
        let at = row.partition_point(|&id| id.index() < pos);
        row.insert(at, EdgeId::from_index(pos));
    }

    /// Exact heap bytes of the rows' buffers.
    fn heap_bytes(&self) -> usize {
        match self {
            Adjacency::Nested(rows) => {
                rows.capacity() * std::mem::size_of::<Vec<EdgeId>>()
                    + rows
                        .iter()
                        .map(|r| r.capacity() * std::mem::size_of::<EdgeId>())
                        .sum::<usize>()
            }
            Adjacency::Flat { offsets, ids } => {
                offsets.capacity() * std::mem::size_of::<u32>()
                    + ids.capacity() * std::mem::size_of::<EdgeId>()
            }
        }
    }
}

/// An append-only directed multigraph.
///
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
    out_adj: Adjacency,
    in_adj: Adjacency,
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
            out_adj: Adjacency::Nested(Vec::new()),
            in_adj: Adjacency::Nested(Vec::new()),
        }
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_adj: Adjacency::Nested(Vec::with_capacity(nodes)),
            in_adj: Adjacency::Nested(Vec::with_capacity(nodes)),
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
        self.out_adj.push_node();
        self.in_adj.push_node();
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
        self.out_adj.push_edge(source.index(), id);
        self.in_adj.push_edge(target.index(), id);
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
    /// Requires adjacency rows sorted ascending by edge id, which every
    /// constructor in this crate establishes ([`DiGraph::add_edge`]
    /// appends the maximum id; [`DiGraph::from_edge_list`] scatters ids
    /// in order) and this method preserves.
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
        self.out_adj.splice_edge(source.index(), pos);
        self.in_adj.splice_edge(target.index(), pos);
        EdgeId::from_index(pos)
    }

    /// Builds a graph from complete node and edge lists in one pass —
    /// identical to [`DiGraph::add_node`] / [`DiGraph::add_edge`] calls
    /// in the same order, but storing adjacency in the flat CSR-style
    /// layout: two bulk arrays per direction instead of one growable
    /// `Vec` per node.  Bulk loaders skip ~2 heap allocations per node,
    /// which is the difference between a zero-copy snapshot load being
    /// allocation-bound and memory-bandwidth-bound.
    ///
    /// # Panics
    /// Panics if any edge endpoint is out of bounds, or node/edge
    /// capacity is exhausted.
    pub fn from_edge_list(nodes: Vec<N>, edge_list: Vec<(NodeId, NodeId, E)>) -> Self {
        assert!(nodes.len() <= NodeId::MAX, "node capacity exhausted");
        assert!(edge_list.len() <= EdgeId::MAX, "edge capacity exhausted");
        let n = nodes.len();
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for (source, target, _) in &edge_list {
            assert!(source.index() < n, "source {source:?} out of bounds");
            assert!(target.index() < n, "target {target:?} out of bounds");
            out_offsets[source.index() + 1] += 1;
            in_offsets[target.index() + 1] += 1;
        }
        for v in 0..n {
            out_offsets[v + 1] += out_offsets[v];
            in_offsets[v + 1] += in_offsets[v];
        }
        // Scatter edge ids into their rows with a cursor per node; ids
        // are visited in insertion order, so every row stays sorted the
        // way incremental `add_edge` calls would have left it.
        let mut out_ids = vec![EdgeId::from_index(0); edge_list.len()];
        let mut in_ids = vec![EdgeId::from_index(0); edge_list.len()];
        let mut out_cursor: Vec<u32> = out_offsets[..n].to_vec();
        let mut in_cursor: Vec<u32> = in_offsets[..n].to_vec();
        let mut edges = Vec::with_capacity(edge_list.len());
        for (i, (source, target, weight)) in edge_list.into_iter().enumerate() {
            let id = EdgeId::from_index(i);
            out_ids[out_cursor[source.index()] as usize] = id;
            out_cursor[source.index()] += 1;
            in_ids[in_cursor[target.index()] as usize] = id;
            in_cursor[target.index()] += 1;
            edges.push(EdgeSlot {
                source,
                target,
                weight,
            });
        }
        DiGraph {
            nodes,
            edges,
            out_adj: Adjacency::Flat {
                offsets: out_offsets,
                ids: out_ids,
            },
            in_adj: Adjacency::Flat {
                offsets: in_offsets,
                ids: in_ids,
            },
        }
    }

    /// Exact heap bytes of the graph's own buffers: node slots, edge
    /// slots, and adjacency rows.  Allocations owned by the payloads
    /// themselves (e.g. strings inside `N`) are the caller's to count.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<N>()
            + self.edges.capacity() * std::mem::size_of::<EdgeSlot<E>>()
            + self.out_adj.heap_bytes()
            + self.in_adj.heap_bytes()
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

    /// Outgoing edges of `node` in insertion order.
    pub fn out_edges(&self, node: NodeId) -> impl ExactSizeIterator<Item = EdgeRef<'_, E>> + '_ {
        self.out_adj.row(node.index()).iter().map(move |&id| {
            let e = &self.edges[id.index()];
            EdgeRef {
                id,
                source: e.source,
                target: e.target,
                weight: &e.weight,
            }
        })
    }

    /// Incoming edges of `node` in insertion order.
    pub fn in_edges(&self, node: NodeId) -> impl ExactSizeIterator<Item = EdgeRef<'_, E>> + '_ {
        self.in_adj.row(node.index()).iter().map(move |&id| {
            let e = &self.edges[id.index()];
            EdgeRef {
                id,
                source: e.source,
                target: e.target,
                weight: &e.weight,
            }
        })
    }

    /// Number of outgoing edges of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_adj.row(node.index()).len()
    }

    /// Number of incoming edges of `node`.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_adj.row(node.index()).len()
    }

    /// Whether at least one `source -> target` edge exists.
    pub fn contains_edge(&self, source: NodeId, target: NodeId) -> bool {
        // Scan the smaller adjacency list of the two endpoints.
        let out = self.out_adj.row(source.index());
        let inn = self.in_adj.row(target.index());
        if out.len() <= inn.len() {
            out.iter()
                .any(|&id| self.edges[id.index()].target == target)
        } else {
            inn.iter()
                .any(|&id| self.edges[id.index()].source == source)
        }
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

    #[test]
    fn from_edge_list_matches_incremental_build() {
        let (incremental, n) = diamond();
        let bulk = DiGraph::from_edge_list(
            (0..4u32).collect(),
            vec![
                (n[0], n[1], "a"),
                (n[0], n[2], "b"),
                (n[1], n[3], "c"),
                (n[2], n[3], "d"),
            ],
        );
        assert_eq!(bulk.node_count(), incremental.node_count());
        assert_eq!(bulk.edge_count(), incremental.edge_count());
        for v in bulk.node_ids() {
            assert_eq!(bulk.node(v), incremental.node(v));
            let ids = |g: &DiGraph<u32, &str>, v| {
                (
                    g.out_edges(v).map(|e| e.id).collect::<Vec<_>>(),
                    g.in_edges(v).map(|e| e.id).collect::<Vec<_>>(),
                )
            };
            assert_eq!(ids(&bulk, v), ids(&incremental, v));
        }
        for (a, b) in bulk.edges().zip(incremental.edges()) {
            assert_eq!(
                (a.id, a.source, a.target, a.weight),
                (b.id, b.source, b.target, b.weight)
            );
        }
    }

    #[test]
    fn bulk_graph_thaws_for_incremental_mutation() {
        let (mut incremental, n) = diamond();
        let mut bulk = DiGraph::from_edge_list(
            (0..4u32).collect(),
            vec![
                (n[0], n[1], "a"),
                (n[0], n[2], "b"),
                (n[1], n[3], "c"),
                (n[2], n[3], "d"),
            ],
        );
        // Grow both graphs the same way: flat adjacency must accept new
        // nodes in place and thaw transparently on the first add_edge.
        for g in [&mut bulk, &mut incremental] {
            let extra = g.add_node(99);
            g.add_edge(n[3], extra, "e");
            g.add_edge(extra, n[0], "f");
        }
        for v in bulk.node_ids() {
            assert_eq!(
                bulk.out_edges(v).map(|e| e.id).collect::<Vec<_>>(),
                incremental.out_edges(v).map(|e| e.id).collect::<Vec<_>>()
            );
            assert_eq!(
                bulk.in_edges(v).map(|e| e.id).collect::<Vec<_>>(),
                incremental.in_edges(v).map(|e| e.id).collect::<Vec<_>>()
            );
        }
        assert!(bulk.heap_bytes() > 0);
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

        assert_eq!(spliced.edge_count(), rebuilt.edge_count());
        for (a, b) in spliced.edges().zip(rebuilt.edges()) {
            assert_eq!(
                (a.id, a.source, a.target, a.weight),
                (b.id, b.source, b.target, b.weight)
            );
        }
        for v in spliced.node_ids() {
            assert_eq!(
                spliced.out_edges(v).map(|e| e.id).collect::<Vec<_>>(),
                rebuilt.out_edges(v).map(|e| e.id).collect::<Vec<_>>()
            );
            assert_eq!(
                spliced.in_edges(v).map(|e| e.id).collect::<Vec<_>>(),
                rebuilt.in_edges(v).map(|e| e.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn splice_edge_at_end_equals_add_edge() {
        let (mut spliced, n) = diamond();
        let (mut appended, _) = diamond();
        let a = spliced.splice_edge(spliced.edge_count(), n[3], n[1], "e");
        let b = appended.add_edge(n[3], n[1], "e");
        assert_eq!(a, b);
        for v in spliced.node_ids() {
            assert_eq!(
                spliced.out_edges(v).map(|e| e.id).collect::<Vec<_>>(),
                appended.out_edges(v).map(|e| e.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn splice_edge_thaws_flat_adjacency() {
        let (_, n) = diamond();
        let mut bulk = DiGraph::from_edge_list(
            (0..4u32).collect(),
            vec![
                (n[0], n[1], "a"),
                (n[0], n[2], "b"),
                (n[1], n[3], "c"),
                (n[2], n[3], "d"),
            ],
        );
        bulk.splice_edge(0, n[3], n[0], "first");
        assert_eq!(*bulk.edge(EdgeId::from_index(0)), "first");
        assert_eq!(*bulk.edge(EdgeId::from_index(1)), "a");
        assert_eq!(
            bulk.out_edges(n[0]).map(|e| *e.weight).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(
            bulk.in_edges(n[0]).map(|e| *e.weight).collect::<Vec<_>>(),
            vec!["first"]
        );
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
        let (g, n) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(n[0]), 2);
        assert_eq!(g.in_degree(n[0]), 0);
        assert_eq!(g.in_degree(n[3]), 2);
        assert_eq!(g.out_degree(n[3]), 0);
    }

    #[test]
    fn edge_lookup() {
        let (g, n) = diamond();
        assert!(g.contains_edge(n[0], n[1]));
        assert!(!g.contains_edge(n[1], n[0]));
        assert!(!g.contains_edge(n[3], n[0]));
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
        assert_eq!(g.out_degree(a), 3);
        assert_eq!(g.in_degree(b), 2);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(
            g.out_edges(a).map(|e| e.target).collect::<Vec<_>>(),
            vec![b, b, a]
        );
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
