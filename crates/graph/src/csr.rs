//! Frozen compressed-sparse-row (CSR) snapshot of a [`DiGraph`].
//!
//! A [`DiGraph`] is only its node and edge columns, the right shape while
//! a network is being assembled; it answers no neighbour question.
//! [`DiGraph::freeze`] packs the edge column into a handful of flat
//! arrays, and this is the workspace's only adjacency: every neighbour
//! scan is one contiguous slice, and the detector's Algorithm 2 DFS walks
//! cache lines instead of pointer-chasing per-node rows.
//!
//! Edges are partitioned into **lanes** at freeze time (one lane per edge
//! color for a TPIIN: trading and influence), so per-color traversals —
//! the antecedent weak components of Algorithm 1, the influence-only tree
//! DFS of Algorithm 2 — index straight into their own offset table with no
//! per-edge color test.

use crate::digraph::DiGraph;
use crate::ids::{EdgeId, NodeId};
use crate::scc::SccScratch;
use crate::unionfind::UnionFind;

/// One edge lane of a [`CsrGraph`]: a forward and a reverse CSR index over
/// the subset of edges assigned to this lane.
#[derive(Clone, Debug, Default)]
struct Lane {
    /// `out_offsets[v] .. out_offsets[v + 1]` indexes this node's slice of
    /// `out_targets` / `out_edge_ids` (length `node_count + 1`).
    out_offsets: Vec<u32>,
    /// Heads of all out-arcs, grouped by source, insertion order preserved
    /// within each source.
    out_targets: Vec<u32>,
    /// Original [`EdgeId`] of each `out_targets` slot, for mapping back to
    /// payloads in the source graph.
    out_edge_ids: Vec<EdgeId>,
    /// Reverse index: `in_offsets[v] .. in_offsets[v + 1]` slices
    /// `in_sources`.
    in_offsets: Vec<u32>,
    /// Tails of all in-arcs, grouped by target.
    in_sources: Vec<u32>,
}

impl Lane {
    fn out(&self, v: u32) -> &[u32] {
        &self.out_targets
            [self.out_offsets[v as usize] as usize..self.out_offsets[v as usize + 1] as usize]
    }

    fn sources(&self, v: u32) -> &[u32] {
        &self.in_sources
            [self.in_offsets[v as usize] as usize..self.in_offsets[v as usize + 1] as usize]
    }
}

/// An immutable CSR snapshot of a digraph's topology, with edges split
/// into color lanes.  Node indices are the dense `0..node_count` indices
/// of the frozen [`DiGraph`] (convertible via [`NodeId::index`]).
#[derive(Clone, Debug)]
pub struct CsrGraph {
    node_count: usize,
    lanes: Vec<Lane>,
}

/// Owned raw arrays of one CSR lane, for serializing a frozen graph and
/// rebuilding it without re-running the counting sort.  Edge ids travel
/// as their dense `u32` indices (see [`EdgeId::index`]).
#[derive(Clone, Debug, Default)]
pub struct CsrLaneParts {
    /// Forward offsets, length `node_count + 1`, monotone, first `0`.
    pub out_offsets: Vec<u32>,
    /// Arc heads grouped by source, length `out_offsets[node_count]`.
    pub out_targets: Vec<u32>,
    /// Dense edge indices parallel to `out_targets`.
    pub out_edge_ids: Vec<u32>,
    /// Reverse offsets, same shape contract as `out_offsets`.
    pub in_offsets: Vec<u32>,
    /// Arc tails grouped by target, length `in_offsets[node_count]`.
    pub in_sources: Vec<u32>,
}

fn check_offsets(name: &str, offsets: &[u32], n: usize, entries: usize) -> Result<(), String> {
    if offsets.len() != n + 1 {
        return Err(format!(
            "{name}: expected {} offsets for {n} nodes, got {}",
            n + 1,
            offsets.len()
        ));
    }
    if offsets[0] != 0 {
        return Err(format!("{name}: first offset is {}, not 0", offsets[0]));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{name}: offsets are not monotone"));
    }
    if offsets[n] as usize != entries {
        return Err(format!(
            "{name}: final offset {} does not match {entries} entries",
            offsets[n]
        ));
    }
    Ok(())
}

impl CsrGraph {
    /// Reassembles a frozen graph from per-lane raw arrays, validating the
    /// CSR invariants (offset shape/monotonicity, entry counts, node
    /// bounds) instead of trusting the caller.  The inverse of reading the
    /// arrays back via [`CsrGraph::lane_out_offsets`] and friends; lets a
    /// binary snapshot skip the freeze counting sort entirely.
    pub fn from_raw_lanes(node_count: usize, parts: Vec<CsrLaneParts>) -> Result<CsrGraph, String> {
        let mut lanes = Vec::with_capacity(parts.len());
        for (i, p) in parts.into_iter().enumerate() {
            check_offsets(
                &format!("lane {i} out_offsets"),
                &p.out_offsets,
                node_count,
                p.out_targets.len(),
            )?;
            check_offsets(
                &format!("lane {i} in_offsets"),
                &p.in_offsets,
                node_count,
                p.in_sources.len(),
            )?;
            if p.out_edge_ids.len() != p.out_targets.len() {
                return Err(format!(
                    "lane {i}: {} edge ids for {} targets",
                    p.out_edge_ids.len(),
                    p.out_targets.len()
                ));
            }
            if p.out_targets.len() != p.in_sources.len() {
                return Err(format!(
                    "lane {i}: {} out entries but {} in entries",
                    p.out_targets.len(),
                    p.in_sources.len()
                ));
            }
            let bound = node_count as u32;
            if p.out_targets
                .iter()
                .chain(p.in_sources.iter())
                .any(|&v| v >= bound)
            {
                return Err(format!(
                    "lane {i}: node index out of range (n = {node_count})"
                ));
            }
            lanes.push(Lane {
                out_offsets: p.out_offsets,
                out_targets: p.out_targets,
                out_edge_ids: p
                    .out_edge_ids
                    .into_iter()
                    .map(|id| EdgeId::from_index(id as usize))
                    .collect(),
                in_offsets: p.in_offsets,
                in_sources: p.in_sources,
            });
        }
        Ok(CsrGraph { node_count, lanes })
    }

    /// Forward offset array of `lane` (length `node_count + 1`).
    #[inline]
    pub fn lane_out_offsets(&self, lane: usize) -> &[u32] {
        &self.lanes[lane].out_offsets
    }

    /// All arc heads of `lane`, grouped by source.
    #[inline]
    pub fn lane_out_targets(&self, lane: usize) -> &[u32] {
        &self.lanes[lane].out_targets
    }

    /// All dense edge ids of `lane`, parallel to
    /// [`CsrGraph::lane_out_targets`].
    #[inline]
    pub fn lane_out_edge_ids(&self, lane: usize) -> &[EdgeId] {
        &self.lanes[lane].out_edge_ids
    }

    /// Reverse offset array of `lane` (length `node_count + 1`).
    #[inline]
    pub fn lane_in_offsets(&self, lane: usize) -> &[u32] {
        &self.lanes[lane].in_offsets
    }

    /// All arc tails of `lane`, grouped by target.
    #[inline]
    pub fn lane_in_sources(&self, lane: usize) -> &[u32] {
        &self.lanes[lane].in_sources
    }

    /// Exact heap bytes held by the packed arrays (offset tables plus
    /// per-edge entries), for honest `/status` memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| {
                (l.out_offsets.len() + l.in_offsets.len()) * 4
                    + l.out_targets.len() * 4
                    + l.out_edge_ids.len() * std::mem::size_of::<EdgeId>()
                    + l.in_sources.len() * 4
            })
            .sum()
    }
    /// Number of nodes (same as the frozen graph).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edge lanes.
    #[inline]
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Number of edges in `lane`.
    #[inline]
    pub fn edge_count(&self, lane: usize) -> usize {
        self.lanes[lane].out_targets.len()
    }

    /// Total edges across all lanes.
    pub fn total_edge_count(&self) -> usize {
        self.lanes.iter().map(|l| l.out_targets.len()).sum()
    }

    /// Out-neighbors of `v` in `lane`, insertion order preserved.
    #[inline]
    pub fn out(&self, lane: usize, v: u32) -> &[u32] {
        self.lanes[lane].out(v)
    }

    /// Original edge ids of `v`'s out-arcs in `lane`, parallel to
    /// [`CsrGraph::out`].
    #[inline]
    pub fn out_edge_ids(&self, lane: usize, v: u32) -> &[EdgeId] {
        let lane = &self.lanes[lane];
        &lane.out_edge_ids
            [lane.out_offsets[v as usize] as usize..lane.out_offsets[v as usize + 1] as usize]
    }

    /// In-neighbors (arc tails) of `v` in `lane`.
    #[inline]
    pub fn sources(&self, lane: usize, v: u32) -> &[u32] {
        self.lanes[lane].sources(v)
    }

    /// Out-degree of `v` within `lane`.
    #[inline]
    pub fn out_degree(&self, lane: usize, v: u32) -> usize {
        self.lanes[lane].out(v).len()
    }

    /// In-degree of `v` within `lane`.
    #[inline]
    pub fn in_degree(&self, lane: usize, v: u32) -> usize {
        self.lanes[lane].sources(v).len()
    }

    /// All `(source, target)` pairs of `lane`, grouped by source.
    pub fn lane_edges(&self, lane: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let l = &self.lanes[lane];
        (0..self.node_count as u32).flat_map(move |v| l.out(v).iter().map(move |&t| (v, t)))
    }

    /// Strongly connected components of one lane: [`SccScratch::run`]
    /// over all nodes in index order, split into one `Vec` per component.
    /// Components come out in reverse topological order of the
    /// condensation (if component `A` has an arc into component `B`, `B`
    /// comes first), members in Tarjan's stack pop order.
    pub fn tarjan_scc(&self, lane: usize) -> Vec<Vec<u32>> {
        let l = &self.lanes[lane];
        let all: Vec<u32> = (0..self.node_count as u32).collect();
        let mut components: Vec<Vec<u32>> = Vec::new();
        let mut current = None;
        SccScratch::new(self.node_count).run(&l.out_offsets, &l.out_targets, &all, |v, rep| {
            // A component's members are emitted contiguously, and two
            // components never share a minimum member.
            if current != Some(rep) {
                current = Some(rep);
                components.push(Vec::new());
            }
            components.last_mut().expect("pushed above").push(v);
        });
        components
    }

    /// Weakly connected components of one lane (direction ignored):
    /// `(labels, count)` with labels dense and assigned in order of first
    /// appearance by node index.
    pub fn weak_components(&self, lane: usize) -> (Vec<u32>, usize) {
        let mut uf = UnionFind::new(self.node_count);
        for (s, t) in self.lane_edges(lane) {
            uf.union(s as usize, t as usize);
        }
        uf.into_labels()
    }

    /// Whether one lane is a DAG, by Kahn's algorithm over the packed
    /// degree arrays.
    pub fn is_acyclic(&self, lane: usize) -> bool {
        let l = &self.lanes[lane];
        let mut in_deg: Vec<u32> = (0..self.node_count as u32)
            .map(|v| l.sources(v).len() as u32)
            .collect();
        let mut queue: Vec<u32> = (0..self.node_count as u32)
            .filter(|&v| in_deg[v as usize] == 0)
            .collect();
        let mut seen = 0usize;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &w in l.out(v) {
                in_deg[w as usize] -= 1;
                if in_deg[w as usize] == 0 {
                    queue.push(w);
                }
            }
        }
        seen == self.node_count
    }
}

/// Counting-sort construction of one lane from `(source, target, id)`
/// triples; stable, so slice order matches input order per node.
fn build_lane(n: usize, edges: &[(u32, u32, EdgeId)]) -> Lane {
    let mut out_offsets = vec![0u32; n + 1];
    let mut in_offsets = vec![0u32; n + 1];
    for &(s, t, _) in edges {
        out_offsets[s as usize + 1] += 1;
        in_offsets[t as usize + 1] += 1;
    }
    for v in 0..n {
        out_offsets[v + 1] += out_offsets[v];
        in_offsets[v + 1] += in_offsets[v];
    }
    let mut out_targets = vec![0u32; edges.len()];
    let mut out_edge_ids = vec![EdgeId::from_index(0); edges.len()];
    let mut in_sources = vec![0u32; edges.len()];
    let mut out_cursor = out_offsets.clone();
    let mut in_cursor = in_offsets.clone();
    for &(s, t, id) in edges {
        let slot = out_cursor[s as usize] as usize;
        out_targets[slot] = t;
        out_edge_ids[slot] = id;
        out_cursor[s as usize] += 1;
        in_sources[in_cursor[t as usize] as usize] = s;
        in_cursor[t as usize] += 1;
    }
    Lane {
        out_offsets,
        out_targets,
        out_edge_ids,
        in_offsets,
        in_sources,
    }
}

impl<N, E> DiGraph<N, E> {
    /// Freezes the whole graph into a single-lane [`CsrGraph`].
    ///
    /// Neighbor order within each node matches the graph's insertion
    /// order, so algorithms that are order-sensitive (Tarjan's component
    /// output, the pattern-tree DFS) produce identical results on either
    /// representation.
    pub fn freeze(&self) -> CsrGraph {
        self.freeze_lanes(1, |_, _| 0)
    }

    /// Freezes the graph into a [`CsrGraph`] whose edges are split into
    /// `lane_count` lanes by `lane_of` (e.g. the TPIIN's arc-color code).
    ///
    /// # Panics
    /// Panics if `lane_of` returns an index `>= lane_count`.
    pub fn freeze_lanes(
        &self,
        lane_count: usize,
        mut lane_of: impl FnMut(EdgeId, &E) -> usize,
    ) -> CsrGraph {
        let mut per_lane: Vec<Vec<(u32, u32, EdgeId)>> = vec![Vec::new(); lane_count];
        for e in self.edges() {
            let lane = lane_of(e.id, e.weight);
            assert!(lane < lane_count, "lane {lane} out of range");
            per_lane[lane].push((e.source.index() as u32, e.target.index() as u32, e.id));
        }
        CsrGraph {
            node_count: self.node_count(),
            lanes: per_lane
                .iter()
                .map(|edges| build_lane(self.node_count(), edges))
                .collect(),
        }
    }
}

/// Convenience: the dense index of `v` as the `u32` the CSR side uses.
#[inline]
pub fn csr_index(v: NodeId) -> u32 {
    v.index() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_from(edges: &[(usize, usize)], n: usize) -> DiGraph<(), u8> {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
        for (i, &(a, b)) in edges.iter().enumerate() {
            g.add_edge(ids[a], ids[b], (i % 2) as u8);
        }
        g
    }

    #[test]
    fn freeze_preserves_counts_and_slice_order() {
        let g = graph_from(&[(0, 1), (0, 2), (1, 2), (2, 0)], 3);
        let csr = g.freeze();
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.lane_count(), 1);
        assert_eq!(csr.edge_count(0), 4);
        assert_eq!(csr.out(0, 0), &[1, 2]);
        assert_eq!(csr.out(0, 1), &[2]);
        assert_eq!(csr.sources(0, 2), &[0, 1]);
        assert_eq!(csr.out_degree(0, 0), 2);
        assert_eq!(csr.in_degree(0, 0), 1);
        let ids: Vec<usize> = csr.out_edge_ids(0, 0).iter().map(|e| e.index()).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn lanes_partition_the_edges() {
        // Even-indexed edges in lane 0, odd-indexed in lane 1.
        let g = graph_from(&[(0, 1), (0, 2), (1, 2), (2, 0)], 3);
        let csr = g.freeze_lanes(2, |_, &w| w as usize);
        assert_eq!(csr.edge_count(0) + csr.edge_count(1), g.edge_count());
        assert_eq!(csr.total_edge_count(), g.edge_count());
        assert_eq!(csr.out(0, 0), &[1]); // edge 0
        assert_eq!(csr.out(1, 0), &[2]); // edge 1
        assert_eq!(
            csr.lane_edges(1).collect::<Vec<_>>(),
            vec![(0, 2), (2, 0)] // edges 1 and 3
        );
    }

    #[test]
    fn parallel_edges_and_self_loops_survive() {
        let g = graph_from(&[(0, 1), (0, 1), (1, 1)], 2);
        let csr = g.freeze();
        assert_eq!(csr.out(0, 0), &[1, 1]);
        assert_eq!(csr.out(0, 1), &[1]);
        assert_eq!(csr.sources(0, 1), &[0, 0, 1]);
    }

    #[test]
    fn tarjan_scc_order_is_pinned() {
        // Pinned component order and member order: the whole graph in one
        // lane, then split into two lanes by edge parity.
        /// Arcs, node count, and the components of one lane, of the even
        /// arcs and of the odd arcs.
        type Pin = (&'static [(usize, usize)], usize, [&'static str; 3]);
        let cases: [Pin; 7] = [
            (
                &[(0, 1), (1, 2)],
                3,
                ["[[2], [1], [0]]", "[[1], [0], [2]]", "[[0], [2], [1]]"],
            ),
            (
                &[(0, 1), (1, 2), (2, 0)],
                3,
                ["[[2, 1, 0]]", "[[1], [0], [2]]", "[[0], [2], [1]]"],
            ),
            (
                &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)],
                4,
                [
                    "[[3, 2], [1, 0]]",
                    "[[2], [1], [0], [3]]",
                    "[[0], [1], [3], [2]]",
                ],
            ),
            (
                &[(0, 0), (0, 1)],
                2,
                ["[[1], [0]]", "[[0], [1]]", "[[1], [0]]"],
            ),
            (&[], 4, ["[[0], [1], [2], [3]]"; 3]),
            (
                &[(0, 1), (1, 2), (2, 0), (1, 3), (3, 1)],
                4,
                [
                    "[[3, 2, 1, 0]]",
                    "[[1], [0], [2], [3]]",
                    "[[0], [2], [3], [1]]",
                ],
            ),
            (
                &[
                    (3, 1),
                    (1, 4),
                    (4, 3),
                    (0, 2),
                    (2, 0),
                    (5, 0),
                    (4, 5),
                    (1, 1),
                    (6, 6),
                ],
                7,
                [
                    "[[2, 0], [5], [3, 4, 1], [6]]",
                    "[[0], [1], [2], [3], [5], [4], [6]]",
                    "[[2], [0], [4], [1], [3], [5], [6]]",
                ],
            ),
        ];
        for (edges, n, [one, even, odd]) in cases {
            let g = graph_from(edges, n);
            assert_eq!(format!("{:?}", g.freeze().tarjan_scc(0)), one, "{edges:?}");
            let lanes = g.freeze_lanes(2, |_, &w| w as usize);
            assert_eq!(
                format!("{:?}", lanes.tarjan_scc(0)),
                even,
                "{edges:?} lane 0"
            );
            assert_eq!(
                format!("{:?}", lanes.tarjan_scc(1)),
                odd,
                "{edges:?} lane 1"
            );
        }
    }

    /// `m` pseudo-random arcs over `n` nodes (a 64-bit LCG).
    fn lcg_edges(seed: u64, n: usize, m: usize) -> Vec<(usize, usize)> {
        let mut x = seed;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize % n
        };
        (0..m).map(|_| (next(), next())).collect()
    }

    /// FNV-1a over the members, each component closed by `u32::MAX`.
    fn order_hash(components: &[Vec<u32>]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for c in components {
            for &v in c.iter().chain(std::iter::once(&u32::MAX)) {
                for b in v.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn tarjan_scc_order_is_pinned_on_random_graphs() {
        // (seed, nodes, arcs) -> (components, largest, order hash).
        let pins = [
            ((1, 300, 360), (273, 27, 0x23c0_a8c3_a636_82f9u64)),
            ((2, 200, 600), (20, 181, 0xea7d_97dd_b52f_2dfd)),
            ((3, 2000, 2400), (1920, 46, 0x2c98_41be_5825_e9c1)),
        ];
        for ((seed, n, m), want) in pins {
            let comps = graph_from(&lcg_edges(seed, n, m), n).freeze().tarjan_scc(0);
            let largest = comps.iter().map(Vec::len).max().unwrap_or(0);
            assert_eq!(
                (comps.len(), largest, order_hash(&comps)),
                want,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn weak_components_ignore_direction_and_label_by_first_appearance() {
        let g = graph_from(&[(0, 2), (3, 1), (4, 4)], 6);
        assert_eq!(g.freeze().weak_components(0), (vec![0, 1, 0, 1, 2, 3], 4));
    }

    #[test]
    fn acyclicity_of_a_dag_and_a_cycle() {
        let dag = graph_from(&[(0, 1), (1, 2), (0, 2)], 3);
        assert!(dag.freeze().is_acyclic(0));
        let cyc = graph_from(&[(0, 1), (1, 0)], 2);
        assert!(!cyc.freeze().is_acyclic(0));
        let self_loop = graph_from(&[(0, 1), (1, 1)], 2);
        assert!(!self_loop.freeze().is_acyclic(0));
    }

    #[test]
    fn acyclicity_is_per_lane() {
        // Lane 0 (even edges) holds 0->1, 1->0: cyclic.  Lane 1 holds
        // 0->1 only: acyclic.
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 0);
        g.add_edge(a, b, 1);
        let csr = g.freeze_lanes(2, |_, &w| w as usize);
        assert!(!csr.is_acyclic(0));
        assert!(csr.is_acyclic(1));
    }

    #[test]
    fn raw_lane_round_trip_rebuilds_identical_csr() {
        let g = graph_from(&[(0, 1), (0, 2), (1, 2), (2, 0)], 3);
        let csr = g.freeze_lanes(2, |_, &w| w as usize);
        let parts: Vec<CsrLaneParts> = (0..csr.lane_count())
            .map(|lane| CsrLaneParts {
                out_offsets: csr.lane_out_offsets(lane).to_vec(),
                out_targets: csr.lane_out_targets(lane).to_vec(),
                out_edge_ids: csr
                    .lane_out_edge_ids(lane)
                    .iter()
                    .map(|e| e.index() as u32)
                    .collect(),
                in_offsets: csr.lane_in_offsets(lane).to_vec(),
                in_sources: csr.lane_in_sources(lane).to_vec(),
            })
            .collect();
        let rebuilt = CsrGraph::from_raw_lanes(csr.node_count(), parts).expect("valid parts");
        assert_eq!(rebuilt.node_count(), csr.node_count());
        for lane in 0..csr.lane_count() {
            for v in 0..csr.node_count() as u32 {
                assert_eq!(rebuilt.out(lane, v), csr.out(lane, v));
                assert_eq!(rebuilt.out_edge_ids(lane, v), csr.out_edge_ids(lane, v));
                assert_eq!(rebuilt.sources(lane, v), csr.sources(lane, v));
            }
        }
        assert_eq!(rebuilt.heap_bytes(), csr.heap_bytes());
    }

    #[test]
    fn raw_lanes_reject_malformed_arrays() {
        let ok = || CsrLaneParts {
            out_offsets: vec![0, 1, 1],
            out_targets: vec![1],
            out_edge_ids: vec![0],
            in_offsets: vec![0, 0, 1],
            in_sources: vec![0],
        };
        assert!(CsrGraph::from_raw_lanes(2, vec![ok()]).is_ok());
        let mut short = ok();
        short.out_offsets.pop();
        assert!(CsrGraph::from_raw_lanes(2, vec![short]).is_err());
        let mut nonmono = ok();
        nonmono.out_offsets = vec![0, 2, 1];
        assert!(CsrGraph::from_raw_lanes(2, vec![nonmono]).is_err());
        let mut bad_total = ok();
        bad_total.out_offsets = vec![0, 1, 2];
        assert!(CsrGraph::from_raw_lanes(2, vec![bad_total]).is_err());
        let mut oob = ok();
        oob.out_targets = vec![7];
        assert!(CsrGraph::from_raw_lanes(2, vec![oob]).is_err());
        let mut lopsided = ok();
        lopsided.in_offsets = vec![0, 0, 0];
        lopsided.in_sources = vec![];
        assert!(CsrGraph::from_raw_lanes(2, vec![lopsided]).is_err());
        let mut ids = ok();
        ids.out_edge_ids = vec![0, 1];
        assert!(CsrGraph::from_raw_lanes(2, vec![ids]).is_err());
        let mut nonzero = ok();
        nonzero.out_offsets = vec![1, 1, 1];
        assert!(CsrGraph::from_raw_lanes(2, vec![nonzero]).is_err());
    }

    #[test]
    fn empty_graph_freezes() {
        let g: DiGraph<(), ()> = DiGraph::new();
        let csr = g.freeze();
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.total_edge_count(), 0);
        assert!(csr.is_acyclic(0));
        assert_eq!(csr.weak_components(0), (vec![], 0));
    }
}
