//! The fused Taxpayer Interest Interacted Network (Definition 1).

use crate::compact::{Label, Members};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use tpiin_graph::{CsrGraph, DiGraph, EdgeId, NodeId};
use tpiin_model::{CompanyId, PersonId};

/// CSR lane index of the trading arcs (the paper's edge-color code `0`).
pub const TRADING_LANE: usize = 0;
/// CSR lane index of the influence arcs (the paper's edge-color code `1`).
pub const INFLUENCE_LANE: usize = 1;

/// Node color of a TPIIN: `VColor = {Person, Company}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeColor {
    /// A person or a syndicate of persons (e.g. node `B` of Fig. 3(b)).
    Person,
    /// A company or a syndicate of mutually-investing companies.
    Company,
}

/// Arc color of a TPIIN: `EColor = {IN, TR}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ArcColor {
    /// Influence relationship (directorship, legal-person link, or
    /// investment — the paper folds investment into influence in `G123`).
    Influence,
    /// Trading relationship between companies.
    Trading,
}

impl ArcColor {
    /// The numeric code used by the paper's edge-list representation:
    /// `0` for trading (black), `1` for influence (blue).
    pub fn code(self) -> u32 {
        match self {
            ArcColor::Trading => 0,
            ArcColor::Influence => 1,
        }
    }
}

/// Payload of a TPIIN node: color, display label and provenance (which
/// source persons/companies were merged into this node by contraction).
///
/// Labels and member lists use the small-buffer types from
/// [`crate::compact`], so plain (non-syndicate) nodes — the vast
/// majority at nation scale — carry no heap allocations at all.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TpiinNode {
    /// A person node, possibly a syndicate of several source persons.
    Person {
        /// Display label — original name, or `+`-joined member names for
        /// syndicates.
        label: Label,
        /// Source persons merged into this node (singleton if no
        /// contraction applied).
        members: Members<PersonId>,
    },
    /// A company node, possibly a syndicate (contracted investment SCC).
    Company {
        /// Display label.
        label: Label,
        /// Source companies merged into this node.
        members: Members<CompanyId>,
    },
}

impl TpiinNode {
    /// The node's color.
    pub fn color(&self) -> NodeColor {
        match self {
            TpiinNode::Person { .. } => NodeColor::Person,
            TpiinNode::Company { .. } => NodeColor::Company,
        }
    }

    /// The node's display label.
    pub fn label(&self) -> &str {
        match self {
            TpiinNode::Person { label, .. } | TpiinNode::Company { label, .. } => label.as_str(),
        }
    }

    /// Whether the node merges more than one source entity.
    pub fn is_syndicate(&self) -> bool {
        match self {
            TpiinNode::Person { members, .. } => members.len() > 1,
            TpiinNode::Company { members, .. } => members.len() > 1,
        }
    }

    /// Heap bytes owned by this payload beyond its enum slot — zero for
    /// inline labels and member lists.
    pub fn spilled_bytes(&self) -> usize {
        match self {
            TpiinNode::Person { label, members } => label.spilled_bytes() + members.spilled_bytes(),
            TpiinNode::Company { label, members } => {
                label.spilled_bytes() + members.spilled_bytes()
            }
        }
    }
}

/// Payload of a TPIIN arc: color plus an optional weight used by the
/// weighted-scoring extension (investment share, trading volume; `1.0`
/// for positional influence).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TpiinArc {
    /// Arc color.
    pub color: ArcColor,
    /// Weight for the scoring extension.
    pub weight: f64,
}

/// A trading record whose two endpoints were merged into the same company
/// syndicate by SCC contraction.  By the paper's closing note in §4.3 such
/// a trade is suspicious *by construction*: strong connectivity guarantees
/// an influence trail between the parties.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntraSyndicateTrade {
    /// The selling company.
    pub seller: CompanyId,
    /// The buying company.
    pub buyer: CompanyId,
    /// TPIIN node of the syndicate both belong to.
    pub syndicate: NodeId,
    /// Trade volume from the source record.
    pub volume: f64,
}

/// The fused heterogeneous network (Definition 1):
/// `TPIIN = {V, E, VColor, EColor}` plus provenance back to the source
/// registry.
#[derive(Clone, Debug)]
pub struct Tpiin {
    /// The underlying colored digraph.  Person nodes come first, then
    /// company nodes; influence arcs come first, then trading arcs —
    /// matching the edge-list layout Algorithm 1 expects.
    pub graph: DiGraph<TpiinNode, TpiinArc>,
    /// TPIIN node of each source person.
    pub person_node: Vec<NodeId>,
    /// TPIIN node of each source company.
    pub company_node: Vec<NodeId>,
    /// Number of influence arcs (they occupy edge ids `0..`).
    pub influence_arc_count: usize,
    /// Number of trading arcs (they occupy the tail of the edge range).
    pub trading_arc_count: usize,
    /// Trades internal to a contracted investment SCC — suspicious by
    /// construction and excluded from the arc set (contraction drops
    /// intra-group arcs).
    pub intra_syndicate_trades: Vec<IntraSyndicateTrade>,
    /// Per-edge provenance, aligned with the graph's edge ids: the
    /// source-record sequence number whose arc survived first-wins
    /// dedup (influence/investment records index the influence feed,
    /// trading records the trading feed).  `u32::MAX` marks an arc with
    /// no recorded source (arcs streamed in without a source registry).
    pub arc_sources: Vec<u32>,
    /// Frozen CSR snapshot of `graph`, with one lane per arc color
    /// ([`TRADING_LANE`], [`INFLUENCE_LANE`]).  The mining hot path
    /// (Algorithm 1 segmentation, Algorithm 2 tree DFS) iterates these
    /// packed slices; so does every other neighbour question, since the
    /// graph keeps no adjacency of its own.  Kept private so it can only
    /// be set by [`Tpiin::assemble`] / [`Tpiin::refreeze`].
    csr: CsrGraph,
}

impl Tpiin {
    /// Assembles a TPIIN from its parts, freezing the graph into the
    /// two-lane CSR snapshot in the same step.  `arc_sources` carries
    /// the winning source-record sequence per edge id; an empty vector
    /// is padded with the `u32::MAX` "unknown" sentinel.
    pub fn assemble(
        graph: DiGraph<TpiinNode, TpiinArc>,
        person_node: Vec<NodeId>,
        company_node: Vec<NodeId>,
        influence_arc_count: usize,
        trading_arc_count: usize,
        intra_syndicate_trades: Vec<IntraSyndicateTrade>,
        mut arc_sources: Vec<u32>,
    ) -> Tpiin {
        let csr = Self::freeze_graph(&graph);
        arc_sources.resize(graph.edge_count(), u32::MAX);
        Tpiin {
            graph,
            person_node,
            company_node,
            influence_arc_count,
            trading_arc_count,
            intra_syndicate_trades,
            arc_sources,
            csr,
        }
    }

    /// Like [`Tpiin::assemble`], but adopts an already-frozen CSR snapshot
    /// instead of re-running the counting sort.  Used by the binary
    /// snapshot loader, which ships the frozen lanes inside the file; the
    /// caller is responsible for `csr` actually matching `graph` (the
    /// loader cross-checks node and per-lane edge counts).
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_frozen(
        graph: DiGraph<TpiinNode, TpiinArc>,
        person_node: Vec<NodeId>,
        company_node: Vec<NodeId>,
        influence_arc_count: usize,
        trading_arc_count: usize,
        intra_syndicate_trades: Vec<IntraSyndicateTrade>,
        mut arc_sources: Vec<u32>,
        csr: CsrGraph,
    ) -> Tpiin {
        arc_sources.resize(graph.edge_count(), u32::MAX);
        Tpiin {
            graph,
            person_node,
            company_node,
            influence_arc_count,
            trading_arc_count,
            intra_syndicate_trades,
            arc_sources,
            csr,
        }
    }

    fn freeze_graph(graph: &DiGraph<TpiinNode, TpiinArc>) -> CsrGraph {
        graph.freeze_lanes(2, |_, arc| arc.color.code() as usize)
    }

    /// The frozen CSR view of the network (lane [`TRADING_LANE`] holds the
    /// trading arcs, lane [`INFLUENCE_LANE`] the antecedent arcs).  It is
    /// the network's only adjacency: [`Tpiin::graph`] holds just the node
    /// and edge columns, so every neighbour, degree and arc-existence
    /// question reads these lanes.
    ///
    /// The snapshot is taken at assembly; after mutating [`Tpiin::graph`]
    /// directly (e.g. streaming ingestion), call [`Tpiin::refreeze`] to
    /// bring it back in sync.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Rebuilds the CSR snapshot after [`Tpiin::graph`] was mutated.
    pub fn refreeze(&mut self) {
        self.csr = Self::freeze_graph(&self.graph);
    }

    /// The first `s -> t` arc of `color`, by edge id, as of the last
    /// freeze.  A lane keeps each node's arcs in insertion order, so
    /// this is the lowest-id such arc: the one first-wins dedup kept.
    ///
    /// # Panics
    /// Panics if `s` is not a node of the frozen CSR.
    pub fn find_arc(&self, s: NodeId, t: NodeId, color: ArcColor) -> Option<EdgeId> {
        let lane = color.code() as usize;
        let (s, t) = (s.index() as u32, t.index() as u32);
        let at = self.csr.out(lane, s).iter().position(|&v| v == t)?;
        Some(self.csr.out_edge_ids(lane, s)[at])
    }

    /// Number of TPIIN nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of person(-syndicate) nodes.
    pub fn person_node_count(&self) -> usize {
        self.graph
            .nodes()
            .filter(|(_, n)| n.color() == NodeColor::Person)
            .count()
    }

    /// Number of company(-syndicate) nodes.
    pub fn company_node_count(&self) -> usize {
        self.graph
            .nodes()
            .filter(|(_, n)| n.color() == NodeColor::Company)
            .count()
    }

    /// Color of a node.
    pub fn color(&self, node: NodeId) -> NodeColor {
        self.graph.node(node).color()
    }

    /// Display label of a node.
    pub fn label(&self, node: NodeId) -> &str {
        self.graph.node(node).label()
    }

    /// The paper's `r x 3` edge-list rendering (`0` = trading, `1` =
    /// influence), antecedent rows first.
    pub fn edge_list(&self) -> String {
        let mut out = String::with_capacity(self.graph.edge_count() * 12);
        for e in self.graph.edges() {
            let _ = writeln!(out, "{}\t{}\t{}", e.source, e.target, e.weight.color.code());
        }
        out
    }

    /// This network's heap footprint in bytes: the graph's node and edge
    /// slots (exact via [`DiGraph::heap_bytes`]), spilled label/member
    /// allocations, the frozen CSR lanes — the only adjacency — (exact
    /// via [`CsrGraph::heap_bytes`]) and the provenance side tables.  The
    /// `/status` endpoint reports it so operators can see how much of the
    /// process RSS the served snapshot accounts for.  "Approx" survives in
    /// the name only because `Vec` capacities can exceed lengths; every
    /// component is otherwise measured, not estimated.
    pub fn approx_heap_bytes(&self) -> u64 {
        let spilled_payloads: usize = self.graph.nodes().map(|(_, n)| n.spilled_bytes()).sum();
        let side_tables = self.person_node.len() * std::mem::size_of::<NodeId>()
            + self.company_node.len() * std::mem::size_of::<NodeId>()
            + self.arc_sources.len() * std::mem::size_of::<u32>()
            + self.intra_syndicate_trades.len() * std::mem::size_of::<IntraSyndicateTrade>();
        (self.graph.heap_bytes() + spilled_payloads + self.csr.heap_bytes() + side_tables) as u64
    }

    /// Mean arcs-per-node, the "average node degree" column of Table 1.
    pub fn mean_degree(&self) -> f64 {
        if self.graph.node_count() == 0 {
            return 0.0;
        }
        self.graph.edge_count() as f64 / self.graph.node_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arc_color_codes_match_the_paper() {
        assert_eq!(ArcColor::Trading.code(), 0, "black");
        assert_eq!(ArcColor::Influence.code(), 1, "blue");
    }

    #[test]
    fn fig7_edge_list_is_pinned() {
        let (tpiin, _) = crate::fuse(&tpiin_datagen::fig7_registry()).unwrap();
        let expected = "0\t7\t1\n0\t8\t1\n1\t9\t1\n0\t10\t1\n2\t11\t1\n3\t12\t1\n\
                        3\t13\t1\n4\t14\t1\n5\t11\t1\n5\t12\t1\n6\t13\t1\n6\t14\t1\n\
                        7\t9\t1\n8\t11\t1\n9\t11\t0\n11\t12\t0\n11\t13\t0\n13\t14\t0\n\
                        14\t10\t0\n";
        assert_eq!(tpiin.edge_list(), expected);
    }

    #[test]
    fn node_accessors() {
        let p = TpiinNode::Person {
            label: "L1".into(),
            members: vec![PersonId(0), PersonId(3)].into(),
        };
        assert_eq!(p.color(), NodeColor::Person);
        assert_eq!(p.label(), "L1");
        assert!(p.is_syndicate());
        let c = TpiinNode::Company {
            label: "C1".into(),
            members: vec![CompanyId(0)].into(),
        };
        assert_eq!(c.color(), NodeColor::Company);
        assert!(!c.is_syndicate());
    }
}
