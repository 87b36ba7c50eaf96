//! Structural property checks used to validate fusion-stage invariants.
//!
//! Appendix A of the paper states properties that each intermediate graph
//! must satisfy (e.g. `G2` and `G12'` are bipartite with Person indegree 0
//! and Company outdegree 0).  The fusion pipeline asserts these via the
//! helpers here, so a violation in source data surfaces as a typed error
//! instead of silently corrupting detection results.

use crate::digraph::DiGraph;
use crate::ids::NodeId;

/// Violation found by [`check_bipartite`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BipartiteViolation {
    /// The offending edge's source node.
    pub source: NodeId,
    /// The offending edge's target node.
    pub target: NodeId,
}

impl std::fmt::Display for BipartiteViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "edge {:?} -> {:?} does not go from the left class to the right class",
            self.source, self.target
        )
    }
}

impl std::error::Error for BipartiteViolation {}

/// Checks that every edge goes from a "left" node to a "right" node, where
/// `is_left` classifies nodes.  This is the directed-bipartite property of
/// the influence graph `G2`: every arc runs Person -> Company.
pub fn check_bipartite<N, E>(
    graph: &DiGraph<N, E>,
    mut is_left: impl FnMut(NodeId, &N) -> bool,
) -> Result<(), BipartiteViolation> {
    let left: Vec<bool> = graph.nodes().map(|(id, w)| is_left(id, w)).collect();
    for edge in graph.edges() {
        if !left[edge.source.index()] || left[edge.target.index()] {
            return Err(BipartiteViolation {
                source: edge.source,
                target: edge.target,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bipartite_person_to_company_passes() {
        // nodes 0,1 "persons"; 2,3 "companies"; arcs person->company only.
        let mut g: DiGraph<bool, ()> = DiGraph::new();
        let p0 = g.add_node(true);
        let p1 = g.add_node(true);
        let c0 = g.add_node(false);
        let c1 = g.add_node(false);
        g.add_edge(p0, c0, ());
        g.add_edge(p1, c1, ());
        assert!(check_bipartite(&g, |_, &is_person| is_person).is_ok());
    }

    #[test]
    fn company_to_company_arc_violates_g2_property() {
        let mut g: DiGraph<bool, ()> = DiGraph::new();
        let c0 = g.add_node(false);
        let c1 = g.add_node(false);
        g.add_edge(c0, c1, ());
        let err = check_bipartite(&g, |_, &is_person| is_person).unwrap_err();
        assert_eq!(err.source, c0);
        assert_eq!(err.target, c1);
        assert!(err.to_string().contains("left class"));
    }

    #[test]
    fn person_to_person_arc_is_also_a_violation() {
        let mut g: DiGraph<bool, ()> = DiGraph::new();
        let p0 = g.add_node(true);
        let p1 = g.add_node(true);
        g.add_edge(p0, p1, ());
        assert!(check_bipartite(&g, |_, &is_person| is_person).is_err());
    }
}
