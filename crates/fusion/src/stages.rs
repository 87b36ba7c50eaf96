//! Intermediate homogeneous graphs of the fusion chain.
//!
//! These builders expose the contraction stages of Section 4.1 separately
//! so that the Appendix A properties can be checked in isolation.  The
//! end-to-end pipeline in [`crate::fuse`] uses the same logic but fuses in
//! one pass for efficiency.

use tpiin_graph::{check_bipartite, DiGraph, Partition};
use tpiin_model::{InterdependenceKind, SourceRegistry};

/// Node payload for stage graphs that mix persons and companies: `true`
/// for persons.  Persons occupy indices `0..person_count`, companies
/// `person_count..`.
pub type IsPerson = bool;

/// Builds the person-syndicate partition: connected components of `G1`.
/// This is the fixed point of the paper's one-edge-at-a-time
/// interdependence contraction (`G12 -> G12'`).
pub fn person_syndicates(registry: &SourceRegistry) -> Partition {
    Partition::from_merge_pairs(
        registry.person_count(),
        registry.interdependencies().iter().map(|i| {
            (
                tpiin_graph::NodeId::from_index(i.a.index()),
                tpiin_graph::NodeId::from_index(i.b.index()),
            )
        }),
    )
}

/// Builds `GI` (a.k.a. `G3`), the investment graph over companies.
pub fn build_investment_graph(registry: &SourceRegistry) -> DiGraph<(), f64> {
    let mut g = DiGraph::with_capacity(registry.company_count(), registry.investments().len());
    for _ in 0..registry.company_count() {
        g.add_node(());
    }
    for inv in registry.investments() {
        g.add_edge(
            tpiin_graph::NodeId::from_index(inv.investor.index()),
            tpiin_graph::NodeId::from_index(inv.investee.index()),
            inv.share,
        );
    }
    g
}

/// Builds the company-syndicate partition: Tarjan SCCs of the investment
/// graph (the paper's strongly-connected-subgraph contraction that turns
/// `G_B` into the antecedent DAG `G123`).
fn company_syndicates(registry: &SourceRegistry) -> Partition {
    let gi = build_investment_graph(registry);
    let (labels, count) = tpiin_graph::condensation_partition(&gi);
    Partition::from_labels(labels, count)
}

/// Edge payload of the combined graph `G12`: an undirected
/// interdependence link or a directed influence arc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum G12Edge {
    /// Kinship/interlocking link between two persons (undirected;
    /// stored with arbitrary orientation).
    Interdependence(InterdependenceKind),
    /// Person -> Company influence arc.
    Influence,
}

/// Builds `G12 = G1 + G2`: persons then companies as nodes, with both
/// interdependence links and influence arcs.  This is the graph the
/// paper's edge-contraction process starts from.
pub fn build_g12(registry: &SourceRegistry) -> DiGraph<IsPerson, G12Edge> {
    let np = registry.person_count();
    let mut g = DiGraph::with_capacity(
        np + registry.company_count(),
        registry.interdependencies().len() + registry.influences().len(),
    );
    for _ in 0..np {
        g.add_node(true);
    }
    for _ in 0..registry.company_count() {
        g.add_node(false);
    }
    for i in registry.interdependencies() {
        g.add_edge(
            tpiin_graph::NodeId::from_index(i.a.index()),
            tpiin_graph::NodeId::from_index(i.b.index()),
            G12Edge::Interdependence(i.kind),
        );
    }
    for inf in registry.influences() {
        g.add_edge(
            tpiin_graph::NodeId::from_index(inf.person.index()),
            tpiin_graph::NodeId::from_index(np + inf.company.index()),
            G12Edge::Influence,
        );
    }
    g
}

/// Builds `G12'`: the result of contracting every interdependence edge of
/// `G12` into person syndicates.  Returns the contracted graph (node
/// payload = `IsPerson`, arcs all influence) plus the syndicate members.
///
/// The Appendix A properties hold by construction and are debug-checked:
/// the graph is bipartite, persons keep indegree zero, companies keep
/// outdegree zero.
pub fn build_g12_prime(
    registry: &SourceRegistry,
) -> tpiin_graph::ContractionOutcome<IsPerson, G12Edge> {
    let np = registry.person_count();
    let g12 = build_g12(registry);
    // Extend the person partition with identity groups for companies.
    let person_part = person_syndicates(registry);
    let mut labels: Vec<u32> = (0..g12.node_count() as u32).collect();
    for (p, label) in labels.iter_mut().enumerate().take(np) {
        *label = person_part
            .group_of(tpiin_graph::NodeId::from_index(p))
            .index() as u32;
    }
    // Company labels must stay dense after person groups.
    let groups = person_part.group_count();
    for (k, label) in labels.iter_mut().enumerate().skip(np) {
        *label = (groups + (k - np)) as u32;
    }
    let part = Partition::from_labels(labels, groups + registry.company_count());
    let mut outcome = part.quotient(&g12, |members| {
        // A group is a person syndicate iff its first member is a person.
        members[0].index() < np
    });
    // Interdependence edges between merged persons were dropped as
    // internal; any surviving interdependence edge joins two *distinct*
    // syndicates, which contradicts the person partition.
    debug_assert_eq!(
        outcome.dropped_internal_edges,
        registry.interdependencies().len(),
        "every interdependence edge is internal to a syndicate"
    );
    // Drop the weight distinction: remaining edges are influence arcs.
    debug_assert!(outcome
        .graph
        .edges()
        .all(|e| *e.weight == G12Edge::Influence));
    debug_assert!(
        check_bipartite(&outcome.graph, |_, &is_person| is_person).is_ok(),
        "G12' must stay Person -> Company bipartite"
    );
    outcome.members.truncate(outcome.graph.node_count());
    outcome
}

/// Edge payload of `G_B`: influence (from `G12'`) or investment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GbEdge {
    /// Person-syndicate -> Company influence.
    Influence,
    /// Company -> Company investment (major shareholding fraction).
    Investment(f64),
}

/// Builds `G_B = G12' + GI`: the combined graph on which the paper runs
/// the strongly-connected-subgraph contraction.  Node ids: person
/// syndicates first (as in [`build_g12_prime`]), then companies.
pub fn build_gb(registry: &SourceRegistry) -> DiGraph<IsPerson, GbEdge> {
    let g12p = build_g12_prime(registry);
    let n_person_nodes = g12p.graph.nodes().filter(|(_, &p)| p).count();
    let mut g = DiGraph::with_capacity(
        g12p.graph.node_count(),
        g12p.graph.edge_count() + registry.investments().len(),
    );
    for (_, &is_person) in g12p.graph.nodes() {
        g.add_node(is_person);
    }
    for e in g12p.graph.edges() {
        g.add_edge(e.source, e.target, GbEdge::Influence);
    }
    for inv in registry.investments() {
        g.add_edge(
            tpiin_graph::NodeId::from_index(n_person_nodes + inv.investor.index()),
            tpiin_graph::NodeId::from_index(n_person_nodes + inv.investee.index()),
            GbEdge::Investment(inv.share),
        );
    }
    g
}

/// Builds `G123`, the antecedent network: `G_B` with every strongly
/// connected investment subgraph contracted into a company syndicate.
/// All arcs are (re)colored as influence; the result is a DAG
/// (debug-checked, proved in Appendix A).
pub fn build_antecedent(
    registry: &SourceRegistry,
) -> tpiin_graph::ContractionOutcome<IsPerson, GbEdge> {
    let gb = build_gb(registry);
    let n_person_nodes = gb.nodes().filter(|(_, &p)| p).count();
    let company_part = company_syndicates(registry);
    // Person-syndicate nodes keep identity labels; company nodes take
    // their SCC label, offset past the person groups.
    let mut labels: Vec<u32> = Vec::with_capacity(gb.node_count());
    for k in 0..gb.node_count() {
        if k < n_person_nodes {
            labels.push(k as u32);
        } else {
            let scc = company_part
                .group_of(tpiin_graph::NodeId::from_index(k - n_person_nodes))
                .index();
            labels.push((n_person_nodes + scc) as u32);
        }
    }
    let part = Partition::from_labels(labels, n_person_nodes + company_part.group_count());
    let outcome = part.quotient(&gb, |members| members[0].index() < n_person_nodes);
    debug_assert!(
        tpiin_graph::is_acyclic(&outcome.graph),
        "antecedent network must be a DAG after SCC contraction"
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpiin_graph::NodeId;
    use tpiin_model::{
        InfluenceKind, InfluenceRecord, InvestmentRecord, Role, RoleSet, TradingRecord,
    };

    fn registry() -> SourceRegistry {
        let mut r = SourceRegistry::new();
        let l1 = r.add_person("L1", RoleSet::of(&[Role::Ceo]));
        let l2 = r.add_person("L2", RoleSet::of(&[Role::Ceo]));
        let d1 = r.add_person("D1", RoleSet::of(&[Role::Director]));
        let c1 = r.add_company("C1");
        let c2 = r.add_company("C2");
        let c3 = r.add_company("C3");
        for (p, c) in [(l1, c1), (l2, c2), (l2, c3)] {
            r.add_influence(InfluenceRecord {
                person: p,
                company: c,
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            });
        }
        r.add_influence(InfluenceRecord {
            person: d1,
            company: c1,
            kind: InfluenceKind::DirectorOf,
            is_legal_person: false,
        });
        r.add_interdependence(l1, l2, InterdependenceKind::Kinship);
        // C2 <-> C3 mutual investment: one SCC.
        r.add_investment(InvestmentRecord {
            investor: c2,
            investee: c3,
            share: 0.6,
        });
        r.add_investment(InvestmentRecord {
            investor: c3,
            investee: c2,
            share: 0.5,
        });
        r.add_trading(TradingRecord {
            seller: c1,
            buyer: c2,
            volume: 10.0,
        });
        r
    }

    #[test]
    fn person_syndicates_merge_kin() {
        let r = registry();
        let p = person_syndicates(&r);
        assert_eq!(p.group_count(), 2);
        assert_eq!(
            p.group_of(NodeId::from_index(0)),
            p.group_of(NodeId::from_index(1))
        );
        assert_ne!(
            p.group_of(NodeId::from_index(0)),
            p.group_of(NodeId::from_index(2))
        );
    }

    #[test]
    fn company_syndicates_contract_mutual_investment() {
        let r = registry();
        let p = company_syndicates(&r);
        assert_eq!(p.group_count(), 2);
        assert_eq!(
            p.group_of(NodeId::from_index(1)),
            p.group_of(NodeId::from_index(2))
        );
    }

    #[test]
    fn g12_combines_both_edge_kinds() {
        let r = registry();
        let g12 = build_g12(&r);
        assert_eq!(g12.node_count(), 6);
        let inter = g12
            .edges()
            .filter(|e| matches!(e.weight, G12Edge::Interdependence(_)))
            .count();
        let infl = g12
            .edges()
            .filter(|e| *e.weight == G12Edge::Influence)
            .count();
        assert_eq!(inter, 1);
        assert_eq!(infl, 4);
    }

    #[test]
    fn g12_prime_contracts_interdependence_into_syndicates() {
        let r = registry();
        let out = build_g12_prime(&r);
        // 3 persons -> 2 syndicates, 3 companies: 5 nodes.
        assert_eq!(out.graph.node_count(), 5);
        assert_eq!(out.dropped_internal_edges, 1);
        // All remaining arcs are influence and bipartite.
        assert!(out.graph.edges().all(|e| *e.weight == G12Edge::Influence));
        assert!(check_bipartite(&out.graph, |_, &p| p).is_ok());
        // The L1+L2 syndicate has two members.
        let sizes: Vec<usize> = out.members.iter().map(Vec::len).collect();
        assert!(sizes.contains(&2));
    }

    #[test]
    fn gb_adds_investment_arcs_between_companies() {
        let r = registry();
        let gb = build_gb(&r);
        let invest = gb
            .edges()
            .filter(|e| matches!(e.weight, GbEdge::Investment(_)))
            .count();
        assert_eq!(invest, 2);
        // Investment arcs join two company nodes.
        for e in gb.edges() {
            if matches!(e.weight, GbEdge::Investment(_)) {
                assert!(!gb.node(e.source));
                assert!(!gb.node(e.target));
            }
        }
    }

    #[test]
    fn antecedent_contracts_the_investment_cycle_and_is_a_dag() {
        let r = registry();
        let out = build_antecedent(&r);
        // 2 person syndicates + 2 company nodes (C2+C3 merged).
        assert_eq!(out.graph.node_count(), 4);
        assert!(tpiin_graph::is_acyclic(&out.graph));
        // The two arcs of the C2<->C3 cycle became internal.
        assert_eq!(out.dropped_internal_edges, 2);
        let merged = out.members.iter().filter(|m| m.len() == 2).count();
        assert_eq!(merged, 1, "exactly the investment SCC merged");
    }

    #[test]
    fn stagewise_antecedent_matches_fused_pipeline() {
        // The explicit stage chain and the one-pass `fuse` must agree on
        // antecedent shape (node count; arc count may differ only by
        // duplicate deduplication in fuse()).
        let r = registry();
        let staged = build_antecedent(&r);
        let (tpiin, report) = crate::fuse(&r).unwrap();
        assert_eq!(staged.graph.node_count(), tpiin.node_count());
        assert_eq!(
            staged.graph.node_count(),
            report.person_syndicate_count + report.company_syndicate_count
        );
        assert!(staged.graph.edge_count() >= report.influence_arcs);
    }
}
