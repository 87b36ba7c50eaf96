//! On-demand verification of the Appendix A structural properties.
//!
//! `fuse` guarantees these by construction (and fails fast on the DAG
//! check), but data pipelines want an *audit trail*: a structured report
//! confirming each property on a concrete TPIIN, suitable for logging
//! next to the detection outputs.  That node colors partition the network
//! (every node Person or Company) holds by [`NodeColor`]'s type and is
//! not reported.  [`verify_tpiin`] checks, in report order:
//!
//! 1. Person nodes have indegree zero;
//! 2. arcs never end at a Person, and trading arcs start at a Company;
//! 3. the antecedent network (the CSR influence lane) is acyclic;
//! 4. every Company node has at least one incoming influence arc (the
//!    legal-person link survives fusion) — waivable for hand-built
//!    networks;
//! 5. no duplicate same-color arcs.

use crate::tpiin::{ArcColor, NodeColor, Tpiin, INFLUENCE_LANE, TRADING_LANE};

/// One verified property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropertyCheck {
    /// Short name of the property.
    pub name: &'static str,
    /// Whether it holds.
    pub holds: bool,
    /// Explanation when violated (empty when it holds).
    pub detail: String,
}

/// The full verification report.
#[derive(Clone, Debug)]
pub struct VerificationReport {
    /// Individual property results, in the order listed in the module
    /// docs.
    pub checks: Vec<PropertyCheck>,
}

impl VerificationReport {
    /// Whether every property holds.
    pub fn all_hold(&self) -> bool {
        self.checks.iter().all(|c| c.holds)
    }

    /// Multi-line rendering, one property per line.
    pub fn summary(&self) -> String {
        self.checks
            .iter()
            .map(|c| {
                if c.holds {
                    format!("[ok]   {}", c.name)
                } else {
                    format!("[FAIL] {}: {}", c.name, c.detail)
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Runs every Appendix A check against `tpiin`.
///
/// Checks 2 and 5 read the edge column of [`Tpiin::graph`].  Checks 1, 3
/// and 4 read the CSR lanes ([`Tpiin::csr`]), the network's only
/// adjacency, so a caller that mutates the graph must
/// [`Tpiin::refreeze`] before auditing.
/// `require_legal_person_arcs` enables check 4; pass `false` for
/// hand-built networks that do not model legal persons.
pub fn verify_tpiin(tpiin: &Tpiin, require_legal_person_arcs: bool) -> VerificationReport {
    let mut checks = Vec::new();
    let mut push = |name: &'static str, violation: Option<String>| {
        checks.push(PropertyCheck {
            name,
            holds: violation.is_none(),
            detail: violation.unwrap_or_default(),
        });
    };

    // 1. Persons have indegree zero, in either lane.
    let csr = tpiin.csr();
    let in_degree = |lane, v: tpiin_graph::NodeId| csr.in_degree(lane, v.index() as u32);
    let offender = tpiin.graph.node_ids().find(|&v| {
        tpiin.color(v) == NodeColor::Person
            && in_degree(TRADING_LANE, v) + in_degree(INFLUENCE_LANE, v) > 0
    });
    push(
        "person indegree zero",
        offender.map(|v| format!("person node {} has incoming arcs", tpiin.label(v))),
    );

    // 2. Arc endpoints: everything ends at a company; trading arcs also
    // start at one.
    let mut bad_arc = None;
    for e in tpiin.graph.edges() {
        if tpiin.color(e.target) != NodeColor::Company {
            bad_arc = Some(format!(
                "arc {} -> {} ends at a person",
                tpiin.label(e.source),
                tpiin.label(e.target)
            ));
            break;
        }
        if e.weight.color == ArcColor::Trading && tpiin.color(e.source) != NodeColor::Company {
            bad_arc = Some(format!(
                "trading arc {} -> {} starts at a person",
                tpiin.label(e.source),
                tpiin.label(e.target)
            ));
            break;
        }
    }
    push("arc color endpoints", bad_arc);

    // 3. Antecedent network is a DAG.
    push(
        "antecedent network acyclic",
        (!csr.is_acyclic(INFLUENCE_LANE))
            .then(|| "influence arcs contain a directed cycle".to_string()),
    );

    // 4. Companies keep a legal-person (influence) in-arc.
    if require_legal_person_arcs {
        let orphan = tpiin
            .graph
            .node_ids()
            .find(|&v| tpiin.color(v) == NodeColor::Company && in_degree(INFLUENCE_LANE, v) == 0);
        push(
            "companies influenced",
            orphan.map(|v| format!("company {} has no influence in-arc", tpiin.label(v))),
        );
    }

    // 5. No duplicate same-color arcs.
    let mut seen = std::collections::HashSet::new();
    let dup = tpiin
        .graph
        .edges()
        .find(|e| !seen.insert((e.source, e.target, e.weight.color.code())));
    push(
        "arcs deduplicated",
        dup.map(|e| {
            format!(
                "duplicate arc {} -> {}",
                tpiin.label(e.source),
                tpiin.label(e.target)
            )
        }),
    );

    VerificationReport { checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::fuse;
    use crate::tpiin::TpiinArc;

    #[test]
    fn fused_networks_pass_all_checks() {
        let (tpiin, _) = fuse(&tpiin_datagen::fig7_registry()).unwrap();
        let report = verify_tpiin(&tpiin, true);
        assert!(report.all_hold(), "{}", report.summary());
        assert!(report.summary().contains("[ok]"));
        assert_eq!(report.checks.len(), 5);
    }

    #[test]
    fn corrupted_network_is_caught() {
        let (mut tpiin, _) = fuse(&tpiin_datagen::fig7_registry()).unwrap();
        // Point a trading arc at a person node (graph is append-only, so
        // corrupt by adding a bogus arc).
        let person = tpiin
            .graph
            .node_ids()
            .find(|&v| tpiin.color(v) == NodeColor::Person)
            .unwrap();
        let company = tpiin
            .graph
            .node_ids()
            .find(|&v| tpiin.color(v) == NodeColor::Company)
            .unwrap();
        tpiin.graph.add_edge(
            company,
            person,
            TpiinArc {
                color: ArcColor::Trading,
                weight: 1.0,
            },
        );
        tpiin.refreeze();
        let report = verify_tpiin(&tpiin, true);
        assert!(!report.all_hold());
        assert!(report.summary().contains("[FAIL]"));
        let failed: Vec<_> = report
            .checks
            .iter()
            .filter(|c| !c.holds)
            .map(|c| c.name)
            .collect();
        assert!(failed.contains(&"person indegree zero"), "{failed:?}");
    }

    #[test]
    fn duplicate_arcs_are_caught() {
        let (mut tpiin, _) = fuse(&tpiin_datagen::case2_registry()).unwrap();
        let e = tpiin.graph.edges().next().unwrap();
        let (s, t, w) = (e.source, e.target, *e.weight);
        tpiin.graph.add_edge(s, t, w);
        tpiin.refreeze();
        let report = verify_tpiin(&tpiin, true);
        let dup = report
            .checks
            .iter()
            .find(|c| c.name == "arcs deduplicated")
            .unwrap();
        assert!(!dup.holds);
        assert!(dup.detail.contains("duplicate"));
    }

    #[test]
    fn influence_cycle_fails_only_the_dag_check() {
        // P -> A, then A -> B -> A: a company-to-company influence 2-cycle
        // that SCC contraction would have merged.
        let influence = TpiinArc {
            color: ArcColor::Influence,
            weight: 1.0,
        };
        let mut graph: tpiin_graph::DiGraph<crate::tpiin::TpiinNode, TpiinArc> =
            tpiin_graph::DiGraph::new();
        let p = graph.add_node(crate::tpiin::TpiinNode::Person {
            label: "P".into(),
            members: vec![tpiin_model::PersonId(0)].into(),
        });
        let a = graph.add_node(crate::tpiin::TpiinNode::Company {
            label: "A".into(),
            members: vec![tpiin_model::CompanyId(0)].into(),
        });
        let b = graph.add_node(crate::tpiin::TpiinNode::Company {
            label: "B".into(),
            members: vec![tpiin_model::CompanyId(1)].into(),
        });
        graph.add_edge(p, a, influence);
        graph.add_edge(a, b, influence);
        graph.add_edge(b, a, influence);
        let tpiin = Tpiin::assemble(graph, vec![p], vec![a, b], 3, 0, vec![], vec![]);
        let report = verify_tpiin(&tpiin, true);
        let failed: Vec<_> = report
            .checks
            .iter()
            .filter(|c| !c.holds)
            .map(|c| c.name)
            .collect();
        assert_eq!(
            failed,
            ["antecedent network acyclic"],
            "{}",
            report.summary()
        );
        assert_eq!(report.checks.len(), 5);
        assert!(report.summary().contains(
            "[FAIL] antecedent network acyclic: influence arcs contain a directed cycle"
        ));
    }

    #[test]
    fn legal_person_check_is_waivable() {
        // A bare company node with only trading arcs: fails check 4 when
        // required, passes when waived.
        let mut graph: tpiin_graph::DiGraph<crate::tpiin::TpiinNode, TpiinArc> =
            tpiin_graph::DiGraph::new();
        let a = graph.add_node(crate::tpiin::TpiinNode::Company {
            label: "A".into(),
            members: vec![tpiin_model::CompanyId(0)].into(),
        });
        let b = graph.add_node(crate::tpiin::TpiinNode::Company {
            label: "B".into(),
            members: vec![tpiin_model::CompanyId(1)].into(),
        });
        graph.add_edge(
            a,
            b,
            TpiinArc {
                color: ArcColor::Trading,
                weight: 1.0,
            },
        );
        let tpiin = Tpiin::assemble(graph, vec![], vec![a, b], 0, 1, vec![], vec![]);
        assert!(!verify_tpiin(&tpiin, true).all_hold());
        assert!(verify_tpiin(&tpiin, false).all_hold());
    }
}
