//! Property-based tests of the fusion pipeline: the Appendix A invariants
//! must hold for every valid registry, including ones with investment
//! cycles and dense interdependence.

use proptest::prelude::*;
use tpiin_fusion::{fuse, ArcColor, NodeColor, INFLUENCE_LANE, TRADING_LANE};
use tpiin_model::{
    InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, Role, RoleSet,
    SourceRegistry, TradingRecord,
};

#[derive(Debug, Clone)]
struct RawRegistry {
    np: usize,
    nc: usize,
    lp_of: Vec<usize>,
    directorships: Vec<(usize, usize)>,
    interdependence: Vec<(usize, usize, bool)>,
    investments: Vec<(usize, usize)>,
    trades: Vec<(usize, usize)>,
}

fn arb_registry() -> impl Strategy<Value = RawRegistry> {
    (2usize..7, 2usize..12).prop_flat_map(|(np, nc)| {
        (
            proptest::collection::vec(0..np, nc),
            proptest::collection::vec((0..np, 0..nc), 0..10),
            proptest::collection::vec((0..np, 0..np, any::<bool>()), 0..6),
            proptest::collection::vec((0..nc, 0..nc), 0..15),
            proptest::collection::vec((0..nc, 0..nc), 0..12),
        )
            .prop_map(
                move |(lp_of, directorships, interdependence, investments, trades)| RawRegistry {
                    np,
                    nc,
                    lp_of,
                    directorships,
                    interdependence,
                    investments,
                    trades,
                },
            )
    })
}

fn build(raw: &RawRegistry) -> SourceRegistry {
    let mut r = SourceRegistry::new();
    let persons: Vec<_> = (0..raw.np)
        .map(|i| r.add_person(format!("P{i}"), RoleSet::of(&[Role::Ceo, Role::Director])))
        .collect();
    let companies: Vec<_> = (0..raw.nc)
        .map(|i| r.add_company(format!("C{i}")))
        .collect();
    for (c, &p) in raw.lp_of.iter().enumerate() {
        r.add_influence(InfluenceRecord {
            person: persons[p],
            company: companies[c],
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
    }
    for &(p, c) in &raw.directorships {
        r.add_influence(InfluenceRecord {
            person: persons[p],
            company: companies[c],
            kind: InfluenceKind::DirectorOf,
            is_legal_person: false,
        });
    }
    for &(a, b, kin) in &raw.interdependence {
        if a != b {
            r.add_interdependence(
                persons[a],
                persons[b],
                if kin {
                    InterdependenceKind::Kinship
                } else {
                    InterdependenceKind::Interlocking
                },
            );
        }
    }
    for &(a, b) in &raw.investments {
        if a != b {
            r.add_investment(InvestmentRecord {
                investor: companies[a],
                investee: companies[b],
                share: 0.4,
            });
        }
    }
    for &(a, b) in &raw.trades {
        if a != b {
            r.add_trading(TradingRecord {
                seller: companies[a],
                buyer: companies[b],
                volume: 1.0,
            });
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn fusion_invariants(raw in arb_registry()) {
        let registry = build(&raw);
        let (tpiin, report) = fuse(&registry).expect("valid registry fuses");

        // Node conservation: every source entity lands in exactly one
        // TPIIN node, persons and companies never merge together.
        let mut person_members = 0;
        let mut company_members = 0;
        for (_, node) in tpiin.graph.nodes() {
            match node {
                tpiin_fusion::TpiinNode::Person { members, .. } => {
                    prop_assert!(!members.is_empty());
                    person_members += members.len();
                }
                tpiin_fusion::TpiinNode::Company { members, .. } => {
                    prop_assert!(!members.is_empty());
                    company_members += members.len();
                }
            }
        }
        prop_assert_eq!(person_members, registry.person_count());
        prop_assert_eq!(company_members, registry.company_count());

        // Lookup tables agree with node colors.
        for (pid, _) in registry.persons() {
            prop_assert_eq!(tpiin.color(tpiin.person_node[pid.index()]), NodeColor::Person);
        }
        for (cid, _) in registry.companies() {
            prop_assert_eq!(tpiin.color(tpiin.company_node[cid.index()]), NodeColor::Company);
        }

        // Persons have indegree zero; influence arcs never end at persons.
        let csr = tpiin.csr();
        for v in tpiin.graph.node_ids() {
            if tpiin.color(v) == NodeColor::Person {
                let i = v.index() as u32;
                prop_assert_eq!(csr.in_degree(TRADING_LANE, i) + csr.in_degree(INFLUENCE_LANE, i), 0);
            }
        }
        for e in tpiin.graph.edges() {
            prop_assert_eq!(tpiin.color(e.target), NodeColor::Company);
            if e.weight.color == ArcColor::Trading {
                prop_assert_eq!(tpiin.color(e.source), NodeColor::Company);
            }
        }

        // The antecedent network (the CSR influence lane) is a DAG.
        prop_assert!(tpiin.csr().is_acyclic(INFLUENCE_LANE));

        // Arc accounting: trading records = arcs + intra-syndicate +
        // duplicates dropped among trading.  (Duplicates are reported as
        // one total; bound the sum instead of splitting by color.)
        prop_assert!(report.trading_arcs + report.intra_syndicate_trades <= report.trading_records);
        prop_assert!(
            report.influence_arcs <= report.influence_records + report.investment_records
        );
        prop_assert_eq!(report.tpiin_nodes, tpiin.node_count());

        // No duplicate same-color arcs remain.
        let mut seen = std::collections::HashSet::new();
        for e in tpiin.graph.edges() {
            prop_assert!(
                seen.insert((e.source, e.target, e.weight.color.code())),
                "duplicate arc {:?} -> {:?}",
                e.source,
                e.target
            );
        }
    }

    #[test]
    fn refusing_then_fusing_is_deterministic(raw in arb_registry()) {
        let registry = build(&raw);
        let (a, mut ra) = fuse(&registry).expect("valid registry fuses");
        let (b, mut rb) = fuse(&registry).expect("valid registry fuses");
        // Stage wall-clock timings are inherently nondeterministic; the
        // structural statistics must match exactly.
        ra.stage_timings.clear();
        rb.stage_timings.clear();
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(a.node_count(), b.node_count());
        let arcs = |t: &tpiin_fusion::Tpiin| -> Vec<_> {
            t.graph
                .edges()
                .map(|e| (e.source, e.target, e.weight.color))
                .collect()
        };
        prop_assert_eq!(arcs(&a), arcs(&b));
    }
}
