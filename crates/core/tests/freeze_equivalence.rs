//! Property-based round-trip testing of the CSR freeze: on random
//! fused registries, the strongly connected and weak components of the
//! frozen [`tpiin_graph::CsrGraph`] must equal those of the `DiGraph`'s
//! own edge list, computed here by naive mutual and undirected
//! reachability.  (Detection over the frozen lanes is checked against
//! the global-traversal baseline in `random_equivalence.rs`.)

use proptest::prelude::*;
use std::collections::BTreeSet;
use tpiin_fusion::{fuse, Tpiin};
use tpiin_graph::csr_index;
use tpiin_model::{
    InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, Role, RoleSet,
    SourceRegistry, TradingRecord,
};

/// Random but always-valid registry (same scheme as
/// `random_equivalence.rs`): every company gets a legal person, then
/// random directorships, kinship, investments (cycles allowed) and
/// trades.
#[derive(Debug, Clone)]
struct RawRegistry {
    np: usize,
    nc: usize,
    lp_of: Vec<usize>,
    directorships: Vec<(usize, usize)>,
    kinship: Vec<(usize, usize)>,
    investments: Vec<(usize, usize)>,
    trades: Vec<(usize, usize)>,
}

fn arb_registry() -> impl Strategy<Value = RawRegistry> {
    (2usize..6, 2usize..10).prop_flat_map(|(np, nc)| {
        (
            proptest::collection::vec(0..np, nc),
            proptest::collection::vec((0..np, 0..nc), 0..8),
            proptest::collection::vec((0..np, 0..np), 0..4),
            proptest::collection::vec((0..nc, 0..nc), 0..12),
            proptest::collection::vec((0..nc, 0..nc), 0..10),
        )
            .prop_map(
                move |(lp_of, directorships, kinship, investments, trades)| RawRegistry {
                    np,
                    nc,
                    lp_of,
                    directorships,
                    kinship,
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
    for &(a, b) in &raw.kinship {
        if a != b {
            r.add_interdependence(persons[a], persons[b], InterdependenceKind::Kinship);
        }
    }
    for &(a, b) in &raw.investments {
        if a != b {
            r.add_investment(InvestmentRecord {
                investor: companies[a],
                investee: companies[b],
                share: 0.5,
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

/// Node classes of `tpiin.graph`'s edge list: `v` and `w` share a class
/// iff each reaches the other, following arcs forward, and also
/// backward when `undirected`.  Depth-first search from every node.
fn naive_classes(tpiin: &Tpiin, undirected: bool) -> BTreeSet<Vec<u32>> {
    let n = tpiin.node_count();
    let mut adj = vec![Vec::new(); n];
    for e in tpiin.graph.edges() {
        let (s, t) = (csr_index(e.source), csr_index(e.target));
        adj[s as usize].push(t);
        if undirected {
            adj[t as usize].push(s);
        }
    }
    let reach: Vec<Vec<bool>> = (0..n)
        .map(|root| {
            let mut seen = vec![false; n];
            let mut stack = vec![root];
            seen[root] = true;
            while let Some(v) = stack.pop() {
                for &w in &adj[v] {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w as usize);
                    }
                }
            }
            seen
        })
        .collect();
    (0..n)
        .map(|v| {
            (0..n as u32)
                .filter(|&w| reach[v][w as usize] && reach[w as usize][v])
                .collect()
        })
        .collect()
}

/// Canonical form of a CSR label vector: set of sorted member sets.
fn canonical_labels(labels: &[u32], count: usize) -> BTreeSet<Vec<u32>> {
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); count];
    for (v, &label) in labels.iter().enumerate() {
        groups[label as usize].push(v as u32);
    }
    groups.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `freeze()` preserves strongly connected components exactly.
    #[test]
    fn frozen_sccs_match_digraph_sccs(raw in arb_registry()) {
        let registry = build(&raw);
        let (tpiin, _) = fuse(&registry).expect("valid registry fuses");
        let csr = tpiin.graph.freeze();
        let frozen: BTreeSet<Vec<u32>> = csr
            .tarjan_scc(0)
            .into_iter()
            .map(|mut c| {
                c.sort();
                c
            })
            .collect();
        prop_assert_eq!(naive_classes(&tpiin, false), frozen);
    }

    /// `freeze()` preserves weak components exactly.
    #[test]
    fn frozen_weak_components_match_digraph(raw in arb_registry()) {
        let registry = build(&raw);
        let (tpiin, _) = fuse(&registry).expect("valid registry fuses");
        let csr = tpiin.graph.freeze();
        let (csr_labels, csr_count) = csr.weak_components(0);
        prop_assert_eq!(
            naive_classes(&tpiin, true),
            canonical_labels(&csr_labels, csr_count)
        );
    }
}
