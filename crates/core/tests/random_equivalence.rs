//! Property-based differential testing: on random registries the proposed
//! detector must agree exactly with the independent global-traversal
//! baseline (the Table 1 accuracy claim), and the counting-only and
//! per-shard routes must agree with the detector.

use proptest::prelude::*;
use tpiin_core::baseline::detect_baseline;
use tpiin_core::{detect, Detector, DetectorConfig, GroupTable};
use tpiin_fusion::fuse;
use tpiin_graph::NodeId;
use tpiin_model::{
    InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, Role, RoleSet,
    SourceRegistry, TradingRecord,
};

/// A randomly generated but always-valid registry: `np` persons, `nc`
/// companies, each company gets a legal person, then random investments
/// (cycles allowed — fusion contracts them), directorships, kinship and
/// trading arcs.
#[derive(Debug, Clone)]
struct RawRegistry {
    np: usize,
    nc: usize,
    lp_of: Vec<usize>,                  // company -> person serving as LP
    directorships: Vec<(usize, usize)>, // (person, company)
    kinship: Vec<(usize, usize)>,       // person pairs
    investments: Vec<(usize, usize)>,   // company pairs (may form cycles)
    trades: Vec<(usize, usize)>,        // company pairs
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

type Key = ((NodeId, NodeId), Vec<NodeId>, Vec<NodeId>);

fn sorted_keys(groups: &GroupTable) -> Vec<Key> {
    let mut keys: Vec<Key> = groups.iter().map(|g| g.key()).collect();
    keys.sort();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn detector_agrees_with_baseline(raw in arb_registry()) {
        let registry = build(&raw);
        prop_assert!(registry.validate().is_ok());
        let (tpiin, _) = fuse(&registry).expect("valid registry fuses");
        let proposed = detect(&tpiin);
        let baseline = detect_baseline(&tpiin, 1_000_000);
        prop_assert!(!baseline.overflowed);
        prop_assert_eq!(sorted_keys(&proposed.groups), sorted_keys(&GroupTable::from(&baseline.groups[..])));
        prop_assert_eq!(&proposed.suspicious_trading_arcs, &baseline.suspicious_trading_arcs);
        // The unrestricted Definition-2 count never undershoots the
        // anchored count minus circles (completeness sanity).
        prop_assert!(baseline.all_start_group_count >= proposed.groups.iter()
            .filter(|g| g.kind == tpiin_core::GroupKind::Matched).count());
    }

    #[test]
    fn counting_config_agrees(raw in arb_registry()) {
        let registry = build(&raw);
        let (tpiin, _) = fuse(&registry).expect("valid registry fuses");
        let serial = detect(&tpiin);
        let counting = Detector::new(DetectorConfig { collect_groups: false, ..Default::default() })
            .detect(&tpiin);
        prop_assert_eq!(serial.complex_group_count, counting.complex_group_count);
        prop_assert_eq!(serial.simple_group_count, counting.simple_group_count);
        prop_assert_eq!(&serial.suspicious_trading_arcs, &counting.suspicious_trading_arcs);
    }

    #[test]
    fn group_invariants_hold(raw in arb_registry()) {
        let registry = build(&raw);
        let (tpiin, _) = fuse(&registry).expect("valid registry fuses");
        let result = detect(&tpiin);
        prop_assert_eq!(result.group_count(), result.groups.len());
        for g in &result.groups {
            // Exactly one trading arc, incoming to the end node.
            prop_assert_eq!(g.trading_arc.1, g.end);
            prop_assert_eq!(*g.trail_with_trade.last().unwrap(), g.trading_arc.0);
            // Both trails start at the antecedent.
            prop_assert_eq!(g.trail_with_trade[0], g.antecedent);
            prop_assert_eq!(g.trail_plain[0], g.antecedent);
            // Trails are simple (no repeated nodes).
            for trail in [&g.trail_with_trade, &g.trail_plain] {
                let set: std::collections::HashSet<_> = trail.iter().collect();
                prop_assert_eq!(set.len(), trail.len(), "trail repeats a node");
            }
            // The simple flag matches Definition 3.
            if g.kind == tpiin_core::GroupKind::Matched {
                let interior1: std::collections::HashSet<_> =
                    g.trail_with_trade[1..].iter().collect();
                let plain = &g.trail_plain;
                let interior2: std::collections::HashSet<_> =
                    plain[1..plain.len() - 1].iter().collect();
                prop_assert_eq!(interior1.is_disjoint(&interior2), g.simple);
                // The end node never appears on the trading trail's prefix.
                prop_assert!(!g.trail_with_trade.contains(&g.end));
            }
            // Every arc of both trails exists in the TPIIN with the right
            // color.
            for pair in g.trail_with_trade.windows(2) {
                prop_assert!(tpiin.graph.out_edges(pair[0]).any(|e| e.target == pair[1]
                    && e.weight.color == tpiin_fusion::ArcColor::Influence));
            }
            prop_assert!(tpiin
                .graph
                .out_edges(g.trading_arc.0)
                .any(|e| e.target == g.trading_arc.1
                    && e.weight.color == tpiin_fusion::ArcColor::Trading));
        }
        // Suspicious arcs are exactly the arcs appearing in groups plus
        // intra-syndicate trades.
        let mut from_groups: std::collections::BTreeSet<(NodeId, NodeId)> =
            result.groups.iter().map(|g| g.trading_arc).collect();
        for t in &tpiin.intra_syndicate_trades {
            from_groups.insert((
                tpiin.company_node[t.seller.index()],
                tpiin.company_node[t.buyer.index()],
            ));
        }
        prop_assert_eq!(&from_groups, &result.suspicious_trading_arcs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mining every shard on its own with [`tpiin_core::mine_shard`] and
    /// handing the outcomes to [`tpiin_core::assemble_detection`]
    /// reproduces the detector's result exactly — the invariant the delta
    /// engine's shard cache rests on.
    #[test]
    fn shard_outcomes_assemble_to_global_detection(raw in arb_registry()) {
        let registry = build(&raw);
        let (tpiin, _) = fuse(&registry).expect("valid registry fuses");
        let global = detect(&tpiin);
        let subs = tpiin_core::segment_tpiin(&tpiin);
        let config = DetectorConfig::default();
        let outcomes: Vec<_> = subs.iter().map(|sub| tpiin_core::mine_shard(sub, &config)).collect();
        let assembled = tpiin_core::assemble_detection(&tpiin, &subs, &outcomes);
        prop_assert_eq!(&assembled.groups, &global.groups, "same groups in the same order");
        for (a, g) in assembled.groups.iter().zip(&global.groups) {
            let chain = tpiin_core::Provenance::assemble(&tpiin, a);
            prop_assert_eq!(&chain, &tpiin_core::Provenance::assemble(&tpiin, g));
            prop_assert!(chain.audit(&tpiin).is_ok());
        }
        prop_assert_eq!(&assembled.per_subtpiin, &global.per_subtpiin);
        prop_assert_eq!(&assembled.suspicious_trading_arcs, &global.suspicious_trading_arcs);
        prop_assert_eq!(
            (assembled.complex_group_count, assembled.simple_group_count, assembled.overflowed),
            (global.complex_group_count, global.simple_group_count, global.overflowed)
        );
    }
}
