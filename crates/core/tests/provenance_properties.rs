//! Property tests for group provenance: on random valid registries,
//! every arc and node a mined group's [`Provenance`] references must
//! exist in the fused TPIIN, every resolved source-record sequence must
//! point into the corresponding source feed, and the score breakdown
//! must agree with `score_group` term by term.

use proptest::prelude::*;
use tpiin_core::{detect, score_group, GroupMiner, Provenance, Rule12Miner};
use tpiin_fusion::ArcColor;
use tpiin_model::{
    CompanyId, InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, PersonId,
    Role, RoleSet, SourceRegistry, TradingRecord,
};

#[derive(Clone, Debug)]
struct RawRegistry {
    n: usize,
    kin: Vec<(u32, u32)>,
    investments: Vec<(u32, u32, f64)>,
    trades: Vec<(u32, u32, f64)>,
}

/// Random registries that always pass fusion validation: person `i` is
/// the legal-person CEO of company `i`, then random kinship edges,
/// investments and trades on top.
fn arb_registry() -> impl Strategy<Value = RawRegistry> {
    (2usize..8).prop_flat_map(|n| {
        let pair = || (0..n as u32, 0..n as u32);
        let kin = proptest::collection::vec(pair(), 0..4);
        let investments = proptest::collection::vec((0..n as u32, 0..n as u32, 0.1f64..1.0), 0..8);
        let trades = proptest::collection::vec((0..n as u32, 0..n as u32, 1.0f64..100.0), 0..8);
        (kin, investments, trades).prop_map(move |(kin, investments, trades)| RawRegistry {
            n,
            kin: kin.into_iter().filter(|&(a, b)| a != b).collect(),
            investments: investments
                .into_iter()
                .filter(|&(a, b, _)| a != b)
                .collect(),
            trades: trades.into_iter().filter(|&(a, b, _)| a != b).collect(),
        })
    })
}

fn build(raw: &RawRegistry) -> SourceRegistry {
    let mut r = SourceRegistry::new();
    for i in 0..raw.n {
        let p = r.add_person(format!("L{i}"), RoleSet::of(&[Role::Ceo]));
        let c = r.add_company(format!("C{i}"));
        r.add_influence(InfluenceRecord {
            person: p,
            company: c,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
    }
    for &(a, b) in &raw.kin {
        r.add_interdependence(PersonId(a), PersonId(b), InterdependenceKind::Kinship);
    }
    for &(a, b, share) in &raw.investments {
        r.add_investment(InvestmentRecord {
            investor: CompanyId(a),
            investee: CompanyId(b),
            share,
        });
    }
    for &(a, b, volume) in &raw.trades {
        r.add_trading(TradingRecord {
            seller: CompanyId(a),
            buyer: CompanyId(b),
            volume,
        });
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_provenance_arc_exists_in_the_tpiin(raw in arb_registry()) {
        let registry = build(&raw);
        let (tpiin, _) = tpiin_fusion::fuse(&registry).expect("constructed registries are valid");
        let result = detect(&tpiin);
        let influence_feed = registry.influences().len() + registry.investments().len();
        let trading_feed = registry.tradings().len();
        for group in &result.groups {
            let prov = Provenance::assemble(&tpiin, group);
            // Self-audit: every referenced node and arc resolves.
            prop_assert!(prov.audit(&tpiin).is_ok(), "{:?}", prov.audit(&tpiin));
            // Influence arcs physically present, with in-range sources.
            for arc in &prov.influence_arcs {
                prop_assert_eq!(arc.color, ArcColor::Influence);
                let found = tpiin.find_arc(arc.source, arc.target, ArcColor::Influence).is_some();
                prop_assert!(found, "influence arc {} -> {} missing", arc.source, arc.target);
                let seq = arc.source_record.expect("fused arcs carry sources");
                prop_assert!((seq as usize) < influence_feed, "seq {seq} out of feed");
            }
            if let Some(seq) = prov.trading_arc.source_record {
                prop_assert!((seq as usize) < trading_feed);
                // The winning trading record maps exactly onto the arc.
                let record = &registry.tradings()[seq as usize];
                prop_assert_eq!(
                    tpiin.company_node[record.seller.index()],
                    prov.trading_arc.source
                );
                prop_assert_eq!(
                    tpiin.company_node[record.buyer.index()],
                    prov.trading_arc.target
                );
            }
            // Score terms agree with score_group.
            let s = score_group(&tpiin, group);
            prop_assert!((prov.score.chain_strength - s.chain_strength).abs() < 1e-9);
            prop_assert!((prov.score.trade_volume - s.trade_volume).abs() < 1e-9);
            prop_assert!((prov.score.score - s.score).abs() < 1e-9);
        }
    }

    #[test]
    fn provenance_is_identical_mined_per_shard(raw in arb_registry()) {
        let registry = build(&raw);
        let (tpiin, _) = tpiin_fusion::fuse(&registry).expect("valid");
        let serial = detect(&tpiin);
        // A fresh arena per shard, as the delta engine mines.
        let subs = tpiin_core::segment_tpiin(&tpiin);
        let config = tpiin_core::DetectorConfig::default();
        let outcomes: Vec<_> = subs.iter().map(|sub| tpiin_core::mine_shard(sub, &config)).collect();
        let parallel = tpiin_core::assemble_detection(&tpiin, &subs, &outcomes);
        prop_assert_eq!(serial.groups.len(), parallel.groups.len());
        for (s, p) in serial.groups.iter().zip(&parallel.groups) {
            let chain = Provenance::assemble(&tpiin, p);
            prop_assert_eq!(&chain, &Provenance::assemble(&tpiin, s));
            prop_assert!(chain.audit(&tpiin).is_ok());
        }
    }
}

/// What `explain` and `/groups/{id}/provenance` obtain through the
/// miner hook is exactly [`Provenance::assemble`] over the same pair.
#[test]
fn provenance_hook_matches_assemble() {
    let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
    let result = detect(&tpiin);
    assert!(!result.groups.is_empty());
    for group in &result.groups {
        let hooked = Rule12Miner.provenance(&tpiin, group);
        assert_eq!(hooked, Some(Provenance::assemble(&tpiin, group)));
    }
}
