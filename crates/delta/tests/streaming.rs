//! Streaming-ingest behavior of the delta engine: the retired
//! `IncrementalDetector` contract (trading appends over a fused TPIIN)
//! re-expressed against [`DeltaEngine`], plus the registry-backed paths.

use tpiin_core::{detect, Provenance};
use tpiin_datagen::{add_random_trading, generate_province, ProvinceConfig};
use tpiin_delta::{DeltaEngine, DeltaError, DeltaPath};
use tpiin_fusion::fuse;
use tpiin_model::{
    CompanyId, InfluenceKind, InfluenceRecord, InvestmentRecord, Mutation, MutationBatch, PersonId,
    Role, RoleSet, SourceRegistry, TradingRecord,
};

fn assert_identical(a: &tpiin_fusion::Tpiin, b: &tpiin_fusion::Tpiin) {
    assert_eq!(a.edge_list(), b.edge_list());
    assert_eq!(a.person_node, b.person_node);
    assert_eq!(a.company_node, b.company_node);
    assert_eq!(a.arc_sources, b.arc_sources);
    assert_eq!(a.intra_syndicate_trades, b.intra_syndicate_trades);
    assert_eq!(a.influence_arc_count, b.influence_arc_count);
    assert_eq!(a.trading_arc_count, b.trading_arc_count);
    let la: Vec<&str> = a.graph.nodes().map(|(_, n)| n.label()).collect();
    let lb: Vec<&str> = b.graph.nodes().map(|(_, n)| n.label()).collect();
    assert_eq!(la, lb);
}

/// Streaming the whole trading network chunk by chunk must converge to
/// exactly the batch result — in both construction modes.
#[test]
fn streaming_converges_to_batch_detection() {
    let config = ProvinceConfig {
        seed: 3,
        ..ProvinceConfig::scaled(0.12)
    };
    let base = generate_province(&config);

    // Batch run: everything at once.
    let mut with_trades = base.clone();
    add_random_trading(&mut with_trades, 0.01, 33);
    let (batch_tpiin, _) = fuse(&with_trades).unwrap();
    let batch = detect(&batch_tpiin);
    let trades: Vec<_> = with_trades.tradings().to_vec();

    // TPIIN-only mode: fuse without trades, then feed them in chunks.
    let (empty_tpiin, _) = fuse(&base).unwrap();
    let mut streaming = DeltaEngine::from_tpiin(empty_tpiin);
    let mut all_groups = Vec::new();
    for chunk in trades.chunks(97) {
        let outcome = streaming.ingest(chunk).unwrap();
        assert_eq!(outcome.path, DeltaPath::TradingAppend);
        all_groups.extend(outcome.new_groups);
    }
    assert_eq!(streaming.suspicious_arcs(), &batch.suspicious_trading_arcs);
    assert_eq!(all_groups.len(), batch.group_count());
    let mut a: Vec<_> = all_groups.iter().map(|g| g.key()).collect();
    let mut b: Vec<_> = batch.groups.iter().map(|g| g.key()).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);

    // Registry-backed mode additionally guarantees bit-identity with the
    // from-scratch fuse of the equivalent registry.
    let mut engine = DeltaEngine::new(base).unwrap();
    for chunk in trades.chunks(97) {
        engine.ingest(chunk).unwrap();
    }
    assert_identical(engine.tpiin(), &batch_tpiin);
    assert_eq!(engine.detection().groups, batch.groups);
    assert_eq!(
        engine.detection().suspicious_trading_arcs,
        batch.suspicious_trading_arcs
    );
}

#[test]
fn duplicates_are_skipped() {
    let (tpiin, _) = fuse(&tpiin_datagen::fig7_registry()).unwrap();
    let mut det = DeltaEngine::from_tpiin(tpiin);
    // C3 -> C5 already exists in the fused network (CompanyId 2 -> 4).
    let outcome = det
        .ingest(&[TradingRecord {
            seller: CompanyId(2),
            buyer: CompanyId(4),
            volume: 1.0,
        }])
        .unwrap();
    assert_eq!(outcome.duplicates, 1);
    assert!(outcome.new_groups.is_empty());
}

#[test]
fn company_append_dedups_against_the_network_and_the_batch() {
    // The frozen CSR holds the network from before the batch: it has no
    // row for a company registered in the batch, nor the arcs appended
    // earlier in it.  Both duplicates must still be caught.
    let mut registry = tpiin_datagen::fig7_registry();
    let legal = *registry
        .influences()
        .iter()
        .find(|r| r.is_legal_person)
        .expect("fig7 has legal persons");
    let x = CompanyId(registry.company_count() as u32);
    let trade = |seller, buyer| {
        Mutation::AddTrading(TradingRecord {
            seller,
            buyer,
            volume: 1.0,
        })
    };
    // C3 -> C5 (CompanyId 2 -> 4) is already in fig7.
    let batch = MutationBatch::new(vec![
        Mutation::AddCompany {
            name: "X".to_string(),
            legal_person: legal.person,
            kind: legal.kind,
        },
        trade(x, CompanyId(4)),
        trade(x, CompanyId(4)),
        trade(CompanyId(2), CompanyId(4)),
    ]);
    let mut engine = DeltaEngine::new(registry.clone()).unwrap();
    let outcome = engine.apply(&batch).unwrap();
    assert_eq!(outcome.path, DeltaPath::CompanyAppend);
    assert_eq!(outcome.duplicates, 2);
    assert_eq!(engine.stats().arcs_added, 1);

    batch.apply_to_registry(&mut registry).unwrap();
    let (fresh, _) = fuse(&registry).unwrap();
    let want = detect(&fresh);
    assert_identical(engine.tpiin(), &fresh);
    assert_eq!(engine.detection().groups, want.groups);
    assert_eq!(
        engine.detection().suspicious_trading_arcs,
        want.suspicious_trading_arcs
    );
}

#[test]
fn intra_syndicate_trades_flagged_immediately() {
    let mut r = SourceRegistry::new();
    let l = r.add_person("L", RoleSet::of(&[Role::Ceo]));
    let c1 = r.add_company("C1");
    let c2 = r.add_company("C2");
    for c in [c1, c2] {
        r.add_influence(InfluenceRecord {
            person: l,
            company: c,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
    }
    for (a, b) in [(c1, c2), (c2, c1)] {
        r.add_investment(InvestmentRecord {
            investor: a,
            investee: b,
            share: 0.5,
        });
    }
    let mut det = DeltaEngine::new(r).unwrap();
    let outcome = det
        .ingest(&[TradingRecord {
            seller: c1,
            buyer: c2,
            volume: 9.0,
        }])
        .unwrap();
    assert_eq!(outcome.intra_syndicate, 1);
    assert_eq!(outcome.new_suspicious_arcs.len(), 1);
    assert_eq!(det.tpiin().intra_syndicate_trades.len(), 1);
}

#[test]
fn counters_accumulate_across_batches() {
    let mut r = tpiin_datagen::case2_registry();
    r.clear_trading();
    let (clean, _) = fuse(&r).unwrap();
    let mut det = DeltaEngine::from_tpiin(clean);
    let o1 = det
        .ingest(&[TradingRecord {
            seller: CompanyId(1),
            buyer: CompanyId(2),
            volume: 1.0,
        }])
        .unwrap();
    assert_eq!(o1.new_groups.len(), 1);
    assert_eq!(det.groups_found(), 1);
    let o2 = det
        .ingest(&[TradingRecord {
            seller: CompanyId(2),
            buyer: CompanyId(1),
            volume: 1.0,
        }])
        .unwrap();
    assert_eq!(o2.new_groups.len(), 1, "reverse direction is a new arc");
    assert_eq!(det.groups_found(), 2);
}

#[test]
fn stats_accumulate_and_publish_gauges() {
    let mut r = tpiin_datagen::case2_registry();
    r.clear_trading();
    let (clean, _) = fuse(&r).unwrap();
    let mut det = DeltaEngine::from_tpiin(clean);
    let batch = [
        TradingRecord {
            seller: CompanyId(1),
            buyer: CompanyId(2),
            volume: 1.0,
        },
        TradingRecord {
            seller: CompanyId(1),
            buyer: CompanyId(2),
            volume: 2.0,
        },
    ];
    det.ingest(&batch).unwrap();
    let stats = det.stats();
    assert_eq!(stats.records_ingested, 2);
    assert_eq!(stats.duplicates, 1);
    assert_eq!(stats.arcs_added, 1);
    assert_eq!(stats.groups_found, 1);
    assert_eq!(stats.intra_syndicate, 0);
    assert_eq!(stats.batches_applied, 1);
    // Published as gauges for /ingest handlers and streaming feeds
    // (a local registry here; apply targets the global one, which
    // parallel tests also write).
    let registry = tpiin_obs::MetricsRegistry::new();
    stats.publish_to(&registry);
    assert_eq!(registry.gauge("ingest.records").get(), 2.0);
    assert_eq!(registry.gauge("ingest.arcs_added").get(), 1.0);
    assert_eq!(registry.gauge("delta.batches").get(), 1.0);
}

/// A batch that registers a person, links two others by kinship and
/// closes an investment cycle re-fuses, and the result matches a
/// from-scratch fuse + detect.
#[test]
fn person_registration_refuses_and_matches_full_fuse() {
    let mut r = SourceRegistry::new();
    for i in 0..8 {
        let p = r.add_person(format!("L{i}"), RoleSet::of(&[Role::Ceo]));
        let c = r.add_company(format!("C{i}"));
        r.add_influence(InfluenceRecord {
            person: p,
            company: c,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
    }
    r.add_trading(TradingRecord {
        seller: CompanyId(0),
        buyer: CompanyId(1),
        volume: 3.0,
    });
    let mut engine = DeltaEngine::new(r.clone()).unwrap();

    let batch = MutationBatch::new(vec![
        Mutation::AddPerson {
            name: "L8".into(),
            roles: RoleSet::of(&[Role::Ceo]),
        },
        Mutation::AddInterdependence {
            a: PersonId(0),
            b: PersonId(1),
            kind: tpiin_model::InterdependenceKind::Kinship,
        },
        Mutation::AddInvestment(InvestmentRecord {
            investor: CompanyId(2),
            investee: CompanyId(3),
            share: 0.6,
        }),
        Mutation::AddInvestment(InvestmentRecord {
            investor: CompanyId(3),
            investee: CompanyId(2),
            share: 0.6,
        }),
        Mutation::AddTrading(TradingRecord {
            seller: CompanyId(2),
            buyer: CompanyId(3),
            volume: 4.0,
        }),
    ]);
    let outcome = engine.apply(&batch).unwrap();
    assert_eq!(outcome.path, DeltaPath::FullRebuild);
    assert!(!outcome.new_groups.is_empty(), "kin pair behind the trade");

    batch.apply_to_registry(&mut r).unwrap();
    let (expected_tpiin, _) = fuse(&r).unwrap();
    let expected = detect(&expected_tpiin);
    assert_identical(engine.tpiin(), &expected_tpiin);
    assert_eq!(engine.detection().groups, expected.groups);
    for g in &expected.groups {
        let got = Provenance::assemble(engine.tpiin(), g);
        assert_eq!(got, Provenance::assemble(&expected_tpiin, g));
        assert!(got.audit(engine.tpiin()).is_ok() && got.audit(&expected_tpiin).is_ok());
    }
    assert_eq!(engine.detection().per_subtpiin, expected.per_subtpiin);
}

#[test]
fn removals_fall_back_to_full_rebuild() {
    let mut r = tpiin_datagen::case2_registry();
    let mut engine = DeltaEngine::new(r.clone()).unwrap();
    let batch = MutationBatch::new(vec![Mutation::RemoveCompany {
        company: CompanyId(0),
    }]);
    let outcome = engine.apply(&batch).unwrap();
    assert_eq!(outcome.path, DeltaPath::FullRebuild);
    assert_eq!(engine.stats().full_rebuilds, 1);

    batch.apply_to_registry(&mut r).unwrap();
    let (expected_tpiin, _) = fuse(&r).unwrap();
    assert_identical(engine.tpiin(), &expected_tpiin);
    assert_eq!(engine.detection().groups, detect(&expected_tpiin).groups);
}

#[test]
fn rejected_batches_leave_the_engine_unchanged() {
    let r = tpiin_datagen::case2_registry();
    let (reference, _) = fuse(&r).unwrap();
    let mut engine = DeltaEngine::new(r).unwrap();

    // Unknown company in a trading batch.
    let err = engine
        .ingest(&[TradingRecord {
            seller: CompanyId(99),
            buyer: CompanyId(0),
            volume: 1.0,
        }])
        .unwrap_err();
    assert!(matches!(err, DeltaError::Mutation(_)), "{err}");
    assert_identical(engine.tpiin(), &reference);

    // A removal that breaks validation (legal person disappears).
    let err = engine
        .apply(&MutationBatch::new(vec![Mutation::RemovePerson {
            person: PersonId(0),
        }]))
        .unwrap_err();
    assert!(matches!(err, DeltaError::Fusion(_)), "{err}");
    assert_identical(engine.tpiin(), &reference);
    assert_eq!(engine.stats().batches_applied, 0);
}

#[test]
fn tpiin_only_mode_rejects_registry_mutations() {
    let (tpiin, _) = fuse(&tpiin_datagen::case2_registry()).unwrap();
    let mut engine = DeltaEngine::from_tpiin(tpiin);
    let err = engine
        .apply(&MutationBatch::new(vec![Mutation::AddPerson {
            name: "X".into(),
            roles: RoleSet::of(&[Role::Ceo]),
        }]))
        .unwrap_err();
    assert!(matches!(err, DeltaError::RegistryRequired));
}

/// Shards untouched by a batch are not re-mined — and not even looked
/// up: the splice path leaves them entirely alone, so the only mining
/// work is the one component the batch touched.
#[test]
fn untouched_shards_are_left_alone() {
    let mut r = SourceRegistry::new();
    for i in 0..3 {
        let p = r.add_person(format!("L{i}"), RoleSet::of(&[Role::Ceo]));
        let a = r.add_company(format!("A{i}"));
        let b = r.add_company(format!("B{i}"));
        for c in [a, b] {
            r.add_influence(InfluenceRecord {
                person: p,
                company: c,
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            });
        }
        r.add_trading(TradingRecord {
            seller: a,
            buyer: b,
            volume: 1.0,
        });
    }
    let mut engine = DeltaEngine::new(r).unwrap();
    // Appending a reverse trade in component 0 leaves components 1 and 2
    // structurally untouched.
    let outcome = engine
        .ingest(&[TradingRecord {
            seller: CompanyId(1),
            buyer: CompanyId(0),
            volume: 2.0,
        }])
        .unwrap();
    assert_eq!(outcome.cache_hits, 0, "untouched shards cost nothing");
    assert_eq!(outcome.shards_remined, 1);
    // Replaying the same local structure later does hit the cache: a
    // second reverse trade in component 1 re-mines a shard whose shape
    // component 0 already produced.
    let outcome = engine
        .ingest(&[TradingRecord {
            seller: CompanyId(3),
            buyer: CompanyId(2),
            volume: 2.0,
        }])
        .unwrap();
    assert_eq!(outcome.cache_hits, 1, "same local shape replays");
    assert_eq!(outcome.shards_remined, 0);
}
