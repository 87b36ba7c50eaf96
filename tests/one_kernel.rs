//! One kernel, one assembler: every producer of a `DetectionResult` —
//! the detector, `mine_shard` per shard, the counting-only mode and the
//! delta engine's cached re-mine — must agree field for field,
//! and the group set must equal the global-traversal baseline's.
//! Provenance is no field: it is assembled per group on demand, and must
//! come out the same over every producer's network.

use std::collections::BTreeSet;
use tpiin::datagen::{
    add_random_trading, fig7_registry, generate_mutation_stream, generate_province,
    MutationStreamConfig, ProvinceConfig,
};
use tpiin::delta::{DeltaEngine, DeltaPath};
use tpiin::detect::baseline::detect_baseline;
use tpiin::detect::{
    assemble_detection, detect, mine_shard, segment_tpiin, DetectionResult, Detector,
    DetectorConfig, Provenance,
};
use tpiin::fusion::{fuse, Tpiin};
use tpiin::model::{
    CompanyId, InfluenceKind, InvestmentRecord, Mutation, MutationBatch, PersonId, Role, RoleSet,
    SourceRegistry, TradingRecord,
};

/// fig7 plus three small provinces.  Each province also gets one
/// mutually investing company pair that trades with itself, so the
/// intra-syndicate arc seeding is exercised.
fn registries() -> Vec<(String, SourceRegistry)> {
    let mut out = vec![("fig7".to_string(), fig7_registry())];
    for (seed, scale) in [(7u64, 0.05), (11, 0.1), (13, 0.15)] {
        let mut registry = generate_province(&ProvinceConfig {
            seed,
            ..ProvinceConfig::scaled(scale)
        });
        add_random_trading(&mut registry, 0.01, seed + 1);
        let (a, b) = (CompanyId(0), CompanyId(1));
        for (investor, investee) in [(a, b), (b, a)] {
            registry.add_investment(InvestmentRecord {
                investor,
                investee,
                share: 0.5,
            });
        }
        registry.add_trading(TradingRecord {
            seller: a,
            buyer: b,
            volume: 1.0,
        });
        out.push((format!("province-{scale}-seed{seed}"), registry));
    }
    out
}

fn networks() -> Vec<(String, Tpiin)> {
    registries()
        .into_iter()
        .map(|(name, registry)| {
            let (tpiin, _) = fuse(&registry).unwrap();
            assert!(name == "fig7" || !tpiin.intra_syndicate_trades.is_empty());
            (name, tpiin)
        })
        .collect()
}

/// `got` and `want` are each a detection with the network it was mined
/// over; the two networks may be different objects (the engine's
/// maintained one against a from-scratch fuse).
fn assert_identical(
    name: &str,
    what: &str,
    (got_tpiin, got): (&Tpiin, &DetectionResult),
    (want_tpiin, want): (&Tpiin, &DetectionResult),
) {
    assert_eq!(got.groups, want.groups, "{name}: {what}: group order");
    for (i, g) in got.groups.iter().enumerate() {
        let chain = Provenance::assemble(got_tpiin, g);
        assert_eq!(
            chain,
            Provenance::assemble(want_tpiin, g),
            "{name}: {what}: provenance of group {i}"
        );
        assert!(
            chain.audit(got_tpiin).is_ok() && chain.audit(want_tpiin).is_ok(),
            "{name}: {what}: audit of group {i}"
        );
    }
    assert_eq!(
        got.per_subtpiin, want.per_subtpiin,
        "{name}: {what}: per_subtpiin"
    );
    assert_counts_and_arcs(name, what, got, want);
}

fn assert_counts_and_arcs(name: &str, what: &str, got: &DetectionResult, want: &DetectionResult) {
    assert_eq!(
        (
            got.complex_group_count,
            got.simple_group_count,
            got.total_trading_arcs,
            got.intra_syndicate_trades,
            got.overflowed
        ),
        (
            want.complex_group_count,
            want.simple_group_count,
            want.total_trading_arcs,
            want.intra_syndicate_trades,
            want.overflowed
        ),
        "{name}: {what}: counters"
    );
    assert_eq!(
        got.suspicious_trading_arcs, want.suspicious_trading_arcs,
        "{name}: {what}: suspicious arcs"
    );
}

#[test]
fn every_producer_yields_the_same_detection() {
    let mut total_groups = 0;
    for (name, tpiin) in networks() {
        let serial = detect(&tpiin);
        total_groups += serial.group_count();
        assert_eq!(serial.groups.len(), serial.group_count(), "{name}");

        let engine = DeltaEngine::from_tpiin(tpiin.clone());
        assert_identical(
            &name,
            "delta engine",
            (engine.tpiin(), engine.detection()),
            (&tpiin, &serial),
        );

        // A fresh arena per shard, as the delta engine mines, against the
        // detector's one reused scratch.
        let subs = segment_tpiin(&tpiin);
        let outcomes: Vec<_> = subs
            .iter()
            .map(|sub| mine_shard(sub, &DetectorConfig::default()))
            .collect();
        let per_shard = assemble_detection(&tpiin, &subs, &outcomes);
        assert_identical(&name, "per shard", (&tpiin, &per_shard), (&tpiin, &serial));

        let counting = Detector::new(DetectorConfig {
            collect_groups: false,
            ..DetectorConfig::default()
        })
        .detect(&tpiin);
        assert!(counting.groups.is_empty(), "{name}");
        assert_eq!(
            counting.per_subtpiin, serial.per_subtpiin,
            "{name}: counting"
        );
        assert_counts_and_arcs(&name, "counting only", &counting, &serial);

        let baseline = detect_baseline(&tpiin, 10_000_000);
        assert!(!baseline.overflowed, "{name}");
        let keys = |groups: &tpiin::detect::GroupTable| -> BTreeSet<_> {
            groups.iter().map(|g| g.key()).collect()
        };
        let baseline_keys: BTreeSet<_> = baseline.groups.iter().map(|g| g.key()).collect();
        assert_eq!(keys(&serial.groups), baseline_keys, "{name}: baseline");
        assert_eq!(
            keys(&serial.groups).len(),
            serial.groups.len(),
            "{name}: keys unique"
        );
    }
    assert!(
        total_groups > 50,
        "inputs too sparse to prove anything: {total_groups}"
    );
}

/// A company append takes the next influence-feed sequence, so the
/// `source_record` of every investment-sourced arc moves up by one —
/// including the arcs of groups in shards the batch never re-mines.
/// The engine keeps `Tpiin::arc_sources` in step and nothing else, so
/// every group's on-demand provenance must equal the one assembled over
/// a from-scratch fuse of the mutated registry.
#[test]
fn company_append_keeps_on_demand_provenance_in_step() {
    let mut shifted_in_untouched_shards = 0;
    for (name, mut registry) in registries() {
        let legal = *registry
            .influences()
            .iter()
            .find(|r| r.is_legal_person)
            .expect("every company has a legal person");
        let mut engine = DeltaEngine::new(registry.clone()).unwrap();
        let before: Vec<Provenance> = engine
            .detection()
            .groups
            .iter()
            .map(|g| Provenance::assemble(engine.tpiin(), g))
            .collect();

        let batch = MutationBatch::new(vec![Mutation::AddCompany {
            name: "appended".to_string(),
            legal_person: legal.person,
            kind: legal.kind,
        }]);
        let outcome = engine.apply(&batch).unwrap();
        assert_eq!(outcome.path, DeltaPath::CompanyAppend, "{name}");

        batch.apply_to_registry(&mut registry).unwrap();
        let (fresh, _) = fuse(&registry).unwrap();
        let want = detect(&fresh);
        assert_identical(
            &name,
            "company append",
            (engine.tpiin(), engine.detection()),
            (&fresh, &want),
        );

        // A company that trades with nobody adds no group, so the list
        // still lines up with `before`.
        assert_eq!(want.groups.len(), before.len(), "{name}");
        let appended = *fresh.company_node.last().unwrap();
        let touched = segment_tpiin(&fresh)
            .iter()
            .find(|sub| sub.global.contains(&appended))
            .expect("every node is in one shard")
            .index;
        shifted_in_untouched_shards += want
            .groups
            .iter()
            .zip(&before)
            .filter(|(g, old)| {
                g.subtpiin != touched && Provenance::assemble(engine.tpiin(), *g) != **old
            })
            .count();
    }
    assert!(
        shifted_in_untouched_shards > 0,
        "no group outside the touched shard cites an investment record: shift unexercised"
    );
}

/// Every registry mutation other than an append re-fuses from scratch,
/// and node ids may move with it; the shard cache is keyed by each
/// shard's local structure, so every shard the batch left alone still
/// replays from it.  Each batch must re-mine or replay exactly the live
/// shards with a trading arc, and on a province (many shards, one
/// touched) replay some.
#[test]
fn every_refuse_replays_surviving_shards_from_the_cache() {
    for (name, mut registry) in registries() {
        let mut engine = DeltaEngine::new(registry.clone()).unwrap();
        let (np, nc) = (
            registry.person_count() as u32,
            registry.company_count() as u32,
        );
        let batches = [
            (
                "new person and company",
                vec![
                    Mutation::AddPerson {
                        name: "refused-P".to_string(),
                        roles: RoleSet::of(&[Role::Ceo]),
                    },
                    Mutation::AddCompany {
                        name: "refused-C".to_string(),
                        legal_person: PersonId(np),
                        kind: InfluenceKind::CeoOf,
                    },
                ],
            ),
            (
                "investment",
                vec![Mutation::AddInvestment(InvestmentRecord {
                    investor: CompanyId(2),
                    investee: CompanyId(3),
                    share: 0.4,
                })],
            ),
            (
                "company removal",
                vec![Mutation::RemoveCompany {
                    company: CompanyId(nc / 2),
                }],
            ),
        ];
        for (what, mutations) in batches {
            let batch = MutationBatch::new(mutations);
            let outcome = engine.apply(&batch).unwrap();
            assert_eq!(outcome.path, DeltaPath::FullRebuild, "{name}: {what}");

            batch.apply_to_registry(&mut registry).unwrap();
            let (fresh, _) = fuse(&registry).unwrap();
            assert_identical(
                &name,
                what,
                (engine.tpiin(), engine.detection()),
                (&fresh, &detect(&fresh)),
            );
            let minable = segment_tpiin(&fresh)
                .iter()
                .filter(|sub| sub.trading_arc_count > 0)
                .count();
            assert_eq!(
                outcome.shards_remined + outcome.cache_hits,
                minable,
                "{name}: {what}: every shard with a trading arc is re-mined or replayed"
            );
            if name != "fig7" {
                assert!(
                    outcome.cache_hits > 0,
                    "{name}: {what}: no shard replayed ({} re-mined)",
                    outcome.shards_remined
                );
            }
        }
        assert_eq!(engine.stats().full_rebuilds, 3, "{name}");
    }
}

/// What the engine keeps is bounded by the network it maintains, not by
/// how long it has been running: replaying a mutation feed never leaves
/// more memoised shard outcomes than there are live shards with a
/// trading arc to mine, and a snapshot-backed engine — which can only
/// splice trading appends into shards it has already mined — memoises
/// nothing at all.
#[test]
fn engine_state_is_bounded_by_the_live_network() {
    let stream = generate_mutation_stream(&MutationStreamConfig {
        scale: 0.05,
        batches: 24,
        records_per_batch: 16,
        ..MutationStreamConfig::default()
    });

    let mut registry = stream.base.clone();
    let mut engine = DeltaEngine::new(registry.clone()).unwrap();
    let mut peak_cached = 0;
    for (i, batch) in stream.batches.iter().enumerate() {
        engine.apply(batch).unwrap();
        batch.apply_to_registry(&mut registry).unwrap();
        let (fresh, _) = fuse(&registry).unwrap();
        let name = format!("batch {i}");
        assert_identical(
            &name,
            "registry-backed replay",
            (engine.tpiin(), engine.detection()),
            (&fresh, &detect(&fresh)),
        );
        let minable = segment_tpiin(&fresh)
            .iter()
            .filter(|sub| sub.trading_arc_count > 0)
            .count();
        assert!(
            engine.cached_shards() <= minable,
            "{name}: {} cached outcomes for {minable} live shards with trading arcs",
            engine.cached_shards()
        );
        peak_cached = peak_cached.max(engine.cached_shards());
    }
    assert!(peak_cached > 0, "the feed never gave the cache work");

    // The snapshot has the base's companies only, so the trading-only
    // batches keep just the records between those.
    let known = stream.base.company_count() as u32;
    let (base, _) = fuse(&stream.base).unwrap();
    let mut engine = DeltaEngine::from_tpiin(base);
    assert_eq!(engine.cached_shards(), 0);
    let mut appended = 0;
    for batch in stream.batches.iter().filter(|b| b.is_trading_only()) {
        let records: Vec<TradingRecord> = (batch.mutations.iter())
            .filter_map(|m| match m {
                Mutation::AddTrading(r) if r.seller.0 < known && r.buyer.0 < known => Some(*r),
                _ => None,
            })
            .collect();
        let outcome = engine.ingest(&records).unwrap();
        assert_eq!(outcome.path, DeltaPath::TradingAppend);
        assert_eq!(outcome.cache_hits, 0);
        assert_eq!(
            engine.cached_shards(),
            0,
            "snapshot-backed: nothing memoised"
        );
        appended += outcome.arcs_patched;
    }
    assert!(appended > 0, "the feed appended no trading arc");
    assert_counts_and_arcs(
        "trading-only replay",
        "snapshot-backed engine",
        engine.detection(),
        &detect(engine.tpiin()),
    );
}
