//! The delta engine's correctness bar, property-tested: after **every**
//! batch of a random mutation sequence, the incrementally maintained
//! TPIIN, groups and provenance are bit-identical to a from-scratch
//! [`tpiin_fusion::fuse`] + [`tpiin_core::detect`] over a shadow
//! registry replaying the same mutations.  Rejected batches must leave
//! the engine untouched.  Hand-built trading batches pin the arc-local
//! merge of a trading append case by case.

use proptest::prelude::*;
use std::collections::HashSet;
use tpiin_core::{DetectionResult, Detector, DetectorConfig, GroupKind, GroupRef, Provenance};
use tpiin_delta::{ApplyOutcome, DeltaEngine};
use tpiin_fusion::{fuse, Tpiin, INFLUENCE_LANE, TRADING_LANE};
use tpiin_model::{
    CompanyId, InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, Mutation,
    MutationBatch, PersonId, Role, RoleSet, SourceRegistry, TradingRecord,
};

/// A randomly generated but always-valid base registry (same shape as
/// tpiin-core's differential suite, scaled down because every batch
/// boundary pays a full fuse + detect).
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
    (2usize..5, 2usize..8).prop_flat_map(|(np, nc)| {
        (
            proptest::collection::vec(0..np, nc),
            proptest::collection::vec((0..np, 0..nc), 0..6),
            proptest::collection::vec((0..np, 0..np), 0..3),
            proptest::collection::vec((0..nc, 0..nc), 0..8),
            proptest::collection::vec((0..nc, 0..nc), 0..8),
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

/// Abstract mutation: raw indices are interpreted against the registry
/// state at batch start, so a spec stays meaningful while earlier
/// batches grow and shrink the entity space.
#[derive(Debug, Clone)]
enum Spec {
    AddPerson,
    AddCompany(usize),
    AddInterdependence(usize, usize),
    AddInfluence(usize, usize),
    RemoveInfluence(usize, usize),
    AddInvestment(usize, usize),
    RemoveInvestment(usize, usize),
    AddTrading(usize, usize),
    RemoveTrading(usize, usize),
    SetTaxRate(usize),
    RemoveCompany(usize),
    RemovePerson(usize),
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    // The vendored prop_oneof! has no weight syntax; repeated entries
    // bias the draw towards the structurally interesting mutations.
    let idx = 0..32usize;
    prop_oneof![
        Just(Spec::AddPerson),
        idx.clone().prop_map(Spec::AddCompany),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Spec::AddInterdependence(a, b)),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Spec::AddInfluence(a, b)),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Spec::RemoveInfluence(a, b)),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Spec::AddInvestment(a, b)),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Spec::AddInvestment(a, b)),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Spec::RemoveInvestment(a, b)),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Spec::AddTrading(a, b)),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Spec::AddTrading(a, b)),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Spec::RemoveTrading(a, b)),
        idx.clone().prop_map(Spec::SetTaxRate),
        idx.clone().prop_map(Spec::RemoveCompany),
        idx.prop_map(Spec::RemovePerson),
    ]
}

/// Interprets a spec against the current registry; `None` when the
/// entity space is too small to name distinct endpoints.
fn realize(spec: &Spec, r: &SourceRegistry) -> Option<Mutation> {
    let np = r.person_count();
    let nc = r.company_count();
    let person = |i: usize| PersonId((i % np) as u32);
    let company = |i: usize| CompanyId((i % nc) as u32);
    let distinct = |i: usize, j: usize, n: usize| {
        let a = i % n;
        let mut b = j % n;
        if a == b {
            b = (b + 1) % n;
        }
        (a as u32, b as u32)
    };
    Some(match spec {
        Spec::AddPerson => Mutation::AddPerson {
            name: format!("P{np}"),
            roles: RoleSet::of(&[Role::Ceo, Role::Director]),
        },
        Spec::AddCompany(lp) if np > 0 => Mutation::AddCompany {
            name: format!("C{nc}"),
            legal_person: person(*lp),
            kind: InfluenceKind::CeoOf,
        },
        Spec::AddInterdependence(a, b) if np > 1 => {
            let (a, b) = distinct(*a, *b, np);
            Mutation::AddInterdependence {
                a: PersonId(a),
                b: PersonId(b),
                kind: InterdependenceKind::Interlocking,
            }
        }
        Spec::AddInfluence(p, c) if np > 0 && nc > 0 => Mutation::AddInfluence(InfluenceRecord {
            person: person(*p),
            company: company(*c),
            kind: InfluenceKind::DirectorOf,
            is_legal_person: false,
        }),
        // May remove a legal-person arc: the batch must then be rejected
        // wholesale, which is exactly what we want to exercise.
        Spec::RemoveInfluence(p, c) if np > 0 && nc > 0 => Mutation::RemoveInfluence {
            person: person(*p),
            company: company(*c),
        },
        Spec::AddInvestment(a, b) if nc > 1 => {
            let (a, b) = distinct(*a, *b, nc);
            Mutation::AddInvestment(InvestmentRecord {
                investor: CompanyId(a),
                investee: CompanyId(b),
                share: 0.5,
            })
        }
        Spec::RemoveInvestment(a, b) if nc > 0 => Mutation::RemoveInvestment {
            investor: company(*a),
            investee: company(*b),
        },
        Spec::AddTrading(a, b) if nc > 1 => {
            let (a, b) = distinct(*a, *b, nc);
            Mutation::AddTrading(TradingRecord {
                seller: CompanyId(a),
                buyer: CompanyId(b),
                volume: 2.0,
            })
        }
        Spec::RemoveTrading(a, b) if nc > 0 => Mutation::RemoveTrading {
            seller: company(*a),
            buyer: company(*b),
        },
        Spec::SetTaxRate(c) if nc > 0 => Mutation::SetTaxRate {
            company: company(*c),
            rate: 0.17,
        },
        Spec::RemoveCompany(c) if nc > 0 => Mutation::RemoveCompany {
            company: company(*c),
        },
        Spec::RemovePerson(p) if np > 0 => Mutation::RemovePerson { person: person(*p) },
        _ => return None,
    })
}

fn assert_identical(a: &Tpiin, b: &Tpiin) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.edge_list(), b.edge_list());
    prop_assert_eq!(&a.person_node, &b.person_node);
    prop_assert_eq!(&a.company_node, &b.company_node);
    prop_assert_eq!(&a.arc_sources, &b.arc_sources);
    prop_assert_eq!(&a.intra_syndicate_trades, &b.intra_syndicate_trades);
    prop_assert_eq!(a.influence_arc_count, b.influence_arc_count);
    prop_assert_eq!(a.trading_arc_count, b.trading_arc_count);
    let la: Vec<&str> = a.graph.nodes().map(|(_, n)| n.label()).collect();
    let lb: Vec<&str> = b.graph.nodes().map(|(_, n)| n.label()).collect();
    prop_assert_eq!(la, lb);
    // The CSR is the only adjacency, and what the engine serves from.
    let (ca, cb) = (a.csr(), b.csr());
    prop_assert_eq!(ca.node_count(), cb.node_count());
    for lane in [TRADING_LANE, INFLUENCE_LANE] {
        prop_assert_eq!(ca.lane_out_offsets(lane), cb.lane_out_offsets(lane));
        prop_assert_eq!(ca.lane_out_targets(lane), cb.lane_out_targets(lane));
        prop_assert_eq!(ca.lane_out_edge_ids(lane), cb.lane_out_edge_ids(lane));
        prop_assert_eq!(ca.lane_in_offsets(lane), cb.lane_in_offsets(lane));
        prop_assert_eq!(ca.lane_in_sources(lane), cb.lane_in_sources(lane));
    }
    Ok(())
}

/// The engine against a from-scratch `fuse` + `detect` (mining with
/// `config`) of `registry`: network, groups in order, provenance,
/// counters, suspicious arcs and per-shard statistics.  Returns the
/// from-scratch pair.
fn check_engine(
    engine: &DeltaEngine,
    registry: &SourceRegistry,
    config: DetectorConfig,
) -> Result<(Tpiin, DetectionResult), TestCaseError> {
    let (expected_tpiin, _) = fuse(registry).expect("registry fuses");
    let expected = Detector::new(config).detect(&expected_tpiin);
    assert_identical(engine.tpiin(), &expected_tpiin)?;
    let got = engine.detection();
    prop_assert_eq!(&got.groups, &expected.groups);
    for g in &expected.groups {
        let chain = Provenance::assemble(engine.tpiin(), g);
        prop_assert_eq!(&chain, &Provenance::assemble(&expected_tpiin, g));
        prop_assert!(chain.audit(engine.tpiin()).is_ok());
        prop_assert!(chain.audit(&expected_tpiin).is_ok());
    }
    prop_assert_eq!(
        &got.suspicious_trading_arcs,
        &expected.suspicious_trading_arcs
    );
    prop_assert_eq!(got.complex_group_count, expected.complex_group_count);
    prop_assert_eq!(got.simple_group_count, expected.simple_group_count);
    prop_assert_eq!(got.total_trading_arcs, expected.total_trading_arcs);
    prop_assert_eq!(got.intra_syndicate_trades, expected.intra_syndicate_trades);
    prop_assert_eq!(&got.per_subtpiin, &expected.per_subtpiin);
    prop_assert_eq!(got.overflowed, expected.overflowed);
    Ok((expected_tpiin, expected))
}

/// Label-space identity of a group: kind plus the labels of the trading
/// arc and both trails.  Unlike node ids it survives re-contraction, so
/// it can name "the same group" on either side of any batch.
fn group_label_key(tpiin: &Tpiin, g: GroupRef<'_>) -> (bool, Vec<String>) {
    let labels = [g.trading_arc.0, g.trading_arc.1]
        .iter()
        .chain(&g.trail_with_trade)
        .map(|&v| tpiin.label(v).to_string())
        .chain(std::iter::once("#".to_string()))
        .chain(g.trail_plain.iter().map(|&v| tpiin.label(v).to_string()))
        .collect();
    (g.kind == GroupKind::Matched, labels)
}

/// Sorted label keys of `detection`'s groups and suspicious arcs.
type LabelKeys = (Vec<(bool, Vec<String>)>, Vec<(String, String)>);

fn label_keys(tpiin: &Tpiin, detection: &DetectionResult) -> LabelKeys {
    let mut groups: Vec<_> = detection
        .groups
        .iter()
        .map(|g| group_label_key(tpiin, g))
        .collect();
    groups.sort();
    let mut arcs: Vec<_> = detection
        .suspicious_trading_arcs
        .iter()
        .map(|&(s, b)| (tpiin.label(s).to_string(), tpiin.label(b).to_string()))
        .collect();
    arcs.sort();
    (groups, arcs)
}

/// The keys of `after` (in order) that `before` does not contain.
fn fresh<K: Clone + Eq + std::hash::Hash>(after: &[K], before: &[K]) -> Vec<K> {
    let before: HashSet<&K> = before.iter().collect();
    after
        .iter()
        .filter(|k| !before.contains(k))
        .cloned()
        .collect()
}

/// Cases default to 48 (CI-friendly); `DELTA_DIFF_CASES` cranks the
/// count up for deeper soak runs against the splice paths.
fn case_count() -> u32 {
    std::env::var("DELTA_DIFF_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(case_count()))]

    #[test]
    fn delta_engine_matches_full_refuse_at_every_step(
        raw in arb_registry(),
        script in proptest::collection::vec(proptest::collection::vec(arb_spec(), 1..4), 1..6),
    ) {
        let mut shadow = build(&raw);
        let mut engine = DeltaEngine::new(shadow.clone()).expect("valid base registry");
        let mut before = label_keys(engine.tpiin(), engine.detection());
        for specs in &script {
            let mutations: Vec<Mutation> =
                specs.iter().filter_map(|s| realize(s, &shadow)).collect();
            if mutations.is_empty() {
                continue;
            }
            let batch = MutationBatch::new(mutations);
            let applied = engine.apply(&batch).ok();
            if applied.is_some() {
                let mut next = shadow.clone();
                batch
                    .apply_to_registry(&mut next)
                    .expect("engine accepted the batch");
                prop_assert!(next.validate().is_ok(), "engine accepted an invalid registry");
                shadow = next;
            }
            // Accepted or rejected, the engine must now equal a
            // from-scratch pipeline over the shadow registry.
            let (expected_tpiin, expected) =
                check_engine(&engine, &shadow, DetectorConfig::default())?;

            // What the batch reported as new is exactly what a
            // from-scratch detection has now and did not have before,
            // judged in label space (ids may have been renumbered).
            let after = label_keys(&expected_tpiin, &expected);
            if let Some(outcome) = applied {
                let mut new_groups: Vec<_> = outcome
                    .new_groups
                    .iter()
                    .map(|g| group_label_key(&expected_tpiin, g.view()))
                    .collect();
                new_groups.sort();
                prop_assert_eq!(new_groups, fresh(&after.0, &before.0));
                let mut new_arcs: Vec<_> = outcome
                    .new_suspicious_arcs
                    .iter()
                    .map(|&(s, b)| {
                        let label = |v| expected_tpiin.label(v).to_string();
                        (label(s), label(b))
                    })
                    .collect();
                new_arcs.sort();
                prop_assert_eq!(new_arcs, fresh(&after.1, &before.1));
            }
            before = after;
        }
    }
}

/// A registry for the hand-built trading batches, with three antecedent
/// components:
/// - A: roots P0 and P1 over C0–C7.  P0 is the legal person of C0, C1,
///   C2 and C6, P1 of C3, C4, C5 and C7, and P1 also directs C1.  C1
///   invests in C2, C2 in C4, and C6 and C7 invest in each other (one
///   syndicate node).  It already trades C1 -> C4 and C3 -> C2.
/// - B: P2 over C8 and C9, no trade.
/// - L: P3 over the lattice D0–D5 (29 trails from P3), plus P4
///   directing D5 (2 trails).  It already trades D1 -> D2.
fn append_registry() -> SourceRegistry {
    let mut r = SourceRegistry::new();
    let person = |r: &mut SourceRegistry, name: &str| r.add_person(name, RoleSet::of(&[Role::Ceo]));
    let p: Vec<PersonId> = (0..5).map(|i| person(&mut r, &format!("P{i}"))).collect();
    let names = ["C0", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"];
    let lattice = ["D0", "D1", "D2", "D3", "D4", "D5"];
    let legal = [0, 0, 0, 1, 1, 1, 0, 1, 2, 2, 3, 3, 3, 3, 3, 3];
    for (i, name) in names.iter().chain(&lattice).enumerate() {
        let company = r.add_company(*name);
        r.add_influence(InfluenceRecord {
            person: p[legal[i]],
            company,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
    }
    for (person, company) in [(1, 1), (4, 15)] {
        r.add_influence(InfluenceRecord {
            person: p[person],
            company: CompanyId(company),
            kind: InfluenceKind::DirectorOf,
            is_legal_person: false,
        });
    }
    let investments = [
        (1, 2),
        (2, 4),
        (6, 7),
        (7, 6),
        (10, 11),
        (10, 12),
        (11, 13),
        (12, 13),
        (13, 14),
        (13, 15),
        (14, 15),
    ];
    for (investor, investee) in investments {
        r.add_investment(InvestmentRecord {
            investor: CompanyId(investor),
            investee: CompanyId(investee),
            share: 0.5,
        });
    }
    for (seller, buyer) in [(1, 4), (3, 2), (11, 12)] {
        r.add_trading(trade(seller, buyer));
    }
    r
}

fn trade(seller: u32, buyer: u32) -> TradingRecord {
    TradingRecord {
        seller: CompanyId(seller),
        buyer: CompanyId(buyer),
        volume: 1.0,
    }
}

/// Hand-built trading batches, each checked against a from-scratch
/// `fuse` + `detect`: several arcs from one seller, sellers before,
/// inside and after the shard's existing rows, a duplicate within the
/// batch, a cross-shard arc, an intra-syndicate trade, an arc closing a
/// circle both roots reach, and an arc in a shard whose root overflows
/// under a small `max_tree_nodes`.  Run unbounded, every batch but the
/// overflow one mines only its own arcs; bounded, the lattice shard
/// falls back to a whole re-mine.
#[test]
fn hand_built_trading_appends_merge_in_place() {
    let batches: [&[(u32, u32)]; 4] = [
        // C1 already sells (to C4): three more arcs from it, one twice;
        // sellers C0 before, C2 between and C5 after the existing rows.
        &[(1, 0), (1, 5), (0, 2), (1, 3), (2, 3), (5, 0), (1, 0)],
        // A cross-shard arc, an intra-syndicate trade, and an arc that
        // two roots' trails meet.
        &[(0, 8), (6, 7), (4, 3)],
        // Closes the circle C1 -> C2 -> C1, which P0 and P1 both reach.
        &[(2, 1)],
        // Behind P3, whose 29 trails overflow the bounded run.
        &[(14, 12), (15, 10)],
    ];
    for (bound, remined) in [(usize::MAX, [0, 0, 0, 0]), (16, [0, 0, 0, 1])] {
        let config = DetectorConfig {
            max_tree_nodes: bound,
            ..DetectorConfig::default()
        };
        let mut shadow = append_registry();
        let mut engine = DeltaEngine::with_config(shadow.clone(), config).unwrap();
        check_engine(&engine, &shadow, config).unwrap();
        let mut groups = engine.detection().group_count();
        for (i, records) in batches.iter().enumerate() {
            let records: Vec<TradingRecord> = records.iter().map(|&(s, b)| trade(s, b)).collect();
            // Every other batch, a served epoch still holds the result,
            // so the batch works on a copy and must leave this one be.
            let served = (i % 2 == 0)
                .then(|| (engine.shared_detection(), engine.detection().groups.clone()));
            let outcome: ApplyOutcome = engine.ingest(&records).unwrap();
            if let Some((held, groups)) = served {
                assert_eq!(
                    held.groups, groups,
                    "bound {bound}, batch {i}: the served epoch"
                );
            }
            for &r in &records {
                shadow.add_trading(r);
            }
            let what = format!("bound {bound}, batch {i}");
            let (_, expected) =
                check_engine(&engine, &shadow, config).unwrap_or_else(|e| panic!("{what}: {e:?}"));
            assert_eq!(
                outcome.shards_remined, remined[i],
                "{what}: whole-shard mines"
            );
            assert_eq!(outcome.cache_hits, 0, "{what}: replays");
            assert_eq!(
                outcome.new_groups.len(),
                expected.group_count() - groups,
                "{what}: new groups"
            );
            groups = expected.group_count();
        }
        assert_eq!(engine.detection().overflowed, bound == 16);
    }
}
