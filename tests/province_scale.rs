//! Province-scale integration tests: the synthetic network of Section 5.1
//! fused end-to-end, detector vs baseline at scale, Table 1 invariants,
//! and exact counts pinned on fixed fixtures.

use tpiin::datagen::{
    add_random_trading, fig7_registry, generate_mutation_stream, generate_nation_with,
    generate_province, MutationStreamConfig, NationConfig, ProvinceConfig,
};
use tpiin::delta::DeltaEngine;
use tpiin::detect::{
    assemble_detection, detect, mine_shard, segment_tpiin, Detector, DetectorConfig, GroupTable,
    MineContext, MinerRegistry, CIRCULAR_MINER, RULES_MINER,
};
use tpiin::fusion::fuse;

#[test]
fn full_province_matches_paper_node_counts() {
    let config = ProvinceConfig::default();
    let registry = generate_province(&config);
    assert_eq!(
        registry.person_count(),
        2126,
        "776 directors + 1350 legal persons"
    );
    assert_eq!(registry.company_count(), 2452);
    let (tpiin, report) = fuse(&registry).unwrap();
    assert_eq!(
        report.persons + report.companies,
        4578,
        "Fig. 16's node count"
    );
    // Antecedent in the same range as the paper (~6 300 arcs implied by
    // Table 1's average degree column).
    assert!(
        (5_000..9_000).contains(&tpiin.influence_arc_count),
        "antecedent arcs {}",
        tpiin.influence_arc_count
    );
    // No trading yet.
    assert_eq!(tpiin.trading_arc_count, 0);
}

#[test]
fn antecedent_is_acyclic_and_rooted_at_persons() {
    let registry = generate_province(&ProvinceConfig::default());
    let (tpiin, _) = fuse(&registry).unwrap();
    // fuse() itself verifies acyclicity; segmentation roots must be
    // person nodes.
    for sub in segment_tpiin(&tpiin) {
        for root in sub.roots() {
            assert!(sub.is_person[root as usize]);
        }
    }
}

#[test]
fn scaled_province_baseline_agreement() {
    // A quarter-scale province with trading: the detector and the
    // independent baseline must produce identical group sets.
    let config = ProvinceConfig {
        seed: 99,
        ..ProvinceConfig::scaled(0.25)
    };
    let mut registry = generate_province(&config);
    add_random_trading(&mut registry, 0.004, 1234);
    let (tpiin, _) = fuse(&registry).unwrap();
    let proposed = detect(&tpiin);
    let baseline = tpiin::detect::baseline::detect_baseline(&tpiin, 10_000_000);
    assert!(!baseline.overflowed);
    assert!(
        proposed.group_count() > 0,
        "a quarter province at p=0.004 has groups"
    );
    let mut a: Vec<_> = proposed.groups.iter().map(|g| g.key()).collect();
    let mut b: Vec<_> = baseline.groups.iter().map(|g| g.key()).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert_eq!(
        proposed.suspicious_trading_arcs,
        baseline.suspicious_trading_arcs
    );
}

#[test]
fn suspicious_percentage_is_flat_across_probabilities() {
    // Table 1's key observation: the suspicious share stays ~5 % while
    // total trading arcs grow 50x.
    let config = ProvinceConfig::default();
    let base = generate_province(&config);
    let mut percentages = Vec::new();
    for (i, p) in [0.002, 0.01, 0.05].into_iter().enumerate() {
        let mut registry = base.clone();
        add_random_trading(&mut registry, p, 77 + i as u64);
        let (tpiin, _) = fuse(&registry).unwrap();
        let result = Detector::new(DetectorConfig {
            collect_groups: false,
            ..Default::default()
        })
        .detect(&tpiin);
        percentages.push(result.suspicious_percentage());
    }
    for pct in &percentages {
        assert!(
            (4.5..6.0).contains(pct),
            "suspicious percentage {pct} outside the paper's band: {percentages:?}"
        );
    }
    let spread = percentages.iter().cloned().fold(f64::MIN, f64::max)
        - percentages.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 1.0, "percentage should be flat, spread {spread}");
}

#[test]
fn group_counts_grow_linearly_with_probability() {
    let config = ProvinceConfig::default();
    let base = generate_province(&config);
    let mut counts = Vec::new();
    for p in [0.002, 0.004, 0.008] {
        let mut registry = base.clone();
        add_random_trading(&mut registry, p, 4242);
        let (tpiin, _) = fuse(&registry).unwrap();
        let result = Detector::new(DetectorConfig {
            collect_groups: false,
            ..Default::default()
        })
        .detect(&tpiin);
        counts.push(result.group_count() as f64);
    }
    // Doubling p roughly doubles group counts (Table 1's trend).
    let r1 = counts[1] / counts[0];
    let r2 = counts[2] / counts[1];
    assert!((1.5..3.0).contains(&r1), "ratios {counts:?}");
    assert!((1.5..3.0).contains(&r2), "ratios {counts:?}");
}

#[test]
fn per_shard_detection_matches_detect_at_scale() {
    let config = ProvinceConfig::default();
    let mut registry = generate_province(&config);
    add_random_trading(&mut registry, 0.01, 5);
    let (tpiin, _) = fuse(&registry).unwrap();
    let detected = detect(&tpiin);
    // A fresh arena per shard, as the delta engine mines, against the
    // detector's one reused scratch.
    let subs = segment_tpiin(&tpiin);
    let outcomes: Vec<_> = subs
        .iter()
        .map(|sub| mine_shard(sub, &DetectorConfig::default()))
        .collect();
    let per_shard = assemble_detection(&tpiin, &subs, &outcomes);
    assert_eq!(detected.complex_group_count, per_shard.complex_group_count);
    assert_eq!(detected.simple_group_count, per_shard.simple_group_count);
    assert_eq!(
        detected.suspicious_trading_arcs,
        per_shard.suspicious_trading_arcs
    );
    let keys = |groups: &GroupTable| -> Vec<_> { groups.iter().map(|g| g.key()).collect() };
    assert_eq!(
        keys(&detected.groups),
        keys(&per_shard.groups),
        "same groups in the same order"
    );
}

#[test]
fn segmentation_covers_every_node_exactly_once() {
    let registry = generate_province(&ProvinceConfig::default());
    let (tpiin, _) = fuse(&registry).unwrap();
    let subs = segment_tpiin(&tpiin);
    let mut seen = vec![false; tpiin.node_count()];
    for sub in &subs {
        for &g in &sub.global {
            assert!(!seen[g.index()], "node {g:?} in two subTPIINs");
            seen[g.index()] = true;
        }
    }
    assert!(seen.iter().all(|&s| s));
    assert!(
        subs.len() > 10,
        "the province has many conglomerate components"
    );
}

#[test]
fn edge_list_export_round_trips_arc_counts() {
    let config = ProvinceConfig::scaled(0.1);
    let mut registry = generate_province(&config);
    add_random_trading(&mut registry, 0.01, 9);
    let (tpiin, _) = fuse(&registry).unwrap();
    let listing = tpiin.edge_list();
    let influence_rows = listing.lines().filter(|l| l.ends_with("\t1")).count();
    let trading_rows = listing.lines().filter(|l| l.ends_with("\t0")).count();
    assert_eq!(influence_rows, tpiin.influence_arc_count);
    assert_eq!(trading_rows, tpiin.trading_arc_count);
}

/// Order-sensitive FNV-1a over every group's key and `simple` flag, in
/// result order: unlike a sum of per-group hashes it sees a reorder,
/// which `/groups` pagination and group ids would expose.
fn groups_order_hash(groups: &GroupTable) -> u64 {
    fn eat(h: &mut u64, x: usize) {
        for b in (x as u64).to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    for g in groups {
        eat(&mut h, g.trading_arc.0.index());
        eat(&mut h, g.trading_arc.1.index());
        for trail in [&g.trail_with_trade, &g.trail_plain] {
            eat(&mut h, trail.len());
            for v in trail {
                eat(&mut h, v.index());
            }
        }
        eat(&mut h, usize::from(g.simple));
    }
    h
}

/// Exact counts on four fixed fixtures and one replayed feed, and the
/// order of each fixture's rules and circular groups.  They are pure
/// functions of the generators, the fusion and the miners, so any drift
/// is a behaviour change, however fast the new code is.
#[test]
fn fixture_counts_are_pinned() {
    /// [`groups_order_hash`] of an empty result: the FNV-1a offset basis.
    const NO_GROUPS: u64 = 0xcbf2_9ce4_8422_2325;
    const SEED: u64 = 20170417;
    let base = ProvinceConfig {
        seed: SEED,
        ..ProvinceConfig::scaled(0.1)
    };
    let mut province = generate_province(&base);
    add_random_trading(&mut province, 0.004, SEED ^ 0x7ead);
    // The nation's provinces are scaled like the province above; planted
    // rings and control chains are capped at half a province's companies.
    let nation_scaled = NationConfig::scaled(0.1);
    let nation = generate_nation_with(&NationConfig {
        planted_rings: nation_scaled.planted_rings.min(base.companies / 2),
        control_chains: nation_scaled.control_chains.min(base.companies / 2),
        base,
        seed: SEED,
        ..nation_scaled
    });

    // The dense province of the benchmark's smoke size: rings enough to
    // pin the circular miner's order on more than one ring.
    let mut dense = generate_province(&ProvinceConfig {
        seed: SEED,
        ..ProvinceConfig::scaled(0.05)
    });
    add_random_trading(&mut dense, 0.02, SEED ^ 0x7ead);

    // (name, registry, [nodes, influence arcs, trading arcs],
    //  subTPIINs, rules groups, circular groups,
    //  [rules group order hash, circular group order hash])
    // The rules hashes are those of `rules_kernel_oracle`'s reference
    // rows stably sorted by trading-arc CSR position within each shard.
    let fixtures = [
        (
            "fig7",
            fig7_registry(),
            [15, 14, 5],
            1,
            3,
            0,
            [0x1e58_49cf_fe55_61eb, NO_GROUPS],
        ),
        (
            "province-0.1",
            province,
            [431, 655, 252],
            4,
            863,
            0,
            [0x73db_08e8_5cc6_8e0b, NO_GROUPS],
        ),
        (
            "nation-0.1",
            nation,
            [1724, 2577, 1485],
            17,
            1412,
            10,
            [0x4327_63af_07d1_7f3e, 0x750f_34ec_f15f_6f86],
        ),
        (
            "province-0.05-dense",
            dense,
            [216, 318, 308],
            5,
            367,
            71,
            [0x3591_eb7a_28c3_69c5, 0x7a27_5dc6_a0aa_fe62],
        ),
    ];
    let ctx = MineContext::default();
    let miners = MinerRegistry::with_defaults();
    for (name, registry, arcs, subtpiins, rules, circular, order) in fixtures {
        let (tpiin, report) = fuse(&registry).unwrap();
        assert_eq!(
            [
                report.tpiin_nodes,
                report.influence_arcs,
                report.trading_arcs
            ],
            arcs,
            "{name}: fused shape"
        );
        assert_eq!(segment_tpiin(&tpiin).len(), subtpiins, "{name}: subTPIINs");
        for ((miner, want), order) in [(RULES_MINER, rules), (CIRCULAR_MINER, circular)]
            .into_iter()
            .zip(order)
        {
            let result = miners.get(miner).unwrap().mine(&tpiin, &ctx);
            assert_eq!(result.group_count(), want, "{name}: {miner} groups");
            let hash = groups_order_hash(&result.groups);
            assert_eq!(hash, order, "{name}: {miner} group order");
        }
    }

    let config = MutationStreamConfig {
        scale: 0.1,
        batches: 12,
        ..MutationStreamConfig::default()
    };
    assert_eq!((config.records_per_batch, config.planted_groups), (64, 3));
    let stream = generate_mutation_stream(&config);
    assert_eq!(stream.planted_at.len(), 3, "planted rings");
    let mut engine = DeltaEngine::new(stream.base.clone()).unwrap();
    for batch in &stream.batches {
        engine.apply(batch).unwrap();
    }
    assert_eq!(
        engine.detection().group_count(),
        954,
        "feed groups after 12 batches"
    );
}
