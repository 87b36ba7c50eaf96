//! Differential and recall tests for the `GroupMiner` strategy API.
//!
//! * The trait-ported Rule 1/Rule 2 miner must be **bit-identical** to
//!   the pre-refactor `Detector` entry point on fig7 and the province
//!   workload, and to the same shards mined one by one with
//!   `mine_shard` and assembled (the acceptance bar of the API redesign).
//! * The two sibling strategies must find **100 %** of the patterns the
//!   datagen scenarios plant, and **zero** groups on the pattern-free
//!   controls.

use tpiin_core::{
    assemble_detection, mine_shard, segment_tpiin, BaselineMiner, CircularTradingMiner,
    DetectionResult, Detector, DetectorConfig, GroupMiner, MineContext, MinerRegistry, Provenance,
    Rule12Miner, WindowedMiner,
};
use tpiin_datagen::{
    add_random_trading, circular_case_registry, circular_control_registry, fig7_registry,
    generate_province, windowed_case_registry, ProvinceConfig, CIRCULAR_RING_LEN, WINDOWED_EARLY,
    WINDOWED_LATE, WINDOWED_QUIET,
};
use tpiin_fusion::{fuse, Tpiin};
use tpiin_model::SourceRegistry;

fn fused(registry: &SourceRegistry) -> Tpiin {
    let (tpiin, _) = fuse(registry).expect("registry fuses");
    tpiin
}

fn province_tpiin() -> Tpiin {
    let mut registry = generate_province(&ProvinceConfig::scaled(0.25));
    add_random_trading(&mut registry, 0.004, 20170417);
    fused(&registry)
}

/// The detector's result, and the same shards mined each in a fresh
/// arena with `mine_shard` and assembled — the delta engine's route.
fn arms(tpiin: &Tpiin) -> [DetectionResult; 2] {
    let config = DetectorConfig::default();
    let subs = segment_tpiin(tpiin);
    let outcomes: Vec<_> = subs.iter().map(|sub| mine_shard(sub, &config)).collect();
    [
        Detector::new(config).detect(tpiin),
        assemble_detection(tpiin, &subs, &outcomes),
    ]
}

#[test]
fn rules_miner_is_bit_identical_to_detector_on_fig7_and_province() {
    for tpiin in [fused(&fig7_registry()), province_tpiin()] {
        let mined = Rule12Miner.mine(&tpiin, &MineContext::default());
        for direct in arms(&tpiin) {
            assert_eq!(direct.groups, mined.groups, "group vectors must match");
            assert_eq!(
                direct.suspicious_trading_arcs,
                mined.suspicious_trading_arcs
            );
            assert_eq!(direct.complex_group_count, mined.complex_group_count);
            assert_eq!(direct.simple_group_count, mined.simple_group_count);
            assert_eq!(direct.per_subtpiin, mined.per_subtpiin);
            for (d, m) in direct.groups.iter().zip(&mined.groups) {
                let chain = Provenance::assemble(&tpiin, m);
                assert_eq!(chain, Provenance::assemble(&tpiin, d));
                assert!(chain.audit(&tpiin).is_ok());
            }
        }
    }
}

#[test]
fn baseline_miner_matches_rules_miner_group_set_on_fig7() {
    let tpiin = fused(&fig7_registry());
    let ctx = MineContext::default();
    let rules = Rule12Miner.mine(&tpiin, &ctx);
    let base = BaselineMiner::default().mine(&tpiin, &ctx);
    let mut rules_keys: Vec<_> = rules.groups.iter().map(|g| g.key()).collect();
    rules_keys.sort();
    let base_keys: Vec<_> = base.groups.iter().map(|g| g.key()).collect();
    assert_eq!(rules_keys, base_keys, "baseline sorts by canonical key");
    assert_eq!(rules.suspicious_trading_arcs, base.suspicious_trading_arcs);
}

#[test]
fn circular_miner_recalls_the_planted_ring_and_nothing_else() {
    let ctx = MineContext {
        tax_rates: circular_case_registry().company_tax_rates(),
        ..MineContext::default()
    };
    let planted = CircularTradingMiner::default().mine(&fused(&circular_case_registry()), &ctx);
    assert_eq!(planted.group_count(), 1, "exactly the planted ring");
    let ring = planted.groups.row(0);
    assert_eq!(ring.trail_with_trade.len(), CIRCULAR_RING_LEN);
    assert!(!planted.overflowed);

    let control = CircularTradingMiner::default().mine(&fused(&circular_control_registry()), &ctx);
    assert_eq!(control.group_count(), 0, "no cycle in the control");
}

#[test]
fn circular_miner_scores_the_planted_ring_by_rate_differential() {
    let registry = circular_case_registry();
    let tpiin = fused(&registry);
    let miner = CircularTradingMiner::default();
    let rated = MineContext {
        tax_rates: registry.company_tax_rates(),
        ..MineContext::default()
    };
    let result = miner.mine(&tpiin, &rated);
    // Rates 0.05/0.17/0.25/0.13 around the ring: |Δ| sums to 0.40.
    let score = miner.score(&tpiin, &rated, result.groups.row(0));
    assert!((score - 0.40).abs() < 1e-9, "differential was {score}");
    let flat = MineContext::default();
    assert_eq!(miner.score(&tpiin, &flat, result.groups.row(0)), 0.0);
}

#[test]
fn windowed_miner_recalls_only_its_windows_group() {
    let tpiin = fused(&windowed_case_registry());
    let ctx = MineContext::default();
    let full = Rule12Miner.mine(&tpiin, &ctx);
    assert_eq!(full.group_count(), 2, "scenario plants two groups");

    let mine_window = |(start, end): (u32, u32)| {
        WindowedMiner::new(Box::new(Rule12Miner), start, end).mine(&tpiin, &ctx)
    };
    let early = mine_window(WINDOWED_EARLY);
    assert_eq!(early.group_count(), 1);
    assert_eq!(tpiin.label(early.groups.row(0).trading_arc.0), "EA1");
    let late = mine_window(WINDOWED_LATE);
    assert_eq!(late.group_count(), 1);
    assert_eq!(tpiin.label(late.groups.row(0).trading_arc.0), "TB1");
    let quiet = mine_window(WINDOWED_QUIET);
    assert_eq!(quiet.group_count(), 0, "background trade forms no group");
    let whole = mine_window((0, 3));
    assert_eq!(whole.group_count(), 2, "the full window sees both");
}

#[test]
fn windowed_rules_equals_plain_rules_when_the_window_covers_the_feed() {
    let tpiin = fused(&fig7_registry());
    let ctx = MineContext::default();
    let plain = Rule12Miner.mine(&tpiin, &ctx);
    let windowed = WindowedMiner::new(Box::new(Rule12Miner), 0, u32::MAX - 1).mine(&tpiin, &ctx);
    let mut plain_keys: Vec<_> = plain.groups.iter().map(|g| g.key()).collect();
    let mut win_keys: Vec<_> = windowed.groups.iter().map(|g| g.key()).collect();
    plain_keys.sort();
    win_keys.sort();
    assert_eq!(plain_keys, win_keys);
}

#[test]
fn registry_mine_all_runs_every_strategy_deterministically() {
    let tpiin = fused(&circular_case_registry());
    let registry = MinerRegistry::from_specs(["rules", "circular", "windowed:circular@0..9"])
        .expect("specs parse");
    let ctx = MineContext::default();
    let a = registry.mine_all(&tpiin, &ctx);
    let b = registry.mine_all(&tpiin, &ctx);
    assert_eq!(a.len(), 3);
    for ((name_a, ra), (name_b, rb)) in a.iter().zip(&b) {
        assert_eq!(name_a, name_b);
        assert_eq!(ra.groups, rb.groups, "{name_a} must be deterministic");
    }
    assert_eq!(a[0].1.group_count(), 0, "no Rule 1/2 pattern planted");
    assert_eq!(a[1].1.group_count(), 1, "the ring");
    assert_eq!(a[2].1.group_count(), 1, "every ring trade falls in 0..9");
}
