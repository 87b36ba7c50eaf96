//! One kernel, one assembler: every producer of a `DetectionResult` —
//! the serial detector, the work-stealing pool, the counting-only mode
//! and the delta engine's cached re-mine — must agree field for field,
//! and the group set must equal the global-traversal baseline's.

use std::collections::BTreeSet;
use tpiin::datagen::{add_random_trading, fig7_registry, generate_province, ProvinceConfig};
use tpiin::delta::DeltaEngine;
use tpiin::detect::baseline::detect_baseline;
use tpiin::detect::{detect, DetectionResult, Detector, DetectorConfig};
use tpiin::fusion::{fuse, Tpiin};
use tpiin::model::{CompanyId, InvestmentRecord, TradingRecord};

/// fig7 plus three small provinces.  Each province also gets one
/// mutually investing company pair that trades with itself, so the
/// intra-syndicate arc seeding is exercised.
fn networks() -> Vec<(String, Tpiin)> {
    let mut out = vec![("fig7".to_string(), fuse(&fig7_registry()).unwrap().0)];
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
        let (tpiin, _) = fuse(&registry).unwrap();
        assert!(!tpiin.intra_syndicate_trades.is_empty());
        out.push((format!("province-{scale}-seed{seed}"), tpiin));
    }
    out
}

fn assert_identical(name: &str, what: &str, got: &DetectionResult, want: &DetectionResult) {
    assert_eq!(got.groups, want.groups, "{name}: {what}: group order");
    assert_eq!(
        got.provenances, want.provenances,
        "{name}: {what}: provenances"
    );
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
        assert_identical(&name, "delta engine", engine.detection(), &serial);

        let pooled = Detector::new(DetectorConfig {
            serial_cutoff: 0,
            batch_min_cost: 1,
            clamp_to_host: false,
            threads: 4,
            ..DetectorConfig::default()
        })
        .detect(&tpiin);
        assert_identical(&name, "forced pool", &pooled, &serial);

        let counting = Detector::new(DetectorConfig {
            collect_groups: false,
            ..DetectorConfig::default()
        })
        .detect(&tpiin);
        assert!(
            counting.groups.is_empty() && counting.provenances.is_empty(),
            "{name}"
        );
        assert_eq!(
            counting.per_subtpiin, serial.per_subtpiin,
            "{name}: counting"
        );
        assert_counts_and_arcs(&name, "counting only", &counting, &serial);

        let baseline = detect_baseline(&tpiin, 10_000_000);
        assert!(!baseline.overflowed, "{name}");
        let keys = |groups: &[tpiin::detect::SuspiciousGroup]| -> BTreeSet<_> {
            groups.iter().map(|g| g.key()).collect()
        };
        assert_eq!(
            keys(&serial.groups),
            keys(&baseline.groups),
            "{name}: baseline"
        );
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
