//! One scenario through the whole system: generate → save to CSV → load →
//! fuse → snapshot → restore → detect → query → stream a second day of
//! trades → write reports → parse the summary back.  Every surface the
//! deployed system would touch, in one test.

use std::collections::BTreeSet;
use tpiin::datagen::{add_random_trading, generate_province, ProvinceConfig};
use tpiin::delta::DeltaEngine;
use tpiin::detect::{detect, groups_behind_arc};
use tpiin::fusion::fuse;
use tpiin::io::json::Json;
use tpiin::io::{registry_csv, reports, snapshot_bin};
use tpiin::model::TradingRecord;

#[test]
fn full_workflow_round_trip() {
    let workdir = std::env::temp_dir().join(format!("tpiin-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&workdir);

    // Day 0: master data arrives and is archived as CSV.
    let config = ProvinceConfig {
        seed: 17,
        ..ProvinceConfig::scaled(0.2)
    };
    let mut registry = generate_province(&config);
    add_random_trading(&mut registry, 0.004, 17);
    registry_csv::save_registry(&registry, &workdir.join("extracts")).unwrap();
    let loaded = registry_csv::load_registry(&workdir.join("extracts")).unwrap();
    assert_eq!(loaded.tradings(), registry.tradings());

    // Fuse once, snapshot, restore — detection agrees across the boundary.
    let (tpiin, _) = fuse(&loaded).unwrap();
    let restored =
        snapshot_bin::read_snapshot_bin(&snapshot_bin::write_snapshot_bin(&tpiin)).unwrap();
    let result = detect(&tpiin);
    let result_restored = detect(&restored);
    assert_eq!(result.group_count(), result_restored.group_count());
    assert!(result.group_count() > 0, "fixture produces groups");

    // Spot-check: per-arc queries agree with the full run.
    let arc = *result.suspicious_trading_arcs.iter().next().unwrap();
    let queried = groups_behind_arc(&restored, arc.0, arc.1);
    let expected = result
        .groups
        .iter()
        .filter(|g| g.trading_arc == arc)
        .count();
    assert_eq!(queried.len(), expected);

    // Day 1: a new batch of trades streams in (snapshot-only mode: the
    // restored TPIIN has no registry behind it, so the engine patches
    // trading arcs surgically).
    let mut streaming = DeltaEngine::from_tpiin(restored);
    let known: BTreeSet<(u32, u32)> = loaded
        .tradings()
        .iter()
        .map(|t| (t.seller.0, t.buyer.0))
        .collect();
    let fresh: Vec<TradingRecord> = {
        let mut extra = loaded.clone();
        extra.clear_trading();
        add_random_trading(&mut extra, 0.002, 99);
        extra
            .tradings()
            .iter()
            .filter(|t| !known.contains(&(t.seller.0, t.buyer.0)))
            .copied()
            .collect()
    };
    assert!(!fresh.is_empty());
    let outcome = streaming.ingest(&fresh).expect("day-1 records are valid");
    // The day-1 result equals a from-scratch batch over day-0 + day-1.
    let mut combined = loaded.clone();
    for t in &fresh {
        combined.add_trading(*t);
    }
    let (combined_tpiin, _) = fuse(&combined).unwrap();
    let batch = detect(&combined_tpiin);
    assert_eq!(
        result.group_count() + outcome.new_groups.len(),
        batch.group_count(),
        "streaming day-1 groups + day-0 groups == batch over both days"
    );

    // Findings are archived in the paper's report layout.
    let files = reports::write_reports(&combined_tpiin, &batch, &workdir.join("findings")).unwrap();
    assert!(files >= 3);
    let summary_text =
        std::fs::read_to_string(workdir.join("findings").join("summary.json")).unwrap();
    let summary = Json::parse(&summary_text).unwrap();
    assert_eq!(
        summary.get("complex_groups").and_then(Json::as_f64),
        Some(batch.complex_group_count as f64)
    );

    std::fs::remove_dir_all(&workdir).unwrap();
}
