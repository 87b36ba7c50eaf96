//! National-scale run: several provinces fused into one TPIIN, with a
//! trading network spanning province borders.
//!
//! Inter-province trades can never hide a common interest party (the
//! antecedent networks are province-local), so Algorithm 1's
//! segmentation discards them before any pattern tree is built — the
//! divide-and-conquer payoff the paper's future work aims at.
//!
//! ```sh
//! cargo run --release --example national_scale
//! ```

use tpiin::datagen::{add_random_trading, generate_nation, ProvinceConfig};
use tpiin::detect::{segment_tpiin, Detector, DetectorConfig};
use tpiin::fusion::fuse;

fn main() {
    let provinces = 6;
    let base = ProvinceConfig::default();
    let build_start = std::time::Instant::now();
    let mut registry = generate_nation(provinces, &base);
    // A sparse national trading network over all companies: most arcs
    // cross province borders.
    let arcs = add_random_trading(&mut registry, 0.0005, base.seed);
    println!(
        "nation: {} provinces, {} persons, {} companies, {} trading relationships ({:?} to generate)",
        provinces,
        registry.person_count(),
        registry.company_count(),
        arcs,
        build_start.elapsed()
    );

    let fuse_start = std::time::Instant::now();
    let (tpiin, report) = fuse(&registry).expect("generated registry is valid");
    println!(
        "fused: {} nodes, {} influence + {} trading arcs in {:?}",
        report.tpiin_nodes,
        report.influence_arcs,
        report.trading_arcs,
        fuse_start.elapsed()
    );

    let subs = segment_tpiin(&tpiin);
    let kept: usize = subs.iter().map(|s| s.trading_arc_count).sum();
    println!(
        "segmentation: {} subTPIINs; {} of {} trading arcs stay inside a component ({:.1}% discarded up front)",
        subs.len(),
        kept,
        tpiin.trading_arc_count,
        100.0 * (1.0 - kept as f64 / tpiin.trading_arc_count.max(1) as f64)
    );

    let detect_start = std::time::Instant::now();
    let detector = Detector::new(DetectorConfig {
        collect_groups: false,
        ..Default::default()
    });
    let result = detector.detect_segmented(&tpiin, &subs);
    println!(
        "detected {} groups ({} complex, {} simple) behind {} arcs in {:?}",
        result.group_count(),
        result.complex_group_count,
        result.simple_group_count,
        result.suspicious_trading_arcs.len(),
        detect_start.elapsed()
    );
}
