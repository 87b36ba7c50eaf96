//! A compact version of the paper's Table 1 sweep: how suspicious-group
//! and suspicious-arc counts scale as the trading network densifies, with
//! the suspicious *percentage* staying flat near 5 %.
//!
//! ```sh
//! cargo run --release --example probability_sweep
//! ```

use tpiin::datagen::{add_random_trading, generate_province, ProvinceConfig};
use tpiin::detect::{Detector, DetectorConfig};
use tpiin::fusion::fuse;

fn main() {
    let config = ProvinceConfig::default();
    let base = generate_province(&config);
    let detector = Detector::new(DetectorConfig {
        collect_groups: false, // counting-only: no per-group allocation
        ..Default::default()
    });

    println!(
        "{:>7} {:>10} {:>10} {:>11} {:>11} {:>8}",
        "p", "complex", "simple", "susp_arcs", "total_arcs", "susp_%"
    );
    for p in [0.002, 0.005, 0.01, 0.02, 0.05, 0.1] {
        let mut registry = base.clone();
        add_random_trading(&mut registry, p, config.seed ^ (p * 1e6) as u64);
        let (tpiin, _) = fuse(&registry).expect("generated registry is valid");
        let result = detector.detect(&tpiin);
        println!(
            "{:>7.3} {:>10} {:>10} {:>11} {:>11} {:>8.3}",
            p,
            result.complex_group_count,
            result.simple_group_count,
            result.suspicious_trading_arcs.len(),
            result.total_trading_arcs,
            result.suspicious_percentage()
        );
    }
}
