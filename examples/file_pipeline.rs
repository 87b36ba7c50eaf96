//! The paper's file-based workflow end to end: source extracts arrive as
//! CSV files, are loaded and fused, mined, and the findings are written
//! back out as the per-subTPIIN `susGroup(i)` / `susTrade(i)` files of
//! Algorithm 1 plus a JSON summary — the shape a provincial tax office
//! integration would consume.
//!
//! ```sh
//! cargo run --release --example file_pipeline
//! ```

use tpiin::datagen::{add_random_trading, generate_province, ProvinceConfig};
use tpiin::detect::detect;
use tpiin::fusion::fuse;
use tpiin::io::{graphml, registry_csv, reports};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workdir = std::env::temp_dir().join("tpiin-file-pipeline");
    let extracts = workdir.join("extracts");
    let findings = workdir.join("findings");
    let _ = std::fs::remove_dir_all(&workdir);

    // 1. "Receive" the source extracts: a quarter-scale province saved as
    //    six CSV files.
    let config = ProvinceConfig {
        seed: 7,
        ..ProvinceConfig::scaled(0.25)
    };
    let mut registry = generate_province(&config);
    add_random_trading(&mut registry, 0.004, 7);
    registry_csv::save_registry(&registry, &extracts)?;
    println!("extracts written to {}", extracts.display());

    // 2. Load them back (validating), fuse into a TPIIN.
    let loaded = registry_csv::load_registry(&extracts)?;
    let (tpiin, report) = fuse(&loaded)?;
    println!("\nfused:\n{}", report.summary());

    // 3. Mine suspicious groups and write the paper's report layout.
    let result = detect(&tpiin);
    let files = reports::write_reports(&tpiin, &result, &findings)?;
    println!(
        "\n{} groups behind {} of {} trading arcs; {} report files in {}",
        result.group_count(),
        result.suspicious_trading_arcs.len(),
        result.total_trading_arcs,
        files,
        findings.display()
    );

    // 4. Also export the interchange formats: the r x 3 edge list the
    //    paper's Algorithm 1 consumes, and GraphML for Gephi.
    std::fs::write(workdir.join("tpiin.edgelist"), tpiin.edge_list())?;
    std::fs::write(
        workdir.join("tpiin.graphml"),
        graphml::tpiin_graphml(&tpiin),
    )?;

    // 5. Show a taste of the findings.
    let summary = std::fs::read_to_string(findings.join("summary.json"))?;
    let preview: String = summary.lines().take(8).collect::<Vec<_>>().join("\n");
    println!("\nsummary.json (head):\n{preview}\n...");

    std::fs::remove_dir_all(&workdir)?;
    Ok(())
}
