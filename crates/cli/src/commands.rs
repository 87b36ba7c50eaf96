//! Subcommand implementations.

use crate::args::Options;
use std::time::Instant;
use tpiin_core::baseline::detect_baseline;
use tpiin_core::{
    detect, generate_pattern_base, mine_with_obs, segment_tpiin, Detector, DetectorConfig,
    MineContext, MinerRegistry, RULES_MINER,
};
use tpiin_datagen::{
    add_random_trading, case1_registry, case2_registry, case3_registry, fig7_registry,
    generate_province, ProvinceConfig,
};
use tpiin_fusion::{fuse, Tpiin};
use tpiin_model::SourceRegistry;

pub const HELP: &str = "\
tpiin — mining suspicious tax evasion groups (ICDE 2017 reproduction)

USAGE: tpiin <command> [flags]

COMMANDS:
  table1          Regenerate Table 1: the trading-probability sweep
  stats           Fusion-stage statistics (Figs. 11-16)
  worked-example  Figs. 7-10: pattern base and groups with explanations
  cases           The three Section 3.1 case studies
  detect          Mine one random TPIIN with each `--miner` strategy
                  (default rules); print top-scored groups per miner
  explain         Provenance chain of one group: `explain <group-id>`
                  (without an id: list the groups; --snapshot/--dataset
                  pick the network, default fig7; --miner picks the
                  strategy that owns the group, default rules)
  query           Groups behind one trading arc (--arc SELLER,BUYER)
  save-province   Write the synthetic province as CSV files (--dir)
  mutation-stream Write a replayable delta feed: base registry CSV
                  (--dir) + JSONL mutation batches (--out), planted
                  evasion rings appearing only mid-stream
  import          Load a CSV registry (--dir), detect, print summary
  report          Detect and write susGroup/susTrade/summary files (--dir)
  two-phase       Full Fig. 4 flow: MSG + ITE screening vs one-by-one
  company         Fig. 17/18 investment-tree view (--company LABEL)
  analyze         Fig. 19 preliminary analysis of one company's IATs
  export-dot      Export a generated TPIIN as Graphviz DOT
  export-graphml  Export a generated TPIIN as GraphML (Gephi)
  serve           Run the query/ingest daemon (Section 6 online queries)
  save-snapshot   Write a fused TPIIN snapshot file (--out; for serve)
  health          Poll a live daemon (--addr) and render its telemetry:
                  alert states, timeline sparklines and the slowlog
                  (--watch re-polls every two seconds)
  help            Show this help

FLAGS:
  --scale F     province scale factor in (0,1] (default 1.0 = 4578 nodes)
  --seed N      RNG seed (default 20170417)
  --probs LIST  comma-separated trading probabilities (default: paper's 20)
  --verify      also run the global-traversal baseline and compare
  --top N       groups to print for `detect`/`query` (default 10)
  --out PATH    output file for exports (default stdout)
  --dir PATH    directory for save-province/import/report
  --arc S,B     seller,buyer company labels for `query`
  --company L   company label for `company`
  --miner NAME  detection strategy for `detect`/`explain`/`serve`
                (repeatable): rules | baseline | circular |
                windowed:<inner>@<start>..<end>  (feed sequence numbers)
  --batches N   mutation-stream: batches in the feed (default 20)
  --records N   mutation-stream: trading records per batch (default 64)
  --planted N   mutation-stream: evasion rings planted mid-stream
                (default 3)

SERVING (`serve` / `save-snapshot`):
  --addr A:P    listen address (default 127.0.0.1:7878; port 0 = ephemeral)
  --snapshot P  serve this snapshot file; enables POST /reload
  --workers N   request worker threads (default 4)
  --request-timeout-ms N  per-request deadline (default 2000)
  --dataset D   fig7 | province — dataset when no --snapshot (default fig7)
  --dir PATH    serve a CSV registry registry-backed: POST /ingest
                accepts the full mutation vocabulary (e.g. the feed
                `mutation-stream` writes), not just trading appends
  --watch       poll the snapshot file and hot-reload on change
                (on `health`: keep polling the daemon every 2s)
  --slowlog-threshold-ms N  requests slower than this land in the
                GET /slowlog exemplar ring (default 250)
  --telemetry-tick-ms N  timeline recorder tick (default 1000)
  --no-telemetry  disable the timeline recorder and SLO alerts
                (GET /timeline and /alerts answer 404)
  --miner NAME  strategies snapshot builds run (repeatable; default
                rules + circular; the first is the primary /groups view)

OBSERVABILITY (all commands):
  --log-level L   stderr log level: error|warn|info|debug|trace
                  (overrides the TPIIN_LOG environment variable)
  --profile       print the phase-timing table on stderr after the run
  --metrics-out P write the run profile (phase timings, counters,
                  histograms) as JSON to path P
  --trace-out P   write a Chrome trace_event JSON of the whole run to P
                  (one trace id across CLI, pipeline and detector;
                  opens in Perfetto / chrome://tracing)
  --group N       group id for `explain` (same as the positional form)
";

fn province(opts: &Options) -> (SourceRegistry, ProvinceConfig) {
    let config = if (opts.scale - 1.0).abs() < f64::EPSILON {
        ProvinceConfig {
            seed: opts.seed,
            ..ProvinceConfig::default()
        }
    } else {
        ProvinceConfig {
            seed: opts.seed,
            ..ProvinceConfig::scaled(opts.scale)
        }
    };
    (generate_province(&config), config)
}

/// The generated province with random trading at the first `--probs`
/// value, seeded by `--seed`: the one network every single-network
/// command reads.
fn traded_province(opts: &Options) -> (SourceRegistry, ProvinceConfig) {
    let (mut registry, config) = province(opts);
    add_random_trading(&mut registry, opts.trading_prob(), opts.seed);
    (registry, config)
}

fn detector(collect: bool) -> Detector {
    Detector::new(DetectorConfig {
        collect_groups: collect,
        ..Default::default()
    })
}

/// The miner set `--miner` flags request (default: the Rule 1/Rule 2
/// detector alone).
fn miner_registry(opts: &Options) -> Result<MinerRegistry, tpiin::Error> {
    if opts.miners.is_empty() {
        MinerRegistry::from_specs([RULES_MINER])
    } else {
        MinerRegistry::from_specs(&opts.miners)
    }
    .map_err(tpiin::Error::Usage)
}

/// `tpiin table1` — one row per trading probability, same columns as the
/// paper's Table 1 plus wall-clock time.
pub fn table1(opts: &Options) -> Result<(), tpiin::Error> {
    let (base_registry, config) = province(opts);
    println!(
        "# Table 1 reproduction — {} directors, {} legal persons, {} companies (seed {})",
        config.directors, config.legal_persons, config.companies, config.seed
    );
    println!(
        "{:>7} {:>9} {:>9} {:>9} {:>9} {:>8} {:>9} {:>8} {:>8} {:>9}",
        "p",
        "avg_deg",
        "complex",
        "simple",
        "susp_arcs",
        "acc_grp",
        "total_arcs",
        "acc_arc",
        "susp_%",
        "time_ms"
    );
    for p in opts.sweep_probs() {
        let mut registry = base_registry.clone();
        // Each probability gets its own trading network, seeded from the
        // base seed and the probability (the paper regenerates per row).
        let trade_seed = opts.seed ^ (p * 1e6) as u64;
        add_random_trading(&mut registry, p, trade_seed);
        let (tpiin, _) = fuse(&registry)?;
        // The paper's "average node degree" divides by the source node
        // count (4578), not the post-contraction TPIIN node count.
        let source_nodes = registry.person_count() + registry.company_count();
        let avg_degree = tpiin.graph.edge_count() as f64 / source_nodes as f64;
        let start = Instant::now();
        let result = detector(false).detect(&tpiin);
        let elapsed = start.elapsed().as_millis();
        let (acc_groups, acc_arcs) = if opts.verify {
            let full = detector(true).detect(&tpiin);
            let baseline = detect_baseline(&tpiin, 100_000_000);
            let mut a: Vec<_> = full.groups.iter().map(|g| g.key()).collect();
            let mut b: Vec<_> = baseline.groups.iter().map(|g| g.key()).collect();
            a.sort();
            b.sort();
            let ga = if a == b && !baseline.overflowed {
                "100%"
            } else {
                "DIFF"
            };
            let aa = if full.suspicious_trading_arcs == baseline.suspicious_trading_arcs {
                "100%"
            } else {
                "DIFF"
            };
            (ga, aa)
        } else {
            ("-", "-")
        };
        println!(
            "{:>7.3} {:>9.3} {:>9} {:>9} {:>9} {:>8} {:>9} {:>8} {:>8.4} {:>9}",
            p,
            avg_degree,
            result.complex_group_count,
            result.simple_group_count,
            result.suspicious_trading_arcs.len(),
            acc_groups,
            result.total_trading_arcs,
            acc_arcs,
            result.suspicious_percentage(),
            elapsed
        );
    }
    Ok(())
}

/// `tpiin stats` — the fusion report (Figs. 11–16 numbers) plus
/// segmentation statistics.
pub fn stats(opts: &Options) -> Result<(), tpiin::Error> {
    let (registry, config) = traded_province(opts);
    let (tpiin, report) = fuse(&registry)?;
    println!(
        "# Network construction (Figs. 11-16), trading probability {}",
        opts.trading_prob()
    );
    println!("{}", report.summary());
    let subs = segment_tpiin(&tpiin);
    let with_trades = subs.iter().filter(|s| s.trading_arc_count > 0).count();
    let largest = subs.iter().map(|s| s.node_count()).max().unwrap_or(0);
    println!(
        "segmentation: {} subTPIINs ({} with trading arcs), largest has {} nodes",
        subs.len(),
        with_trades,
        largest
    );
    println!(
        "expected suspicious fraction from cluster spectrum: {:.3}%",
        100.0 * config.expected_suspicious_fraction()
    );
    if opts.verify {
        println!("\n# Appendix A property verification");
        println!("{}", tpiin_fusion::verify_tpiin(&tpiin, true).summary());
    }
    Ok(())
}

/// `tpiin worked-example` — Figs. 7–10 and the three groups.
pub fn worked_example() -> Result<(), tpiin::Error> {
    let registry = fig7_registry();
    let (tpiin, report) = fuse(&registry)?;
    println!("# Fig. 7 -> Fig. 8 fusion");
    println!("{}", report.summary());
    let subs = segment_tpiin(&tpiin);
    println!("\n# Fig. 10 — potential component pattern base");
    let base = generate_pattern_base(&subs[0], usize::MAX)
        .ok_or_else(|| tpiin::Error::Usage("pattern tree overflow on the worked example".into()))?;
    for (i, pattern) in base.iter().enumerate() {
        println!("{:>2}. {}", i + 1, pattern.render(&tpiin));
    }
    println!("\n# Suspicious groups (Section 4.3)");
    let result = detect(&tpiin);
    for group in &result.groups {
        let score = tpiin_core::score_group(&tpiin, group);
        println!("- {}", group.explain(&tpiin));
        println!(
            "  score: chain strength {:.3} x volume {:.0} = {:.0}",
            score.chain_strength, score.trade_volume, score.score
        );
    }
    Ok(())
}

/// `tpiin cases` — Section 3.1 case studies.
pub fn cases() -> Result<(), tpiin::Error> {
    for (name, registry, expected_adjustment) in [
        (
            "Case 1 (transfer pricing via kin legal persons)",
            case1_registry(),
            "25.52M RMB",
        ),
        (
            "Case 2 (same partial investor, cross-border)",
            case2_registry(),
            "$5000",
        ),
        (
            "Case 3 (interlocked directors, export)",
            case3_registry(),
            "19.89M RMB",
        ),
    ] {
        let (tpiin, _) = fuse(&registry)?;
        let result = detect(&tpiin);
        println!("# {name} — tax adjustment in the paper: {expected_adjustment}");
        for group in &result.groups {
            println!("  {}", group.explain(&tpiin));
            let score = tpiin_core::score_group(&tpiin, group);
            println!(
                "  score: chain strength {:.3} x volume {:.0} = {:.0}",
                score.chain_strength, score.trade_volume, score.score
            );
        }
        println!();
    }
    Ok(())
}

/// `tpiin detect` — one random TPIIN, mined by every requested
/// `--miner` strategy (default: rules), top groups printed per miner.
pub fn detect_one(opts: &Options) -> Result<(), tpiin::Error> {
    let miners = miner_registry(opts)?;
    let (registry, _) = traded_province(opts);
    let (tpiin, _) = fuse(&registry)?;
    let ctx = MineContext {
        config: DetectorConfig::default(),
        tax_rates: registry.company_tax_rates(),
    };
    for miner in miners.iter() {
        let name = miner.name().to_string();
        let start = Instant::now();
        let result = mine_with_obs(miner, &tpiin, &ctx);
        println!(
            "[{name}] detected {} groups ({} complex, {} simple) behind {} of {} trading arcs in {:?}{}",
            result.group_count(),
            result.complex_group_count,
            result.simple_group_count,
            result.suspicious_trading_arcs.len(),
            result.total_trading_arcs,
            start.elapsed(),
            if result.overflowed {
                "; truncated: budget spent"
            } else {
                ""
            }
        );
        if miner.supports_provenance() {
            // Rule 1/Rule 2 shaped groups rank by chain strength x
            // trade volume.
            let mut scored: Vec<_> = result
                .groups
                .iter()
                .map(|g| (tpiin_core::score_group(&tpiin, g), g))
                .collect();
            scored.sort_by(|a, b| b.0.score.total_cmp(&a.0.score));
            println!("top {} groups by score:", opts.top.min(scored.len()));
            for (score, group) in scored.iter().take(opts.top) {
                println!("  [{:>12.0}] {}", score.score, group.explain(&tpiin));
            }
        } else {
            // Other strategies (e.g. circular trading) already order
            // their groups by their own ranking.
            println!("top {} groups:", opts.top.min(result.groups.len()));
            for group in result.groups.iter().take(opts.top) {
                println!("  {}", group.explain(&tpiin));
            }
        }
        println!();
    }
    Ok(())
}

/// `tpiin explain` — the full provenance chain behind one mined group:
/// matched rule, every arc resolved to its winning source record,
/// contraction lineage and the per-term score, followed by a self-audit
/// that every referenced node and arc exists in the TPIIN.
pub fn explain(opts: &Options) -> Result<(), tpiin::Error> {
    let miner = match opts.miners.as_slice() {
        [] => MinerRegistry::resolve(RULES_MINER),
        [spec] => MinerRegistry::resolve(spec),
        _ => {
            return Err(tpiin::Error::Usage(
                "explain takes at most one --miner (one strategy owns a group id)".into(),
            ))
        }
    }
    .map_err(tpiin::Error::Usage)?;
    let name = miner.name().to_string();
    let tpiin = serving_tpiin(opts)?;
    let result = miner.mine(&tpiin, &MineContext::default());
    let Some(id) = opts.group else {
        // No id: list the groups so the investigator can pick one.
        println!(
            "{} groups mined by `{name}`; rerun as `tpiin explain <group-id>`:",
            result.groups.len()
        );
        for (i, group) in result.groups.iter().enumerate() {
            if miner.supports_provenance() {
                let score = tpiin_core::score_group(&tpiin, group);
                println!(
                    "  [{i:>3}] score {:>12.0}  {}",
                    score.score,
                    group.explain(&tpiin)
                );
            } else {
                println!("  [{i:>3}] {}", group.explain(&tpiin));
            }
        }
        return Ok(());
    };
    let Some(group) = result.groups.get(id) else {
        return Err(tpiin::Error::Usage(format!(
            "no group {id}: miner `{name}` mined {} groups (ids 0..{})",
            result.groups.len(),
            result.groups.len().saturating_sub(1)
        )));
    };
    // Only Rule 1/Rule 2 shaped strategies have a provenance hook.
    let Some(prov) = miner.provenance(&tpiin, group) else {
        return Err(tpiin::Error::Usage(format!(
            "miner `{name}` has no provenance hook: group {id} carries no \
             Rule 1/Rule 2 evidence chain to render (its pattern is: {})",
            group.explain(&tpiin)
        )));
    };
    println!("group {id} of {} (miner `{name}`)", result.groups.len());
    print!("{}", prov.render(group, &tpiin));
    let (influence, trading) = prov.source_records();
    println!("  contributing records: influence feed {influence:?}, trading feed {trading:?}");
    prov.audit(&tpiin).map_err(|violation| {
        tpiin::Error::Usage(format!("provenance audit failed: {violation}"))
    })?;
    println!("  audit: every referenced node and arc exists in the TPIIN");
    Ok(())
}

/// `tpiin export-dot` — Graphviz rendering of a generated TPIIN, colored
/// like the paper's figures (red companies, black persons, blue influence
/// arcs, black trading arcs).
pub fn export_dot(opts: &Options) -> Result<(), tpiin::Error> {
    let (registry, _) = traded_province(opts);
    let (tpiin, _) = fuse(&registry)?;
    let text = tpiin_io::groupviz::tpiin_dot(&tpiin);
    match &opts.out {
        Some(path) => std::fs::write(path, text).map_err(|e| tpiin::Error::file(path, e))?,
        None => print!("{text}"),
    }
    Ok(())
}

/// `tpiin save-province` — write the synthetic registry as CSV files.
pub fn save_province(opts: &Options) -> Result<(), tpiin::Error> {
    let dir = opts
        .dir
        .as_deref()
        .ok_or_else(|| tpiin::Error::Usage("save-province requires --dir".into()))?;
    let (registry, _) = traded_province(opts);
    tpiin_io::registry_csv::save_registry(&registry, std::path::Path::new(dir))?;
    println!(
        "wrote {} persons, {} companies, {} trading records to {dir}/",
        registry.person_count(),
        registry.company_count(),
        registry.tradings().len()
    );
    Ok(())
}

/// `tpiin mutation-stream` — write a replayable delta feed: the base
/// antecedent registry as CSV (`--dir`) and the mutation batches as a
/// JSONL feed (`--out`), one `POST /ingest` body per line.
pub fn mutation_stream(opts: &Options) -> Result<(), tpiin::Error> {
    let dir = opts.dir.as_deref().ok_or_else(|| {
        tpiin::Error::Usage("mutation-stream requires --dir (base registry)".into())
    })?;
    let out = opts
        .out
        .as_deref()
        .ok_or_else(|| tpiin::Error::Usage("mutation-stream requires --out (feed file)".into()))?;
    let stream = tpiin_datagen::generate_mutation_stream(&tpiin_datagen::MutationStreamConfig {
        scale: opts.scale,
        seed: opts.seed,
        batches: opts.batches,
        records_per_batch: opts.records,
        planted_groups: opts.planted,
    });
    tpiin_io::registry_csv::save_registry(&stream.base, std::path::Path::new(dir))?;
    tpiin_io::mutation_feed::save_feed(&stream.batches, std::path::Path::new(out))?;
    let mutations: usize = stream.batches.iter().map(|b| b.mutations.len()).sum();
    println!(
        "wrote base registry ({} persons, {} companies) to {dir}/ and {} batches \
         ({mutations} mutations, {} rings planted at batches {:?}) to {out}",
        stream.base.person_count(),
        stream.base.company_count(),
        stream.batches.len(),
        stream.planted_at.len(),
        stream.planted_at,
    );
    Ok(())
}

/// `tpiin import` — load a CSV registry, fuse, detect, print a summary.
pub fn import(opts: &Options) -> Result<(), tpiin::Error> {
    let dir = opts
        .dir
        .as_deref()
        .ok_or_else(|| tpiin::Error::Usage("import requires --dir".into()))?;
    let registry = tpiin_io::registry_csv::load_registry(std::path::Path::new(dir))?;
    let (tpiin, report) = fuse(&registry)?;
    println!("{}", report.summary());
    let result = detector(false).detect(&tpiin);
    println!("{}", result.summary());
    Ok(())
}

/// `tpiin report` — detect on a generated (or imported) TPIIN and write
/// the paper's susGroup/susTrade files plus summary.json.
pub fn report(opts: &Options) -> Result<(), tpiin::Error> {
    let dir = opts
        .dir
        .as_deref()
        .ok_or_else(|| tpiin::Error::Usage("report requires --dir".into()))?;
    let (registry, _) = traded_province(opts);
    let (tpiin, _) = fuse(&registry)?;
    let result = detector(true).detect(&tpiin);
    let files = tpiin_io::reports::write_reports(&tpiin, &result, std::path::Path::new(dir))?;
    println!(
        "wrote {files} files to {dir}/ ({} groups across {} subTPIINs)",
        result.group_count(),
        result.per_subtpiin.iter().filter(|s| s.groups > 0).count()
    );
    Ok(())
}

/// `tpiin query` — the Section 6 drill-down: proof chains behind one
/// trading relationship.
pub fn query(opts: &Options) -> Result<(), tpiin::Error> {
    let (seller_label, buyer_label) = opts
        .arc
        .as_ref()
        .ok_or_else(|| tpiin::Error::Usage("query requires --arc SELLER,BUYER".into()))?;
    let (registry, _) = traded_province(opts);
    let (tpiin, _) = fuse(&registry)?;
    let find = |label: &str| {
        tpiin
            .graph
            .nodes()
            .find(|(_, n)| n.label() == label)
            .map(|(id, _)| id)
            .ok_or_else(|| tpiin::Error::Usage(format!("no node labelled `{label}`")))
    };
    let seller = find(seller_label)?;
    let buyer = find(buyer_label)?;
    let groups = tpiin_core::groups_behind_arc(&tpiin, seller, buyer);
    if groups.is_empty() {
        println!("no suspicious group behind {seller_label} -> {buyer_label}");
        return Ok(());
    }
    println!(
        "{} group(s) behind {seller_label} -> {buyer_label}:",
        groups.len()
    );
    for group in groups.iter().take(opts.top) {
        println!("- {}", group.explain(&tpiin));
    }
    if let Some(path) = &opts.out {
        // Drill-down view of the first group, Servyou-style.
        let dot = tpiin_io::groupviz::group_dot(&tpiin, groups[0].view());
        std::fs::write(path, dot).map_err(|e| tpiin::Error::file(path, e))?;
        println!("wrote drill-down DOT of the first group to {path}");
    }
    Ok(())
}

/// `tpiin export-graphml` — Gephi-compatible export.
pub fn export_graphml(opts: &Options) -> Result<(), tpiin::Error> {
    let (registry, _) = traded_province(opts);
    let (tpiin, _) = fuse(&registry)?;
    let text = tpiin_io::graphml::tpiin_graphml(&tpiin);
    match &opts.out {
        Some(path) => std::fs::write(path, text).map_err(|e| tpiin::Error::file(path, e))?,
        None => print!("{text}"),
    }
    Ok(())
}

/// `tpiin two-phase` — the full Fig. 4 pipeline with evaluation.
pub fn two_phase(opts: &Options) -> Result<(), tpiin::Error> {
    let (registry, _) = traded_province(opts);
    let (tpiin, _) = fuse(&registry)?;
    let msg = detector(false).detect(&tpiin);
    println!(
        "MSG: {} of {} trading relationships suspicious ({:.2}%)",
        msg.suspicious_trading_arcs.len(),
        msg.total_trading_arcs,
        msg.suspicious_percentage()
    );
    let scope = tpiin_ite::ScreeningScope::from_msg(&tpiin, &msg);
    let tpiin_ite::ScreeningScope::SuspiciousArcs(ref pairs) = scope else {
        unreachable!("from_msg always returns SuspiciousArcs");
    };
    let gen = tpiin_ite::generator::generate_transactions(
        &registry,
        pairs,
        &tpiin_ite::generator::TransactionGenConfig {
            seed: opts.seed,
            ..Default::default()
        },
    );
    let market = tpiin_ite::MarketModel::estimate(&gen.db);
    let ite = tpiin_ite::ItePhase::default();
    println!(
        "ITE over {} transactions ({} truly evading):",
        gen.db.len(),
        gen.evading_transactions.len()
    );
    for (name, scope) in [
        ("one-by-one", tpiin_ite::ScreeningScope::AllTransactions),
        ("two-phase ", scope.clone()),
    ] {
        let eval = ite.screen_and_evaluate(&gen.db, &market, &scope, &gen.evading_transactions);
        println!(
            "  {name}: examined {:>6.2}%  recall {:>6.2}%  precision {:>6.2}%  recovered {:.0}",
            100.0 * eval.examined_fraction(),
            100.0 * eval.recall(),
            100.0 * eval.precision(),
            eval.recovered_revenue
        );
    }
    Ok(())
}

/// The TPIIN a serving command runs over: a snapshot file when given,
/// else the `--dataset` worked example or synthetic province.
fn serving_tpiin(opts: &Options) -> Result<Tpiin, tpiin::Error> {
    if let Some(path) = &opts.snapshot {
        return Ok(tpiin_serve::load_snapshot_file(std::path::Path::new(path))?);
    }
    match opts.dataset.as_deref().unwrap_or("fig7") {
        "fig7" => Ok(fuse(&fig7_registry()).map(|(t, _)| t)?),
        "province" => {
            let (registry, _) = traded_province(opts);
            Ok(fuse(&registry).map(|(t, _)| t)?)
        }
        other => Err(tpiin::Error::Usage(format!(
            "--dataset must be fig7 or province, got `{other}`"
        ))),
    }
}

/// `tpiin serve` — the long-lived query/ingest daemon.  Runs until a
/// `POST /shutdown` arrives, then drains in-flight requests and exits.
pub fn serve(opts: &Options) -> Result<(), tpiin::Error> {
    let config = tpiin_serve::ServeConfig {
        addr: opts
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        workers: opts.workers,
        request_timeout: std::time::Duration::from_millis(opts.request_timeout_ms.max(1)),
        slowlog_threshold: std::time::Duration::from_millis(opts.slowlog_threshold_ms.max(1)),
        telemetry: !opts.no_telemetry,
        telemetry_tick: std::time::Duration::from_millis(opts.telemetry_tick_ms.max(1)),
        snapshot_path: opts.snapshot.as_ref().map(std::path::PathBuf::from),
        watch: opts.watch,
        miners: opts.miners.clone(),
        ..Default::default()
    };
    // `--dir` serves a CSV registry *registry-backed*: the daemon keeps
    // the SourceRegistry behind the delta engine, so POST /ingest
    // accepts the full mutation vocabulary (not just trading appends).
    let handle = if let Some(dir) = opts.dir.as_deref() {
        let registry = tpiin_io::registry_csv::load_registry(std::path::Path::new(dir))?;
        tpiin_serve::ServerHandle::bind_with_registry(registry, config)?
    } else {
        tpiin_serve::ServerHandle::bind(serving_tpiin(opts)?, config)?
    };
    println!("serving on http://{}", handle.addr());
    println!("stop with: curl -X POST http://{}/shutdown", handle.addr());
    handle.wait();
    println!("drained and stopped");
    Ok(())
}

/// `tpiin save-snapshot` — fuse a dataset and write the snapshot file
/// `serve --snapshot` (and CI) consume.
pub fn save_snapshot(opts: &Options) -> Result<(), tpiin::Error> {
    let out = opts
        .out
        .as_deref()
        .ok_or_else(|| tpiin::Error::Usage("save-snapshot requires --out".into()))?;
    let tpiin = serving_tpiin(opts)?;
    let bytes = tpiin_io::snapshot_bin::write_snapshot_bin(&tpiin);
    std::fs::write(out, bytes).map_err(|e| tpiin::Error::file(out, e))?;
    println!(
        "wrote snapshot of {} nodes / {} trading arcs to {out}",
        tpiin.node_count(),
        tpiin.trading_arc_count
    );
    Ok(())
}

/// `tpiin health` — poll a live daemon's telemetry endpoints and render
/// a one-screen terminal dashboard: the health verdict and pool state
/// from `/status`, every SLO state machine from `/alerts`, timeline
/// sparklines for request rates and p99 latencies, and the
/// slow-request exemplar log.  `--watch` re-polls every two seconds.
pub fn health(opts: &Options) -> Result<(), tpiin::Error> {
    let addr = opts
        .addr
        .clone()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    loop {
        print!("{}", health_report(&addr)?);
        if !opts.watch {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(2));
        println!();
    }
}

fn daemon_err(addr: &str, message: impl Into<String>) -> tpiin::Error {
    tpiin::Error::Daemon {
        addr: addr.to_string(),
        message: message.into(),
    }
}

/// One blocking HTTP GET against the daemon: `(status code, body)`.
/// The daemon serves one request per connection and closes, so reading
/// to EOF delimits the response.
fn daemon_get(addr: &str, path: &str) -> Result<(u16, String), tpiin::Error> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| daemon_err(addr, format!("connect: {e}")))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .ok();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: tpiin\r\n\r\n").as_bytes())
        .map_err(|e| daemon_err(addr, format!("send {path}: {e}")))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| daemon_err(addr, format!("read {path}: {e}")))?;
    let code: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| daemon_err(addr, format!("malformed response to {path}")))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((code, body))
}

fn daemon_json(addr: &str, path: &str) -> Result<(u16, tpiin_io::json::Json), tpiin::Error> {
    let (code, body) = daemon_get(addr, path)?;
    let json = tpiin_io::json::Json::parse(&body)
        .map_err(|e| daemon_err(addr, format!("{path} returned unparseable JSON: {e}")))?;
    Ok((code, json))
}

/// Eight-level unicode sparkline, scaled to the series' own maximum.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|v| {
            if max > 0.0 {
                BARS[(((v / max) * 7.0).round() as usize).min(7)]
            } else {
                BARS[0]
            }
        })
        .collect()
}

/// The `value` column of a `/timeline` series response, oldest first.
fn series_values(json: &tpiin_io::json::Json) -> Vec<f64> {
    let Some(tpiin_io::json::Json::Array(points)) = json.get("points") else {
        return Vec::new();
    };
    points
        .iter()
        .filter_map(|p| p.get("value").and_then(tpiin_io::json::Json::as_f64))
        .collect()
}

/// Builds the dashboard `tpiin health` prints, one poll of the daemon.
fn health_report(addr: &str) -> Result<String, tpiin::Error> {
    use std::fmt::Write as _;
    use tpiin_io::json::Json;
    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("?").to_string();

    let (code, status) = daemon_json(addr, "/status")?;
    if code != 200 {
        return Err(daemon_err(addr, format!("/status answered {code}")));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tpiin daemon at {addr} — health {}",
        text(&status, "health").to_uppercase()
    );
    let _ = writeln!(
        out,
        "  epoch {:.0}, uptime {:.0}s, workers {:.0}/{:.0} busy, queued {:.0}/{:.0}, shed {:.0}, reloads {:.0}",
        num(&status, "epoch"),
        num(&status, "uptime_secs"),
        num(&status, "busy_workers"),
        num(&status, "workers"),
        num(&status, "queued_requests"),
        num(&status, "queue_capacity"),
        num(&status, "shed_requests"),
        num(&status, "reloads"),
    );

    let (code, alerts) = daemon_json(addr, "/alerts")?;
    if code == 200 {
        let _ = writeln!(
            out,
            "\nalerts (worst {}, tick {:.0}):",
            text(&alerts, "worst"),
            num(&alerts, "last_tick")
        );
        if let Some(Json::Array(items)) = alerts.get("alerts") {
            for alert in items {
                let _ = writeln!(
                    out,
                    "  {:<5} {:<26} burn {:>6.2}/{:<6.2} {}",
                    text(alert, "state"),
                    text(alert, "name"),
                    num(alert, "burn_short"),
                    num(alert, "burn_long"),
                    text(alert, "objective"),
                );
            }
        }
    } else {
        let _ = writeln!(out, "\nalerts: telemetry recorder disabled");
    }

    let (code, index) = daemon_json(addr, "/timeline")?;
    if code == 200 {
        let last_tick = num(&index, "last_tick") as u64;
        let since = last_tick.saturating_sub(60);
        let _ = writeln!(out, "\ntimeline (ticks {since}..{last_tick}):");
        let names: Vec<String> = match index.get("metrics") {
            Some(Json::Array(items)) => items
                .iter()
                .filter_map(|m| m.as_str().map(str::to_string))
                .collect(),
            _ => Vec::new(),
        };
        // Request rates: per-tick deltas of the cumulative counters.
        for name in names.iter().filter(|n| n.starts_with("serve.requests.")) {
            let (code, series) =
                daemon_json(addr, &format!("/timeline?metric={name}&since={since}"))?;
            if code != 200 {
                continue;
            }
            let values = series_values(&series);
            let deltas: Vec<f64> = values.windows(2).map(|w| (w[1] - w[0]).max(0.0)).collect();
            if deltas.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<36} {}  Δ{:.0}/tick",
                name,
                sparkline(&deltas),
                deltas.last().copied().unwrap_or(0.0)
            );
        }
        // p99 latency, derived from the histogram bucket deltas.
        for name in names.iter().filter(|n| n.starts_with("serve.latency.")) {
            let metric = format!("{name}.p99_ns");
            let (code, series) =
                daemon_json(addr, &format!("/timeline?metric={metric}&since={since}"))?;
            if code != 200 {
                continue;
            }
            let values = series_values(&series);
            let Some(last) = values.last().copied() else {
                continue;
            };
            let _ = writeln!(
                out,
                "  {:<36} {}  p99 {:.1}ms",
                metric,
                sparkline(&values),
                last / 1e6
            );
        }
    }

    let (code, slowlog) = daemon_json(addr, "/slowlog")?;
    if code == 200 {
        let _ = writeln!(
            out,
            "\nslowlog (threshold {:.0}ms, {:.0} captured):",
            num(&slowlog, "threshold_ms"),
            num(&slowlog, "count")
        );
        match slowlog.get("entries") {
            Some(Json::Array(entries)) if !entries.is_empty() => {
                // Newest last in the ring; show the most recent ten.
                let skip = entries.len().saturating_sub(10);
                for entry in entries.iter().skip(skip) {
                    let _ = writeln!(
                        out,
                        "  +{:>8.1}s  {:<20} {:>3.0}  epoch {:<3.0} {:>8.1}ms  {}",
                        num(entry, "at_secs"),
                        text(entry, "endpoint"),
                        num(entry, "status"),
                        num(entry, "epoch"),
                        num(entry, "latency_ms"),
                        entry
                            .get("trace_url")
                            .and_then(Json::as_str)
                            .unwrap_or("(trace off)"),
                    );
                }
            }
            _ => {
                let _ = writeln!(out, "  (no request over the threshold yet)");
            }
        }
    }
    Ok(out)
}

/// `tpiin company` — the Fig. 17/18 investment-tree view.
pub fn company(opts: &Options) -> Result<(), tpiin::Error> {
    let label = opts
        .company
        .as_deref()
        .ok_or_else(|| tpiin::Error::Usage("company requires --company LABEL".into()))?;
    let (registry, _) = province(opts);
    let id = registry
        .company_by_name(label)
        .ok_or_else(|| tpiin::Error::Usage(format!("no company named `{label}`")))?;
    print!(
        "{}",
        tpiin_io::company_tree::investment_tree(&registry, id, 5)
    );
    Ok(())
}

/// `tpiin analyze` — Fig. 19: preliminary analysis of one company.  Shows
/// its controlling persons and affiliates, its suspicious trading
/// relationships with proof chains, and the ALP screening of the detail
/// transactions behind them.
pub fn analyze(opts: &Options) -> Result<(), tpiin::Error> {
    let label = opts
        .company
        .as_deref()
        .ok_or_else(|| tpiin::Error::Usage("analyze requires --company LABEL".into()))?;
    let (registry, _) = traded_province(opts);
    let company_id = registry
        .company_by_name(label)
        .ok_or_else(|| tpiin::Error::Usage(format!("no company named `{label}`")))?;

    println!("# Investment structure (Fig. 17)");
    print!(
        "{}",
        tpiin_io::company_tree::investment_tree(&registry, company_id, 3)
    );

    let (tpiin, _) = fuse(&registry)?;
    let node = tpiin.company_node[company_id.index()];
    let msg = detector(true).detect(&tpiin);

    println!("\n# Suspicious trading relationships involving {label}");
    let arcs: Vec<_> = msg
        .suspicious_trading_arcs
        .iter()
        .filter(|&&(s, t)| s == node || t == node)
        .copied()
        .collect();
    if arcs.is_empty() {
        println!("(none — {label} is not party to any suspicious relationship)");
        return Ok(());
    }
    for &(s, t) in &arcs {
        println!("- {} -> {}", tpiin.label(s), tpiin.label(t));
    }

    println!("\n# Proof chains (first {} groups)", opts.top);
    let groups: Vec<_> = msg
        .groups
        .iter()
        .filter(|g| g.trading_arc.0 == node || g.trading_arc.1 == node)
        .take(opts.top)
        .collect();
    for group in &groups {
        println!("- {}", group.explain(&tpiin));
    }

    println!("\n# ALP screening of the detail transactions (ITE phase)");
    let scope = tpiin_ite::ScreeningScope::from_msg(&tpiin, &msg);
    let tpiin_ite::ScreeningScope::SuspiciousArcs(ref pairs) = scope else {
        unreachable!();
    };
    let gen = tpiin_ite::generator::generate_transactions(
        &registry,
        pairs,
        &tpiin_ite::generator::TransactionGenConfig {
            seed: opts.seed,
            ..Default::default()
        },
    );
    let market = tpiin_ite::MarketModel::estimate(&gen.db);
    let (findings, _) = tpiin_ite::ItePhase::default().screen(&gen.db, &market, &scope);
    let mine: Vec<_> = findings
        .iter()
        .filter(|f| {
            let tx = gen.db.get(f.transaction);
            tx.seller == company_id || tx.buyer == company_id
        })
        .collect();
    if mine.is_empty() {
        println!("(no transaction of {label} deviates from the arm's-length principle)");
    }
    for f in mine.iter().take(opts.top) {
        let tx = gen.db.get(f.transaction);
        let methods: Vec<String> = f.methods.iter().map(|m| m.to_string()).collect();
        println!(
            "- {} -> {}: {:.0} units at {:.2} ({}), understated revenue {:.0}",
            registry.company(tx.seller).name,
            registry.company(tx.buyer).name,
            tx.quantity,
            tx.unit_price,
            methods.join("+"),
            f.understated_revenue
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `tpiin health` against a live daemon: the dashboard must carry
    /// the health verdict, the alert table, at least one request-rate
    /// sparkline and a slowlog entry linking to its trace.
    #[test]
    fn health_report_renders_a_live_daemon() {
        let (tpiin, _) = fuse(&fig7_registry()).expect("fig7 fuses");
        let config = tpiin_serve::ServeConfig {
            telemetry_tick: std::time::Duration::from_millis(25),
            // Zero threshold: every request becomes a slowlog exemplar,
            // so the slowlog section renders deterministically.
            slowlog_threshold: std::time::Duration::ZERO,
            ..Default::default()
        };
        let handle = tpiin_serve::ServerHandle::bind(tpiin, config).expect("bind");
        let addr = handle.addr().to_string();

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let (code, _) = daemon_get(&addr, "/groups").expect("daemon reachable");
            assert_eq!(code, 200);
            let report = health_report(&addr).expect("health report");
            // Sparklines need two recorder samples of the counter; poll
            // until the recorder catches up.
            if report.contains("serve.requests.groups") {
                assert!(report.contains("health OK"), "{report}");
                assert!(report.contains("alerts (worst ok"), "{report}");
                assert!(report.contains("Δ"), "rate sparkline missing: {report}");
                assert!(report.contains("slowlog (threshold 0ms"), "{report}");
                assert!(
                    report.contains("/trace/"),
                    "slowlog trace link missing: {report}"
                );
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "recorder never sampled the counters: {report}"
            );
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        handle.shutdown();

        // An unreachable daemon is a clean `Daemon` error, not a panic.
        let err = health_report("127.0.0.1:1").expect_err("nothing listens on port 1");
        assert!(matches!(err, tpiin::Error::Daemon { .. }), "{err:?}");
    }
}
