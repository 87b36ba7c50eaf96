//! Algorithm 1's output files and a machine-readable summary.
//!
//! The paper's Algorithm 1 returns, for every subTPIIN `i`, a file
//! `susGroup(i)` with all suspicious groups and a file `susTrade(i)` with
//! all suspicious trading arcs.  [`write_reports`] reproduces that layout
//! (tab-separated, one record per line, labelled via the TPIIN), and adds
//! `summary.json` with the Table 1 counters for downstream dashboards.

use crate::error::IoError;
use crate::json::Json;
use std::path::Path;
use tpiin_core::{DetectionResult, GroupKind, GroupRef};
use tpiin_fusion::Tpiin;
use tpiin_graph::NodeId;

fn labels(tpiin: &Tpiin, nodes: &[NodeId]) -> String {
    nodes
        .iter()
        .map(|&n| tpiin.label(n))
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders one `susGroup(i)` file from subTPIIN `i`'s groups, in result
/// order: columns
/// `kind  antecedent  trading_arc  members  trail_with_trade  trail_plain  simple`.
pub fn render_sus_group<'a>(
    tpiin: &Tpiin,
    groups: impl IntoIterator<Item = GroupRef<'a>>,
) -> String {
    let mut out = String::from(
        "#kind\tantecedent\ttrading_arc\tmembers\ttrail_with_trade\ttrail_plain\tsimple\n",
    );
    for group in groups {
        let members: Vec<String> = group
            .members()
            .into_iter()
            .map(|n| tpiin.label(n).to_string())
            .collect();
        out.push_str(&format!(
            "{}\t{}\t{}->{}\t{}\t{}\t{}\t{}\n",
            match group.kind {
                GroupKind::Matched => "matched",
                GroupKind::Circle => "circle",
            },
            tpiin.label(group.antecedent),
            tpiin.label(group.trading_arc.0),
            tpiin.label(group.trading_arc.1),
            members.join(","),
            labels(tpiin, &group.trail_with_trade),
            labels(tpiin, &group.trail_plain),
            group.simple,
        ));
    }
    out
}

/// Renders one `susTrade(i)` file from subTPIIN `i`'s groups: their
/// distinct suspicious trading arcs, sorted, columns `seller  buyer`.
pub fn render_sus_trade<'a>(
    tpiin: &Tpiin,
    groups: impl IntoIterator<Item = GroupRef<'a>>,
) -> String {
    let mut arcs: Vec<(NodeId, NodeId)> = groups.into_iter().map(|g| g.trading_arc).collect();
    arcs.sort();
    arcs.dedup();
    let mut out = String::from("#seller\tbuyer\n");
    for (s, t) in arcs {
        out.push_str(&format!("{}\t{}\n", tpiin.label(s), tpiin.label(t)));
    }
    out
}

/// Builds the `summary.json` document.
pub fn summary_json(result: &DetectionResult) -> Json {
    Json::Object(vec![
        (
            "complex_groups".into(),
            Json::int(result.complex_group_count),
        ),
        ("simple_groups".into(), Json::int(result.simple_group_count)),
        (
            "suspicious_trading_arcs".into(),
            Json::int(result.suspicious_trading_arcs.len()),
        ),
        (
            "total_trading_arcs".into(),
            Json::int(result.total_trading_arcs),
        ),
        (
            "suspicious_percentage".into(),
            Json::Number(result.suspicious_percentage()),
        ),
        (
            "intra_syndicate_trades".into(),
            Json::int(result.intra_syndicate_trades),
        ),
        ("overflowed".into(), Json::Bool(result.overflowed)),
        (
            "subtpiins".into(),
            Json::Array(
                result
                    .per_subtpiin
                    .iter()
                    .filter(|s| s.groups > 0)
                    .map(|s| {
                        Json::Object(vec![
                            ("index".into(), Json::int(s.index)),
                            ("nodes".into(), Json::int(s.nodes)),
                            ("trading_arcs".into(), Json::int(s.trading_arcs)),
                            ("patterns".into(), Json::int(s.patterns)),
                            ("groups".into(), Json::int(s.groups)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders an investigator-facing Markdown brief: headline counters, the
/// top-scored groups with their proof chains, and the most-involved
/// taxpayers — the hand-off document from the MSG phase to the audit
/// teams.
pub fn render_markdown(tpiin: &Tpiin, result: &DetectionResult, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "# Suspicious tax evasion groups — MSG phase brief

",
    );
    let _ = writeln!(
        out,
        "- **{}** suspicious groups ({} complex, {} simple)",
        result.group_count(),
        result.complex_group_count,
        result.simple_group_count
    );
    let _ = writeln!(
        out,
        "- **{}** of **{}** trading relationships flagged ({:.2} %)",
        result.suspicious_trading_arcs.len(),
        result.total_trading_arcs,
        result.suspicious_percentage()
    );
    if result.intra_syndicate_trades > 0 {
        let _ = writeln!(
            out,
            "- **{}** trades inside mutual-investment syndicates (suspicious by construction)",
            result.intra_syndicate_trades
        );
    }

    out.push_str(
        "
## Audit queue — top groups by weighted score

",
    );
    for (rank, (score, group)) in result.top_scored(tpiin, top).iter().enumerate() {
        let _ = writeln!(
            out,
            "{}. **score {:.0}** — {}",
            rank + 1,
            score.score,
            group.explain(tpiin)
        );
    }

    out.push_str(
        "
## Most involved taxpayers

",
    );
    out.push_str(
        "| taxpayer | groups | as antecedent | sells | buys |
",
    );
    out.push_str(
        "|---|---|---|---|---|
",
    );
    for (label, inv) in tpiin_core::top_involved(result, tpiin, top) {
        let _ = writeln!(
            out,
            "| {label} | {} | {} | {} | {} |",
            inv.groups, inv.as_antecedent, inv.as_seller, inv.as_buyer
        );
    }
    out
}

/// The result's row indices bucketed by subTPIIN in one stable counting
/// pass: subTPIIN `i`'s rows, in result order, are
/// `rows[starts[i]..starts[i + 1]]`.
fn rows_by_subtpiin(result: &DetectionResult) -> (Vec<usize>, Vec<usize>) {
    let shards = result
        .groups
        .iter()
        .map(|g| g.subtpiin + 1)
        .max()
        .unwrap_or(0);
    let mut starts = vec![0usize; shards + 1];
    for g in &result.groups {
        starts[g.subtpiin + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut next = starts.clone();
    let mut rows = vec![0usize; result.groups.len()];
    for (row, g) in result.groups.iter().enumerate() {
        rows[next[g.subtpiin]] = row;
        next[g.subtpiin] += 1;
    }
    (starts, rows)
}

/// Writes the full report layout into `dir`:
/// `susGroup_<i>.tsv` and `susTrade_<i>.tsv` for every subTPIIN that
/// produced groups, plus `summary.json`.  Requires a result collected
/// with `collect_groups: true`.
pub fn write_reports(
    tpiin: &Tpiin,
    result: &DetectionResult,
    dir: &Path,
) -> Result<usize, IoError> {
    std::fs::create_dir_all(dir).map_err(|e| IoError::fs(dir, e))?;
    let mut written = 0usize;
    let (starts, rows) = rows_by_subtpiin(result);
    for (i, bucket) in starts.windows(2).enumerate() {
        let bucket = &rows[bucket[0]..bucket[1]];
        if bucket.is_empty() {
            continue;
        }
        let groups = || bucket.iter().map(|&row| result.groups.row(row));
        let group_path = dir.join(format!("susGroup_{i}.tsv"));
        std::fs::write(&group_path, render_sus_group(tpiin, groups()))
            .map_err(|e| IoError::fs(&group_path, e))?;
        let trade_path = dir.join(format!("susTrade_{i}.tsv"));
        std::fs::write(&trade_path, render_sus_trade(tpiin, groups()))
            .map_err(|e| IoError::fs(&trade_path, e))?;
        written += 2;
    }
    let summary_path = dir.join("summary.json");
    std::fs::write(&summary_path, summary_json(result).to_pretty())
        .map_err(|e| IoError::fs(&summary_path, e))?;
    let brief_path = dir.join("brief.md");
    std::fs::write(&brief_path, render_markdown(tpiin, result, 10))
        .map_err(|e| IoError::fs(&brief_path, e))?;
    Ok(written + 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tpiin_core::detect;

    fn fig7() -> (Tpiin, DetectionResult) {
        let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
        let result = detect(&tpiin);
        (tpiin, result)
    }

    #[test]
    fn sus_group_file_lists_all_groups_with_labels() {
        let (tpiin, result) = fig7();
        let text = render_sus_group(&tpiin, &result.groups);
        assert_eq!(text.lines().count(), 1 + result.group_count());
        assert!(text.contains("L6+LB"), "{text}");
        assert!(text.contains("C3->C5"), "{text}");
    }

    #[test]
    fn sus_trade_file_deduplicates_arcs() {
        let (tpiin, result) = fig7();
        let text = render_sus_trade(&tpiin, &result.groups);
        // Three distinct suspicious arcs in the worked example.
        assert_eq!(text.lines().count(), 1 + 3);
    }

    #[test]
    fn summary_json_counts_match() {
        let (_, result) = fig7();
        let json = summary_json(&result).to_string();
        assert!(json.contains("\"simple_groups\":3"), "{json}");
        assert!(json.contains("\"suspicious_trading_arcs\":3"), "{json}");
        assert!(json.contains("\"total_trading_arcs\":5"), "{json}");
    }

    #[test]
    fn markdown_brief_contains_queue_and_involvement() {
        let (tpiin, result) = fig7();
        let text = render_markdown(&tpiin, &result, 5);
        assert!(
            text.starts_with("# Suspicious tax evasion groups"),
            "{text}"
        );
        assert!(text.contains("**3** suspicious groups"), "{text}");
        assert!(text.contains("Audit queue"), "{text}");
        assert!(text.contains("| C5 | 2 |"), "C5 is in two groups: {text}");
        assert!(text.contains("L6+LB"), "{text}");
    }

    /// The per-subTPIIN files as they were rendered before bucketing:
    /// each re-filters the whole group list for its subTPIIN.
    fn filtered_reference(tpiin: &Tpiin, result: &DetectionResult, i: usize) -> [String; 2] {
        let shard = || result.groups.iter().filter(move |g| g.subtpiin == i);
        [
            render_sus_group(tpiin, shard()),
            render_sus_trade(tpiin, shard()),
        ]
    }

    #[test]
    fn write_reports_creates_the_paper_layout() {
        let (tpiin, result) = fig7();
        let dir = std::env::temp_dir().join(format!("tpiin-reports-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let files = write_reports(&tpiin, &result, &dir).unwrap();
        assert_eq!(files, 4, "susGroup_0, susTrade_0, summary.json, brief.md");
        assert!(dir.join("susGroup_0.tsv").exists());
        assert!(dir.join("susTrade_0.tsv").exists());
        assert!(dir.join("summary.json").exists());
        assert!(dir.join("brief.md").exists());
        std::fs::remove_dir_all(&dir).unwrap();

        // Many shards: every file is byte-identical to the per-shard
        // filter's, and exactly the shards with groups get files.
        let (nation, _) = tpiin_fusion::fuse(&tpiin_datagen::generate_nation_with(
            &tpiin_datagen::NationConfig::scaled(0.1),
        ))
        .unwrap();
        let result = detect(&nation);
        let _ = std::fs::remove_dir_all(&dir);
        let files = write_reports(&nation, &result, &dir).unwrap();
        let with_groups: BTreeSet<usize> = result.groups.iter().map(|g| g.subtpiin).collect();
        assert!(with_groups.len() > 1, "a multi-shard input");
        assert_eq!(files, 2 * with_groups.len() + 2);
        for i in 0..result.per_subtpiin.len() {
            let read = |name: &str| std::fs::read_to_string(dir.join(format!("{name}_{i}.tsv")));
            if with_groups.contains(&i) {
                let written = [read("susGroup").unwrap(), read("susTrade").unwrap()];
                assert_eq!(
                    written,
                    filtered_reference(&nation, &result, i),
                    "subTPIIN {i}"
                );
            } else {
                assert!(read("susGroup").is_err(), "subTPIIN {i} has no groups");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
