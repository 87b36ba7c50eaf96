//! End-to-end smoke tests driving the compiled `tpiin` binary.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_tpiin"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_lists_commands() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    for cmd in ["table1", "worked-example", "cases", "query", "report"] {
        assert!(stdout.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn worked_example_prints_fifteen_patterns_and_three_groups() {
    let (stdout, _, ok) = run(&["worked-example"]);
    assert!(ok);
    assert!(stdout.contains("15. "), "{stdout}");
    assert_eq!(stdout.matches("group (").count(), 3, "{stdout}");
    assert!(stdout.contains("L6+LB"));
}

#[test]
fn cases_reports_all_three() {
    let (stdout, _, ok) = run(&["cases"]);
    assert!(ok);
    assert!(stdout.contains("Case 1"));
    assert!(stdout.contains("Case 2"));
    assert!(stdout.contains("Case 3"));
    assert!(stdout.contains("25.52M RMB"));
}

#[test]
fn table1_small_sweep_with_verification() {
    let (stdout, _, ok) = run(&["table1", "--scale", "0.2", "--probs", "0.004", "--verify"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("100%"), "verification column: {stdout}");
}

#[test]
fn stats_prints_all_stages() {
    let (stdout, _, ok) = run(&["stats", "--scale", "0.2"]);
    assert!(ok);
    for stage in ["G1", "G2", "G123", "TPIIN", "segmentation"] {
        assert!(stdout.contains(stage), "{stdout}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn save_then_import_roundtrip() {
    let dir = std::env::temp_dir().join(format!("tpiin-cli-smoke-{}", std::process::id()));
    let dir_str = dir.to_str().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let (_, _, ok) = run(&["save-province", "--scale", "0.1", "--dir", dir_str]);
    assert!(ok);
    let (stdout, _, ok) = run(&["import", "--dir", dir_str]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("suspicious groups"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `save-snapshot` writes a TPIINBIN file; a line-oriented text file
/// from an older build is refused when `serve` starts, with the typed
/// reader error and the file-trouble exit code, before anything binds.
#[test]
fn snapshots_are_tpiinbin_and_serve_refuses_a_text_file() {
    let dir = std::env::temp_dir().join(format!("tpiin-cli-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fig7 = dir.join("fig7.tpiin");
    let (stdout, stderr, ok) = run(&["save-snapshot", "--out", fig7.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("wrote snapshot of 15 nodes"), "{stdout}");
    assert!(std::fs::read(&fig7).unwrap().starts_with(b"TPIINBIN"));

    let legacy = dir.join("legacy.tpiin");
    std::fs::write(&legacy, "nodes 1\nP L1 0\narcs 0 0\nintra 0\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tpiin"))
        .args(["serve", "--addr", "127.0.0.1:0", "--snapshot"])
        .arg(&legacy)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(stderr.contains("not a TPIINBIN snapshot"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn export_graphml_emits_xml() {
    let (stdout, _, ok) = run(&["export-graphml", "--scale", "0.05"]);
    assert!(ok);
    assert!(stdout.starts_with("<?xml"));
    assert!(stdout.contains("</graphml>"));
}

#[test]
fn two_phase_reports_both_scopes() {
    let (stdout, _, ok) = run(&["two-phase", "--scale", "0.2"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("one-by-one"), "{stdout}");
    assert!(stdout.contains("two-phase"), "{stdout}");
    assert!(stdout.contains("recall"), "{stdout}");
}

#[test]
fn company_view_renders_a_tree() {
    let (stdout, _, ok) = run(&["company", "--company", "C0", "--scale", "0.1"]);
    assert!(ok, "{stdout}");
    assert!(stdout.starts_with("C0"), "{stdout}");
    assert!(stdout.contains("LP:"), "{stdout}");
}

#[test]
fn analyze_handles_companies_without_findings() {
    // C-last is a singleton cluster company: cannot be suspicious.
    let (stdout, _, ok) = run(&["analyze", "--company", "C244", "--scale", "0.1"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Investment structure"), "{stdout}");
}

#[test]
fn missing_required_flags_error_cleanly() {
    for args in [
        vec!["company"],
        vec!["analyze"],
        vec!["query"],
        vec!["import"],
        vec!["report"],
        vec!["save-province"],
    ] {
        let (_, stderr, ok) = run(&args);
        assert!(!ok, "{args:?} should fail");
        assert!(stderr.contains("requires"), "{args:?}: {stderr}");
    }
}

#[test]
fn query_without_match_is_not_an_error() {
    let (stdout, _, ok) = run(&["query", "--scale", "0.1", "--arc", "C0,C1"]);
    assert!(ok, "{stdout}");
}

#[test]
fn profile_flag_prints_phase_timing_table() {
    let (stdout, stderr, ok) = run(&["worked-example", "--profile"]);
    assert!(ok, "{stderr}");
    // Normal output is untouched; the table goes to stderr.
    assert!(stdout.contains("L6+LB"));
    assert!(stderr.contains("# phase timings"), "{stderr}");
    for phase in ["fusion", "  validate", "detect", "  segment"] {
        assert!(stderr.contains(phase), "missing {phase:?} in:\n{stderr}");
    }
}

#[test]
fn metrics_out_writes_parseable_profile_json() {
    let path = std::env::temp_dir().join(format!("tpiin-metrics-{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    let _ = std::fs::remove_file(&path);
    let (_, stderr, ok) = run(&["detect", "--scale", "0.2", "--metrics-out", path_str]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("profile file written");
    let json = tpiin_io::json::Json::parse(&text).expect("profile is valid JSON");
    assert!(json.get("phases").is_some());
    assert!(json.get("counters").is_some());
    // Every fusion stage and detection phase appears with a nonzero
    // duration (paths are recorded in the flat text, durations in the
    // parsed tree).
    for phase in [
        "fusion/validate",
        "fusion/contract_persons",
        "fusion/contract_sccs",
        "fusion/attach_trading",
        "fusion/verify_dag",
        "detect/segment",
        "detect/build_tree",
        "detect/match_patterns",
        "detect/score",
    ] {
        assert!(text.contains(&format!("\"path\": \"{phase}\"")), "{phase}");
    }
    fn all_phase_totals(node: &tpiin_io::json::Json, out: &mut Vec<(String, f64)>) {
        let path = node.get("path").and_then(|p| p.as_str());
        let total = node.get("total_ns").and_then(|t| t.as_f64());
        if let (Some(path), Some(total)) = (path, total) {
            out.push((path.to_string(), total));
        }
        if let Some(tpiin_io::json::Json::Array(children)) = node.get("children") {
            for child in children {
                all_phase_totals(child, out);
            }
        }
    }
    let mut totals = Vec::new();
    if let Some(tpiin_io::json::Json::Array(roots)) = json.get("phases") {
        for root in roots {
            all_phase_totals(root, &mut totals);
        }
    }
    for (path, total) in &totals {
        assert!(*total > 0.0, "phase {path} has zero duration");
    }
    assert!(totals.iter().any(|(p, _)| p == "fusion/validate"));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn explain_prints_an_audited_provenance_chain() {
    let (stdout, stderr, ok) = run(&["explain", "0"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("rule: Rule 1"), "{stdout}");
    assert!(stdout.contains("record #"), "{stdout}");
    assert!(stdout.contains("(influence feed)"), "{stdout}");
    assert!(stdout.contains("(trading feed)"), "{stdout}");
    assert!(stdout.contains("score: chain"), "{stdout}");
    assert!(
        stdout.contains("audit: every referenced node and arc exists in the TPIIN"),
        "{stdout}"
    );

    // Without an id the groups are listed for picking.
    let (stdout, _, ok) = run(&["explain"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("3 groups mined"), "{stdout}");
    assert!(stdout.contains("[  0]"), "{stdout}");

    // Out-of-range and malformed ids fail cleanly.
    let (_, stderr, ok) = run(&["explain", "99"]);
    assert!(!ok);
    assert!(stderr.contains("no group 99"), "{stderr}");
    let (_, stderr, ok) = run(&["explain", "zebra"]);
    assert!(!ok);
    assert!(stderr.contains("bad group id"), "{stderr}");
}

#[test]
fn detect_runs_every_requested_miner_strategy() {
    let (stdout, stderr, ok) = run(&[
        "detect", "--scale", "0.1", "--miner", "rules", "--miner", "circular",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("[rules] detected"), "{stdout}");
    assert!(stdout.contains("[circular] detected"), "{stdout}");
    assert!(!stdout.contains("truncated"), "{stdout}");

    // A dense lane holds more rings than the circular miner's budget:
    // the headline says the list stops there.
    let (stdout, stderr, ok) = run(&[
        "detect", "--scale", "0.1", "--probs", "0.05", "--miner", "circular",
    ]);
    assert!(ok, "{stderr}");
    let headline = stdout.lines().next().unwrap_or_default();
    assert!(
        headline.starts_with("[circular] detected 100000 groups")
            && headline.ends_with("; truncated: budget spent"),
        "{stdout}"
    );

    let (_, stderr, ok) = run(&["detect", "--scale", "0.1", "--miner", "zebra"]);
    assert!(!ok);
    assert!(stderr.contains("zebra"), "{stderr}");
}

#[test]
fn detect_top_zero_prints_no_group() {
    let (stdout, stderr, ok) = run(&["detect", "--scale", "0.1", "--top", "0"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("top 0 groups by score:"), "{stdout}");
    assert!(!stdout.lines().any(|l| l.starts_with("  [")), "{stdout}");

    let (stdout, stderr, ok) = run(&["detect", "--scale", "0.1", "--top", "3"]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout.lines().filter(|l| l.starts_with("  [")).count(), 3);
}

#[test]
fn explain_names_the_owning_miner_and_rejects_provenance_less_miners() {
    let (stdout, _, ok) = run(&["explain", "0"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("(miner `rules`)"), "{stdout}");

    // The baseline oracle mines the same groups but has no provenance
    // hook: a clear error, not a panic or an empty chain.
    let (_, stderr, ok) = run(&["explain", "0", "--miner", "baseline"]);
    assert!(!ok);
    assert!(stderr.contains("no provenance hook"), "{stderr}");
    assert!(stderr.contains("baseline"), "{stderr}");
}

#[test]
fn trace_out_exports_one_trace_spanning_cli_pipeline_detector() {
    let path = std::env::temp_dir().join(format!("tpiin-trace-{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    let _ = std::fs::remove_file(&path);
    let (stdout, stderr, ok) = run(&["worked-example", "--trace-out", path_str]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("L6+LB"), "normal output untouched");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let json = tpiin_io::json::Json::parse(&text).expect("trace is valid JSON");

    // One trace id covers CLI dispatch, the fusion pipeline and the
    // detector: every span lives in the same file under that id, and
    // the id the CLI reported on stderr matches.
    let id = json
        .get("traceId")
        .and_then(|v| v.as_str())
        .expect("traceId present");
    assert!(
        id.len() == 32 && id.chars().all(|c| c.is_ascii_hexdigit()),
        "trace id is 32 hex digits: {id}"
    );
    assert!(stderr.contains(id), "stderr names the trace id: {stderr}");
    assert!(
        json.get("displayTimeUnit")
            .and_then(|v| v.as_str())
            .is_some(),
        "displayTimeUnit missing: {text}"
    );
    let Some(tpiin_io::json::Json::Array(events)) = json.get("traceEvents") else {
        panic!("traceEvents array missing: {text}");
    };
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for expected in [
        "cli/worked-example",
        "fusion",
        "fusion/validate",
        "detect",
        "detect/build_tree",
        "detect/match_patterns",
    ] {
        assert!(names.contains(&expected), "{expected} missing: {names:?}");
    }
    // Chrome trace_event schema: named complete events with a string
    // `cat`, non-negative ts/dur and numeric pid/tid.
    for event in events {
        let name = event.get("name").and_then(|n| n.as_str()).unwrap_or("");
        assert!(!name.is_empty(), "unnamed event: {text}");
        assert_eq!(
            event.get("ph").and_then(|v| v.as_str()),
            Some("X"),
            "{name}"
        );
        assert!(
            event.get("cat").and_then(|v| v.as_str()).is_some(),
            "{name}"
        );
        for field in ["ts", "dur"] {
            let value = event.get(field).and_then(|v| v.as_f64());
            assert!(
                value.is_some_and(|v| v >= 0.0),
                "{name}: {field} = {value:?}"
            );
        }
        for field in ["pid", "tid"] {
            assert!(
                event.get(field).and_then(|v| v.as_f64()).is_some(),
                "{name}: {field}"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bad_log_level_is_rejected() {
    let (_, stderr, ok) = run(&["detect", "--scale", "0.1", "--log-level", "loud"]);
    assert!(!ok);
    assert!(stderr.contains("unknown log level"), "{stderr}");
}

#[test]
fn log_level_debug_emits_stage_logs() {
    let (_, stderr, ok) = run(&["worked-example", "--log-level", "debug"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("contract_persons"), "{stderr}");
    assert!(stderr.contains("[debug]"), "{stderr}");
}
