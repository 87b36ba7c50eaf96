//! End-to-end tests against a live daemon on an ephemeral port: offline
//! equivalence of the ancestor-cone query, concurrent clients racing a
//! hot reload, load-shedding under saturation, and resilience to
//! malformed bytes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tpiin_core::{detect, groups_behind_arc};
use tpiin_datagen::fig7_registry;
use tpiin_fusion::{fuse, Tpiin};
use tpiin_serve::{responses, ServeConfig, ServerHandle};

fn fig7() -> Tpiin {
    let (tpiin, _) = fuse(&fig7_registry()).expect("fig7 registry fuses");
    tpiin
}

/// One blocking request over a fresh connection; returns the status
/// line and the body (after the blank line).
fn request(addr: SocketAddr, raw: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// Like [`get`] but keeps the raw header block: `(status, head, body)`.
fn get_with_headers(addr: SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or_default().to_string();
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or(("", ""));
    (status, head.to_string(), body.to_string())
}

/// The `x-tpiin-trace` header value, if the response carried one.
fn trace_id_of(head: &str) -> Option<String> {
    head.lines()
        .find_map(|line| line.strip_prefix("x-tpiin-trace: "))
        .map(str::to_string)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn arc_query_matches_offline_pipeline_bit_for_bit() {
    let tpiin = fig7();
    let detection = detect(&tpiin);
    let handle = ServerHandle::bind(tpiin.clone(), ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    // Every suspicious arc the offline pipeline found must come back
    // from the daemon with the exact bytes the response builder
    // produces over the same TPIIN at epoch 1.
    assert!(!detection.suspicious_trading_arcs.is_empty());
    for &(src, dst) in &detection.suspicious_trading_arcs {
        let groups = groups_behind_arc(&tpiin, src, dst);
        let expected = responses::arc_query_json(&tpiin, 1, src, dst, &groups).to_string();
        let path = format!(
            "/groups_behind_arc?src={}&dst={}",
            tpiin.label(src),
            tpiin.label(dst)
        );
        let (status, body) = get(addr, &path);
        assert_eq!(status, "HTTP/1.1 200 OK", "{path}");
        assert_eq!(body, expected, "{path} diverged from offline pipeline");
    }

    let (status, _) = get(addr, "/groups_behind_arc?src=C1&dst=nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    handle.shutdown();
}

#[test]
fn concurrent_clients_survive_hot_reload_without_lost_responses() {
    let tpiin = fig7();
    let path: PathBuf = std::env::temp_dir().join(format!(
        "tpiin-serve-reload-{}-{:?}.tpiin",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, tpiin_io::snapshot::write_snapshot(&tpiin)).expect("write snapshot");

    let config = ServeConfig {
        workers: 4,
        queue_capacity: 256,
        snapshot_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let handle = ServerHandle::bind(tpiin.clone(), config).expect("bind");
    let addr = handle.addr();
    let arc = *detect(&tpiin)
        .suspicious_trading_arcs
        .iter()
        .next()
        .expect("fig7 has suspicious arcs");
    let query = format!(
        "/groups_behind_arc?src={}&dst={}",
        tpiin.label(arc.0),
        tpiin.label(arc.1)
    );

    const CLIENTS: usize = 8;
    const REQUESTS: usize = 25;
    let answered = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let query = &query;
                scope.spawn(move || {
                    let mut ok = 0;
                    for r in 0..REQUESTS {
                        let path = if (i + r) % 2 == 0 {
                            query.as_str()
                        } else {
                            "/groups"
                        };
                        let (status, body) = get(addr, path);
                        assert_eq!(status, "HTTP/1.1 200 OK", "client {i} request {r}");
                        assert!(body.contains("\"epoch\":"), "client {i} got truncated body");
                        ok += 1;
                    }
                    ok
                })
            })
            .collect();
        // Swap snapshots underneath the readers a few times.
        for _ in 0..3 {
            let (status, body) = post(addr, "/reload", "");
            assert_eq!(status, "HTTP/1.1 200 OK", "reload failed: {body}");
            std::thread::sleep(Duration::from_millis(5));
        }
        readers
            .into_iter()
            .map(|r| r.join().expect("client"))
            .sum::<usize>()
    });
    assert_eq!(answered, CLIENTS * REQUESTS, "lost responses during reload");

    // Reloads advanced the epoch; readers kept answering throughout.
    let (_, health) = get(addr, "/healthz");
    assert!(
        health.contains("\"epoch\":4"),
        "unexpected health: {health}"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn saturated_daemon_sheds_load_with_503() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        request_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let handle = ServerHandle::bind(fig7(), config).expect("bind");
    let addr = handle.addr();

    // Idle connections pin the single worker (blocked reading) and fill
    // the one queue slot; later arrivals must be shed with a 503 rather
    // than queued without bound or silently dropped.
    let idle: Vec<TcpStream> = (0..6)
        .map(|_| {
            let stream = TcpStream::connect(addr).expect("connect");
            std::thread::sleep(Duration::from_millis(30));
            stream
        })
        .collect();

    let mut shed = 0;
    for mut stream in idle {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut response = String::new();
        if stream.read_to_string(&mut response).is_ok() && response.starts_with("HTTP/1.1 503") {
            shed += 1;
            // Every shed response tells the client when to come back,
            // scaled to the backlog the daemon is looking at.
            let retry = response
                .lines()
                .find_map(|line| line.strip_prefix("Retry-After: "))
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or_else(|| panic!("503 without usable Retry-After: {response:?}"));
            assert!((1..=30).contains(&retry), "implausible Retry-After {retry}");
        }
    }
    assert!(shed >= 1, "no connection was shed under saturation");

    // The daemon recovers once the pile-up clears.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    handle.shutdown();
}

#[test]
fn every_request_is_traced_and_replayable() {
    let handle = ServerHandle::bind(fig7(), ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    // Every response carries its trace id.
    let (status, head, _) = get_with_headers(addr, "/groups");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let id = trace_id_of(&head).expect("x-tpiin-trace header present");
    assert_eq!(id.len(), 32, "trace id is 32 hex digits: {id}");

    // The ring replays that request's spans as Chrome trace JSON.
    let (status, body) = get(addr, &format!("/trace/{id}"));
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"traceEvents\""), "{body}");
    assert!(body.contains(&format!("\"traceId\": \"{id}\"")), "{body}");
    assert!(
        body.contains("serve/groups"),
        "request span missing: {body}"
    );

    // Even error responses are traced.
    let (status, head, _) = get_with_headers(addr, "/no-such-endpoint");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert!(trace_id_of(&head).is_some(), "404 carries a trace id too");

    // Bad and unknown ids answer 400 / 404.
    let (status, _) = get(addr, "/trace/not-hex");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    let (status, _) = get(addr, &format!("/trace/{}", "0".repeat(32)));
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    handle.shutdown();
}

#[test]
fn tracing_off_omits_header_and_ring() {
    let config = ServeConfig {
        tracing: false,
        ..ServeConfig::default()
    };
    let handle = ServerHandle::bind(fig7(), config).expect("bind");
    let addr = handle.addr();
    let (status, head, _) = get_with_headers(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        trace_id_of(&head).is_none(),
        "tracing off must not mint ids"
    );
    handle.shutdown();
}

#[test]
fn provenance_endpoint_matches_offline_assembly() {
    let tpiin = fig7();
    let detection = detect(&tpiin);
    assert!(detection.group_count() > 0);
    let handle = ServerHandle::bind(tpiin.clone(), ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    for index in 0..detection.groups.len() {
        let (status, body) = get(addr, &format!("/groups/{index}/provenance"));
        assert_eq!(status, "HTTP/1.1 200 OK", "group {index}");
        assert!(body.contains("\"rule\":"), "group {index}: {body}");
        assert!(body.contains("\"influence_arcs\":"), "group {index}");
        // The served chain references only arcs the offline assembly
        // resolves against the same network.
        let offline = tpiin_core::Provenance::assemble(&tpiin, detection.groups.row(index));
        assert!(offline.audit(&tpiin).is_ok());
        assert!(
            body.contains(&format!(
                "\"trade_volume\":{}",
                tpiin_io::json::Json::Number(offline.score.trade_volume)
            )),
            "group {index} trade volume diverged: {body}"
        );
    }

    let (status, _) = get(addr, "/groups/999999/provenance");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let (status, _) = get(addr, "/groups/zebra/provenance");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    handle.shutdown();
}

#[test]
fn ingested_groups_get_provenance_too() {
    // Case 2 without its trades: the first ingest batch mines one new
    // group, whose provenance must be served without a full re-detect.
    let mut registry = tpiin_datagen::case2_registry();
    registry.clear_trading();
    let (clean, _) = fuse(&registry).expect("case2 fuses");
    let before = detect(&clean).group_count();
    let handle = ServerHandle::bind(clean, ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    let (status, body) = post(
        addr,
        "/ingest",
        "{\"records\": [{\"seller\": 1, \"buyer\": 2, \"volume\": 7.5}]}",
    );
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"new_group_count\":1"), "{body}");

    let (status, body) = get(addr, &format!("/groups/{before}/provenance"));
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"trade_volume\":7.5"), "{body}");
    assert!(body.contains("\"rule\":"), "{body}");
    handle.shutdown();
}

#[test]
fn groups_endpoint_filters_by_miner_and_paginates() {
    // The planted circular-trading case: no Rule 1/2 pattern, one ring.
    let (tpiin, _) = fuse(&tpiin_datagen::circular_case_registry()).expect("case fuses");
    let handle = ServerHandle::bind(tpiin, ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    // The default listing serves the primary (rules) miner.
    let (status, body) = get(addr, "/groups");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"miner\":\"rules\""), "{body}");
    assert!(body.contains("\"group_count\":0"), "{body}");

    // `miner=circular` switches to the sibling strategy's detection.
    let (status, body) = get(addr, "/groups?miner=circular");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"miner\":\"circular\""), "{body}");
    assert!(body.contains("\"group_count\":1"), "{body}");
    assert!(body.contains("\"kind\":\"circle\""), "{body}");

    // Pagination: an offset past the single group shows nothing.
    let (status, body) = get(addr, "/groups?miner=circular&limit=1&offset=1");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"shown\":0"), "{body}");

    // Typos and unknown miners are refused, not silently ignored.
    let (status, body) = get(addr, "/groups?mnier=circular");
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    assert!(body.contains("unknown query parameter"), "{body}");
    let (status, body) = get(addr, "/groups?miner=zebra");
    assert_eq!(status, "HTTP/1.1 404 Not Found", "{body}");

    // Provenance follows the miner filter; the circular miner has no
    // provenance hook, so its group answers a clear 422, not a panic.
    let (status, body) = get(addr, "/groups/0/provenance?miner=circular");
    assert_eq!(status, "HTTP/1.1 422 Unprocessable Entity", "{body}");
    assert!(body.contains("no provenance hook"), "{body}");
    let (status, _) = get(addr, "/groups/0/provenance?bogus=1");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    handle.shutdown();
}

#[test]
fn malformed_bytes_get_errors_not_panics() {
    let handle = ServerHandle::bind(fig7(), ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    let probes: [&[u8]; 6] = [
        b"\r\n\r\n",
        b"BOGUS\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nbroken header\r\n\r\n",
        b"POST /ingest HTTP/1.1\r\nContent-Length: 4\r\n\r\n\x00\xff\x00\xff",
        b"POST /ingest HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"records",
    ];
    for raw in probes {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(raw).expect("write");
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(
            response.starts_with("HTTP/1.1 4"),
            "expected a 4xx for {raw:?}, got {:?}",
            response.lines().next()
        );
    }

    // Oversized bodies are refused, not buffered.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"POST /ingest HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .expect("write");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 413"), "got {response:?}");

    // Still alive after all of it.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"status\":\"ok\""));
    handle.shutdown();
}

#[test]
fn status_endpoint_reports_runtime_state() {
    let handle = ServerHandle::bind(fig7(), ServeConfig::default()).expect("bind");
    let addr = handle.addr();
    let (status, body) = get(addr, "/status");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let json = tpiin_io::json::Json::parse(&body).expect("status body is JSON");
    let field = |key: &str| {
        json.get(key)
            .and_then(tpiin_io::json::Json::as_f64)
            .unwrap_or(-1.0)
    };
    assert_eq!(
        json.get("status").and_then(tpiin_io::json::Json::as_str),
        Some("ok")
    );
    assert_eq!(field("epoch"), 1.0);
    assert!(field("snapshot_bytes") > 0.0, "served network has a size");
    assert!(field("uptime_secs") >= 0.0);
    assert!(field("workers") >= 1.0);
    assert!(field("queue_capacity") >= 1.0);
    assert!(
        field("busy_workers") >= 1.0,
        "the /status request itself occupies a worker"
    );
    assert!(field("shed_requests") >= 0.0);
    assert!(field("reloads") >= 0.0);
    assert!(field("alloc_live_bytes") > 0.0);
    assert!(field("alloc_total_allocs") > 0.0);
    #[cfg(target_os = "linux")]
    assert!(field("rss_bytes") > 0.0, "kernel view present on Linux");
    handle.shutdown();
}

/// Regression: a snapshot hot-swap mid-window must clear the sliding
/// 60s `_window` twin series for the serve latency histograms (old
/// epoch's latencies must not blend into the new epoch's "now" view)
/// while the cumulative series keeps counting.
#[test]
fn reload_mid_window_resets_latency_window_series() {
    let tpiin = fig7();
    let path: PathBuf = std::env::temp_dir().join(format!(
        "tpiin-serve-window-{}-{:?}.tpiin",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, tpiin_io::snapshot::write_snapshot(&tpiin)).expect("write snapshot");
    let config = ServeConfig {
        snapshot_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let handle = ServerHandle::bind(tpiin, config).expect("bind");
    let addr = handle.addr();

    let series = |metrics: &str, name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    // No other daemon test touches /company, but /reload from a
    // concurrently running test clears every serve.latency window —
    // retry until our requests and the scrape land without one.
    let mut windowed = 0;
    let mut cumulative_before = 0;
    for _ in 0..10 {
        for _ in 0..3 {
            let (status, _) = get(addr, "/company/C3");
            assert_eq!(status, "HTTP/1.1 200 OK");
        }
        let (_, metrics) = get(addr, "/metrics");
        windowed = series(&metrics, "tpiin_serve_latency_company_window_count ");
        cumulative_before = series(&metrics, "tpiin_serve_latency_company_count ");
        if windowed >= 3 {
            break;
        }
    }
    assert!(windowed >= 3, "window counts observed requests: {windowed}");

    let (status, body) = post(addr, "/reload", "");
    assert_eq!(status, "HTTP/1.1 200 OK", "reload failed: {body}");

    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(
        series(&metrics, "tpiin_serve_latency_company_window_count "),
        0,
        "hot swap must reset the sliding window"
    );
    assert!(
        series(&metrics, "tpiin_serve_latency_company_count ") >= cumulative_before,
        "cumulative series survives the swap"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A binary zero-copy snapshot hot-swaps exactly like a text one: the
/// watcher-facing `/reload` auto-detects the format by magic, the epoch
/// advances, `/status` reports the load time, and the served groups are
/// identical to what the text snapshot produces.
#[test]
fn binary_snapshot_hot_swap_matches_text() {
    let tpiin = fig7();
    let path: PathBuf = std::env::temp_dir().join(format!(
        "tpiin-serve-bin-{}-{:?}.tpiin",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, tpiin_io::snapshot::write_snapshot(&tpiin)).expect("write snapshot");
    let config = ServeConfig {
        snapshot_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let handle = ServerHandle::bind(tpiin.clone(), config).expect("bind");
    let addr = handle.addr();
    let (_, text_groups) = get(addr, "/groups");

    // Overwrite the watched file with the binary encoding and reload.
    std::fs::write(&path, tpiin_io::snapshot_bin::write_snapshot_bin(&tpiin))
        .expect("write binary snapshot");
    let (status, body) = post(addr, "/reload", "");
    assert_eq!(status, "HTTP/1.1 200 OK", "binary reload failed: {body}");
    assert!(body.contains("\"epoch\":2"), "epoch advanced: {body}");

    let (status, body) = get(addr, "/status");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let json = tpiin_io::json::Json::parse(&body).expect("status is JSON");
    let field = |key: &str| {
        json.get(key)
            .and_then(tpiin_io::json::Json::as_f64)
            .unwrap_or(-1.0)
    };
    assert_eq!(field("epoch"), 2.0);
    assert!(
        field("snapshot_load_ms") >= 0.0,
        "load time reported: {body}"
    );

    // The binary epoch serves bit-identical groups (bar the epoch tags:
    // the served one and the one the result was mined at).
    let (status, bin_groups) = get(addr, "/groups");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        bin_groups.replace("epoch\":2", "epoch\":1"),
        text_groups,
        "binary snapshot served different groups"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// An ingest re-mines `rules` only; every other miner's result is
/// carried, and says so: `/status` and `/groups?miner=` report the epoch
/// each served result was mined at, and a reload brings them level.
#[test]
fn carried_miners_report_the_epoch_they_were_mined_at() {
    let tpiin = fig7();
    let path: PathBuf = std::env::temp_dir().join(format!(
        "tpiin-serve-mined-at-{}-{:?}.tpiin",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, tpiin_io::snapshot::write_snapshot(&tpiin)).expect("write snapshot");
    let config = ServeConfig {
        snapshot_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let handle = ServerHandle::bind(tpiin, config).expect("bind");
    let addr = handle.addr();
    let mined_at = |miner: &str| -> (f64, f64) {
        let (_, body) = get(addr, &format!("/groups?miner={miner}&limit=0"));
        assert!(
            body.find("\"group_count\"") < body.find("\"mined_at_epoch\""),
            "counters lead the body: {body}"
        );
        let groups = tpiin_io::json::Json::parse(&body).expect("groups is JSON");
        let field = |key: &str| groups.get(key).and_then(|v| v.as_f64()).expect(key);
        let (_, status) = get(addr, "/status");
        let listed = format!(
            "{{\"miner\":\"{miner}\",\"mined_at_epoch\":{}}}",
            field("mined_at_epoch")
        );
        assert!(status.contains(&listed), "{listed} not in {status}");
        (field("epoch"), field("mined_at_epoch"))
    };
    assert_eq!(mined_at("rules"), (1.0, 1.0));
    assert_eq!(mined_at("circular"), (1.0, 1.0));

    let (status, body) = post(
        addr,
        "/ingest",
        r#"{"records": [{"seller": 0, "buyer": 4, "volume": 5.0}]}"#,
    );
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert_eq!(mined_at("rules"), (2.0, 2.0));
    assert_eq!(mined_at("circular"), (2.0, 1.0), "carried since bind");

    let (status, body) = post(addr, "/reload", "");
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert_eq!(mined_at("rules"), (3.0, 3.0));
    assert_eq!(mined_at("circular"), (3.0, 3.0));
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// `MinerRegistry::from_specs` keeps request order, so after an ingest
/// the engine's Rule 1/Rule 2 result must replace the entry *named*
/// `rules` — not whichever miner happens to be served first.
#[test]
fn non_rules_primary_miner_keeps_its_groups_across_ingest() {
    // The planted ring R0 -> R1 -> R2 -> R3 -> R0 plus X0 -> X1, with
    // X0's and R2's legal persons made kin: X0 and R2 share an
    // antecedent but do not trade yet, so `rules` starts with nothing.
    let mut registry = tpiin_datagen::circular_case_registry();
    let (lr2, lx0) = (tpiin_model::PersonId(2), tpiin_model::PersonId(4));
    registry.add_interdependence(lx0, lr2, tpiin_model::InterdependenceKind::Kinship);
    let trade = tpiin_model::TradingRecord {
        seller: registry.company_by_name("X0").expect("X0 planted"),
        buyer: registry.company_by_name("R2").expect("R2 planted"),
        volume: 2.0,
    };
    let (tpiin, _) = fuse(&registry).expect("case fuses");
    let config = ServeConfig {
        miners: vec!["circular".to_string(), "rules".to_string()],
        ..ServeConfig::default()
    };
    let handle = ServerHandle::bind(tpiin.clone(), config).expect("bind");
    let addr = handle.addr();
    let (_, ring_before) = get(addr, "/groups");
    assert!(
        ring_before.contains("\"miner\":\"circular\""),
        "{ring_before}"
    );
    assert!(ring_before.contains("\"group_count\":1"), "{ring_before}");
    let (_, body) = get(addr, "/groups?miner=rules");
    assert!(body.contains("\"group_count\":0"), "{body}");

    // X0 -> R2 closes no ring (nothing trades into X0) but puts a
    // Rule 1 group behind the new arc; the offline engine says how many.
    let mut engine = tpiin_delta::DeltaEngine::from_tpiin(tpiin);
    engine.ingest(&[trade]).expect("offline ingest");
    let rules_after = engine.detection().group_count();
    assert!(rules_after > 0);
    let (status, body) = post(
        addr,
        "/ingest",
        &format!(
            "{{\"records\": [{{\"seller\": {}, \"buyer\": {}, \"volume\": 2.0}}]}}",
            trade.seller.0, trade.buyer.0
        ),
    );
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");

    // The primary miner still answers with its own ring, untouched.
    let (_, ring_after) = get(addr, "/groups");
    assert_eq!(
        ring_after.replace("\"epoch\":2", "\"epoch\":1"),
        ring_before
    );
    let (_, body) = get(addr, "/groups?miner=rules");
    assert!(body.contains("\"miner\":\"rules\""), "{body}");
    assert!(
        body.contains(&format!("\"group_count\":{rules_after}")),
        "{body}"
    );
    handle.shutdown();
}

#[test]
fn registry_backed_daemon_ranks_rings_by_tax_rate_differential() {
    // A flat ring Z0 -> Z1 -> Z2 -> Z0 (no rates recorded: zero
    // differential) on the low node ids, then the planted case's rated
    // ring R0..R3 above it.  By key alone the flat ring sorts first; by
    // score the rated ring does — as `Pipeline` and `tpiin detect` rank,
    // which mine with the registry's tax rates.
    let mut registry = tpiin_model::SourceRegistry::new();
    let flat: Vec<_> = (0..3)
        .map(|i| {
            let p = registry.add_person(
                format!("LZ{i}"),
                tpiin_model::RoleSet::of(&[tpiin_model::Role::Ceo]),
            );
            let c = registry.add_company(format!("Z{i}"));
            registry.add_influence(tpiin_model::InfluenceRecord {
                person: p,
                company: c,
                kind: tpiin_model::InfluenceKind::CeoOf,
                is_legal_person: true,
            });
            c
        })
        .collect();
    tpiin_datagen::plant_trading_ring(&mut registry, &flat);
    registry.absorb(&tpiin_datagen::circular_case_registry(), "");

    let (tpiin, _) = fuse(&registry).expect("case fuses");
    let miner = tpiin_core::CircularTradingMiner::default();
    let ranked = tpiin_core::GroupMiner::mine(
        &miner,
        &tpiin,
        &tpiin_core::MineContext {
            tax_rates: registry.company_tax_rates(),
            ..tpiin_core::MineContext::default()
        },
    );
    assert_eq!(ranked.group_count(), 2);
    let (first, second) = (ranked.groups.row(0), ranked.groups.row(1));
    assert_eq!(tpiin.label(first.antecedent), "R0", "rated ring leads");
    assert_eq!(tpiin.label(second.antecedent), "Z0");
    assert!(
        second.antecedent < first.antecedent,
        "flat ring has the lower ids"
    );

    let handle = ServerHandle::bind_with_registry(registry, ServeConfig::default()).expect("bind");
    let (status, body) = get(handle.addr(), "/groups?miner=circular&limit=1");
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"group_count\":2"), "{body}");
    let expected = responses::group_json(&tpiin, first, "circular").to_string();
    assert!(
        body.contains(&expected),
        "daemon's first ring is not the offline first ring {expected}: {body}"
    );
    handle.shutdown();
}

#[test]
fn registry_backed_daemon_applies_mutation_batches() {
    // Case 2 without its trades, served with its source registry: the
    // daemon then accepts the full mutation vocabulary, not just
    // trading appends.
    let mut registry = tpiin_datagen::case2_registry();
    registry.clear_trading();
    let next_person = registry.person_count();
    // Every accepted body is replayed here, for the from-scratch oracle
    // at the end.
    let mut shadow = registry.clone();
    let mut replay = |body: &str| {
        let json = tpiin_io::json::Json::parse(body).expect("body is JSON");
        tpiin_io::mutation_feed::batch_from_json(&json, "test", 1)
            .expect("body is a mutation batch")
            .apply_to_registry(&mut shadow)
            .expect("batch applies");
    };
    let handle = ServerHandle::bind_with_registry(registry, ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    // A trading mutation takes the surgical append path and mines the
    // planted group, exactly like the legacy `records` body would.
    let trade =
        "{\"mutations\": [{\"op\":\"add_trading\",\"seller\":1,\"buyer\":2,\"volume\":7.5}]}";
    let (status, body) = post(addr, "/ingest", trade);
    replay(trade);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"epoch\":2"), "{body}");
    assert!(body.contains("\"path\":\"trading_append\""), "{body}");
    assert!(body.contains("\"new_group_count\":1"), "{body}");

    // A registry delta that adds a person renumbers every company node,
    // so it re-fuses; the shards it left alone replay from the cache.
    let batch = format!(
        "{{\"mutations\": [{{\"op\":\"add_person\",\"name\":\"PX\",\"roles\":\"CEO\"}},\
         {{\"op\":\"add_company\",\"name\":\"CX\",\"legal_person\":{next_person},\"kind\":\"ceo\"}}]}}"
    );
    let (status, body) = post(addr, "/ingest", &batch);
    replay(&batch);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"epoch\":3"), "{body}");
    assert!(body.contains("\"path\":\"full_rebuild\""), "{body}");
    let (status, body) = get(addr, "/company/CX");
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");

    // Registering a company under an existing person (no new person)
    // is the id-stable class: the node is spliced in place and the
    // batch takes the surgical company-append path.
    let append =
        "{\"mutations\": [{\"op\":\"add_company\",\"name\":\"CY\",\"legal_person\":0,\"kind\":\"ceo\"}]}";
    let (status, body) = post(addr, "/ingest", append);
    replay(append);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"epoch\":4"), "{body}");
    assert!(body.contains("\"path\":\"company_append\""), "{body}");

    // Both registrations moved the source record of every
    // investment-sourced arc.  Chains are assembled per request, so what
    // the daemon serves equals the chain over a from-scratch fuse of the
    // mutated registry, byte for byte.
    let (fresh, _) = fuse(&shadow).expect("mutated registry fuses");
    let oracle = tpiin_serve::ServeSnapshot::build(4, fresh);
    let investment_sourced = Some(shadow.influences().len() as u32);
    let mut shifted_arcs = 0;
    for (i, group) in oracle.detection().groups.iter().enumerate() {
        let chain = tpiin_core::Provenance::assemble(&oracle.tpiin, group);
        shifted_arcs += chain
            .influence_arcs
            .iter()
            .filter(|arc| arc.source_record >= investment_sourced)
            .count();
        let want = responses::provenance_json(&oracle, "rules", group, i, &chain);
        let (status, body) = get(addr, &format!("/groups/{i}/provenance"));
        assert_eq!(status, "HTTP/1.1 200 OK", "group {i}: {body}");
        assert_eq!(body, want.to_string(), "group {i}");
    }
    assert!(
        shifted_arcs > 0,
        "no served chain cites an investment record"
    );

    // A batch that breaks a registry invariant is rejected atomically:
    // same epoch, nothing changed.
    let (status, body) = post(
        addr,
        "/ingest",
        "{\"mutations\": [{\"op\":\"remove_person\",\"person\":0}]}",
    );
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    let (_, body) = get(addr, "/healthz");
    assert!(body.contains("\"epoch\":4"), "{body}");

    // `/status` surfaces the delta counters; the rejected batch counts
    // as no re-fuse.
    let (status, body) = get(addr, "/status");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let json = tpiin_io::json::Json::parse(&body).expect("status is JSON");
    let delta = json.get("delta").expect("delta counters");
    let field = |key: &str| {
        delta
            .get(key)
            .and_then(tpiin_io::json::Json::as_f64)
            .unwrap_or(-1.0)
    };
    assert!(field("batches") >= 3.0, "{body}");
    assert!(field("arcs_patched") >= 1.0, "{body}");
    assert_eq!(field("company_appends"), 1.0, "{body}");
    assert_eq!(field("full_rebuilds"), 1.0, "{body}");
    handle.shutdown();
}

/// Drips a GET request's header bytes so the worker that picked the
/// connection up measures a genuinely slow request: `started` is
/// stamped before the request is parsed, so the stall lands in the
/// request's latency histogram and its slowlog eligibility check.
/// Returns `None` if the daemon shed or dropped the connection.
fn slow_get(addr: SocketAddr, path: &str, stall: Duration) -> Option<(String, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n").as_bytes())
        .ok()?;
    stream.flush().ok()?;
    std::thread::sleep(stall);
    stream.write_all(b"\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let status = response.lines().next().unwrap_or_default().to_string();
    let head = response
        .split_once("\r\n\r\n")
        .map(|(h, _)| h.to_string())
        .unwrap_or_default();
    Some((status, head))
}

/// Polls `/alerts` until its `worst` field reaches `expected`.
fn wait_for_worst(addr: SocketAddr, expected: &str, deadline: Duration) {
    let begin = Instant::now();
    loop {
        let (status, body) = get(addr, "/alerts");
        assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
        if body.contains(&format!("\"worst\":\"{expected}\"")) {
            return;
        }
        assert!(
            begin.elapsed() < deadline,
            "alerts never reached `{expected}` within {deadline:?}: {body}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn timeline_records_queryable_series_and_exports_jsonl() {
    let config = ServeConfig {
        telemetry_tick: Duration::from_millis(25),
        ..ServeConfig::default()
    };
    let handle = ServerHandle::bind(fig7(), config).expect("bind");
    let addr = handle.addr();

    // Generate traffic, then wait until the recorder has sampled it.
    let begin = Instant::now();
    loop {
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        let (status, index) = get(addr, "/timeline");
        assert_eq!(status, "HTTP/1.1 200 OK");
        if index.contains("serve.requests.healthz") {
            break;
        }
        assert!(
            begin.elapsed() < Duration::from_secs(10),
            "recorder never sampled the request counter: {index}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // The index advertises the recorder's shape and its series.
    let (_, index) = get(addr, "/timeline");
    let json = tpiin_io::json::Json::parse(&index).expect("index is JSON");
    assert!(
        json.get("last_tick")
            .and_then(tpiin_io::json::Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "{index}"
    );
    assert!(index.contains("\"fine_capacity\":"), "{index}");
    assert!(index.contains("\"coarse_every\":"), "{index}");

    // One series, as points: cumulative counter samples never decrease.
    let (status, body) = get(addr, "/timeline?metric=serve.requests.healthz&since=0");
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let json = tpiin_io::json::Json::parse(&body).expect("series is JSON");
    assert_eq!(
        json.get("metric").and_then(tpiin_io::json::Json::as_str),
        Some("serve.requests.healthz")
    );
    assert!(body.contains("\"points\":["), "{body}");
    assert!(body.contains("\"tick\":"), "{body}");

    // The JSONL export is one self-describing object per line.
    let (status, export) = get(addr, "/timeline/export");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(!export.trim().is_empty(), "export is empty");
    for line in export.lines() {
        let row = tpiin_io::json::Json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable JSONL line {line:?}: {e:?}"));
        assert!(row.get("metric").is_some(), "{line}");
        assert!(row.get("tick").is_some(), "{line}");
    }

    // Unknown series 404, malformed queries 400.
    let (status, _) = get(addr, "/timeline?metric=no.such.series");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let (status, _) = get(addr, "/timeline?metric=serve.requests.healthz&since=zebra");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    let (status, _) = get(addr, "/timeline?bogus=1");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    // `/status` folds the health verdict in next to the runtime state.
    let (_, status_body) = get(addr, "/status");
    assert!(status_body.contains("\"health\":\"ok\""), "{status_body}");
    handle.shutdown();
}

#[test]
fn telemetry_disabled_turns_recorder_endpoints_off() {
    let config = ServeConfig {
        telemetry: false,
        ..ServeConfig::default()
    };
    let handle = ServerHandle::bind(fig7(), config).expect("bind");
    let addr = handle.addr();
    for path in ["/timeline", "/timeline/export", "/alerts"] {
        let (status, body) = get(addr, path);
        assert_eq!(status, "HTTP/1.1 404 Not Found", "{path}: {body}");
        assert!(body.contains("disabled"), "{path}: {body}");
    }
    // The slowlog ring still works — it is fed inline, not by the
    // recorder thread — and `/status` says the health engine is off.
    let (status, body) = get(addr, "/slowlog");
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let (_, body) = get(addr, "/status");
    assert!(body.contains("\"health\":\"off\""), "{body}");
    handle.shutdown();
}

#[test]
fn slowlog_captures_slow_requests_and_links_their_traces() {
    let config = ServeConfig {
        slowlog_threshold: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let handle = ServerHandle::bind(fig7(), config).expect("bind");
    let addr = handle.addr();

    // Fast traffic stays out of the exemplar ring.
    for _ in 0..5 {
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
    }
    let (status, body) = get(addr, "/slowlog");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        body.contains("\"count\":0"),
        "fast requests captured: {body}"
    );
    assert!(body.contains("\"threshold_ms\":50"), "{body}");

    // A stalled request crosses the threshold and is captured with its
    // trace id, which must resolve to a replayable trace.
    let (status, head) =
        slow_get(addr, "/groups", Duration::from_millis(150)).expect("slow request answered");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let id = trace_id_of(&head).expect("slow response still carries its trace id");

    let (status, body) = get(addr, "/slowlog");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"endpoint\":\"groups\""), "{body}");
    assert!(body.contains(&format!("\"trace\":\"{id}\"")), "{body}");
    assert!(
        body.contains(&format!("\"trace_url\":\"/trace/{id}\"")),
        "{body}"
    );
    assert!(body.contains("\"alloc_bytes\":"), "{body}");

    let (status, trace_body) = get(addr, &format!("/trace/{id}"));
    assert_eq!(status, "HTTP/1.1 200 OK", "slowlog trace must replay");
    assert!(trace_body.contains("serve/groups"), "{trace_body}");
    handle.shutdown();
}

/// The acceptance walk for the health engine: sustained degradation
/// drives an SLO from ok to warn (p99 a little over objective), a worse
/// spike drives it to page (p99 far over), and recovery de-escalates
/// only after the hysteresis streak — never on one calm tick.
///
/// Thresholds are bucket-aware: the recorder estimates quantiles by
/// interpolating histogram buckets, so a uniform window estimates its
/// bucket's upper bound.  A ~30ms stall lands in the (16ms, 64ms]
/// bucket (estimate 64ms → burn 1.28 against a 50ms objective: warn);
/// a ~300ms stall lands in (256ms, 1s] (estimate 1s → burn 20: page).
#[test]
fn alerts_walk_ok_warn_page_and_recover_with_hysteresis() {
    let mut spec = tpiin_obs::SloSpec::latency_p99("healthz.p99", "serve.latency.healthz", 50e6);
    spec.short_ticks = 12; // 300ms of 25ms ticks
    spec.long_ticks = 24; // 600ms
    spec.clear_ticks = 4; // ≥100ms of calm before de-escalating
    let config = ServeConfig {
        telemetry_tick: Duration::from_millis(25),
        slos: Some(vec![spec]),
        ..ServeConfig::default()
    };
    let handle = ServerHandle::bind(fig7(), config).expect("bind");
    let addr = handle.addr();

    wait_for_worst(addr, "ok", Duration::from_secs(5));

    let stop_warn = AtomicBool::new(false);
    let stop_page = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Phase 1: sustained ~30ms stalls — over budget, but only just.
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop_warn.load(Ordering::Relaxed) {
                    let _ = slow_get(addr, "/healthz", Duration::from_millis(30));
                }
            });
        }
        wait_for_worst(addr, "warn", Duration::from_secs(20));

        // Phase 2: add ~300ms stalls on top — now far over budget.
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop_page.load(Ordering::Relaxed) {
                    let _ = slow_get(addr, "/healthz", Duration::from_millis(300));
                }
            });
        }
        wait_for_worst(addr, "page", Duration::from_secs(20));

        // Phase 3: the spike ends; the alert must clear all the way
        // back down once the burn windows drain and the calm streak
        // outlasts `clear_ticks`.
        stop_warn.store(true, Ordering::Relaxed);
        stop_page.store(true, Ordering::Relaxed);
    });
    wait_for_worst(addr, "ok", Duration::from_secs(20));
    handle.shutdown();
}

/// Satellite of the telemetry work: `shutdown` must join the 250ms
/// `/proc` sampler and the recorder thread promptly even when the
/// recorder tick is enormous — the cancellation latch wakes them out
/// of their parks instead of letting the join wait out a sleep.
#[test]
fn shutdown_joins_background_threads_promptly() {
    let config = ServeConfig {
        telemetry_tick: Duration::from_secs(3600),
        ..ServeConfig::default()
    };
    let handle = ServerHandle::bind(fig7(), config).expect("bind");
    let addr = handle.addr();
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let begin = Instant::now();
    handle.shutdown();
    assert!(
        begin.elapsed() < Duration::from_secs(5),
        "shutdown blocked on a parked background thread for {:?}",
        begin.elapsed()
    );
}

#[test]
fn snapshot_only_daemon_rejects_registry_mutations() {
    let handle = ServerHandle::bind(fig7(), ServeConfig::default()).expect("bind");
    let addr = handle.addr();
    let (status, body) = post(
        addr,
        "/ingest",
        "{\"mutations\": [{\"op\":\"add_person\",\"name\":\"PX\",\"roles\":\"CEO\"}]}",
    );
    assert_eq!(status, "HTTP/1.1 422 Unprocessable Entity", "{body}");
    // Trading mutations still work without a registry.
    let (status, body) = post(
        addr,
        "/ingest",
        "{\"mutations\": [{\"op\":\"add_trading\",\"seller\":0,\"buyer\":1,\"volume\":1.0}]}",
    );
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"path\":\"trading_append\""), "{body}");
    handle.shutdown();
}
