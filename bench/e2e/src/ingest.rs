//! `ingest_stream_province`: a mutation feed posted to a
//! registry-backed daemon beside a steady reader.
//!
//! The writer posts batch `i` at `start + i / rate` (open loop, one
//! connection, feed order) and at once reads `/groups?limit=1`, which
//! must report the acknowledged epoch or a later one: the latency is
//! batch **due** → visible to a reader.  When the open loop ends the
//! rest of the feed is drained back to back, which gives the ingest
//! capacity at the largest served state.

use crate::http::{json_usize, Client};
use crate::inputs::{self, Rng, Size};
use crate::load::{self, Phase};
use crate::report::Report;
use crate::trace::{self, Tracer};
use crate::{ms, stats, timed, Run};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tpiin_core::detect;
use tpiin_datagen::MutationStream;
use tpiin_delta::DeltaEngine;
use tpiin_fusion::{fuse_with, FuseOptions};
use tpiin_io::json::Json;
use tpiin_io::mutation_feed;
use tpiin_serve::{ServeConfig, ServerHandle};

/// Batches per second the writer offers.
const WRITE_RATE: f64 = 6.0;
/// Requests per second the reader offers beside it.
const READ_RATE: f64 = 50.0;
/// Share of the run the open loop takes; the drain gets the rest.
const OPEN_SHARE: f64 = 0.6;

/// One batch as the writer saw it.
struct Posted {
    index: usize,
    due: Instant,
    sent: Instant,
    post: Duration,
    confirm: Duration,
    /// Batch due → confirming read done.
    visible: Duration,
    epoch: u64,
    new_groups: usize,
    /// `group_count` the confirming read reported.
    groups: usize,
}

/// Posts batch `index` and confirms it is visible; `due` is when it
/// was meant to be sent.
fn post_one(client: &mut Client, index: usize, body: &str, due: Instant) -> Result<Posted, String> {
    let sent = Instant::now();
    let (reply, post) = timed(|| client.post("/ingest", body));
    let reply = reply?;
    if reply.status != 200 {
        return Err(format!(
            "batch {index}: POST /ingest answered {}",
            reply.status
        ));
    }
    let epoch = json_usize(&reply.body[..reply.body.len().min(64)], "epoch")
        .ok_or("ack carries no epoch")? as u64;
    let new_groups =
        json_usize(&reply.body[..reply.body.len().min(256)], "new_group_count").unwrap_or(0);
    let (read, confirm) = timed(|| client.get("/groups?limit=1"));
    let read = read?;
    let visible = due.elapsed();
    let head = &read.body[..read.body.len().min(256)];
    let seen = json_usize(head, "epoch").unwrap_or(0) as u64;
    if read.status != 200 || seen < epoch {
        return Err(format!(
            "batch {index}: acked epoch {epoch}, but a read after the ack saw epoch {seen}"
        ));
    }
    Ok(Posted {
        index,
        due,
        sent,
        post,
        confirm,
        visible,
        epoch,
        new_groups,
        groups: json_usize(head, "group_count").unwrap_or(0),
    })
}

/// Posts `bodies[range]` in order: on the timetable when `rate` is
/// given, back to back otherwise.
fn write(
    addr: SocketAddr,
    bodies: &[String],
    range: std::ops::Range<usize>,
    rate: Option<f64>,
) -> Vec<Result<Posted, String>> {
    let mut client = Client::new(addr, load::TIMEOUT);
    let start = Instant::now();
    let first = range.start;
    range
        .map(|index| {
            let due = match rate {
                Some(rate) => start + Duration::from_secs_f64((index - first) as f64 / rate),
                None => Instant::now(),
            };
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            post_one(&mut client, index, &bodies[index], due)
        })
        .collect()
}

/// The open-loop phase: the writer on its timetable, the reader beside
/// it for as long as the writer's timetable runs.
fn write_beside_reader(
    addr: SocketAddr,
    bodies: &[String],
    range: std::ops::Range<usize>,
    seed: u64,
) -> (Vec<Result<Posted, String>>, Phase) {
    let duration = Duration::from_secs_f64(range.len() as f64 / WRITE_RATE);
    // The reader alternates a page of groups and a health probe; the
    // seed picks which comes first and the page it asks for.
    let mut rng = Rng::new(seed);
    let flip = rng.below(2) as u64;
    let read = move |index: u64, client: &mut Client| {
        let reply = if (index + flip).is_multiple_of(2) {
            client.get("/groups?limit=20")
        } else {
            client.get("/healthz")
        }?;
        if reply.status != 200 {
            return Err(format!("reader: status {}", reply.status));
        }
        Ok(reply)
    };
    std::thread::scope(|scope| {
        let reader = scope
            .spawn(|| load::open_loop(addr, READ_RATE, duration, Duration::from_secs(1), &read));
        let posted = write(addr, bodies, range, Some(WRITE_RATE));
        (posted, reader.join().expect("the reader panicked"))
    })
}

/// Counts the writer's results into the report; returns the batches
/// that made it.
fn account(report: &mut Report, posted: Vec<Result<Posted, String>>) -> Vec<Posted> {
    report.count(
        posted.len() as u64,
        posted.iter().filter(|p| p.is_err()).count() as u64,
    );
    posted
        .into_iter()
        .filter_map(|p| p.map_err(|why| report.fail(why)).ok())
        .collect()
}

pub fn run(run: &Run) -> Report {
    let mut report = Report::new("ingest_stream_province");
    let tracer = Tracer::new(run.trace);

    // Set-up, three times over: generate the feed, render its bodies,
    // work out the answer the feed must end on, and bind a
    // registry-backed daemon on the base registry.
    let mut setups = Vec::new();
    let mut made = None;
    for op in 0..3 {
        if let Some((handle, _, _, _)) = made.take() {
            ServerHandle::shutdown(handle);
        }
        let ((), took) = timed(|| {
            let stream = tracer.leaf("datagen.generate", None, op, || {
                inputs::mutation_stream(run.size)
            });
            let bodies: Vec<String> = stream
                .batches
                .iter()
                .map(|b| mutation_feed::batch_to_json(b).to_string())
                .collect();
            let replayed = stream.replayed().expect("the feed replays");
            let (scratch, _) =
                fuse_with(&replayed, FuseOptions::from_env()).expect("replayed registry fuses");
            let expected = detect(&scratch).group_count();
            let handle = tracer.leaf("serve.bind", None, op, || {
                ServerHandle::bind_with_registry(stream.base.clone(), ServeConfig::default())
                    .expect("the base registry fuses and an ephemeral port binds")
            });
            made = Some((handle, stream, bodies, expected));
        });
        setups.push(took.as_secs_f64());
    }
    report.put_median("setup_s", &setups);
    let (handle, stream, bodies, expected) = made.expect("set-up ran");
    let addr = handle.addr();

    // How much of the feed the open loop covers.  A traced run takes
    // the first 40 batches and drains nothing.
    let open_n = if run.trace {
        40.min(bodies.len() / 2)
    } else {
        ((WRITE_RATE * OPEN_SHARE * run.seconds).round() as usize).clamp(2, bodies.len() * 2 / 3)
    };

    tpiin_obs::alloc::reset_peak();
    let allocated = tpiin_obs::alloc::stats().total_bytes;
    let (posted, reader) = write_beside_reader(addr, &bodies, 0..open_n, run.seed);
    let open_alloc = tpiin_obs::alloc::stats().total_bytes - allocated;
    let open = account(&mut report, posted);
    reader.account(&mut report);
    let (drained, drain_time) = if run.trace {
        (Vec::new(), Duration::ZERO)
    } else {
        let (posted, took) = timed(|| write(addr, &bodies, open_n..bodies.len(), None));
        (account(&mut report, posted), took)
    };
    let peak = tpiin_obs::alloc::stats().peak_bytes;

    // Output checks.
    let all: Vec<&Posted> = open.iter().chain(&drained).collect();
    report.check(
        "epochs are strictly monotone",
        all.windows(2).all(|w| w[1].epoch > w[0].epoch),
    );
    for planted in stream.planted_at.iter().filter(|&&at| at < all.len()) {
        let hit = all
            .iter()
            .find(|p| p.index == *planted)
            .map_or(0, |p| p.new_groups);
        report.check(
            &format!("planted-ring batch {planted} reports a new group"),
            hit >= 1,
        );
    }
    if !run.trace {
        let served = all.last().map_or(0, |p| p.groups);
        report.check(
            &format!(
                "final served group count {served} equals from-scratch fuse + detect {expected}"
            ),
            all.len() == bodies.len() && served == expected,
        );
    }

    let mut visible: Vec<f64> = open.iter().map(|p| ms(p.visible)).collect();
    stats::sort(&mut visible);
    let mut read_ms = reader.latencies_ms();
    stats::sort(&mut read_ms);
    if !run.trace {
        let (tail_name, tail) = stats::tail(&visible);
        report.put(
            "path_ms",
            stats::quantile(&visible, 0.5),
            visible.len(),
            "batch due -> visible, p50",
        );
        report.put(
            "path_tail_ms",
            tail,
            visible.len(),
            &format!("batch due -> visible, {tail_name}"),
        );
        report.put(
            "throughput_per_s",
            drained.len() as f64 / drain_time.as_secs_f64(),
            drained.len(),
            "batches/s, back-to-back drain of the feed's tail",
        );
        report.put(
            "peak_mb",
            peak as f64 / 1e6,
            1,
            "heap high-water mark over the feed",
        );
    }
    report.put(
        "e2e.ingest_visible_p50_ms",
        stats::quantile(&visible, 0.5),
        visible.len(),
        "",
    );
    report.put(
        "e2e.ingest_visible_p90_ms",
        stats::quantile(&visible, 0.9),
        visible.len(),
        "",
    );
    report.put(
        "serve.read_during_ingest_p50_ms",
        stats::quantile(&read_ms, 0.5),
        read_ms.len(),
        "",
    );
    report.put(
        "serve.read_during_ingest_p99_ms",
        stats::quantile(&read_ms, 0.99),
        read_ms.len(),
        "",
    );
    let mut lags: Vec<f64> = open
        .iter()
        .map(|p| (p.sent - p.due).as_secs_f64() * 1e6)
        .collect();
    stats::sort(&mut lags);
    report.put(
        "bench.sched_lag_p99_us",
        stats::quantile(&lags, 0.99),
        lags.len(),
        "writer lateness",
    );
    ServerHandle::shutdown(handle);

    if run.trace {
        layers(
            &mut report,
            &tracer,
            &stream,
            &bodies,
            &open,
            open_alloc,
            run,
        );
        tracer.write("ingest_stream_province");
    }
    report
}

/// The traced pass: a span per posted batch, the same batches again on
/// a second daemon without spans, and the feed replayed in process
/// through the delta engine alone.
fn layers(
    report: &mut Report,
    tracer: &Tracer,
    stream: &MutationStream,
    bodies: &[String],
    open: &[Posted],
    open_alloc: u64,
    run: &Run,
) {
    for p in open {
        let op = p.index as u64;
        let batch = tracer.add("batch", None, op, p.sent, p.post + p.confirm);
        tracer.add("serve.ingest_post", batch, op, p.sent, p.post);
        tracer.add("serve.confirm_read", batch, op, p.sent + p.post, p.confirm);
    }
    let spans = tracer.spans();
    let post_ms = trace::durations_ms(&spans, "serve.ingest_post");
    report.put_median("serve.ingest_post_p50_ms", &post_ms);
    report.put(
        "bench.residual_ratio",
        trace::residual_ratio(&spans, "batch"),
        open.len(),
        "batch time outside post + confirming read",
    );
    report.put(
        "serve.ingest_alloc_mb",
        open_alloc as f64 / 1e6 / open.len().max(1) as f64,
        open.len(),
        "heap allocated per batch, reader included",
    );
    for (metric, span) in [
        ("datagen.generate_ms", "datagen.generate"),
        ("serve.bind_ms", "serve.bind"),
    ] {
        report.put_median(metric, &trace::durations_ms(&spans, span));
    }

    // The same batches on a fresh daemon, nothing recorded.
    let plain = ServerHandle::bind_with_registry(stream.base.clone(), ServeConfig::default())
        .expect("the base registry fuses and an ephemeral port binds");
    let (posted, reader) = write_beside_reader(plain.addr(), bodies, 0..open.len(), run.seed);
    let again = account(report, posted);
    reader.account(report);
    plain.shutdown();
    let p50 = |posted: &[Posted]| {
        stats::median(&posted.iter().map(|p| ms(p.visible)).collect::<Vec<_>>())
    };
    report.put(
        "bench.trace_overhead_ratio",
        p50(open) / p50(&again),
        open.len(),
        "traced / untraced visible p50",
    );

    // The feed's own layers, one call at a time.
    let mut parse_us = Vec::new();
    let mut apply_us = Vec::new();
    let mut registry = stream.base.clone();
    for body in bodies {
        let (batch, took) = timed(|| {
            let json = Json::parse(body).expect("rendered feed parses");
            mutation_feed::batch_from_json(&json, "bench", 1).expect("rendered feed decodes")
        });
        parse_us.push(took.as_secs_f64() * 1e6);
        let (applied, took) = timed(|| batch.apply_to_registry(&mut registry));
        applied.expect("generated batches are valid");
        apply_us.push(took.as_secs_f64() * 1e6);
    }
    report.put_median("io.feed_parse_us", &parse_us);
    report.put_median("model.batch_apply_us", &apply_us);

    // In-process replay through the delta engine: what `POST /ingest`
    // costs before HTTP, the snapshot clone and the swap are added.
    let smoke = run.size == Size::Smoke;
    let (engine, built) =
        timed(|| DeltaEngine::new(stream.base.clone()).expect("the base registry fuses"));
    let mut engine = engine;
    report.put("delta.engine_build_ms", ms(built), 1, "");
    let mut applies: Vec<(&'static str, f64)> = Vec::new();
    let (_, replay) = timed(|| {
        for batch in &stream.batches {
            let (outcome, took) =
                timed(|| engine.apply(batch).expect("generated batches are valid"));
            applies.push((outcome.path.as_str(), ms(took)));
        }
    });
    let mut all_ms: Vec<f64> = applies.iter().map(|(_, ms)| *ms).collect();
    stats::sort(&mut all_ms);
    report.put(
        "delta.apply_p50_ms",
        stats::quantile(&all_ms, 0.5),
        all_ms.len(),
        "whole feed",
    );
    report.put(
        "delta.apply_p90_ms",
        stats::quantile(&all_ms, 0.9),
        all_ms.len(),
        "whole feed",
    );
    for (metric, path) in [
        ("delta.apply_trading_append_ms", "trading_append"),
        ("delta.apply_company_append_ms", "company_append"),
        ("delta.apply_incremental_ms", "incremental"),
    ] {
        let of: Vec<f64> = applies
            .iter()
            .filter(|(p, _)| *p == path)
            .map(|(_, ms)| *ms)
            .collect();
        report.put_median(metric, &of);
    }
    report.put(
        "delta.replay_batches_per_s",
        stream.batches.len() as f64 / replay.as_secs_f64(),
        stream.batches.len(),
        "",
    );
    let same_batches: Vec<f64> = applies[..open.len()].iter().map(|(_, ms)| *ms).collect();
    report.put(
        "serve.ingest_overhead_ms",
        stats::median(&post_ms) - stats::median(&same_batches),
        open.len(),
        "post p50 - engine apply p50 over the same batches: clone + re-index + swap + HTTP",
    );
    let rebuilds: Vec<f64> = (0..if smoke { 1 } else { 3 })
        .map(|_| {
            ms(timed(|| {
                let (tpiin, _) =
                    fuse_with(&registry, FuseOptions::from_env()).expect("replayed registry fuses");
                detect(&tpiin).group_count()
            })
            .1)
        })
        .collect();
    report.put_median("delta.full_rebuild_ms", &rebuilds);
    report.put(
        "delta.speedup_vs_rebuild",
        stats::median(&rebuilds) / stats::quantile(&all_ms, 0.9),
        1,
        "full rebuild at the final state / apply p90",
    );
    let totals = engine.stats();
    for (metric, count) in [
        ("delta.batches", totals.batches_applied),
        ("delta.full_rebuilds", totals.full_rebuilds),
        ("delta.shards_remined", totals.shards_remined),
        ("delta.sccs_rerun", totals.sccs_rerun),
        ("delta.arcs_patched", totals.arcs_patched),
        ("delta.company_appends", totals.company_appends),
    ] {
        report.put(metric, count as f64, 1, "");
    }
    report.check(
        "in-process replay ends on the from-scratch group count",
        engine.detection().group_count() == {
            let (tpiin, _) =
                fuse_with(&registry, FuseOptions::from_env()).expect("replayed registry fuses");
            detect(&tpiin).group_count()
        },
    );

    report.put_run_facts(open.len(), "traced batches");
}
