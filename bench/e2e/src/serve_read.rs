//! `serve_read_nation`: the analyst drill-down mix against a daemon
//! serving the nation — browse groups, open a taxpayer, the groups
//! behind an arc, a group's evidence, a health probe.

use crate::http::{self, json_usize, Client, Reply};
use crate::inputs::{self, Rng, Size};
use crate::load::{self, Phase, Rung};
use crate::report::Report;
use crate::trace::{self, Tracer};
use crate::{stats, timed, Run};
use std::net::SocketAddr;
use std::time::Duration;
use tpiin_core::{
    groups_behind_arc, mine_with_obs, DetectionResult, MineContext, MinerRegistry, RULES_MINER,
};
use tpiin_fusion::{fuse_with, FuseOptions, Tpiin};
use tpiin_graph::NodeId;
use tpiin_io::json::Json;
use tpiin_serve::{responses, ServeConfig, ServeSnapshot, ServerHandle};

/// Offered rate of the open-loop phase.
const RATE_RPS: f64 = 200.0;
/// Query targets of each kind.
const TARGETS: usize = 64;
/// Hot taxpayers, probed one endpoint at a time in the traced pass
/// and held to the full-body check.  They are not in the timed mix: a
/// hot answer is 16 to 20 ms of allocation-heavy work whose time on a
/// shared host differs by 20 % between runs of one binary, and at any
/// share of the mix near 1 % it *is* the 99th percentile.
const HOT_TARGETS: usize = 4;
/// A hot taxpayer sits in this many groups (31 nodes).  Above the band
/// nodes run up to 12 855 groups, half a second and 9 MB per answer.
const HOT_GROUPS: std::ops::Range<usize> = 1000..1250;
/// A cold taxpayer sits in fewer groups than this.
const COLD_GROUPS: usize = 10;

/// One request of the plan and what its answer must say.
#[derive(Clone)]
struct Req {
    path: String,
    /// `group_count` the answer must carry, where an oracle knows it.
    group_count: Option<usize>,
}

/// The offline oracle and the seed-sampled request plan.
struct Plan {
    /// The request mix, in the order it is sent (cycled).
    mix: Vec<Req>,
    /// One request per sampled target of each kind, for the closed
    /// single-endpoint probes and the full-body checks.
    hot: Vec<(NodeId, Req)>,
    cold: Vec<(NodeId, Req)>,
    arcs: Vec<((NodeId, NodeId), Req)>,
    provenance: Vec<Req>,
    groups: Vec<Req>,
}

fn company_req(tpiin: &Tpiin, node: NodeId, count: usize) -> Req {
    Req {
        path: format!("/company/{}", http::encode(tpiin.label(node))),
        group_count: Some(count),
    }
}

fn plan(tpiin: &Tpiin, detection: &DetectionResult, seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    // Groups per node, by the daemon's own definition of "involves".
    let mut involved = vec![0usize; tpiin.node_count()];
    for group in &detection.groups {
        let mut nodes: Vec<NodeId> = group
            .trail_with_trade
            .iter()
            .chain(&group.trail_plain)
            .copied()
            .chain([group.antecedent, group.end, group.trading_arc.0])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.iter().for_each(|n| involved[n.index()] += 1);
    }
    // Candidates: the endpoints of suspicious arcs, by group count.
    let mut ends: Vec<NodeId> = detection
        .suspicious_trading_arcs
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .collect();
    ends.sort_unstable();
    ends.dedup();
    ends.sort_by_key(|n| (involved[n.index()], n.index()));
    let band = |range: std::ops::Range<usize>| -> Vec<NodeId> {
        ends.iter()
            .copied()
            .filter(|n| range.contains(&involved[n.index()]))
            .collect()
    };
    let mut hot_pool = band(HOT_GROUPS);
    if hot_pool.is_empty() {
        // Inputs too small to have a hot band: the busiest eighth.
        hot_pool = ends[ends.len() - ends.len() / 8..].to_vec();
    }
    let cold_pool = band(0..COLD_GROUPS);
    let company = |pool: &[NodeId], k: usize, rng: &mut Rng| -> Vec<(NodeId, Req)> {
        inputs::stratified(pool, k, rng)
            .into_iter()
            .map(|n| (n, company_req(tpiin, n, involved[n.index()])))
            .collect()
    };
    let hot = company(&hot_pool, HOT_TARGETS, &mut rng);
    let cold = company(&cold_pool, TARGETS, &mut rng);

    let all_arcs: Vec<(NodeId, NodeId)> =
        detection.suspicious_trading_arcs.iter().copied().collect();
    let arcs: Vec<_> = inputs::stratified(&all_arcs, TARGETS, &mut rng)
        .into_iter()
        .map(|(src, dst)| {
            let req = Req {
                path: format!(
                    "/groups_behind_arc?src={}&dst={}",
                    http::encode(tpiin.label(src)),
                    http::encode(tpiin.label(dst))
                ),
                group_count: Some(groups_behind_arc(tpiin, src, dst).len()),
            };
            ((src, dst), req)
        })
        .collect();

    let total = detection.groups.len();
    let provenance: Vec<Req> = (0..TARGETS)
        .map(|_| Req {
            path: format!("/groups/{}/provenance", rng.below(total)),
            group_count: None,
        })
        .collect();
    let groups: Vec<Req> = (0..TARGETS)
        .map(|_| Req {
            path: format!(
                "/groups?limit=20&offset={}",
                rng.below(total.saturating_sub(20).max(1))
            ),
            group_count: Some(total),
        })
        .collect();

    // The analyst mix: 30 % browse, 25 % taxpayer, 25 % arc, 15 %
    // evidence, 5 % health, dealt in rounds of 1 280 requests.  Every
    // round asks each target the same number of times (6 pages, 5
    // taxpayers, 5 arcs, 3 evidence chains, 1 health probe per target
    // slot), so every seed sends the same work and only its order and
    // the individuals differ.
    let healthz = Req {
        path: "/healthz".to_string(),
        group_count: None,
    };
    let mut mix = Vec::new();
    for _ in 0..4 {
        let mut round = Vec::new();
        for slot in 0..TARGETS {
            let mut deal =
                |times: usize, req: &Req| round.extend(std::iter::repeat_n(req, times).cloned());
            deal(6, &groups[slot % groups.len()]);
            deal(5, &cold[slot % cold.len()].1);
            deal(5, &arcs[slot % arcs.len()].1);
            deal(3, &provenance[slot % provenance.len()]);
            deal(1, &healthz);
        }
        rng.shuffle(&mut round);
        mix.extend(round);
    }
    Plan {
        mix,
        hot,
        cold,
        arcs,
        provenance,
        groups,
    }
}

/// Sends `req` and holds the answer to the cheap per-request checks:
/// status 200, epoch 1 and the oracle's `group_count`, all read from
/// the head of the body.  (The client already held `Content-Length`
/// to the bytes received.)
fn send(req: &Req, client: &mut Client) -> Result<Reply, String> {
    let reply = client.get(&req.path)?;
    if reply.status != 200 {
        return Err(format!("status {} for {}", reply.status, req.path));
    }
    let head = &reply.body[..reply.body.len().min(400)];
    if json_usize(head, "epoch") != Some(1) {
        return Err(format!("epoch != 1 for {}", req.path));
    }
    if let Some(expected) = req.group_count {
        let got = json_usize(head, "group_count");
        if got != Some(expected) {
            return Err(format!(
                "group_count {got:?} != oracle {expected} for {}",
                req.path
            ));
        }
    }
    Ok(reply)
}

/// The full-body check of one `/company` answer: as many groups as the
/// oracle counts, every one of them involving the taxpayer.
fn company_body_ok(reply: &Reply, label: &str, expected: usize) -> bool {
    let Ok(text) = std::str::from_utf8(&reply.body) else {
        return false;
    };
    let Ok(json) = Json::parse(text) else {
        return false;
    };
    let Some(Json::Array(groups)) = json.get("groups") else {
        return false;
    };
    groups.len() == expected
        && groups.iter().all(|g| {
            let names = |key: &str| match g.get(key) {
                Some(Json::Array(items)) => items.iter().any(|m| m.as_str() == Some(label)),
                _ => false,
            };
            names("members")
                || names("trading_arc")
                || g.get("antecedent").and_then(Json::as_str) == Some(label)
        })
}

fn mix_op(plan: &Plan) -> impl Fn(u64, &mut Client) -> Result<Reply, String> + Sync + '_ {
    |index, client| send(&plan.mix[index as usize % plan.mix.len()], client)
}

/// Median latency in microseconds of `requests` sent one at a time,
/// `rounds` times over; failures go to the report.
fn closed_probe_us(
    addr: SocketAddr,
    requests: &[&Req],
    rounds: usize,
    report: &mut Report,
) -> (f64, usize, usize) {
    let mut client = Client::new(addr, load::TIMEOUT);
    let mut us = Vec::new();
    let mut bytes = 0;
    for req in requests.iter().cycle().take(requests.len() * rounds) {
        let (reply, took) = timed(|| send(req, &mut client));
        match reply {
            Ok(reply) => {
                us.push(took.as_secs_f64() * 1e6);
                bytes = bytes.max(reply.body.len());
                report.count(1, 0);
            }
            Err(why) => {
                report.count(1, 1);
                report.fail(why);
            }
        }
    }
    (stats::median(&us), us.len(), bytes)
}

pub fn run(run: &Run) -> Report {
    let mut report = Report::new("serve_read_nation");
    let tracer = Tracer::new(run.trace);

    // Set-up, three times over: generate, fuse, bind.  The last daemon
    // is the one measured.
    let mut setups = Vec::new();
    let mut bound = None;
    for op in 0..3 {
        if let Some((handle, _)) = bound.take() {
            ServerHandle::shutdown(handle);
        }
        let ((), took) = timed(|| {
            let registry = tracer.leaf("datagen.generate", None, op, || inputs::nation(run.size));
            let (tpiin, _) =
                fuse_with(&registry, FuseOptions::from_env()).expect("generated registry fuses");
            let handle = ServerHandle::bind(tpiin.clone(), ServeConfig::default())
                .expect("an ephemeral port binds");
            bound = Some((handle, tpiin));
        });
        setups.push(took.as_secs_f64());
    }
    report.put_median("setup_s", &setups);
    let (handle, tpiin) = bound.expect("set-up ran");
    let addr = handle.addr();

    // The oracle: the detection the daemon serves, mined offline.
    let miners = MinerRegistry::with_defaults();
    let detection = mine_with_obs(
        miners.get(RULES_MINER).expect("default miner"),
        &tpiin,
        &MineContext::default(),
    );
    let plan = plan(&tpiin, &detection, run.seed);
    let op = mix_op(&plan);
    let clients = crate::host_cpus();
    let seconds = |share: f64| Duration::from_secs_f64(run.seconds * share);

    if !run.trace {
        // Phase A: open loop at a fixed rate.  Phase C: closed loop,
        // one client per core.
        tpiin_obs::alloc::reset_peak();
        let open = load::open_loop(addr, RATE_RPS, seconds(0.5), Duration::from_secs(1), &op);
        let closed = load::closed_loop(addr, clients, seconds(0.4), &op);
        let peak = tpiin_obs::alloc::stats().peak_bytes;
        open.account(&mut report);
        closed.account(&mut report);

        let latencies = open.latencies_ms();
        // The median request is a sub-millisecond one whose time is
        // thread wake-ups, which on a shared host differ by 20 % from
        // run to run; the 90th percentile is a `/company` scan, which
        // is CPU work and repeats.  The median is `e2e.read_p50_ms`.
        //
        // The tail is read from the closed loop.  A host stall of 100 ms
        // delays two requests there, but twenty of the open loop's —
        // most of the 1 % its 99th percentile rests on.  The open loop's
        // is still reported, as `e2e.read_p99_ms`.  The closed loop
        // answers some 12 000 requests, so p99 has 120 samples beyond it;
        // p99.9 would have 12, set by scheduler time slices.
        let served = closed.latencies_ms();
        report.put(
            "path_ms",
            stats::quantile(&latencies, 0.9),
            latencies.len(),
            "p90 from due time",
        );
        report.put(
            "path_tail_ms",
            stats::quantile(&served, 0.99),
            served.len(),
            &format!("p99 sent -> answered, closed loop, {clients} clients"),
        );
        report.put(
            "throughput_per_s",
            closed.ok_per_s(),
            closed.samples.len(),
            &format!("closed loop, {clients} clients"),
        );
        report.put(
            "peak_mb",
            peak as f64 / 1e6,
            1,
            "heap high-water mark over both phases",
        );
        report.put(
            "e2e.read_p50_ms",
            stats::quantile(&latencies, 0.5),
            latencies.len(),
            "whole phase",
        );
        report.put(
            "e2e.read_p99_ms",
            stats::quantile(&latencies, 0.99),
            latencies.len(),
            "whole phase",
        );
        report.put(
            "e2e.read_sat_rps",
            closed.ok_per_s(),
            closed.samples.len(),
            "whole phase",
        );
        report.put(
            "bench.sched_lag_p99_us",
            stats::quantile(&open.lags_us(), 0.99),
            open.samples.len(),
            "",
        );
    } else {
        layers(&mut report, &tracer, &plan, addr, &tpiin, &detection, run);
    }

    // Full-body checks, once per taxpayer target, outside the timing.
    let mut client = Client::new(addr, load::TIMEOUT);
    for (node, req) in plan.hot.iter().chain(&plan.cold) {
        let ok = send(req, &mut client)
            .map(|reply| company_body_ok(&reply, tpiin.label(*node), req.group_count.unwrap_or(0)))
            .unwrap_or(false);
        report.check(
            &format!(
                "{} lists exactly the oracle's groups, each involving it",
                req.path
            ),
            ok,
        );
    }
    ServerHandle::shutdown(handle);

    if run.trace {
        tracer.write("serve_read_nation");
    }
    report
}

/// Records one span per request of `phase`, with the client's socket
/// phases as children.
fn record_requests(tracer: &Tracer, phase: &Phase) {
    for sample in &phase.samples {
        let Ok(reply) = &sample.reply else { continue };
        let whole = reply.connect + reply.ttfb + reply.body_read;
        let parent = tracer.add("request", None, sample.index, sample.sent, whole);
        tracer.add(
            "serve.connect",
            parent,
            sample.index,
            sample.sent,
            reply.connect,
        );
        tracer.add(
            "serve.ttfb",
            parent,
            sample.index,
            sample.sent + reply.connect,
            reply.ttfb,
        );
        tracer.add(
            "serve.body_read",
            parent,
            sample.index,
            sample.sent + reply.connect + reply.ttfb,
            reply.body_read,
        );
    }
}

fn median_us(spans: &[trace::Span], name: &str) -> (f64, usize) {
    let us: Vec<f64> = trace::durations_ms(spans, name)
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    (stats::median(&us), us.len())
}

/// The traced pass: shorter phases with a span per request, the rate
/// ladder, one endpoint at a time, and the handler bodies called
/// directly.
fn layers(
    report: &mut Report,
    tracer: &Tracer,
    plan: &Plan,
    addr: SocketAddr,
    tpiin: &Tpiin,
    detection: &DetectionResult,
    run: &Run,
) {
    let op = mix_op(plan);
    let clients = crate::host_cpus();
    let smoke = run.size == Size::Smoke;
    let phase_len = Duration::from_secs_f64(if smoke { 0.5 } else { 5.0 });
    let grace = Duration::from_secs(1);

    // The same open-loop phase twice: spans recorded, then not.
    let traced = load::open_loop(addr, RATE_RPS, phase_len, grace, &op);
    record_requests(tracer, &traced);
    let plain = load::open_loop(addr, RATE_RPS, phase_len, grace, &op);
    traced.account(report);
    plain.account(report);
    let latencies = traced.latencies_ms();
    report.put(
        "e2e.read_p50_ms",
        stats::quantile(&latencies, 0.5),
        latencies.len(),
        "",
    );
    report.put(
        "e2e.read_p99_ms",
        stats::quantile(&latencies, 0.99),
        latencies.len(),
        "",
    );
    report.put(
        "bench.trace_overhead_ratio",
        stats::quantile(&latencies, 0.5) / stats::quantile(&plain.latencies_ms(), 0.5),
        latencies.len(),
        "traced / untraced p50",
    );
    report.put(
        "bench.sched_lag_p99_us",
        stats::quantile(&traced.lags_us(), 0.99),
        traced.samples.len(),
        "",
    );
    let spans = tracer.spans();
    report.put_median(
        "datagen.generate_ms",
        &trace::durations_ms(&spans, "datagen.generate"),
    );
    for (metric, span) in [
        ("serve.connect_us", "serve.connect"),
        ("serve.ttfb_us", "serve.ttfb"),
        ("serve.body_read_us", "serve.body_read"),
    ] {
        let (us, n) = median_us(&spans, span);
        report.put(metric, us, n, "median over the mix");
    }
    report.put(
        "bench.residual_ratio",
        trace::residual_ratio(&spans, "request"),
        traced.samples.len(),
        "request time outside connect + ttfb + body",
    );
    report.put(
        "serve.conn_reuse_ratio",
        traced.requests as f64 / traced.connects.max(1) as f64,
        traced.requests as usize,
        "requests per TCP connection",
    );

    // The ladder: ×2 from twice the base rate; the base rate is its
    // first rung.
    let rung_len = Duration::from_secs_f64(if smoke { 0.3 } else { 2.0 });
    let mut shed = 0;
    let first = Rung::of(RATE_RPS, &traced);
    let rates: Vec<f64> = (0..=6).map(|k| RATE_RPS * f64::from(1 << k)).collect();
    let (rungs, knee) = load::climb(&rates, |rate| {
        if rate == RATE_RPS {
            return first;
        }
        let phase = load::open_loop(addr, rate, rung_len, grace, &op);
        shed += phase
            .samples
            .iter()
            .filter(|s| matches!(&s.reply, Err(why) if why.starts_with("status 503")))
            .count();
        Rung::of(rate, &phase)
    });
    let ladder: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{}rps:p99={:.1}ms,got={:.0}rps,failed={}",
                r.offered_rps, r.p99_ms, r.achieved_rps, r.failed
            )
        })
        .collect();
    report.put("e2e.knee_rps", knee, rungs.len(), &ladder.join(" "));
    report.put("serve.shed_503", shed as f64, 1, "over the ladder");

    let closed = load::closed_loop(addr, clients, phase_len.mul_f64(0.6), &op);
    closed.account(report);
    report.put(
        "e2e.read_sat_rps",
        closed.ok_per_s(),
        closed.samples.len(),
        &format!("closed loop, {clients} clients"),
    );

    // One endpoint at a time, one client, closed loop.
    fn refs(reqs: &[Req]) -> Vec<&Req> {
        reqs.iter().collect()
    }
    let hot: Vec<&Req> = plan.hot.iter().map(|(_, r)| r).collect();
    let cold: Vec<&Req> = plan.cold.iter().map(|(_, r)| r).collect();
    let arcs: Vec<&Req> = plan.arcs.iter().map(|(_, r)| r).collect();
    let healthz = Req {
        path: "/healthz".to_string(),
        group_count: None,
    };
    let rounds = if smoke { 1 } else { 4 };
    let (us, n, _) = closed_probe_us(addr, &vec![&healthz; TARGETS], rounds, report);
    report.put("serve.healthz_p50_us", us, n, "the per-connection tax");
    let (us, n, bytes) = closed_probe_us(addr, &refs(&plan.groups), rounds, report);
    report.put("serve.groups_p50_us", us, n, "");
    report.put(
        "serve.response_bytes_groups",
        bytes as f64,
        1,
        "largest page",
    );
    let (us, n, bytes) = closed_probe_us(addr, &hot, rounds.min(2), report);
    report.put("serve.company_hot_p50_ms", us / 1e3, n, "");
    report.put(
        "serve.response_bytes_company_hot",
        bytes as f64,
        1,
        "largest body",
    );
    let (us, n, _) = closed_probe_us(addr, &cold, rounds, report);
    report.put("serve.company_cold_p50_us", us, n, "");
    let (us, n, _) = closed_probe_us(addr, &arcs, rounds, report);
    report.put("serve.arc_p50_us", us, n, "");
    let (us, n, _) = closed_probe_us(addr, &refs(&plan.provenance), rounds, report);
    report.put("serve.provenance_p50_us", us, n, "");

    // The layers under the handlers, called directly.
    let us_of = |f: &mut dyn FnMut()| timed(f).1.as_secs_f64() * 1e6;
    let arc_us: Vec<f64> = plan
        .arcs
        .iter()
        .map(|((src, dst), _)| us_of(&mut || drop(groups_behind_arc(tpiin, *src, *dst))))
        .collect();
    report.put_median("core.arc_query_us", &arc_us);
    let involving = |targets: &[(NodeId, Req)]| -> Vec<f64> {
        targets
            .iter()
            .map(|(node, _)| {
                us_of(&mut || {
                    std::hint::black_box(detection.groups_involving(*node).count());
                })
            })
            .collect()
    };
    report.put_median("core.groups_involving_hot_us", &involving(&plan.hot));
    report.put_median("core.groups_involving_cold_us", &involving(&plan.cold));

    // Handler bodies: build the JSON value, then render it.
    let snapshot = ServeSnapshot::build_with(1, tpiin.clone(), &MinerRegistry::with_defaults());
    let (mut build_ms, mut render_ms) = (Vec::new(), Vec::new());
    for (node, _) in &plan.hot {
        let (json, built) = timed(|| responses::company_json(&snapshot, *node));
        let (_, rendered) = timed(|| json.to_string());
        build_ms.push(built.as_secs_f64() * 1e3);
        render_ms.push(rendered.as_secs_f64() * 1e3);
    }
    report.put_median("serve.company_json_hot_ms", &build_ms);
    report.put_median("serve.company_render_hot_ms", &render_ms);
    let (mut build_us, mut render_us) = (Vec::new(), Vec::new());
    for offset in (0..TARGETS).map(|i| i * 97 % detection.groups.len().max(1)) {
        let (json, built) = timed(|| {
            responses::groups_json(
                &snapshot,
                RULES_MINER,
                snapshot.detection(),
                Some(20),
                offset,
            )
        });
        let (_, rendered) = timed(|| json.to_string());
        build_us.push(built.as_secs_f64() * 1e6);
        render_us.push(rendered.as_secs_f64() * 1e6);
    }
    report.put_median("serve.groups_json_us", &build_us);
    report.put_median("io.json_render_us", &render_us);
    let arc_json_us: Vec<f64> = plan
        .arcs
        .iter()
        .map(|((src, dst), _)| {
            let groups = groups_behind_arc(tpiin, *src, *dst);
            us_of(&mut || drop(responses::arc_query_json(tpiin, 1, *src, *dst, &groups)))
        })
        .collect();
    report.put_median("serve.arc_json_us", &arc_json_us);
    drop(snapshot);

    // Observability's own cost: `/groups` p50 with the knob on ÷ off,
    // each on a daemon of its own next to the measured one.
    let groups = refs(&plan.groups);
    let mut p50_with = |config: ServeConfig| {
        let daemon = ServerHandle::bind(tpiin.clone(), config).expect("an ephemeral port binds");
        let (us, _, _) = closed_probe_us(daemon.addr(), &groups, rounds, report);
        daemon.shutdown();
        us
    };
    let on = p50_with(ServeConfig::default());
    let tracing_off = p50_with(ServeConfig {
        tracing: false,
        ..ServeConfig::default()
    });
    let telemetry_off = p50_with(ServeConfig {
        telemetry: false,
        ..ServeConfig::default()
    });
    report.put(
        "obs.tracing_ratio",
        on / tracing_off,
        TARGETS * rounds,
        "/groups p50, tracing on / off",
    );
    report.put(
        "obs.telemetry_ratio",
        on / telemetry_off,
        TARGETS * rounds,
        "/groups p50, telemetry on / off",
    );

    report.put_run_facts(traced.samples.len(), "traced requests");
}
