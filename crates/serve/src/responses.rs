//! JSON response builders for every daemon endpoint.
//!
//! These are plain functions from snapshot data to response bodies so
//! the integration tests can assert that an HTTP body is bit-identical
//! to what the offline pipeline produces: both sides call the same
//! builder, and the encoding is compact and deterministic.  Nodes are
//! reported by label (stable across runs), never by internal node id.
//!
//! Every body that carries groups (`/groups`, `/company`,
//! `/groups_behind_arc`, `/groups/{id}/provenance` and the ingest ack)
//! is returned finished, as a `String`: [`write_group`] appends each
//! group's compact JSON straight to it, with no [`Json`] value in
//! between.  The other bodies are small and stay [`Json`] values.

use crate::store::ServeSnapshot;
use tpiin_core::{DetectionResult, GroupRef, SuspiciousGroup, RULES_MINER};
use tpiin_delta::{ApplyOutcome, DeltaStats};
use tpiin_fusion::{ArcColor, Tpiin, INFLUENCE_LANE, TRADING_LANE};
use tpiin_graph::NodeId;
use tpiin_io::json::{write_string, Json};

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(value: usize) -> Json {
    Json::Number(value as f64)
}

fn s(text: impl Into<String>) -> Json {
    Json::String(text.into())
}

/// Appends `"key":` to the object `out` is writing, after a comma unless
/// the object was just opened; returns `out` for the value.
fn key<'a>(out: &'a mut String, key: &str) -> &'a mut String {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out
}

fn write_num(out: &mut String, name: &str, value: usize) {
    num(value).write(key(out, name));
}

fn write_text(out: &mut String, name: &str, value: &str) {
    write_string(value, key(out, name));
}

/// Appends the labels of `nodes` as a JSON array.
fn write_labels<'n>(out: &mut String, tpiin: &Tpiin, nodes: impl IntoIterator<Item = &'n NodeId>) {
    out.push('[');
    for (i, &node) in nodes.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(tpiin.label(node), out);
    }
    out.push(']');
}

/// Writes groups, reusing one explanation buffer across them.
struct GroupWriter<'a> {
    tpiin: &'a Tpiin,
    miner: &'a str,
    text: String,
}

impl<'a> GroupWriter<'a> {
    fn new(tpiin: &'a Tpiin, miner: &'a str) -> GroupWriter<'a> {
        GroupWriter {
            tpiin,
            miner,
            text: String::new(),
        }
    }

    fn write(&mut self, out: &mut String, group: GroupRef<'_>) {
        let tpiin = self.tpiin;
        let members = group.members();
        self.text.clear();
        group.write_explanation(tpiin, &members, &mut self.text);
        out.push('{');
        write_text(out, "kind", group.kind_name());
        write_text(out, "miner", self.miner);
        write_text(out, "antecedent", tpiin.label(group.antecedent));
        write_text(out, "end", tpiin.label(group.end));
        let arc = [group.trading_arc.0, group.trading_arc.1];
        write_labels(key(out, "trading_arc"), tpiin, &arc);
        write_labels(key(out, "trail_with_trade"), tpiin, group.trail_with_trade);
        write_labels(key(out, "trail_plain"), tpiin, group.trail_plain);
        write_labels(key(out, "members"), tpiin, &members);
        write_text(out, "explanation", &self.text);
        out.push('}');
    }

    /// Appends `groups` as a JSON array.
    fn write_all<'g>(&mut self, out: &mut String, groups: impl IntoIterator<Item = GroupRef<'g>>) {
        out.push('[');
        for (i, group) in groups.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.write(out, group);
        }
        out.push(']');
    }
}

/// Appends one suspicious group with its proof chain, fully labelled, as
/// a compact JSON object.  `miner` names the strategy that mined it, so a
/// paginated or merged listing stays self-describing.
pub fn write_group(out: &mut String, tpiin: &Tpiin, group: GroupRef<'_>, miner: &str) {
    GroupWriter::new(tpiin, miner).write(out, group);
}

/// The `/groups` body: headline counters for one miner's detection plus
/// the `[offset, offset + limit)` page of its groups.
pub fn groups_json(
    snapshot: &ServeSnapshot,
    miner: &str,
    detection: &DetectionResult,
    limit: Option<usize>,
    offset: usize,
) -> String {
    let total = detection.groups.len();
    let offset = offset.min(total);
    let shown = limit.unwrap_or(total - offset).min(total - offset);
    let mut out = String::from("{");
    write_num(&mut out, "epoch", snapshot.epoch as usize);
    write_text(&mut out, "miner", miner);
    write_num(&mut out, "group_count", detection.group_count());
    write_num(&mut out, "complex", detection.complex_group_count);
    write_num(&mut out, "simple", detection.simple_group_count);
    write_num(
        &mut out,
        "suspicious_trading_arcs",
        detection.suspicious_trading_arcs.len(),
    );
    write_num(&mut out, "total_trading_arcs", detection.total_trading_arcs);
    write_num(
        &mut out,
        "intra_syndicate_trades",
        detection.intra_syndicate_trades,
    );
    // After the counters: clients read `epoch` and `group_count` from
    // the head of the body.
    let mined_at = snapshot.mined_at_epoch(miner).unwrap_or(snapshot.epoch);
    write_num(&mut out, "mined_at_epoch", mined_at as usize);
    write_num(&mut out, "offset", offset);
    write_num(&mut out, "shown", shown);
    let page = detection.groups.slice(offset..offset + shown);
    GroupWriter::new(&snapshot.tpiin, miner).write_all(key(&mut out, "groups"), page);
    out.push('}');
    out
}

/// The `/groups_behind_arc` body: the Section 6 investigator query.
/// `arc_exists` says whether the *trading* arc `src -> dst` exists; an
/// influence arc between the same nodes does not count.
pub fn arc_query_json(
    tpiin: &Tpiin,
    epoch: u64,
    src: NodeId,
    dst: NodeId,
    groups: &[SuspiciousGroup],
) -> String {
    let mut out = String::from("{");
    write_num(&mut out, "epoch", epoch as usize);
    write_text(&mut out, "src", tpiin.label(src));
    write_text(&mut out, "dst", tpiin.label(dst));
    let exists = tpiin.find_arc(src, dst, ArcColor::Trading).is_some();
    Json::Bool(exists).write(key(&mut out, "arc_exists"));
    write_num(&mut out, "group_count", groups.len());
    let groups = groups.iter().map(SuspiciousGroup::view);
    GroupWriter::new(tpiin, RULES_MINER).write_all(key(&mut out, "groups"), groups);
    out.push('}');
    out
}

/// The `/company/{id}` body: one node's profile plus the primary
/// miner's groups it belongs to.
pub fn company_json(snapshot: &ServeSnapshot, node: NodeId) -> String {
    let tpiin = &snapshot.tpiin;
    let groups: Vec<GroupRef<'_>> = snapshot.detection().groups_involving(node).collect();
    // Degrees count the arcs of both colours.
    let (csr, v) = (tpiin.csr(), node.index() as u32);
    let out_degree = csr.out_degree(TRADING_LANE, v) + csr.out_degree(INFLUENCE_LANE, v);
    let in_degree = csr.in_degree(TRADING_LANE, v) + csr.in_degree(INFLUENCE_LANE, v);
    let mut out = String::from("{");
    write_num(&mut out, "epoch", snapshot.epoch as usize);
    write_text(&mut out, "label", tpiin.label(node));
    write_num(&mut out, "node", node.index());
    let color = format!("{:?}", tpiin.color(node)).to_ascii_lowercase();
    write_text(&mut out, "color", &color);
    write_num(&mut out, "out_degree", out_degree);
    write_num(&mut out, "in_degree", in_degree);
    write_num(&mut out, "group_count", groups.len());
    let mut writer = GroupWriter::new(tpiin, snapshot.primary_miner());
    writer.write_all(key(&mut out, "groups"), groups);
    out.push('}');
    out
}

/// The `POST /ingest` body: which delta path ran, only what this batch
/// changed, plus the engine's lifetime totals.  The original
/// trading-append fields keep their names so pre-delta clients parse
/// the response unchanged.
pub fn ingest_json(
    tpiin: &Tpiin,
    epoch: u64,
    outcome: &ApplyOutcome,
    stats: &DeltaStats,
) -> String {
    let mut out = String::from("{");
    write_num(&mut out, "epoch", epoch as usize);
    write_text(&mut out, "path", outcome.path.as_str());
    write_num(&mut out, "mutations_applied", outcome.mutations_applied);
    write_num(&mut out, "new_group_count", outcome.new_groups.len());
    let groups = outcome.new_groups.iter().map(SuspiciousGroup::view);
    GroupWriter::new(tpiin, RULES_MINER).write_all(key(&mut out, "new_groups"), groups);
    key(&mut out, "new_suspicious_arcs").push('[');
    for (i, &(a, b)) in outcome.new_suspicious_arcs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_labels(&mut out, tpiin, &[a, b]);
    }
    out.push(']');
    write_num(&mut out, "duplicates", outcome.duplicates);
    write_num(&mut out, "intra_syndicate", outcome.intra_syndicate);
    write_num(&mut out, "arcs_patched", outcome.arcs_patched);
    write_num(&mut out, "shards_remined", outcome.shards_remined);
    write_num(&mut out, "cache_hits", outcome.cache_hits);
    let totals = obj(vec![
        ("records", num(stats.records_ingested as usize)),
        ("duplicates", num(stats.duplicates as usize)),
        ("intra_syndicate", num(stats.intra_syndicate as usize)),
        ("arcs_added", num(stats.arcs_added as usize)),
        ("groups", num(stats.groups_found as usize)),
        ("batches", num(stats.batches_applied as usize)),
        ("arcs_patched", num(stats.arcs_patched as usize)),
        ("company_appends", num(stats.company_appends as usize)),
        ("full_rebuilds", num(stats.full_rebuilds as usize)),
        ("shards_remined", num(stats.shards_remined as usize)),
        ("cache_hits", num(stats.shard_cache_hits as usize)),
    ]);
    totals.write(key(&mut out, "totals"));
    out.push('}');
    out
}

fn fnum(value: f64) -> Json {
    Json::Number(value)
}

fn arc_provenance_json(arc: &tpiin_core::ArcProvenance) -> Json {
    obj(vec![
        ("source", s(arc.source_label.clone())),
        ("target", s(arc.target_label.clone())),
        ("color", s(format!("{:?}", arc.color).to_ascii_lowercase())),
        ("weight", fnum(arc.weight)),
        (
            "source_record",
            match arc.source_record {
                Some(seq) => num(seq as usize),
                None => Json::Null,
            },
        ),
    ])
}

/// The `/groups/{id}/provenance` body: rule, arc lineage (each arc
/// resolved to its winning source record), contraction lineage and the
/// per-term score breakdown of one mined group.  Nothing stores a chain:
/// the handler assembles `prov` per request from `(tpiin, group)` through
/// the owning miner's provenance hook before calling this.
pub fn provenance_json(
    snapshot: &ServeSnapshot,
    miner: &str,
    group: GroupRef<'_>,
    index: usize,
    prov: &tpiin_core::Provenance,
) -> String {
    let tpiin = &snapshot.tpiin;
    let (influence_records, trading_records) = prov.source_records();
    let record_array =
        |records: Vec<u32>| Json::Array(records.into_iter().map(|r| num(r as usize)).collect());
    let mut out = String::from("{");
    write_num(&mut out, "epoch", snapshot.epoch as usize);
    write_text(&mut out, "miner", miner);
    write_num(&mut out, "group_id", index);
    write_group(key(&mut out, "group"), tpiin, group, miner);
    write_text(&mut out, "rule", prov.rule.describe());
    let influence_arcs = prov.influence_arcs.iter().map(arc_provenance_json);
    Json::Array(influence_arcs.collect()).write(key(&mut out, "influence_arcs"));
    arc_provenance_json(&prov.trading_arc).write(key(&mut out, "trading_arc"));
    let members = prov.members.iter().map(|m| {
        obj(vec![
            ("label", s(m.label.clone())),
            ("color", s(format!("{:?}", m.color).to_ascii_lowercase())),
            ("person_members", record_array(m.person_members.clone())),
            ("company_members", record_array(m.company_members.clone())),
            ("syndicate", Json::Bool(m.is_syndicate())),
        ])
    });
    Json::Array(members.collect()).write(key(&mut out, "members"));
    let weights = prov.score.influence_weights.iter().map(|&w| fnum(w));
    obj(vec![
        ("influence_weights", Json::Array(weights.collect())),
        ("chain_strength", fnum(prov.score.chain_strength)),
        ("trade_volume", fnum(prov.score.trade_volume)),
        ("score", fnum(prov.score.score)),
    ])
    .write(key(&mut out, "score"));
    obj(vec![
        ("influence", record_array(influence_records)),
        ("trading", record_array(trading_records)),
    ])
    .write(key(&mut out, "source_records"));
    write_text(&mut out, "rendered", &prov.render(group, tpiin));
    out.push('}');
    out
}

/// The `/healthz` body.
pub fn health_json(snapshot: &ServeSnapshot) -> Json {
    obj(vec![
        ("status", s("ok")),
        ("epoch", num(snapshot.epoch as usize)),
        ("nodes", num(snapshot.tpiin.node_count())),
        ("trading_arcs", num(snapshot.tpiin.trading_arc_count)),
        ("groups", num(snapshot.detection().group_count())),
    ])
}

/// Everything `/status` reports beyond the snapshot itself, gathered
/// by the handler (pool occupancy, counters, process resources).
pub struct StatusReport {
    /// Seconds since the daemon bound its listener.
    pub uptime_secs: f64,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Workers executing a request right now.
    pub busy_workers: usize,
    /// Requests waiting in the pool queue right now.
    pub queued_requests: usize,
    /// Queue capacity before load shedding kicks in.
    pub queue_capacity: usize,
    /// Requests shed with 503 since start.
    pub shed_requests: u64,
    /// Snapshot reloads since start.
    pub reloads: u64,
    /// Milliseconds the most recent snapshot load+swap took (0 until
    /// the first startup load or `/reload`).
    pub snapshot_load_ms: f64,
    /// Mutation batches the delta engine applied since start.
    pub batches_applied: u64,
    /// Arcs spliced in place by the append paths (no re-fuse).
    pub arcs_patched: u64,
    /// Batches absorbed by the surgical company-append path.
    pub company_appends: u64,
    /// Batches re-fused from scratch: every registry mutation other
    /// than a company append.
    pub full_rebuilds: u64,
    /// SubTPIINs re-mined across all applied batches.
    pub shards_remined: u64,
    /// SubTPIINs replayed from the shard cache instead of re-mined.
    pub shard_cache_hits: u64,
    /// Process allocator ledger.
    pub alloc: tpiin_obs::AllocStats,
    /// Kernel view (`None` off Linux).
    pub proc: Option<tpiin_obs::ProcSample>,
    /// Worst SLO alert state across the health engine (`ok`/`warn`/
    /// `page`), or `off` when the daemon runs without telemetry.
    pub health: String,
    /// SLO specs currently at `ok`.
    pub alerts_ok: usize,
    /// SLO specs currently at `warn`.
    pub alerts_warn: usize,
    /// SLO specs currently at `page`.
    pub alerts_page: usize,
}

/// The `/status` body: served-epoch shape, uptime, pool occupancy and
/// the process resource state.
pub fn status_json(snapshot: &ServeSnapshot, report: &StatusReport) -> Json {
    let mut fields = vec![
        ("status", s("ok")),
        ("epoch", num(snapshot.epoch as usize)),
        (
            "snapshot_bytes",
            Json::Number(snapshot.tpiin.approx_heap_bytes() as f64),
        ),
        ("nodes", num(snapshot.tpiin.node_count())),
        ("trading_arcs", num(snapshot.tpiin.trading_arc_count)),
        ("influence_arcs", num(snapshot.tpiin.influence_arc_count)),
        ("groups", num(snapshot.detection().group_count())),
        (
            "miners",
            Json::Array(snapshot.miner_names().into_iter().map(s).collect()),
        ),
        (
            "detections",
            Json::Array(
                snapshot
                    .mined_at_epochs()
                    .map(|(miner, mined_at)| {
                        obj(vec![
                            ("miner", s(miner)),
                            ("mined_at_epoch", num(mined_at as usize)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("uptime_secs", Json::Number(report.uptime_secs)),
        ("workers", num(report.workers)),
        ("busy_workers", num(report.busy_workers)),
        ("queued_requests", num(report.queued_requests)),
        ("queue_capacity", num(report.queue_capacity)),
        ("shed_requests", Json::Number(report.shed_requests as f64)),
        ("reloads", Json::Number(report.reloads as f64)),
        ("snapshot_load_ms", Json::Number(report.snapshot_load_ms)),
        ("health", s(report.health.clone())),
        (
            "alerts",
            obj(vec![
                ("ok", num(report.alerts_ok)),
                ("warn", num(report.alerts_warn)),
                ("page", num(report.alerts_page)),
            ]),
        ),
        (
            "delta",
            obj(vec![
                ("batches", Json::Number(report.batches_applied as f64)),
                ("arcs_patched", Json::Number(report.arcs_patched as f64)),
                (
                    "company_appends",
                    Json::Number(report.company_appends as f64),
                ),
                ("full_rebuilds", Json::Number(report.full_rebuilds as f64)),
                ("shards_remined", Json::Number(report.shards_remined as f64)),
                ("cache_hits", Json::Number(report.shard_cache_hits as f64)),
            ]),
        ),
        (
            "alloc_live_bytes",
            Json::Number(report.alloc.live_bytes as f64),
        ),
        (
            "alloc_peak_bytes",
            Json::Number(report.alloc.peak_bytes as f64),
        ),
        (
            "alloc_total_bytes",
            Json::Number(report.alloc.total_bytes as f64),
        ),
        (
            "alloc_total_allocs",
            Json::Number(report.alloc.total_allocs as f64),
        ),
    ];
    if let Some(proc) = &report.proc {
        fields.push(("rss_bytes", Json::Number(proc.rss_bytes as f64)));
        fields.push(("minor_faults", Json::Number(proc.minor_faults as f64)));
        fields.push(("major_faults", Json::Number(proc.major_faults as f64)));
    }
    obj(fields)
}

/// `GET /timeline` with no `metric` parameter: the queryable series
/// index plus the recorder's tier configuration, so a client can pick
/// a series and know what resolution to expect.
pub fn timeline_index_json(
    names: &[String],
    last_tick: Option<u64>,
    config: &tpiin_obs::TimelineConfig,
) -> Json {
    obj(vec![
        ("last_tick", num(last_tick.unwrap_or(0) as usize)),
        ("fine_capacity", num(config.fine_capacity)),
        ("coarse_every", num(config.coarse_every as usize)),
        ("coarse_capacity", num(config.coarse_capacity)),
        (
            "metrics",
            Json::Array(names.iter().map(|n| s(n.clone())).collect()),
        ),
    ])
}

/// `GET /timeline?metric=..&since=..` — one series' points.
pub fn timeline_json(metric: &str, since: u64, points: &[tpiin_obs::TimelinePoint]) -> Json {
    obj(vec![
        ("metric", s(metric)),
        ("since", num(since as usize)),
        (
            "points",
            Json::Array(
                points
                    .iter()
                    .map(|p| {
                        obj(vec![
                            ("tick", num(p.tick as usize)),
                            ("value", Json::Number(p.value)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `GET /alerts` — every SLO state machine's standing.
pub fn alerts_json(
    statuses: &[tpiin_obs::AlertStatus],
    worst: tpiin_obs::AlertState,
    last_tick: Option<u64>,
) -> Json {
    obj(vec![
        ("worst", s(worst.as_str())),
        ("last_tick", num(last_tick.unwrap_or(0) as usize)),
        (
            "alerts",
            Json::Array(
                statuses
                    .iter()
                    .map(|status| {
                        obj(vec![
                            ("name", s(status.name.clone())),
                            ("state", s(status.state.as_str())),
                            ("objective", s(status.objective.clone())),
                            ("burn_short", Json::Number(status.burn_short)),
                            ("burn_long", Json::Number(status.burn_long)),
                            ("since_tick", num(status.since_tick as usize)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `GET /slowlog` — the slow-request exemplar ring, oldest first.
/// Every entry links to its trace replay so a latency outlier is one
/// request away from its span breakdown.
pub fn slowlog_json(
    threshold_ms: f64,
    capacity: usize,
    entries: &[crate::handlers::SlowEntry],
) -> Json {
    obj(vec![
        ("threshold_ms", Json::Number(threshold_ms)),
        ("capacity", num(capacity)),
        ("count", num(entries.len())),
        (
            "entries",
            Json::Array(
                entries
                    .iter()
                    .map(|entry| {
                        let mut fields = vec![
                            ("at_secs", Json::Number(entry.at_secs)),
                            ("endpoint", s(entry.endpoint)),
                            ("status", num(entry.status as usize)),
                            ("epoch", num(entry.epoch as usize)),
                            ("latency_ms", Json::Number(entry.latency_us as f64 / 1e3)),
                            ("alloc_bytes", Json::Number(entry.alloc_bytes as f64)),
                            ("allocs", Json::Number(entry.allocs as f64)),
                        ];
                        match &entry.trace {
                            Some(id) => {
                                fields.push(("trace", s(id.clone())));
                                fields.push(("trace_url", s(format!("/trace/{id}"))));
                            }
                            None => fields.push(("trace", Json::Null)),
                        }
                        obj(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ServeSnapshot;

    fn snapshot() -> ServeSnapshot {
        let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
        ServeSnapshot::build(7, tpiin)
    }

    fn parse(body: String) -> Json {
        Json::parse(&body).unwrap_or_else(|err| panic!("{err}: {body}"))
    }

    fn primary_groups(snap: &ServeSnapshot, limit: Option<usize>, offset: usize) -> Json {
        parse(groups_json(
            snap,
            snap.primary_miner(),
            snap.detection(),
            limit,
            offset,
        ))
    }

    #[test]
    fn groups_json_reports_fig7_counts() {
        let snap = snapshot();
        let json = primary_groups(&snap, None, 0);
        assert_eq!(json.get("epoch").and_then(Json::as_f64), Some(7.0));
        assert_eq!(json.get("miner").and_then(Json::as_str), Some("rules"));
        let count = json.get("group_count").and_then(Json::as_f64).unwrap();
        assert!(count > 0.0);
        let Some(Json::Array(groups)) = json.get("groups") else {
            panic!("groups array missing");
        };
        assert_eq!(groups.len() as f64, count);
        // Every listed group names its owning miner.
        for group in groups {
            assert_eq!(group.get("miner").and_then(Json::as_str), Some("rules"));
        }
        // Limit truncates the list but not the counters.
        let limited = primary_groups(&snap, Some(1), 0);
        let Some(Json::Array(one)) = limited.get("groups") else {
            panic!("groups array missing");
        };
        assert_eq!(one.len(), 1);
        assert_eq!(
            limited.get("group_count").and_then(Json::as_f64),
            Some(count)
        );
    }

    #[test]
    fn groups_json_paginates_with_offset() {
        let snap = snapshot();
        let all = primary_groups(&snap, None, 0);
        let Some(Json::Array(every)) = all.get("groups") else {
            panic!("groups array missing");
        };
        assert!(every.len() >= 2, "fig7 mines multiple groups");
        // Page [1, 2) is the second element of the full listing.
        let page = primary_groups(&snap, Some(1), 1);
        assert_eq!(page.get("offset").and_then(Json::as_f64), Some(1.0));
        assert_eq!(page.get("shown").and_then(Json::as_f64), Some(1.0));
        let Some(Json::Array(items)) = page.get("groups") else {
            panic!("groups array missing");
        };
        assert_eq!(items[0].to_string(), every[1].to_string());
        // An offset past the end yields an empty page, not a panic.
        let past = primary_groups(&snap, None, 10_000);
        assert_eq!(past.get("shown").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn groups_json_serves_secondary_miners() {
        let snap = snapshot();
        let detection = snap.detection_for("circular").expect("default set");
        let json = parse(groups_json(&snap, "circular", detection, None, 0));
        assert_eq!(json.get("miner").and_then(Json::as_str), Some("circular"));
        assert_eq!(
            json.get("group_count").and_then(Json::as_f64),
            Some(detection.group_count() as f64)
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let snap = snapshot();
        let body = || groups_json(&snap, "rules", snap.detection(), None, 0);
        let (a, b) = (body(), body());
        assert_eq!(a, b);
        assert_eq!(parse(a).to_string(), b, "compact, as the parser reads it");
    }

    #[test]
    fn arc_query_json_labels_both_ends() {
        let snap = snapshot();
        let src = snap.resolve_node("C3").unwrap();
        let dst = snap.resolve_node("C5").unwrap();
        let groups = tpiin_core::groups_behind_arc(&snap.tpiin, src, dst);
        let json = parse(arc_query_json(&snap.tpiin, snap.epoch, src, dst, &groups));
        assert_eq!(json.get("src").and_then(Json::as_str), Some("C3"));
        assert_eq!(json.get("arc_exists"), Some(&Json::Bool(true)));
        assert_eq!(
            json.get("group_count").and_then(Json::as_f64),
            Some(groups.len() as f64)
        );
    }

    #[test]
    fn arc_exists_means_the_trading_arc() {
        let snap = snapshot();
        let arc_exists = |src: &str, dst: &str| {
            let (src, dst) = (snap.resolve_node(src), snap.resolve_node(dst));
            let (src, dst) = (src.unwrap(), dst.unwrap());
            parse(arc_query_json(&snap.tpiin, snap.epoch, src, dst, &[]))
                .get("arc_exists")
                .cloned()
        };
        // Influence and investment arcs are not trading arcs.
        assert_eq!(arc_exists("L2", "C3"), Some(Json::Bool(false)));
        assert_eq!(arc_exists("C1", "C3"), Some(Json::Bool(false)));
        assert_eq!(arc_exists("C3", "C5"), Some(Json::Bool(true)));
    }
}
