//! JSON response builders for every daemon endpoint.
//!
//! These are plain functions from snapshot data to [`Json`] values so
//! the integration tests can assert that an HTTP body is bit-identical
//! to what the offline pipeline produces: both sides call the same
//! builder and the compact `Display` encoding of [`Json`] is
//! deterministic.  Nodes are reported by label (stable across runs),
//! never by internal node id.

use crate::store::ServeSnapshot;
use tpiin_core::{DetectionResult, GroupKind, GroupRef, SuspiciousGroup, RULES_MINER};
use tpiin_delta::{ApplyOutcome, DeltaStats};
use tpiin_fusion::{ArcColor, Tpiin, INFLUENCE_LANE, TRADING_LANE};
use tpiin_graph::NodeId;
use tpiin_io::json::Json;

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

fn label_array(tpiin: &Tpiin, nodes: impl IntoIterator<Item = NodeId>) -> Json {
    Json::Array(nodes.into_iter().map(|n| s(tpiin.label(n))).collect())
}

/// One suspicious group with its proof chain, fully labelled.  `miner`
/// names the strategy that mined it, so a paginated or merged listing
/// stays self-describing.
pub fn group_json(tpiin: &Tpiin, group: GroupRef<'_>, miner: &str) -> Json {
    let kind = match group.kind {
        GroupKind::Circle => "circle",
        GroupKind::Matched if group.simple => "simple",
        GroupKind::Matched => "complex",
    };
    obj(vec![
        ("kind", s(kind)),
        ("miner", s(miner)),
        ("antecedent", s(tpiin.label(group.antecedent))),
        ("end", s(tpiin.label(group.end))),
        (
            "trading_arc",
            label_array(tpiin, [group.trading_arc.0, group.trading_arc.1]),
        ),
        (
            "trail_with_trade",
            label_array(tpiin, group.trail_with_trade.iter().copied()),
        ),
        (
            "trail_plain",
            label_array(tpiin, group.trail_plain.iter().copied()),
        ),
        ("members", label_array(tpiin, group.members())),
        ("explanation", s(group.explain(tpiin))),
    ])
}

/// The `/groups` body: headline counters for one miner's detection plus
/// the `[offset, offset + limit)` page of its groups.
pub fn groups_json(
    snapshot: &ServeSnapshot,
    miner: &str,
    detection: &DetectionResult,
    limit: Option<usize>,
    offset: usize,
) -> Json {
    let total = detection.groups.len();
    let offset = offset.min(total);
    let shown = limit.unwrap_or(total - offset).min(total - offset);
    obj(vec![
        ("epoch", num(snapshot.epoch as usize)),
        ("miner", s(miner)),
        ("group_count", num(detection.group_count())),
        ("complex", num(detection.complex_group_count)),
        ("simple", num(detection.simple_group_count)),
        (
            "suspicious_trading_arcs",
            num(detection.suspicious_trading_arcs.len()),
        ),
        ("total_trading_arcs", num(detection.total_trading_arcs)),
        (
            "intra_syndicate_trades",
            num(detection.intra_syndicate_trades),
        ),
        // After the counters: clients read `epoch` and `group_count`
        // from the head of the body.
        (
            "mined_at_epoch",
            num(snapshot.mined_at_epoch(miner).unwrap_or(snapshot.epoch) as usize),
        ),
        ("offset", num(offset)),
        ("shown", num(shown)),
        (
            "groups",
            Json::Array(
                detection
                    .groups
                    .slice(offset..offset + shown)
                    .map(|g| group_json(&snapshot.tpiin, g, miner))
                    .collect(),
            ),
        ),
    ])
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
) -> Json {
    obj(vec![
        ("epoch", num(epoch as usize)),
        ("src", s(tpiin.label(src))),
        ("dst", s(tpiin.label(dst))),
        (
            "arc_exists",
            Json::Bool(tpiin.find_arc(src, dst, ArcColor::Trading).is_some()),
        ),
        ("group_count", num(groups.len())),
        (
            "groups",
            Json::Array(
                groups
                    .iter()
                    .map(|g| group_json(tpiin, g.view(), RULES_MINER))
                    .collect(),
            ),
        ),
    ])
}

/// The `/company/{id}` body: one node's profile plus the primary
/// miner's groups it belongs to.
pub fn company_json(snapshot: &ServeSnapshot, node: NodeId) -> Json {
    let tpiin = &snapshot.tpiin;
    let miner = snapshot.primary_miner();
    let groups: Vec<Json> = snapshot
        .detection()
        .groups_involving(node)
        .map(|g| group_json(tpiin, g, miner))
        .collect();
    // Degrees count the arcs of both colours.
    let (csr, v) = (tpiin.csr(), node.index() as u32);
    let out_degree = csr.out_degree(TRADING_LANE, v) + csr.out_degree(INFLUENCE_LANE, v);
    let in_degree = csr.in_degree(TRADING_LANE, v) + csr.in_degree(INFLUENCE_LANE, v);
    obj(vec![
        ("epoch", num(snapshot.epoch as usize)),
        ("label", s(tpiin.label(node))),
        ("node", num(node.index())),
        (
            "color",
            s(format!("{:?}", tpiin.color(node)).to_ascii_lowercase()),
        ),
        ("out_degree", num(out_degree)),
        ("in_degree", num(in_degree)),
        ("group_count", num(groups.len())),
        ("groups", Json::Array(groups)),
    ])
}

/// The `POST /ingest` body: which delta path ran, only what this batch
/// changed, plus the engine's lifetime totals.  The original
/// trading-append fields keep their names so pre-delta clients parse
/// the response unchanged.
pub fn ingest_json(tpiin: &Tpiin, epoch: u64, outcome: &ApplyOutcome, stats: &DeltaStats) -> Json {
    obj(vec![
        ("epoch", num(epoch as usize)),
        ("path", s(outcome.path.as_str())),
        ("mutations_applied", num(outcome.mutations_applied)),
        ("new_group_count", num(outcome.new_groups.len())),
        (
            "new_groups",
            Json::Array(
                outcome
                    .new_groups
                    .iter()
                    .map(|g| group_json(tpiin, g.view(), RULES_MINER))
                    .collect(),
            ),
        ),
        (
            "new_suspicious_arcs",
            Json::Array(
                outcome
                    .new_suspicious_arcs
                    .iter()
                    .map(|&(a, b)| label_array(tpiin, [a, b]))
                    .collect(),
            ),
        ),
        ("duplicates", num(outcome.duplicates)),
        ("intra_syndicate", num(outcome.intra_syndicate)),
        ("arcs_patched", num(outcome.arcs_patched)),
        ("shards_remined", num(outcome.shards_remined)),
        ("cache_hits", num(outcome.cache_hits)),
        (
            "totals",
            obj(vec![
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
            ]),
        ),
    ])
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
) -> Json {
    let tpiin = &snapshot.tpiin;
    let (influence_records, trading_records) = prov.source_records();
    let record_array =
        |records: Vec<u32>| Json::Array(records.into_iter().map(|r| num(r as usize)).collect());
    obj(vec![
        ("epoch", num(snapshot.epoch as usize)),
        ("miner", s(miner)),
        ("group_id", num(index)),
        ("group", group_json(tpiin, group, miner)),
        ("rule", s(prov.rule.describe())),
        (
            "influence_arcs",
            Json::Array(
                prov.influence_arcs
                    .iter()
                    .map(arc_provenance_json)
                    .collect(),
            ),
        ),
        ("trading_arc", arc_provenance_json(&prov.trading_arc)),
        (
            "members",
            Json::Array(
                prov.members
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("label", s(m.label.clone())),
                            ("color", s(format!("{:?}", m.color).to_ascii_lowercase())),
                            ("person_members", record_array(m.person_members.clone())),
                            ("company_members", record_array(m.company_members.clone())),
                            ("syndicate", Json::Bool(m.is_syndicate())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "score",
            obj(vec![
                (
                    "influence_weights",
                    Json::Array(
                        prov.score
                            .influence_weights
                            .iter()
                            .map(|&w| fnum(w))
                            .collect(),
                    ),
                ),
                ("chain_strength", fnum(prov.score.chain_strength)),
                ("trade_volume", fnum(prov.score.trade_volume)),
                ("score", fnum(prov.score.score)),
            ]),
        ),
        (
            "source_records",
            obj(vec![
                ("influence", record_array(influence_records)),
                ("trading", record_array(trading_records)),
            ]),
        ),
        ("rendered", s(prov.render(group, tpiin))),
    ])
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

    fn primary_groups(snap: &ServeSnapshot, limit: Option<usize>, offset: usize) -> Json {
        groups_json(snap, snap.primary_miner(), snap.detection(), limit, offset)
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
        let json = groups_json(&snap, "circular", detection, None, 0);
        assert_eq!(json.get("miner").and_then(Json::as_str), Some("circular"));
        assert_eq!(
            json.get("group_count").and_then(Json::as_f64),
            Some(detection.group_count() as f64)
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let snap = snapshot();
        let a = primary_groups(&snap, None, 0).to_string();
        let b = primary_groups(&snap, None, 0).to_string();
        assert_eq!(a, b);
        assert!(Json::parse(&a).is_ok(), "round-trips through the parser");
    }

    #[test]
    fn arc_query_json_labels_both_ends() {
        let snap = snapshot();
        let src = snap.resolve_node("C3").unwrap();
        let dst = snap.resolve_node("C5").unwrap();
        let groups = tpiin_core::groups_behind_arc(&snap.tpiin, src, dst);
        let json = arc_query_json(&snap.tpiin, snap.epoch, src, dst, &groups);
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
            arc_query_json(&snap.tpiin, snap.epoch, src, dst, &[])
                .get("arc_exists")
                .cloned()
        };
        // Influence and investment arcs are not trading arcs.
        assert_eq!(arc_exists("L2", "C3"), Some(Json::Bool(false)));
        assert_eq!(arc_exists("C1", "C3"), Some(Json::Bool(false)));
        assert_eq!(arc_exists("C3", "C5"), Some(Json::Bool(true)));
    }
}
