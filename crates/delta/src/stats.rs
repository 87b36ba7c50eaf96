//! Lifetime counters of one [`crate::DeltaEngine`].

/// Totals accumulated across every [`crate::DeltaEngine::apply`] call.
///
/// The first five fields keep the semantics of the retired streaming
/// detector's ingest gauges (`ingest.records`, `ingest.duplicates`,
/// `ingest.intra_syndicate`, `ingest.arcs_added`, `ingest.groups`); the
/// rest are the delta-maintenance counters surfaced by `GET /status`
/// (`delta.batches`, `delta.arcs_patched`, `delta.company_appends`,
/// `delta.full_rebuilds`, `delta.shards_remined`, `delta.cache_hits`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Trading records received (including duplicates).
    pub records_ingested: u64,
    /// Trading records skipped because the arc was already present.
    pub duplicates: u64,
    /// Trading records that fell inside a contracted company syndicate.
    pub intra_syndicate: u64,
    /// New trading arcs appended to the network.
    pub arcs_added: u64,
    /// Suspicious groups discovered by streaming (cumulative new groups).
    pub groups_found: u64,
    /// Mutation batches applied (all paths).
    pub batches_applied: u64,
    /// Arcs spliced in place by the two append paths: appended trading
    /// arcs and the legal-person arcs of registered companies.  A
    /// re-fuse patches nothing and adds nothing here.
    pub arcs_patched: u64,
    /// Batches absorbed by the surgical company-append path (new company
    /// nodes spliced in place, only touched shards re-mined).
    pub company_appends: u64,
    /// Always 0, and neither served nor published.  Kept only because
    /// the frozen benchmark reads it; it goes when the benchmark's next
    /// revision stops doing so.
    pub sccs_rerun: u64,
    /// Batches re-fused from scratch: every batch with a registry
    /// mutation other than a company append (persons, influence,
    /// investments, interdependence, removals).
    pub full_rebuilds: u64,
    /// SubTPIINs re-mined because their local structure changed.
    pub shards_remined: u64,
    /// SubTPIINs whose groups replayed from the shard cache.
    pub shard_cache_hits: u64,
}

impl DeltaStats {
    /// Publishes the totals as gauges on `registry`.  The engine calls
    /// this with [`tpiin_obs::global`] after every batch.
    pub fn publish_to(&self, registry: &tpiin_obs::MetricsRegistry) {
        let set = |name: &str, value: u64| registry.gauge(name).set(value as f64);
        set("ingest.records", self.records_ingested);
        set("ingest.duplicates", self.duplicates);
        set("ingest.intra_syndicate", self.intra_syndicate);
        set("ingest.arcs_added", self.arcs_added);
        set("ingest.groups", self.groups_found);
        set("delta.batches", self.batches_applied);
        set("delta.arcs_patched", self.arcs_patched);
        set("delta.company_appends", self.company_appends);
        set("delta.full_rebuilds", self.full_rebuilds);
        set("delta.shards_remined", self.shards_remined);
        set("delta.cache_hits", self.shard_cache_hits);
    }
}
