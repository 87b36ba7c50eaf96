//! The delta-fusion engine: typed mutation batches in, a maintained
//! TPIIN plus its mined groups out.

use crate::cache::{shard_signature, ShardCache, Signature};
use crate::stats::DeltaStats;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use tpiin_core::{
    assemble_detection, mine_appended, segment_one, segment_tpiin, AppendedGroups, DetectionResult,
    DetectorConfig, GroupKind, GroupRef, ShardMiner, ShardOutcome, SubTpiin, SuspiciousGroup,
};
use tpiin_fusion::compact::{Label, Members};
use tpiin_fusion::{fuse, ArcColor, FusionError, IntraSyndicateTrade, Tpiin, TpiinArc, TpiinNode};
use tpiin_graph::NodeId;
use tpiin_model::{
    InfluenceRecord, ModelError, Mutation, MutationBatch, SourceRegistry, TradingRecord,
};

/// Which maintenance path absorbed a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaPath {
    /// Surgical trading-arc append into the frozen network.
    TradingAppend,
    /// Surgical company registration: new company nodes and their
    /// legal-person arcs spliced directly into the frozen network (plus
    /// any trading appends riding in the same batch).  No existing node
    /// id moves, so only the touched shards re-mine.
    CompanyAppend,
    /// From-scratch fuse of the mutated registry, for every other
    /// registry mutation (persons, influence, investments,
    /// interdependence, removals).  Node ids may move, but shards whose
    /// local structure survived replay from the shard cache, so only
    /// changed shards re-mine.
    FullRebuild,
}

impl DeltaPath {
    /// Stable lowercase name for JSON surfaces.
    pub fn as_str(&self) -> &'static str {
        match self {
            DeltaPath::TradingAppend => "trading_append",
            DeltaPath::CompanyAppend => "company_append",
            DeltaPath::FullRebuild => "full_rebuild",
        }
    }
}

/// Why a batch was rejected.  A rejected batch leaves the engine
/// exactly as it was — mutations apply to a clone and swap on success.
#[derive(Debug)]
pub enum DeltaError {
    /// A mutation failed to apply (unknown entity, self arc).
    Mutation(ModelError),
    /// The mutated registry failed structural validation, or fusion
    /// found the labels inconsistent.
    Fusion(FusionError),
    /// A registry mutation reached an engine constructed from a bare
    /// TPIIN ([`DeltaEngine::from_tpiin`]); only trading appends are
    /// possible without source records.
    RegistryRequired,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Mutation(e) => write!(f, "mutation failed: {e}"),
            DeltaError::Fusion(e) => write!(f, "re-fusion failed: {e}"),
            DeltaError::RegistryRequired => {
                write!(f, "registry mutations require a registry-backed engine")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<ModelError> for DeltaError {
    fn from(e: ModelError) -> Self {
        DeltaError::Mutation(e)
    }
}

impl From<FusionError> for DeltaError {
    fn from(e: FusionError) -> Self {
        DeltaError::Fusion(e)
    }
}

/// Outcome of one applied batch.
#[derive(Debug)]
pub struct ApplyOutcome {
    /// Which maintenance path ran.
    pub path: DeltaPath,
    /// Mutations that changed the registry (no-op removals excluded).
    pub mutations_applied: usize,
    /// Groups present after this batch that did not exist before it.
    ///
    /// On the paths that keep node ids (`TradingAppend`,
    /// `CompanyAppend`) a group existed before iff the same kind,
    /// trading arc and trails — as node ids — were in the previous
    /// detection, which there holds exactly when its trading arc is not
    /// one this batch appended.  On the renumbering path (`FullRebuild`)
    /// ids mean nothing across the batch, so groups are matched by the
    /// label sequences of those nodes instead.  With
    /// unique node labels (every generator and test in the tree) the two
    /// rules coincide; on a registry with duplicate labels the id rule is
    /// the definition — a group over different nodes is a different
    /// group.
    pub new_groups: Vec<SuspiciousGroup>,
    /// Suspicious trading arcs new with this batch, in current node ids.
    pub new_suspicious_arcs: Vec<(NodeId, NodeId)>,
    /// Trading records skipped because the arc was already present.
    pub duplicates: usize,
    /// Trading records that fell inside a company syndicate.
    pub intra_syndicate: usize,
    /// Arcs spliced in place (the two append paths only).
    pub arcs_patched: usize,
    /// SubTPIINs mined whole for this batch.  A trading append that
    /// mines only its own arcs in a shard counts none.
    pub shards_remined: usize,
    /// SubTPIINs replayed from the shard cache.
    pub cache_hits: usize,
}

impl ApplyOutcome {
    fn empty(path: DeltaPath) -> ApplyOutcome {
        ApplyOutcome {
            path,
            mutations_applied: 0,
            new_groups: Vec::new(),
            new_suspicious_arcs: Vec::new(),
            duplicates: 0,
            intra_syndicate: 0,
            arcs_patched: 0,
            shards_remined: 0,
            cache_hits: 0,
        }
    }
}

/// The label class of a node whose label the outgoing network lacks; no
/// outgoing key holds it, so whatever it appears in is new.
const NO_CLASS: u32 = u32::MAX;

/// Label classes for diffing across a renumbering batch: each node of
/// `old` gets a dense id per distinct label, and each node of `new` the
/// id of its label in `old` ([`NO_CLASS`] if it has none).  Labels name
/// syndicate memberships, so two nodes share a class iff they are the
/// same constituents on either side of the batch.
fn label_classes(old: &Tpiin, new: &Tpiin) -> (Vec<u32>, Vec<u32>) {
    let mut ids: HashMap<&str, u32> = HashMap::with_capacity(old.node_count());
    let old_class = (0..old.node_count())
        .map(|v| {
            let next = ids.len() as u32;
            *ids.entry(old.label(NodeId::from_index(v))).or_insert(next)
        })
        .collect();
    let new_class = (0..new.node_count())
        .map(|v| {
            let label = new.label(NodeId::from_index(v));
            ids.get(label).copied().unwrap_or(NO_CLASS)
        })
        .collect();
    (old_class, new_class)
}

/// Writes the identity of `g` across renumbering into `key`: its kind,
/// then the label classes of the trading arc, the trail carrying it
/// (length first, so the two trails cannot run together) and the plain
/// trail.  Two groups share a key iff their label sequences are equal.
fn group_class_key(class: &[u32], g: GroupRef<'_>, key: &mut Vec<u32>) {
    let of = |v: &NodeId| class[v.index()];
    key.clear();
    key.push(u32::from(g.kind == GroupKind::Matched));
    key.extend([&g.trading_arc.0, &g.trading_arc.1].map(of));
    key.push(g.trail_with_trade.len() as u32);
    key.extend(g.trail_with_trade.iter().map(of));
    key.extend(g.trail_plain.iter().map(of));
}

/// Maintains a fused TPIIN and its detection result under a stream of
/// [`MutationBatch`]es.
///
/// Two construction modes exist:
///
/// * **registry-backed** ([`DeltaEngine::new`] /
///   [`DeltaEngine::with_config`]) — the engine owns the
///   [`SourceRegistry`] and accepts the full mutation vocabulary, with
///   the bit-identity guarantee against a from-scratch
///   [`tpiin_fusion::fuse`] of the equivalent registry;
/// * **TPIIN-only** ([`DeltaEngine::from_tpiin`]) — for restored
///   snapshots where no registry exists.  Only trading appends are
///   accepted (streamed arcs carry no source sequence); registry
///   mutations are rejected with [`DeltaError::RegistryRequired`].
pub struct DeltaEngine {
    registry: Option<SourceRegistry>,
    tpiin: Tpiin,
    /// Shared with whoever serves it ([`DeltaEngine::shared_detection`]);
    /// a batch copies it on write (`Arc::make_mut`) only while a reader
    /// still holds the previous epoch's.
    detection: Arc<DetectionResult>,
    /// Antecedent weak-component (shard) index per node, maintained
    /// across batches: full re-segmentations rebuild it, surgical
    /// appends extend it (a registered company joins its legal person's
    /// component; trading arcs never change components).
    shard_of: Vec<u32>,
    /// Per-shard overflow flags: whether each shard's last mining run
    /// hit the pattern-tree cap.  `DetectionResult::overflowed` is their
    /// disjunction, so splicing one shard can recompute it.
    shard_overflow: Vec<bool>,
    /// The cache entry each shard holds a reference on (`None` for a
    /// shard with no trading arc, and for every shard without a
    /// registry), so a re-mined shard can give its old entry back.
    shard_sig: Vec<Option<Signature>>,
    /// One mined outcome per distinct signature in `shard_sig`.
    cache: ShardCache,
    /// The tree arena and scratch outcome every shard the engine mines
    /// whole goes through, reused across shards and batches.
    miner: ShardMiner,
    /// Mining configuration used for shard re-mining.
    detector: DetectorConfig,
    stats: DeltaStats,
}

/// The surgical changes a batch made to the network, accumulated while
/// mutations apply and consumed by the detection splice.
#[derive(Default)]
struct SpliceDelta {
    /// Shards whose local structure changed (new nodes, arcs).
    dirty: BTreeSet<usize>,
    /// Trading arcs appended by this batch, which the CSR (frozen before
    /// the batch) does not hold yet: the duplicate check reads them, and
    /// a re-mined group is new iff its trading arc is one of these.
    /// Cross-shard arcs are among them but carry no group.
    appended: BTreeSet<(NodeId, NodeId)>,
    /// Intra-syndicate self pairs newly diverted by this batch.
    new_intra: Vec<(NodeId, NodeId)>,
    /// Trading arcs physically appended to the graph.
    arcs_added: usize,
    /// Trading records diverted into the intra-syndicate ledger.
    intra_added: usize,
}

impl DeltaEngine {
    /// Fuses `registry` and starts maintaining it (default detector).
    pub fn new(registry: SourceRegistry) -> Result<DeltaEngine, DeltaError> {
        DeltaEngine::with_config(registry, DetectorConfig::default())
    }

    /// Fuses `registry` and starts maintaining it, mining with `detector`.
    pub fn with_config(
        registry: SourceRegistry,
        detector: DetectorConfig,
    ) -> Result<DeltaEngine, DeltaError> {
        let (tpiin, _) = fuse(&registry)?;
        Ok(DeltaEngine::assemble(Some(registry), tpiin, detector))
    }

    /// Starts maintaining a bare TPIIN (e.g. restored from a snapshot).
    /// Only trading-append batches are accepted in this mode.
    pub fn from_tpiin(tpiin: Tpiin) -> DeltaEngine {
        DeltaEngine::from_tpiin_with(tpiin, DetectorConfig::default())
    }

    /// [`DeltaEngine::from_tpiin`], mining with `detector`.
    pub fn from_tpiin_with(tpiin: Tpiin, detector: DetectorConfig) -> DeltaEngine {
        DeltaEngine::assemble(None, tpiin, detector)
    }

    fn assemble(
        registry: Option<SourceRegistry>,
        tpiin: Tpiin,
        detector: DetectorConfig,
    ) -> DeltaEngine {
        let mut engine = DeltaEngine {
            registry,
            tpiin,
            detection: Arc::default(),
            shard_of: Vec::new(),
            shard_overflow: Vec::new(),
            shard_sig: Vec::new(),
            cache: ShardCache::default(),
            miner: ShardMiner::default(),
            detector,
            stats: DeltaStats::default(),
        };
        // Construction-time mining is not a batch: its tallies are dropped.
        engine.detection =
            Arc::new(engine.remine(&mut ApplyOutcome::empty(DeltaPath::FullRebuild)));
        engine
    }

    /// The network in its current state.
    pub fn tpiin(&self) -> &Tpiin {
        &self.tpiin
    }

    /// The detection result over the current network — bit-identical to
    /// [`tpiin_core::detect`] over [`DeltaEngine::tpiin`].
    pub fn detection(&self) -> &DetectionResult {
        &self.detection
    }

    /// The same result, shared: a served epoch holds this `Arc` instead
    /// of a copy, and the next batch that changes the result copies it
    /// then (a few `memcpy`s of the group table) if the epoch still
    /// holds it.
    pub fn shared_detection(&self) -> Arc<DetectionResult> {
        Arc::clone(&self.detection)
    }

    /// The maintained registry, when registry-backed.
    pub fn registry(&self) -> Option<&SourceRegistry> {
        self.registry.as_ref()
    }

    /// Lifetime counters across all batches.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Suspicious trading arcs of the current detection.
    pub fn suspicious_arcs(&self) -> &BTreeSet<(NodeId, NodeId)> {
        &self.detection.suspicious_trading_arcs
    }

    /// Cumulative groups discovered by streaming (not counting those
    /// present at construction).
    pub fn groups_found(&self) -> usize {
        self.stats.groups_found as usize
    }

    /// Memoized shard count (for status surfaces).
    pub fn cached_shards(&self) -> usize {
        self.cache.len()
    }

    /// Label helper for reporting.
    pub fn label(&self, node: NodeId) -> &str {
        self.tpiin.label(node)
    }

    /// Legacy convenience: appends trading records as one batch.
    pub fn ingest(&mut self, records: &[TradingRecord]) -> Result<ApplyOutcome, DeltaError> {
        self.apply(&MutationBatch::trading(records.iter().copied()))
    }

    /// Applies one mutation batch atomically.  On `Err` the engine is
    /// unchanged; on `Ok` the maintained network and detection equal a
    /// from-scratch fuse + detect of the mutated registry.
    pub fn apply(&mut self, batch: &MutationBatch) -> Result<ApplyOutcome, DeltaError> {
        let _span = tpiin_obs::Span::at("delta/apply");
        let outcome = if self.registry.is_none() {
            if !batch.is_trading_only() {
                return Err(DeltaError::RegistryRequired);
            }
            self.apply_trading(batch, false)?
        } else if batch.is_trading_only() {
            self.apply_trading(batch, true)?
        } else if batch.is_company_append() {
            self.apply_company_append(batch)?
        } else {
            self.apply_refuse(batch)?
        };
        self.stats.batches_applied += 1;
        self.stats.shards_remined += outcome.shards_remined as u64;
        self.stats.shard_cache_hits += outcome.cache_hits as u64;
        self.stats.publish_to(tpiin_obs::global());
        Ok(outcome)
    }

    /// Trading-append fast path.  Appended records take the highest
    /// source sequence numbers, so first-wins dedup in a from-scratch
    /// fuse keeps exactly the pre-existing arcs plus the non-duplicate
    /// appends — which is what the surgical patch produces.
    fn apply_trading(
        &mut self,
        batch: &MutationBatch,
        registry_mode: bool,
    ) -> Result<ApplyOutcome, DeltaError> {
        let records: Vec<TradingRecord> = batch
            .mutations
            .iter()
            .map(|m| match m {
                Mutation::AddTrading(r) => *r,
                _ => unreachable!("caller checked is_trading_only"),
            })
            .collect();
        // Validate the whole batch before touching anything (atomicity).
        let nc = self.tpiin.company_node.len() as u32;
        for r in &records {
            for c in [r.seller, r.buyer] {
                if c.0 >= nc {
                    return Err(DeltaError::Mutation(ModelError::UnknownCompany(c)));
                }
            }
            if registry_mode && r.seller == r.buyer {
                // The registry rejects self arcs; the TPIIN-only mode
                // keeps the retired streaming detector's behavior and
                // treats them as (trivially) intra-syndicate.
                return Err(DeltaError::Mutation(ModelError::SelfCompanyArc(r.seller)));
            }
        }
        let mut outcome = ApplyOutcome::empty(DeltaPath::TradingAppend);
        let mut delta = SpliceDelta::default();
        for r in &records {
            let seq = if registry_mode {
                let registry = self.registry.as_mut().expect("registry mode");
                let seq = registry.tradings().len() as u32;
                registry.add_trading(*r);
                seq
            } else {
                // Streamed arcs with no source registry have no sequence.
                u32::MAX
            };
            self.patch_trading_arc(r, seq, &mut delta, &mut outcome);
        }
        outcome.mutations_applied = records.len();
        self.tpiin.refreeze();
        self.splice_detection(&delta, true, &mut outcome);
        Ok(outcome)
    }

    /// Appends one trading record to the network (the registry side, if
    /// any, is already updated): intra-syndicate records are diverted,
    /// duplicates dropped, and a surviving arc marks its shard dirty —
    /// unless its endpoints sit in different antecedent components, in
    /// which case no shard owns it and nothing needs re-mining.
    fn patch_trading_arc(
        &mut self,
        r: &TradingRecord,
        seq: u32,
        delta: &mut SpliceDelta,
        outcome: &mut ApplyOutcome,
    ) {
        self.stats.records_ingested += 1;
        let seller = self.tpiin.company_node[r.seller.index()];
        let buyer = self.tpiin.company_node[r.buyer.index()];
        if seller == buyer {
            outcome.intra_syndicate += 1;
            self.stats.intra_syndicate += 1;
            self.tpiin.intra_syndicate_trades.push(IntraSyndicateTrade {
                seller: r.seller,
                buyer: r.buyer,
                syndicate: seller,
                volume: r.volume,
            });
            delta.intra_added += 1;
            delta.new_intra.push((seller, buyer));
            return;
        }
        // The CSR holds the network as it was before this batch; a seller
        // registered earlier in the batch is not in it yet.
        let frozen = seller.index() < self.tpiin.csr().node_count()
            && self
                .tpiin
                .find_arc(seller, buyer, ArcColor::Trading)
                .is_some();
        if frozen || delta.appended.contains(&(seller, buyer)) {
            outcome.duplicates += 1;
            self.stats.duplicates += 1;
            return;
        }
        self.tpiin.graph.add_edge(
            seller,
            buyer,
            TpiinArc {
                color: ArcColor::Trading,
                weight: r.volume,
            },
        );
        self.tpiin.arc_sources.push(seq);
        self.tpiin.trading_arc_count += 1;
        self.stats.arcs_added += 1;
        self.stats.arcs_patched += 1;
        outcome.arcs_patched += 1;
        delta.arcs_added += 1;
        delta.appended.insert((seller, buyer));
        let (s, b) = (self.shard_of[seller.index()], self.shard_of[buyer.index()]);
        if s == b {
            delta.dirty.insert(s as usize);
        }
    }

    /// Surgical path for batches that only register companies and append
    /// trading records.  This class never renumbers an existing node: the
    /// fused network lays out person-syndicate nodes before company
    /// nodes, and a freshly registered company is a singleton investment
    /// SCC with the highest company id, so a from-scratch rebuild would
    /// append its node at the very end of the node list — exactly what
    /// `add_node` does.  Its legal-person arc is spliced into the
    /// influence partition at the position the from-scratch sequence
    /// ordering dictates, the company joins its legal person's antecedent
    /// component, and only the touched shards re-mine.
    fn apply_company_append(&mut self, batch: &MutationBatch) -> Result<ApplyOutcome, DeltaError> {
        // Validate the whole batch up front (atomicity without cloning
        // the registry), mirroring `Mutation::apply`: legal persons must
        // exist, trading endpoints may reference companies registered
        // earlier in the same batch, self arcs are rejected.
        let registry = self.registry.as_ref().expect("registry mode");
        let np = registry.person_count() as u32;
        let mut vc = registry.company_count() as u32;
        for m in &batch.mutations {
            match m {
                Mutation::AddCompany { legal_person, .. } => {
                    if legal_person.0 >= np {
                        return Err(DeltaError::Mutation(ModelError::UnknownPerson(
                            *legal_person,
                        )));
                    }
                    vc += 1;
                }
                Mutation::AddTrading(r) => {
                    for c in [r.seller, r.buyer] {
                        if c.0 >= vc {
                            return Err(DeltaError::Mutation(ModelError::UnknownCompany(c)));
                        }
                    }
                    if r.seller == r.buyer {
                        return Err(DeltaError::Mutation(ModelError::SelfCompanyArc(r.seller)));
                    }
                }
                _ => unreachable!("caller checked is_company_append"),
            }
        }

        let mut outcome = ApplyOutcome::empty(DeltaPath::CompanyAppend);
        let mut delta = SpliceDelta::default();
        for m in &batch.mutations {
            match m {
                Mutation::AddCompany {
                    name,
                    legal_person,
                    kind,
                } => {
                    let registry = self.registry.as_mut().expect("registry mode");
                    let company = registry.add_company(name.clone());
                    let seq = registry.influences().len() as u32;
                    registry.add_influence(InfluenceRecord {
                        person: *legal_person,
                        company,
                        kind: *kind,
                        is_legal_person: true,
                    });
                    let syndicate = self.tpiin.person_node[legal_person.index()];
                    let node = self.tpiin.graph.add_node(TpiinNode::Company {
                        label: Label::new(name),
                        members: Members::from_slice(&[company]),
                    });
                    self.tpiin.company_node.push(node);
                    let shard = self.shard_of[syndicate.index()];
                    self.shard_of.push(shard);
                    delta.dirty.insert(shard as usize);
                    // The influence partition is ordered by source
                    // sequence (influence records, then investments
                    // offset past them).  The new record takes the next
                    // record sequence, so it splices in at the seq
                    // partition point and every investment-sourced arc
                    // behind it shifts up by one — exactly what a
                    // from-scratch fuse of the appended registry yields.
                    let influence_range =
                        &mut self.tpiin.arc_sources[..self.tpiin.influence_arc_count];
                    let pos = influence_range.partition_point(|&s| s < seq);
                    for s in influence_range[pos..].iter_mut() {
                        *s += 1;
                    }
                    self.tpiin.arc_sources.insert(pos, seq);
                    self.tpiin.graph.splice_edge(
                        pos,
                        syndicate,
                        node,
                        TpiinArc {
                            color: ArcColor::Influence,
                            weight: 1.0,
                        },
                    );
                    self.tpiin.influence_arc_count += 1;
                    self.stats.arcs_patched += 1;
                    outcome.arcs_patched += 1;
                }
                Mutation::AddTrading(r) => {
                    let registry = self.registry.as_mut().expect("registry mode");
                    let seq = registry.tradings().len() as u32;
                    registry.add_trading(*r);
                    self.patch_trading_arc(r, seq, &mut delta, &mut outcome);
                }
                _ => unreachable!("validated above"),
            }
        }
        outcome.mutations_applied = batch.mutations.len();
        self.stats.company_appends += 1;
        self.tpiin.refreeze();
        self.splice_detection(&delta, false, &mut outcome);
        Ok(outcome)
    }

    /// Every registry mutation other than an append: re-fuse the mutated
    /// registry from scratch and re-mine it through the shard cache.  The
    /// cache is keyed by each shard's local structure, not its node ids,
    /// so every shard the batch left alone replays even though
    /// re-contraction may renumber it; only changed shards re-mine.
    fn apply_refuse(&mut self, batch: &MutationBatch) -> Result<ApplyOutcome, DeltaError> {
        let _span = tpiin_obs::Span::at("delta/refuse");
        let mut next = self.registry.clone().expect("registry mode");
        let applied = batch.apply_to_registry(&mut next)?;
        let (tpiin, _) = fuse(&next)?;
        self.stats.full_rebuilds += 1;
        let mut outcome = ApplyOutcome::empty(DeltaPath::FullRebuild);
        outcome.mutations_applied = applied;
        self.refresh_detection(next, tpiin, &mut outcome);
        Ok(outcome)
    }

    /// Splices a batch's surgical changes into the maintained detection:
    /// only the dirty shards re-segment, and untouched shards cost
    /// nothing — no signature hashing, no result copying — which is what
    /// makes a small batch O(changed shards) instead of O(network).
    ///
    /// With `arcs_only` (a trading-only batch) a dirty shard mines just
    /// its appended arcs ([`DeltaEngine::mine_appended`]); otherwise,
    /// and for a shard that had no trading arc or overflowed a tree, it
    /// re-mines whole and its group slice is replaced in place.
    ///
    /// The result is bit-identical to a full re-mine: shard membership
    /// only grows along monotone paths (appends never merge or split
    /// antecedent components, because trading arcs don't participate in
    /// segmentation and a registered company joins its legal person's
    /// component), so shard indices, group order, and per-shard stats
    /// all keep the layout `remine` would produce.
    ///
    /// No node id moves on these paths either, and neither adds a root or
    /// changes an influence trail to an existing node (a registered
    /// company has no out-arcs), so a re-mined group whose trading arc
    /// predates the batch was mined before: a group is new iff its
    /// trading arc is in [`SpliceDelta::appended`], an arc iff it enters
    /// the suspicious set and did not leave it earlier in this batch.
    fn splice_detection(
        &mut self,
        delta: &SpliceDelta,
        arcs_only: bool,
        outcome: &mut ApplyOutcome,
    ) {
        let _span = tpiin_obs::Span::at("delta/splice");
        // Out of `self` while the shards re-mine through it.
        let mut shared = std::mem::take(&mut self.detection);
        // Each dirty shard, re-segmented from the maintained membership
        // map, with what its appended arcs brought when it mines them
        // alone (`None`: it re-mines whole).  The scan keeps ascending
        // node-id order, which is the member order global segmentation
        // emits.
        let mut shards: Vec<(SubTpiin, Option<AppendedGroups>)> = Vec::new();
        for &idx in &delta.dirty {
            let members: Vec<NodeId> = self
                .shard_of
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s as usize == idx)
                .map(|(v, _)| NodeId::from_index(v))
                .collect();
            let sub = segment_one(&self.tpiin, idx, members);
            let arc_local =
                arcs_only && shared.per_subtpiin[idx].trading_arcs > 0 && !self.shard_overflow[idx];
            let added = arc_local.then(|| self.mine_appended(&sub, delta));
            shards.push((sub, added));
        }
        // Copied only if a served epoch still shares it, then with room
        // for the appended rows, so merging them moves nothing twice.
        if Arc::get_mut(&mut shared).is_none() {
            let (rows, nodes) = shards.iter().filter_map(|(_, added)| added.as_ref()).fold(
                (0, 0),
                |(rows, nodes), added| {
                    (rows + added.groups.len(), nodes + added.groups.node_count())
                },
            );
            shared = Arc::new(shared.clone_with_room(rows, nodes));
        }
        let detection = Arc::get_mut(&mut shared).expect("the copy is not shared");
        detection.total_trading_arcs += delta.arcs_added + delta.intra_added;
        detection.intra_syndicate_trades += delta.intra_added;

        for &pair in &delta.new_intra {
            if detection.suspicious_trading_arcs.insert(pair) {
                outcome.new_suspicious_arcs.push(pair);
            }
        }

        // Arcs the dirty shards' old slices took out of the suspicious
        // set: one that comes back was there before the batch.
        let mut removed_arcs: HashSet<(NodeId, NodeId)> = HashSet::new();
        for (sub, added) in &shards {
            let Some(added) = added else {
                self.remine_shard(detection, sub, delta, &mut removed_arcs, outcome);
                continue;
            };
            // Every group and suspicious arc an appended arc carries is
            // new: the arc did not exist before the batch.
            let global = |v: NodeId| sub.global[v.index()];
            outcome.new_groups.extend(
                added
                    .groups
                    .iter()
                    .map(|g| g.to_owned_mapped(sub.index, global)),
            );
            outcome.new_suspicious_arcs.extend(
                added
                    .arcs
                    .iter()
                    .map(|&(s, b)| (sub.global[s as usize], sub.global[b as usize])),
            );
        }
        let appended: Vec<(&SubTpiin, &AppendedGroups)> = shards
            .iter()
            .filter_map(|(sub, added)| Some((sub, added.as_ref()?)))
            .collect();
        detection.merge_appended(&appended);
        detection.overflowed = self.shard_overflow.iter().any(|&o| o);
        self.detection = shared;
        // The full refresh reports new arcs in suspicious-set order.
        outcome.new_suspicious_arcs.sort_unstable();
        self.stats.groups_found += outcome.new_groups.len() as u64;
    }

    /// Re-mines the dirty shard `sub` whole and splices its new group
    /// slice over its old one in `detection`, as a full re-mine would
    /// lay it out.
    fn remine_shard(
        &mut self,
        detection: &mut DetectionResult,
        sub: &SubTpiin,
        delta: &SpliceDelta,
        removed_arcs: &mut HashSet<(NodeId, NodeId)>,
        outcome: &mut ApplyOutcome,
    ) {
        let idx = sub.index;
        // This shard's rows of the group table, via per-shard counts.
        let start: usize = detection.per_subtpiin[..idx].iter().map(|s| s.groups).sum();
        let old = start..start + detection.per_subtpiin[idx].groups;
        for g in detection.groups.slice(old.clone()) {
            if g.simple {
                detection.simple_group_count -= 1;
            } else {
                detection.complex_group_count -= 1;
            }
            // Group trading arcs have distinct endpoints, so this never
            // evicts an intra-syndicate self pair.
            if detection.suspicious_trading_arcs.remove(&g.trading_arc) {
                removed_arcs.insert(g.trading_arc);
            }
        }

        // The new outcome takes its cache reference before the old one
        // is given back, so an unchanged shape keeps its entry.
        let (mined, sig) = self.lookup_shard(sub, None, outcome);
        if let Some(previous) = std::mem::replace(&mut self.shard_sig[idx], sig) {
            self.cache.release(previous);
        }

        // The shard's new contribution, assembled exactly as a full
        // re-mine would assemble it, replaces the old rows.  (The part's
        // arc set also carries the intra-syndicate seeds; those are
        // already in the maintained set and insert as no-ops.)
        let out = shard_outcome(&self.cache, mined, sig);
        let part = assemble_detection(&self.tpiin, std::slice::from_ref(sub), &[out]);
        detection.per_subtpiin[idx] = part.per_subtpiin[0];
        self.shard_overflow[idx] = part.overflowed;
        detection.complex_group_count += part.complex_group_count;
        detection.simple_group_count += part.simple_group_count;
        for arc in part.suspicious_trading_arcs {
            if detection.suspicious_trading_arcs.insert(arc) && !removed_arcs.contains(&arc) {
                outcome.new_suspicious_arcs.push(arc);
            }
        }
        outcome.new_groups.extend(
            part.groups
                .iter()
                .filter(|g| delta.appended.contains(&g.trading_arc))
                .map(GroupRef::to_owned),
        );
        detection.groups.splice(old, &part.groups);
    }

    /// Mines the appended arcs of the grown shard `sub` alone
    /// ([`mine_appended`]) and merges what they brought into the shard's
    /// cached outcome, which moves to the shard's new signature so a
    /// later re-fuse still replays it.  The caller merges the same finds
    /// into the detection ([`DetectionResult::merge_appended`]).
    fn mine_appended(&mut self, sub: &SubTpiin, delta: &SpliceDelta) -> AppendedGroups {
        // `(seller, count)` in local ids: the set iterates sellers in
        // ascending node id, which is ascending local id.
        let mut appended: Vec<(u32, u32)> = Vec::new();
        let inside = |v: NodeId| self.shard_of[v.index()] as usize == sub.index;
        for &(seller, buyer) in &delta.appended {
            if !(inside(seller) && inside(buyer)) {
                continue;
            }
            let local = sub
                .global
                .binary_search(&seller)
                .expect("a shard holds its nodes") as u32;
            match appended.last_mut() {
                Some((last, count)) if *last == local => *count += 1,
                _ => appended.push((local, 1)),
            }
        }
        let added = mine_appended(&self.tpiin, sub, &appended);
        if let Some(old) = self.shard_sig[sub.index] {
            let new = shard_signature(sub);
            self.cache.rekey(old, new, |out| out.merge_appended(&added));
            self.shard_sig[sub.index] = Some(new);
        }
        added
    }

    /// Installs a re-fused network (the renumbering path), re-mines it
    /// through the shard cache and swaps the detection in.  Node ids do
    /// not survive re-contraction, so this is the one place that diffs
    /// by label: both networks' labels are interned into classes once
    /// ([`label_classes`]), the outgoing detection's class keys are built
    /// just before its network is replaced, and each group and arc of
    /// the new detection is looked up in them.
    fn refresh_detection(
        &mut self,
        registry: SourceRegistry,
        tpiin: Tpiin,
        outcome: &mut ApplyOutcome,
    ) {
        let (old_class, new_class) = label_classes(&self.tpiin, &tpiin);
        let mut key = Vec::new();
        let old_groups: HashSet<Vec<u32>> = self
            .detection
            .groups
            .iter()
            .map(|g| {
                group_class_key(&old_class, g, &mut key);
                key.clone()
            })
            .collect();
        let arc_key =
            |class: &[u32], (s, b): (NodeId, NodeId)| (class[s.index()], class[b.index()]);
        let old_arcs: HashSet<(u32, u32)> = self
            .detection
            .suspicious_trading_arcs
            .iter()
            .map(|&arc| arc_key(&old_class, arc))
            .collect();
        self.registry = Some(registry);
        self.tpiin = tpiin;

        let detection = self.remine(outcome);
        outcome.new_groups.extend(
            detection
                .groups
                .iter()
                .filter(|&g| {
                    group_class_key(&new_class, g, &mut key);
                    !old_groups.contains(key.as_slice())
                })
                .map(GroupRef::to_owned),
        );
        outcome.new_suspicious_arcs.extend(
            detection
                .suspicious_trading_arcs
                .iter()
                .filter(|&&arc| !old_arcs.contains(&arc_key(&new_class, arc))),
        );
        self.stats.groups_found += outcome.new_groups.len() as u64;
        self.detection = Arc::new(detection);
    }

    /// Rebuilds the full [`DetectionResult`]: segments the current
    /// network, obtains every shard's outcome through the cache and
    /// hands them, borrowed where they lie, to [`assemble_detection`] —
    /// the same assembler the detector uses, so the result is
    /// bit-identical to [`tpiin_core::detect`] over the current network.
    /// The cache comes out holding only the entries this pass touched:
    /// whatever the previous network cached and the current one has no
    /// shard for is dropped with it.
    fn remine(&mut self, outcome: &mut ApplyOutcome) -> DetectionResult {
        let subs = segment_tpiin(&self.tpiin);
        // Refresh the shard membership map the splice paths extend.
        self.shard_of = vec![u32::MAX; self.tpiin.node_count()];
        for sub in &subs {
            for &g in &sub.global {
                self.shard_of[g.index()] = sub.index as u32;
            }
        }
        let mut carry = std::mem::take(&mut self.cache);
        let (mined, sigs): (Vec<Option<ShardOutcome>>, Vec<Option<Signature>>) = subs
            .iter()
            .map(|sub| self.lookup_shard(sub, Some(&mut carry), outcome))
            .unzip();
        drop(carry);
        let outcomes: Vec<Cow<'_, ShardOutcome>> = mined
            .into_iter()
            .zip(&sigs)
            .map(|(mined, &sig)| shard_outcome(&self.cache, mined, sig))
            .collect();
        self.shard_overflow = outcomes.iter().map(|out| out.overflowed).collect();
        let detection = assemble_detection(&self.tpiin, &subs, &outcomes);
        self.shard_sig = sigs;
        detection
    }

    /// One shard's outcome, tallied on `outcome` as re-mined or replayed,
    /// plus the cache reference it now holds ([`ShardCache::get`] reads
    /// it there).  Shards without trading arcs mine to nothing and are
    /// neither.  Without a registry no full re-mine ever comes to replay
    /// the network, so nothing is memoised and the mined outcome is
    /// returned owned.
    fn lookup_shard(
        &mut self,
        sub: &SubTpiin,
        carry: Option<&mut ShardCache>,
        outcome: &mut ApplyOutcome,
    ) -> (Option<ShardOutcome>, Option<Signature>) {
        if sub.trading_arc_count == 0 {
            return (None, None);
        }
        if self.registry.is_none() {
            outcome.shards_remined += 1;
            return (Some(self.miner.mine(sub, &self.detector)), None);
        }
        let (sig, hit) = self
            .cache
            .acquire(sub, &self.detector, &mut self.miner, carry);
        if hit {
            outcome.cache_hits += 1;
        } else {
            outcome.shards_remined += 1;
        }
        (None, Some(sig))
    }
}

/// The outcome [`DeltaEngine::lookup_shard`] produced for a shard: the
/// one it mined, the cache entry it acquired (borrowed, not cloned), or
/// nothing for a shard without trading arcs.
fn shard_outcome(
    cache: &ShardCache,
    mined: Option<ShardOutcome>,
    sig: Option<Signature>,
) -> Cow<'_, ShardOutcome> {
    match (mined, sig) {
        (Some(out), _) => Cow::Owned(out),
        (None, Some(sig)) => Cow::Borrowed(cache.get(sig)),
        (None, None) => Cow::Owned(ShardOutcome::default()),
    }
}
