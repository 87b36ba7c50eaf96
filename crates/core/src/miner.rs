//! The `GroupMiner` strategy API: every detection workload over a fused
//! TPIIN — the paper's Rule 1/Rule 2 mining, the global-traversal
//! baseline, circular-trading cycle enumeration, time-windowed variants
//! of any of them — implements one trait, so the pipeline facade, the
//! serve daemon, the CLI and the benchmarks drive them generically.
//!
//! * [`Rule12Miner`] — the production detector (Algorithms 1 + 2,
//!   Rules 1/2); bit-identical to calling [`crate::Detector`] directly.
//! * [`BaselineMiner`] — the Section 5.1 global-traversal oracle,
//!   adapted onto the common [`DetectionResult`] shape.
//! * [`CircularTradingMiner`] — trading-color cycle enumeration on the
//!   frozen CSR with tax-rate-differential scoring, after the GST
//!   circular-trading formulation (Mehta et al.): a ring of companies
//!   passing goods in a cycle shifts input-tax credit across rate
//!   brackets, so cycles spanning distinct statutory rates rank first.
//! * [`WindowedMiner`] — a decorator restricting any inner miner to a
//!   sliding transaction-time window over the trading feed.
//!
//! Strategies are named; [`MinerRegistry::resolve`] parses the CLI/serve
//! spec syntax (`rules`, `baseline`, `circular`,
//! `windowed:<inner>@<start>..<end>`) into boxed miners, and
//! [`MinerRegistry`] holds a named set that [`MinerRegistry::mine_all`]
//! runs with per-miner observability spans and counters.

use crate::baseline_impl::detect_baseline;
use crate::detector::{Detector, DetectorConfig};
use crate::provenance::Provenance;
use crate::result::{DetectionResult, GroupKind, SuspiciousGroup};
use crate::table::{GroupHead, GroupRef, GroupTable};
use tpiin_fusion::{ArcColor, Tpiin, TpiinNode, TRADING_LANE};
use tpiin_graph::{DiGraph, NodeId};
use tpiin_obs::Span;

/// Shared input every [`GroupMiner::mine`] call receives alongside the
/// network: the detector tuning knobs plus optional side tables that
/// individual strategies consume.
#[derive(Clone, Debug, Default)]
pub struct MineContext {
    /// Tuning for the Rule 1/Rule 2 detector (group collection, tree
    /// bound); other strategies read `collect_groups` and ignore the
    /// rest.
    pub config: DetectorConfig,
    /// Statutory tax rate per source company, indexed by `CompanyId`
    /// ([`CircularTradingMiner`]'s scoring signal).  `None` means every
    /// company trades at [`tpiin_model::DEFAULT_TAX_RATE`], collapsing
    /// all rate differentials to zero.
    pub tax_rates: Option<Vec<f64>>,
}

impl MineContext {
    /// A context wrapping an explicit detector configuration.
    pub fn with_config(config: DetectorConfig) -> MineContext {
        MineContext {
            config,
            ..MineContext::default()
        }
    }
}

/// A detection strategy over a fused TPIIN.
///
/// Implementations must be deterministic: the same network and context
/// yield the same [`DetectionResult`] (including group order) — the
/// serve daemon hot-swaps snapshots on the strength of that guarantee,
/// and the differential tests enforce it.
pub trait GroupMiner: Send + Sync {
    /// Stable name used for registry lookup, CLI `--miner` specs, the
    /// `miner=` serve filter and per-miner metrics.
    fn name(&self) -> &str;

    /// Runs the strategy over `tpiin`.
    fn mine(&self, tpiin: &Tpiin, ctx: &MineContext) -> DetectionResult;

    /// Provenance hook: reconstructs the evidence chain behind one of
    /// this strategy's groups — a row of its result's table, borrowed —
    /// or `None` for strategies whose groups carry no Rule 1/Rule 2
    /// lineage.
    fn provenance(&self, tpiin: &Tpiin, group: GroupRef<'_>) -> Option<Provenance> {
        let _ = (tpiin, group);
        None
    }

    /// Whether [`GroupMiner::provenance`] returns `Some` for this
    /// strategy's groups — callers use it to answer "no provenance
    /// hook" errors without mining first.
    fn supports_provenance(&self) -> bool {
        false
    }

    /// Incremental hook: whether streaming mutation batches can extend
    /// this strategy's result through the delta engine's shard-cached
    /// re-mine (`tpiin-delta`) instead of a full re-mine (only the
    /// Rule 1/Rule 2 shard kernel — [`crate::mine_shard`] — supports
    /// that today).
    fn supports_incremental(&self) -> bool {
        false
    }
}

/// Name of the production Rule 1/Rule 2 strategy.
pub const RULES_MINER: &str = "rules";
/// Name of the global-traversal baseline strategy.
pub const BASELINE_MINER: &str = "baseline";
/// Name of the circular-trading strategy.
pub const CIRCULAR_MINER: &str = "circular";

/// The part of a [`DetectionResult`] no strategy has to mine: the
/// Table 1 denominators and the intra-syndicate trades that are
/// suspicious by construction (§4.3).  Shared by every strategy that
/// does not run through the detector's merge path, so the derived
/// statistics stay consistent across miners.
fn result_shell(tpiin: &Tpiin, overflowed: bool) -> DetectionResult {
    let mut result = DetectionResult {
        total_trading_arcs: tpiin.trading_arc_count + tpiin.intra_syndicate_trades.len(),
        intra_syndicate_trades: tpiin.intra_syndicate_trades.len(),
        overflowed,
        ..DetectionResult::default()
    };
    for t in &tpiin.intra_syndicate_trades {
        result.suspicious_trading_arcs.insert((
            tpiin.company_node[t.seller.index()],
            tpiin.company_node[t.buyer.index()],
        ));
    }
    result
}

/// Builds a [`DetectionResult`] from an explicit group list (the
/// baseline oracle's, sorted): fills the complex/simple counters and the
/// suspicious-arc set over [`result_shell`] and writes the groups into
/// the result's table.
fn result_from_groups(
    tpiin: &Tpiin,
    groups: &[SuspiciousGroup],
    overflowed: bool,
    collect_groups: bool,
) -> DetectionResult {
    let mut result = result_shell(tpiin, overflowed);
    for g in groups {
        if g.simple {
            result.simple_group_count += 1;
        } else {
            result.complex_group_count += 1;
        }
        result.suspicious_trading_arcs.insert(g.trading_arc);
    }
    if collect_groups {
        result.groups = GroupTable::from(groups);
    }
    result
}

/// The paper's Rule 1/Rule 2 detector (Algorithms 1 + 2) behind the
/// strategy trait.  [`GroupMiner::mine`] is exactly
/// `Detector::new(ctx.config).detect(tpiin)` — the differential tests
/// hold it bit-identical to the pre-trait entry point.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rule12Miner;

impl GroupMiner for Rule12Miner {
    fn name(&self) -> &str {
        RULES_MINER
    }

    fn mine(&self, tpiin: &Tpiin, ctx: &MineContext) -> DetectionResult {
        Detector::new(ctx.config).detect(tpiin)
    }

    fn provenance(&self, tpiin: &Tpiin, group: GroupRef<'_>) -> Option<Provenance> {
        Some(Provenance::assemble(tpiin, group))
    }

    fn supports_provenance(&self) -> bool {
        true
    }

    fn supports_incremental(&self) -> bool {
        true
    }
}

/// The Section 5.1 global-traversal baseline behind the strategy trait.
/// Groups are the anchored set comparable with [`Rule12Miner`], sorted
/// by their canonical key for determinism.
#[derive(Clone, Copy, Debug)]
pub struct BaselineMiner {
    /// Cap on trails enumerated from any single start node (the
    /// baseline's cost grows combinatorially); exceeding it sets
    /// [`DetectionResult::overflowed`].
    pub max_trails: usize,
}

impl Default for BaselineMiner {
    fn default() -> Self {
        BaselineMiner {
            max_trails: 1_000_000,
        }
    }
}

impl GroupMiner for BaselineMiner {
    fn name(&self) -> &str {
        BASELINE_MINER
    }

    fn mine(&self, tpiin: &Tpiin, ctx: &MineContext) -> DetectionResult {
        let base = detect_baseline(tpiin, self.max_trails);
        let mut groups = base.groups;
        groups.sort_by(SuspiciousGroup::cmp_key);
        result_from_groups(tpiin, &groups, base.overflowed, ctx.config.collect_groups)
    }
}

/// Circular-trading detection after the GST formulation: enumerate the
/// simple directed cycles of the trading lane on the frozen CSR and
/// rank them by the tax-rate differential accumulated around the ring.
///
/// Each cycle `v0 -> v1 -> … -> vk -> v0` becomes one
/// [`GroupKind::Circle`] group whose `trail_with_trade` lists the cycle
/// nodes; every arc of the cycle is flagged suspicious.  Cycles are
/// enumerated canonically from their minimum node id (each directed
/// cycle is reported exactly once) and sorted by descending
/// [`CircularTradingMiner::score`], ties broken by the canonical key.
///
/// The walk from a start `s` enters a node only if `s` can still be
/// reached from it within the arcs the ring has left: a reverse
/// breadth-first search from `s`, `reach = max_cycle_len / 2` arcs deep,
/// runs first and the walk consults it for its last `reach` arcs.  The
/// work therefore follows the rings reported, not the
/// `degree ^ max_cycle_len` paths of the lane, and the output is that of
/// the unpruned walk bit for bit (`tests/circular_oracle.rs` keeps that
/// walk as the oracle).  Strongly connected components are not used:
/// the trading lane is one giant component on realistic inputs.
///
/// The `max_cycles` budget keeps the first rings in start-id order;
/// ranking applies within that slice.
#[derive(Clone, Copy, Debug)]
pub struct CircularTradingMiner {
    /// Longest cycle reported, in nodes (the GST fraud patterns are
    /// short rings; long cycles explode combinatorially).
    pub max_cycle_len: usize,
    /// Total cycle budget; exceeding it sets
    /// [`DetectionResult::overflowed`] and stops enumeration.
    pub max_cycles: usize,
    /// Cycles scoring strictly below this differential are dropped.
    /// The default `0.0` keeps every cycle — without per-company rates
    /// every differential is zero, and detection must not silently
    /// depend on optional rate data.
    pub min_differential: f64,
}

impl Default for CircularTradingMiner {
    fn default() -> Self {
        CircularTradingMiner {
            max_cycle_len: 6,
            max_cycles: 100_000,
            min_differential: 0.0,
        }
    }
}

impl CircularTradingMiner {
    /// The tax-rate differential accumulated around a cycle group: the
    /// sum of `|rate(u) - rate(v)|` over every arc of the ring,
    /// including the closing arc.  Syndicate nodes use the mean rate of
    /// their member companies; person nodes and companies without a
    /// recorded rate use [`tpiin_model::DEFAULT_TAX_RATE`].
    pub fn score(&self, tpiin: &Tpiin, ctx: &MineContext, group: GroupRef<'_>) -> f64 {
        ring_score(tpiin, ctx, group.trail_with_trade.iter().copied())
    }

    /// Every ring of at most `max_cycle_len` nodes, in start-id order
    /// and, within a start, in successor order of the depth-first walk
    /// — until the `max_cycles` budget is spent.
    ///
    /// Each ring is found exactly once, from its minimum node id `s`,
    /// walking only through larger ids.  Before the walk, a reverse
    /// breadth-first search from `s` over those larger ids stamps every
    /// node within `reach = max_cycle_len / 2` arcs of `s` with its
    /// distance; the walk then enters `w` only if the arcs the ring has
    /// left are more than `reach` (the search cannot tell yet) or `w` is
    /// stamped no farther from `s` than that.  Both halves cost
    /// `O(degree ^ reach)` per start, and pruning never reorders what
    /// survives, so the emission order is that of the unpruned walk.
    fn enumerate(&self, tpiin: &Tpiin) -> RingArena {
        let mut rings = RingArena::default();
        if self.max_cycle_len < 2 {
            return rings;
        }
        let csr = tpiin.csr();
        let n = tpiin.node_count();
        let offsets = csr.lane_out_offsets(TRADING_LANE);
        let targets = csr.lane_out_targets(TRADING_LANE);
        // Distances are bounded by the node count, which fits `u32`.
        let reach = u32::try_from(self.max_cycle_len / 2).unwrap_or(u32::MAX);
        // `back[w] == (s + 1, d)`: `w` reaches the current start `s` in
        // `d <= reach` arcs through ids above `s`.  The start stamps its
        // own entries, so no start has to clear the previous one's.
        let mut back = vec![(0u32, 0u32); n];
        let mut queue: Vec<u32> = Vec::new();
        let mut on_path = vec![false; n];
        let mut path: Vec<u32> = Vec::new();
        // `cursors[i]` is the CSR position of the next arc to try out
        // of `path[i]`; the arc last taken is the one before it.
        let mut cursors: Vec<u32> = Vec::new();

        'starts: for s in 0..n as u32 {
            let stamp = s + 1;
            queue.clear();
            queue.push(s);
            let mut head = 0;
            for dist in 1..=reach {
                let level_end = queue.len();
                while head < level_end {
                    for &u in csr.sources(TRADING_LANE, queue[head]) {
                        if u > s && back[u as usize].0 != stamp {
                            back[u as usize] = (stamp, dist);
                            queue.push(u);
                        }
                    }
                    head += 1;
                }
                if queue.len() == level_end {
                    break;
                }
            }
            if queue.len() == 1 {
                // No arc enters `s` from a larger id: no ring has `s`
                // as its minimum.
                continue;
            }

            path.push(s);
            cursors.push(offsets[s as usize]);
            on_path[s as usize] = true;
            while let Some(&v) = path.last() {
                let top = cursors.len() - 1;
                let cursor = cursors[top];
                if cursor == offsets[v as usize + 1] {
                    on_path[v as usize] = false;
                    path.pop();
                    cursors.pop();
                    continue;
                }
                cursors[top] = cursor + 1;
                let w = targets[cursor as usize];
                if w == s {
                    if path.len() >= 2 {
                        if rings.len() >= self.max_cycles {
                            rings.overflowed = true;
                            break 'starts;
                        }
                        rings.push(&path, &cursors);
                    }
                } else if w > s && !on_path[w as usize] {
                    // Arcs the ring may still spend getting from `w`
                    // back to `s`.
                    let left = self.max_cycle_len - path.len();
                    let (stamped, dist) = back[w as usize];
                    if left > reach as usize || (stamped == stamp && dist as usize <= left) {
                        on_path[w as usize] = true;
                        path.push(w);
                        cursors.push(offsets[w as usize]);
                    }
                }
            }
        }
        rings
    }
}

/// The rings one enumeration found, in emission order, as flat columns
/// (the `tpiin-graph` CSR idiom): ring `r` occupies
/// `offsets[r]..offsets[r + 1]` of `nodes` and, parallel to it, of
/// `arcs` — the trading-lane CSR position of the arc leaving each node.
struct RingArena {
    nodes: Vec<u32>,
    arcs: Vec<u32>,
    offsets: Vec<usize>,
    /// Whether one more ring was found after the budget was spent.
    overflowed: bool,
}

impl Default for RingArena {
    fn default() -> Self {
        RingArena {
            nodes: Vec::new(),
            arcs: Vec::new(),
            offsets: vec![0],
            overflowed: false,
        }
    }
}

impl RingArena {
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Appends the ring the walk just closed: `path` is its nodes and
    /// each of `cursors` stands one past the arc taken out of its node.
    fn push(&mut self, path: &[u32], cursors: &[u32]) {
        self.nodes.extend_from_slice(path);
        self.arcs.extend(cursors.iter().map(|c| c - 1));
        self.offsets.push(self.nodes.len());
    }

    fn ring(&self, row: usize) -> &[u32] {
        &self.nodes[self.offsets[row]..self.offsets[row + 1]]
    }

    fn ring_arcs(&self, row: usize) -> &[u32] {
        &self.arcs[self.offsets[row]..self.offsets[row + 1]]
    }
}

/// The rate differential around a ring given as its node sequence (see
/// [`CircularTradingMiner::score`]); terms are added in ring order, so
/// the sum is the same `f64` whichever representation the ring is in.
fn ring_score(
    tpiin: &Tpiin,
    ctx: &MineContext,
    mut ring: impl ExactSizeIterator<Item = NodeId>,
) -> f64 {
    if ring.len() < 2 {
        return 0.0;
    }
    let first = node_tax_rate(tpiin, ctx, ring.next().expect("two nodes or more"));
    let mut total = 0.0;
    let mut prev = first;
    for v in ring {
        let rate = node_tax_rate(tpiin, ctx, v);
        total += (prev - rate).abs();
        prev = rate;
    }
    total + (prev - first).abs()
}

/// Mean statutory rate of a TPIIN node's member companies (see
/// [`CircularTradingMiner::score`]).
fn node_tax_rate(tpiin: &Tpiin, ctx: &MineContext, node: NodeId) -> f64 {
    let default = tpiin_model::DEFAULT_TAX_RATE;
    let TpiinNode::Company { members, .. } = tpiin.graph.node(node) else {
        return default;
    };
    let Some(rates) = &ctx.tax_rates else {
        return default;
    };
    if members.is_empty() {
        return default;
    }
    let sum: f64 = members
        .iter()
        .map(|c| rates.get(c.index()).copied().unwrap_or(default))
        .sum();
    sum / members.len() as f64
}

impl GroupMiner for CircularTradingMiner {
    fn name(&self) -> &str {
        CIRCULAR_MINER
    }

    /// Enumerates into a flat ring arena, scores every ring once, sorts
    /// row ids by `(score desc, key)` — the key read straight from the
    /// arena, in [`GroupRef::cmp_key`] order — flags every arc of every
    /// surviving ring, and only then copies the surviving ring slices,
    /// in final order, into the result's [`GroupTable`] (one row and
    /// `len + 1` arena nodes per ring).  A counting-only run
    /// (`collect_groups: false`) writes no row and fills the same
    /// counters and arc set.
    fn mine(&self, tpiin: &Tpiin, ctx: &MineContext) -> DetectionResult {
        let mut rings = self.enumerate(tpiin);
        let g = |v: u32| NodeId::from_index(v as usize);

        // A ring's key is ((last, first), ring, [first]).
        let arc = |ring: &[u32]| (ring[ring.len() - 1], ring[0]);
        let order = {
            let scores: Vec<f64> = (0..rings.len())
                .map(|row| ring_score(tpiin, ctx, rings.ring(row).iter().map(|&v| g(v))))
                .collect();
            let mut order: Vec<usize> = (0..rings.len())
                .filter(|&row| scores[row] >= self.min_differential)
                .collect();
            order.sort_by(|&a, &b| {
                let (ra, rb) = (rings.ring(a), rings.ring(b));
                scores[b]
                    .total_cmp(&scores[a])
                    .then_with(|| arc(ra).cmp(&arc(rb)))
                    .then_with(|| ra.cmp(rb))
            });
            order
        };

        let mut result = result_shell(tpiin, rings.overflowed);
        result.simple_group_count = order.len();
        // Unlike Rule 1/Rule 2 groups (one suspicious trading arc each),
        // every arc of a ring is suspicious.  Rings share arcs heavily,
        // so mark CSR positions and sweep the lane once.
        let csr = tpiin.csr();
        let mut flagged = vec![false; csr.edge_count(TRADING_LANE)];
        for &row in &order {
            for &position in rings.ring_arcs(row) {
                flagged[position as usize] = true;
            }
        }
        result.suspicious_trading_arcs.extend(
            csr.lane_edges(TRADING_LANE)
                .zip(flagged)
                .filter(|&(_, hit)| hit)
                .map(|((u, v), _)| (g(u), g(v))),
        );
        // Free the positions before the groups, the largest allocation
        // of the run, are built: the two never coexist at the peak.
        rings.arcs = Vec::new();

        if ctx.config.collect_groups {
            let nodes = order.iter().map(|&row| rings.ring(row).len() + 1).sum();
            result.groups = GroupTable::with_capacity(order.len(), nodes);
            for &row in &order {
                let ring = rings.ring(row);
                let (last, start) = arc(ring);
                result.groups.push_with(
                    GroupHead {
                        subtpiin: 0,
                        kind: GroupKind::Circle,
                        antecedent: g(start),
                        end: g(start),
                        trading_arc: (g(last), g(start)),
                        simple: true,
                    },
                    ring.iter().map(|&v| g(v)),
                    [g(start)],
                );
            }
        }
        result
    }
}

/// A decorator restricting any inner miner to a sliding
/// transaction-time window over the trading feed.
///
/// Transaction time is logical: the trading feed's record sequence
/// number, carried per arc by [`Tpiin::arc_sources`].  The decorator
/// rebuilds the network keeping every influence arc but only the
/// trading arcs whose winning source record falls in `[start, end)`,
/// refreezes the CSR and runs the inner miner on that view.  Arcs with
/// no recorded source (`u32::MAX`: pre-v2 snapshots, streamed ingest)
/// have unknown time and are excluded from every window.
///
/// The windowed view keeps the full node set, so group node ids remain
/// valid in the original network and provenance delegates to the inner
/// miner.
pub struct WindowedMiner {
    inner: Box<dyn GroupMiner>,
    start: u32,
    end: u32,
    name: String,
}

impl WindowedMiner {
    /// Wraps `inner`, restricting it to trading records with feed
    /// sequence numbers in `[start, end)`.
    pub fn new(inner: Box<dyn GroupMiner>, start: u32, end: u32) -> WindowedMiner {
        let name = format!("windowed:{}@{}..{}", inner.name(), start, end);
        WindowedMiner {
            inner,
            start,
            end,
            name,
        }
    }

    /// The wrapped strategy.
    pub fn inner(&self) -> &dyn GroupMiner {
        self.inner.as_ref()
    }

    /// The half-open feed-sequence window `[start, end)`.
    pub fn window(&self) -> (u32, u32) {
        (self.start, self.end)
    }

    /// The original network restricted to the window: same nodes, all
    /// influence arcs, only in-window trading arcs, CSR refrozen.
    fn windowed_view(&self, tpiin: &Tpiin) -> Tpiin {
        let mut graph: DiGraph<TpiinNode, _> =
            DiGraph::with_capacity(tpiin.graph.node_count(), tpiin.graph.edge_count());
        for (_, node) in tpiin.graph.nodes() {
            graph.add_node(node.clone());
        }
        let mut arc_sources = Vec::new();
        let mut trading_kept = 0usize;
        // `edges()` yields insertion order, so the influence-arcs-first
        // edge layout survives the filter.
        for e in tpiin.graph.edges() {
            let seq = tpiin.arc_sources[e.id.index()];
            let keep = match e.weight.color {
                ArcColor::Influence => true,
                ArcColor::Trading => seq != u32::MAX && seq >= self.start && seq < self.end,
            };
            if keep {
                if e.weight.color == ArcColor::Trading {
                    trading_kept += 1;
                }
                graph.add_edge(e.source, e.target, *e.weight);
                arc_sources.push(seq);
            }
        }
        Tpiin::assemble(
            graph,
            tpiin.person_node.clone(),
            tpiin.company_node.clone(),
            tpiin.influence_arc_count,
            trading_kept,
            tpiin.intra_syndicate_trades.clone(),
            arc_sources,
        )
    }
}

impl GroupMiner for WindowedMiner {
    fn name(&self) -> &str {
        &self.name
    }

    fn mine(&self, tpiin: &Tpiin, ctx: &MineContext) -> DetectionResult {
        let view = self.windowed_view(tpiin);
        self.inner.mine(&view, ctx)
    }

    fn provenance(&self, tpiin: &Tpiin, group: GroupRef<'_>) -> Option<Provenance> {
        // The windowed view preserves node ids, so the inner strategy's
        // evidence chain assembles against the full network.
        self.inner.provenance(tpiin, group)
    }

    fn supports_provenance(&self) -> bool {
        self.inner.supports_provenance()
    }
}

/// Runs one miner with per-strategy observability: a `mine/<name>` span
/// plus `miner.<name>.groups` / `miner.<name>.suspicious_arcs` counters
/// when profiling is enabled.
pub fn mine_with_obs(miner: &dyn GroupMiner, tpiin: &Tpiin, ctx: &MineContext) -> DetectionResult {
    // The outer `mine` span keeps the phase tree's parent node timed
    // even when only one strategy runs.
    let outer = Span::at("mine");
    let span = Span::at(&format!("mine/{}", miner.name()));
    let result = miner.mine(tpiin, ctx);
    drop(span);
    drop(outer);
    if tpiin_obs::profiling_enabled() {
        let registry = tpiin_obs::global();
        registry
            .counter(&format!("miner.{}.groups", miner.name()))
            .add(result.group_count() as u64);
        registry
            .counter(&format!("miner.{}.suspicious_arcs", miner.name()))
            .add(result.suspicious_trading_arcs.len() as u64);
    }
    result
}

/// A named, ordered set of strategies — the unit Pipeline, the serve
/// daemon and the CLI configure and drive.
#[derive(Default)]
pub struct MinerRegistry {
    miners: Vec<Box<dyn GroupMiner>>,
}

impl MinerRegistry {
    /// An empty registry.
    pub fn new() -> MinerRegistry {
        MinerRegistry::default()
    }

    /// The default serving set: the Rule 1/Rule 2 detector plus the
    /// circular-trading strategy.
    pub fn with_defaults() -> MinerRegistry {
        let mut registry = MinerRegistry::new();
        registry.register(Box::new(Rule12Miner));
        registry.register(Box::new(CircularTradingMiner::default()));
        registry
    }

    /// Builds a registry from spec strings (see
    /// [`MinerRegistry::resolve`]); duplicate names are rejected.
    pub fn from_specs<I, S>(specs: I) -> Result<MinerRegistry, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut registry = MinerRegistry::new();
        for spec in specs {
            let miner = Self::resolve(spec.as_ref())?;
            if registry.get(miner.name()).is_some() {
                return Err(format!("miner `{}` requested twice", miner.name()));
            }
            registry.register(miner);
        }
        Ok(registry)
    }

    /// Parses one miner spec:
    ///
    /// * `rules` — the Rule 1/Rule 2 detector,
    /// * `baseline` — the global-traversal oracle,
    /// * `circular` — trading-cycle enumeration,
    /// * `windowed:<inner>@<start>..<end>` — any of the above restricted
    ///   to trading-feed sequence numbers in `[start, end)`, e.g.
    ///   `windowed:rules@0..100`.
    pub fn resolve(spec: &str) -> Result<Box<dyn GroupMiner>, String> {
        match spec {
            RULES_MINER => Ok(Box::new(Rule12Miner)),
            BASELINE_MINER => Ok(Box::new(BaselineMiner::default())),
            CIRCULAR_MINER => Ok(Box::new(CircularTradingMiner::default())),
            _ => {
                let Some(rest) = spec.strip_prefix("windowed:") else {
                    return Err(format!(
                        "unknown miner `{spec}` (expected `rules`, `baseline`, `circular` \
                         or `windowed:<inner>@<start>..<end>`)"
                    ));
                };
                let Some((inner_spec, range)) = rest.rsplit_once('@') else {
                    return Err(format!(
                        "windowed miner `{spec}` is missing its `@<start>..<end>` window"
                    ));
                };
                let Some((start, end)) = range.split_once("..") else {
                    return Err(format!(
                        "windowed miner `{spec}`: window `{range}` is not `<start>..<end>`"
                    ));
                };
                let parse = |text: &str, what: &str| {
                    text.parse::<u32>()
                        .map_err(|_| format!("windowed miner `{spec}`: bad {what} `{text}`"))
                };
                let (start, end) = (parse(start, "start")?, parse(end, "end")?);
                if start >= end {
                    return Err(format!(
                        "windowed miner `{spec}`: empty window {start}..{end}"
                    ));
                }
                let inner = Self::resolve(inner_spec)?;
                Ok(Box::new(WindowedMiner::new(inner, start, end)))
            }
        }
    }

    /// Adds a strategy; a later registration shadows an earlier one
    /// with the same name.
    pub fn register(&mut self, miner: Box<dyn GroupMiner>) {
        self.miners.push(miner);
    }

    /// Looks a strategy up by name (latest registration wins).
    pub fn get(&self, name: &str) -> Option<&dyn GroupMiner> {
        self.miners
            .iter()
            .rev()
            .find(|m| m.name() == name)
            .map(|m| m.as_ref())
    }

    /// The registered strategies, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn GroupMiner> {
        self.miners.iter().map(|m| m.as_ref())
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.miners.iter().map(|m| m.name().to_string()).collect()
    }

    /// Number of registered strategies.
    pub fn len(&self) -> usize {
        self.miners.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.miners.is_empty()
    }

    /// Runs every registered strategy over `tpiin` (in registration
    /// order, with per-miner spans and counters) and returns the named
    /// results.
    pub fn mine_all(&self, tpiin: &Tpiin, ctx: &MineContext) -> Vec<(String, DetectionResult)> {
        self.iter()
            .map(|m| (m.name().to_string(), mine_with_obs(m, tpiin, ctx)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpiin_model::{
        InfluenceKind, InfluenceRecord, Role, RoleSet, SourceRegistry, TradingRecord,
    };

    fn ring_registry(len: usize) -> SourceRegistry {
        let mut r = SourceRegistry::new();
        let companies: Vec<_> = (0..len)
            .map(|i| {
                let p = r.add_person(format!("L{i}"), RoleSet::of(&[Role::Ceo]));
                let c = r.add_company(format!("C{i}"));
                r.add_influence(InfluenceRecord {
                    person: p,
                    company: c,
                    kind: InfluenceKind::CeoOf,
                    is_legal_person: true,
                });
                c
            })
            .collect();
        for i in 0..len {
            r.add_trading(TradingRecord {
                seller: companies[i],
                buyer: companies[(i + 1) % len],
                volume: 100.0,
            });
        }
        r
    }

    #[test]
    fn rules_miner_matches_detector() {
        let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
        let direct = Detector::default().detect(&tpiin);
        let mined = Rule12Miner.mine(&tpiin, &MineContext::default());
        assert_eq!(direct.groups, mined.groups);
        assert_eq!(
            direct.suspicious_trading_arcs,
            mined.suspicious_trading_arcs
        );
    }

    #[test]
    fn circular_miner_finds_each_ring_once() {
        let (tpiin, _) = tpiin_fusion::fuse(&ring_registry(4)).unwrap();
        let result = CircularTradingMiner::default().mine(&tpiin, &MineContext::default());
        assert_eq!(result.group_count(), 1, "one directed 4-ring");
        assert_eq!(result.groups.row(0).trail_with_trade.len(), 4);
        assert_eq!(result.suspicious_trading_arcs.len(), 4, "every ring arc");
    }

    #[test]
    fn circular_miner_respects_cycle_length_cap() {
        let (tpiin, _) = tpiin_fusion::fuse(&ring_registry(5)).unwrap();
        let short = CircularTradingMiner {
            max_cycle_len: 4,
            ..CircularTradingMiner::default()
        };
        assert_eq!(short.mine(&tpiin, &MineContext::default()).group_count(), 0);
    }

    #[test]
    fn circular_scoring_prefers_rate_differentials() {
        let (tpiin, _) = tpiin_fusion::fuse(&ring_registry(3)).unwrap();
        let miner = CircularTradingMiner::default();
        let flat = MineContext::default();
        let spread = MineContext {
            tax_rates: Some(vec![0.05, 0.17, 0.25]),
            ..MineContext::default()
        };
        let result = miner.mine(&tpiin, &flat);
        let cycle = result.groups.row(0);
        assert_eq!(miner.score(&tpiin, &flat, cycle), 0.0);
        assert!(miner.score(&tpiin, &spread, cycle) > 0.3);
    }

    #[test]
    fn counting_mode_fills_the_same_counters_and_arcs() {
        let planted = tpiin_datagen::circular_case_registry();
        let mut dense =
            tpiin_datagen::generate_province(&tpiin_datagen::ProvinceConfig::scaled(0.05));
        tpiin_datagen::add_random_trading(&mut dense, 0.05, 7);
        for (registry, budget, truncated) in [
            (&planted, 100_000, false),
            (&dense, 100_000, false),
            (&dense, 50, true),
        ] {
            let (tpiin, _) = tpiin_fusion::fuse(registry).unwrap();
            let miner = CircularTradingMiner {
                max_cycles: budget,
                ..CircularTradingMiner::default()
            };
            let collecting = MineContext {
                tax_rates: registry.company_tax_rates(),
                ..MineContext::default()
            };
            let counting = MineContext {
                config: DetectorConfig {
                    collect_groups: false,
                    ..DetectorConfig::default()
                },
                ..collecting.clone()
            };
            let full = miner.mine(&tpiin, &collecting);
            let counted = miner.mine(&tpiin, &counting);
            assert!(counted.groups.is_empty(), "counting mode keeps no group");
            assert_eq!(full.groups.len(), full.group_count());
            assert!(full.group_count() > 0);
            assert_eq!(full.overflowed, truncated);
            assert_eq!(counted.group_count(), full.group_count());
            assert_eq!(counted.simple_group_count, full.simple_group_count);
            assert_eq!(counted.overflowed, full.overflowed);
            assert_eq!(
                counted.suspicious_trading_arcs,
                full.suspicious_trading_arcs
            );
            assert!(full.suspicious_trading_arcs.len() >= 4, "every ring arc");
        }
    }

    #[test]
    fn windowed_view_filters_by_feed_sequence() {
        let (tpiin, _) = tpiin_fusion::fuse(&ring_registry(3)).unwrap();
        // The ring's three trades are feed records 0, 1, 2; a window
        // excluding record 2 breaks the cycle.
        let whole = WindowedMiner::new(Box::new(CircularTradingMiner::default()), 0, 3);
        let partial = WindowedMiner::new(Box::new(CircularTradingMiner::default()), 0, 2);
        let ctx = MineContext::default();
        assert_eq!(whole.mine(&tpiin, &ctx).group_count(), 1);
        assert_eq!(partial.mine(&tpiin, &ctx).group_count(), 0);
    }

    #[test]
    fn resolve_parses_every_spec_shape() {
        assert_eq!(MinerRegistry::resolve("rules").unwrap().name(), "rules");
        assert_eq!(
            MinerRegistry::resolve("baseline").unwrap().name(),
            "baseline"
        );
        assert_eq!(
            MinerRegistry::resolve("circular").unwrap().name(),
            "circular"
        );
        assert_eq!(
            MinerRegistry::resolve("windowed:rules@0..10")
                .unwrap()
                .name(),
            "windowed:rules@0..10"
        );
        for bad in [
            "zebra",
            "windowed:rules",
            "windowed:rules@5",
            "windowed:rules@9..3",
            "windowed:zebra@0..1",
        ] {
            assert!(MinerRegistry::resolve(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn registry_rejects_duplicates_and_resolves_names() {
        let registry = MinerRegistry::from_specs(["rules", "circular"]).unwrap();
        assert_eq!(registry.names(), vec!["rules", "circular"]);
        assert!(registry.get("rules").is_some());
        assert!(registry.get("zebra").is_none());
        assert!(MinerRegistry::from_specs(["rules", "rules"]).is_err());
    }

    #[test]
    fn provenance_hooks_follow_support_flags() {
        let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
        let rules = Rule12Miner;
        let result = rules.mine(&tpiin, &MineContext::default());
        assert!(rules.supports_provenance());
        assert!(rules.provenance(&tpiin, result.groups.row(0)).is_some());
        let circular = CircularTradingMiner::default();
        assert!(!circular.supports_provenance());
        assert!(circular.provenance(&tpiin, result.groups.row(0)).is_none());
    }
}
