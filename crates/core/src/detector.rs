//! Algorithm 1 orchestration: serial and work-stealing parallel
//! suspicious-group detection over a whole TPIIN.
//!
//! There is one mining kernel and one way to build a result.
//! [`mine_root`] mines one (subTPIIN, root) work item and always emits
//! **shard-local** node ids, appending rows and trail nodes straight
//! into the shard's [`GroupTable`]; [`Mined`] folds a shard's roots, in
//! root order, into a [`ShardOutcome`] (cross-root circle dedup happens
//! here); [`assemble_detection`] remaps shard tables through
//! [`SubTpiin::global`] into the [`DetectionResult`]'s table.
//! [`Detector::detect`], [`mine_shard`] and the delta engine differ only
//! in how they obtain the shard outcomes.
//!
//! The parallel path shards detection into (subTPIIN, root) work items,
//! sorts them by estimated shard cost (nodes + trading arcs, heaviest
//! first), seeds one deque per worker round-robin, and lets idle workers
//! steal from siblings.  Outcomes carry their original work index and are
//! sorted before folding, so results are bit-identical to the serial run
//! regardless of scheduling.
//!
//! Scheduling is **adaptive**: the requested worker count is capped at
//! the host's available parallelism (oversubscribing a smaller machine
//! only adds queue traffic), the whole run drops to the serial path when
//! the summed cost estimate is below [`DetectorConfig::serial_cutoff`]
//! (thread spawn + steal overhead dwarfs tiny workloads — a measured
//! regression on small inputs when every run was parallel), and items from
//! cheap shards are glued into batches of at least
//! [`DetectorConfig::batch_min_cost`] so one deque transaction covers
//! many tiny roots.

use crate::matching::match_root;
use crate::result::{DetectionResult, GroupKind, SubTpiinStats};
use crate::subtpiin::{segment_tpiin, SubTpiin};
use crate::table::{GroupHead, GroupTable};
use crate::tree::PatternsTree;
use crossbeam::deque::{Steal, Stealer, Worker};
use std::borrow::Borrow;
use std::collections::HashSet;
use tpiin_fusion::Tpiin;
use tpiin_graph::NodeId;
use tpiin_obs::{Span, SpanHandle, ThreadStats};

/// Detection options.
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// Fill [`DetectionResult::groups`] (set `false` for counting-only
    /// sweeps like Table 1, which then writes no group row).
    pub collect_groups: bool,
    /// Worker threads; `0` or `1` runs serially.  Parallelism is over
    /// (subTPIIN, root) work items, the paper's future-work direction.
    pub threads: usize,
    /// Upper bound on patterns-tree nodes per root; trees beyond it mark
    /// the result [`DetectionResult::overflowed`].
    pub max_tree_nodes: usize,
    /// Summed work-item cost estimate (shard nodes + trading arcs, per
    /// root) below which the stealing pool is skipped and mining runs
    /// serially even when `threads > 1`.  Calibrated so fig7-sized
    /// workloads — where the measured parallel slowdown was ~40x — never
    /// pay for thread spawns.
    pub serial_cutoff: usize,
    /// Work items whose shard cost estimate is below this are glued into
    /// batches of at least this combined cost; each batch is one deque
    /// entry, so the cheap tail no longer causes a steal per root.
    pub batch_min_cost: usize,
    /// Cap the worker count at `std::thread::available_parallelism`
    /// (default `true`).  Differential tests disable this to force the
    /// stealing code path regardless of the host.
    pub clamp_to_host: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            collect_groups: true,
            threads: 0,
            max_tree_nodes: 10_000_000,
            serial_cutoff: 4096,
            batch_min_cost: 256,
            clamp_to_host: true,
        }
    }
}

/// The suspicious-group detector (Algorithm 1 + Algorithm 2 + matching).
#[derive(Clone, Copy, Debug, Default)]
pub struct Detector {
    /// Configuration used by [`Detector::detect`].
    pub config: DetectorConfig,
}

/// What mining roots of one shard has produced so far, in local ids: the
/// running [`ShardOutcome`] plus the circles of the root mined last,
/// which wait for the cross-root dedup of [`Mined::flush_circles`].
/// The serial path mines every root of a shard into one `Mined`; the
/// work-stealing path mines each root into its own and
/// [`Mined::absorb`]s them in root order.
#[derive(Default)]
struct Mined {
    out: ShardOutcome,
    /// The last root's circle groups, in discovery order.  Kept even
    /// when not collecting: the fold needs their arcs.
    circles: GroupTable,
}

impl Mined {
    /// Appends every circle of the root mined last that no earlier root
    /// of the shard found (`seen` holds their trails), then empties the
    /// circle buffer.
    fn flush_circles(&mut self, seen: &mut HashSet<Vec<NodeId>>, collect_groups: bool) {
        for circle in &self.circles {
            if seen.insert(circle.trail_with_trade.to_vec()) {
                self.out.simple += 1;
                let (source, target) = circle.trading_arc;
                self.out
                    .arcs
                    .push((source.index() as u32, target.index() as u32));
                if collect_groups {
                    self.out.groups.push(circle);
                }
            }
        }
        self.circles.clear();
    }

    /// Folds one root's outcome, mined on its own, after the roots
    /// already folded here.
    fn absorb(&mut self, root: Mined, seen: &mut HashSet<Vec<NodeId>>, collect_groups: bool) {
        let (out, mined) = (&mut self.out, root.out);
        out.tree_nodes += mined.tree_nodes;
        out.patterns += mined.patterns;
        out.overflowed |= mined.overflowed;
        out.complex += mined.complex;
        out.simple += mined.simple;
        out.arcs.extend(mined.arcs);
        out.groups.append(&mined.groups);
        self.circles = root.circles;
        self.flush_circles(seen, collect_groups);
    }

    /// The shard's outcome: arcs sorted and deduplicated.
    fn finish(self) -> ShardOutcome {
        let mut out = self.out;
        out.arcs.sort_unstable();
        out.arcs.dedup();
        out
    }

    /// [`Mined::finish`] with both vectors copied at their exact size,
    /// leaving `self` empty but keeping its capacity: one scratch serves
    /// every shard a thread mines, and only the copies outlive a shard.
    fn take(&mut self) -> ShardOutcome {
        let mut kept = std::mem::take(self).finish();
        let taken = kept.clone();
        kept.groups.clear();
        kept.arcs.clear();
        (self.out.groups, self.out.arcs) = (kept.groups, kept.arcs);
        taken
    }
}

/// Mines one root in `tree`, the calling thread's arena for this mining
/// call (rebuilt here for `root`), appending its matched groups and
/// counters to `mined` and its circles to `mined.circles`.
fn mine_root(
    sub: &SubTpiin,
    root: u32,
    config: &DetectorConfig,
    parent: Option<&SpanHandle>,
    tree: &mut PatternsTree,
    mined: &mut Mined,
) {
    // Workers record under the orchestrating `detect` span via its
    // explicit handle, so the profile tree reattaches interleaved
    // worker-thread spans; without a handle (recording off, or callers
    // outside the detector entry points) fall back to the absolute path.
    let build_span = match parent {
        Some(p) => Span::enter_under(p, "build_tree"),
        None => Span::at("detect/build_tree"),
    };
    let fits = tree.build(sub, root, config.max_tree_nodes);
    drop(build_span);
    let out = &mut mined.out;
    if !fits {
        out.overflowed = true;
        return;
    }
    out.tree_nodes += tree.node_count();
    out.patterns += tree.a_leaves().len() + tree.b_leaves().len();
    let local = |v: u32| NodeId::from_index(v as usize);
    let circles = &mut mined.circles;
    match_root(tree, |view| {
        if !view.circle {
            if view.simple {
                out.simple += 1;
            } else {
                out.complex += 1;
            }
            out.arcs.push((view.trade_source, view.target));
            if !config.collect_groups {
                return;
            }
        }
        // A circle's prefix starts at the node its trading arc re-enters,
        // so `prefix[0]` is the antecedent of either kind.
        let head = GroupHead {
            subtpiin: sub.index,
            kind: if view.circle {
                GroupKind::Circle
            } else {
                GroupKind::Matched
            },
            antecedent: local(view.prefix[0]),
            end: local(view.target),
            trading_arc: (local(view.trade_source), local(view.target)),
            simple: view.simple,
        };
        let table = if view.circle {
            &mut *circles
        } else {
            &mut out.groups
        };
        table.push_with(
            head,
            view.prefix.iter().map(|&v| local(v)),
            view.plain.iter().map(|&v| local(v)),
        );
    });
}

/// Serially mines every root of `sub`, in order, into the empty
/// `mined`: matched groups go straight into its table, each root's
/// not-yet-seen circles after them.
fn mine_roots(
    sub: &SubTpiin,
    config: &DetectorConfig,
    parent: Option<&SpanHandle>,
    tree: &mut PatternsTree,
    mined: &mut Mined,
) {
    let mut seen = HashSet::new();
    for root in sub.roots() {
        mine_root(sub, root, config, parent, tree, mined);
        mined.flush_circles(&mut seen, config.collect_groups);
    }
}

/// Builds the [`DetectionResult`] of `tpiin` from its shards and their
/// mined outcomes (`outcomes[i]` belongs to `subs[i]`, owned or
/// borrowed — the delta engine passes its cached outcomes by
/// reference): remaps every shard table into the result's one
/// [`GroupTable`] in a single pass per shard, seeds the intra-syndicate
/// arcs, sums the counters and fills `per_subtpiin`.  Every producer of
/// a `DetectionResult` for the Rule 1/Rule 2 detector ends here, so any
/// way of obtaining the outcomes — serial, work-stealing, [`mine_shard`]
/// per shard, a cache replay — yields the same result.  Provenance is
/// not part of it: [`crate::Provenance::assemble`] derives a group's
/// chain per request from `(tpiin, group)`.
pub fn assemble_detection(
    tpiin: &Tpiin,
    subs: &[SubTpiin],
    outcomes: &[impl Borrow<ShardOutcome>],
) -> DetectionResult {
    assert_eq!(subs.len(), outcomes.len(), "one outcome per shard");
    let outcomes = || outcomes.iter().map(Borrow::borrow);
    let mut result = DetectionResult {
        total_trading_arcs: tpiin.trading_arc_count + tpiin.intra_syndicate_trades.len(),
        intra_syndicate_trades: tpiin.intra_syndicate_trades.len(),
        groups: GroupTable::with_capacity(
            outcomes().map(|out| out.groups.len()).sum(),
            outcomes().map(|out| out.groups.node_count()).sum(),
        ),
        per_subtpiin: Vec::with_capacity(subs.len()),
        ..Default::default()
    };
    // Intra-syndicate trades are suspicious by construction (§4.3): count
    // their arcs.
    for t in &tpiin.intra_syndicate_trades {
        result.suspicious_trading_arcs.insert((
            tpiin.company_node[t.seller.index()],
            tpiin.company_node[t.buyer.index()],
        ));
    }
    for (sub, out) in subs.iter().zip(outcomes()) {
        result.per_subtpiin.push(SubTpiinStats {
            index: sub.index,
            nodes: sub.node_count(),
            influence_arcs: sub.influence_arc_count(),
            trading_arcs: sub.trading_arc_count,
            tree_nodes: out.tree_nodes,
            patterns: out.patterns,
            groups: out.complex + out.simple,
        });
        result.overflowed |= out.overflowed;
        result.complex_group_count += out.complex;
        result.simple_group_count += out.simple;
        let global = |v: u32| sub.global[v as usize];
        result
            .suspicious_trading_arcs
            .extend(out.arcs.iter().map(|&(s, t)| (global(s), global(t))));
        result
            .groups
            .extend_mapped(&out.groups, Some(sub.index), |v| sub.global[v.index()]);
    }
    result
}

impl Detector {
    /// Creates a detector with the given configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Detector { config }
    }

    /// Segments `tpiin` and mines every subTPIIN (Algorithm 1).
    pub fn detect(&self, tpiin: &Tpiin) -> DetectionResult {
        let span = Span::at("detect");
        let parent = span.handle();
        let subs = segment_tpiin(tpiin);
        self.detect_under(tpiin, &subs, parent.as_ref())
    }

    /// Mines pre-segmented shards; exposed so callers can segment once
    /// and time segmentation apart from mining.
    pub fn detect_segmented(&self, tpiin: &Tpiin, subs: &[SubTpiin]) -> DetectionResult {
        let span = Span::at("detect");
        let parent = span.handle();
        self.detect_under(tpiin, subs, parent.as_ref())
    }

    /// The shared mining body behind [`Detector::detect`] and
    /// [`Detector::detect_segmented`]; `parent` is the handle of the
    /// enclosing `detect` span that worker threads attach under.
    fn detect_under(
        &self,
        tpiin: &Tpiin,
        subs: &[SubTpiin],
        parent: Option<&SpanHandle>,
    ) -> DetectionResult {
        // Work items: one per (subTPIIN, root), in shard order.  SubTPIINs
        // without trading arcs can be skipped wholesale — no type-(b)
        // walks exist.
        let work: Vec<(usize, u32)> = subs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.trading_arc_count > 0)
            .flat_map(|(i, s)| s.roots().map(move |r| (i, r)))
            .collect();

        // Adaptive plan: clamp to the host, then compare the summed cost
        // estimate against the serial cutoff.
        let total_cost: u64 = work.iter().map(|&(i, _)| subs[i].estimated_cost()).sum();
        let mut threads = self.config.threads;
        if self.config.clamp_to_host {
            threads = threads.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
        }
        let shards =
            if threads > 1 && work.len() > 1 && total_cost >= self.config.serial_cutoff as u64 {
                self.mine_stealing(subs, &work, threads, parent)
            } else {
                self.mine_serial(subs, parent)
            };
        let result = assemble_detection(tpiin, subs, &shards);
        if tpiin_obs::profiling_enabled() {
            let registry = tpiin_obs::global();
            registry.counter("detect.subtpiins").add(subs.len() as u64);
            registry.counter("detect.roots").add(work.len() as u64);
            registry
                .counter("detect.groups")
                .add(result.group_count() as u64);
            registry
                .counter("detect.suspicious_arcs")
                .add(result.suspicious_trading_arcs.len() as u64);
        }
        tpiin_obs::debug!(
            "mined {} roots across {} subTPIINs -> {} groups",
            work.len(),
            subs.len(),
            result.group_count()
        );
        result
    }

    /// Mines every shard on the calling thread, in shard order, in one
    /// tree arena and one scratch outcome.
    fn mine_serial(&self, subs: &[SubTpiin], parent: Option<&SpanHandle>) -> Vec<ShardOutcome> {
        let (mut tree, mut scratch) = (PatternsTree::new(), Mined::default());
        subs.iter()
            .map(|sub| {
                if sub.trading_arc_count == 0 {
                    return ShardOutcome::default();
                }
                mine_roots(sub, &self.config, parent, &mut tree, &mut scratch);
                scratch.take()
            })
            .collect()
    }

    /// Mines `work` with a pool of work-stealing workers, then folds the
    /// root outcomes in work order into one outcome per shard.
    ///
    /// Items are scheduled heaviest-shard-first (estimated cost: nodes +
    /// trading arcs) and glued into batches of at least
    /// `batch_min_cost` — an expensive item is a singleton batch, the
    /// cheap tail shares deque entries.  Batches are dealt round-robin
    /// onto per-worker deques, so the expensive shards start immediately
    /// and spread across workers; what gets stolen is whole batches.
    /// Each worker mines in its own tree arena.  Per-worker counters
    /// (items, batches, steals, busy time) flow into the metrics registry
    /// when profiling is on.
    fn mine_stealing(
        &self,
        subs: &[SubTpiin],
        work: &[(usize, u32)],
        threads: usize,
        parent: Option<&SpanHandle>,
    ) -> Vec<ShardOutcome> {
        let mut schedule: Vec<usize> = (0..work.len()).collect();
        schedule.sort_by_key(|&i| (std::cmp::Reverse(subs[work[i].0].estimated_cost()), i));
        let mut batches: Vec<Vec<usize>> = Vec::new();
        let mut cost_of_open_batch = u64::MAX; // force a fresh first batch
        for &item in &schedule {
            if cost_of_open_batch >= self.config.batch_min_cost as u64 {
                batches.push(Vec::new());
                cost_of_open_batch = 0;
            }
            batches.last_mut().expect("batch opened above").push(item);
            cost_of_open_batch += subs[work[item].0].estimated_cost();
        }
        let threads = threads.min(batches.len());
        if threads <= 1 {
            // Batching collapsed the workload onto one worker: skip the pool.
            return self.mine_serial(subs, parent);
        }
        let workers: Vec<Worker<usize>> = (0..threads).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<usize>> = workers.iter().map(Worker::stealer).collect();
        for (k, batch) in batches.iter().enumerate() {
            debug_assert!(!batch.is_empty());
            workers[k % threads].push(k);
        }

        let config = &self.config;
        let collected: parking_lot::Mutex<Vec<(usize, Mined)>> =
            parking_lot::Mutex::new(Vec::with_capacity(work.len()));
        crossbeam::thread::scope(|scope| {
            for (thread_index, worker) in workers.iter().enumerate() {
                let (collected, stealers, batches) = (&collected, &stealers, &batches);
                scope.spawn(move |_| {
                    let mut local: Vec<(usize, Mined)> = Vec::new();
                    let mut tree = PatternsTree::new();
                    let profiling = tpiin_obs::profiling_enabled();
                    let mut stats = ThreadStats {
                        thread: thread_index,
                        ..Default::default()
                    };
                    loop {
                        let (batch, stolen) = match worker.pop() {
                            Some(batch) => (batch, false),
                            None => match steal_any(stealers, thread_index) {
                                Some(batch) => (batch, true),
                                None => break,
                            },
                        };
                        for &item in &batches[batch] {
                            let (sub_idx, root) = work[item];
                            let started = profiling.then(std::time::Instant::now);
                            let mut outcome = Mined::default();
                            mine_root(
                                &subs[sub_idx],
                                root,
                                config,
                                parent,
                                &mut tree,
                                &mut outcome,
                            );
                            if let Some(started) = started {
                                stats.busy_ns += started.elapsed().as_nanos() as u64;
                            }
                            stats.items += 1;
                            local.push((item, outcome));
                        }
                        if stolen {
                            stats.steals += 1;
                        } else {
                            stats.batches += 1;
                        }
                    }
                    if profiling && stats.items > 0 {
                        tpiin_obs::global().record_thread(stats);
                    }
                    collected.lock().append(&mut local);
                });
            }
        })
        .expect("detection worker panicked");

        let mut flat = collected.into_inner();
        flat.sort_by_key(|&(item, _)| item);
        assert_eq!(
            flat.len(),
            work.len(),
            "every work item produced an outcome"
        );
        // Each shard's roots are one consecutive run of `work`.
        let mut roots = flat.into_iter().map(|(_, outcome)| outcome).peekable();
        let mut next = 0;
        (0..subs.len())
            .map(|i| {
                let count = work[next..].iter().take_while(|w| w.0 == i).count();
                next += count;
                let (mut shard, mut seen) = (Mined::default(), HashSet::new());
                for root in roots.by_ref().take(count) {
                    shard.absorb(root, &mut seen, config.collect_groups);
                }
                shard.finish()
            })
            .collect()
    }
}

/// Steals one item for `me`, scanning siblings starting at the next
/// worker so concurrent thieves fan out over different victims.
fn steal_any(stealers: &[Stealer<usize>], me: usize) -> Option<usize> {
    let n = stealers.len();
    for k in 1..n {
        let victim = (me + k) % n;
        loop {
            match stealers[victim].steal() {
                Steal::Success(item) => return Some(item),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

/// Convenience: detect with the default configuration (serial, collecting
/// groups).
///
/// # Example
///
/// Two companies with the same boss trade with each other — the minimal
/// suspicious group (the triangle of the paper's Fig. 3(a)):
///
/// ```
/// use tpiin_core::detect;
/// use tpiin_fusion::fuse;
/// use tpiin_model::{InfluenceKind, InfluenceRecord, Role, RoleSet,
///                   SourceRegistry, TradingRecord};
///
/// let mut registry = SourceRegistry::new();
/// let boss = registry.add_person("Boss", RoleSet::of(&[Role::Ceo]));
/// let a = registry.add_company("A");
/// let b = registry.add_company("B");
/// for company in [a, b] {
///     registry.add_influence(InfluenceRecord {
///         person: boss, company,
///         kind: InfluenceKind::CeoOf, is_legal_person: true,
///     });
/// }
/// registry.add_trading(TradingRecord { seller: a, buyer: b, volume: 1.0 });
///
/// let (tpiin, _) = fuse(&registry).unwrap();
/// let result = detect(&tpiin);
/// assert_eq!(result.group_count(), 1);
/// assert!(result.groups.row(0).simple);
/// assert_eq!(result.suspicious_trading_arcs.len(), 1);
/// ```
pub fn detect(tpiin: &Tpiin) -> DetectionResult {
    Detector::default().detect(tpiin)
}

/// Everything mining one shard produces, in the shard's **local**
/// coordinates: node ids are local indices (the table's rows carry them
/// re-cast as [`NodeId`]s) and only mean something in the full network
/// after [`assemble_detection`] remaps them through [`SubTpiin::global`].
/// Local coordinates are the point — a delta engine can cache the
/// outcome keyed on the shard's local structure and replay it, by
/// reference, after global node ids shift.
#[derive(Clone, Debug, Default)]
pub struct ShardOutcome {
    /// The shard's groups in result order: per root (ascending), matched
    /// groups first, then that root's not-yet-seen circles.  Empty when
    /// mined with `collect_groups: false`.
    pub groups: GroupTable,
    /// Complex groups found (Definition 3).
    pub complex: usize,
    /// Simple groups found, circles included.
    pub simple: usize,
    /// Distinct suspicious trading arcs `(source, target)`, sorted.
    pub arcs: Vec<(u32, u32)>,
    /// Total patterns-tree nodes across the shard's roots.
    pub tree_nodes: usize,
    /// Total component patterns across the shard's roots.
    pub patterns: usize,
    /// Whether any root overflowed `max_tree_nodes`.
    pub overflowed: bool,
}

/// Serially mines every root of one shard and returns the outcome in
/// local coordinates (see [`ShardOutcome`]).  Groups are always collected
/// regardless of `config.collect_groups`, and `max_tree_nodes` applies
/// per root exactly as in [`Detector::detect`]: this is the detector's
/// serial path restricted to one shard, one tree arena for all its roots.
pub fn mine_shard(sub: &SubTpiin, config: &DetectorConfig) -> ShardOutcome {
    if sub.trading_arc_count == 0 {
        return ShardOutcome::default();
    }
    let config = DetectorConfig {
        collect_groups: true,
        ..*config
    };
    let mut mined = Mined::default();
    mine_roots(sub, &config, None, &mut PatternsTree::new(), &mut mined);
    mined.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpiin_model::{
        InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, Role, RoleSet,
        SourceRegistry, TradingRecord,
    };

    /// Case 1 (Fig. 1): L1 controls C1 which owns C3; L2 controls C2;
    /// L1 and L2 are brothers; C3 sells to C2.
    fn case1_registry() -> SourceRegistry {
        let mut r = SourceRegistry::new();
        let l1 = r.add_person("L1", RoleSet::of(&[Role::Ceo]));
        let l2 = r.add_person("L2", RoleSet::of(&[Role::Ceo]));
        let l3 = r.add_person("L3", RoleSet::of(&[Role::Ceo]));
        let c1 = r.add_company("C1");
        let c2 = r.add_company("C2");
        let c3 = r.add_company("C3");
        for (p, c) in [(l1, c1), (l2, c2), (l3, c3)] {
            r.add_influence(InfluenceRecord {
                person: p,
                company: c,
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            });
        }
        r.add_interdependence(l1, l2, InterdependenceKind::Kinship);
        r.add_investment(InvestmentRecord {
            investor: c1,
            investee: c3,
            share: 1.0,
        });
        r.add_trading(TradingRecord {
            seller: c3,
            buyer: c2,
            volume: 2552.0,
        });
        r
    }

    #[test]
    fn case1_is_detected_with_merged_kin_antecedent() {
        let (tpiin, _) = tpiin_fusion::fuse(&case1_registry()).unwrap();
        let result = detect(&tpiin);
        assert_eq!(result.group_count(), 1);
        assert_eq!(result.suspicious_trading_arcs.len(), 1);
        let g = result.groups.row(0);
        assert_eq!(tpiin.label(g.antecedent), "L1+L2");
        assert_eq!(tpiin.label(g.end), "C2");
        assert!(g.simple);
        assert_eq!(g.kind, GroupKind::Matched);
        let explained = g.explain(&tpiin);
        assert!(explained.contains("L1+L2"), "{explained}");
        assert!(explained.contains("IAT"), "{explained}");
    }

    #[test]
    fn unrelated_trade_is_not_suspicious() {
        let mut r = case1_registry();
        // C4 is controlled by an unrelated person; C3 -> C4 trade crosses
        // no common antecedent (C4 joins the weak component via nothing).
        let l4 = r.add_person("L4", RoleSet::of(&[Role::Ceo]));
        let c4 = r.add_company("C4");
        r.add_influence(InfluenceRecord {
            person: l4,
            company: c4,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
        r.add_trading(TradingRecord {
            seller: tpiin_model::CompanyId(2),
            buyer: c4,
            volume: 1.0,
        });
        let (tpiin, _) = tpiin_fusion::fuse(&r).unwrap();
        let result = detect(&tpiin);
        // Still only the Case-1 group; the C3 -> C4 arc stays clean.
        assert_eq!(result.group_count(), 1);
        assert_eq!(result.suspicious_trading_arcs.len(), 1);
        assert_eq!(result.total_trading_arcs, 2);
        assert!((result.suspicious_percentage() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn counting_only_mode_matches_collecting_mode() {
        let (tpiin, _) = tpiin_fusion::fuse(&case1_registry()).unwrap();
        let full = detect(&tpiin);
        let counting = Detector::new(DetectorConfig {
            collect_groups: false,
            ..Default::default()
        })
        .detect(&tpiin);
        assert!(counting.groups.is_empty());
        assert_eq!(counting.group_count(), full.group_count());
        assert_eq!(
            counting.suspicious_trading_arcs,
            full.suspicious_trading_arcs
        );
    }

    #[test]
    fn parallel_detection_is_deterministic_and_equal_to_serial() {
        // A registry with several components to give the scheduler work.
        let mut r = SourceRegistry::new();
        for k in 0..6u32 {
            let l = r.add_person(format!("L{k}"), RoleSet::of(&[Role::Ceo]));
            let a = r.add_company(format!("A{k}"));
            let b = r.add_company(format!("B{k}"));
            for c in [a, b] {
                r.add_influence(InfluenceRecord {
                    person: l,
                    company: c,
                    kind: InfluenceKind::CeoOf,
                    is_legal_person: true,
                });
            }
            r.add_trading(TradingRecord {
                seller: a,
                buyer: b,
                volume: 1.0,
            });
        }
        let (tpiin, _) = tpiin_fusion::fuse(&r).unwrap();
        let serial = detect(&tpiin);
        // Force the stealing pool even on a small host: no host clamp, no
        // serial cutoff, one item per batch.
        let parallel = Detector::new(DetectorConfig {
            threads: 4,
            serial_cutoff: 0,
            batch_min_cost: 1,
            clamp_to_host: false,
            ..Default::default()
        })
        .detect(&tpiin);
        assert_eq!(serial.group_count(), 6);
        assert_eq!(parallel.group_count(), serial.group_count());
        assert_eq!(
            parallel.suspicious_trading_arcs,
            serial.suspicious_trading_arcs
        );
        let keys = |r: &DetectionResult| -> Vec<_> { r.groups.iter().map(|g| g.key()).collect() };
        assert_eq!(
            keys(&parallel),
            keys(&serial),
            "identical order, not just set"
        );
        // Batched variant (several items glued per deque entry) and the
        // adaptive default (which drops this tiny workload to the serial
        // path) must produce the same result again.
        for config in [
            DetectorConfig {
                threads: 4,
                serial_cutoff: 0,
                batch_min_cost: 8,
                clamp_to_host: false,
                ..Default::default()
            },
            DetectorConfig {
                threads: 4,
                ..Default::default()
            },
        ] {
            let result = Detector::new(config).detect(&tpiin);
            assert_eq!(keys(&result), keys(&serial));
            assert_eq!(
                result.suspicious_trading_arcs,
                serial.suspicious_trading_arcs
            );
        }
    }

    #[test]
    fn intra_syndicate_trades_are_counted_suspicious() {
        let mut r = case1_registry();
        // C2 <-> C3 mutual investment forms an SCC; their trade becomes
        // intra-syndicate.
        r.add_investment(InvestmentRecord {
            investor: tpiin_model::CompanyId(1),
            investee: tpiin_model::CompanyId(2),
            share: 0.5,
        });
        r.add_investment(InvestmentRecord {
            investor: tpiin_model::CompanyId(2),
            investee: tpiin_model::CompanyId(1),
            share: 0.5,
        });
        let (tpiin, _) = tpiin_fusion::fuse(&r).unwrap();
        assert_eq!(tpiin.intra_syndicate_trades.len(), 1);
        let result = detect(&tpiin);
        assert_eq!(result.intra_syndicate_trades, 1);
        // The intra-syndicate arc contributes a suspicious self-arc entry.
        assert!(!result.suspicious_trading_arcs.is_empty());
        assert_eq!(result.total_trading_arcs, 1);
    }

    #[test]
    fn tree_overflow_sets_the_flag_instead_of_panicking() {
        let (tpiin, _) = tpiin_fusion::fuse(&case1_registry()).unwrap();
        let result = Detector::new(DetectorConfig {
            max_tree_nodes: 1,
            ..Default::default()
        })
        .detect(&tpiin);
        assert!(result.overflowed);
        assert_eq!(result.group_count(), 0);
    }

    #[test]
    fn empty_tpiin_detects_nothing() {
        let r = SourceRegistry::new();
        let (tpiin, _) = tpiin_fusion::fuse(&r).unwrap();
        let result = detect(&tpiin);
        assert_eq!(result.group_count(), 0);
        assert!(result.suspicious_trading_arcs.is_empty());
        assert!(!result.overflowed);
    }
}
