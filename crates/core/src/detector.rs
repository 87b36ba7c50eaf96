//! Algorithm 1 orchestration: suspicious-group detection over a whole
//! TPIIN, one subTPIIN after another.
//!
//! There is one mining kernel and one way to build a result.
//! [`mine_root`] mines one (subTPIIN, root) pair and always emits
//! **shard-local** node ids, appending rows and trail nodes straight
//! into the shard's [`GroupTable`]; [`Mined`] folds a shard's roots, in
//! root order, into a [`ShardOutcome`] (cross-root circle dedup happens
//! here); [`assemble_detection`] remaps shard tables through
//! [`SubTpiin::global`] into the [`DetectionResult`]'s table.
//! [`Detector::detect`], [`mine_shard`] and the delta engine differ only
//! in how they obtain the shard outcomes.
//!
//! Detection is serial: [`Detector::detect`] mines every shard on the
//! calling thread, in shard order, through one tree arena and one
//! scratch [`Mined`], keeping an exact-size copy of each shard's
//! outcome.  Parallel arms over roots and over shards were measured and
//! lost to this loop on both benchmark inputs (DESIGN.md §6).

use crate::matching::match_root;
use crate::result::{DetectionResult, GroupKind, SubTpiinStats};
use crate::subtpiin::{segment_tpiin, SubTpiin};
use crate::table::{GroupHead, GroupTable};
use crate::tree::PatternsTree;
use std::borrow::Borrow;
use std::collections::HashSet;
use tpiin_fusion::Tpiin;
use tpiin_graph::NodeId;
use tpiin_obs::Span;

/// Detection options.
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// Fill [`DetectionResult::groups`] (set `false` for counting-only
    /// sweeps like Table 1, which then writes no group row).
    pub collect_groups: bool,
    /// Ignored: detection is serial whatever this says.  The field stays
    /// so configurations that still set it keep compiling.
    pub threads: usize,
    /// Upper bound on patterns-tree nodes per root; trees beyond it mark
    /// the result [`DetectionResult::overflowed`].
    pub max_tree_nodes: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            collect_groups: true,
            threads: 0,
            max_tree_nodes: 10_000_000,
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
/// [`Detector::detect`] mines every shard into one reused `Mined` and
/// keeps exact-size copies ([`Mined::take`]); [`mine_shard`] mines into
/// a fresh one.
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

    /// The shard's outcome: arcs sorted and deduplicated.
    fn finish(self) -> ShardOutcome {
        let mut out = self.out;
        out.arcs.sort_unstable();
        out.arcs.dedup();
        out
    }

    /// [`Mined::finish`] with both vectors copied at their exact size,
    /// leaving `self` empty but keeping its capacity: one scratch serves
    /// every shard, and only the copies outlive a shard.  Keeping the
    /// scratch itself instead would carry each table's growth slack to
    /// assembly (≈ +5 MB `peak_mb` on either benchmark input).
    fn take(&mut self) -> ShardOutcome {
        let mut kept = std::mem::take(self).finish();
        let taken = kept.clone();
        kept.groups.clear();
        kept.arcs.clear();
        (self.out.groups, self.out.arcs) = (kept.groups, kept.arcs);
        taken
    }
}

/// Mines one root in `tree`, the arena of this mining call (rebuilt
/// here for `root`), appending its matched groups and counters to
/// `mined` and its circles to `mined.circles`.
fn mine_root(
    sub: &SubTpiin,
    root: u32,
    config: &DetectorConfig,
    tree: &mut PatternsTree,
    mined: &mut Mined,
) {
    let build_span = Span::at("detect/build_tree");
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
fn mine_roots(sub: &SubTpiin, config: &DetectorConfig, tree: &mut PatternsTree, mined: &mut Mined) {
    let mut seen = HashSet::new();
    for root in sub.roots() {
        mine_root(sub, root, config, tree, mined);
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
/// way of obtaining the outcomes — [`Detector::detect`]'s reused
/// scratch, [`mine_shard`] per shard, a cache replay — yields the same
/// result.  Provenance is not part of it: [`crate::Provenance::assemble`]
/// derives a group's chain per request from `(tpiin, group)`.
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
        let _span = Span::at("detect");
        let subs = segment_tpiin(tpiin);
        self.mine_and_assemble(tpiin, &subs)
    }

    /// Mines pre-segmented shards; exposed so callers can segment once
    /// and time segmentation apart from mining.
    pub fn detect_segmented(&self, tpiin: &Tpiin, subs: &[SubTpiin]) -> DetectionResult {
        let _span = Span::at("detect");
        self.mine_and_assemble(tpiin, subs)
    }

    /// The shared body of [`Detector::detect`] and
    /// [`Detector::detect_segmented`], inside their `detect` span.
    fn mine_and_assemble(&self, tpiin: &Tpiin, subs: &[SubTpiin]) -> DetectionResult {
        let shards = mine_serial(subs, &self.config);
        let result = assemble_detection(tpiin, subs, &shards);
        if tpiin_obs::profiling_enabled() {
            let registry = tpiin_obs::global();
            registry.counter("detect.subtpiins").add(subs.len() as u64);
            registry
                .counter("detect.roots")
                .add(root_count(subs) as u64);
            registry
                .counter("detect.groups")
                .add(result.group_count() as u64);
            registry
                .counter("detect.suspicious_arcs")
                .add(result.suspicious_trading_arcs.len() as u64);
        }
        tpiin_obs::debug!(
            "mined {} roots across {} subTPIINs -> {} groups",
            root_count(subs),
            subs.len(),
            result.group_count()
        );
        result
    }
}

/// Roots mined across `subs`: those of every shard with a trading arc
/// (the others have no type-(b) walk and are skipped wholesale).
fn root_count(subs: &[SubTpiin]) -> usize {
    subs.iter()
        .filter(|sub| sub.trading_arc_count > 0)
        .map(|sub| sub.roots().count())
        .sum()
}

/// Mines every shard, in shard order, in one tree arena and one scratch
/// outcome.
fn mine_serial(subs: &[SubTpiin], config: &DetectorConfig) -> Vec<ShardOutcome> {
    let (mut tree, mut scratch) = (PatternsTree::new(), Mined::default());
    subs.iter()
        .map(|sub| {
            if sub.trading_arc_count == 0 {
                return ShardOutcome::default();
            }
            mine_roots(sub, config, &mut tree, &mut scratch);
            scratch.take()
        })
        .collect()
}

/// Convenience: detect with the default configuration (collecting
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
    mine_roots(sub, &config, &mut PatternsTree::new(), &mut mined);
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
        // `threads` is ignored: the benchmark's configuration mines the
        // same groups in the same order.
        let parallel = Detector::new(DetectorConfig {
            threads: 4,
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
    }

    #[test]
    fn reused_scratch_keeps_exact_size_outcomes_and_leaks_nothing() {
        // The benchmark's dense province at smoke size: its shards find
        // 53 to 138 groups each.
        const SEED: u64 = 20170417;
        let mut registry = tpiin_datagen::generate_province(&tpiin_datagen::ProvinceConfig {
            seed: SEED,
            ..tpiin_datagen::ProvinceConfig::scaled(0.05)
        });
        tpiin_datagen::add_random_trading(&mut registry, 0.02, SEED ^ 0x7ead);
        let (tpiin, _) = tpiin_fusion::fuse(&registry).unwrap();
        let mut subs = segment_tpiin(&tpiin);
        subs.retain(|sub| sub.trading_arc_count > 0);
        let config = DetectorConfig::default();
        subs.sort_by_cached_key(|sub| std::cmp::Reverse(mine_shard(sub, &config).groups.len()));
        // The largest shard, then the smallest, through the detector's
        // one scratch.
        let last = subs.len() - 1;
        subs.swap(1, last);
        subs.truncate(2);
        let kept = mine_serial(&subs, &config);
        let small = &subs[1];
        assert!(kept[0].groups.len() > kept[1].groups.len());
        assert!(!kept[1].groups.is_empty());

        let fresh = mine_shard(small, &config);
        assert_eq!(kept[1].groups, fresh.groups, "no state leaks across shards");
        assert_eq!(kept[1].arcs, fresh.arcs);
        assert_eq!(
            (kept[1].complex, kept[1].simple, kept[1].overflowed),
            (fresh.complex, fresh.simple, fresh.overflowed)
        );
        assert_eq!(
            (kept[1].tree_nodes, kept[1].patterns),
            (fresh.tree_nodes, fresh.patterns)
        );
        for out in &kept {
            assert_eq!(
                out.groups.spare_capacity(),
                (0, 0),
                "kept tables are exact-size"
            );
            assert_eq!(
                out.arcs.capacity(),
                out.arcs.len(),
                "kept arcs are exact-size"
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
