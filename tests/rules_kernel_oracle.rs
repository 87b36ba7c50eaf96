//! The slow obvious Rule 1/Rule 2 kernel is the oracle.
//!
//! [`reference_shard`] restates Algorithm 2 and the Appendix B match with
//! nothing reused: per root it enumerates every trail recursively, each
//! its own `Vec`, numbered as the patterns tree numbers them; it pairs
//! every type-(b) leaf with every influence trail to its target by
//! scanning all of the root's trails, classifies each pair by
//! Definition 3 on node sets, dedups circles per root and then per
//! shard, and marks a root whose trail count exceeds the tree bound as
//! overflowed.  `mine_shard` must equal it field for field and in
//! order, and so must `detect` (collecting and counting-only) and
//! `mine_shard` per shard against the reference outcomes assembled — on random hand-built
//! shards (trading arcs into any node, so circles and person targets
//! occur) and on random fused provinces with trades planted against
//! investment arcs, across tree bounds on both sides of a root's trail
//! count.  `groups_behind_arc` must return exactly the groups `detect`
//! reports behind each suspicious arc.
//!
//! `RULES_KERNEL_CASES` sets the number of random cases (default 64,
//! sized for an unoptimised `cargo test`; CI runs 2048 in release).

use rand::prelude::*;
use std::collections::BTreeSet;
use tpiin::datagen::{add_random_trading, generate_province, ProvinceConfig};
use tpiin::detect::{
    assemble_detection, groups_behind_arc, mine_shard, segment_tpiin, subtpiin_from_arcs,
    DetectionResult, Detector, DetectorConfig, GroupKind, GroupRef, GroupTable, ShardOutcome,
    SubTpiin, SuspiciousGroup,
};
use tpiin::fusion::{fuse, Tpiin};
use tpiin::graph::NodeId;
use tpiin::model::{CompanyId, TradingRecord};

// ---------------------------------------------------------------------
// The oracle.
// ---------------------------------------------------------------------

/// Appends the trail `trails[id]`'s descendants, in the tree's discovery
/// order: a trail's extensions are numbered together, in influence
/// order, and then explored last-numbered first.  `order` receives the
/// trails in the order they are explored.
fn explore(sub: &SubTpiin, id: usize, trails: &mut Vec<Vec<u32>>, order: &mut Vec<usize>) {
    order.push(id);
    let tip = *trails[id].last().expect("a trail holds its root");
    let first = trails.len();
    for &w in sub.influence(tip) {
        let mut extended = trails[id].clone();
        extended.push(w);
        trails.push(extended);
    }
    for child in (first..trails.len()).rev() {
        explore(sub, child, trails, order);
    }
}

fn local(v: u32) -> NodeId {
    NodeId::from_index(v as usize)
}

fn local_group(
    sub: &SubTpiin,
    kind: GroupKind,
    with_trade: &[u32],
    target: u32,
    plain: &[u32],
    simple: bool,
) -> SuspiciousGroup {
    SuspiciousGroup {
        subtpiin: sub.index,
        kind,
        antecedent: local(with_trade[0]),
        end: local(target),
        trading_arc: (local(*with_trade.last().expect("non-empty")), local(target)),
        trail_with_trade: with_trade.iter().map(|&v| local(v)).collect(),
        trail_plain: plain.iter().map(|&v| local(v)).collect(),
        simple,
    }
}

/// What one root contributes, before the shard-level circle dedup.
struct RootRef {
    trails: usize,
    patterns: usize,
    matched: Vec<SuspiciousGroup>,
    circles: Vec<(Vec<u32>, SuspiciousGroup)>,
}

fn reference_root(sub: &SubTpiin, root: u32) -> RootRef {
    let mut trails = vec![vec![root]];
    let mut order = Vec::new();
    explore(sub, 0, &mut trails, &mut order);
    let mut out = RootRef {
        trails: trails.len(),
        patterns: 0,
        matched: Vec::new(),
        circles: Vec::new(),
    };
    for &id in &order {
        let prefix = &trails[id];
        let tip = *prefix.last().expect("non-empty");
        let trading = sub.trading(tip);
        // Type (a): nothing leaves the tip; type (b): one per trading arc.
        out.patterns += usize::from(trading.is_empty() && sub.influence(tip).is_empty());
        out.patterns += trading.len();
        for &c in trading {
            if let Some(pos) = prefix.iter().position(|&v| v == c) {
                let circle = prefix[pos..].to_vec();
                if out.circles.iter().all(|(seen, _)| *seen != circle) {
                    let group = local_group(sub, GroupKind::Circle, &circle, c, &[c], true);
                    out.circles.push((circle, group));
                }
                continue;
            }
            for plain in trails.iter().filter(|t| *t.last().expect("non-empty") == c) {
                // Definition 3: simple iff the trails share no node but
                // the antecedent and the end.
                let a: BTreeSet<u32> = prefix.iter().copied().collect();
                let b: BTreeSet<u32> = plain.iter().copied().collect();
                let simple = a.intersection(&b).all(|&v| v == prefix[0] || v == c);
                out.matched.push(local_group(
                    sub,
                    GroupKind::Matched,
                    prefix,
                    c,
                    plain,
                    simple,
                ));
            }
        }
    }
    out
}

/// The shard outcome `mine_shard` must produce, with groups collected.
fn reference_shard(sub: &SubTpiin, max_tree_nodes: usize) -> ShardOutcome {
    let mut out = ShardOutcome::default();
    if sub.trading_arc_count == 0 {
        return out;
    }
    let mut shard_circles: Vec<Vec<u32>> = Vec::new();
    for root in sub.roots() {
        let mined = reference_root(sub, root);
        if mined.trails > max_tree_nodes {
            out.overflowed = true;
            continue;
        }
        out.tree_nodes += mined.trails;
        out.patterns += mined.patterns;
        for g in mined.matched {
            if g.simple {
                out.simple += 1;
            } else {
                out.complex += 1;
            }
            out.arcs.push(arc(&g));
            out.groups.push(g.view());
        }
        for (circle, g) in mined.circles {
            if !shard_circles.contains(&circle) {
                shard_circles.push(circle);
                out.simple += 1;
                out.arcs.push(arc(&g));
                out.groups.push(g.view());
            }
        }
    }
    out.arcs.sort_unstable();
    out.arcs.dedup();
    out
}

fn arc(g: &SuspiciousGroup) -> (u32, u32) {
    (
        g.trading_arc.0.index() as u32,
        g.trading_arc.1.index() as u32,
    )
}

// ---------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------

fn assert_same_shard(what: &str, got: &ShardOutcome, want: &ShardOutcome) {
    assert_eq!(got.groups.len(), want.groups.len(), "{what}: group count");
    for (i, (g, w)) in got.groups.iter().zip(&want.groups).enumerate() {
        assert_eq!(g, w, "{what}: group {i}");
    }
    assert_eq!(got.complex, want.complex, "{what}: complex");
    assert_eq!(got.simple, want.simple, "{what}: simple");
    assert_eq!(got.arcs, want.arcs, "{what}: arcs");
    assert_eq!(got.tree_nodes, want.tree_nodes, "{what}: tree nodes");
    assert_eq!(got.patterns, want.patterns, "{what}: patterns");
    assert_eq!(got.overflowed, want.overflowed, "{what}: overflowed");
}

fn assert_same_detection(what: &str, got: &DetectionResult, want: &DetectionResult) {
    assert_eq!(got.groups.len(), want.groups.len(), "{what}: group count");
    for (i, (g, w)) in got.groups.iter().zip(&want.groups).enumerate() {
        assert_eq!(g, w, "{what}: group {i}");
    }
    assert_eq!(
        got.complex_group_count, want.complex_group_count,
        "{what}: complex"
    );
    assert_eq!(
        got.simple_group_count, want.simple_group_count,
        "{what}: simple"
    );
    assert_eq!(
        got.suspicious_trading_arcs, want.suspicious_trading_arcs,
        "{what}: suspicious arcs"
    );
    assert_eq!(
        got.total_trading_arcs, want.total_trading_arcs,
        "{what}: total arcs"
    );
    assert_eq!(
        got.intra_syndicate_trades, want.intra_syndicate_trades,
        "{what}: intra-syndicate trades"
    );
    assert_eq!(got.per_subtpiin, want.per_subtpiin, "{what}: per-subTPIIN");
    assert_eq!(got.overflowed, want.overflowed, "{what}: overflowed");
}

/// The tree bounds worth trying on `sub`: unbounded, and around the
/// trail count of one of its roots (both sides of the overflow edge).
fn bounds(sub: &SubTpiin, rng: &mut StdRng) -> Vec<usize> {
    let roots: Vec<u32> = sub.roots().collect();
    let mut out = vec![usize::MAX];
    if !roots.is_empty() {
        let trails = reference_root(sub, pick(rng, &roots)).trails;
        out.extend(
            [trails - 1, trails, trails + 1]
                .into_iter()
                .filter(|&b| b >= 1),
        );
    }
    out
}

/// `mine_shard` against the reference at each bound of [`bounds`].
fn check_shard(what: &str, sub: &SubTpiin, rng: &mut StdRng) {
    for max_tree_nodes in bounds(sub, rng) {
        let config = DetectorConfig {
            max_tree_nodes,
            ..DetectorConfig::default()
        };
        assert_same_shard(
            &format!("{what}, bound {max_tree_nodes}"),
            &mine_shard(sub, &config),
            &reference_shard(sub, max_tree_nodes),
        );
    }
}

/// `detect` (collecting and counting-only) and `mine_shard` per shard
/// against the reference outcomes assembled, then `groups_behind_arc`
/// against `detect`; returns the collecting detection.
fn check_network(what: &str, tpiin: &Tpiin, max_tree_nodes: usize) -> DetectionResult {
    let subs = segment_tpiin(tpiin);
    let reference: Vec<ShardOutcome> = subs
        .iter()
        .map(|s| reference_shard(s, max_tree_nodes))
        .collect();
    let counted: Vec<ShardOutcome> = reference
        .iter()
        .map(|out| ShardOutcome {
            groups: GroupTable::new(),
            ..out.clone()
        })
        .collect();
    let want = assemble_detection(tpiin, &subs, &reference);
    let want_counted = assemble_detection(tpiin, &subs, &counted);
    let base = DetectorConfig {
        max_tree_nodes,
        ..DetectorConfig::default()
    };
    let counting = DetectorConfig {
        collect_groups: false,
        ..base
    };
    let what = format!("{what}, bound {max_tree_nodes}");
    let detected = Detector::new(base).detect(tpiin);
    assert_same_detection(&format!("{what}: serial"), &detected, &want);
    let per_shard: Vec<ShardOutcome> = subs.iter().map(|s| mine_shard(s, &base)).collect();
    assert_same_detection(
        &format!("{what}: per shard"),
        &assemble_detection(tpiin, &subs, &per_shard),
        &want,
    );
    assert_same_detection(
        &format!("{what}: counting"),
        &Detector::new(counting).detect(tpiin),
        &want_counted,
    );
    if detected.overflowed {
        return detected;
    }
    // The query emits a root's circle where it meets it; the detector
    // folds it in after the root's matched groups.  Compare as sets.
    let shapes = |groups: &mut dyn Iterator<Item = GroupRef<'_>>| {
        let mut shapes: Vec<_> = groups
            .map(|g| (g.kind, g.antecedent, g.end, g.key(), g.simple))
            .collect();
        shapes.sort();
        shapes
    };
    for &(s, b) in &detected.suspicious_trading_arcs {
        assert_eq!(
            shapes(
                &mut groups_behind_arc(tpiin, s, b)
                    .iter()
                    .map(SuspiciousGroup::view)
            ),
            shapes(&mut detected.groups.iter().filter(|g| g.trading_arc == (s, b))),
            "{what}: groups behind {s:?} -> {b:?}"
        );
    }
    detected
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// A random antecedent DAG over `3..10` local nodes (arcs run from lower
/// to higher ids) with trading arcs between any two distinct nodes.
fn random_shard(rng: &mut StdRng) -> SubTpiin {
    let n = rng.gen_range(3..10u32);
    let pairs = |rng: &mut StdRng, max: usize| -> Vec<(u32, u32)> {
        let mut arcs: Vec<(u32, u32)> = (0..rng.gen_range(0..=max))
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|&(a, b)| a != b)
            .collect();
        arcs.sort_unstable();
        arcs.dedup();
        arcs
    };
    let influence: Vec<(u32, u32)> = pairs(rng, 16)
        .into_iter()
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let trading = pairs(rng, 8);
    let mut in_degree = vec![0; n as usize];
    for &(_, b) in &influence {
        in_degree[b as usize] += 1;
    }
    let is_person = in_degree.iter().map(|&d| d == 0).collect();
    subtpiin_from_arcs(n as usize, &influence, &trading, is_person)
}

/// A seeded random province: ER trading at a random density, plus trades
/// from investees back to their investors, which close circles.
fn random_province(seed: u64, rng: &mut StdRng) -> Tpiin {
    let scale = pick(rng, &[0.01, 0.02, 0.04]);
    let mut registry = generate_province(&ProvinceConfig {
        seed,
        investment_cycles: rng.gen_range(0..3),
        ..ProvinceConfig::scaled(scale)
    });
    let p = pick(rng, &[0.005, 0.02, 0.05]);
    add_random_trading(&mut registry, p, seed ^ 0x7ead);
    let back: Vec<(CompanyId, CompanyId)> = registry
        .investments()
        .iter()
        .filter(|_| rng.gen_bool(0.2))
        .map(|r| (r.investee, r.investor))
        .collect();
    for (seller, buyer) in back {
        registry.add_trading(TradingRecord {
            seller,
            buyer,
            volume: 1.0,
        });
    }
    fuse(&registry).expect("generated registry fuses").0
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn case_count() -> u64 {
    std::env::var("RULES_KERNEL_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[test]
fn random_shards_match_the_oracle() {
    let mut shapes = [0usize; 3]; // circles, complex groups, overflows
    for case in 0..case_count() {
        let mut rng = StdRng::seed_from_u64(case);
        let sub = random_shard(&mut rng);
        check_shard(&format!("shard case {case}"), &sub, &mut rng);
        let open = reference_shard(&sub, usize::MAX);
        shapes[0] += usize::from(open.groups.iter().any(|g| g.kind == GroupKind::Circle));
        shapes[1] += usize::from(open.complex > 0);
        shapes[2] += usize::from(reference_shard(&sub, 3).overflowed);
    }
    // The generator must keep reaching every branch of the kernel.
    assert!(
        case_count() < 32 || shapes.iter().all(|&s| s > 0),
        "circle / complex / overflow cases: {shapes:?}"
    );
}

#[test]
fn random_provinces_match_the_oracle() {
    let mut circles = 0;
    for case in 0..case_count().div_ceil(4) {
        let mut rng = StdRng::seed_from_u64(0x5eed ^ case);
        let tpiin = random_province(case, &mut rng);
        let what = format!("province case {case}");
        for sub in &segment_tpiin(&tpiin) {
            check_shard(&format!("{what}, shard {}", sub.index), sub, &mut rng);
        }
        let open = check_network(&what, &tpiin, usize::MAX);
        check_network(&what, &tpiin, rng.gen_range(1..=4));
        circles += usize::from(open.groups.iter().any(|g| g.kind == GroupKind::Circle));
    }
    assert!(
        case_count() < 32 || circles > 0,
        "no province case closed a circle"
    );
}
