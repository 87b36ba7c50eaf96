//! Property test of the pattern matcher alone: on random antecedent DAGs
//! with random trading arcs, `match_root` must produce exactly the trail
//! pairs a brute-force enumerator finds (per root), and the patterns tree
//! must enumerate exactly the DAG's trails — with one tree arena rebuilt
//! for every root, as the detector uses it.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tpiin_core::{match_root, subtpiin_from_arcs, PatternsTree, SubTpiin};

#[derive(Clone, Debug)]
struct RawSub {
    n: usize,
    influence: Vec<(u32, u32)>, // low -> high index: a DAG
    trading: Vec<(u32, u32)>,
}

fn arb_sub() -> impl Strategy<Value = RawSub> {
    (3usize..9).prop_flat_map(|n| {
        let arcs = proptest::collection::vec((0..n as u32, 0..n as u32), 0..14);
        let trades = proptest::collection::vec((0..n as u32, 0..n as u32), 0..8);
        (arcs, trades).prop_map(move |(raw_arcs, raw_trades)| {
            let mut influence: Vec<(u32, u32)> = raw_arcs
                .into_iter()
                .filter(|&(a, b)| a != b)
                .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
                .collect();
            influence.sort_unstable();
            influence.dedup();
            let mut trading: Vec<(u32, u32)> =
                raw_trades.into_iter().filter(|&(a, b)| a != b).collect();
            trading.sort_unstable();
            trading.dedup();
            RawSub {
                n,
                influence,
                trading,
            }
        })
    })
}

fn build(raw: &RawSub) -> SubTpiin {
    subtpiin_from_arcs(raw.n, &raw.influence, &raw.trading, vec![false; raw.n])
}

/// All influence trails from `start`, brute force.
fn all_trails(raw: &RawSub, start: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut stack = vec![vec![start]];
    while let Some(trail) = stack.pop() {
        out.push(trail.clone());
        let tip = *trail.last().unwrap();
        for &(a, b) in &raw.influence {
            if a == tip && !trail.contains(&b) {
                let mut next = trail.clone();
                next.push(b);
                stack.push(next);
            }
        }
    }
    out
}

type GroupSig = (Vec<u32>, u32, Vec<u32>, bool);

/// Brute-force group enumeration for one root: every pair (trail ending
/// at x + trading arc x->c, trail ending at c), plus circles.
fn brute_force_root(raw: &RawSub, root: u32) -> BTreeSet<GroupSig> {
    let trails = all_trails(raw, root);
    let mut out = BTreeSet::new();
    let mut circles: BTreeSet<Vec<u32>> = BTreeSet::new();
    for t1 in &trails {
        let x = *t1.last().unwrap();
        for &(a, c) in &raw.trading {
            if a != x {
                continue;
            }
            if let Some(pos) = t1.iter().position(|&v| v == c) {
                // Circle: dedup by circle nodes.
                let circle = t1[pos..].to_vec();
                if circles.insert(circle.clone()) {
                    out.insert((circle, c, vec![c], true));
                }
                continue;
            }
            for t2 in &trails {
                if *t2.last().unwrap() == c {
                    out.insert((t1.clone(), c, t2.clone(), false));
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matcher_equals_brute_force_per_root(raw in arb_sub()) {
        let sub = build(&raw);
        let mut tree = PatternsTree::new();
        for root in sub.roots().collect::<Vec<_>>() {
            prop_assert!(tree.build(&sub, root, usize::MAX));
            let mut found: BTreeSet<GroupSig> = BTreeSet::new();
            match_root(&mut tree, |g| {
                found.insert((g.prefix.to_vec(), g.target, g.plain.to_vec(), g.circle));
            });
            let expected = brute_force_root(&raw, root);
            prop_assert_eq!(&found, &expected, "root {}", root);
        }
    }

    #[test]
    fn tree_enumerates_exactly_the_dag_trails(raw in arb_sub()) {
        let sub = build(&raw);
        let mut tree = PatternsTree::new();
        for root in sub.roots().collect::<Vec<_>>() {
            prop_assert!(tree.build(&sub, root, usize::MAX));
            let mut from_tree: Vec<Vec<u32>> = (0..tree.node_count() as u32)
                .map(|t| {
                    let mut trail = Vec::new();
                    tree.trail_into(t, &mut trail);
                    trail
                })
                .collect();
            let mut brute = all_trails(&raw, root);
            from_tree.sort();
            brute.sort();
            prop_assert_eq!(from_tree, brute);
        }
    }

    #[test]
    fn b_leaves_count_trading_continuations(raw in arb_sub()) {
        // Each trail ending at x contributes one type-(b) leaf per trading
        // arc out of x.
        let sub = build(&raw);
        let mut tree = PatternsTree::new();
        for root in sub.roots().collect::<Vec<_>>() {
            prop_assert!(tree.build(&sub, root, usize::MAX));
            let expected: usize = all_trails(&raw, root)
                .iter()
                .map(|t| {
                    let tip = *t.last().unwrap();
                    raw.trading.iter().filter(|&&(a, _)| a == tip).count()
                })
                .sum();
            prop_assert_eq!(tree.b_leaves().len(), expected);
        }
    }
}
