//! The global traversing baseline of Section 5.1.
//!
//! "For gaining the baseline results, we implemented a global traversing
//! algorithm that finds any component patterns behind a trading arc.  The
//! idea of this global traversing algorithm is to find all trails between
//! any two different nodes and then check whether any two of these trails
//! form a suspicious group."
//!
//! This implementation deliberately shares **no** machinery with the
//! proposed detector: it neither segments the TPIIN nor builds patterns
//! trees.  It enumerates every influence trail from every node of the
//! whole network and pairs trails exhaustively, which makes it a slow but
//! independent oracle — the Table 1 accuracy columns come from comparing
//! its output with the detector's.

use crate::result::{GroupKind, SuspiciousGroup};
use std::collections::{BTreeSet, HashMap};
use tpiin_fusion::{ArcColor, Tpiin};
use tpiin_graph::NodeId;

/// Output of the baseline run.
#[derive(Clone, Debug, Default)]
pub struct BaselineResult {
    /// Groups anchored at influence-indegree-zero antecedents plus all
    /// circle groups — the set comparable with [`crate::detect`].
    pub groups: Vec<SuspiciousGroup>,
    /// Number of suspicious groups over *any* common start node (the
    /// unrestricted Definition 2 count; every such group is contained in
    /// an anchored one, which is the completeness claim of Appendix A).
    pub all_start_group_count: usize,
    /// Distinct suspicious trading arcs.
    pub suspicious_trading_arcs: BTreeSet<(NodeId, NodeId)>,
    /// Trail enumeration hit `max_trails`; results incomplete.
    pub overflowed: bool,
}

fn interiors_disjoint(prefix: &[u32], plain: &[u32]) -> bool {
    let p_int = &prefix[1..];
    let q_int = &plain[1..plain.len().saturating_sub(1)];
    p_int.iter().all(|v| !q_int.contains(v))
}

/// Enumerates all simple influence trails starting at `s`, grouped by
/// their endpoint (the trivial trail `[s]` included).  Returns `None` if
/// more than `max_trails` trails exist.
fn trails_from(
    influence_out: &[Vec<u32>],
    s: u32,
    max_trails: usize,
) -> Option<HashMap<u32, Vec<Vec<u32>>>> {
    let mut by_end: HashMap<u32, Vec<Vec<u32>>> = HashMap::new();
    let mut count = 0usize;
    // Explicit DFS keeping the current path; frames are (node, next child).
    let mut path: Vec<u32> = vec![s];
    let mut frames: Vec<usize> = vec![0];
    loop {
        let v = *path.last().expect("path never empty");
        let cursor = *frames.last().expect("frames mirror path");
        if cursor == 0 {
            // First visit of this trail: record it.
            count += 1;
            if count > max_trails {
                return None;
            }
            by_end.entry(v).or_default().push(path.clone());
        }
        match influence_out[v as usize].get(cursor) {
            Some(&w) => {
                *frames.last_mut().unwrap() += 1;
                // The antecedent network is a DAG, so `w` cannot already
                // be on the path; debug-checked.
                debug_assert!(!path.contains(&w), "trail revisited a node: not a DAG");
                path.push(w);
                frames.push(0);
            }
            None => {
                path.pop();
                frames.pop();
                if frames.is_empty() {
                    break;
                }
            }
        }
    }
    Some(by_end)
}

/// Runs the global traversal baseline over `tpiin`.
///
/// `max_trails` caps the number of trails enumerated from any single
/// start node (the baseline's cost grows combinatorially; the flag keeps
/// accuracy experiments bounded).
pub fn detect_baseline(tpiin: &Tpiin, max_trails: usize) -> BaselineResult {
    let n = tpiin.graph.node_count();
    let mut influence_out: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut influence_in_degree = vec![0u32; n];
    let mut trading: Vec<(u32, u32)> = Vec::new();
    for e in tpiin.graph.edges() {
        let (s, t) = (e.source.index() as u32, e.target.index() as u32);
        match e.weight.color {
            ArcColor::Influence => {
                influence_out[s as usize].push(t);
                influence_in_degree[t as usize] += 1;
            }
            ArcColor::Trading => trading.push((s, t)),
        }
    }
    // Trading arcs grouped by source for the pairing pass.
    let mut trading_by_source: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(x, c) in &trading {
        trading_by_source[x as usize].push(c);
    }

    let mut result = BaselineResult::default();
    for t in &tpiin.intra_syndicate_trades {
        result.suspicious_trading_arcs.insert((
            tpiin.company_node[t.seller.index()],
            tpiin.company_node[t.buyer.index()],
        ));
    }
    let g = |v: u32| NodeId::from_index(v as usize);

    for s in 0..n as u32 {
        let Some(by_end) = trails_from(&influence_out, s, max_trails) else {
            result.overflowed = true;
            continue;
        };
        let anchored = influence_in_degree[s as usize] == 0;
        for (&x, t1s) in &by_end {
            for &c in &trading_by_source[x as usize] {
                if c == s {
                    // Circles: each trail s -> x closed by the trading arc
                    // x -> s is one circle group, regardless of anchoring.
                    for t1 in t1s {
                        if t1.len() < 2 {
                            // The trivial trail [s] with a self-arc cannot
                            // occur (self trading arcs are rejected), and a
                            // length-1 "circle" needs the arc x -> s with
                            // x == s.
                            continue;
                        }
                        result.suspicious_trading_arcs.insert((g(x), g(c)));
                        result.all_start_group_count += 1;
                        result.groups.push(SuspiciousGroup {
                            subtpiin: 0,
                            kind: GroupKind::Circle,
                            antecedent: g(s),
                            end: g(s),
                            trading_arc: (g(x), g(c)),
                            trail_with_trade: t1.iter().map(|&v| g(v)).collect(),
                            trail_plain: vec![g(s)],
                            simple: true,
                        });
                    }
                    continue;
                }
                let Some(t2s) = by_end.get(&c) else { continue };
                for t1 in t1s {
                    if t1.contains(&c) {
                        // pi1 would visit the end node twice: not a simple
                        // trail.
                        continue;
                    }
                    for t2 in t2s {
                        result.all_start_group_count += 1;
                        if !anchored {
                            continue;
                        }
                        result.suspicious_trading_arcs.insert((g(x), g(c)));
                        result.groups.push(SuspiciousGroup {
                            subtpiin: 0,
                            kind: GroupKind::Matched,
                            antecedent: g(s),
                            end: g(c),
                            trading_arc: (g(x), g(c)),
                            trail_with_trade: t1.iter().map(|&v| g(v)).collect(),
                            trail_plain: t2.iter().map(|&v| g(v)).collect(),
                            simple: interiors_disjoint(t1, t2),
                        });
                    }
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::detect;
    use crate::table::GroupRef;
    use tpiin_model::{
        InfluenceKind, InfluenceRecord, InvestmentRecord, Role, RoleSet, SourceRegistry,
        TradingRecord,
    };

    fn small_registry() -> SourceRegistry {
        let mut r = SourceRegistry::new();
        let l1 = r.add_person("L1", RoleSet::of(&[Role::Ceo]));
        let l2 = r.add_person("L2", RoleSet::of(&[Role::Ceo]));
        let c1 = r.add_company("C1");
        let c2 = r.add_company("C2");
        let c3 = r.add_company("C3");
        for (p, c) in [(l1, c1), (l1, c2), (l2, c3)] {
            r.add_influence(InfluenceRecord {
                person: p,
                company: c,
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            });
        }
        r.add_investment(InvestmentRecord {
            investor: c1,
            investee: c3,
            share: 0.7,
        });
        r.add_trading(TradingRecord {
            seller: c2,
            buyer: c1,
            volume: 1.0,
        });
        r.add_trading(TradingRecord {
            seller: c3,
            buyer: c2,
            volume: 1.0,
        });
        r
    }

    type GroupKey = ((NodeId, NodeId), Vec<NodeId>, Vec<NodeId>);

    fn sorted_keys<'a>(groups: impl IntoIterator<Item = GroupRef<'a>>) -> Vec<GroupKey> {
        let mut keys: Vec<_> = groups.into_iter().map(|g| g.key()).collect();
        keys.sort();
        keys
    }

    #[test]
    fn baseline_agrees_with_detector_on_small_network() {
        let (tpiin, _) = tpiin_fusion::fuse(&small_registry()).unwrap();
        let proposed = detect(&tpiin);
        let base = detect_baseline(&tpiin, 1_000_000);
        assert!(!base.overflowed);
        let base_groups = base.groups.iter().map(SuspiciousGroup::view);
        assert_eq!(sorted_keys(base_groups), sorted_keys(&proposed.groups));
        assert_eq!(
            base.suspicious_trading_arcs,
            proposed.suspicious_trading_arcs
        );
    }

    #[test]
    fn all_start_count_is_at_least_anchored_count() {
        let (tpiin, _) = tpiin_fusion::fuse(&small_registry()).unwrap();
        let base = detect_baseline(&tpiin, 1_000_000);
        assert!(base.all_start_group_count >= base.groups.len());
    }

    #[test]
    fn circle_found_by_both() {
        // L -> C1 -> C2 (investment), trading C2 -> C1: a circle.
        let mut r = SourceRegistry::new();
        let l = r.add_person("L", RoleSet::of(&[Role::Ceo]));
        let c1 = r.add_company("C1");
        let c2 = r.add_company("C2");
        for c in [c1, c2] {
            r.add_influence(InfluenceRecord {
                person: l,
                company: c,
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            });
        }
        r.add_investment(InvestmentRecord {
            investor: c1,
            investee: c2,
            share: 0.9,
        });
        r.add_trading(TradingRecord {
            seller: c2,
            buyer: c1,
            volume: 1.0,
        });
        let (tpiin, _) = tpiin_fusion::fuse(&r).unwrap();
        let proposed = detect(&tpiin);
        let base = detect_baseline(&tpiin, 1_000_000);
        let base_groups = base.groups.iter().map(SuspiciousGroup::view);
        assert_eq!(sorted_keys(base_groups), sorted_keys(&proposed.groups));
        let circles = base
            .groups
            .iter()
            .filter(|g| g.kind == GroupKind::Circle)
            .count();
        assert_eq!(circles, 1);
        // L -> C2 + (C2 -(trade)-> C1 joined with L -> C1) is also a
        // matched group.
        assert!(base.groups.len() >= 2);
    }

    #[test]
    fn overflow_flag_trips_on_tiny_budget() {
        let (tpiin, _) = tpiin_fusion::fuse(&small_registry()).unwrap();
        let base = detect_baseline(&tpiin, 1);
        assert!(base.overflowed);
    }
}
