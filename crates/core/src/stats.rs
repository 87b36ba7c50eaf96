//! Aggregate statistics over a detection result — the "integration
//! analysis" of the Section 6 monitoring system: which taxpayers recur
//! across suspicious groups.

use crate::result::DetectionResult;
use std::collections::BTreeMap;
use tpiin_fusion::Tpiin;
use tpiin_graph::NodeId;

/// How often one TPIIN node participates in suspicious activity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Involvement {
    /// Groups this node is a member of.
    pub groups: usize,
    /// Groups where the node is the common antecedent (the controlling
    /// party).
    pub as_antecedent: usize,
    /// Suspicious trading arcs where the node sells.
    pub as_seller: usize,
    /// Suspicious trading arcs where the node buys.
    pub as_buyer: usize,
}

/// Per-node involvement over all collected groups, keyed by TPIIN node.
///
/// Requires a result collected with `collect_groups: true`; an empty
/// result yields an empty map.
fn node_involvement(result: &DetectionResult) -> BTreeMap<NodeId, Involvement> {
    let mut map: BTreeMap<NodeId, Involvement> = BTreeMap::new();
    for group in &result.groups {
        for member in group.members() {
            map.entry(member).or_default().groups += 1;
        }
        map.entry(group.antecedent).or_default().as_antecedent += 1;
    }
    for &(seller, buyer) in &result.suspicious_trading_arcs {
        map.entry(seller).or_default().as_seller += 1;
        map.entry(buyer).or_default().as_buyer += 1;
    }
    map
}

/// The most-involved nodes, ranked by group membership (ties broken by
/// node id for determinism), labelled through the TPIIN.
pub fn top_involved<'t>(
    result: &DetectionResult,
    tpiin: &'t Tpiin,
    limit: usize,
) -> Vec<(&'t str, Involvement)> {
    let mut entries: Vec<(NodeId, Involvement)> = node_involvement(result).into_iter().collect();
    entries.sort_by(|a, b| b.1.groups.cmp(&a.1.groups).then(a.0.cmp(&b.0)));
    entries
        .into_iter()
        .take(limit)
        .map(|(node, inv)| (tpiin.label(node), inv))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::detect;

    fn fig7() -> (Tpiin, DetectionResult) {
        let (tpiin, _) = tpiin_fusion::fuse(&tpiin_datagen::fig7_registry()).unwrap();
        let result = detect(&tpiin);
        (tpiin, result)
    }

    #[test]
    fn involvement_counts_the_worked_example() {
        let (tpiin, result) = fig7();
        let map = node_involvement(&result);
        let by_label = |label: &str| {
            let node = tpiin
                .graph
                .nodes()
                .find(|(_, n)| n.label() == label)
                .map(|(id, _)| id)
                .unwrap();
            map.get(&node).cloned().unwrap_or_default()
        };
        // C5 appears in two of the three groups (L1-group and B1-group),
        // sells in one suspicious arc (C5->C6) and buys in one (C3->C5).
        let c5 = by_label("C5");
        assert_eq!(c5.groups, 2);
        assert_eq!(c5.as_seller, 1);
        assert_eq!(c5.as_buyer, 1);
        // The L1 syndicate leads exactly one group.
        let l1 = by_label("L6+LB");
        assert_eq!(l1.as_antecedent, 1);
        assert_eq!(l1.groups, 1);
        // C4 is in no group at all.
        assert_eq!(by_label("C4").groups, 0);
    }

    #[test]
    fn top_involved_ranks_by_membership() {
        let (tpiin, result) = fig7();
        let top = top_involved(&result, &tpiin, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, "C5", "C5 is in two groups: {top:?}");
        assert!(top.iter().all(|(_, inv)| inv.groups >= 1));
    }
}
