//! Detection result types: suspicious groups, statistics, explanations.

use crate::table::{GroupRef, GroupTable, Trail};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use tpiin_fusion::Tpiin;
use tpiin_graph::NodeId;

/// How a suspicious group was formed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GroupKind {
    /// Two matched component patterns with the same antecedent (the
    /// regular case of Section 4.3).
    Matched,
    /// A circle inside one `InOT-FTAOP` walk (the special case: the
    /// trading arc re-enters the walk's own prefix).
    Circle,
}

/// A suspicious tax-evasion group (Definition 2): two simple directed
/// trails with the same antecedent and end node hiding exactly one
/// interest-affiliated transaction.
///
/// This is the owned form, for APIs whose value outlives a result —
/// [`crate::groups_behind_arc`], the delta engine's new groups, the
/// baseline oracle.  A [`DetectionResult`] stores its groups as rows of
/// a [`GroupTable`] and hands out borrowed [`GroupRef`]s with the same
/// fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuspiciousGroup {
    /// Which subTPIIN the group was mined from.
    pub subtpiin: usize,
    /// Formation kind.
    pub kind: GroupKind,
    /// The common antecedent node `A1` (for circles: the node the trading
    /// arc re-enters).
    pub antecedent: NodeId,
    /// The end node `Cj` — the target of the interest-affiliated
    /// transaction.
    pub end: NodeId,
    /// The suspicious trading arc `(Am, Cj)`.
    pub trading_arc: (NodeId, NodeId),
    /// Influence prefix `A1 … Am` of the trail that carries the trading
    /// arc (`Cj` excluded; the arc `Am -> Cj` completes the trail).
    pub trail_with_trade: Vec<NodeId>,
    /// The pure influence trail `A1 … Cj` (inclusive).  For circles this
    /// is the trivial single-node trail `[A1]`.
    pub trail_plain: Vec<NodeId>,
    /// Whether the group is *simple* (Definition 3): the two trails share
    /// no node besides antecedent and end.
    pub simple: bool,
}

impl SuspiciousGroup {
    /// This group borrowed as a [`GroupRef`], the form every reader of
    /// a [`GroupTable`] takes.
    pub fn view(&self) -> GroupRef<'_> {
        GroupRef {
            subtpiin: self.subtpiin,
            kind: self.kind,
            antecedent: self.antecedent,
            end: self.end,
            trading_arc: self.trading_arc,
            trail_with_trade: Trail::new(&self.trail_with_trade),
            trail_plain: Trail::new(&self.trail_plain),
            simple: self.simple,
        }
    }

    /// All member nodes of the group, deduplicated and ordered.
    pub fn members(&self) -> Vec<NodeId> {
        self.view().members()
    }

    /// A canonical identity used for deduplication and for comparing the
    /// detector against the baseline: the trading arc plus the two trails.
    /// Trails are in global TPIIN node ids, so the key is unique across
    /// subTPIINs without referencing the segmentation.
    pub fn key(&self) -> ((NodeId, NodeId), Vec<NodeId>, Vec<NodeId>) {
        (
            self.trading_arc,
            self.trail_with_trade.clone(),
            self.trail_plain.clone(),
        )
    }

    /// Orders two groups exactly as their [`SuspiciousGroup::key`]s
    /// compare — trading arc, then the trail carrying it, then the plain
    /// trail — but by reference: a sort calls its comparator
    /// `O(n log n)` times, and `key()` clones both trails every time.
    pub fn cmp_key(&self, other: &Self) -> Ordering {
        self.view().cmp_key(&other.view())
    }

    /// Human-readable proof chain (see [`GroupRef::explain`]).
    pub fn explain(&self, tpiin: &Tpiin) -> String {
        self.view().explain(tpiin)
    }
}

/// Per-subTPIIN mining statistics (Algorithm 1's outer loop).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubTpiinStats {
    /// SubTPIIN index.
    pub index: usize,
    /// Node count.
    pub nodes: usize,
    /// Influence arcs.
    pub influence_arcs: usize,
    /// Trading arcs inside the subTPIIN.
    pub trading_arcs: usize,
    /// Total patterns-tree nodes built across roots.
    pub tree_nodes: usize,
    /// Component patterns generated (type (a) + type (b)).
    pub patterns: usize,
    /// Suspicious groups found here.
    pub groups: usize,
}

/// Aggregated output of a detection run.
///
/// Cloning it copies the group table's two vectors and the arc set — no
/// per-group allocation — which is what lets the delta engine and the
/// serve daemon share one result behind an `Arc` and copy it on write.
#[derive(Clone, Debug, Default)]
pub struct DetectionResult {
    /// The groups, if the detector was configured to collect them
    /// (ordered deterministically; one [`GroupTable`] row each, read as
    /// [`GroupRef`]s); counts below are always filled.
    pub groups: GroupTable,
    /// Number of complex suspicious groups (Table 1, column 3).
    pub complex_group_count: usize,
    /// Number of simple suspicious groups (Table 1, column 4).
    pub simple_group_count: usize,
    /// Distinct suspicious trading arcs (Table 1, column 6).
    pub suspicious_trading_arcs: BTreeSet<(NodeId, NodeId)>,
    /// All trading arcs in the input TPIIN (Table 1, column 7).
    pub total_trading_arcs: usize,
    /// Trades inside contracted investment SCCs — suspicious by
    /// construction, counted separately from the arc columns.
    pub intra_syndicate_trades: usize,
    /// Per-subTPIIN statistics.
    pub per_subtpiin: Vec<SubTpiinStats>,
    /// Whether any patterns tree hit the configured size bound (results
    /// would then be incomplete; the default bound is effectively
    /// unreachable for realistic networks).
    pub overflowed: bool,
}

impl DetectionResult {
    /// Total groups (complex + simple).
    pub fn group_count(&self) -> usize {
        self.complex_group_count + self.simple_group_count
    }

    /// A copy with room in its group table for `rows` more groups of
    /// `nodes` more trail nodes, so that growing it by as much moves
    /// nothing.
    pub fn clone_with_room(&self, rows: usize, nodes: usize) -> DetectionResult {
        DetectionResult {
            groups: self.groups.clone_with_room(rows, nodes),
            suspicious_trading_arcs: self.suspicious_trading_arcs.clone(),
            per_subtpiin: self.per_subtpiin.clone(),
            ..*self
        }
    }

    /// Groups involving `node` (as member, antecedent or trading party).
    /// Requires a result collected with `collect_groups: true`.
    #[inline]
    pub fn groups_involving(&self, node: NodeId) -> impl Iterator<Item = GroupRef<'_>> {
        self.groups.iter().filter(move |g| g.involves(node))
    }

    /// The `k` highest-scoring groups under the weighted extension,
    /// descending.  Ties break deterministically by group key.
    pub fn top_scored<'a>(
        &'a self,
        tpiin: &Tpiin,
        k: usize,
    ) -> Vec<(crate::score::GroupScore, GroupRef<'a>)> {
        let mut scored: Vec<_> = self
            .groups
            .iter()
            .map(|g| (crate::score::score_group(tpiin, g), g))
            .collect();
        scored.sort_by(|a, b| {
            b.0.score
                .total_cmp(&a.0.score)
                .then_with(|| a.1.cmp_key(&b.1))
        });
        scored.truncate(k);
        scored
    }

    /// A compact multi-line summary: the headline counters plus one line
    /// per subTPIIN that produced groups (Algorithm 1's outer loop view).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{} suspicious groups ({} complex, {} simple) behind {} of {} trading arcs ({:.2}%)",
            self.group_count(),
            self.complex_group_count,
            self.simple_group_count,
            self.suspicious_trading_arcs.len(),
            self.total_trading_arcs,
            self.suspicious_percentage(),
        );
        if self.intra_syndicate_trades > 0 {
            let _ = write!(
                out,
                "; {} intra-syndicate trades",
                self.intra_syndicate_trades
            );
        }
        if self.overflowed {
            out.push_str("; WARNING: pattern tree overflow, results incomplete");
        }
        for stats in self.per_subtpiin.iter().filter(|s| s.groups > 0) {
            let _ = write!(
                out,
                "\n  subTPIIN {}: {} nodes, {} trading arcs, {} patterns -> {} groups",
                stats.index, stats.nodes, stats.trading_arcs, stats.patterns, stats.groups
            );
        }
        out
    }

    /// Percentage of trading arcs flagged suspicious — the last column of
    /// Table 1.
    pub fn suspicious_percentage(&self) -> f64 {
        if self.total_trading_arcs == 0 {
            return 0.0;
        }
        100.0 * self.suspicious_trading_arcs.len() as f64 / self.total_trading_arcs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> SuspiciousGroup {
        SuspiciousGroup {
            subtpiin: 0,
            kind: GroupKind::Matched,
            antecedent: NodeId::from_index(0),
            end: NodeId::from_index(3),
            trading_arc: (NodeId::from_index(2), NodeId::from_index(3)),
            trail_with_trade: vec![
                NodeId::from_index(0),
                NodeId::from_index(1),
                NodeId::from_index(2),
            ],
            trail_plain: vec![NodeId::from_index(0), NodeId::from_index(3)],
            simple: true,
        }
    }

    #[test]
    fn members_union_both_trails_and_end() {
        let g = group();
        let m: Vec<usize> = g.members().into_iter().map(NodeId::index).collect();
        assert_eq!(m, vec![0, 1, 2, 3]);
    }

    #[test]
    fn key_identifies_the_trail_pair() {
        let g = group();
        let mut g2 = group();
        assert_eq!(g.key(), g2.key());
        g2.trail_plain.push(NodeId::from_index(9));
        assert_ne!(g.key(), g2.key());
    }

    #[test]
    fn cmp_key_orders_like_the_owned_key() {
        let n = NodeId::from_index;
        let mut variants = vec![group()];
        for edit in 0..5 {
            let mut g = group();
            match edit {
                0 => g.trading_arc = (n(1), n(3)),
                1 => g.trading_arc = (n(2), n(4)),
                2 => g.trail_with_trade = vec![n(0), n(2)],
                3 => g.trail_with_trade.push(n(7)),
                _ => g.trail_plain = vec![n(0), n(1), n(3)],
            }
            variants.push(g);
        }
        // Fields outside the key never break a tie.
        let mut same_key = group();
        same_key.subtpiin = 9;
        same_key.simple = false;
        variants.push(same_key);
        for a in &variants {
            for b in &variants {
                assert_eq!(a.cmp_key(b), a.key().cmp(&b.key()), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn summary_includes_counts_and_active_subtpiins() {
        let mut r = DetectionResult {
            complex_group_count: 2,
            simple_group_count: 1,
            total_trading_arcs: 10,
            ..Default::default()
        };
        r.suspicious_trading_arcs
            .insert((NodeId::from_index(0), NodeId::from_index(1)));
        r.per_subtpiin.push(SubTpiinStats {
            index: 3,
            nodes: 7,
            trading_arcs: 2,
            patterns: 5,
            groups: 3,
            ..Default::default()
        });
        r.per_subtpiin.push(SubTpiinStats::default()); // silent: no groups
        let text = r.summary();
        assert!(
            text.contains("3 suspicious groups (2 complex, 1 simple)"),
            "{text}"
        );
        assert!(text.contains("subTPIIN 3:"), "{text}");
        assert_eq!(text.lines().count(), 2, "{text}");
    }

    #[test]
    fn summary_flags_overflow() {
        let r = DetectionResult {
            overflowed: true,
            ..Default::default()
        };
        assert!(r.summary().contains("overflow"));
    }

    #[test]
    fn groups_involving_filters_by_any_role() {
        let g = group();
        let result = DetectionResult {
            groups: GroupTable::from(std::slice::from_ref(&g)),
            complex_group_count: 0,
            simple_group_count: 1,
            ..Default::default()
        };
        for i in 0..4 {
            assert_eq!(
                result.groups_involving(NodeId::from_index(i)).count(),
                1,
                "node {i}"
            );
        }
        assert_eq!(result.groups_involving(NodeId::from_index(9)).count(), 0);
    }

    #[test]
    fn percentage_handles_empty_input() {
        let r = DetectionResult::default();
        assert_eq!(r.suspicious_percentage(), 0.0);
    }

    #[test]
    fn percentage_computes() {
        let mut r = DetectionResult {
            total_trading_arcs: 200,
            ..Default::default()
        };
        r.suspicious_trading_arcs
            .insert((NodeId::from_index(0), NodeId::from_index(1)));
        r.suspicious_trading_arcs
            .insert((NodeId::from_index(1), NodeId::from_index(2)));
        assert!((r.suspicious_percentage() - 1.0).abs() < 1e-12);
    }
}
