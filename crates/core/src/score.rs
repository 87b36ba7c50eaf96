//! Weighted group scoring — the paper's future-work extension ("the
//! weight computation methods of edges during a build-in phase of TPIIN in
//! order to help identify the tax evaders").
//!
//! Fusion stores a weight on every arc: `1.0` for positional influence,
//! the share fraction for investment arcs, and the trade volume for
//! trading arcs.  A group's *chain strength* is the product of the
//! influence-arc weights along both trails — the tightness of the control
//! chain binding the two transaction parties — and its score multiplies
//! that by the trade volume, so investigators can rank groups by how much
//! value flows through how tight a chain.

use crate::table::GroupRef;
use tpiin_fusion::{ArcColor, Tpiin};
use tpiin_graph::NodeId;

/// Ranking information for one suspicious group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupScore {
    /// Product of influence-arc weights along both trails, in `(0, 1]`
    /// for share-weighted chains.
    pub chain_strength: f64,
    /// Weight of the suspicious trading arc (trade volume).
    pub trade_volume: f64,
    /// `chain_strength * trade_volume` — the ranking key.
    pub score: f64,
}

pub(crate) fn arc_weight(tpiin: &Tpiin, s: NodeId, t: NodeId, color: ArcColor) -> Option<f64> {
    tpiin
        .find_arc(s, t, color)
        .map(|id| tpiin.graph.edge(id).weight)
}

/// Scores `group` against the TPIIN it was mined from.
///
/// # Panics
/// Panics if the group's trails reference arcs that do not exist in
/// `tpiin` (i.e. the group came from a different network).
pub fn score_group(tpiin: &Tpiin, group: GroupRef<'_>) -> GroupScore {
    let _span = tpiin_obs::Span::at("detect/score");
    let mut chain_strength = 1.0;
    for trail in [group.trail_with_trade, group.trail_plain] {
        for pair in trail.windows(2) {
            chain_strength *= arc_weight(tpiin, pair[0], pair[1], ArcColor::Influence)
                .expect("group trail arc missing from TPIIN");
        }
    }
    let trade_volume = arc_weight(
        tpiin,
        group.trading_arc.0,
        group.trading_arc.1,
        ArcColor::Trading,
    )
    .or_else(|| {
        // Intra-syndicate circles reference arcs the contraction
        // dropped; fall back to the recorded intra-syndicate volume.
        tpiin
            .intra_syndicate_trades
            .iter()
            .find(|t| {
                tpiin.company_node[t.seller.index()] == group.trading_arc.0
                    && tpiin.company_node[t.buyer.index()] == group.trading_arc.1
            })
            .map(|t| t.volume)
    })
    .expect("group trading arc missing from TPIIN");
    GroupScore {
        chain_strength,
        trade_volume,
        score: chain_strength * trade_volume,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::detect;
    use tpiin_model::{
        InfluenceKind, InfluenceRecord, InvestmentRecord, Role, RoleSet, SourceRegistry,
        TradingRecord,
    };

    fn registry(share: f64, volume: f64) -> SourceRegistry {
        let mut r = SourceRegistry::new();
        let l = r.add_person("L", RoleSet::of(&[Role::Ceo]));
        let c1 = r.add_company("C1");
        let c2 = r.add_company("C2");
        let c3 = r.add_company("C3");
        for c in [c1, c2] {
            r.add_influence(InfluenceRecord {
                person: l,
                company: c,
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            });
        }
        let l3 = r.add_person("L3", RoleSet::of(&[Role::Ceo]));
        r.add_influence(InfluenceRecord {
            person: l3,
            company: c3,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
        r.add_investment(InvestmentRecord {
            investor: c1,
            investee: c3,
            share,
        });
        r.add_trading(TradingRecord {
            seller: c3,
            buyer: c2,
            volume,
        });
        r
    }

    #[test]
    fn chain_strength_multiplies_shares_along_both_trails() {
        let (tpiin, _) = tpiin_fusion::fuse(&registry(0.6, 100.0)).unwrap();
        let result = detect(&tpiin);
        assert_eq!(result.group_count(), 1);
        let s = score_group(&tpiin, result.groups.row(0));
        // Trails: L -> C1 -> C3 (1.0 * 0.6) and L -> C2 (1.0).
        assert!((s.chain_strength - 0.6).abs() < 1e-12);
        assert!((s.trade_volume - 100.0).abs() < 1e-12);
        assert!((s.score - 60.0).abs() < 1e-12);
    }

    #[test]
    fn top_scored_orders_descending() {
        // Two groups from two trades of different volume.
        let mut r = registry(0.6, 100.0);
        r.add_trading(tpiin_model::TradingRecord {
            seller: tpiin_model::CompanyId(2),
            buyer: tpiin_model::CompanyId(0),
            volume: 900.0,
        });
        let (tpiin, _) = tpiin_fusion::fuse(&r).unwrap();
        let result = detect(&tpiin);
        assert!(result.group_count() >= 2);
        let top = result.top_scored(&tpiin, 10);
        for pair in top.windows(2) {
            assert!(pair[0].0.score >= pair[1].0.score);
        }
        let top1 = result.top_scored(&tpiin, 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].0.score, top[0].0.score);
    }

    #[test]
    fn higher_volume_scores_higher() {
        let (t1, _) = tpiin_fusion::fuse(&registry(0.6, 100.0)).unwrap();
        let (t2, _) = tpiin_fusion::fuse(&registry(0.6, 500.0)).unwrap();
        let (r1, r2) = (detect(&t1), detect(&t2));
        let (g1, g2) = (r1.groups.row(0), r2.groups.row(0));
        assert!(score_group(&t2, g2).score > score_group(&t1, g1).score);
    }
}
