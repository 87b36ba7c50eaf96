//! Group provenance — the complete evidence chain behind one mined
//! suspicious group.
//!
//! The paper pitches pattern-based mining as *explainable*: an
//! investigator handed a group must be able to trace every claim back to
//! the source records.  A [`Provenance`] record makes that chain
//! explicit.  It is a pure function of `(tpiin, group)`, assembled when
//! someone asks for one group's chain (a handful of adjacency probes, not
//! a re-run) and never stored beside the detection:
//!
//! * **pattern rule** — whether the group came from Rule 1 (two matched
//!   component patterns sharing an antecedent, the regular case of
//!   Section 4.3) or Rule 2 (the circle special case whose trading arc
//!   re-enters its own influence prefix);
//! * **arc lineage** — every influence arc of both trails plus the
//!   boundary trading arc, each resolved to its winning source-record
//!   sequence via [`Tpiin::arc_sources`] (fusion's first-wins dedup);
//! * **contraction lineage** — which source persons/companies each
//!   member node merges (kinship union–find, investment SCC
//!   contraction);
//! * **score breakdown** — the per-arc terms behind
//!   [`crate::score_group`], so the ranking is auditable term by term.

use crate::result::GroupKind;
use crate::score::arc_weight;
use crate::table::GroupRef;
use tpiin_fusion::{ArcColor, NodeColor, Tpiin, TpiinNode};
use tpiin_graph::NodeId;

/// Which matching rule of Section 4.3 produced a group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchedRule {
    /// Rule 1: two component patterns with the same antecedent and end
    /// node, exactly one of them carrying the trading arc (the regular
    /// `InOT`/`InOT-FTAOP` match of Algorithm 2).
    Rule1TrailPair,
    /// Rule 2: a circle — the trading arc of an `InOT-FTAOP` walk
    /// re-enters the walk's own influence prefix (the special case
    /// closing Section 4.3).
    Rule2Circle,
}

impl MatchedRule {
    /// Short human-readable description of the rule.
    pub fn describe(self) -> &'static str {
        match self {
            MatchedRule::Rule1TrailPair => {
                "Rule 1: matched component-pattern pair with common antecedent"
            }
            MatchedRule::Rule2Circle => "Rule 2: trading arc re-enters its own influence prefix",
        }
    }
}

/// One TPIIN arc referenced by a group, resolved back to the source feed.
#[derive(Clone, Debug, PartialEq)]
pub struct ArcProvenance {
    /// Tail node of the arc.
    pub source: NodeId,
    /// Head node of the arc.
    pub target: NodeId,
    /// Display label of the tail node.
    pub source_label: String,
    /// Display label of the head node.
    pub target_label: String,
    /// Arc color (influence or trading).
    pub color: ArcColor,
    /// Arc weight (share / volume; `1.0` for positional influence).
    pub weight: f64,
    /// The winning source-record sequence from fusion's first-wins
    /// dedup: influence arcs index the combined influence+investment
    /// feed, trading arcs the trading feed.  `None` when no source was
    /// recorded (arcs streamed in without a source registry) or when the
    /// contraction dropped the physical arc (intra-syndicate trades
    /// referenced by circle groups).
    pub source_record: Option<u32>,
}

/// Contraction lineage of one group member node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberLineage {
    /// The TPIIN node.
    pub node: NodeId,
    /// Display label.
    pub label: String,
    /// Node color.
    pub color: NodeColor,
    /// Source person ids merged into the node (kinship contraction);
    /// empty for company nodes.
    pub person_members: Vec<u32>,
    /// Source company ids merged into the node (investment-SCC
    /// contraction); empty for person nodes.
    pub company_members: Vec<u32>,
}

impl MemberLineage {
    /// Whether the node merges more than one source entity.
    pub fn is_syndicate(&self) -> bool {
        self.person_members.len() + self.company_members.len() > 1
    }
}

/// Per-term breakdown of the weighted score, mirroring
/// [`crate::score_group`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScoreBreakdown {
    /// Influence-arc weights in trail order (trail-with-trade pairs
    /// first, then plain-trail pairs); their product is the chain
    /// strength.
    pub influence_weights: Vec<f64>,
    /// Product of `influence_weights`.
    pub chain_strength: f64,
    /// Volume of the suspicious trading arc.
    pub trade_volume: f64,
    /// `chain_strength * trade_volume` — the ranking key.
    pub score: f64,
}

/// The full provenance record of one suspicious group.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// Which matching rule produced the group.
    pub rule: MatchedRule,
    /// The influence arcs of both trails, in trail order
    /// (trail-with-trade first, then the plain trail).
    pub influence_arcs: Vec<ArcProvenance>,
    /// The boundary trading arc — the interest-affiliated transaction.
    pub trading_arc: ArcProvenance,
    /// Contraction lineage of every member node, ordered by node id.
    pub members: Vec<MemberLineage>,
    /// The auditable score terms.
    pub score: ScoreBreakdown,
}

impl Provenance {
    /// Assembles the provenance of `group` against the TPIIN it was
    /// mined from.  Deterministic: depends only on the group and the
    /// network, so every route to the same group (the detector,
    /// `mine_shard` per shard, the delta engine) yields the same record.
    ///
    /// # Panics
    /// Panics if the group's trails reference influence arcs absent from
    /// `tpiin` (the group came from a different network) — the same
    /// contract as [`crate::score_group`].
    pub fn assemble(tpiin: &Tpiin, group: GroupRef<'_>) -> Provenance {
        let rule = match group.kind {
            GroupKind::Matched => MatchedRule::Rule1TrailPair,
            GroupKind::Circle => MatchedRule::Rule2Circle,
        };

        let mut influence_arcs = Vec::new();
        let mut influence_weights = Vec::new();
        let mut chain_strength = 1.0;
        for trail in [group.trail_with_trade, group.trail_plain] {
            for pair in trail.windows(2) {
                let arc = resolve_arc(tpiin, pair[0], pair[1], ArcColor::Influence)
                    .expect("group trail arc missing from TPIIN");
                chain_strength *= arc.weight;
                influence_weights.push(arc.weight);
                influence_arcs.push(arc);
            }
        }

        let trading_arc = resolve_arc(
            tpiin,
            group.trading_arc.0,
            group.trading_arc.1,
            ArcColor::Trading,
        )
        .or_else(|| {
            // Intra-syndicate trades reference arcs the SCC contraction
            // dropped; recover the endpoints' shared syndicate node and
            // the recorded volume instead.
            tpiin
                .intra_syndicate_trades
                .iter()
                .find(|t| {
                    tpiin.company_node[t.seller.index()] == group.trading_arc.0
                        && tpiin.company_node[t.buyer.index()] == group.trading_arc.1
                })
                .map(|t| ArcProvenance {
                    source: group.trading_arc.0,
                    target: group.trading_arc.1,
                    source_label: tpiin.label(group.trading_arc.0).to_string(),
                    target_label: tpiin.label(group.trading_arc.1).to_string(),
                    color: ArcColor::Trading,
                    weight: t.volume,
                    source_record: None,
                })
        })
        .expect("group trading arc missing from TPIIN");

        let members = group
            .members()
            .into_iter()
            .map(|node| {
                let (person_members, company_members) = match tpiin.graph.node(node) {
                    TpiinNode::Person { members, .. } => {
                        (members.iter().map(|p| p.0).collect(), Vec::new())
                    }
                    TpiinNode::Company { members, .. } => {
                        (Vec::new(), members.iter().map(|c| c.0).collect())
                    }
                };
                MemberLineage {
                    node,
                    label: tpiin.label(node).to_string(),
                    color: tpiin.color(node),
                    person_members,
                    company_members,
                }
            })
            .collect();

        let trade_volume = trading_arc.weight;
        Provenance {
            rule,
            influence_arcs,
            trading_arc,
            members,
            score: ScoreBreakdown {
                influence_weights,
                chain_strength,
                trade_volume,
                score: chain_strength * trade_volume,
            },
        }
    }

    /// The distinct contributing source-record sequences, split by feed:
    /// `(influence_records, trading_records)`, each sorted ascending.
    /// Arcs with no recorded source are omitted.
    pub fn source_records(&self) -> (Vec<u32>, Vec<u32>) {
        let mut influence: Vec<u32> = self
            .influence_arcs
            .iter()
            .filter_map(|a| a.source_record)
            .collect();
        influence.sort_unstable();
        influence.dedup();
        let trading: Vec<u32> = self.trading_arc.source_record.into_iter().collect();
        (influence, trading)
    }

    /// Renders the provenance as the multi-line proof chain the `explain`
    /// CLI subcommand prints.
    pub fn render(&self, group: GroupRef<'_>, tpiin: &Tpiin) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}", group.explain(tpiin));
        let _ = writeln!(out, "  rule: {}", self.rule.describe());
        let _ = writeln!(out, "  arcs:");
        let fmt_record = |r: Option<u32>| match r {
            Some(seq) => format!("record #{seq}"),
            None => "no recorded source".to_string(),
        };
        for arc in &self.influence_arcs {
            let _ = writeln!(
                out,
                "    IN {} -> {}  weight {}  {} (influence feed)",
                arc.source_label,
                arc.target_label,
                arc.weight,
                fmt_record(arc.source_record)
            );
        }
        let _ = writeln!(
            out,
            "    TR {} -> {}  volume {}  {} (trading feed)",
            self.trading_arc.source_label,
            self.trading_arc.target_label,
            self.trading_arc.weight,
            fmt_record(self.trading_arc.source_record)
        );
        let _ = writeln!(out, "  members:");
        for m in &self.members {
            let ids = |v: &[u32]| {
                v.iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let lineage = match m.color {
                NodeColor::Person => format!("person ids [{}]", ids(&m.person_members)),
                NodeColor::Company => format!("company ids [{}]", ids(&m.company_members)),
            };
            let _ = writeln!(
                out,
                "    {} = {}{}",
                m.label,
                lineage,
                if m.is_syndicate() {
                    " (contracted syndicate)"
                } else {
                    ""
                }
            );
        }
        let weights = self
            .score
            .influence_weights
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(" * ");
        let _ = writeln!(
            out,
            "  score: chain {} = {}, volume {} -> {}",
            self.score.chain_strength,
            if weights.is_empty() {
                "1 (empty chain)".to_string()
            } else {
                weights
            },
            self.score.trade_volume,
            self.score.score
        );
        out
    }

    /// Checks that every node and arc this record references exists in
    /// `tpiin`; returns the first violation as a message.  Used by tests
    /// and the `explain` subcommand as a self-audit.
    pub fn audit(&self, tpiin: &Tpiin) -> Result<(), String> {
        let node_ok = |n: NodeId| n.index() < tpiin.node_count();
        for m in &self.members {
            if !node_ok(m.node) {
                return Err(format!("member node {} out of range", m.node));
            }
        }
        for arc in self.influence_arcs.iter().chain([&self.trading_arc]) {
            if !node_ok(arc.source) || !node_ok(arc.target) {
                return Err(format!(
                    "arc {} -> {} endpoint out of range",
                    arc.source, arc.target
                ));
            }
            let physical = arc_weight(tpiin, arc.source, arc.target, arc.color).is_some();
            let intra = arc.color == ArcColor::Trading
                && tpiin.intra_syndicate_trades.iter().any(|t| {
                    tpiin.company_node[t.seller.index()] == arc.source
                        && tpiin.company_node[t.buyer.index()] == arc.target
                });
            if !physical && !intra {
                return Err(format!(
                    "arc {} -> {} ({:?}) not present in the TPIIN",
                    arc.source_label, arc.target_label, arc.color
                ));
            }
        }
        Ok(())
    }
}

/// Looks up the arc `s -> t` of `color` and resolves its provenance;
/// `None` when no such arc exists.
fn resolve_arc(tpiin: &Tpiin, s: NodeId, t: NodeId, color: ArcColor) -> Option<ArcProvenance> {
    tpiin.find_arc(s, t, color).map(|id| {
        let seq = tpiin.arc_sources.get(id.index()).copied();
        ArcProvenance {
            source: s,
            target: t,
            source_label: tpiin.label(s).to_string(),
            target_label: tpiin.label(t).to_string(),
            color,
            weight: tpiin.graph.edge(id).weight,
            source_record: seq.filter(|&q| q != u32::MAX),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::detect;
    use tpiin_model::{
        CompanyId, InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, Role,
        RoleSet, SourceRegistry, TradingRecord,
    };

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
            share: 0.6,
        });
        r.add_trading(TradingRecord {
            seller: c3,
            buyer: c2,
            volume: 2552.0,
        });
        r
    }

    #[test]
    fn provenance_resolves_arcs_members_and_score() {
        let (tpiin, _) = tpiin_fusion::fuse(&case1_registry()).unwrap();
        let result = detect(&tpiin);
        assert_eq!(result.group_count(), 1);
        let p = Provenance::assemble(&tpiin, result.groups.row(0));
        assert_eq!(p.rule, MatchedRule::Rule1TrailPair);
        // Trails: L1+L2 -> C1 -> C3 (with trade) and L1+L2 -> C2.
        assert_eq!(p.influence_arcs.len(), 3);
        // Every arc resolved to a real source record.
        assert!(p.influence_arcs.iter().all(|a| a.source_record.is_some()));
        assert_eq!(p.trading_arc.source_record, Some(0));
        assert!((p.trading_arc.weight - 2552.0).abs() < 1e-12);
        // Score matches score_group term by term.
        let s = crate::score_group(&tpiin, result.groups.row(0));
        assert!((p.score.chain_strength - s.chain_strength).abs() < 1e-12);
        assert!((p.score.trade_volume - s.trade_volume).abs() < 1e-12);
        assert!((p.score.score - s.score).abs() < 1e-12);
        // The kinship syndicate appears with both person members.
        let syndicate = p
            .members
            .iter()
            .find(|m| m.label == "L1+L2")
            .expect("syndicate member present");
        assert_eq!(syndicate.person_members, [0, 1]);
        assert!(syndicate.is_syndicate());
        assert!(p.audit(&tpiin).is_ok());
    }

    #[test]
    fn render_prints_the_full_chain() {
        let (tpiin, _) = tpiin_fusion::fuse(&case1_registry()).unwrap();
        let result = detect(&tpiin);
        let p = Provenance::assemble(&tpiin, result.groups.row(0));
        let text = p.render(result.groups.row(0), &tpiin);
        assert!(text.contains("Rule 1"), "{text}");
        assert!(text.contains("TR C3 -> C2"), "{text}");
        assert!(text.contains("record #"), "{text}");
        assert!(text.contains("contracted syndicate"), "{text}");
        assert!(text.contains("score: chain"), "{text}");
    }

    #[test]
    fn source_records_split_by_feed() {
        let (tpiin, _) = tpiin_fusion::fuse(&case1_registry()).unwrap();
        let result = detect(&tpiin);
        let p = Provenance::assemble(&tpiin, result.groups.row(0));
        let (influence, trading) = p.source_records();
        // Influence records 0 (L1->C1), 1 (L2->C2), and the investment
        // C1->C3 at offset 3 (3 influence records precede it).
        assert_eq!(influence, [0, 1, 3]);
        assert_eq!(trading, [0]);
    }

    #[test]
    fn unknown_sources_become_none() {
        let (mut tpiin, _) = tpiin_fusion::fuse(&case1_registry()).unwrap();
        // Blank out provenance, as arcs streamed in without a source
        // registry carry none.
        for s in tpiin.arc_sources.iter_mut() {
            *s = u32::MAX;
        }
        let result = detect(&tpiin);
        let p = Provenance::assemble(&tpiin, result.groups.row(0));
        assert!(p.influence_arcs.iter().all(|a| a.source_record.is_none()));
        assert!(p
            .render(result.groups.row(0), &tpiin)
            .contains("no recorded source"));
    }

    #[test]
    fn audit_flags_arcs_from_a_different_network() {
        let (tpiin, _) = tpiin_fusion::fuse(&case1_registry()).unwrap();
        let result = detect(&tpiin);
        let p = Provenance::assemble(&tpiin, result.groups.row(0));
        // A smaller, unrelated network misses the referenced arcs.
        let mut other = SourceRegistry::new();
        let l = other.add_person("X", RoleSet::of(&[Role::Ceo]));
        let c = other.add_company("Y");
        other.add_influence(InfluenceRecord {
            person: l,
            company: c,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
        let (other_tpiin, _) = tpiin_fusion::fuse(&other).unwrap();
        assert!(p.audit(&other_tpiin).is_err());
    }

    #[test]
    fn audit_rejects_a_fabricated_arc_leaving_a_syndicate() {
        // C1 <-> C3 now contract into one syndicate with one internal trade.
        let mut r = case1_registry();
        let (c1, c3) = (CompanyId(0), CompanyId(2));
        r.add_investment(InvestmentRecord {
            investor: c3,
            investee: c1,
            share: 0.5,
        });
        r.add_trading(TradingRecord {
            seller: c1,
            buyer: c3,
            volume: 7.0,
        });
        let (tpiin, _) = tpiin_fusion::fuse(&r).unwrap();
        assert_eq!(tpiin.intra_syndicate_trades.len(), 1);
        let syndicate = tpiin.company_node[c1.index()];
        let mut p = Provenance::assemble(&tpiin, detect(&tpiin).groups.row(0));
        // The recorded internal trade audits clean; the same seller with
        // a buyer it never traded with is not in the network.
        p.trading_arc.source = syndicate;
        p.trading_arc.target = syndicate;
        assert!(p.audit(&tpiin).is_ok());
        p.trading_arc.target = tpiin.person_node[2];
        assert!(p.audit(&tpiin).is_err());
    }

    #[test]
    fn circle_groups_get_rule2_and_intra_syndicate_fallback() {
        // Two mutually investing companies (an SCC) trading internally:
        // fusion diverts the trade, detection reports it via the
        // intra-syndicate path...  Instead build the explicit circle: a
        // trading arc back into the influence prefix.
        let mut r = SourceRegistry::new();
        let l = r.add_person("L", RoleSet::of(&[Role::Ceo]));
        let c1 = r.add_company("C1");
        let c2 = r.add_company("C2");
        r.add_influence(InfluenceRecord {
            person: l,
            company: c1,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
        let l2 = r.add_person("L2", RoleSet::of(&[Role::Ceo]));
        r.add_influence(InfluenceRecord {
            person: l2,
            company: c2,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
        r.add_investment(InvestmentRecord {
            investor: c1,
            investee: c2,
            share: 0.8,
        });
        r.add_trading(TradingRecord {
            seller: c2,
            buyer: c1,
            volume: 9.0,
        });
        let (tpiin, _) = tpiin_fusion::fuse(&r).unwrap();
        let result = detect(&tpiin);
        let circle = result
            .groups
            .iter()
            .find(|g| g.kind == GroupKind::Circle)
            .expect("circle group mined");
        let p = Provenance::assemble(&tpiin, circle);
        assert_eq!(p.rule, MatchedRule::Rule2Circle);
        assert!((p.trading_arc.weight - 9.0).abs() < 1e-12);
        assert!(p.audit(&tpiin).is_ok());
    }
}
