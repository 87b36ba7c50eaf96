//! The fusion pipeline: `SourceRegistry -> TPIIN`, one serial pass per
//! stage.

use crate::compact::{Label, Members};
use crate::report::{FusionReport, StageTiming};
use crate::tpiin::{ArcColor, IntraSyndicateTrade, Tpiin, TpiinArc, TpiinNode, INFLUENCE_LANE};
use tpiin_graph::{DiGraph, NodeId, SccScratch, UnionFind};
use tpiin_model::{CompanyId, ModelError, PersonId, SourceRegistry};
use tpiin_obs::TimedScope;

/// Failure while fusing a registry into a TPIIN.
#[derive(Debug)]
pub enum FusionError {
    /// The registry failed structural validation; all violations listed.
    InvalidRegistry(Vec<ModelError>),
    /// The antecedent network contained a directed cycle after SCC
    /// contraction.  Appendix A proves this cannot happen for valid input;
    /// reaching it indicates a bug or hand-built inconsistent data.
    AntecedentNotAcyclic,
}

impl std::fmt::Display for FusionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FusionError::InvalidRegistry(errs) => {
                write!(
                    f,
                    "source registry failed validation with {} error(s); first: {}",
                    errs.len(),
                    errs.first().map(|e| e.to_string()).unwrap_or_default()
                )
            }
            FusionError::AntecedentNotAcyclic => {
                f.write_str("antecedent network is not acyclic after SCC contraction")
            }
        }
    }
}

impl std::error::Error for FusionError {}

/// Ignored: fusion is one serial pass and has no knob.  Kept, with
/// [`fuse_with`], only because the frozen benchmark names both; its next
/// revision deletes them.
#[derive(Clone, Copy, Debug)]
pub struct FuseOptions {
    /// Ignored.
    pub threads: usize,
}

impl Default for FuseOptions {
    fn default() -> Self {
        FuseOptions { threads: 1 }
    }
}

impl FuseOptions {
    /// The default options; reads nothing from the environment.
    pub fn from_env() -> Self {
        FuseOptions::default()
    }
}

/// Fuses the source records of `registry` into a [`Tpiin`]: the
/// from-scratch [`fuse_carrying`], with nothing carried and every
/// company dirty.
///
/// # Example
///
/// ```
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
/// let (tpiin, report) = fuse(&registry).unwrap();
/// assert_eq!(tpiin.node_count(), 3);
/// assert_eq!(report.influence_arcs, 2);
/// assert_eq!(report.trading_arcs, 1);
/// ```
pub fn fuse(registry: &SourceRegistry) -> Result<(Tpiin, FusionReport), FusionError> {
    let every: Vec<u32> = (0..registry.company_count() as u32).collect();
    let (tpiin, report, _) = fuse_carrying(registry, &[], &every)?;
    Ok((tpiin, report))
}

/// [`fuse`]; `options` is ignored (see [`FuseOptions`]).
pub fn fuse_with(
    registry: &SourceRegistry,
    _options: FuseOptions,
) -> Result<(Tpiin, FusionReport), FusionError> {
    fuse(registry)
}

/// Fuses the source records of `registry` into a [`Tpiin`], taking the
/// SCC representatives of the companies outside `dirty` from
/// `carried_reps` (see [`company_scc_reps`]).  Returns the
/// representatives with the network, so the next call can carry them.
///
/// Pipeline (Section 4.1), each stage timed into
/// [`FusionReport::stage_timings`]:
/// 1. `validate` the registry;
/// 2. `contract_persons`: union–find over the interdependence edges
///    (`G12 -> G12'`);
/// 3. `contract_sccs`: company SCC representatives, syndicates numbered
///    by first appearance of their representative over `CompanyId`
///    order (`G_B -> G123`), then the influence partition — influence
///    records, then investment records offset past them, investments
///    internal to a syndicate dropped;
/// 4. `attach_trading`: the trading partition (`G4`); a trade internal
///    to a company syndicate is diverted into
///    [`Tpiin::intra_syndicate_trades`] before dedup, so it never
///    shadows an external arc;
/// 5. `freeze`: the two-lane CSR the mining phase iterates
///    ([`Tpiin::csr`]);
/// 6. `verify_dag`: the antecedent network is a DAG (Appendix A), read
///    off the frozen influence lane.
///
/// Influence arcs occupy edge ids `0..influence_arc_count` and trading
/// arcs the remainder, matching the edge-list layout of Algorithm 1.
/// Parallel arcs of one colour keep their first record: its weight, its
/// sequence number in [`Tpiin::arc_sources`], and its position.
pub fn fuse_carrying(
    registry: &SourceRegistry,
    carried_reps: &[u32],
    dirty: &[u32],
) -> Result<(Tpiin, FusionReport, Vec<u32>), FusionError> {
    let whole = TimedScope::start();
    let mut stage_timings = Vec::with_capacity(6);
    let mut time_stage = |stage: &str, scope: TimedScope| {
        let elapsed = scope.finish(&format!("fusion/{stage}"));
        stage_timings.push(StageTiming {
            stage: stage.to_string(),
            nanos: elapsed.as_nanos().min(u64::MAX as u128) as u64,
        });
    };

    let scope = TimedScope::start();
    let validation = registry.validate();
    time_stage("validate", scope);
    validation.map_err(FusionError::InvalidRegistry)?;

    // --- G12 -> G12': contract interdependence-connected persons. ---
    let scope = TimedScope::start();
    let np = registry.person_count();
    let mut person_uf = UnionFind::new(np);
    for i in registry.interdependencies() {
        person_uf.union(i.a.index(), i.b.index());
    }
    let (person_labels, n_person_nodes) = person_uf.into_labels();
    let mut person_members: Vec<Vec<PersonId>> = vec![Vec::new(); n_person_nodes];
    for (p, &label) in person_labels.iter().enumerate() {
        person_members[label as usize].push(PersonId(p as u32));
    }
    time_stage("contract_persons", scope);
    tpiin_obs::debug!(
        "contract_persons: {} persons -> {} syndicates",
        np,
        n_person_nodes
    );

    // --- G_B -> G123: contract investment SCCs, build the antecedent
    // network (nodes + influence/investment arcs). ---
    let scope = TimedScope::start();
    let nc = registry.company_count();
    let reps = company_scc_reps(registry, carried_reps, dirty);
    let mut rank = vec![u32::MAX; nc];
    let mut company_node: Vec<NodeId> = Vec::with_capacity(nc);
    let mut company_members: Vec<Vec<CompanyId>> = Vec::new();
    for (c, &rep) in reps.iter().enumerate() {
        if rank[rep as usize] == u32::MAX {
            rank[rep as usize] = company_members.len() as u32;
            company_members.push(Vec::new());
        }
        let label = rank[rep as usize] as usize;
        company_members[label].push(CompanyId(c as u32));
        company_node.push(NodeId::from_index(n_person_nodes + label));
    }
    let n_company_nodes = company_members.len();
    let n_nodes = n_person_nodes + n_company_nodes;
    let person_node: Vec<NodeId> = person_labels
        .iter()
        .map(|&l| NodeId::from_index(l as usize))
        .collect();

    let mut graph: DiGraph<TpiinNode, TpiinArc> = DiGraph::with_capacity(
        n_nodes,
        registry.influences().len() + registry.investments().len() + registry.tradings().len(),
    );
    for members in &person_members {
        graph.add_node(TpiinNode::Person {
            label: join_labels(members.iter().map(|&p| registry.person(p).name.as_str())),
            members: Members::from_slice(members),
        });
    }
    for members in &company_members {
        graph.add_node(TpiinNode::Company {
            label: join_labels(members.iter().map(|&c| registry.company(c).name.as_str())),
            members: Members::from_slice(members),
        });
    }

    let influences = registry.influences();
    let mut internal_investment_arcs_dropped = 0;
    let mut influence_items: Vec<Cand> =
        Vec::with_capacity(influences.len() + registry.investments().len());
    for (i, inf) in influences.iter().enumerate() {
        influence_items.push(Cand {
            src: person_node[inf.person.index()].index() as u32,
            dst: company_node[inf.company.index()].index() as u32,
            seq: i as u32,
            weight: 1.0,
        });
    }
    for (i, inv) in registry.investments().iter().enumerate() {
        let s = company_node[inv.investor.index()];
        let t = company_node[inv.investee.index()];
        if s == t {
            internal_investment_arcs_dropped += 1;
            continue;
        }
        influence_items.push(Cand {
            src: s.index() as u32,
            dst: t.index() as u32,
            seq: (influences.len() + i) as u32,
            weight: inv.share,
        });
    }
    let (influence_items, mut duplicate_arcs_dropped) = dedup_first_wins(n_nodes, influence_items);
    // Per-edge provenance: the winning record sequence of each surviving
    // arc, aligned with the edge ids `add_edge` hands out.
    let mut arc_sources: Vec<u32> =
        Vec::with_capacity(influence_items.len() + registry.tradings().len());
    for it in &influence_items {
        graph.add_edge(
            NodeId::from_index(it.src as usize),
            NodeId::from_index(it.dst as usize),
            TpiinArc {
                color: ArcColor::Influence,
                weight: it.weight,
            },
        );
        arc_sources.push(it.seq);
    }
    let influence_arc_count = graph.edge_count();
    time_stage("contract_sccs", scope);
    tpiin_obs::debug!(
        "contract_sccs: {} companies -> {} syndicates, {} influence arcs",
        nc,
        n_company_nodes,
        influence_arc_count
    );

    // --- G123 + G4 -> TPIIN: attach trading arcs. ---
    let scope = TimedScope::start();
    let mut intra_syndicate_trades = Vec::new();
    let mut trading_items: Vec<Cand> = Vec::with_capacity(registry.tradings().len());
    for (seq, tr) in registry.tradings().iter().enumerate() {
        let s = company_node[tr.seller.index()];
        let t = company_node[tr.buyer.index()];
        if s == t {
            intra_syndicate_trades.push(IntraSyndicateTrade {
                seller: tr.seller,
                buyer: tr.buyer,
                syndicate: s,
                volume: tr.volume,
            });
            continue;
        }
        trading_items.push(Cand {
            src: s.index() as u32,
            dst: t.index() as u32,
            seq: seq as u32,
            weight: tr.volume,
        });
    }
    let (trading_items, dropped) = dedup_first_wins(n_nodes, trading_items);
    duplicate_arcs_dropped += dropped;
    for it in &trading_items {
        graph.add_edge(
            NodeId::from_index(it.src as usize),
            NodeId::from_index(it.dst as usize),
            TpiinArc {
                color: ArcColor::Trading,
                weight: it.weight,
            },
        );
        arc_sources.push(it.seq);
    }
    let trading_arc_count = graph.edge_count() - influence_arc_count;
    time_stage("attach_trading", scope);

    // --- Freeze: pack the finished topology into the two-lane CSR the
    // mining phase iterates (trading lane + influence lane). ---
    let scope = TimedScope::start();
    let tpiin = Tpiin::assemble(
        graph,
        person_node,
        company_node,
        influence_arc_count,
        trading_arc_count,
        intra_syndicate_trades,
        arc_sources,
    );
    time_stage("freeze", scope);

    // --- Verify the antecedent network is a DAG (Appendix A), straight
    // off the frozen influence lane. ---
    let scope = TimedScope::start();
    let acyclic = tpiin.csr().is_acyclic(INFLUENCE_LANE);
    time_stage("verify_dag", scope);
    if !acyclic {
        return Err(FusionError::AntecedentNotAcyclic);
    }
    let report = FusionReport {
        persons: registry.person_count(),
        companies: registry.company_count(),
        interdependence_edges: registry.interdependencies().len(),
        influence_records: registry.influences().len(),
        investment_records: registry.investments().len(),
        trading_records: registry.tradings().len(),
        person_syndicate_count: n_person_nodes,
        person_syndicates_merged: person_members.iter().filter(|m| m.len() > 1).count(),
        company_syndicate_count: n_company_nodes,
        company_syndicates_merged: company_members.iter().filter(|m| m.len() > 1).count(),
        internal_investment_arcs_dropped,
        duplicate_arcs_dropped,
        influence_arcs: tpiin.influence_arc_count,
        trading_arcs: tpiin.trading_arc_count,
        intra_syndicate_trades: tpiin.intra_syndicate_trades.len(),
        tpiin_nodes: tpiin.node_count(),
        mean_degree: tpiin.mean_degree(),
        stage_timings,
    };
    let total = whole.finish("fusion");
    tpiin_obs::info!(
        "fused {} nodes / {} arcs in {:?}",
        report.tpiin_nodes,
        report.influence_arcs + report.trading_arcs,
        total
    );
    Ok((tpiin, report, reps))
}

/// Min-member SCC representative of every company of the investment
/// graph: `carried_reps` for companies outside `dirty` (a company past
/// its end is a singleton), one Tarjan pass ([`SccScratch`]) over
/// `dirty`.  A from-scratch call carries nothing and passes every
/// company.
///
/// `dirty` must be closed under investment arcs — a union of weak
/// components of the investment graph, such as every company of each
/// component an edit touched.  A clean component then has the
/// membership and internal arcs it had when `carried_reps` was
/// computed, so its representatives carry over unchanged.
pub fn company_scc_reps(
    registry: &SourceRegistry,
    carried_reps: &[u32],
    dirty: &[u32],
) -> Vec<u32> {
    let nc = registry.company_count();
    let mut reps: Vec<u32> = (0..nc as u32)
        .map(|c| carried_reps.get(c as usize).copied().unwrap_or(c))
        .collect();
    if dirty.is_empty() {
        return reps;
    }
    // Flat CSR of the investment graph (counting sort over sources).
    let investments = registry.investments();
    let mut offsets = vec![0u32; nc + 1];
    for inv in investments {
        offsets[inv.investor.index() + 1] += 1;
    }
    for i in 0..nc {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut targets = vec![0u32; investments.len()];
    for inv in investments {
        let s = inv.investor.index();
        targets[cursor[s] as usize] = inv.investee.0;
        cursor[s] += 1;
    }
    SccScratch::new(nc).run(&offsets, &targets, dirty, |v, rep| reps[v as usize] = rep);
    reps
}

fn join_labels<'a>(mut names: impl Iterator<Item = &'a str>) -> Label {
    let first = names.next().unwrap_or_default();
    let Some(second) = names.next() else {
        // Singleton — the overwhelmingly common case: the label inlines
        // into the node slot without ever building a `String`.
        return Label::new(first);
    };
    let mut label = String::from(first);
    label.push('+');
    label.push_str(second);
    for name in names {
        label.push('+');
        label.push_str(name);
    }
    Label::from(label)
}

/// One candidate arc before dedup: endpoints as TPIIN node indices, the
/// source-record sequence, and the arc weight.
struct Cand {
    src: u32,
    dst: u32,
    seq: u32,
    weight: f64,
}

/// First-occurrence-wins dedup of one colour partition in
/// `O(nodes + candidates)`: a stable counting sort groups candidates by
/// source node, a stamp array keeps the first destination seen per
/// source, and survivors are emitted in their original (ascending
/// sequence) order.  Returns `(survivors, dropped)`.
fn dedup_first_wins(n_nodes: usize, items: Vec<Cand>) -> (Vec<Cand>, usize) {
    let before = items.len();
    let mut offsets = vec![0u32; n_nodes + 1];
    for it in &items {
        offsets[it.src as usize + 1] += 1;
    }
    for i in 0..n_nodes {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets;
    let mut order = vec![0u32; items.len()];
    for (i, it) in items.iter().enumerate() {
        order[cursor[it.src as usize] as usize] = i as u32;
        cursor[it.src as usize] += 1;
    }
    // `mark[dst]` holds the last source that claimed `dst`; each source's
    // bucket is visited exactly once, so the source id is a unique stamp.
    let mut mark = vec![u32::MAX; n_nodes];
    let mut keep = vec![false; items.len()];
    for &idx in &order {
        let it = &items[idx as usize];
        if mark[it.dst as usize] != it.src {
            mark[it.dst as usize] = it.src;
            keep[idx as usize] = true;
        }
    }
    let survivors: Vec<Cand> = items
        .into_iter()
        .zip(&keep)
        .filter_map(|(it, &k)| k.then_some(it))
        .collect();
    let dropped = before - survivors.len();
    (survivors, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpiin::{NodeColor, TRADING_LANE};
    use tpiin_model::{
        InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, Role, RoleSet,
        TradingRecord,
    };

    /// A registry reproducing the core of the paper's Fig. 7: kin legal
    /// persons L6/LB, an investment cycle, and trading.
    fn registry() -> SourceRegistry {
        let mut r = SourceRegistry::new();
        let l6 = r.add_person("L6", RoleSet::of(&[Role::Ceo]));
        let lb = r.add_person("LB", RoleSet::of(&[Role::Ceo]));
        let l9 = r.add_person("L9", RoleSet::of(&[Role::Chairman]));
        let c1 = r.add_company("C1");
        let c2 = r.add_company("C2");
        let c3 = r.add_company("C3");
        let c4 = r.add_company("C4");
        for (p, c) in [(l6, c1), (lb, c2), (l9, c3)] {
            r.add_influence(InfluenceRecord {
                person: p,
                company: c,
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            });
        }
        r.add_influence(InfluenceRecord {
            person: l9,
            company: c4,
            kind: InfluenceKind::ChairmanOf,
            is_legal_person: true,
        });
        r.add_interdependence(l6, lb, InterdependenceKind::Kinship);
        // C3 <-> C4 mutual investment cycle.
        r.add_investment(InvestmentRecord {
            investor: c3,
            investee: c4,
            share: 0.7,
        });
        r.add_investment(InvestmentRecord {
            investor: c4,
            investee: c3,
            share: 0.7,
        });
        // External investment into the cycle.
        r.add_investment(InvestmentRecord {
            investor: c1,
            investee: c3,
            share: 0.6,
        });
        // Trading: external and internal to the SCC.
        r.add_trading(TradingRecord {
            seller: c1,
            buyer: c2,
            volume: 5.0,
        });
        r.add_trading(TradingRecord {
            seller: c3,
            buyer: c4,
            volume: 7.0,
        });
        r
    }

    #[test]
    fn fuse_contracts_persons_and_scc() {
        let (tpiin, report) = fuse(&registry()).unwrap();
        // L6+LB merged; L9 alone => 2 person nodes. C3+C4 merged => 3 company nodes.
        assert_eq!(report.person_syndicate_count, 2);
        assert_eq!(report.person_syndicates_merged, 1);
        assert_eq!(report.company_syndicate_count, 3);
        assert_eq!(report.company_syndicates_merged, 1);
        assert_eq!(tpiin.node_count(), 5);
        // Syndicate labels concatenate member names.
        let labels: Vec<&str> = tpiin.graph.nodes().map(|(_, n)| n.label()).collect();
        assert!(labels.contains(&"L6+LB"));
        assert!(labels.contains(&"C3+C4"));
    }

    #[test]
    fn company_nodes_follow_min_member_order() {
        let (tpiin, _) = fuse(&registry()).unwrap();
        // Person syndicates first (L6+LB, L9), then companies numbered by
        // minimum member: C1, C2, then the C3+C4 syndicate.
        let labels: Vec<&str> = tpiin.graph.nodes().map(|(_, n)| n.label()).collect();
        assert_eq!(labels, ["L6+LB", "L9", "C1", "C2", "C3+C4"]);
    }

    #[test]
    fn intra_scc_trade_is_separated() {
        let (tpiin, report) = fuse(&registry()).unwrap();
        assert_eq!(report.intra_syndicate_trades, 1);
        assert_eq!(tpiin.intra_syndicate_trades.len(), 1);
        let t = tpiin.intra_syndicate_trades[0];
        assert_eq!((t.seller.index(), t.buyer.index()), (2, 3));
        // Only the external trade remains as a trading arc.
        assert_eq!(tpiin.trading_arc_count, 1);
    }

    #[test]
    fn influence_arcs_precede_trading_arcs() {
        let (tpiin, _) = fuse(&registry()).unwrap();
        let colors: Vec<ArcColor> = tpiin.graph.edges().map(|e| e.weight.color).collect();
        let first_trading = colors.iter().position(|&c| c == ArcColor::Trading);
        if let Some(ft) = first_trading {
            assert!(colors[..ft].iter().all(|&c| c == ArcColor::Influence));
            assert!(colors[ft..].iter().all(|&c| c == ArcColor::Trading));
        }
        assert_eq!(
            tpiin.influence_arc_count + tpiin.trading_arc_count,
            colors.len()
        );
    }

    #[test]
    fn internal_investment_arcs_dropped_and_counted() {
        let (_, report) = fuse(&registry()).unwrap();
        // The two arcs of the C3<->C4 cycle are internal to the syndicate.
        assert_eq!(report.internal_investment_arcs_dropped, 2);
    }

    #[test]
    fn persons_have_indegree_zero_companies_receive_influence() {
        let (tpiin, _) = fuse(&registry()).unwrap();
        let csr = tpiin.csr();
        for v in tpiin.graph.node_ids() {
            let i = v.index() as u32;
            let in_degree = csr.in_degree(TRADING_LANE, i) + csr.in_degree(INFLUENCE_LANE, i);
            match tpiin.color(v) {
                NodeColor::Person => assert_eq!(in_degree, 0),
                NodeColor::Company => assert!(in_degree >= 1),
            }
        }
    }

    #[test]
    fn duplicate_influence_arcs_are_deduplicated() {
        // Base registry: L9 is legal person of both C3 and C4, which merge
        // into one syndicate -> the second arc is already a duplicate.
        let (_, base_report) = fuse(&registry()).unwrap();
        assert_eq!(base_report.duplicate_arcs_dropped, 1);

        let mut r = registry();
        // L9 is also a director of C3 -> a third record onto the same arc.
        r.add_influence(InfluenceRecord {
            person: tpiin_model::PersonId(2),
            company: tpiin_model::CompanyId(2),
            kind: InfluenceKind::DirectorOf,
            is_legal_person: false,
        });
        let (_, report) = fuse(&r).unwrap();
        assert_eq!(
            report.duplicate_arcs_dropped,
            base_report.duplicate_arcs_dropped + 1
        );
    }

    #[test]
    fn first_duplicate_occurrence_wins_weight_and_position() {
        // Two investments over the same contracted endpoints: the first
        // record's share must be the kept arc weight.
        let mut r = SourceRegistry::new();
        let p = r.add_person("P", RoleSet::of(&[Role::Ceo]));
        let a = r.add_company("A");
        let b = r.add_company("B");
        for company in [a, b] {
            r.add_influence(InfluenceRecord {
                person: p,
                company,
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            });
        }
        r.add_investment(InvestmentRecord {
            investor: a,
            investee: b,
            share: 0.3,
        });
        r.add_investment(InvestmentRecord {
            investor: a,
            investee: b,
            share: 0.9,
        });
        let (tpiin, report) = fuse(&r).unwrap();
        assert_eq!(report.duplicate_arcs_dropped, 1);
        let kept: Vec<f64> = tpiin
            .graph
            .edges()
            .filter(|e| e.weight.weight != 1.0)
            .map(|e| e.weight.weight)
            .collect();
        assert_eq!(kept, [0.3], "first occurrence wins");
    }

    #[test]
    fn arc_sources_record_the_winning_record_sequence() {
        let (tpiin, _) = fuse(&registry()).unwrap();
        assert_eq!(tpiin.arc_sources.len(), tpiin.graph.edge_count());
        assert!(tpiin.arc_sources.iter().all(|&s| s != u32::MAX));
        // Influence arcs: L6->C1 (record 0), LB->C2 (1), L9->C3+C4 (2;
        // the duplicate record 3 loses first-wins), C1->C3+C4 (investment
        // record 2, offset by the 4 influence records => 6).  Trading:
        // only record 0 survives (record 1 is intra-syndicate).
        assert_eq!(tpiin.arc_sources, [0, 1, 2, 6, 0]);
    }

    #[test]
    fn invalid_registry_is_rejected() {
        let mut r = SourceRegistry::new();
        r.add_company("orphan");
        match fuse(&r) {
            Err(FusionError::InvalidRegistry(errs)) => assert!(!errs.is_empty()),
            other => panic!("expected InvalidRegistry, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_lists_influence_rows_first() {
        let (tpiin, _) = fuse(&registry()).unwrap();
        let listing = tpiin.edge_list();
        let rows: Vec<&str> = listing.lines().collect();
        assert_eq!(rows.len(), tpiin.graph.edge_count());
        // Influence rows end with "1", trading rows with "0".
        assert!(rows[..tpiin.influence_arc_count]
            .iter()
            .all(|r| r.ends_with('1')));
        assert!(rows[tpiin.influence_arc_count..]
            .iter()
            .all(|r| r.ends_with('0')));
    }

    #[test]
    fn stage_timings_cover_the_pipeline_in_order() {
        let (_, report) = fuse(&registry()).unwrap();
        let stages: Vec<&str> = report
            .stage_timings
            .iter()
            .map(|t| t.stage.as_str())
            .collect();
        assert_eq!(
            stages,
            [
                "validate",
                "contract_persons",
                "contract_sccs",
                "attach_trading",
                "freeze",
                "verify_dag"
            ]
        );
        assert!(report.summary().contains("t(contract_sccs): "));
    }

    #[test]
    fn mean_degree_matches_definition() {
        let (tpiin, report) = fuse(&registry()).unwrap();
        let expect = tpiin.graph.edge_count() as f64 / tpiin.graph.node_count() as f64;
        assert!((report.mean_degree - expect).abs() < 1e-12);
    }

    #[test]
    fn counting_dedup_keeps_first_occurrence() {
        let items = vec![
            Cand {
                src: 1,
                dst: 2,
                seq: 0,
                weight: 0.3,
            },
            Cand {
                src: 0,
                dst: 2,
                seq: 1,
                weight: 0.5,
            },
            Cand {
                src: 1,
                dst: 2,
                seq: 2,
                weight: 0.9,
            },
        ];
        let (kept, dropped) = dedup_first_wins(3, items);
        assert_eq!(dropped, 1);
        let seqs: Vec<u32> = kept.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, [0, 1], "survivors stay in sequence order");
        assert_eq!(kept[0].weight, 0.3, "first occurrence wins the weight");
    }
}
