//! The sort-dedup fusion is the oracle.
//!
//! [`reference_fuse`] is the serial branch of `fuse_with` as it stood
//! before fusion became one labels-then-assemble pass: union–find person
//! labels, one `SccScratch` pass over the whole investment graph,
//! first-appearance company labels, and first-wins dedup by sorting
//! packed `(src << 32 | dst, seq)` keys.  [`fuse`] must equal it on
//! everything observable — the edge list with weights and provenance,
//! every node's label, colour and members, the source-to-node tables,
//! the intra-syndicate trades, both arc counts, every report counter,
//! and the exact error list on an invalid registry — over the worked
//! examples, seeded random registries dense in investment cycles and
//! duplicate records, and the two pinned province and nation fixtures.
//!
//! [`reference_fuse`] shares `SccScratch` and `UnionFind` with [`fuse`],
//! so a defect in either would pass that comparison.  Every case is
//! therefore also held to references that use no graph-crate algorithm:
//! fusion's SCC representatives to [`naive_company_syndicates`] (mutual
//! reachability by plain depth-first search), and every valid case's
//! antecedent network to [`naive_antecedent_shape`] (person syndicates
//! as components over the interdependence records, those company
//! syndicates, and the distinct influence arcs between them).
//!
//! `FUSION_DIFF_CASES` sets the number of random registries (default
//! 256).  From 1024 up — the CI release step — the two full-size
//! benchmark inputs join.

use rand::prelude::*;
use std::collections::BTreeSet;
use tpiin::datagen::{
    add_random_trading, case1_registry, case2_registry, case3_registry, circular_case_registry,
    circular_control_registry, fig7_registry, generate_nation_with, generate_province,
    NationConfig, ProvinceConfig,
};
use tpiin::fusion::compact::{Label, Members};
use tpiin::fusion::{
    company_scc_reps, fuse, ArcColor, FusionError, FusionReport, IntraSyndicateTrade, Tpiin,
    TpiinArc, TpiinNode, INFLUENCE_LANE,
};
use tpiin::graph::{DiGraph, NodeId, SccScratch, UnionFind};
use tpiin::model::{
    CompanyId, InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, PersonId,
    Role, RoleSet, SourceRegistry, TradingRecord,
};

// ---------------------------------------------------------------------
// The oracle: the serial sort-dedup pipeline, kept verbatim.
// ---------------------------------------------------------------------

/// One candidate TPIIN arc before deduplication: the packed `(src <<
/// 32) | dst` endpoint key, the record sequence number, and the source
/// weight.
#[derive(Clone, Copy)]
struct ArcItem {
    key: u64,
    seq: u32,
    weight: f64,
}

fn pack_key(s: NodeId, t: NodeId) -> u64 {
    ((s.index() as u64) << 32) | t.index() as u64
}

/// Sort by `(key, seq)`, keep the lowest sequence per key, restore
/// sequence order.  Returns the number of duplicates dropped.
fn dedup_first_wins(items: &mut Vec<ArcItem>) -> usize {
    let before = items.len();
    items.sort_unstable_by_key(|it| (it.key, it.seq));
    items.dedup_by_key(|it| it.key);
    items.sort_unstable_by_key(|it| it.seq);
    before - items.len()
}

fn join_labels<'a>(mut names: impl Iterator<Item = &'a str>) -> Label {
    let first = names.next().unwrap_or_default();
    let Some(second) = names.next() else {
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

/// Tarjan over the whole investment CSR, then dense labels by first
/// appearance of each min-member representative over `CompanyId` order.
fn company_scc_labels(registry: &SourceRegistry) -> (Vec<u32>, usize) {
    let nc = registry.company_count();
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
    let mut reps: Vec<u32> = (0..nc as u32).collect();
    if nc > 0 {
        let all: Vec<u32> = (0..nc as u32).collect();
        let mut scratch = SccScratch::new(nc);
        scratch.run(&offsets, &targets, &all, |v, rep| reps[v as usize] = rep);
    }
    let mut rank = vec![u32::MAX; nc];
    let mut labels = vec![0u32; nc];
    let mut count = 0u32;
    for c in 0..nc {
        let rep = reps[c] as usize;
        if rank[rep] == u32::MAX {
            rank[rep] = count;
            count += 1;
        }
        labels[c] = rank[rep];
    }
    (labels, count as usize)
}

fn reference_fuse(registry: &SourceRegistry) -> Result<(Tpiin, FusionReport), FusionError> {
    registry.validate().map_err(FusionError::InvalidRegistry)?;

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

    let (company_labels, n_company_nodes) = company_scc_labels(registry);
    let mut company_members: Vec<Vec<CompanyId>> = vec![Vec::new(); n_company_nodes];
    for (c, &label) in company_labels.iter().enumerate() {
        company_members[label as usize].push(CompanyId(c as u32));
    }
    let person_syndicates_merged = person_members.iter().filter(|m| m.len() > 1).count();
    let company_syndicates_merged = company_members.iter().filter(|m| m.len() > 1).count();

    let mut graph: DiGraph<TpiinNode, TpiinArc> = DiGraph::with_capacity(
        n_person_nodes + n_company_nodes,
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
    let person_node: Vec<NodeId> = person_labels
        .iter()
        .map(|&l| NodeId::from_index(l as usize))
        .collect();
    let company_node: Vec<NodeId> = company_labels
        .iter()
        .map(|&l| NodeId::from_index(n_person_nodes + l as usize))
        .collect();

    let influences = registry.influences();
    let mut influence_items: Vec<ArcItem> = influences
        .iter()
        .enumerate()
        .map(|(i, inf)| ArcItem {
            key: pack_key(
                person_node[inf.person.index()],
                company_node[inf.company.index()],
            ),
            seq: i as u32,
            weight: 1.0,
        })
        .collect();
    let mut internal_investment_arcs_dropped = 0;
    for (i, inv) in registry.investments().iter().enumerate() {
        let s = company_node[inv.investor.index()];
        let t = company_node[inv.investee.index()];
        if s == t {
            internal_investment_arcs_dropped += 1;
            continue;
        }
        influence_items.push(ArcItem {
            key: pack_key(s, t),
            seq: (influences.len() + i) as u32,
            weight: inv.share,
        });
    }
    let mut duplicate_arcs_dropped = dedup_first_wins(&mut influence_items);
    let mut arc_sources: Vec<u32> =
        Vec::with_capacity(influence_items.len() + registry.tradings().len());
    for it in &influence_items {
        graph.add_edge(
            NodeId::from_index((it.key >> 32) as usize),
            NodeId::from_index((it.key & u32::MAX as u64) as usize),
            TpiinArc {
                color: ArcColor::Influence,
                weight: it.weight,
            },
        );
        arc_sources.push(it.seq);
    }
    let influence_arc_count = graph.edge_count();

    let mut intra_syndicate_trades = Vec::new();
    let mut trading_items: Vec<ArcItem> = Vec::with_capacity(registry.tradings().len());
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
        trading_items.push(ArcItem {
            key: pack_key(s, t),
            seq: seq as u32,
            weight: tr.volume,
        });
    }
    duplicate_arcs_dropped += dedup_first_wins(&mut trading_items);
    for it in &trading_items {
        graph.add_edge(
            NodeId::from_index((it.key >> 32) as usize),
            NodeId::from_index((it.key & u32::MAX as u64) as usize),
            TpiinArc {
                color: ArcColor::Trading,
                weight: it.weight,
            },
        );
        arc_sources.push(it.seq);
    }
    let trading_arc_count = graph.edge_count() - influence_arc_count;

    let tpiin = Tpiin::assemble(
        graph,
        person_node,
        company_node,
        influence_arc_count,
        trading_arc_count,
        intra_syndicate_trades,
        arc_sources,
    );
    if !tpiin.csr().is_acyclic(INFLUENCE_LANE) {
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
        person_syndicates_merged,
        company_syndicate_count: n_company_nodes,
        company_syndicates_merged,
        internal_investment_arcs_dropped,
        duplicate_arcs_dropped,
        influence_arcs: tpiin.influence_arc_count,
        trading_arcs: tpiin.trading_arc_count,
        intra_syndicate_trades: tpiin.intra_syndicate_trades.len(),
        tpiin_nodes: tpiin.node_count(),
        mean_degree: tpiin.mean_degree(),
        stage_timings: Vec::new(),
    };
    Ok((tpiin, report))
}

// ---------------------------------------------------------------------
// The second reference: the antecedent network's shape, from records.
// ---------------------------------------------------------------------

/// A node as the source entities it merges: `(is_person, ids)`, ids
/// ascending.
type MemberSet = (bool, Vec<u32>);

/// An antecedent network as its node member sets and its distinct arcs
/// between them.
type Shape = (BTreeSet<MemberSet>, BTreeSet<(MemberSet, MemberSet)>);

/// Every node `root` reaches over `adj`, itself included, by depth-first
/// search.  `seen` holds the stamp of the search that last visited each
/// node, so one buffer serves every search.
fn reach(adj: &[Vec<u32>], root: u32, seen: &mut [u32], stamp: u32) -> Vec<u32> {
    let mut out = vec![root];
    seen[root as usize] = stamp;
    let mut next = 0;
    while next < out.len() {
        for &w in &adj[out[next] as usize] {
            if seen[w as usize] != stamp {
                seen[w as usize] = stamp;
                out.push(w);
            }
        }
        next += 1;
    }
    out
}

/// Partitions `0..n` into classes, where `members_of(v)` returns the
/// class of `v`; it is called once per class, on its smallest node.
/// Returns every node's class as a sorted id list.
fn classes(n: usize, mut members_of: impl FnMut(u32) -> Vec<u32>) -> Vec<Vec<u32>> {
    let mut class: Vec<Option<usize>> = vec![None; n];
    let mut sets: Vec<Vec<u32>> = Vec::new();
    for v in 0..n as u32 {
        if class[v as usize].is_some() {
            continue;
        }
        let mut members = members_of(v);
        members.sort_unstable();
        for &m in &members {
            class[m as usize] = Some(sets.len());
        }
        sets.push(members);
    }
    class
        .into_iter()
        .map(|c| sets[c.expect("every node is classed")].clone())
        .collect()
}

/// Each company's syndicate: the companies it and they reach each other
/// over investment records.
fn naive_company_syndicates(registry: &SourceRegistry) -> Vec<Vec<u32>> {
    let nc = registry.company_count();
    let (mut out, mut inn) = (vec![Vec::new(); nc], vec![Vec::new(); nc]);
    for inv in registry.investments() {
        out[inv.investor.index()].push(inv.investee.0);
        inn[inv.investee.index()].push(inv.investor.0);
    }
    let (mut seen_out, mut seen_in) = (vec![0u32; nc], vec![0u32; nc]);
    let mut stamp = 0;
    classes(nc, |c| {
        stamp += 1;
        reach(&out, c, &mut seen_out, stamp);
        reach(&inn, c, &mut seen_in, stamp)
            .into_iter()
            .filter(|&d| seen_out[d as usize] == stamp)
            .collect()
    })
}

/// The antecedent network the paper's stage chain (`G12 -> G12' ->
/// G_B -> G123`) derives from `registry`, computed from the records with
/// no graph-crate algorithm.
fn naive_antecedent_shape(registry: &SourceRegistry) -> Shape {
    let np = registry.person_count();
    let mut kin = vec![Vec::new(); np];
    for i in registry.interdependencies() {
        kin[i.a.index()].push(i.b.0);
        kin[i.b.index()].push(i.a.0);
    }
    let mut seen = vec![0u32; np];
    let mut stamp = 0;
    let person_set = classes(np, |p| {
        stamp += 1;
        reach(&kin, p, &mut seen, stamp)
    });
    let nc = registry.company_count();
    let company_set = naive_company_syndicates(registry);

    let person = |p: PersonId| (true, person_set[p.index()].clone());
    let company = |c: CompanyId| (false, company_set[c.index()].clone());
    let nodes = (0..np as u32)
        .map(|p| person(PersonId(p)))
        .chain((0..nc as u32).map(|c| company(CompanyId(c))))
        .collect();
    let mut arcs: BTreeSet<(MemberSet, MemberSet)> = registry
        .influences()
        .iter()
        .map(|inf| (person(inf.person), company(inf.company)))
        .collect();
    for inv in registry.investments() {
        let (s, t) = (company(inv.investor), company(inv.investee));
        if s != t {
            arcs.insert((s, t));
        }
    }
    (nodes, arcs)
}

/// The shape of a fused network: node members, and the arcs of the CSR
/// influence lane the miners read.
fn fused_shape(tpiin: &Tpiin) -> Shape {
    let sets: Vec<MemberSet> = tpiin
        .graph
        .nodes()
        .map(|(_, node)| match node {
            TpiinNode::Person { members, .. } => {
                (true, members.as_slice().iter().map(|p| p.0).collect())
            }
            TpiinNode::Company { members, .. } => {
                (false, members.as_slice().iter().map(|c| c.0).collect())
            }
        })
        .collect();
    let arcs: BTreeSet<(MemberSet, MemberSet)> = tpiin
        .csr()
        .lane_edges(INFLUENCE_LANE)
        .map(|(s, t)| (sets[s as usize].clone(), sets[t as usize].clone()))
        .collect();
    assert_eq!(
        arcs.len(),
        tpiin.influence_arc_count,
        "fused influence arcs are distinct"
    );
    (sets.into_iter().collect(), arcs)
}

// ---------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------

/// Holds fusion's SCC pass and, for a valid registry, the fused
/// antecedent network to the naive references, then fuses `registry`
/// both ways and asserts every observable field equal; returns the
/// production report (`None` for an invalid registry).
fn check(what: &str, registry: &SourceRegistry) -> Option<FusionReport> {
    // The SCC pass first: a wrong one can fail fusion's own DAG check,
    // and then no network is left to compare.
    let reps = company_scc_reps(registry);
    for (c, syndicate) in naive_company_syndicates(registry).iter().enumerate() {
        assert_eq!(reps[c], syndicate[0], "{what}: SCC representative of C{c}");
    }
    match (fuse(registry), reference_fuse(registry)) {
        (Ok((got, mut got_report)), Ok((want, want_report))) => {
            let (nodes, arcs) = fused_shape(&got);
            let (naive_nodes, naive_arcs) = naive_antecedent_shape(registry);
            assert_eq!(nodes, naive_nodes, "{what}: antecedent nodes");
            assert_eq!(arcs, naive_arcs, "{what}: antecedent arcs");
            assert_eq!(got.edge_list(), want.edge_list(), "{what}: edge list");
            let arcs = |t: &Tpiin| -> Vec<(NodeId, NodeId, TpiinArc)> {
                t.graph
                    .edges()
                    .map(|e| (e.source, e.target, *e.weight))
                    .collect()
            };
            assert_eq!(arcs(&got), arcs(&want), "{what}: arcs and weights");
            let nodes =
                |t: &Tpiin| -> Vec<TpiinNode> { t.graph.nodes().map(|(_, n)| n.clone()).collect() };
            assert_eq!(nodes(&got), nodes(&want), "{what}: node payloads");
            assert_eq!(got.person_node, want.person_node, "{what}: person_node");
            assert_eq!(got.company_node, want.company_node, "{what}: company_node");
            assert_eq!(got.arc_sources, want.arc_sources, "{what}: arc_sources");
            assert_eq!(
                got.intra_syndicate_trades, want.intra_syndicate_trades,
                "{what}: intra-syndicate trades"
            );
            assert_eq!(
                (got.influence_arc_count, got.trading_arc_count),
                (want.influence_arc_count, want.trading_arc_count),
                "{what}: arc counts"
            );
            let stages: Vec<String> = got_report
                .stage_timings
                .drain(..)
                .map(|t| t.stage)
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
                ],
                "{what}: stage timings"
            );
            assert_eq!(got_report, want_report, "{what}: report");
            Some(got_report)
        }
        (Err(FusionError::InvalidRegistry(got)), Err(FusionError::InvalidRegistry(want))) => {
            assert_eq!(got, want, "{what}: validation errors");
            None
        }
        (got, want) => panic!(
            "{what}: outcomes differ: {:?} vs {:?}",
            got.map(|(_, r)| r),
            want.map(|(_, r)| r)
        ),
    }
}

/// FNV-1a over the edge list and every node label, each label closed
/// by a NUL so adjacent labels cannot run together.
fn shape_hash(tpiin: &Tpiin) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let labels = tpiin.graph.nodes().flat_map(|(_, n)| {
        n.label()
            .bytes()
            .chain(std::iter::once(0))
            .collect::<Vec<u8>>()
    });
    for b in tpiin.edge_list().into_bytes().into_iter().chain(labels) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// One seeded random registry.  A handful of persons and companies, so
/// arcs collide after contraction; zero to three investment rings over
/// distinct companies (contracted into syndicates) beside random
/// investments; every influence, investment and trading record repeated
/// now and then under another weight; trades inside the rings, some of
/// them repeated (intra-syndicate duplicates); and, one case in eight,
/// one defect validation must report.
fn random_registry(seed: u64) -> SourceRegistry {
    let mut rng = StdRng::seed_from_u64(seed);
    let np = rng.gen_range(2..8usize);
    let nc = rng.gen_range(2..16usize);
    let mut r = SourceRegistry::new();
    let persons: Vec<PersonId> = (0..np)
        .map(|i| r.add_person(format!("P{i}"), RoleSet::of(&[Role::Ceo, Role::Director])))
        .collect();
    let companies: Vec<CompanyId> = (0..nc).map(|i| r.add_company(format!("C{i}"))).collect();

    let mut influences: Vec<InfluenceRecord> = companies
        .iter()
        .map(|&company| InfluenceRecord {
            person: pick(&mut rng, &persons),
            company,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        })
        .collect();
    for _ in 0..rng.gen_range(0..10usize) {
        influences.push(InfluenceRecord {
            person: pick(&mut rng, &persons),
            company: pick(&mut rng, &companies),
            kind: InfluenceKind::DirectorOf,
            is_legal_person: false,
        });
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let again = InfluenceRecord {
            kind: InfluenceKind::ChairmanOf,
            is_legal_person: false,
            ..pick(&mut rng, &influences)
        };
        influences.push(again);
    }
    for record in influences {
        r.add_influence(record);
    }

    for _ in 0..rng.gen_range(0..6usize) {
        let (a, b) = (pick(&mut rng, &persons), pick(&mut rng, &persons));
        if a != b {
            let kind = if rng.gen_bool(0.5) {
                InterdependenceKind::Kinship
            } else {
                InterdependenceKind::Interlocking
            };
            r.add_interdependence(a, b, kind);
        }
    }

    let mut rings: Vec<Vec<CompanyId>> = Vec::new();
    let mut investments: Vec<(CompanyId, CompanyId)> = Vec::new();
    for _ in 0..rng.gen_range(0..4usize) {
        let mut shuffled = companies.clone();
        shuffled.shuffle(&mut rng);
        shuffled.truncate(rng.gen_range(2..=nc.min(5)));
        for i in 0..shuffled.len() {
            investments.push((shuffled[i], shuffled[(i + 1) % shuffled.len()]));
        }
        rings.push(shuffled);
    }
    for _ in 0..rng.gen_range(0..12usize) {
        let (a, b) = (pick(&mut rng, &companies), pick(&mut rng, &companies));
        if a != b {
            investments.push((a, b));
        }
    }
    investments.shuffle(&mut rng);
    for (investor, investee) in investments {
        for _ in 0..1 + usize::from(rng.gen_bool(0.2)) {
            r.add_investment(InvestmentRecord {
                investor,
                investee,
                share: rng.gen_range(0.05..1.0),
            });
        }
    }

    let mut trades: Vec<(CompanyId, CompanyId)> = Vec::new();
    for _ in 0..rng.gen_range(0..20usize) {
        let (a, b) = (pick(&mut rng, &companies), pick(&mut rng, &companies));
        if a != b {
            trades.push((a, b));
        }
    }
    for ring in &rings {
        if rng.gen_bool(0.7) {
            trades.push((ring[0], ring[1]));
        }
    }
    trades.shuffle(&mut rng);
    for (seller, buyer) in trades {
        for _ in 0..1 + usize::from(rng.gen_bool(0.3)) {
            r.add_trading(TradingRecord {
                seller,
                buyer,
                volume: rng.gen_range(1.0..100.0),
            });
        }
    }

    if rng.gen_range(0..8u32) == 0 {
        match rng.gen_range(0..4u32) {
            0 => {
                r.add_company("orphan");
            }
            1 => {
                let d = r.add_person("D", RoleSet::of(&[Role::Director]));
                let c = r.add_company("Cd");
                r.add_influence(InfluenceRecord {
                    person: d,
                    company: c,
                    kind: InfluenceKind::DirectorOf,
                    is_legal_person: true,
                });
            }
            2 => {
                let c = pick(&mut rng, &companies);
                r.add_investment(InvestmentRecord {
                    investor: c,
                    investee: c,
                    share: 0.5,
                });
            }
            _ => r.add_influence(InfluenceRecord {
                person: pick(&mut rng, &persons),
                company: pick(&mut rng, &companies),
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            }),
        }
    }
    r
}

/// The registry the stage-chain unit tests were written over: kin legal
/// persons L1 and L2, a director D1, and a C2 <-> C3 investment cycle.
fn stage_registry() -> SourceRegistry {
    let mut r = SourceRegistry::new();
    let l1 = r.add_person("L1", RoleSet::of(&[Role::Ceo]));
    let l2 = r.add_person("L2", RoleSet::of(&[Role::Ceo]));
    let d1 = r.add_person("D1", RoleSet::of(&[Role::Director]));
    let c1 = r.add_company("C1");
    let c2 = r.add_company("C2");
    let c3 = r.add_company("C3");
    for (person, company) in [(l1, c1), (l2, c2), (l2, c3)] {
        r.add_influence(InfluenceRecord {
            person,
            company,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
    }
    r.add_influence(InfluenceRecord {
        person: d1,
        company: c1,
        kind: InfluenceKind::DirectorOf,
        is_legal_person: false,
    });
    r.add_interdependence(l1, l2, InterdependenceKind::Kinship);
    for (investor, investee, share) in [(c2, c3, 0.6), (c3, c2, 0.5)] {
        r.add_investment(InvestmentRecord {
            investor,
            investee,
            share,
        });
    }
    r.add_trading(TradingRecord {
        seller: c1,
        buyer: c2,
        volume: 10.0,
    });
    r
}

/// The two scaled fixtures `province_scale::fixture_counts_are_pinned`
/// pins counts for, built the same way.
fn scaled_fixtures() -> [(&'static str, SourceRegistry); 2] {
    const SEED: u64 = 20170417;
    let base = ProvinceConfig {
        seed: SEED,
        ..ProvinceConfig::scaled(0.1)
    };
    let mut province = generate_province(&base);
    add_random_trading(&mut province, 0.004, SEED ^ 0x7ead);
    let nation_scaled = NationConfig::scaled(0.1);
    let nation = generate_nation_with(&NationConfig {
        planted_rings: nation_scaled.planted_rings.min(base.companies / 2),
        control_chains: nation_scaled.control_chains.min(base.companies / 2),
        base,
        seed: SEED,
        ..nation_scaled
    });
    [("province-0.1", province), ("nation-0.1", nation)]
}

/// Number of random cases: 256 unless `FUSION_DIFF_CASES` says
/// otherwise.
fn case_count() -> u64 {
    std::env::var("FUSION_DIFF_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[test]
fn worked_examples_match_the_oracle() {
    for (name, registry) in [
        ("fig7", fig7_registry()),
        ("case1", case1_registry()),
        ("case2", case2_registry()),
        ("case3", case3_registry()),
        ("circular_case", circular_case_registry()),
        ("circular_control", circular_control_registry()),
        ("stages", stage_registry()),
    ] {
        check(name, &registry).expect("worked examples are valid");
    }
}

#[test]
fn stage_registry_contracts_kin_and_the_investment_cycle() {
    let (tpiin, report) = fuse(&stage_registry()).unwrap();
    // L1 + L2 merge; D1 stays alone.
    assert_eq!(tpiin.person_node[0], tpiin.person_node[1]);
    assert_ne!(tpiin.person_node[0], tpiin.person_node[2]);
    assert_eq!(
        (
            report.person_syndicate_count,
            report.person_syndicates_merged
        ),
        (2, 1)
    );
    // C2 + C3 merge, and the two arcs of their cycle become internal.
    assert_eq!(tpiin.company_node[1], tpiin.company_node[2]);
    assert_ne!(tpiin.company_node[0], tpiin.company_node[1]);
    assert_eq!(report.company_syndicates_merged, 1);
    assert_eq!(report.internal_investment_arcs_dropped, 2);
    // Two person syndicates and two company nodes, as a DAG.
    assert_eq!(tpiin.node_count(), 4);
    assert!(tpiin.csr().is_acyclic(INFLUENCE_LANE));
}

#[test]
fn random_registries_match_the_oracle() {
    let (mut invalid, mut merged, mut dropped, mut intra) = (0, 0, 0, 0);
    for case in 0..case_count() {
        let registry = random_registry(case);
        match check(&format!("case {case}"), &registry) {
            None => invalid += 1,
            Some(report) => {
                merged += usize::from(report.company_syndicates_merged > 0);
                dropped += usize::from(report.duplicate_arcs_dropped > 0);
                intra += usize::from(report.intra_syndicate_trades > 0);
            }
        }
    }
    // The generator must keep producing what the dedup and the
    // contraction can get wrong.
    let n = case_count() as usize;
    if n >= 64 {
        assert!(invalid * 20 >= n, "only {invalid} invalid registries");
        assert!(merged * 2 >= n, "only {merged} cases merged a syndicate");
        assert!(dropped * 2 >= n, "only {dropped} cases dropped a duplicate");
        assert!(intra * 5 >= n, "only {intra} cases diverted a trade");
    }
}

#[test]
fn scaled_fixtures_match_the_oracle_and_keep_their_shape() {
    let pinned = [0x3b8c_0b3f_d3bb_db83u64, 0x831e_ce86_9381_a9fc];
    for ((name, registry), want) in scaled_fixtures().into_iter().zip(pinned) {
        check(name, &registry).expect("fixtures are valid");
        let (tpiin, _) = fuse(&registry).unwrap();
        assert_eq!(shape_hash(&tpiin), want, "{name}: edge list and labels");
    }
}

/// The two full-size `bench_e2e` inputs, as `bench/e2e/src/inputs.rs`
/// builds them; they join only at soak counts (the CI release step).
#[test]
fn bench_inputs_match_the_oracle_at_soak_counts() {
    if case_count() < 1024 {
        return;
    }
    const DATA_SEED: u64 = 20170417;
    let mut dense = generate_province(&ProvinceConfig {
        seed: DATA_SEED,
        ..ProvinceConfig::default()
    });
    add_random_trading(&mut dense, 0.02, DATA_SEED ^ 0x7ead);
    let scaled = NationConfig::scaled(0.5);
    let base = ProvinceConfig {
        seed: DATA_SEED,
        ..ProvinceConfig::scaled(0.5)
    };
    let nation = generate_nation_with(&NationConfig {
        planted_rings: scaled.planted_rings.min(base.companies / 2),
        control_chains: scaled.control_chains.min(base.companies / 2),
        base,
        seed: DATA_SEED,
        ..scaled
    });
    for (name, registry) in [("dense province", dense), ("nation", nation)] {
        check(name, &registry).expect("bench inputs are valid");
    }
}
