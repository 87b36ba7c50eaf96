//! The slow obvious circular miner is the oracle.
//!
//! [`reference_mine`] is `CircularTradingMiner::mine` as it stood before
//! the enumeration learned to prune: an unpruned depth-first walk from
//! every start, one `SuspiciousGroup` per ring as it is found, `retain`
//! on the score, a `sort_by` that re-scores and re-keys per comparison,
//! then the counters.  The production miner must equal it **field for
//! field** — same rings, same order, same truncation, same flagged arcs
//! — on the worked examples, planted rings, and seeded random provinces
//! across trading densities, cycle-length caps (odd ones exercise the
//! `reach` rounding), budgets on both sides of the exact ring count,
//! rate tables, score thresholds and contracted syndicates.
//!
//! `CIRCULAR_DIFF_CASES` sets the number of random cases (default 48,
//! sized for an unoptimised `cargo test`; the oracle is the slow side).
//! From 1024 up — the CI release step — the two full-size benchmark
//! inputs join.

use rand::prelude::*;
use std::collections::BTreeSet;
use tpiin::datagen::{
    add_random_trading, circular_case_registry, circular_control_registry, fig7_registry,
    generate_nation_with, generate_province, plant_trading_ring, NationConfig, ProvinceConfig,
};
use tpiin::detect::{
    CircularTradingMiner, DetectionResult, DetectorConfig, GroupKind, GroupMiner, GroupTable,
    MineContext, SuspiciousGroup,
};
use tpiin::fusion::{fuse, ArcColor, Tpiin, TpiinArc, TpiinNode, TRADING_LANE};
use tpiin::graph::NodeId;
use tpiin::model::{
    CompanyId, InfluenceKind, InfluenceRecord, InvestmentRecord, Role, RoleSet, SourceRegistry,
    TradingRecord, DEFAULT_TAX_RATE,
};

// ---------------------------------------------------------------------
// The oracle: the pre-pruning miner, kept verbatim.
// ---------------------------------------------------------------------

fn reference_node_tax_rate(tpiin: &Tpiin, ctx: &MineContext, node: NodeId) -> f64 {
    let default = DEFAULT_TAX_RATE;
    let TpiinNode::Company { members, .. } = tpiin.graph.node(node) else {
        return default;
    };
    let Some(rates) = &ctx.tax_rates else {
        return default;
    };
    if members.is_empty() {
        return default;
    }
    let sum: f64 = members
        .iter()
        .map(|c| rates.get(c.index()).copied().unwrap_or(default))
        .sum();
    sum / members.len() as f64
}

fn reference_score(tpiin: &Tpiin, ctx: &MineContext, group: &SuspiciousGroup) -> f64 {
    let cycle = &group.trail_with_trade;
    if cycle.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..cycle.len() {
        let u = reference_node_tax_rate(tpiin, ctx, cycle[i]);
        let v = reference_node_tax_rate(tpiin, ctx, cycle[(i + 1) % cycle.len()]);
        total += (u - v).abs();
    }
    total
}

fn reference_result_from_groups(
    tpiin: &Tpiin,
    groups: Vec<SuspiciousGroup>,
    overflowed: bool,
) -> DetectionResult {
    let mut result = DetectionResult {
        total_trading_arcs: tpiin.trading_arc_count + tpiin.intra_syndicate_trades.len(),
        intra_syndicate_trades: tpiin.intra_syndicate_trades.len(),
        overflowed,
        ..DetectionResult::default()
    };
    for t in &tpiin.intra_syndicate_trades {
        result.suspicious_trading_arcs.insert((
            tpiin.company_node[t.seller.index()],
            tpiin.company_node[t.buyer.index()],
        ));
    }
    for g in &groups {
        if g.simple {
            result.simple_group_count += 1;
        } else {
            result.complex_group_count += 1;
        }
        result.suspicious_trading_arcs.insert(g.trading_arc);
    }
    result.groups = GroupTable::from(&groups[..]);
    result
}

fn reference_mine(
    miner: &CircularTradingMiner,
    tpiin: &Tpiin,
    ctx: &MineContext,
) -> DetectionResult {
    let csr = tpiin.csr();
    let n = tpiin.node_count();
    let mut groups: Vec<SuspiciousGroup> = Vec::new();
    let mut overflowed = false;
    let mut on_path = vec![false; n];
    let g = |v: u32| NodeId::from_index(v as usize);

    // Canonical enumeration: every cycle is discovered exactly once,
    // from its minimum node id, walking only through larger ids.
    'starts: for s in 0..n as u32 {
        if csr.out(TRADING_LANE, s).is_empty() {
            continue;
        }
        let mut path: Vec<u32> = vec![s];
        let mut frames: Vec<usize> = vec![0];
        on_path[s as usize] = true;
        loop {
            let v = *path.last().expect("path never empty");
            let cursor = *frames.last().expect("frames mirror path");
            let succ = csr.out(TRADING_LANE, v);
            if cursor < succ.len() {
                *frames.last_mut().expect("frames mirror path") += 1;
                let w = succ[cursor];
                if w == s && path.len() >= 2 {
                    if groups.len() >= miner.max_cycles {
                        overflowed = true;
                        break 'starts;
                    }
                    groups.push(SuspiciousGroup {
                        subtpiin: 0,
                        kind: GroupKind::Circle,
                        antecedent: g(s),
                        end: g(s),
                        trading_arc: (g(v), g(s)),
                        trail_with_trade: path.iter().map(|&x| g(x)).collect(),
                        trail_plain: vec![g(s)],
                        simple: true,
                    });
                } else if w > s && !on_path[w as usize] && path.len() < miner.max_cycle_len {
                    on_path[w as usize] = true;
                    path.push(w);
                    frames.push(0);
                }
            } else {
                on_path[v as usize] = false;
                path.pop();
                frames.pop();
                if frames.is_empty() {
                    break;
                }
            }
        }
    }

    groups.retain(|c| reference_score(tpiin, ctx, c) >= miner.min_differential);
    groups.sort_by(|a, b| {
        let sa = reference_score(tpiin, ctx, a);
        let sb = reference_score(tpiin, ctx, b);
        sb.total_cmp(&sa).then_with(|| a.key().cmp(&b.key()))
    });

    let mut result = reference_result_from_groups(tpiin, groups, overflowed);
    // Unlike Rule 1/Rule 2 groups (one suspicious trading arc each),
    // every arc of a ring is suspicious.
    for grp in &result.groups {
        let cycle = &grp.trail_with_trade;
        for i in 0..cycle.len() {
            result
                .suspicious_trading_arcs
                .insert((cycle[i], cycle[(i + 1) % cycle.len()]));
        }
    }
    result
}

// ---------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------

/// Every field of the two results, named in the failure message.
fn assert_same(what: &str, got: &DetectionResult, want: &DetectionResult) {
    assert_eq!(
        got.groups.len(),
        want.groups.len(),
        "{what}: group vector length"
    );
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
    assert_eq!(
        got.per_subtpiin, want.per_subtpiin,
        "{what}: per-subTPIIN stats"
    );
    assert_eq!(got.overflowed, want.overflowed, "{what}: overflowed");
}

fn check(what: &str, miner: &CircularTradingMiner, tpiin: &Tpiin, ctx: &MineContext) {
    let what = format!(
        "{what} [len <= {}, budget {}, min {}, rates {}]",
        miner.max_cycle_len,
        miner.max_cycles,
        miner.min_differential,
        ctx.tax_rates.is_some(),
    );
    assert_same(
        &what,
        &miner.mine(tpiin, ctx),
        &reference_mine(miner, tpiin, ctx),
    );
}

/// The cycle-length caps of the issue (0 and 1 admit no ring; odd caps
/// round `reach` down) plus the even ones between.
const CYCLE_LENS: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Runs `tpiin` through each cycle-length cap of `caps` and, per cap,
/// the four budgets around the exact ring count — the `overflowed` edge.
fn check_caps_and_budgets(
    what: &str,
    tpiin: &Tpiin,
    ctx: &MineContext,
    caps: &[usize],
    min_differential: f64,
) {
    for &max_cycle_len in caps {
        let open = CircularTradingMiner {
            max_cycle_len,
            max_cycles: 100_000,
            min_differential: 0.0,
        };
        let found = open.mine(tpiin, ctx);
        assert!(
            !found.overflowed,
            "{what}: input too dense for the budget sweep"
        );
        let exact = found.group_count();
        for max_cycles in [1, exact, exact.saturating_sub(1), 100_000] {
            let miner = CircularTradingMiner {
                max_cycles,
                min_differential,
                ..open
            };
            check(what, &miner, tpiin, ctx);
        }
    }
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

fn fused(registry: &SourceRegistry) -> Tpiin {
    fuse(registry).expect("test registry fuses").0
}

fn rated(registry: &SourceRegistry) -> MineContext {
    MineContext {
        tax_rates: registry.company_tax_rates(),
        ..MineContext::default()
    }
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

const RATE_BRACKETS: [f64; 6] = [0.05, 0.17, 0.25, 0.13, 0.09, 0.21];

/// `len` companies, each under its own legal person, with no trade yet.
fn lone_companies(len: usize) -> (SourceRegistry, Vec<CompanyId>) {
    let mut r = SourceRegistry::new();
    let companies = (0..len)
        .map(|i| {
            let p = r.add_person(format!("L{i}"), RoleSet::of(&[Role::Ceo]));
            let c = r.add_company(format!("C{i}"));
            r.add_influence(InfluenceRecord {
                person: p,
                company: c,
                kind: InfluenceKind::CeoOf,
                is_legal_person: true,
            });
            c
        })
        .collect();
    (r, companies)
}

/// Overlapping planted rings of every length 2..=7 over ten companies,
/// in both directions, rates spread over the brackets.
fn ring_registry() -> SourceRegistry {
    let (mut r, c) = lone_companies(10);
    for (i, &company) in c.iter().enumerate() {
        r.set_company_tax_rate(company, RATE_BRACKETS[i % RATE_BRACKETS.len()]);
    }
    for len in 2..=7 {
        plant_trading_ring(&mut r, &c[..len]);
        let reversed: Vec<CompanyId> = c[10 - len..].iter().rev().copied().collect();
        plant_trading_ring(&mut r, &reversed);
    }
    r
}

/// [`ring_registry`]'s network with two of its planted 4-ring's arcs
/// doubled: the one closing the ring into its minimum node and the one
/// opposite it.  Fusion drops parallel trading arcs, but a network
/// assembled from loaded lanes keeps them, so the doubles go in through
/// `Tpiin::assemble` at the tail of the edge range, where trading arcs
/// live.
fn parallel_arc_network(registry: &SourceRegistry) -> Tpiin {
    let tpiin = fused(registry);
    let ring: Vec<NodeId> = (0..4).map(|c| tpiin.company_node[c]).collect();
    let min = (0..4).min_by_key(|&i| ring[i]).expect("four nodes");
    let closing = (ring[(min + 3) % 4], ring[min]);
    let opposite = (ring[(min + 1) % 4], ring[(min + 2) % 4]);
    let mut graph = tpiin.graph.clone();
    for (u, v) in [closing, opposite] {
        assert!(tpiin.find_arc(u, v, ArcColor::Trading).is_some());
        graph.add_edge(
            u,
            v,
            TpiinArc {
                color: ArcColor::Trading,
                weight: 1_000.0,
            },
        );
    }
    Tpiin::assemble(
        graph,
        tpiin.person_node.clone(),
        tpiin.company_node.clone(),
        tpiin.influence_arc_count,
        tpiin.trading_arc_count + 2,
        tpiin.intra_syndicate_trades.clone(),
        tpiin.arc_sources.clone(),
    )
}

/// The trading densities of the paper's Table 1 sweep and beyond, each
/// with the province scale that keeps the *oracle* affordable: mean
/// trading out-degree stays near five, scale at or below 0.1.
const DENSITIES: [(f64, f64); 6] = [
    (0.002, 0.1),
    (0.01, 0.1),
    (0.02, 0.1),
    (0.05, 0.03),
    (0.1, 0.02),
    (0.3, 0.008),
];

/// One seeded random province: ER trading at density `p`, planted
/// mutual-investment pairs (contracted into syndicate nodes), one
/// trade inside a syndicate (an intra-syndicate self pair) and, for
/// every other seed, a rate bracket per company.
fn random_province(seed: u64, p: f64, scale: f64) -> SourceRegistry {
    let mut registry = generate_province(&ProvinceConfig {
        seed,
        investment_cycles: 2,
        ..ProvinceConfig::scaled(scale)
    });
    add_random_trading(&mut registry, p, seed ^ 0x7ead);
    let (a, b) = (CompanyId(0), CompanyId(1));
    for (investor, investee) in [(a, b), (b, a)] {
        registry.add_investment(InvestmentRecord {
            investor,
            investee,
            share: 0.5,
        });
    }
    registry.add_trading(TradingRecord {
        seller: a,
        buyer: b,
        volume: 1.0,
    });
    if seed & 1 == 0 {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..registry.company_count() {
            registry.set_company_tax_rate(CompanyId(i as u32), pick(&mut rng, &RATE_BRACKETS));
        }
    }
    registry
}

/// Number of random cases: 48 unless `CIRCULAR_DIFF_CASES` says
/// otherwise (as `DELTA_DIFF_CASES` does for the delta differential).
fn case_count() -> u64 {
    std::env::var("CIRCULAR_DIFF_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[test]
fn worked_examples_and_planted_rings_match_the_oracle() {
    for (name, registry) in [
        ("fig7", fig7_registry()),
        ("circular_case", circular_case_registry()),
        ("circular_control", circular_control_registry()),
        ("rings", ring_registry()),
    ] {
        let tpiin = fused(&registry);
        check_caps_and_budgets(name, &tpiin, &MineContext::default(), &CYCLE_LENS, 0.0);
        check_caps_and_budgets(name, &tpiin, &rated(&registry), &CYCLE_LENS, 0.0);
        check_caps_and_budgets(name, &tpiin, &rated(&registry), &CYCLE_LENS, 0.3);
    }
}

/// The walk takes every arc of a row, so a ring through a doubled arc
/// is reported once per copy, at every level the double can sit on.
#[test]
fn parallel_arcs_match_the_oracle() {
    let registry = ring_registry();
    let tpiin = parallel_arc_network(&registry);
    check_caps_and_budgets(
        "parallel arcs",
        &tpiin,
        &MineContext::default(),
        &CYCLE_LENS,
        0.0,
    );
    check_caps_and_budgets("parallel arcs", &tpiin, &rated(&registry), &CYCLE_LENS, 0.0);
    // The doubles add rings, not just arcs: the 4-ring alone comes
    // back four times.
    let miner = CircularTradingMiner::default();
    let ctx = MineContext::default();
    let single = miner.mine(&fused(&registry), &ctx).group_count();
    assert!(miner.mine(&tpiin, &ctx).group_count() >= single + 3);
}

/// Rings sharing a closing arc rank by slice, whatever order the walk
/// finds them in.  With `n0 … n6` the company nodes in id order, the
/// start's row lists `n4, n3, n1, n2`, so the walk emits the three rings
/// closing `n5 -> n0` against slice order, with the 2-ring through `n1`
/// between them, and a ring from the start `n1` last.
#[test]
fn rings_sharing_a_closing_arc_rank_by_slice() {
    let (mut registry, companies) = lone_companies(7);
    let tpiin = fused(&registry);
    let mut by_node: Vec<(NodeId, CompanyId)> = companies
        .iter()
        .map(|&c| (tpiin.company_node[c.index()], c))
        .collect();
    by_node.sort();
    let n: Vec<NodeId> = by_node.iter().map(|&(v, _)| v).collect();
    let trades = [
        (0, 4),
        (0, 3),
        (0, 1),
        (0, 2),
        (4, 5),
        (3, 5),
        (2, 5),
        (5, 0),
        (1, 0),
        (1, 6),
        (6, 1),
    ];
    let mut graph = tpiin.graph.clone();
    for (u, v) in trades {
        let arc = TpiinArc {
            color: ArcColor::Trading,
            weight: 1.0,
        };
        graph.add_edge(n[u], n[v], arc);
    }
    let network = Tpiin::assemble(
        graph,
        tpiin.person_node.clone(),
        tpiin.company_node.clone(),
        tpiin.influence_arc_count,
        trades.len(),
        Vec::new(),
        tpiin.arc_sources.clone(),
    );
    // `[n0 n4 n5]` scores 0.8, `[n0 n3 n5]` and `[n0 n2 n5]` tie at 0.4,
    // the two 2-rings tie at 0.
    for (i, rate) in [0.1, 0.1, 0.2, 0.2, 0.5, 0.3, 0.1].into_iter().enumerate() {
        registry.set_company_tax_rate(by_node[i].1, rate);
    }

    let rings = |ids: &[&[usize]]| -> Vec<Vec<NodeId>> {
        ids.iter()
            .map(|ring| ring.iter().map(|&i| n[i]).collect())
            .collect()
    };
    let ranked = |miner: &CircularTradingMiner, ctx: &MineContext| -> Vec<Vec<NodeId>> {
        check("shared closing arcs", miner, &network, ctx);
        let result = miner.mine(&network, ctx);
        result
            .groups
            .iter()
            .map(|g| g.trail_with_trade.to_vec())
            .collect()
    };
    let open = CircularTradingMiner::default();
    let unrated = MineContext::default();
    assert_eq!(
        ranked(&open, &unrated),
        rings(&[&[0, 1], &[0, 2, 5], &[0, 3, 5], &[0, 4, 5], &[1, 6]])
    );
    assert_eq!(
        ranked(&open, &rated(&registry)),
        rings(&[&[0, 4, 5], &[0, 2, 5], &[0, 3, 5], &[0, 1], &[1, 6]])
    );
    // A budget of two keeps the first two rings the walk emits.
    let two = CircularTradingMiner {
        max_cycles: 2,
        ..open
    };
    assert_eq!(ranked(&two, &unrated), rings(&[&[0, 3, 5], &[0, 4, 5]]));
}

#[test]
fn syndicates_and_self_pairs_match_the_oracle() {
    // One province per density, each with contracted syndicates; the
    // budget sweep needs the exact ring count, so caps stay where the
    // denser inputs do not overflow.
    for (i, &(p, scale)) in DENSITIES.iter().enumerate() {
        let registry = random_province(100 + 2 * i as u64, p, scale);
        let tpiin = fused(&registry);
        assert!(
            !tpiin.intra_syndicate_trades.is_empty(),
            "p = {p}: the planted self pair must survive fusion"
        );
        for min_differential in [0.0, 0.25] {
            check_caps_and_budgets(
                &format!("syndicates p = {p}"),
                &tpiin,
                &rated(&registry),
                &[2, 3, 4],
                min_differential,
            );
        }
    }
}

#[test]
fn random_provinces_match_the_oracle() {
    let mut with_rings = 0;
    for case in 0..case_count() {
        let mut rng = StdRng::seed_from_u64(case);
        let (p, scale) = pick(&mut rng, &DENSITIES);
        let registry = random_province(case, p, scale);
        let tpiin = fused(&registry);
        let ctx = rated(&registry);
        let open = CircularTradingMiner {
            max_cycle_len: pick(&mut rng, &CYCLE_LENS),
            max_cycles: 100_000,
            min_differential: pick(&mut rng, &[0.0, 0.0, 0.1, 0.3]),
        };
        let what = format!("case {case}: p = {p}, scale {scale}");
        check(&what, &open, &tpiin, &ctx);
        // A second budget on the same network: 1, a small one, or one
        // of the two around the exact ring count when that is known
        // (the budget counts rings before the score threshold).
        let unfiltered = CircularTradingMiner {
            min_differential: 0.0,
            ..open
        }
        .mine(&tpiin, &ctx);
        let exact = unfiltered.group_count();
        let max_cycles = match rng.gen_range(0..4) {
            0 => 1,
            1 => 5_000,
            2 if !unfiltered.overflowed => exact,
            _ if !unfiltered.overflowed => exact.saturating_sub(1),
            _ => rng.gen_range(1..=1_000),
        };
        let tight = CircularTradingMiner { max_cycles, ..open };
        check(&what, &tight, &tpiin, &ctx);
        with_rings += usize::from(exact > 0);
    }
    // The generator must not drift into inputs with nothing to find
    // (a handful of cases may all draw a cap below two).
    assert!(
        case_count() < 16 || with_rings * 4 >= case_count() as usize,
        "only {with_rings} cases had a ring"
    );
}

/// The two full-size `bench_e2e` inputs, as `bench/e2e/src/inputs.rs`
/// builds them.  The oracle takes seconds on each even optimised, so
/// they join only at soak counts (the CI release step).
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
        let tpiin = fused(&registry);
        for ctx in [MineContext::default(), rated(&registry)] {
            check(name, &CircularTradingMiner::default(), &tpiin, &ctx);
        }
    }
}

/// A transitive tournament has every arc a lane can hold without a
/// cycle: the unpruned walk visits `~n^6 / 720` paths to learn that
/// (78 s at n = 100), the reverse reach never lets a walk start.
#[test]
fn dense_acyclic_lane_is_answered_without_walking_it() {
    const N: usize = 120;
    let (mut registry, c) = lone_companies(N);
    for i in 0..N {
        for j in i + 1..N {
            registry.add_trading(TradingRecord {
                seller: c[i],
                buyer: c[j],
                volume: 1.0,
            });
        }
    }
    let tpiin = fused(&registry);
    assert_eq!(tpiin.trading_arc_count, N * (N - 1) / 2);
    let result = CircularTradingMiner::default().mine(&tpiin, &MineContext::default());
    assert_eq!(result.group_count(), 0);
    assert!(result.groups.is_empty());
    assert!(!result.overflowed);
    assert_eq!(result.suspicious_trading_arcs, BTreeSet::new());

    // Counting mode reads the same arena.
    let counting = MineContext::with_config(DetectorConfig {
        collect_groups: false,
        ..DetectorConfig::default()
    });
    let counted = CircularTradingMiner::default().mine(&tpiin, &counting);
    assert_eq!(counted.group_count(), 0);
}
