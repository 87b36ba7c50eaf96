//! Property-based tests for the graph algorithms the pipeline runs —
//! `CsrGraph::{tarjan_scc, weak_components, is_acyclic}` and
//! `SccScratch` — checked on random graphs against naive references
//! written here: depth-first reachability over plain adjacency vectors.

use proptest::prelude::*;
use tpiin_graph::{CsrGraph, DiGraph, SccScratch, UnionFind};

/// A random multigraph as `(node count, arcs)`: self-loops and parallel
/// arcs allowed.
type Arcs = (usize, Vec<(usize, usize)>);

/// Strategy: up to `max_n` nodes and `max_m` arcs.
fn arb_arcs(max_n: usize, max_m: usize) -> impl Strategy<Value = Arcs> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..=max_m).prop_map(move |arcs| (n, arcs))
    })
}

/// Strategy: a random DAG (arcs only from lower to higher index).
fn arb_dag(max_n: usize, max_m: usize) -> impl Strategy<Value = Arcs> {
    arb_arcs(max_n, max_m)
        .prop_map(|(n, arcs)| (n, arcs.into_iter().filter(|&(a, b)| a < b).collect()))
}

/// Freezes the arcs into one lane (`lane_count == 1`) or two lanes
/// split by arc parity, so a lane is a strict subset of the arcs.
fn freeze(n: usize, arcs: &[(usize, usize)], lane_count: usize) -> CsrGraph {
    let mut g: DiGraph<(), usize> = DiGraph::new();
    let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
    for (i, &(a, b)) in arcs.iter().enumerate() {
        g.add_edge(ids[a], ids[b], i % lane_count);
    }
    g.freeze_lanes(lane_count, |_, &lane| lane)
}

/// The arcs of `lane` (see [`freeze`]) as adjacency vectors.
fn adjacency(n: usize, arcs: &[(usize, usize)], lane_count: usize, lane: usize) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for (i, &(a, b)) in arcs.iter().enumerate() {
        if i % lane_count == lane {
            adj[a].push(b);
        }
    }
    adj
}

/// `reach[v][w]`: a path (possibly empty) leads from `v` to `w`.
fn naive_reach(adj: &[Vec<usize>]) -> Vec<Vec<bool>> {
    (0..adj.len())
        .map(|root| {
            let mut seen = vec![false; adj.len()];
            let mut stack = vec![root];
            seen[root] = true;
            while let Some(v) = stack.pop() {
                for &w in &adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            seen
        })
        .collect()
}

/// The same adjacency with every arc also reversed.
fn undirected(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut both = adj.to_vec();
    for (v, out) in adj.iter().enumerate() {
        for &w in out {
            both[w].push(v);
        }
    }
    both
}

/// Whether some node reaches itself over at least one arc.
fn naive_has_cycle(adj: &[Vec<usize>]) -> bool {
    let reach = naive_reach(adj);
    (0..adj.len()).any(|v| adj[v].iter().any(|&w| reach[w][v]))
}

/// Labels of a node partition given as member lists.
fn labels_of(n: usize, components: &[Vec<u32>]) -> Vec<usize> {
    let mut label = vec![usize::MAX; n];
    for (i, comp) in components.iter().enumerate() {
        for &v in comp {
            assert_eq!(label[v as usize], usize::MAX, "node {v} in two components");
            label[v as usize] = i;
        }
    }
    label
}

proptest! {
    #[test]
    fn tarjan_scc_matches_naive_mutual_reachability(
        (n, arcs) in arb_arcs(14, 36),
        lane_count in 1usize..3,
    ) {
        let csr = freeze(n, &arcs, lane_count);
        for lane in 0..lane_count {
            let adj = adjacency(n, &arcs, lane_count, lane);
            let reach = naive_reach(&adj);
            let comps = csr.tarjan_scc(lane);
            let label = labels_of(n, &comps);
            prop_assert!(label.iter().all(|&l| l != usize::MAX), "a node is missing");
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(
                        label[a] == label[b],
                        reach[a][b] && reach[b][a],
                        "SCC disagreement on nodes {} and {}", a, b
                    );
                }
            }
            // Reverse topological order: an arc's head component is
            // emitted no later than its tail component.
            for (a, out) in adj.iter().enumerate() {
                for &b in out {
                    prop_assert!(label[b] <= label[a], "arc {}->{} out of order", a, b);
                }
            }
        }
    }

    #[test]
    fn scc_scratch_reps_are_min_mutual_members_per_weak_component(
        (n, arcs) in arb_arcs(14, 36),
    ) {
        let adj = adjacency(n, &arcs, 1, 0);
        let reach = naive_reach(&adj);
        let weak = naive_reach(&undirected(&adj));
        let csr = freeze(n, &arcs, 1);
        let (offsets, targets) = (csr.lane_out_offsets(0), csr.lane_out_targets(0));

        // One run over every node, and one run per weak component through
        // the same scratch, last component first.
        let mut whole = vec![u32::MAX; n];
        let all: Vec<u32> = (0..n as u32).collect();
        SccScratch::new(n).run(offsets, targets, &all, |v, rep| whole[v as usize] = rep);
        let mut per_component = vec![u32::MAX; n];
        let mut scratch = SccScratch::new(n);
        for root in (0..n).rev() {
            if (0..root).any(|v| weak[root][v]) {
                continue;
            }
            let subset: Vec<u32> = (0..n as u32).filter(|&v| weak[root][v as usize]).collect();
            scratch.run(offsets, targets, &subset, |v, rep| per_component[v as usize] = rep);
        }

        for v in 0..n {
            let want = (0..n).find(|&w| reach[v][w] && reach[w][v]).expect("v reaches v");
            prop_assert_eq!(whole[v] as usize, want, "rep of node {}", v);
        }
        prop_assert_eq!(per_component, whole);
    }

    #[test]
    fn weak_components_match_naive_undirected_reachability(
        (n, arcs) in arb_arcs(25, 50),
        lane_count in 1usize..3,
    ) {
        let csr = freeze(n, &arcs, lane_count);
        for lane in 0..lane_count {
            let adj = adjacency(n, &arcs, lane_count, lane);
            let weak = naive_reach(&undirected(&adj));
            let (labels, count) = csr.weak_components(lane);
            // Dense labels, numbered by first appearance in node order.
            let mut next = 0;
            for &l in &labels {
                prop_assert!(l <= next, "label {} before {}", l, next);
                next = next.max(l + 1);
            }
            prop_assert_eq!(next as usize, count);
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(labels[a] == labels[b], weak[a][b], "nodes {} and {}", a, b);
                }
            }
            let mut uf = UnionFind::new(n);
            for (a, out) in adj.iter().enumerate() {
                for &b in out {
                    uf.union(a, b);
                }
            }
            prop_assert_eq!(uf.set_count(), count);
        }
    }

    #[test]
    fn is_acyclic_matches_naive_cycle_search(
        (n, arcs) in arb_arcs(12, 20),
        lane_count in 1usize..3,
    ) {
        let csr = freeze(n, &arcs, lane_count);
        for lane in 0..lane_count {
            let adj = adjacency(n, &arcs, lane_count, lane);
            prop_assert_eq!(csr.is_acyclic(lane), !naive_has_cycle(&adj), "lane {}", lane);
        }
    }

    #[test]
    fn generated_dags_are_acyclic_and_all_singletons((n, arcs) in arb_dag(20, 80)) {
        let csr = freeze(n, &arcs, 1);
        prop_assert!(csr.is_acyclic(0));
        prop_assert_eq!(csr.tarjan_scc(0).len(), n);
    }

    #[test]
    fn closing_a_path_into_a_ring_makes_one_cycle(n in 2usize..10) {
        let mut arcs: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
        arcs.push((n - 1, 0));
        let csr = freeze(n, &arcs, 1);
        prop_assert!(!csr.is_acyclic(0));
        prop_assert_eq!(csr.tarjan_scc(0).len(), 1);
    }
}
