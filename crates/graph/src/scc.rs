//! Iterative Tarjan strongly-connected-components algorithm.
//!
//! The paper contracts every strongly connected subgraph of the investment
//! graph `GI` into a company syndicate so that the antecedent network
//! `G123` becomes a DAG (Section 4.1, citing Tarjan 1972).  [`SccScratch`]
//! is the tree's one Tarjan: fusion runs it over the investment graph,
//! the delta engine over the weak components an edit touched, and
//! [`crate::CsrGraph::tarjan_scc`] over one lane of a frozen graph.

const UNVISITED: u32 = u32::MAX;

/// Reusable scratch state for running Tarjan over node subsets of a flat
/// CSR adjacency (`offsets`/`targets` arrays, as produced by edge
/// counting + prefix sum).
///
/// Fusion and [`crate::CsrGraph::tarjan_scc`] run it over every node; a
/// subset may also be one weak component at a time.  Because a weak
/// component is closed under edges, Tarjan never leaves the subset it
/// was started on.  The scratch arrays are sized for the full graph but
/// never reset between calls: each node belongs to at most one subset,
/// so its `visited` slot is written at most once over the scratch's
/// lifetime.
///
/// For every node of the subset the callback receives `(node, rep)`
/// where `rep` is the **minimum member** of the node's SCC.  Minimum-
/// member representatives depend only on the component's membership,
/// never on traversal order or on how the nodes were split into subsets.
#[derive(Debug)]
pub struct SccScratch {
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// Explicit DFS call stack: (node, next successor offset).
    call: Vec<(u32, u32)>,
    next_index: u32,
}

impl SccScratch {
    /// Scratch for a CSR with `n` nodes.
    pub fn new(n: usize) -> Self {
        SccScratch {
            index: vec![UNVISITED; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            call: Vec::new(),
            next_index: 0,
        }
    }

    /// Runs Tarjan over the nodes of `subset`, which must be closed under
    /// the CSR's edges (e.g. a union of weak components) and disjoint
    /// from every subset previously passed to this scratch.  Emits
    /// `(node, min_member_rep)` once per subset node.
    ///
    /// Roots are taken in `subset` order and successors in slice order.
    /// Each SCC is emitted as one contiguous run, its members in stack
    /// pop order, and the runs come in reverse topological order of the
    /// condensation: if one SCC has an arc into another, the other's run
    /// comes first.
    pub fn run(
        &mut self,
        offsets: &[u32],
        targets: &[u32],
        subset: &[u32],
        mut emit: impl FnMut(u32, u32),
    ) {
        let mut component: Vec<u32> = Vec::new();
        for &root in subset {
            if self.index[root as usize] != UNVISITED {
                continue;
            }
            self.visit(root);
            while let Some(&mut (v, ref mut next)) = self.call.last_mut() {
                let vi = v as usize;
                let succ = offsets[vi] + *next;
                if succ < offsets[vi + 1] {
                    *next += 1;
                    let w = targets[succ as usize];
                    let wi = w as usize;
                    if self.index[wi] == UNVISITED {
                        self.visit(w);
                    } else if self.on_stack[wi] {
                        self.lowlink[vi] = self.lowlink[vi].min(self.index[wi]);
                    }
                } else {
                    self.call.pop();
                    if let Some(&(parent, _)) = self.call.last() {
                        let pi = parent as usize;
                        self.lowlink[pi] = self.lowlink[pi].min(self.lowlink[vi]);
                    }
                    if self.lowlink[vi] == self.index[vi] {
                        component.clear();
                        loop {
                            let w = self.stack.pop().expect("tarjan stack underflow");
                            self.on_stack[w as usize] = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        let rep = *component.iter().min().expect("non-empty SCC");
                        for &w in &component {
                            emit(w, rep);
                        }
                    }
                }
            }
        }
    }

    fn visit(&mut self, v: u32) {
        self.index[v as usize] = self.next_index;
        self.lowlink[v as usize] = self.next_index;
        self.next_index += 1;
        self.stack.push(v);
        self.on_stack[v as usize] = true;
        self.call.push((v, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the flat CSR used by [`SccScratch`] from an edge list.
    fn flat_csr(edges: &[(u32, u32)], n: usize) -> (Vec<u32>, Vec<u32>) {
        let mut offsets = vec![0u32; n + 1];
        for &(s, _) in edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(s, t) in edges {
            targets[cursor[s as usize] as usize] = t;
            cursor[s as usize] += 1;
        }
        (offsets, targets)
    }

    fn scratch_reps(edges: &[(u32, u32)], n: usize, subsets: &[&[u32]]) -> Vec<u32> {
        let (offsets, targets) = flat_csr(edges, n);
        let mut scratch = SccScratch::new(n);
        let mut reps = vec![u32::MAX; n];
        for subset in subsets {
            scratch.run(&offsets, &targets, subset, |v, rep| reps[v as usize] = rep);
        }
        reps
    }

    fn all_reps(edges: &[(u32, u32)], n: usize) -> Vec<u32> {
        let all: Vec<u32> = (0..n as u32).collect();
        scratch_reps(edges, n, &[&all])
    }

    #[test]
    fn dag_yields_singletons() {
        assert_eq!(all_reps(&[(0, 1), (1, 2)], 3), vec![0, 1, 2]);
    }

    #[test]
    fn simple_cycle_is_one_component() {
        assert_eq!(all_reps(&[(0, 1), (1, 2), (2, 0)], 3), vec![0, 0, 0]);
    }

    #[test]
    fn mutual_investment_pair_plus_tail() {
        // The paper's Fig. A-3 situation: two companies invest in each other.
        assert_eq!(all_reps(&[(0, 1), (1, 0), (1, 2)], 3), vec![0, 0, 2]);
    }

    #[test]
    fn self_loop_is_its_own_component() {
        assert_eq!(all_reps(&[(0, 0), (0, 1)], 2), vec![0, 1]);
    }

    #[test]
    fn disconnected_nodes_each_form_a_component() {
        assert_eq!(all_reps(&[], 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn two_nested_cycles_sharing_a_node_merge() {
        // 0->1->2->0 and 1->3->1 share node 1 => one SCC of {0,1,2,3}.
        let edges = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 1)];
        assert_eq!(all_reps(&edges, 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn scratch_matches_tarjan_on_full_graph() {
        let edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 4)];
        assert_eq!(all_reps(&edges, 6), vec![0, 0, 2, 2, 4, 5]);
    }

    #[test]
    fn scratch_runs_per_component_without_reset() {
        // Two weak components: {0,1,2} with a cycle, {3,4} a path.  Run
        // them as separate subsets through ONE scratch — the second call
        // must not be confused by state left over from the first.
        let edges = [(0, 1), (1, 0), (1, 2), (3, 4)];
        let reps = scratch_reps(&edges, 5, &[&[0, 1, 2], &[3, 4]]);
        assert_eq!(reps, vec![0, 0, 2, 3, 4]);
    }

    #[test]
    fn scratch_reps_are_subset_order_independent() {
        let edges = [(0, 1), (1, 0), (2, 3), (3, 2)];
        let forward = scratch_reps(&edges, 4, &[&[0, 1], &[2, 3]]);
        let backward = scratch_reps(&edges, 4, &[&[2, 3], &[0, 1]]);
        let whole = scratch_reps(&edges, 4, &[&[0, 1, 2, 3]]);
        assert_eq!(forward, backward);
        assert_eq!(forward, whole);
    }

    #[test]
    fn large_path_graph_does_not_overflow_stack() {
        // 200k-node path: a recursive Tarjan would blow the stack.
        let n = 200_000u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (v - 1, v)).collect();
        let reps = all_reps(&edges, n as usize);
        assert!(reps.iter().enumerate().all(|(v, &r)| r == v as u32));
    }
}
