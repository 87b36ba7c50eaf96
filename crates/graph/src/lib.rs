//! `tpiin-graph` — a from-scratch directed multigraph substrate.
//!
//! The TPIIN pipeline of the paper needs a small set of graph operations:
//! adjacency storage with typed payloads, reachability, Tarjan's
//! strongly-connected-components algorithm (used to contract mutual
//! investment structures), weakly-connected components (used to segment a
//! TPIIN into `subTPIIN`s), node contraction into *syndicates* with
//! provenance, bipartite property checks, and DOT export for
//! inspection.  None of the offline dependency set provides these, so this
//! crate implements them directly.
//!
//! The central type is [`DiGraph`], an append-only directed multigraph.
//! Append-only storage keeps node and edge identifiers dense and stable,
//! which lets every algorithm in the workspace use plain `Vec`-indexed
//! side tables instead of hash maps on the hot path.
//!
//! # Example
//!
//! ```
//! use tpiin_graph::DiGraph;
//!
//! let mut g: DiGraph<&str, ()> = DiGraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! g.add_edge(a, b, ());
//! assert_eq!(g.out_degree(a), 1);
//! assert!(tpiin_graph::is_acyclic(&g));
//! ```

mod contraction;
mod csr;
mod digraph;
mod export;
mod ids;
mod properties;
mod scc;
mod traversal;
mod unionfind;
mod wcc;

pub use contraction::{ContractionOutcome, Partition};
pub use csr::{csr_index, CsrGraph, CsrLaneParts};
pub use digraph::{DiGraph, EdgeRef};
pub use export::{dot, edge_list, DotStyle, EdgeRender, NodeRender};
pub use ids::{EdgeId, NodeId};
pub use properties::{check_bipartite, BipartiteViolation};
pub use scc::{condensation_partition, tarjan_scc, SccScratch};
pub use traversal::{is_acyclic, reachable_from, topological_sort, CycleError};
pub use unionfind::UnionFind;
pub use wcc::weakly_connected_components;
