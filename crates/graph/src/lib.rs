//! `tpiin-graph` — a from-scratch directed multigraph substrate.
//!
//! The TPIIN pipeline of the paper needs a small set of graph operations:
//! node and edge columns with typed payloads, a frozen per-colour CSR
//! adjacency for every neighbour question, Tarjan's
//! strongly-connected-components algorithm (used to contract mutual
//! investment structures), weakly-connected components
//! (used to segment a TPIIN into `subTPIIN`s) and a DAG check for the
//! antecedent network.  None of the offline dependency set provides
//! these, so this crate implements them directly.
//!
//! [`DiGraph`] is an append-only directed multigraph holding only its
//! node and edge columns: append-only storage keeps node and edge
//! identifiers dense and stable, so every algorithm in the workspace
//! uses plain `Vec`-indexed side tables instead of hash maps.
//! [`DiGraph::freeze`] packs the edge column into a [`CsrGraph`], the
//! only adjacency, which is what the algorithms run on.  There is one
//! Tarjan, [`SccScratch`]; [`CsrGraph::tarjan_scc`] is a wrapper over it.
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
//! let csr = g.freeze();
//! assert_eq!(csr.out_degree(0, 0), 1);
//! assert!(csr.is_acyclic(0));
//! ```

mod csr;
mod digraph;
mod ids;
mod scc;
mod unionfind;

pub use csr::{csr_index, CsrGraph};
pub use digraph::{DiGraph, EdgeRef};
pub use ids::{EdgeId, NodeId};
pub use scc::SccScratch;
pub use unionfind::UnionFind;
