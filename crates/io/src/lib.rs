//! `tpiin-io` — file formats around the TPIIN pipeline.
//!
//! The paper's workflow is file-based: Algorithm 1 takes a TPIIN "in the
//! form of edge list (a `r x 3` array)" and writes its findings into
//! per-subTPIIN files `susGroup(i)` and `susTrade(i)`; the source
//! relationships arrive as extracts from CSRC/HRDPSC/PTAOS systems; and
//! the trading networks were handled in Gephi.  This crate implements all
//! of those surfaces:
//!
//! * [`csv`] — a small, dependency-free RFC-4180-style CSV reader/writer;
//! * [`registry_csv`] — load/save a [`tpiin_model::SourceRegistry`] as a
//!   directory of six CSV files (one per record type);
//! * [`adapters`] — ETL from raw disclosure formats (board rosters,
//!   shareholding tables with percent strings, household registries)
//!   into a registry, resolving entities by name;
//! * [`edgelist`] — parse and render the paper's `r x 3` edge-list format
//!   and run the detector directly on it;
//! * [`reports`] — write `susGroup(i)` / `susTrade(i)` files from a
//!   detection result, plus a single JSON summary;
//! * [`graphml`] — GraphML export of a TPIIN for Gephi (the tool the
//!   paper used to generate and draw its networks);
//! * [`groupviz`] — per-group DOT drill-down views (the proof-chain
//!   screens of the Servyou system, Fig. 19);
//! * [`company_tree`] — the Fig. 17/18 investment-tree view of one
//!   company and its controlling persons;
//! * [`snapshot_bin`] — the fused-TPIIN snapshot ("fuse nightly, detect
//!   all day"): a binary zero-copy image sized for nation-scale hot
//!   reloads;
//! * [`json`] — a minimal JSON value model, writer and parser used by
//!   the reports.

pub mod adapters;
pub mod company_tree;
pub mod csv;
pub mod edgelist;
pub mod graphml;
pub mod groupviz;
pub mod json;
pub mod mutation_feed;
pub mod registry_csv;
pub mod reports;
pub mod snapshot_bin;

mod error;

pub use error::IoError;
