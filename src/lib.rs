//! `tpiin` — facade crate re-exporting the whole workspace public API.
//!
//! This is the crate downstream users depend on.  It reproduces the system
//! of *"Mining Suspicious Tax Evasion Groups in Big Data"* (ICDE 2017):
//! the Taxpayer Interest Interacted Network (TPIIN) model, the
//! multi-network fusion pipeline that builds it, and the suspicious-group
//! detection algorithms.
//!
//! * [`graph`] — directed multigraph substrate (Tarjan SCC, WCC,
//!   contraction, export).
//! * [`model`] — taxpayer domain model (persons, roles, companies,
//!   source relationships).
//! * [`fusion`] — `G1 … G123 + G4 -> TPIIN` multi-network fusion.
//! * [`detect`] — Algorithm 1/2 and pattern matching (the paper's
//!   contribution), the baseline, and the
//!   [`detect::GroupMiner`] strategy API behind which every detection
//!   workload — Rule 1/Rule 2, the baseline oracle, circular-trading
//!   cycles, time-windowed variants — plugs in uniformly
//!   ([`Pipeline::miner`]).
//! * [`datagen`] — synthetic province generator and worked-example
//!   builders.
//! * [`delta`] — the delta-fusion engine: incremental TPIIN maintenance
//!   under streaming registry + trading mutation batches
//!   ([`Pipeline::delta`]), bit-identical to a from-scratch re-fuse.
//! * [`io`] — CSV registries, the paper's edge-list format,
//!   susGroup/susTrade reports, GraphML export.
//! * [`ite`] — the ITE phase: transaction-level arm's-length screening
//!   over the suspicious groups (Fig. 4's second stage).
//! * [`obs`] — observability substrate: metrics registry, RAII span
//!   timers, leveled logging, run-profile export.
//! * [`serve`] — the always-on query/ingest daemon: hot-swappable
//!   snapshots behind a hand-rolled HTTP/1.1 front ([`Pipeline::serve`]).
//!
//! # Using the library
//!
//! The front door is the [`Pipeline`] builder with the [`prelude`]:
//!
//! ```
//! use tpiin::prelude::*;
//!
//! let mut registry = SourceRegistry::new();
//! let boss = registry.add_person("Boss", RoleSet::of(&[Role::Ceo]));
//! let a = registry.add_company("A");
//! let b = registry.add_company("B");
//! for company in [a, b] {
//!     registry.add_influence(InfluenceRecord {
//!         person: boss, company,
//!         kind: InfluenceKind::CeoOf, is_legal_person: true,
//!     });
//! }
//! registry.add_trading(TradingRecord { seller: a, buyer: b, volume: 1.0 });
//!
//! let out = Pipeline::from_registry(&registry).run()?;
//! assert_eq!(out.groups.group_count(), 1);
//! # Ok::<(), tpiin::Error>(())
//! ```

mod error;
mod pipeline;
pub mod prelude;

pub use error::Error;
pub use pipeline::{Pipeline, RunOutput};

pub use tpiin_core as detect;
pub use tpiin_datagen as datagen;
pub use tpiin_delta as delta;
pub use tpiin_fusion as fusion;
pub use tpiin_graph as graph;
pub use tpiin_io as io;
pub use tpiin_ite as ite;
pub use tpiin_model as model;
pub use tpiin_obs as obs;
pub use tpiin_serve as serve;
