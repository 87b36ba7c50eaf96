//! `tpiin-fusion` — multi-network fusion: from source records to a TPIIN.
//!
//! Section 4.1 of the paper derives the Taxpayer Interest Interacted
//! Network through a chain of homogeneous graphs and two contraction
//! passes:
//!
//! ```text
//! G1 (interdependence)  ┐
//! G2 (influence)        ┴─> G12 ──edge contraction──> G12'   (person syndicates)
//! GI (investment)       ──┐
//! G12'                   ─┴─> G_B ──SCC contraction──> G123  (antecedent DAG)
//! G4 (trading)           ──┐
//! G123                    ─┴────────────────────────> TPIIN
//! ```
//!
//! The result has two node colors (*Person*, *Company*) and two arc colors
//! (*Influence*, *Trading*).  [`fuse`] runs the whole pipeline and returns
//! the [`Tpiin`] plus a [`FusionReport`] with per-stage statistics (the
//! numbers behind Figs. 11–16).  The contraction stages are also exposed
//! individually in [`stages`] for tests.

pub mod compact;
pub mod incremental;
pub mod stages;

mod par;
mod pipeline;
mod report;
mod tpiin;
mod verify;

pub use pipeline::{fuse, fuse_with, FuseOptions, FusionError};
pub use report::{FusionReport, StageTiming};
pub use tpiin::{
    ArcColor, IntraSyndicateTrade, NodeColor, Tpiin, TpiinArc, TpiinNode, INFLUENCE_LANE,
    TRADING_LANE,
};
pub use verify::{verify_tpiin, PropertyCheck, VerificationReport};
