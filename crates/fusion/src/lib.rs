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
//! (*Influence*, *Trading*).  [`fuse`] builds none of the intermediate
//! graphs: it computes the two contractions as labels (union–find over
//! the interdependence records, one Tarjan pass over the investment
//! graph) and assembles the [`Tpiin`] from them once, returning it with a
//! [`FusionReport`] of per-stage statistics (the numbers behind
//! Figs. 11–16).  [`fuse_carrying`] is the same pipeline with the SCC
//! representatives of untouched companies carried over from an earlier
//! run, which is how the delta engine re-fuses.  [`verify_tpiin`] audits
//! the Appendix A properties of a finished network.

pub mod compact;

mod pipeline;
mod report;
mod tpiin;
mod verify;

pub use pipeline::{company_scc_reps, fuse, fuse_carrying, fuse_with, FuseOptions, FusionError};
pub use report::{FusionReport, StageTiming};
pub use tpiin::{
    ArcColor, IntraSyndicateTrade, NodeColor, Tpiin, TpiinArc, TpiinNode, INFLUENCE_LANE,
    TRADING_LANE,
};
pub use verify::{verify_tpiin, PropertyCheck, VerificationReport};
