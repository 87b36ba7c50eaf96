//! One-line import for the types every program touches:
//!
//! ```
//! use tpiin::prelude::*;
//! ```
//!
//! Covers building a registry, running the [`Pipeline`], and reading its
//! output; reach into the per-layer modules ([`crate::graph`],
//! [`crate::io`], [`crate::ite`], …) for anything more specialized.

pub use crate::error::Error;
pub use crate::pipeline::{Pipeline, RunOutput};
pub use tpiin_core::{
    score_group, BaselineMiner, CircularTradingMiner, DetectionResult, Detector, DetectorConfig,
    GroupKind, GroupMiner, GroupRef, GroupScore, GroupTable, MineContext, MinerRegistry,
    Rule12Miner, SuspiciousGroup, WindowedMiner,
};
pub use tpiin_delta::{ApplyOutcome, DeltaConfig, DeltaEngine, DeltaPath};
pub use tpiin_fusion::{FusionReport, Tpiin};
pub use tpiin_model::{
    CompanyId, InfluenceKind, InfluenceRecord, InterdependenceKind, InvestmentRecord, Mutation,
    MutationBatch, PersonId, Role, RoleSet, SourceRegistry, TradingRecord,
};
pub use tpiin_obs::Level;
pub use tpiin_serve::{ServeConfig, ServerHandle};
