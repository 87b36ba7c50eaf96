//! `tpiin-core` — mining suspicious tax-evasion groups in a TPIIN.
//!
//! This crate implements the paper's contribution (Section 4.3):
//!
//! * **Algorithm 1** — segmenting a TPIIN into `subTPIIN`s (maximal
//!   weakly connected subgraphs of the antecedent network plus their
//!   internal trading arcs) and mining each independently
//!   ([`segment_tpiin`], [`Detector`]);
//! * **Algorithm 2** — building a *patterns tree* per indegree-zero node
//!   and deriving the *potential component pattern base*
//!   ([`PatternsTree`], [`generate_pattern_base`]);
//! * **pattern matching** — finding two matched component patterns with a
//!   same antecedent behind a trading arc, yielding suspicious groups and
//!   suspicious trading relationships ([`match_root`]);
//! * the **global traversal baseline** the paper compares against
//!   ([`baseline::detect_baseline`]);
//! * a **weighted scoring extension** ranking groups by investment share
//!   and trade volume ([`score::score_group`]);
//! * the **[`GroupMiner`] strategy API** — Rule 1/Rule 2, the baseline,
//!   circular-trading cycle detection and time-windowed decoration all
//!   behind one trait ([`MinerRegistry`]), so new workloads plug into
//!   the pipeline, the serve daemon and the CLI without forking the
//!   detector.
//!
//! # Counting semantics
//!
//! A *suspicious group* is an unordered pair of simple directed trails
//! with the same start (the antecedent) and end node whose edge union
//! contains exactly one trading arc, incoming to the end node
//! (Definition 2).  Following the completeness argument of Appendix A,
//! trails are anchored at indegree-zero antecedent nodes, so one
//! "economic" group is counted once per distinct anchored trail pair —
//! the same multiplicity the paper's Table 1 reports.  Trail pairs are
//! deduplicated (two component patterns sharing a prefix contribute one
//! pair), and a type-(b) walk whose trading arc re-enters its own prefix
//! contributes one *circle* group (the special case of Section 4.3).

mod baseline_impl;
mod detector;
mod listd;
mod matching;
mod miner;
mod patterns;
mod provenance;
mod query;
mod result;
mod score;
mod stats;
mod subtpiin;
mod table;
mod tree;

pub use detector::{
    assemble_detection, detect, mine_shard, Detector, DetectorConfig, ShardOutcome,
};
pub use listd::listd_order;
pub use matching::match_root;
pub use miner::{
    mine_with_obs, BaselineMiner, CircularTradingMiner, GroupMiner, MineContext, MinerRegistry,
    Rule12Miner, WindowedMiner, BASELINE_MINER, CIRCULAR_MINER, RULES_MINER,
};
pub use patterns::{generate_pattern_base, ComponentPattern};
pub use provenance::{ArcProvenance, MatchedRule, MemberLineage, Provenance, ScoreBreakdown};
pub use query::groups_behind_arc;
pub use result::{DetectionResult, GroupKind, SubTpiinStats, SuspiciousGroup};
pub use stats::{top_involved, Involvement};
pub use subtpiin::{segment_one, segment_tpiin, subtpiin_from_arcs, SubTpiin};
pub use table::{GroupRef, GroupTable, Groups, Trail};
pub use tree::{PatternsTree, TradingLeaf};

/// The global traversal baseline (Section 5.1).
pub mod baseline {
    pub use crate::baseline_impl::{detect_baseline, BaselineResult};
}

/// Weighted group scoring (the paper's future-work extension).
pub use score::{score_group, GroupScore};
