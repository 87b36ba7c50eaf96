//! `tpiin-delta` — incremental TPIIN maintenance under streaming ingest.
//!
//! The paper's deployment story is a live feed: "the number of annual
//! tax-related business records is up to 1 billion, the daily peak of
//! these records is up to ten million".  Re-running the full fusion
//! pipeline ([`tpiin_fusion::fuse`]) plus Algorithm 1 for every arriving
//! extract drop is wasteful — most mutations touch a tiny corner of the
//! network.  This crate maintains a fused TPIIN *and* its mined
//! suspicious groups incrementally under typed registry mutations
//! ([`tpiin_model::MutationBatch`]), with a hard correctness bar: after
//! any mutation sequence the maintained network and groups are
//! **bit-identical** to a from-scratch `fuse` + `detect` over the
//! equivalent registry.
//!
//! [`DeltaEngine`] routes each batch down one of four paths
//! ([`DeltaPath`]):
//!
//! * **Trading append** — batches of `AddTrading` mutations patch arcs
//!   surgically into the frozen network (appended records carry the
//!   highest dedup sequence numbers, so a surgical append is exactly
//!   what the full pipeline would produce);
//! * **Company append** — batches that only register companies (plus
//!   trading) splice each new company node and its legal-person arc
//!   into the frozen network: a new company is a singleton SCC with the
//!   highest id, so no existing node id moves;
//! * **Incremental** — other id-stable antecedent mutations re-fuse
//!   through [`tpiin_fusion::fuse_carrying`], the assembler `fuse`
//!   itself runs, carrying the SCC representatives of every weak
//!   component of the investment graph the batch left clean, so Tarjan
//!   re-runs only over the touched ones;
//! * **Full rebuild** — the escape hatch for id-renumbering mutations
//!   (entity removals) and for deltas whose blast radius exceeds
//!   [`DeltaConfig::blast_radius`]: a from-scratch fusion, timed and
//!   counted so the fallback stays honest.
//!
//! Mining after a patch is shard-cached: subTPIINs are keyed by a
//! 128-bit signature of their *local* structure, and shards untouched by
//! a delta replay their cached groups instead of re-running Algorithm 2
//! (see [`tpiin_core::mine_shard`]).  The cache holds one outcome per
//! distinct shape among the *live* shards — a re-mined shard gives its
//! previous entry back — so the engine's state tracks the network, not
//! the number of batches it has absorbed.  Cached or fresh, shard outcomes
//! become a result only through [`tpiin_core::assemble_detection`] — the
//! detector's own assembler — so the engine carries no copy of it.

mod cache;
mod engine;
mod stats;

pub use engine::{ApplyOutcome, DeltaConfig, DeltaEngine, DeltaError, DeltaPath};
pub use stats::DeltaStats;
