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
//! [`DeltaEngine`] routes each batch down one of three paths
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
//! * **Full rebuild** — every other registry mutation (persons,
//!   investments, interdependence, removals) re-fuses the mutated
//!   registry from scratch with [`tpiin_fusion::fuse`] and re-mines
//!   through the shard cache, which the re-fuse keeps: a shard the
//!   batch left alone replays even when its node ids moved.
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

pub use engine::{ApplyOutcome, DeltaEngine, DeltaError, DeltaPath};
pub use stats::DeltaStats;
