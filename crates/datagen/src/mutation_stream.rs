//! Replayable mutation feeds for the streaming-ingest path.
//!
//! The delta engine's deployment story is a live CTAIS feed: trading
//! records arrive daily, the antecedent network drifts slowly, and new
//! evasion syndicates register *after* the system is already online.
//! [`generate_mutation_stream`] scripts that scenario as data: a base
//! province registry plus an ordered sequence of [`MutationBatch`]es —
//! mostly trading-only appends (the engine's surgical fast path), with
//! periodic benign registry churn (new companies that share no
//! antecedent), and a configurable number of *planted* evasion rings
//! that appear only in the second half of the stream.
//!
//! Each planted ring is the paper's Rule-1 shape in miniature: a
//! controller person (onboarded in the very first batch, long before
//! the ring exists), two shell companies registered under them as
//! legal person, and a trading arc between the shells — an interest
//! affiliated trading relationship that any correct detector must mine
//! the moment its batch lands.  Because the controller already exists,
//! the ring batch itself registers only companies and a trade — the
//! id-stable *company-append* class the delta engine splices in place —
//! while onboarding and churn batches add persons and take the
//! re-fuse path, which replays every shard they leave alone from the
//! shard cache.  Replaying the same stream (same config)
//! always yields the same batches, so feeds can be archived and driven
//! against a live daemon in CI.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpiin_model::{
    CompanyId, InfluenceKind, Mutation, MutationBatch, PersonId, Role, RoleSet, SourceRegistry,
    TradingRecord,
};

use crate::province::{generate_province, ProvinceConfig};

/// Shape of a generated mutation stream.
#[derive(Clone, Debug, PartialEq)]
pub struct MutationStreamConfig {
    /// Province scale factor for the base registry (1.0 = 4578 nodes).
    pub scale: f64,
    /// RNG seed: fixes the base registry and every batch.
    pub seed: u64,
    /// Number of batches in the feed.
    pub batches: usize,
    /// Random trading records appended per batch.
    pub records_per_batch: usize,
    /// Evasion rings planted in the second half of the stream.
    pub planted_groups: usize,
}

impl Default for MutationStreamConfig {
    fn default() -> Self {
        MutationStreamConfig {
            scale: 1.0,
            seed: 20170417,
            batches: 20,
            records_per_batch: 64,
            planted_groups: 3,
        }
    }
}

/// A base registry plus the mutation batches to replay over it.
#[derive(Clone, Debug)]
pub struct MutationStream {
    /// The day-0 antecedent network (no trading arcs).
    pub base: SourceRegistry,
    /// The feed, in replay order.
    pub batches: Vec<MutationBatch>,
    /// Batch index where each planted ring lands (all in the second
    /// half of the stream, one entry per ring).
    pub planted_at: Vec<usize>,
}

impl MutationStream {
    /// Replays every batch onto a clone of the base registry — the
    /// from-scratch ground truth the delta engine must match.
    pub fn replayed(&self) -> Result<SourceRegistry, tpiin_model::ModelError> {
        let mut registry = self.base.clone();
        for batch in &self.batches {
            batch.apply_to_registry(&mut registry)?;
        }
        Ok(registry)
    }
}

/// Generates a replayable delta feed: a base province (antecedent
/// network only) and `config.batches` mutation batches.  Most batches
/// are trading-only; every fourth batch registers one benign company
/// (fresh legal person, no shared antecedent, so it adds no groups);
/// and `config.planted_groups` evasion rings are spread over the second
/// half of the stream so suspicious groups appear only mid-stream.
///
/// Deterministic: equal configs yield equal streams.
///
/// # Panics
///
/// Panics when `planted_groups > 0` and `batches < 2` — a planted ring
/// must land mid-stream, which needs at least two batches.
pub fn generate_mutation_stream(config: &MutationStreamConfig) -> MutationStream {
    assert!(
        config.planted_groups == 0 || config.batches >= 2,
        "planted rings land mid-stream; need >= 2 batches"
    );
    let base = generate_province(&ProvinceConfig {
        seed: config.seed,
        ..ProvinceConfig::scaled(config.scale)
    });
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x6d75_7461); // "muta"
    let mut np = base.person_count() as u32;
    let mut nc = base.company_count() as u32;

    // Ring k lands at half + k·span/rings: evenly spread, all >= half.
    let half = config.batches / 2;
    let span = config.batches - half;
    let planted_at: Vec<usize> = (0..config.planted_groups)
        .map(|k| half + k * span / config.planted_groups.max(1))
        .collect();

    let mut batches = Vec::with_capacity(config.batches);
    let mut controllers: Vec<PersonId> = Vec::new();
    for b in 0..config.batches {
        let mut mutations = Vec::new();
        if b == 0 && config.planted_groups > 0 {
            // Controller onboarding: every future ring's controller
            // registers as a bare person on day one.  They hold no
            // companies until their ring lands, so the onboarding batch
            // adds no groups — but it does add persons, driving the
            // engine through its re-fuse path.
            for k in 0..config.planted_groups {
                controllers.push(PersonId(np));
                np += 1;
                mutations.push(Mutation::AddPerson {
                    name: format!("RING-P{k}"),
                    roles: RoleSet::of(&[Role::Ceo]),
                });
            }
        }
        for (k, _) in planted_at.iter().enumerate().filter(|&(_, &at)| at == b) {
            // Two shells under the pre-onboarded controller, one
            // intra-ring trade: the Rule-1 interest affiliated
            // relationship, arriving as a pure company-append batch.
            let controller = controllers[k];
            let (shell_a, shell_b) = (CompanyId(nc), CompanyId(nc + 1));
            nc += 2;
            for side in ["A", "B"] {
                mutations.push(Mutation::AddCompany {
                    name: format!("RING-{side}{k}"),
                    legal_person: controller,
                    kind: InfluenceKind::CeoOf,
                });
            }
            mutations.push(Mutation::AddTrading(TradingRecord {
                seller: shell_a,
                buyer: shell_b,
                volume: rng.gen_range(1_000.0..5_000.0),
            }));
        }
        if b % 4 == 1 && mutations.is_empty() {
            // Benign registry churn: a company under a brand-new legal
            // person shares no antecedent, so no group can involve it.
            mutations.push(Mutation::AddPerson {
                name: format!("CHURN-P{b}"),
                roles: RoleSet::of(&[Role::Ceo]),
            });
            mutations.push(Mutation::AddCompany {
                name: format!("CHURN-C{b}"),
                legal_person: PersonId(np),
                kind: InfluenceKind::CeoOf,
            });
            np += 1;
            nc += 1;
        }
        // Registry batches (plants, churn) stay pure: the feed models
        // the slow-moving antecedent extract and the high-volume
        // trading extract as separate drops, which is also what lets a
        // single-batch registry delta measure the re-fuse path alone.
        if mutations.is_empty() && nc >= 2 {
            for _ in 0..config.records_per_batch {
                let seller = rng.gen_range(0..nc);
                let mut buyer = rng.gen_range(0..nc - 1);
                if buyer >= seller {
                    buyer += 1;
                }
                mutations.push(Mutation::AddTrading(TradingRecord {
                    seller: CompanyId(seller),
                    buyer: CompanyId(buyer),
                    volume: rng.gen_range(10.0..10_000.0),
                }));
            }
        }
        batches.push(MutationBatch::new(mutations));
    }
    MutationStream {
        base,
        batches,
        planted_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpiin_core::detect;
    use tpiin_fusion::fuse;

    fn small() -> MutationStreamConfig {
        MutationStreamConfig {
            scale: 0.05,
            seed: 7,
            batches: 8,
            records_per_batch: 12,
            planted_groups: 2,
        }
    }

    #[test]
    fn deterministic_per_config() {
        let (a, b) = (
            generate_mutation_stream(&small()),
            generate_mutation_stream(&small()),
        );
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.planted_at, b.planted_at);
        assert_eq!(a.base.tradings(), b.base.tradings());
        let other = generate_mutation_stream(&MutationStreamConfig { seed: 8, ..small() });
        assert_ne!(a.batches, other.batches);
    }

    #[test]
    fn feed_replays_onto_a_valid_registry() {
        let stream = generate_mutation_stream(&small());
        assert_eq!(stream.batches.len(), 8);
        let replayed = stream.replayed().unwrap();
        assert!(replayed.validate().is_ok());
        // The plants grew the entity space beyond the base province.
        assert_eq!(replayed.person_count(), stream.base.person_count() + 2 + 2);
        assert_eq!(
            replayed.company_count(),
            stream.base.company_count() + 4 + 2
        );
    }

    #[test]
    fn stream_mixes_fast_path_and_registry_batches() {
        let stream = generate_mutation_stream(&small());
        let trading_only = stream
            .batches
            .iter()
            .filter(|b| b.is_trading_only())
            .count();
        assert!(trading_only > 0, "some batches take the surgical path");
        assert!(
            trading_only < stream.batches.len(),
            "some batches mutate the registry"
        );
        assert!(stream
            .batches
            .iter()
            .flat_map(|b| &b.mutations)
            .all(|m| !matches!(
                m,
                Mutation::RemoveCompany { .. } | Mutation::RemovePerson { .. }
            )));
    }

    #[test]
    fn ring_batches_take_the_company_append_class() {
        let stream = generate_mutation_stream(&small());
        // Controllers onboard in batch 0, so every planted ring is pure
        // AddCompany + AddTrading: the id-stable splice class.
        assert!(!stream.batches[0].is_company_append());
        for &at in &stream.planted_at {
            assert!(
                stream.batches[at].is_company_append(),
                "ring batch {at} should be a company append"
            );
        }
    }

    #[test]
    fn planted_rings_appear_only_mid_stream() {
        let config = small();
        let stream = generate_mutation_stream(&config);
        let half = config.batches / 2;
        assert_eq!(stream.planted_at.len(), config.planted_groups);
        assert!(stream.planted_at.iter().all(|&at| at >= half));

        // Ground truth: groups after the first half vs the whole feed.
        let mut registry = stream.base.clone();
        for batch in &stream.batches[..half] {
            batch.apply_to_registry(&mut registry).unwrap();
        }
        let (tpiin, _) = fuse(&registry).unwrap();
        let before = detect(&tpiin).group_count();
        for batch in &stream.batches[half..] {
            batch.apply_to_registry(&mut registry).unwrap();
        }
        let (tpiin, _) = fuse(&registry).unwrap();
        let after = detect(&tpiin).group_count();
        // Each ring is its own Rule-1 group on top of whatever the
        // random trades produce.
        assert!(
            after >= before + config.planted_groups,
            "{after} groups after vs {before} before"
        );
    }

    #[test]
    #[should_panic(expected = "mid-stream")]
    fn planting_into_a_single_batch_panics() {
        generate_mutation_stream(&MutationStreamConfig {
            batches: 1,
            planted_groups: 1,
            ..small()
        });
    }
}
