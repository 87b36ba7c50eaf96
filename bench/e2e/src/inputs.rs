//! Workload inputs and the sampling the run's `--seed` drives.
//!
//! The *structure* of every generated network is pinned to
//! [`DATA_SEED`]: across generator seeds the mined-group count of the
//! nation moves by ±10 % and that of the dense province by 2×, which
//! is wider than every regression bound, so a seed-varied structure
//! would make each metric unresolved by construction.  `--seed` drives
//! what a deployment really varies from day to day on a fixed
//! registry: which taxpayers, arcs and groups the analysts ask about,
//! the page offsets, and the order of the request mix.

use tpiin_datagen::{
    add_random_trading, generate_mutation_stream, generate_nation_with, generate_province,
    MutationStream, MutationStreamConfig, NationConfig, ProvinceConfig,
};
use tpiin_model::SourceRegistry;

/// Generator seed of every input network (the paper's date, and the
/// generators' own default).
pub const DATA_SEED: u64 = 20170417;

/// Input sizes: the benchmark's own, or the sub-10-second smoke sizes
/// the tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// The national registry: provinces of half the paper's population,
/// intra- and cross-province trading, planted rings and controls.
/// Full size fuses to ≈45k nodes and 372 subTPIINs — many small shards.
pub fn nation(size: Size) -> SourceRegistry {
    let (nation_scale, province_scale) = match size {
        Size::Full => (0.5, 0.5),
        Size::Smoke => (0.1, 0.05),
    };
    let scaled = NationConfig::scaled(nation_scale);
    let base = ProvinceConfig {
        seed: DATA_SEED,
        ..ProvinceConfig::scaled(province_scale)
    };
    generate_nation_with(&NationConfig {
        planted_rings: scaled.planted_rings.min(base.companies / 2),
        control_chains: scaled.control_chains.min(base.companies / 2),
        base,
        seed: DATA_SEED,
        ..scaled
    })
}

/// One province at the paper's size with a dense trading layer
/// (p = 0.02, ≈120k trading arcs over ≈4.3k nodes): few large shards,
/// and more trading cycles than the circular miner's budget.  At smoke
/// size it is also the small sibling input of the rules == baseline
/// check.
pub fn dense_province(size: Size) -> SourceRegistry {
    let config = match size {
        Size::Full => ProvinceConfig::default(),
        Size::Smoke => ProvinceConfig::scaled(0.05),
    };
    let mut registry = generate_province(&ProvinceConfig {
        seed: DATA_SEED,
        ..config
    });
    add_random_trading(&mut registry, 0.02, DATA_SEED ^ 0x7ead);
    registry
}

/// The streaming feed: a half-size province with no trading, then
/// batches of 64 trading records with evasion rings planted in the
/// second half.  Served state grows from 0 to >10k groups over the
/// feed, so a per-batch cost proportional to total state shows.
pub fn mutation_stream(size: Size) -> MutationStream {
    let config = match size {
        Size::Full => MutationStreamConfig {
            scale: 0.5,
            batches: 160,
            records_per_batch: 64,
            planted_groups: 8,
            seed: DATA_SEED,
        },
        Size::Smoke => MutationStreamConfig {
            scale: 0.05,
            batches: 24,
            records_per_batch: 16,
            planted_groups: 2,
            seed: DATA_SEED,
        },
    };
    generate_mutation_stream(&config)
}

/// SplitMix64: the sampling generator `--seed` feeds.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Picks `k` items from `sorted`, one from each of `k` equal slices,
/// so every seed draws the same spread of sizes and only the
/// individuals differ.  Returns fewer when `sorted` is shorter than `k`.
pub fn stratified<T: Copy>(sorted: &[T], k: usize, rng: &mut Rng) -> Vec<T> {
    let k = k.min(sorted.len());
    (0..k)
        .map(|i| {
            let (lo, hi) = (i * sorted.len() / k, (i + 1) * sorted.len() / k);
            sorted[lo + rng.below(hi - lo)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_and_strata_are_respected() {
        let items: Vec<usize> = (0..80).collect();
        let a = stratified(&items, 8, &mut Rng::new(7));
        let b = stratified(&items, 8, &mut Rng::new(7));
        let c = stratified(&items, 8, &mut Rng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        for (i, pick) in a.iter().enumerate() {
            assert!((i * 10..(i + 1) * 10).contains(pick));
        }
        assert_eq!(stratified(&items[..3], 8, &mut Rng::new(1)).len(), 3);
    }
}
