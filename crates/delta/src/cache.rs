//! Shard-outcome cache keyed by local subTPIIN structure.
//!
//! [`tpiin_core::ShardMiner::mine`] is a pure function of a shard's *local*
//! topology — node colors, influence adjacency, trading adjacency — so
//! its outcome can be replayed whenever the same local structure
//! reappears, even after global node ids shifted under a re-contraction.
//! The key is a 128-bit signature (two independently seeded 64-bit
//! hashes over the packed adjacency), making accidental collisions
//! negligible; the differential test suite would surface a systematic
//! one immediately.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use tpiin_core::{DetectorConfig, ShardMiner, ShardOutcome, SubTpiin};

/// Signature of a shard's local structure, independent of global node
/// ids and of the shard's position in the segmentation.
pub(crate) type Signature = (u64, u64);

pub(crate) fn shard_signature(sub: &SubTpiin) -> Signature {
    let mut a = DefaultHasher::new();
    let mut b = DefaultHasher::new();
    0x9e37_79b9_7f4a_7c15u64.hash(&mut a);
    0xc2b2_ae3d_27d4_eb4fu64.hash(&mut b);
    let n = sub.node_count() as u32;
    for h in [&mut a, &mut b] {
        n.hash(h);
        for v in 0..n {
            sub.is_person[v as usize].hash(h);
            sub.influence(v).hash(h);
            sub.trading(v).hash(h);
        }
    }
    (a.finish(), b.finish())
}

/// Map from shard signature to mined outcome (local coordinates): one
/// entry per *distinct signature among live shards*.  A shard holds a
/// reference on the entry it mined or replayed ([`ShardCache::acquire`])
/// and gives it back when its structure changes
/// ([`ShardCache::release`]); isomorphic shards share an entry, hence a
/// count.  The live network is the bound: no capacity, no eviction.
#[derive(Default)]
pub(crate) struct ShardCache {
    map: HashMap<Signature, (ShardOutcome, u32)>,
}

impl ShardCache {
    /// Takes one reference on the entry for `sub`'s structure, looking
    /// first in this cache, then in `carry` (a full re-mine passes the
    /// cache of the network it replaces: a hit there moves the entry
    /// over), and mining the shard through `miner` when neither knows
    /// it.  Returns the signature to read the outcome under
    /// ([`ShardCache::get`]) and to release later, and whether it was a
    /// replay.  Nothing is cloned:
    /// assembly reads the outcome where it lies.
    pub(crate) fn acquire(
        &mut self,
        sub: &SubTpiin,
        config: &DetectorConfig,
        miner: &mut ShardMiner,
        carry: Option<&mut ShardCache>,
    ) -> (Signature, bool) {
        let key = shard_signature(sub);
        match self.map.entry(key) {
            Entry::Occupied(mut e) => {
                e.get_mut().1 += 1;
                (key, true)
            }
            Entry::Vacant(e) => {
                let (out, hit) = match carry.and_then(|c| c.map.remove(&key)) {
                    Some((out, _)) => (out, true),
                    None => (miner.mine(sub, config), false),
                };
                e.insert((out, 1));
                (key, hit)
            }
        }
    }

    /// The outcome (local coordinates) of an entry a shard holds.
    ///
    /// # Panics
    /// Panics when no shard holds a reference on `key`.
    pub(crate) fn get(&self, key: Signature) -> &ShardOutcome {
        &self.map[&key].0
    }

    /// Moves a shard's reference from entry `old` to entry `new` when
    /// its structure grew from the one to the other and `update` turns
    /// `old`'s outcome into `new`'s.  An entry already filed under `new`
    /// takes the reference as it is; otherwise `old`'s outcome — taken
    /// when this was its last reference, copied when not — is updated
    /// and filed under `new`.
    ///
    /// # Panics
    /// Panics when no shard holds a reference on `old`.
    pub(crate) fn rekey(
        &mut self,
        old: Signature,
        new: Signature,
        update: impl FnOnce(&mut ShardOutcome),
    ) {
        if let Some(entry) = self.map.get_mut(&new) {
            entry.1 += 1;
            self.release(old);
            return;
        }
        let Entry::Occupied(mut entry) = self.map.entry(old) else {
            panic!("the shard holds a reference on its entry");
        };
        let mut out = if entry.get().1 == 1 {
            entry.remove().0
        } else {
            entry.get_mut().1 -= 1;
            entry.get().0.clone()
        };
        update(&mut out);
        self.map.insert(new, (out, 1));
    }

    /// Gives back one reference on `key`; the last one drops the entry.
    pub(crate) fn release(&mut self, key: Signature) {
        if let Entry::Occupied(mut e) = self.map.entry(key) {
            e.get_mut().1 -= 1;
            if e.get().1 == 0 {
                e.remove();
            }
        }
    }

    /// Number of memoized shards.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}
