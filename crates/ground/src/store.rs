//! The sharded, concurrent ground-side reference store.
//!
//! Downlink stations decode captures in parallel; admitting the resulting
//! cloud-free references into one `Mutex<HashMap>` serializes every
//! ingest. [`ShardedReferenceStore`] splits the keyspace across
//! `RwLock`-guarded shards keyed by a hash of `(LocationId, Band)`, so
//! writers only contend when they land on the same shard and readers (the
//! uplink scheduler) never block each other.

use crate::backend::ingest_sharded;
use crate::reference::ReferenceImage;
use earthplus_raster::{Band, LocationId};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::RwLock;

/// Cheap FNV-1a hasher for shard selection. Shard routing only needs a
/// few well-mixed bits and runs on every store operation, so the default
/// SipHash is measurable overhead here; the per-shard `HashMap`s keep
/// their DoS-resistant default hasher.
#[derive(Debug, Default)]
struct ShardHasher(u64);

impl Hasher for ShardHasher {
    fn finish(&self) -> u64 {
        // Final avalanche so consecutive LocationIds spread over shards.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = if self.0 == 0 {
            0xCBF2_9CE4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// Shard an operation on `(location, band)` routes to, out of
/// `shard_count` shards.
///
/// Shared by both backends: [`ShardedReferenceStore`] uses it to pick an
/// in-memory shard, [`crate::ReplicatedReferenceStore`] to pick a shard
/// directory — so multi-ground-station sharding maps one-to-one onto disk
/// layout, and a shard's files can be rehomed to another station without
/// re-routing keys.
pub fn shard_index(location: LocationId, band: Band, shard_count: usize) -> usize {
    let mut hasher = ShardHasher::default();
    (location, band).hash(&mut hasher);
    (hasher.finish() as usize) % shard_count.max(1)
}

/// Outcome of one (possibly parallel) batch ingest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// References admitted (fresher than what the store held).
    pub accepted: u64,
    /// References rejected (the store already held a copy at least as
    /// fresh).
    pub rejected: u64,
}

impl IngestReport {
    /// Total references offered.
    pub fn offered(&self) -> u64 {
        self.accepted + self.rejected
    }
}

type Shard = RwLock<HashMap<(LocationId, Band), ReferenceImage>>;

/// Concurrent pool of the freshest cloud-free reference per
/// `(location, band)`, sharded by key hash.
///
/// Same freshest-wins semantics as [`crate::reference::ReferencePool`],
/// but every method takes `&self`, so the store can be shared across the
/// ingest worker pool and the uplink scheduler without external locking.
#[derive(Debug)]
pub struct ShardedReferenceStore {
    shards: Vec<Shard>,
}

impl ShardedReferenceStore {
    /// Default shard count: enough to make cross-thread collisions rare on
    /// workstation core counts without bloating iteration.
    pub(crate) const DEFAULT_SHARDS: usize = 16;

    /// Creates a store with `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedReferenceStore {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    /// Number of shards.
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, location: LocationId, band: Band) -> &Shard {
        &self.shards[shard_index(location, band, self.shards.len())]
    }

    /// Offers a new cloud-free reference; kept if fresher than the current
    /// one. Returns whether the store updated.
    pub(crate) fn offer(&self, reference: ReferenceImage) -> bool {
        let shard = self.shard_of(reference.location, reference.band);
        insert_fresher(&mut shard.write().expect("store shard poisoned"), reference)
    }

    /// The freshest reference for a location/band, cloned out of the
    /// shard. References are heavily downsampled (~100 low-res pixels at
    /// the paper's 51× factor), so the clone is cheap.
    pub(crate) fn get(&self, location: LocationId, band: Band) -> Option<ReferenceImage> {
        self.shard_of(location, band)
            .read()
            .expect("store shard poisoned")
            .get(&(location, band))
            .cloned()
    }

    /// The capture day of the freshest reference, without cloning it —
    /// the scheduler's cheap staleness probe.
    pub(crate) fn fresh_day(&self, location: LocationId, band: Band) -> Option<f64> {
        self.shard_of(location, band)
            .read()
            .expect("store shard poisoned")
            .get(&(location, band))
            .map(|r| r.captured_day)
    }

    /// Number of (location, band) entries.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("store shard poisoned").len())
            .sum()
    }

    /// Total stored bytes across all shards.
    pub(crate) fn size_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("store shard poisoned")
                    .values()
                    .map(|r| r.size_bytes())
                    .sum::<u64>()
            })
            .sum()
    }

    /// Every (location, band) key currently held.
    pub(crate) fn keys(&self) -> Vec<(LocationId, Band)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(shard.read().expect("store shard poisoned").keys().copied());
        }
        out
    }

    /// Ingests a batch of downlinked references on a `std::thread` worker
    /// pool of `threads` workers (clamped to at least 1).
    ///
    /// References are grouped per shard in arrival order, and each group
    /// is inserted by one worker under one hold of its shard's write lock,
    /// so the store ends exactly where sequential
    /// [`ShardedReferenceStore::offer`]s would leave it.
    pub(crate) fn ingest_batch(
        &self,
        references: Vec<ReferenceImage>,
        threads: usize,
    ) -> IngestReport {
        ingest_sharded(references, self.shards.len(), threads, |idx, group| {
            let mut map = self.shards[idx].write().expect("store shard poisoned");
            let offered = group.len() as u64;
            let mut accepted = 0;
            for reference in group {
                accepted += insert_fresher(&mut map, reference) as u64;
            }
            (accepted, offered - accepted)
        })
    }
}

/// Freshest-wins insert into one shard's map: keeps `reference` only if
/// strictly fresher than the stored generation. Returns whether it was
/// kept.
fn insert_fresher(
    map: &mut HashMap<(LocationId, Band), ReferenceImage>,
    reference: ReferenceImage,
) -> bool {
    let key = (reference.location, reference.band);
    match map.get(&key) {
        Some(existing) if existing.captured_day >= reference.captured_day => false,
        _ => {
            map.insert(key, reference);
            true
        }
    }
}

impl Default for ShardedReferenceStore {
    fn default() -> Self {
        Self::new(Self::DEFAULT_SHARDS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_raster::{PlanetBand, Raster};

    fn reference(location: u32, band: Band, day: f64) -> ReferenceImage {
        let full = Raster::filled(64, 64, day as f32 / 100.0);
        ReferenceImage::from_capture(LocationId(location), band, day, &full, 8).unwrap()
    }

    fn red() -> Band {
        Band::Planet(PlanetBand::Red)
    }

    #[test]
    fn freshest_wins_like_reference_pool() {
        let store = ShardedReferenceStore::new(4);
        assert!(store.offer(reference(0, red(), 5.0)));
        assert!(!store.offer(reference(0, red(), 3.0)));
        assert!(store.offer(reference(0, red(), 9.0)));
        assert_eq!(store.len(), 1);
        assert_eq!(store.fresh_day(LocationId(0), red()), Some(9.0));
    }

    #[test]
    fn keys_and_sizes_span_all_shards() {
        let store = ShardedReferenceStore::new(3);
        for loc in 0..20u32 {
            store.offer(reference(loc, red(), 1.0));
        }
        assert_eq!(store.len(), 20);
        assert_eq!(store.keys().len(), 20);
        let one = store.get(LocationId(0), red()).unwrap().size_bytes();
        assert_eq!(store.size_bytes(), 20 * one);
    }

    #[test]
    fn parallel_ingest_matches_serial_result() {
        // Offer the same keys at several freshness levels from many
        // threads; the freshest copy must win regardless of interleaving.
        let mut batch = Vec::new();
        for day in [3.0, 9.0, 5.0, 1.0] {
            for loc in 0..32u32 {
                batch.push(reference(loc, red(), day));
            }
        }
        let store = ShardedReferenceStore::new(8);
        let report = store.ingest_batch(batch, 8);
        assert_eq!(report.offered(), 4 * 32);
        assert_eq!(store.len(), 32);
        for loc in 0..32u32 {
            assert_eq!(store.fresh_day(LocationId(loc), red()), Some(9.0));
        }
    }

    #[test]
    fn parallel_ingest_keeps_first_equal_day_copy_like_sequential_offers() {
        // Two copies of every key at the same day: sequential offers keep
        // the first (an equal day does not supersede), so a parallel
        // ingest must too, whichever worker gets to a shard first.
        let copy = |loc: u32, value: f32| {
            let full = Raster::filled(64, 64, value);
            ReferenceImage::from_capture(LocationId(loc), red(), 5.0, &full, 8).unwrap()
        };
        let batch: Vec<ReferenceImage> = [0.25, 0.75]
            .into_iter()
            .flat_map(|value| (0..64u32).map(move |loc| copy(loc, value)))
            .collect();
        let sequential = ShardedReferenceStore::new(8);
        for reference in batch.clone() {
            sequential.offer(reference);
        }
        let parallel = ShardedReferenceStore::new(8);
        let report = parallel.ingest_batch(batch, 8);
        assert_eq!((report.accepted, report.rejected), (64, 64));
        for loc in 0..64u32 {
            assert_eq!(
                parallel.get(LocationId(loc), red()),
                sequential.get(LocationId(loc), red()),
                "location {loc} kept a later equal-day copy"
            );
        }
    }

    #[test]
    fn single_thread_ingest_counts_accepts_exactly() {
        let store = ShardedReferenceStore::new(2);
        let batch = vec![
            reference(0, red(), 1.0),
            reference(0, red(), 2.0),
            reference(0, red(), 2.0), // stale duplicate
        ];
        let report = store.ingest_batch(batch, 1);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn zero_shard_request_clamps() {
        let store = ShardedReferenceStore::new(0);
        assert_eq!(store.shard_count(), 1);
        store.offer(reference(0, red(), 1.0));
        assert!(store.get(LocationId(0), red()).is_some());
    }
}
