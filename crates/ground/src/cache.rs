//! The capacity-bounded on-board reference cache model.
//!
//! [`crate::reference::OnboardReferenceCache`] grows without bound — fine
//! for the paper's ~9 % storage overhead argument, but useless for asking
//! *what happens when the satellite cannot hold every reference*. This
//! model bounds the cache in bytes, evicts with an age/LRU hybrid policy,
//! and counts hits / misses / evictions so experiments can report cache
//! behaviour instead of asserting it.
//!
//! Entries are shared: each holds an `Arc<ReferenceImage>`, and the pass
//! planner hands every satellite whose copy of a key is identical the
//! same allocation — one full install, or one patched copy per distinct
//! cached copy, however many satellites hold it. A shared entry is never
//! written through: a patch lands on a copy (via [`Arc::make_mut`]), so
//! no other cache sees it.

use crate::reference::ReferenceImage;
use earthplus_raster::{Band, LocationId};
use earthplus_telemetry::{names, Counter, TelemetrySink};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads that found a cached reference.
    pub hits: u64,
    /// Reads that found nothing.
    pub misses: u64,
    /// Entries evicted to stay under the capacity bound.
    pub evictions: u64,
    /// Full reference installs.
    pub installs: u64,
    /// Delta updates applied to existing entries.
    pub delta_applies: u64,
}

impl CacheStats {
    /// Hit fraction over all reads; 0 when nothing was read.
    pub fn hit_rate(&self) -> f64 {
        earthplus_telemetry::hit_rate(self.hits, self.misses)
    }

    /// What happened since `earlier` was taken (counters subtract,
    /// saturating so a reset earlier snapshot cannot underflow).
    pub(crate) fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            installs: self.installs.saturating_sub(earlier.installs),
            delta_applies: self.delta_applies.saturating_sub(earlier.delta_applies),
        }
    }
}

/// The live counters behind [`CacheStats`].
///
/// Cloning shares the underlying atomics, which is the point: a ground
/// service resolves one set from its telemetry sink and hands a clone to
/// every satellite's cache, so the constellation-wide totals accumulate
/// in one place — [`GroundService::stats`](crate::GroundService::stats)
/// reads them directly instead of walking and merging per-cache structs
/// (and the same atomics surface in telemetry snapshots under the
/// `ground.cache.*` names when the sink is registry-backed).
#[derive(Debug, Clone)]
pub(crate) struct CacheCounters {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    installs: Counter,
    delta_applies: Counter,
}

impl CacheCounters {
    /// Standalone counters private to one cache — the default for a cache
    /// constructed outside a service.
    pub(crate) fn live() -> Self {
        CacheCounters {
            hits: Counter::live(),
            misses: Counter::live(),
            evictions: Counter::live(),
            installs: Counter::live(),
            delta_applies: Counter::live(),
        }
    }

    /// Counters resolved from `sink` under the canonical `ground.cache.*`
    /// names. With a disabled sink this still counts (the caller's stats
    /// must not go dark just because observability is off): the sink is
    /// upgraded to a private registry first.
    pub(crate) fn from_sink(sink: &TelemetrySink) -> Self {
        let sink = sink.or_private();
        CacheCounters {
            hits: sink.counter(names::GROUND_CACHE_HITS),
            misses: sink.counter(names::GROUND_CACHE_MISSES),
            evictions: sink.counter(names::GROUND_CACHE_EVICTIONS),
            installs: sink.counter(names::GROUND_CACHE_INSTALLS),
            delta_applies: sink.counter(names::GROUND_CACHE_DELTA_APPLIES),
        }
    }

    /// A point-in-time copy of the counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
            evictions: self.evictions.value(),
            installs: self.installs.value(),
            delta_applies: self.delta_applies.value(),
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    /// Possibly shared with other satellites' caches; copied on write.
    reference: Arc<ReferenceImage>,
    last_access: u64,
}

/// Capacity-bounded on-board cache of reference images with an age/LRU
/// hybrid eviction policy and instrumentation.
///
/// The victim is the entry with the highest
/// `ticks_since_last_access + reference_age_days`: both terms favour
/// evicting references that are old and unused, so an entry the ground
/// refreshed recently survives one read long ago, and vice versa.
#[derive(Debug)]
pub struct EvictingReferenceCache {
    /// Ordered by key so the scheduler's staleness sweep can walk the
    /// cache in step with a sorted target list ([`Self::iter`]).
    entries: BTreeMap<(LocationId, Band), CacheEntry>,
    capacity_bytes: Option<u64>,
    bytes: u64,
    tick: u64,
    now_day: f64,
    counters: CacheCounters,
}

impl EvictingReferenceCache {
    /// Creates a cache bounded to `capacity_bytes` (`None` = unbounded,
    /// matching the legacy `OnboardReferenceCache` behaviour).
    pub fn new(capacity_bytes: Option<u64>) -> Self {
        Self::with_counters(capacity_bytes, CacheCounters::live())
    }

    /// Creates a cache recording into `counters` — pass clones of one set
    /// to aggregate across caches without per-cache merge walks (see
    /// [`CacheCounters`]).
    pub(crate) fn with_counters(capacity_bytes: Option<u64>, counters: CacheCounters) -> Self {
        EvictingReferenceCache {
            entries: BTreeMap::new(),
            capacity_bytes,
            bytes: 0,
            tick: 0,
            now_day: f64::NEG_INFINITY,
            counters,
        }
    }

    /// The cached reference for a location/band, recorded as a hit or a
    /// miss and counted as a use for the LRU signal.
    pub(crate) fn get(&mut self, location: LocationId, band: Band) -> Option<&ReferenceImage> {
        self.tick += 1;
        match self.entries.get_mut(&(location, band)) {
            Some(entry) => {
                entry.last_access = self.tick;
                self.counters.hits.inc();
                Some(&entry.reference)
            }
            None => {
                self.counters.misses.inc();
                None
            }
        }
    }

    /// Read-only lookup that leaves the hit/miss counters and recency
    /// untouched — the scheduler's staleness probe, which must not distort
    /// the on-board serving statistics.
    pub fn peek(&self, location: LocationId, band: Band) -> Option<&ReferenceImage> {
        self.entries.get(&(location, band)).map(|e| &*e.reference)
    }

    /// Every cached reference in `(location, band)` order, with the same
    /// no-side-effects contract as [`Self::peek`].
    pub fn iter(&self) -> impl Iterator<Item = &ReferenceImage> {
        self.entries.values().map(|e| &*e.reference)
    }

    /// [`Self::iter`] over the shared handles, so the pass planner can
    /// recognise a copy that another satellite's cache also holds.
    pub(crate) fn iter_shared(&self) -> impl Iterator<Item = &Arc<ReferenceImage>> {
        self.entries.values().map(|e| &e.reference)
    }

    /// [`Self::install_shared`] of a reference no other cache holds.
    #[cfg(test)]
    pub(crate) fn install(&mut self, reference: ReferenceImage) {
        self.install_shared(Arc::new(reference));
    }

    /// Installs a full reference other caches may hold too, evicting as
    /// needed to stay under the capacity bound. A single reference larger
    /// than the whole capacity is kept anyway (the uplink already spent
    /// the bytes; dropping it would serve nothing).
    pub(crate) fn install_shared(&mut self, reference: Arc<ReferenceImage>) {
        self.tick += 1;
        self.now_day = self.now_day.max(reference.captured_day);
        let key = (reference.location, reference.band);
        let size = reference.size_bytes();
        if let Some(old) = self.entries.remove(&key) {
            self.bytes -= old.reference.size_bytes();
        }
        self.bytes += size;
        self.entries.insert(
            key,
            CacheEntry {
                reference,
                last_access: self.tick,
            },
        );
        self.counters.installs.inc();
        self.evict_to_capacity(key);
    }

    /// Applies a delta update: overwrites the listed low-resolution pixels
    /// and advances the capture day. A message carrying a full reference
    /// replaces the entry outright — that is what the ground sends on a
    /// cold cache *and* on a resolution reconfiguration, where patching
    /// the old-geometry raster would corrupt it. A patched entry that
    /// other caches share is copied first, so only this cache changes.
    /// The pass planner patches through [`Self::replace_shared`]; this is
    /// the per-cache form its tests compare against.
    #[cfg(test)]
    pub(crate) fn apply_delta(
        &mut self,
        location: LocationId,
        band: Band,
        day: f64,
        pixels: &[(u32, f32)],
        full: Option<&ReferenceImage>,
    ) {
        self.now_day = self.now_day.max(day);
        if let Some(full) = full {
            self.install(full.clone());
            return;
        }
        if let Some(entry) = self.entries.get_mut(&(location, band)) {
            let reference = Arc::make_mut(&mut entry.reference);
            for &(idx, value) in pixels {
                let i = idx as usize;
                if i < reference.lowres.len() {
                    reference.lowres.as_mut_slice()[i] = value;
                }
            }
            reference.captured_day = day;
            self.counters.delta_applies.inc();
        }
    }

    /// A delta update without a full reference, given the already
    /// patched copy: it replaces the cached entry for its key (if any)
    /// outright, so every cache it is handed to shares one allocation.
    /// The copy must have the entry's geometry, as a patch does, so the
    /// cache's byte count does not move.
    pub(crate) fn replace_shared(&mut self, reference: Arc<ReferenceImage>) {
        self.now_day = self.now_day.max(reference.captured_day);
        if let Some(entry) = self.entries.get_mut(&(reference.location, reference.band)) {
            entry.reference = reference;
            self.counters.delta_applies.inc();
        }
    }

    fn evict_to_capacity(&mut self, protect: (LocationId, Band)) {
        let Some(capacity) = self.capacity_bytes else {
            return;
        };
        while self.bytes > capacity && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .filter(|(key, _)| **key != protect)
                .max_by(|a, b| {
                    let score = |e: &CacheEntry| {
                        (self.tick - e.last_access) as f64
                            + (self.now_day - e.reference.captured_day)
                    };
                    // Equal scores fall to the key, so the victim never
                    // depends on iteration order.
                    score(a.1)
                        .partial_cmp(&score(b.1))
                        .expect("eviction scores are finite")
                        .then_with(|| a.0.cmp(b.0))
                })
                .map(|(key, _)| *key);
            let Some(victim) = victim else { break };
            if let Some(entry) = self.entries.remove(&victim) {
                self.bytes -= entry.reference.size_bytes();
                self.counters.evictions.inc();
            }
        }
    }

    /// Number of cached references.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total cache footprint in bytes.
    pub(crate) fn size_bytes(&self) -> u64 {
        self.bytes
    }

    /// The instrumentation counters. When this cache shares its counters
    /// with others (every cache a ground service hands out does), the
    /// values are the shared totals, not this cache's alone.
    pub fn stats(&self) -> CacheStats {
        self.counters.stats()
    }
}

impl Default for EvictingReferenceCache {
    fn default() -> Self {
        Self::new(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_raster::{PlanetBand, Raster};

    fn red() -> Band {
        Band::Planet(PlanetBand::Red)
    }

    fn reference(location: u32, day: f64) -> ReferenceImage {
        let full = Raster::filled(64, 64, 0.5);
        ReferenceImage::from_capture(LocationId(location), red(), day, &full, 8).unwrap()
    }

    #[test]
    fn counts_hits_and_misses() {
        let mut cache = EvictingReferenceCache::new(None);
        assert!(cache.get(LocationId(0), red()).is_none());
        cache.install(reference(0, 1.0));
        assert!(cache.get(LocationId(0), red()).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.installs), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_counters_aggregate_across_caches() {
        use earthplus_telemetry::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let counters = CacheCounters::from_sink(&registry.sink());
        let mut a = EvictingReferenceCache::with_counters(None, counters.clone());
        let mut b = EvictingReferenceCache::with_counters(None, counters.clone());
        a.install(reference(0, 1.0));
        a.get(LocationId(0), red());
        b.get(LocationId(1), red());
        let stats = counters.stats();
        assert_eq!((stats.hits, stats.misses, stats.installs), (1, 1, 1));
        // The same totals surface in the registry snapshot.
        let s = registry.snapshot();
        assert_eq!(s.counter(names::GROUND_CACHE_HITS), Some(1));
        assert_eq!(s.counter(names::GROUND_CACHE_MISSES), Some(1));
        // Delta semantics: only what happened after `stats` was taken.
        b.install(reference(1, 2.0));
        b.get(LocationId(1), red());
        let d = counters.stats().delta(&stats);
        assert_eq!((d.hits, d.misses, d.installs), (1, 0, 1));
    }

    #[test]
    fn peek_leaves_stats_untouched() {
        let mut cache = EvictingReferenceCache::new(None);
        cache.install(reference(0, 1.0));
        assert!(cache.peek(LocationId(0), red()).is_some());
        assert!(cache.peek(LocationId(1), red()).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn capacity_bound_evicts_lru_victim() {
        let one = reference(0, 1.0).size_bytes();
        // Room for exactly two entries.
        let mut cache = EvictingReferenceCache::new(Some(2 * one));
        cache.install(reference(0, 1.0));
        cache.install(reference(1, 1.0));
        // Touch location 0 so location 1 becomes the LRU victim.
        cache.get(LocationId(0), red());
        cache.install(reference(2, 1.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(LocationId(0), red()).is_some());
        assert!(cache.peek(LocationId(1), red()).is_none());
        assert!(cache.peek(LocationId(2), red()).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.size_bytes() <= 2 * one);
    }

    #[test]
    fn age_weight_breaks_lru_ties() {
        let one = reference(0, 1.0).size_bytes();
        let mut cache = EvictingReferenceCache::new(Some(2 * one));
        cache.install(reference(0, 9.0)); // fresh reference, tick 1
        cache.install(reference(1, 2.0)); // stale reference, tick 2
        cache.install(reference(2, 8.0));
        // Evicting at tick 3, day 9: location 0 scores (3 - 1) + (9 - 9)
        // = 2 and location 1 scores (3 - 2) + (9 - 2) = 8. Pure LRU would
        // drop location 0; the age term makes the day-2 reference the
        // victim even though it was installed more recently.
        assert!(cache.peek(LocationId(1), red()).is_none());
        assert!(cache.peek(LocationId(0), red()).is_some());
    }

    #[test]
    fn equal_scores_evict_the_same_victim_every_time() {
        let one = reference(0, 1.0).size_bytes();
        for _ in 0..32 {
            // A fresh cache each round: nothing may depend on per-map
            // hasher state.
            let mut cache = EvictingReferenceCache::new(Some(2 * one));
            // Installed at ticks 1 and 2; the third install evicts at
            // tick 3, day 12: (3 - 1) + (12 - 11) == (3 - 2) + (12 - 10).
            cache.install(reference(0, 11.0));
            cache.install(reference(1, 10.0));
            cache.install(reference(2, 12.0));
            assert_eq!(cache.len(), 2);
            assert!(cache.peek(LocationId(0), red()).is_some());
            assert!(
                cache.peek(LocationId(1), red()).is_none(),
                "a tie must fall to the larger key"
            );
        }
    }

    #[test]
    fn oversized_entry_is_kept() {
        let one = reference(0, 1.0).size_bytes();
        let mut cache = EvictingReferenceCache::new(Some(one / 2));
        cache.install(reference(0, 1.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn delta_applies_and_reinstalls_track_bytes() {
        let mut cache = EvictingReferenceCache::new(None);
        cache.install(reference(0, 1.0));
        let before = cache.size_bytes();
        cache.apply_delta(LocationId(0), red(), 4.0, &[(0, 0.9)], None);
        assert_eq!(cache.size_bytes(), before);
        assert_eq!(cache.peek(LocationId(0), red()).unwrap().captured_day, 4.0);
        assert_eq!(
            cache.peek(LocationId(0), red()).unwrap().lowres.as_slice()[0],
            0.9
        );
        // Reinstall replaces, not duplicates.
        cache.install(reference(0, 6.0));
        assert_eq!(cache.size_bytes(), before);
        assert_eq!(cache.stats().delta_applies, 1);
    }

    #[test]
    fn full_resend_replaces_warm_entry_and_tracks_bytes() {
        let mut cache = EvictingReferenceCache::new(None);
        cache.install(reference(0, 1.0));
        // Reconfiguration: full resend at a different low-res geometry.
        let full = Raster::filled(64, 64, 0.8);
        let reconfigured =
            ReferenceImage::from_capture(LocationId(0), red(), 4.0, &full, 4).unwrap();
        let expected = reconfigured.size_bytes();
        cache.apply_delta(LocationId(0), red(), 4.0, &[], Some(&reconfigured));
        let entry = cache.peek(LocationId(0), red()).unwrap();
        assert_eq!(entry.lowres.dimensions(), (16, 16));
        assert_eq!(entry.captured_day, 4.0);
        assert_eq!(cache.size_bytes(), expected);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn apply_delta_on_a_shared_entry_copies_on_write() {
        let shared = Arc::new(reference(0, 1.0));
        let mut a = EvictingReferenceCache::new(None);
        let mut b = EvictingReferenceCache::new(None);
        a.install_shared(Arc::clone(&shared));
        b.install_shared(shared);
        a.apply_delta(LocationId(0), red(), 4.0, &[(0, 0.9)], None);
        let patched = a.peek(LocationId(0), red()).unwrap();
        assert_eq!(
            (patched.captured_day, patched.lowres.as_slice()[0]),
            (4.0, 0.9)
        );
        let other = b.peek(LocationId(0), red()).unwrap();
        assert_eq!((other.captured_day, other.lowres.as_slice()[0]), (1.0, 0.5));
    }

    #[test]
    fn cold_delta_with_full_installs() {
        let mut cache = EvictingReferenceCache::new(None);
        let full = reference(0, 2.0);
        cache.apply_delta(LocationId(0), red(), 2.0, &[], Some(&full));
        assert_eq!(cache.len(), 1);
    }
}
