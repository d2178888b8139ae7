//! The constellation-wide uplink scheduler.
//!
//! [`crate::uplink::UplinkPlanner`] plans one satellite's contact greedily
//! and in isolation; it cannot see that the same reference is about to be
//! uploaded to three satellites, or that the satellite's own contact two
//! hours later has slack. [`ConstellationScheduler`] plans a whole *pass*
//! — every satellite's contact windows since the last planning round —
//! against one sweep of the store: each target is probed once and each
//! stale reference is read once, however many satellites need it. Each
//! distinct cached copy of it is diffed once, and every satellite holding
//! that copy shares the result. Each satellite's updates form a
//! staleness-weighted queue packed into that satellite's windows,
//! earliest first. Per-contact byte budgets are
//! supplied by the caller (the link model, clamped by any injected
//! mid-pass uplink drop), so a degraded contact (§5, *Handling bandwidth
//! fluctuation*) simply offers fewer bytes, and whatever does not fit is
//! served stale from the on-board cache.

use crate::backend::ReferenceBackend;
use crate::cache::EvictingReferenceCache;
use crate::reference::ReferenceImage;
use crate::uplink::{changed_pixels, install_bytes, patch_bytes, UplinkReport};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{Band, LocationId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One satellite ground-contact window offered to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactWindow {
    /// The satellite in contact.
    pub satellite: SatelliteId,
    /// Mission day of the contact.
    pub day: f64,
    /// Bytes the uplink can carry during this contact.
    pub budget_bytes: u64,
}

/// One target the store holds, probed once per pass.
struct Probe {
    key: (LocationId, Band),
    /// Capture day of the store's freshest reference.
    day: f64,
    /// That reference, read from the store by the first satellite that
    /// finds the key stale and shared by every later one: its delta, its
    /// full install, and its mid-pass re-validation all use this copy.
    reference: Option<Arc<ReferenceImage>>,
    /// The update each distinct cached copy needs, worked out for the
    /// first satellite holding that copy and reused by every later one.
    /// Holding the copy keeps its address from being reused during the
    /// pass, so [`Arc::ptr_eq`] identifies it.
    updates: Vec<(Arc<ReferenceImage>, Update)>,
}

/// What brings one cached copy up to the store's freshest reference.
#[derive(Clone)]
enum Update {
    /// Nothing changed beyond the threshold: the copy with its capture
    /// day advanced, applied for free.
    Unchanged(Arc<ReferenceImage>),
    /// The copy with the changed pixels patched in, and the patch's
    /// uplink cost.
    Patched(Arc<ReferenceImage>, u64),
    /// The geometry changed: the reference goes up in full.
    Reconfigured,
}

impl Probe {
    /// The update `cached` needs, diffed against the probed reference on
    /// the first call for that copy and reused by every later one.
    fn update_for(&mut self, cached: &Arc<ReferenceImage>, theta: f32) -> Update {
        if let Some((_, update)) = self.updates.iter().find(|(c, _)| Arc::ptr_eq(c, cached)) {
            return update.clone();
        }
        let pool_ref = self
            .reference
            .as_ref()
            .expect("stale key read before diffing");
        let update = Update::new(pool_ref, cached, theta);
        self.updates.push((Arc::clone(cached), update.clone()));
        update
    }
}

impl Update {
    /// The update bringing `cached` up to `pool_ref`.
    fn new(pool_ref: &ReferenceImage, cached: &ReferenceImage, theta: f32) -> Update {
        let Some(pixels) = changed_pixels(pool_ref, cached, theta) else {
            return Update::Reconfigured;
        };
        let mut copy = cached.clone();
        copy.captured_day = pool_ref.captured_day;
        let lowres = copy.lowres.as_mut_slice();
        for &(i, value) in &pixels {
            lowres[i as usize] = value;
        }
        if pixels.is_empty() {
            Update::Unchanged(Arc::new(copy))
        } else {
            let cost = patch_bytes(pool_ref.lowres.len(), pixels.len());
            Update::Patched(Arc::new(copy), cost)
        }
    }
}

/// One pending update for one satellite.
struct Candidate {
    pool_ref: Arc<ReferenceImage>,
    /// The patched copy replacing the one the satellite caches; `None`
    /// sends the reference in full (cold cache or resolution
    /// reconfiguration).
    patched: Option<Arc<ReferenceImage>>,
    /// Freshness gain in days; infinite for a cold cache (a full install
    /// outranks any delta, matching the legacy greedy planner).
    staleness: f64,
    cost: u64,
}

/// Staleness-weighted scheduler batching reference updates across all
/// satellites' contact windows in a pass.
#[derive(Debug, Clone, Copy)]
pub struct ConstellationScheduler {
    /// Pixel-difference threshold for delta inclusion.
    pub theta: f32,
}

impl ConstellationScheduler {
    /// Creates a scheduler.
    pub fn new(theta: f32) -> Self {
        ConstellationScheduler { theta }
    }

    /// Plans one pass over `contacts` (any mix of satellites, each with
    /// its own budget) and applies the scheduled updates to the
    /// satellites' caches. A satellite seen for the first time gets a
    /// cache from `new_cache`, so capacity bounds and eviction policy are
    /// the caller's decision, not the scheduler's. The scheduler is
    /// backend-agnostic: `store` may be the in-memory sharded store or a
    /// durable one, and the plan is identical for identical store
    /// contents — satellites are planned in id order, and each
    /// satellite's updates are totally ordered by staleness, cost,
    /// location, and band.
    ///
    /// Store traffic per pass: one `fresh_day` probe per distinct target,
    /// and one `get` — a disk read on the durable backends — per target
    /// that is stale on at least one satellite, however many satellites
    /// that is. Planning work per pass: one diff per distinct cached copy
    /// of a stale target. Satellites whose caches hold the same copy share
    /// its diff and end up sharing one patched (or fully installed) copy.
    ///
    /// Returns one [`UplinkReport`] per contact window, in input order.
    /// An update that fits in none of its satellite's windows is counted
    /// as skipped on that satellite's last window — it stays pending, and
    /// the satellite serves the stale cached reference meanwhile.
    pub fn plan_pass(
        &self,
        store: &dyn ReferenceBackend,
        caches: &mut HashMap<SatelliteId, EvictingReferenceCache>,
        targets: &[(LocationId, Band)],
        contacts: &[ContactWindow],
        new_cache: impl Fn() -> EvictingReferenceCache,
    ) -> Vec<UplinkReport> {
        let mut reports: Vec<UplinkReport> = contacts
            .iter()
            .map(|c| UplinkReport {
                bytes_budget: c.budget_bytes,
                ..UplinkReport::default()
            })
            .collect();

        // Each satellite's windows in day order (indices into `contacts`).
        let mut windows_of: BTreeMap<SatelliteId, Vec<usize>> = BTreeMap::new();
        for (i, contact) in contacts.iter().enumerate() {
            windows_of.entry(contact.satellite).or_default().push(i);
        }
        for windows in windows_of.values_mut() {
            windows.sort_by(|&a, &b| {
                contacts[a]
                    .day
                    .partial_cmp(&contacts[b].day)
                    .expect("contact days are finite")
            });
        }

        // Probe the store once per target, in key order: caches iterate in
        // key order too, so each satellite's staleness check is a merge
        // walk instead of a lookup per (key, satellite).
        let mut keys = targets.to_vec();
        keys.sort_unstable();
        keys.dedup();
        let mut probes: Vec<Probe> = keys
            .into_iter()
            .filter_map(|key| {
                Some(Probe {
                    key,
                    day: store.fresh_day(key.0, key.1)?,
                    reference: None,
                    updates: Vec::new(),
                })
            })
            .collect();

        // Budgets and caches are per satellite, so nothing couples two
        // satellites: each is queued and placed on its own.
        let mut remaining: Vec<u64> = contacts.iter().map(|c| c.budget_bytes).collect();
        for (satellite, windows) in windows_of {
            let cache = caches.entry(satellite).or_insert_with(&new_cache);
            let mut queue = self.stale_updates(store, cache, &mut probes);
            // Largest freshness gain first; cheaper first among equals so
            // a constricted pass freshens as many locations as possible.
            queue.sort_unstable_by(|a, b| {
                b.staleness
                    .partial_cmp(&a.staleness)
                    .expect("staleness is finite or +inf")
                    .then(a.cost.cmp(&b.cost))
                    .then(a.pool_ref.location.cmp(&b.pool_ref.location))
                    .then(a.pool_ref.band.cmp(&b.pool_ref.band))
            });
            for candidate in queue {
                let pool_ref = candidate.pool_ref;
                // Re-validate against the cache *now*: a capacity-bounded
                // cache may have evicted this entry while an earlier update
                // in the same pass was installed, in which case the pixel
                // delta would patch nothing — re-send in full at its real
                // cost.
                let (patched, cost) = match candidate.patched {
                    Some(_) if cache.peek(pool_ref.location, pool_ref.band).is_none() => {
                        (None, install_bytes(&pool_ref))
                    }
                    patched => (patched, candidate.cost),
                };
                let Some(i) = windows.iter().copied().find(|&i| remaining[i] >= cost) else {
                    let last = *windows.last().expect("satellite has a window");
                    reports[last].deltas_skipped += 1;
                    continue;
                };
                remaining[i] -= cost;
                reports[i].bytes_used += cost;
                reports[i].deltas_sent += 1;
                match patched {
                    Some(copy) => cache.replace_shared(copy),
                    None => cache.install_shared(pool_ref),
                }
            }
        }
        reports
    }

    /// The updates that would bring `cache` up to the probed store state,
    /// unordered. A stale entry whose content is identical (nothing
    /// changed on the ground) has its timestamp advanced here, for free,
    /// instead of becoming an update.
    fn stale_updates(
        &self,
        store: &dyn ReferenceBackend,
        cache: &mut EvictingReferenceCache,
        probes: &mut [Probe],
    ) -> Vec<Candidate> {
        let mut queue = Vec::new();
        let mut unchanged = Vec::new();
        let mut cached_refs = cache.iter_shared().peekable();
        for probe in probes {
            while cached_refs
                .next_if(|c| (c.location, c.band) < probe.key)
                .is_some()
            {}
            let cached = cached_refs.next_if(|c| (c.location, c.band) == probe.key);
            if cached.is_some_and(|c| c.captured_day >= probe.day) {
                continue;
            }
            let pool_ref = Arc::clone(probe.reference.get_or_insert_with(|| {
                Arc::new(
                    store
                        .get(probe.key.0, probe.key.1)
                        .expect("probed reference still present"),
                )
            }));
            let (patched, cost, staleness) = match cached {
                None => (None, install_bytes(&pool_ref), f64::INFINITY),
                Some(cached) => {
                    let staleness = pool_ref.captured_day - cached.captured_day;
                    match probe.update_for(cached, self.theta) {
                        Update::Unchanged(copy) => {
                            unchanged.push(copy);
                            continue;
                        }
                        Update::Patched(copy, cost) => (Some(copy), cost, staleness),
                        Update::Reconfigured => (None, install_bytes(&pool_ref), staleness),
                    }
                }
            };
            queue.push(Candidate {
                pool_ref,
                patched,
                staleness,
                cost,
            });
        }
        drop(cached_refs);
        for copy in unchanged {
            cache.replace_shared(copy);
        }
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::DEFAULT_REFERENCE_DOWNSAMPLE;
    use crate::store::ShardedReferenceStore;
    use crate::uplink::compute_delta;
    use earthplus_raster::{PlanetBand, Raster};

    fn red() -> Band {
        Band::Planet(PlanetBand::Red)
    }

    fn make_ref(location: u32, day: f64, pattern: impl Fn(usize) -> f32) -> ReferenceImage {
        let mut lowres = Raster::new(10, 10);
        for i in 0..100 {
            lowres.as_mut_slice()[i] = pattern(i);
        }
        ReferenceImage {
            location: LocationId(location),
            band: red(),
            captured_day: day,
            lowres,
            downsample: DEFAULT_REFERENCE_DOWNSAMPLE,
            full_width: DEFAULT_REFERENCE_DOWNSAMPLE * 10,
            full_height: DEFAULT_REFERENCE_DOWNSAMPLE * 10,
        }
    }

    fn window(satellite: u32, day: f64, budget: u64) -> ContactWindow {
        ContactWindow {
            satellite: SatelliteId(satellite),
            day,
            budget_bytes: budget,
        }
    }

    #[test]
    fn pass_spreads_updates_across_satellites() {
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 5.0, |_| 0.4));
        let targets = vec![(LocationId(0), red())];
        let mut caches = HashMap::new();
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 1.0, 1 << 20), window(1, 1.1, 1 << 20)],
            EvictingReferenceCache::default,
        );
        // Both satellites get the full install in their own window.
        assert_eq!(reports[0].deltas_sent, 1);
        assert_eq!(reports[1].deltas_sent, 1);
        assert_eq!(caches.len(), 2);
    }

    #[test]
    fn stalest_location_wins_constricted_budget_per_satellite() {
        // Two locations cached at very different ages on satellite 0,
        // whose contact fits exactly one update; satellite 1 has slack for
        // both. The shared queue must spend satellite 0's scarce bytes on
        // the stalest location and still fill satellite 1 completely.
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 20.0, |_| 0.9));
        store.offer(make_ref(1, 20.0, |_| 0.9));
        let targets = vec![(LocationId(0), red()), (LocationId(1), red())];
        let mut caches: HashMap<SatelliteId, EvictingReferenceCache> = HashMap::new();
        for satellite in [SatelliteId(0), SatelliteId(1)] {
            let cache = caches.entry(satellite).or_default();
            cache.install(make_ref(0, 2.0, |_| 0.4)); // very stale
            cache.install(make_ref(1, 18.0, |_| 0.4)); // nearly fresh
        }
        let one = compute_delta(
            &store.get(LocationId(0), red()).unwrap(),
            caches[&SatelliteId(0)].peek(LocationId(0), red()),
            0.01,
        )
        .unwrap()
        .size_bytes();
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 1.0, one), window(1, 1.5, 10 * one)],
            EvictingReferenceCache::default,
        );
        // Satellite 0: only the stalest location fit; the other is
        // skipped and served stale from the on-board cache.
        assert_eq!(reports[0].deltas_sent, 1);
        assert_eq!(reports[0].deltas_skipped, 1);
        assert!(reports[0].bytes_used <= reports[0].bytes_budget);
        let cache0 = &caches[&SatelliteId(0)];
        assert_eq!(
            cache0.peek(LocationId(0), red()).unwrap().captured_day,
            20.0
        );
        assert_eq!(
            cache0.peek(LocationId(1), red()).unwrap().captured_day,
            18.0
        );
        // Satellite 1 had slack for both updates in the same pass.
        assert_eq!(reports[1].deltas_sent, 2);
        assert_eq!(reports[1].deltas_skipped, 0);
    }

    #[test]
    fn multi_window_satellite_overflows_into_later_contact() {
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 5.0, |_| 0.4));
        store.offer(make_ref(1, 5.0, |_| 0.4));
        let targets = vec![(LocationId(0), red()), (LocationId(1), red())];
        let mut caches = HashMap::new();
        let scheduler = ConstellationScheduler::new(0.01);
        let one = compute_delta(&store.get(LocationId(0), red()).unwrap(), None, 0.01)
            .unwrap()
            .size_bytes();
        // Two windows for the same satellite, each fitting one install.
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 1.0, one), window(0, 1.2, one)],
            EvictingReferenceCache::default,
        );
        assert_eq!(reports[0].deltas_sent, 1);
        assert_eq!(reports[1].deltas_sent, 1);
        assert_eq!(caches[&SatelliteId(0)].len(), 2);
    }

    #[test]
    fn zero_budget_outage_skips_everything() {
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 5.0, |_| 0.4));
        let targets = vec![(LocationId(0), red())];
        let mut caches = HashMap::new();
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 1.0, 0)],
            EvictingReferenceCache::default,
        );
        assert_eq!(reports[0].deltas_sent, 0);
        assert_eq!(reports[0].deltas_skipped, 1);
        assert_eq!(caches[&SatelliteId(0)].len(), 0);
    }

    #[test]
    fn reconfigured_resolution_is_resent_in_full_and_replaces_cache() {
        // The cached reference has 10x10 geometry; the pool's fresher one
        // is 5x5 (downsample reconfiguration). The scheduler must charge a
        // full install and the cache must adopt the new geometry.
        let store = ShardedReferenceStore::default();
        let full = Raster::filled(100, 100, 0.8);
        let reconfigured =
            ReferenceImage::from_capture(LocationId(0), red(), 9.0, &full, 20).unwrap();
        assert_eq!(reconfigured.lowres.dimensions(), (5, 5));
        store.offer(reconfigured);
        let targets = vec![(LocationId(0), red())];
        let mut caches: HashMap<SatelliteId, EvictingReferenceCache> = HashMap::new();
        caches
            .entry(SatelliteId(0))
            .or_default()
            .install(make_ref(0, 3.0, |_| 0.4));
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 9.5, 1 << 20)],
            EvictingReferenceCache::default,
        );
        assert_eq!(reports[0].deltas_sent, 1);
        let cached = caches[&SatelliteId(0)].peek(LocationId(0), red()).unwrap();
        assert_eq!(cached.lowres.dimensions(), (5, 5));
        assert_eq!(cached.captured_day, 9.0);
    }

    #[test]
    fn mid_pass_eviction_triggers_full_resend_at_real_cost() {
        // Capacity-bounded cache holding one reference: the pass first
        // installs new location 1 (cold, infinite staleness), which
        // evicts the stale location-0 entry; location 0's planned pixel
        // delta would then patch nothing, so the scheduler must re-send
        // it in full and charge the full-install cost.
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 20.0, |_| 0.9));
        store.offer(make_ref(1, 20.0, |_| 0.9));
        let targets = vec![(LocationId(0), red()), (LocationId(1), red())];
        let one = make_ref(0, 20.0, |_| 0.9).size_bytes();
        let mut caches: HashMap<SatelliteId, EvictingReferenceCache> = HashMap::new();
        let mut cache = EvictingReferenceCache::new(Some(one));
        cache.install(make_ref(0, 2.0, |_| 0.4));
        caches.insert(SatelliteId(0), cache);
        let full_cost = compute_delta(&store.get(LocationId(1), red()).unwrap(), None, 0.01)
            .unwrap()
            .size_bytes();
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 20.5, 1 << 20)],
            EvictingReferenceCache::default,
        );
        assert_eq!(reports[0].deltas_sent, 2);
        assert_eq!(
            reports[0].bytes_used,
            2 * full_cost,
            "evicted entry must be re-sent in full, not charged as a no-op delta"
        );
        // Capacity still holds: exactly one entry survives, fresh.
        let cache = &caches[&SatelliteId(0)];
        assert_eq!(cache.len(), 1);
        let survivor_day = cache
            .peek(LocationId(0), red())
            .or_else(|| cache.peek(LocationId(1), red()))
            .unwrap()
            .captured_day;
        assert_eq!(survivor_day, 20.0);
    }

    /// Whether every cache holds the same allocation for every key.
    fn one_copy_per_key(caches: &HashMap<SatelliteId, EvictingReferenceCache>) -> bool {
        let mut caches = caches.values();
        let first: Vec<&Arc<ReferenceImage>> = caches.next().unwrap().iter_shared().collect();
        caches.all(|cache| {
            cache.iter_shared().count() == first.len()
                && cache
                    .iter_shared()
                    .zip(&first)
                    .all(|(a, b)| Arc::ptr_eq(a, b))
        })
    }

    #[test]
    fn in_sync_satellites_share_one_copy_per_key() {
        let store = ShardedReferenceStore::default();
        for location in 0..3 {
            store.offer(make_ref(location, 5.0, |i| (i % 5) as f32 / 5.0));
        }
        let targets: Vec<_> = (0..3).map(|l| (LocationId(l), red())).collect();
        let windows: Vec<_> = (0..4).map(|s| window(s, 5.5, 1 << 20)).collect();
        let mut caches = HashMap::new();
        let scheduler = ConstellationScheduler::new(0.01);
        // Cold pass: every satellite installs the pool's one copy.
        scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &windows,
            EvictingReferenceCache::default,
        );
        assert_eq!(caches.len(), 4);
        assert!(one_copy_per_key(&caches));
        // Delta pass: location 0 changes pixels, location 1 only its day.
        store.offer(make_ref(0, 6.0, |i| (i % 7) as f32 / 7.0));
        store.offer(make_ref(1, 6.0, |i| (i % 5) as f32 / 5.0));
        let windows: Vec<_> = (0..4).map(|s| window(s, 6.5, 1 << 20)).collect();
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &windows,
            EvictingReferenceCache::default,
        );
        assert!(reports.iter().all(|r| r.deltas_sent == 1));
        assert!(one_copy_per_key(&caches));
        let cache = &caches[&SatelliteId(0)];
        assert_eq!(cache.peek(LocationId(0), red()).unwrap().captured_day, 6.0);
        assert_eq!(cache.peek(LocationId(1), red()).unwrap().captured_day, 6.0);
        assert_eq!(cache.stats().delta_applies, 2);
    }

    #[test]
    fn same_day_copies_with_different_pixels_get_their_own_delta() {
        // Both satellites cache location 0 from day 3, with different
        // pixels: satellite 1's odd pixels sit within theta of the pool's,
        // so they must survive its patch, and satellite 0's must not leak
        // into it.
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 9.0, |i| if i % 2 == 0 { 0.9 } else { 0.4 }));
        let targets = vec![(LocationId(0), red())];
        let mut caches: HashMap<SatelliteId, EvictingReferenceCache> = HashMap::new();
        caches
            .entry(SatelliteId(0))
            .or_default()
            .install(make_ref(0, 3.0, |_| 0.4));
        caches
            .entry(SatelliteId(1))
            .or_default()
            .install(make_ref(0, 3.0, |_| 0.405));
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 9.5, 1 << 20), window(1, 9.5, 1 << 20)],
            EvictingReferenceCache::default,
        );
        for report in &reports {
            assert_eq!(report.deltas_sent, 1);
            assert_eq!(report.bytes_used, patch_bytes(100, 50));
        }
        for (satellite, odd) in [(0, 0.4), (1, 0.405)] {
            let cached = caches[&SatelliteId(satellite)]
                .peek(LocationId(0), red())
                .unwrap();
            assert_eq!(cached.captured_day, 9.0);
            assert_eq!(cached.lowres.as_slice()[0], 0.9);
            assert_eq!(cached.lowres.as_slice()[1], odd, "satellite {satellite}");
        }
    }

    #[test]
    fn identical_content_advances_timestamp_for_free() {
        let store = ShardedReferenceStore::default();
        store.offer(make_ref(0, 9.0, |_| 0.5));
        let targets = vec![(LocationId(0), red())];
        let mut caches: HashMap<SatelliteId, EvictingReferenceCache> = HashMap::new();
        caches
            .entry(SatelliteId(0))
            .or_default()
            .install(make_ref(0, 3.0, |_| 0.5));
        let scheduler = ConstellationScheduler::new(0.01);
        let reports = scheduler.plan_pass(
            &store,
            &mut caches,
            &targets,
            &[window(0, 1.0, 10_000)],
            EvictingReferenceCache::default,
        );
        assert_eq!(reports[0].bytes_used, 0);
        assert_eq!(
            caches[&SatelliteId(0)]
                .peek(LocationId(0), red())
                .unwrap()
                .captured_day,
            9.0
        );
    }
}
