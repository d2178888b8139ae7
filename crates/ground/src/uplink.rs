//! Uplink planning: squeezing reference updates through 250 kbps (§4.3).
//!
//! Three mechanisms keep reference sharing within the existing uplink:
//! the references are heavily downsampled ([`crate::reference`]), only the
//! *changed* low-resolution pixels relative to the satellite's cached copy
//! are uploaded ([`compute_delta`]), and when even that does not fit, some
//! locations are skipped for this contact and served stale from the
//! on-board cache ([`UplinkPlanner::plan`], §5 *Handling bandwidth
//! fluctuation*).

use crate::reference::{OnboardReferenceCache, ReferenceImage, ReferencePool};
use earthplus_raster::{Band, LocationId};

/// Bytes per transmitted low-resolution sample (12-bit value padded with
/// position-coding overhead).
const BYTES_PER_DELTA_PIXEL: u64 = 2;
/// Fixed per-message header: location, band, day, and shape metadata.
const MESSAGE_HEADER_BYTES: u64 = 16;

/// One reference update message for a satellite.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceDelta {
    /// Target location.
    pub location: LocationId,
    /// Target band.
    pub band: Band,
    /// Capture day of the new reference.
    pub day: f64,
    /// Changed low-resolution pixels `(flat index, new value)`; empty when
    /// `full` is used instead.
    pub pixels: Vec<(u32, f32)>,
    /// Full reference, sent when the satellite has nothing cached.
    pub full: Option<ReferenceImage>,
    /// Total low-resolution pixels of the reference (for the bitmap cost).
    pub total_pixels: u32,
}

impl ReferenceDelta {
    /// Transmission cost in bytes.
    pub fn size_bytes(&self) -> u64 {
        match &self.full {
            Some(full) => install_bytes(full),
            None => patch_bytes(self.total_pixels as usize, self.pixels.len()),
        }
    }

    /// Whether this message changes nothing (fresh cache).
    pub(crate) fn is_empty(&self) -> bool {
        self.full.is_none() && self.pixels.is_empty()
    }
}

/// Cost of sending `reference` in full: every sample at 12 bits.
pub(crate) fn install_bytes(reference: &ReferenceImage) -> u64 {
    MESSAGE_HEADER_BYTES + reference.size_bytes()
}

/// Cost of a pixel delta: a presence bitmap over the `total_pixels`
/// low-resolution grid plus the `changed` samples.
pub(crate) fn patch_bytes(total_pixels: usize, changed: usize) -> u64 {
    MESSAGE_HEADER_BYTES
        + (total_pixels as u64).div_ceil(8)
        + changed as u64 * BYTES_PER_DELTA_PIXEL
}

/// The low-resolution pixels of `pool_ref` that differ from `cached` by
/// more than `theta`, as `(flat index, new value)`. `None` when the two
/// have different geometry (a resolution reconfiguration), where patching
/// is meaningless and the reference must be re-sent in full.
pub(crate) fn changed_pixels(
    pool_ref: &ReferenceImage,
    cached: &ReferenceImage,
    theta: f32,
) -> Option<Vec<(u32, f32)>> {
    if cached.lowres.dimensions() != pool_ref.lowres.dimensions() {
        return None;
    }
    Some(
        pool_ref
            .lowres
            .as_slice()
            .iter()
            .zip(cached.lowres.as_slice())
            .enumerate()
            .filter(|(_, (new, old))| (*new - *old).abs() > theta)
            .map(|(i, (new, _))| (i as u32, *new))
            .collect(),
    )
}

/// Computes the update message bringing a satellite's cached reference up
/// to the pool's freshest one: a full install on a cold cache or after a
/// resolution reconfiguration, the changed pixels otherwise.
///
/// Returns `None` when the cache is already at least as fresh.
pub fn compute_delta(
    pool_ref: &ReferenceImage,
    cached: Option<&ReferenceImage>,
    theta: f32,
) -> Option<ReferenceDelta> {
    let pixels = match cached {
        Some(cached) if cached.captured_day >= pool_ref.captured_day => return None,
        Some(cached) => changed_pixels(pool_ref, cached, theta),
        None => None,
    };
    Some(ReferenceDelta {
        location: pool_ref.location,
        band: pool_ref.band,
        day: pool_ref.captured_day,
        full: pixels.is_none().then(|| pool_ref.clone()),
        pixels: pixels.unwrap_or_default(),
        total_pixels: pool_ref.lowres.len() as u32,
    })
}

/// Outcome of planning one contact's uplink.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UplinkReport {
    /// Bytes actually scheduled on the uplink.
    pub bytes_used: u64,
    /// The contact's byte budget.
    pub bytes_budget: u64,
    /// Update messages sent.
    pub deltas_sent: usize,
    /// Updates that did not fit and were skipped (served stale from the
    /// on-board cache instead).
    pub deltas_skipped: usize,
}

/// Plans which reference updates to send in one contact window.
#[derive(Debug, Clone, Copy)]
pub struct UplinkPlanner {
    /// Pixel-difference threshold for delta inclusion.
    pub theta: f32,
}

impl UplinkPlanner {
    /// Creates a planner.
    pub fn new(theta: f32) -> Self {
        UplinkPlanner { theta }
    }

    /// Selects updates for the given locations/bands under `budget_bytes`
    /// and applies them to the satellite's cache.
    ///
    /// Stalest cache entries are served first (largest freshness win);
    /// whatever does not fit is skipped for this contact.
    pub fn plan(
        &self,
        pool: &ReferencePool,
        cache: &mut OnboardReferenceCache,
        targets: &[(LocationId, Band)],
        budget_bytes: u64,
    ) -> UplinkReport {
        let mut candidates: Vec<ReferenceDelta> = targets
            .iter()
            .filter_map(|&(loc, band)| {
                let pool_ref = pool.get(loc, band)?;
                let delta = compute_delta(pool_ref, cache.get(loc, band), self.theta)?;
                if delta.is_empty() {
                    // Content identical (e.g. nothing changed on the
                    // ground): just advance the cache timestamp for free.
                    cache.apply_delta(loc, band, delta.day, &[], None);
                    None
                } else {
                    Some(delta)
                }
            })
            .collect();
        // Largest freshness gain first.
        candidates.sort_by(|a, b| {
            let age = |d: &ReferenceDelta| {
                cache
                    .get(d.location, d.band)
                    .map(|c| d.day - c.captured_day)
                    .unwrap_or(f64::INFINITY)
            };
            age(b).partial_cmp(&age(a)).expect("ages are finite or inf")
        });

        let mut report = UplinkReport {
            bytes_budget: budget_bytes,
            ..UplinkReport::default()
        };
        for delta in candidates {
            let cost = delta.size_bytes();
            if report.bytes_used + cost > budget_bytes {
                report.deltas_skipped += 1;
                continue;
            }
            report.bytes_used += cost;
            report.deltas_sent += 1;
            cache.apply_delta(
                delta.location,
                delta.band,
                delta.day,
                &delta.pixels,
                delta.full.as_ref(),
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::DEFAULT_REFERENCE_DOWNSAMPLE;
    use earthplus_raster::{PlanetBand, Raster};

    fn band() -> Band {
        Band::Planet(PlanetBand::Red)
    }

    fn make_ref(day: f64, pattern: impl Fn(usize) -> f32) -> ReferenceImage {
        // A 10×10 reference at the shared paper operating point; the
        // uplink-ratio assertions below track the config constant instead
        // of a hard-coded 51.
        let mut lowres = Raster::new(10, 10);
        for i in 0..100 {
            lowres.as_mut_slice()[i] = pattern(i);
        }
        ReferenceImage {
            location: LocationId(0),
            band: band(),
            captured_day: day,
            lowres,
            downsample: DEFAULT_REFERENCE_DOWNSAMPLE,
            full_width: DEFAULT_REFERENCE_DOWNSAMPLE * 10,
            full_height: DEFAULT_REFERENCE_DOWNSAMPLE * 10,
        }
    }

    #[test]
    fn delta_on_cold_cache_is_full_install() {
        let new = make_ref(5.0, |_| 0.5);
        let d = compute_delta(&new, None, 0.01).unwrap();
        assert!(d.full.is_some());
        assert!(d.size_bytes() > new.size_bytes());
    }

    #[test]
    fn delta_contains_only_changed_pixels() {
        let old = make_ref(3.0, |_| 0.5);
        let new = make_ref(7.0, |i| if i < 10 { 0.9 } else { 0.5 });
        let d = compute_delta(&new, Some(&old), 0.01).unwrap();
        assert!(d.full.is_none());
        assert_eq!(d.pixels.len(), 10);
        assert!(d.size_bytes() < old.size_bytes() + MESSAGE_HEADER_BYTES);
    }

    #[test]
    fn fresher_cache_needs_no_delta() {
        let old = make_ref(9.0, |_| 0.5);
        let new = make_ref(7.0, |_| 0.9);
        assert!(compute_delta(&new, Some(&old), 0.01).is_none());
    }

    #[test]
    fn unchanged_content_gives_empty_delta() {
        let old = make_ref(3.0, |_| 0.5);
        let new = make_ref(7.0, |_| 0.5);
        let d = compute_delta(&new, Some(&old), 0.01).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn planner_respects_budget_and_skips() {
        let mut pool = ReferencePool::new();
        let mut cache = OnboardReferenceCache::new();
        // Three locations needing full installs (~166 bytes each).
        let mut targets = Vec::new();
        for loc in 0..3u32 {
            let mut r = make_ref(5.0, |_| 0.4);
            r.location = LocationId(loc);
            pool.offer(r);
            targets.push((LocationId(loc), band()));
        }
        let per_install = compute_delta(pool.get(LocationId(0), band()).unwrap(), None, 0.01)
            .unwrap()
            .size_bytes();
        let planner = UplinkPlanner::new(0.01);
        let report = planner.plan(&pool, &mut cache, &targets, per_install * 2);
        assert_eq!(report.deltas_sent, 2);
        assert_eq!(report.deltas_skipped, 1);
        assert!(report.bytes_used <= report.bytes_budget);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn planner_prioritizes_stalest() {
        let mut pool = ReferencePool::new();
        let mut cache = OnboardReferenceCache::new();
        // Two locations cached at different ages; pool has day-20 for both.
        for (loc, cached_day) in [(0u32, 18.0f64), (1, 2.0)] {
            let mut cached = make_ref(cached_day, |_| 0.4);
            cached.location = LocationId(loc);
            cache.install(cached);
            let mut fresh = make_ref(20.0, |_| 0.9);
            fresh.location = LocationId(loc);
            pool.offer(fresh);
        }
        let targets = vec![(LocationId(0), band()), (LocationId(1), band())];
        // Budget for exactly one delta.
        let one = compute_delta(
            pool.get(LocationId(1), band()).unwrap(),
            cache.get(LocationId(1), band()),
            0.01,
        )
        .unwrap()
        .size_bytes();
        let planner = UplinkPlanner::new(0.01);
        let report = planner.plan(&pool, &mut cache, &targets, one);
        assert_eq!(report.deltas_sent, 1);
        // Location 1 (stalest: cached at day 2) must have won.
        assert_eq!(cache.get(LocationId(1), band()).unwrap().captured_day, 20.0);
        assert_eq!(cache.get(LocationId(0), band()).unwrap().captured_day, 18.0);
    }

    #[test]
    fn empty_deltas_advance_timestamp_for_free() {
        let mut pool = ReferencePool::new();
        let mut cache = OnboardReferenceCache::new();
        cache.install(make_ref(3.0, |_| 0.5));
        pool.offer(make_ref(9.0, |_| 0.5)); // same content, newer
        let planner = UplinkPlanner::new(0.01);
        let report = planner.plan(&pool, &mut cache, &[(LocationId(0), band())], 10_000);
        assert_eq!(report.bytes_used, 0);
        assert_eq!(cache.get(LocationId(0), band()).unwrap().captured_day, 9.0);
    }

    #[test]
    fn compression_ratio_ladder_matches_figure_17_shape() {
        // uncompressed -> downsampled (2601x) -> + delta updates (>>2601x).
        let full_side = DEFAULT_REFERENCE_DOWNSAMPLE * 10;
        let full_px = full_side * full_side;
        let uncompressed_bytes = (full_px * 12 / 8) as u64;
        let old = make_ref(3.0, |i| (i % 7) as f32 / 7.0);
        let new = make_ref(8.0, |i| if i < 5 { 0.95 } else { (i % 7) as f32 / 7.0 });
        let downsampled_bytes = new.size_bytes();
        let delta_bytes = compute_delta(&new, Some(&old), 0.01).unwrap().size_bytes();
        let r_downsample = uncompressed_bytes as f64 / downsampled_bytes as f64;
        let r_delta = uncompressed_bytes as f64 / delta_bytes as f64;
        assert!(r_downsample > 2000.0, "downsample ratio {r_downsample}");
        assert!(r_delta > 2.0 * r_downsample, "delta ratio {r_delta}");
    }
}
