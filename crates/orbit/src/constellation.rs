//! Constellations and visit schedules.

use crate::satellite::{Satellite, SatelliteId};
use earthplus_raster::LocationId;

/// One satellite overflight of one location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Visit {
    /// Continuous mission day of the capture (sun-synchronous orbits image
    /// at the same local solar time, ~10:30, hence the fixed fraction).
    pub day: f64,
    /// The satellite making the capture.
    pub satellite: SatelliteId,
    /// The observed location.
    pub location: LocationId,
}

/// Fraction of the day at which sun-synchronous captures happen.
const LOCAL_SOLAR_FRACTION: f64 = 0.43;

/// A constellation of staggered LEO satellites.
///
/// The visit model captures the two facts the paper relies on:
///
/// * an individual satellite revisits a fixed location every 10–15 days
///   (§3), and
/// * the *constellation* visits any location at most once per day (a
///   sun-synchronous constellation images each location "approximately ...
///   once per day, at approximately the same local time", §2.1 footnote 2);
///   more satellites means the daily slot is filled more often, saturating
///   at daily coverage.
#[derive(Debug, Clone)]
pub struct Constellation {
    satellites: Vec<Satellite>,
    seed: u64,
}

impl Constellation {
    /// Builds a Doves-like constellation of `count` satellites with
    /// revisit periods staggered over 10–15 days.
    pub fn doves(count: usize, seed: u64) -> Self {
        let satellites = (0..count as u32)
            .map(|i| {
                let h = mix(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let revisit_days = 10 + (h % 6) as u32; // 10..=15
                let phase_days = (mix(h) % revisit_days as u64) as u32;
                Satellite {
                    id: SatelliteId(i),
                    revisit_days,
                    phase_days,
                }
            })
            .collect();
        Constellation { satellites, seed }
    }

    /// The satellites, ordered by id.
    pub fn satellites(&self) -> &[Satellite] {
        &self.satellites
    }

    /// Number of satellites.
    pub fn len(&self) -> usize {
        self.satellites.len()
    }

    /// Whether the constellation has no satellites.
    pub fn is_empty(&self) -> bool {
        self.satellites.is_empty()
    }

    /// Per-location schedule phase, decorrelating different locations.
    fn location_phase(&self, location: LocationId) -> u32 {
        (mix(self.seed ^ 0x10C ^ (location.0 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)) % 97)
            as u32
    }

    /// The satellite (if any) that captures `location` on integer `day`.
    ///
    /// When several satellites' tracks would cover the location on the same
    /// day, exactly one takes the shot (overlapping swaths in the same
    /// orbital plane image the same ground once); the winner rotates
    /// deterministically so captures spread across the fleet.
    fn visitor_on(&self, location: LocationId, day: i64) -> Option<SatelliteId> {
        let phase = self.location_phase(location);
        let candidates: Vec<&Satellite> = self
            .satellites
            .iter()
            .filter(|s| s.visits_on(day, phase))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let pick = (mix(self.seed ^ day as u64 ^ (location.0 as u64) << 32)
            % candidates.len() as u64) as usize;
        Some(candidates[pick].id)
    }

    /// All constellation visits to `location` in `[from_day, to_day)`.
    pub fn visits(&self, location: LocationId, from_day: i64, to_day: i64) -> Vec<Visit> {
        (from_day..to_day)
            .filter_map(|day| {
                self.visitor_on(location, day).map(|satellite| Visit {
                    day: day as f64 + LOCAL_SOLAR_FRACTION,
                    satellite,
                    location,
                })
            })
            .collect()
    }
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doves_revisit_periods_in_range() {
        let c = Constellation::doves(48, 7);
        assert_eq!(c.len(), 48);
        for s in c.satellites() {
            assert!((10..=15).contains(&s.revisit_days));
            assert!(s.phase_days < s.revisit_days);
        }
    }

    #[test]
    fn single_satellite_revisit_interval() {
        let c = Constellation::doves(1, 3);
        let visits = c.visits(LocationId(0), 0, 120);
        assert!(!visits.is_empty());
        let expected = 120 / c.satellites()[0].revisit_days as usize;
        assert!((visits.len() as i64 - expected as i64).abs() <= 1);
        // Gaps equal the revisit period.
        for w in visits.windows(2) {
            let gap = w[1].day - w[0].day;
            assert!((gap - c.satellites()[0].revisit_days as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn large_constellation_visits_almost_daily() {
        let c = Constellation::doves(48, 11);
        let rate = c.visits(LocationId(0), 0, 365).len() as f64 / 365.0;
        assert!(rate > 0.9, "rate {rate}");
        assert!(rate <= 1.0 + 1e-12, "rate {rate}");
    }

    #[test]
    fn visit_rate_grows_with_constellation_size() {
        let mut last = 0.0;
        for n in [1usize, 2, 4, 8, 16] {
            let c = Constellation::doves(n, 5);
            let rate = c.visits(LocationId(1), 0, 730).len() as f64 / 730.0;
            assert!(rate >= last - 0.02, "rate {rate} after {last} at size {n}");
            last = rate;
        }
        assert!(last > 0.5);
    }

    #[test]
    fn at_most_one_visit_per_day() {
        let c = Constellation::doves(48, 13);
        let visits = c.visits(LocationId(2), 0, 200);
        for w in visits.windows(2) {
            assert!(w[1].day > w[0].day);
            assert!(w[1].day - w[0].day >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn captures_spread_across_fleet() {
        let c = Constellation::doves(8, 17);
        let visits = c.visits(LocationId(0), 0, 365);
        let distinct: std::collections::HashSet<_> = visits.iter().map(|v| v.satellite).collect();
        assert!(
            distinct.len() >= 4,
            "only {} satellites used",
            distinct.len()
        );
    }

    #[test]
    fn schedules_deterministic() {
        let a = Constellation::doves(10, 23).visits(LocationId(5), 0, 100);
        let b = Constellation::doves(10, 23).visits(LocationId(5), 0, 100);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.day, y.day);
            assert_eq!(x.satellite, y.satellite);
        }
    }

    #[test]
    fn locations_have_different_schedules() {
        let c = Constellation::doves(2, 29);
        let a = c.visits(LocationId(0), 0, 60);
        let b = c.visits(LocationId(1), 0, 60);
        let days_a: Vec<i64> = a.iter().map(|v| v.day as i64).collect();
        let days_b: Vec<i64> = b.iter().map(|v| v.day as i64).collect();
        assert_ne!(days_a, days_b);
    }
}
