//! Individual satellites and their revisit behaviour.

use std::fmt;

/// Identifies one satellite within a constellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatelliteId(pub u32);

impl fmt::Display for SatelliteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sat{}", self.0)
    }
}

impl From<u32> for SatelliteId {
    fn from(v: u32) -> Self {
        SatelliteId(v)
    }
}

/// Orbital behaviour of one satellite, reduced to what the compression
/// system can observe: how often it revisits a given ground location.
///
/// LEO earth-observation satellites "can only capture a small area on Earth
/// at a time ... necessitating extended periods to complete a full scan of
/// the Earth before revisiting the same locations" — a single satellite
/// revisits a location only "once every 10-15 days" (§3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Satellite {
    /// Identity within the constellation.
    pub id: SatelliteId,
    /// Days between consecutive visits of this satellite to any fixed
    /// location.
    pub revisit_days: u32,
    /// Phase of the revisit cycle (day offset), giving constellations
    /// staggered coverage.
    pub phase_days: u32,
}

impl Satellite {
    /// Whether this satellite overflies `location_phase`-shifted ground on
    /// integer `day`. `location_phase` decorrelates the schedule between
    /// locations.
    pub fn visits_on(&self, day: i64, location_phase: u32) -> bool {
        let cycle = self.revisit_days as i64;
        (day - self.phase_days as i64 - location_phase as i64).rem_euclid(cycle) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sat() -> Satellite {
        Satellite {
            id: SatelliteId(0),
            revisit_days: 12,
            phase_days: 5,
        }
    }

    #[test]
    fn visits_follow_cycle() {
        let s = sat();
        assert!(s.visits_on(5, 0));
        assert!(s.visits_on(17, 0));
        assert!(!s.visits_on(6, 0));
        assert!(s.visits_on(8, 3)); // phase 5 + location phase 3
    }

    #[test]
    fn negative_days_handled() {
        let s = sat();
        // rem_euclid keeps the cycle consistent across day zero.
        assert!(s.visits_on(5 - 12, 0));
        assert!(s.visits_on(-7, 0));
        assert!(!s.visits_on(-10, 0));
    }

    #[test]
    fn display_format() {
        assert_eq!(SatelliteId(3).to_string(), "sat3");
    }
}
