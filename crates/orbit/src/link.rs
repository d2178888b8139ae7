//! Uplink / downlink models and ground-contact scheduling.
//!
//! Table 1 of the paper (Doves constellation): ground contacts last 10
//! minutes and happen 7 times per day; the uplink runs at a constant
//! 250 kbps (S-band, weather-insensitive). Mid-pass uplink drops are
//! injected by the ground segment's fault plan, not by the link model.

use crate::satellite::SatelliteId;

/// Seconds per ground contact (Table 1).
pub const CONTACT_DURATION_S: f64 = 600.0;
/// Ground contacts per satellite per day (Table 1).
pub const CONTACTS_PER_DAY: u32 = 7;
/// Doves uplink bandwidth, bits per second (Table 1).
pub const DOVES_UPLINK_BPS: f64 = 250_000.0;

/// A constant-rate link for one direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Bandwidth in bits per second.
    pub nominal_bps: f64,
}

impl LinkModel {
    /// Constant-rate link.
    pub fn constant(nominal_bps: f64) -> Self {
        LinkModel { nominal_bps }
    }

    /// The Doves uplink at its constant 250 kbps.
    pub fn doves_uplink() -> Self {
        Self::constant(DOVES_UPLINK_BPS)
    }

    /// Bytes transferable during one contact. The link is constant, so
    /// the contact index is unused: every contact carries the same bytes.
    pub fn bytes_per_contact(&self, _contact_index: u64) -> u64 {
        (self.nominal_bps * CONTACT_DURATION_S / 8.0) as u64
    }
}

/// One ground-station contact window for a satellite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contact {
    /// Continuous mission day of the contact start.
    pub day: f64,
    /// The satellite in contact.
    pub satellite: SatelliteId,
    /// Global contact index (what [`LinkModel::bytes_per_contact`] takes).
    pub index: u64,
}

/// Deterministic contact schedule: `CONTACTS_PER_DAY` evenly spaced windows
/// per satellite per day, with a per-satellite phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactSchedule {
    seed: u64,
}

impl ContactSchedule {
    /// Creates a schedule.
    pub fn new(seed: u64) -> Self {
        ContactSchedule { seed }
    }

    fn phase(&self, satellite: SatelliteId) -> f64 {
        unit(mix(
            self.seed ^ (satellite.0 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        )) / CONTACTS_PER_DAY as f64
    }

    /// All contacts of `satellite` in `[from_day, to_day)`.
    pub fn contacts(&self, satellite: SatelliteId, from_day: f64, to_day: f64) -> Vec<Contact> {
        let phase = self.phase(satellite);
        let step = 1.0 / CONTACTS_PER_DAY as f64;
        let mut out = Vec::new();
        let mut k = ((from_day - phase) / step).floor() as i64;
        loop {
            let day = phase + k as f64 * step;
            if day >= to_day {
                break;
            }
            if day >= from_day {
                out.push(Contact {
                    day,
                    satellite,
                    index: k.max(0) as u64,
                });
            }
            k += 1;
        }
        out
    }
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doves_uplink_capacity_per_contact() {
        // 250 kbps x 600 s / 8 = 18.75 MB per contact.
        let up = LinkModel::doves_uplink();
        assert_eq!(up.bytes_per_contact(0), 18_750_000);
        // Constant link: same every contact.
        assert_eq!(up.bytes_per_contact(5), up.bytes_per_contact(99));
    }

    #[test]
    fn seven_contacts_per_day() {
        let sched = ContactSchedule::new(1);
        let contacts = sched.contacts(SatelliteId(0), 0.0, 10.0);
        assert_eq!(contacts.len(), 70);
        for w in contacts.windows(2) {
            assert!((w[1].day - w[0].day - 1.0 / 7.0).abs() < 1e-9);
        }
    }

    #[test]
    fn satellites_have_different_contact_phases() {
        let sched = ContactSchedule::new(5);
        let a = sched.contacts(SatelliteId(0), 0.0, 1.0);
        let b = sched.contacts(SatelliteId(1), 0.0, 1.0);
        assert!((a[0].day - b[0].day).abs() > 1e-6);
    }
}
