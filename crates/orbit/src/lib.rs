//! Constellation, ground-contact, and link simulator for the Earth+
//! reproduction.
//!
//! Models the orbital mechanics of the Doves constellation at the level
//! the compression system observes (§2, Table 1):
//!
//! * [`Satellite`] — a LEO earth-observation satellite revisiting any fixed
//!   location every 10–15 days;
//! * [`Constellation`] — staggered satellites whose combined coverage
//!   saturates at one visit per location per day (sun-synchronous orbit);
//! * [`LinkModel`] / [`ContactSchedule`] — 10-minute ground contacts, seven
//!   per day, over a constant 250 kbps uplink.
//!
//! # Example
//!
//! ```
//! use earthplus_orbit::{Constellation, LinkModel};
//! use earthplus_raster::LocationId;
//!
//! let fleet = Constellation::doves(48, 7);
//! let visits = fleet.visits(LocationId(0), 0, 30);
//! assert!(visits.len() >= 25); // near-daily coverage
//! assert_eq!(LinkModel::doves_uplink().bytes_per_contact(0), 18_750_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod constellation;
pub mod link;
pub mod satellite;

pub use constellation::{Constellation, Visit};
pub use link::{
    Contact, ContactSchedule, LinkModel, CONTACTS_PER_DAY, CONTACT_DURATION_S, DOVES_UPLINK_BPS,
};
pub use satellite::{Satellite, SatelliteId};
