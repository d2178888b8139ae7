//! # earthplus-ground — the concurrent ground-segment reference service
//!
//! Earth+'s ground segment maintains the freshest cloud-free reference per
//! `(location, band)` and squeezes updates to the whole constellation
//! through the 250 kbps uplink (§4.3 of the paper). This crate is the
//! single entry point for that logic:
//!
//! * [`mod@reference`] — the reference-image primitives: [`ReferenceImage`],
//!   the single-threaded [`ReferencePool`] (kept as the baseline the
//!   sharded store is benchmarked against), and the unbounded
//!   [`OnboardReferenceCache`];
//! * [`uplink`] — delta compression of reference updates
//!   ([`compute_delta`], [`ReferenceDelta`]) and the legacy per-satellite
//!   greedy [`UplinkPlanner`];
//! * [`store`] — [`ShardedReferenceStore`]: an `RwLock`-per-shard
//!   concurrent pool supporting parallel ingest of downlinked captures on
//!   the process's worker pool ([`earthplus_raster::fan_out`]);
//! * [`backend`] — [`ReferenceBackend`]: the store seam the service and
//!   scheduler run against;
//! * [`station`] — [`ReplicatedReferenceStore`]: the durable backend,
//!   one crash-recoverable `earthplus-refstore` log per shard directory
//!   (same shard routing as the in-memory store), spread over a station
//!   set with CRC-verified segment shipping (synchronous by default, or
//!   pipelined through bounded per-station ship queues via
//!   [`ShipQueueConfig`]), outage failover that promotes replicas by
//!   replaying their shipped segments, and degraded-mode accounting. One
//!   station with no replicas is the plain durable store
//!   ([`GroundServiceConfig::with_persistence`]); the backend is selected
//!   via [`ReferenceBackendConfig`] in the service config;
//! * [`fault`] — the deterministic [`FaultPlan`] harness (applied via
//!   [`GroundServiceConfig::with_fault_plan`]): station outages, replica-segment decay, dropped/corrupted
//!   transfers, slow-disk stalls, and mid-pass uplink drops, all from
//!   the plan's seed;
//! * [`cache`] — [`EvictingReferenceCache`]: the capacity-bounded on-board
//!   cache model with an age/LRU hybrid eviction policy and
//!   hit/miss/eviction counters;
//! * [`scheduler`] — [`ConstellationScheduler`]: plans *all* satellites'
//!   contact windows in one pass — one store read per stale reference,
//!   one staleness-weighted update queue per satellite — replacing
//!   per-satellite greedy planning;
//! * [`service`] — the [`GroundService`] facade (`ingest_downlink`,
//!   `plan_pass`, `serve_reference`, `stats`) that the Earth+ strategy
//!   and the mission simulator drive; a single contact is a pass of one
//!   window.
//!
//! # Example
//!
//! ```
//! use earthplus_ground::{ContactWindow, GroundService, GroundServiceConfig, ReferenceImage};
//! use earthplus_orbit::SatelliteId;
//! use earthplus_raster::{Band, LocationId, PlanetBand, Raster};
//!
//! let service = GroundService::new(GroundServiceConfig::default());
//! let full = Raster::filled(256, 256, 0.4);
//! let band = Band::Planet(PlanetBand::Red);
//! let reference = ReferenceImage::from_capture(LocationId(0), band, 3.0, &full, 51).unwrap();
//! assert!(service.ingest_downlink(reference));
//!
//! let reports = service.plan_pass(&[ContactWindow {
//!     satellite: SatelliteId(0),
//!     day: 4.0,
//!     budget_bytes: 18_750_000,
//! }]);
//! assert_eq!(reports[0].deltas_sent, 1);
//! assert!(service.serve_reference(SatelliteId(0), LocationId(0), band).is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod cache;
pub mod fault;
pub mod reference;
pub mod scheduler;
pub mod service;
pub mod station;
pub mod store;
pub mod uplink;

pub use backend::ReferenceBackend;
// The storage-engine types that appear in this crate's public API.
pub use cache::{CacheStats, EvictingReferenceCache};
pub use earthplus_refstore::{RecoveryReport, RefLogConfig};
pub use fault::{FaultPlan, OutageWindow, SegmentCorruption};
pub use reference::{
    OnboardReferenceCache, ReferenceFromEncodedError, ReferenceImage, ReferencePool,
    DEFAULT_REFERENCE_DOWNSAMPLE,
};
pub use scheduler::{ConstellationScheduler, ContactWindow};
pub use service::{GroundService, GroundServiceConfig, GroundServiceStats, ReferenceBackendConfig};
pub use station::{
    PersistentStoreStats, ReplicatedReferenceStore, ShipPolicy, ShipQueueConfig, StationSetConfig,
    StationSetStats,
};
pub use store::{shard_index, IngestReport, ShardedReferenceStore};
pub use uplink::{compute_delta, ReferenceDelta, UplinkPlanner, UplinkReport};
