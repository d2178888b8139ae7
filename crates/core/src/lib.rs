//! # Earth+ — constellation-wide reference-based on-board compression
//!
//! A full reproduction of *"Earth+: On-Board Satellite Imagery Compression
//! Leveraging Historical Earth Observations"* (ASPLOS 2025). Instead of
//! compressing every capture independently, Earth+ compares each new image
//! against a **fresh, cloud-free reference** — possibly captured by a
//! *different* satellite and uploaded over the narrow ground-to-satellite
//! uplink — and downloads only the 64×64 tiles that changed.
//!
//! The crate wires together the workspace substrates:
//!
//! * [`change`] — downsampled-reference change detection with threshold θ;
//! * [`mod@reference`] — the ground reference pool and the on-board cache;
//! * [`uplink`] — delta-compressed reference uploads under 250 kbps;
//! * [`earthplus_ground`] (re-exported here) — the concurrent ground
//!   segment: sharded reference store, constellation-wide pass scheduler,
//!   eviction-tracked cache model, and the [`GroundService`] facade the
//!   Earth+ strategy drives;
//! * [`system`] — the Earth+ strategy (on-board pipeline + ground segment);
//! * [`baselines`] — Kodan and SatRoI, which run the same capture loop
//!   (codec format, scratch arenas, ground patch, scoring) as Earth+ and
//!   differ only in cloud detection and tile selection;
//! * [`simulator`] — the mission driver running all strategies on
//!   identical captures;
//! * [`metrics`] / [`storage`] — the paper's evaluation metrics;
//! * [`telemetry`] — the mission-level observability rollup
//!   ([`TelemetryReport`]): per-satellite and constellation-wide stage
//!   timings, built on [`earthplus_telemetry`] (re-exported here).
//!
//! # Example
//!
//! ```no_run
//! use earthplus::prelude::*;
//! use earthplus_cloud::{train_onboard_detector, TrainingConfig};
//!
//! let dataset = earthplus_scene::large_constellation(7, 256);
//! let sim_config = SimulationConfig::for_dataset(&dataset, 7);
//! let sim = MissionSimulator::from_dataset(&dataset, sim_config);
//! let detector = train_onboard_detector(&sim.scenes()[0], &TrainingConfig::default());
//!
//! let targets: Vec<_> = dataset
//!     .locations
//!     .iter()
//!     .flat_map(|l| l.bands.iter().map(|&b| (l.location, b)))
//!     .collect();
//! let mut earthplus = EarthPlusStrategy::new(EarthPlusConfig::paper(), detector.clone(), targets);
//! let mut kodan = KodanStrategy::new(EarthPlusConfig::paper());
//! let report = sim.run(&mut [&mut earthplus, &mut kodan]);
//! let saving = earthplus::metrics::downlink_saving(
//!     report.records("kodan"),
//!     report.records("earth+"),
//! );
//! println!("Earth+ saves {saving:.1}x downlink vs Kodan");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod change;
pub mod config;
pub mod metrics;
mod pipeline;
pub mod reference;
pub mod simulator;
pub mod storage;
pub mod strategy;
pub mod system;
pub mod telemetry;
pub mod uplink;

pub use baselines::{KodanStrategy, SatRoiStrategy};
pub use change::{ChangeDetection, ChangeDetector};
pub use config::{DovesSpec, EarthPlusConfig};
pub use earthplus_ground::{
    CacheStats, ConstellationScheduler, ContactWindow, EvictingReferenceCache, GroundService,
    GroundServiceConfig, GroundServiceStats, IngestReport, ReferenceBackend,
    ReferenceBackendConfig, ReplicatedReferenceStore, ShardedReferenceStore, ShipQueueConfig,
    StationSetConfig,
};
pub use earthplus_telemetry::{
    evaluate_health, verdicts_table, FlightRecorder, HealthCheck, HealthRule, HealthStatus,
    HealthVerdict, MetricsRegistry, SeriesMetric, SeriesRecorder, SeriesSpec, Snapshot,
    TelemetrySeries, TelemetrySink, TraceEvent, TraceEventKind, TraceId, TraceLog, TraceSink,
    TraceTrack,
};
pub use reference::{OnboardReferenceCache, ReferenceImage, ReferencePool};
pub use simulator::{MissionReport, MissionSimulator, SimulationConfig};
pub use storage::StorageModel;
pub use strategy::{
    CaptureContext, CaptureReport, CompressionStrategy, GroundBelief, StageTimings,
    StorageBreakdown,
};
pub use system::EarthPlusStrategy;
pub use telemetry::{StageRollup, TelemetryReport};
pub use uplink::{compute_delta, ReferenceDelta, UplinkPlanner, UplinkReport};

/// Everything a simulation driver typically needs.
pub mod prelude {
    pub use crate::baselines::{KodanStrategy, SatRoiStrategy};
    pub use crate::config::{DovesSpec, EarthPlusConfig};
    pub use crate::simulator::{MissionReport, MissionSimulator, SimulationConfig};
    pub use crate::strategy::{CaptureReport, CompressionStrategy};
    pub use crate::system::EarthPlusStrategy;
    pub use crate::telemetry::TelemetryReport;
    pub use earthplus_telemetry::{FlightRecorder, MetricsRegistry, TraceId, TraceLog};
}
