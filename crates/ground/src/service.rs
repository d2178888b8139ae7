//! The ground-segment facade: one object owning reference ingest, the
//! sharded store, constellation-wide uplink scheduling, and the modelled
//! per-satellite on-board caches.
//!
//! Every method takes `&self` (shard locks, a cache mutex, and atomic
//! counters provide interior mutability), so one `GroundService` can be
//! shared by concurrent downlink decoders, the contact scheduler, and
//! metric scrapers — the shape a real ground segment serving a
//! constellation needs.

use crate::backend::ReferenceBackend;
use crate::cache::{CacheCounters, CacheStats, EvictingReferenceCache};
use crate::fault::{shared_injector, FaultPlan, SharedFaultInjector};
use crate::reference::{ReferenceFromEncodedError, ReferenceImage, DEFAULT_REFERENCE_DOWNSAMPLE};
use crate::scheduler::{ConstellationScheduler, ContactWindow};
use crate::station::{ReplicatedReferenceStore, StationSetConfig};
use crate::store::{IngestReport, ShardedReferenceStore};
use crate::uplink::UplinkReport;
use earthplus_codec::{DecodeScratch, EncodedImage};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{Band, LocationId};
use earthplus_refstore::{RecoveryReport, RefLogConfig, RefStoreError};
use earthplus_telemetry::{names, Counter, Gauge, Histogram, TelemetrySink, TraceSink, TraceTrack};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Which reference-store backend a [`GroundService`] runs on.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ReferenceBackendConfig {
    /// The in-memory sharded store — fast, forgets everything on restart
    /// (the seed behaviour, and the right choice for pure simulation).
    #[default]
    InMemory,
    /// The durable log-structured store under `dir` — survives ground
    /// segment restarts with a replay-recovered index — with its shard
    /// directories spread over a station set, segment shipping and outage
    /// failover (see [`crate::station::ReplicatedReferenceStore`]). One
    /// station with no replicas is the plain durable store
    /// ([`GroundServiceConfig::with_persistence`]).
    Replicated {
        /// Root directory; `station-NN/shard-NNN` trees live beneath it.
        dir: PathBuf,
        /// Topology, storage-engine tuning, and transfer retry policy.
        stations: StationSetConfig,
    },
}

/// Configuration of a [`GroundService`].
#[derive(Debug, Clone)]
pub struct GroundServiceConfig {
    /// Shard count of the reference store (in-memory shards or on-disk
    /// shard directories — same routing either way).
    pub shards: usize,
    /// Which store backend holds the references.
    pub backend: ReferenceBackendConfig,
    /// Pixel-difference threshold for delta compression of reference
    /// updates.
    pub theta: f32,
    /// Byte bound of each satellite's modelled on-board cache (`None` =
    /// unbounded, the paper's assumption).
    pub cache_capacity_bytes: Option<u64>,
    /// Worker cap for batch ingest, the calling thread included; the
    /// worker pool clamps it to the host's cores. Defaults to one per host
    /// core ([`earthplus_raster::available_cores`]).
    pub ingest_threads: usize,
    /// The (location, band) pairs the uplink serves; empty means "every
    /// key the store holds".
    pub targets: Vec<(LocationId, Band)>,
    /// Per-axis downsampling factor for references built from archived
    /// *encoded* captures ([`GroundService::ingest_encoded`]).
    pub reference_downsample: usize,
    /// Where the service records its metrics. The default (disabled) sink
    /// is upgraded to a *private* registry at construction — the service's
    /// counters always count, [`GroundService::stats`] reads them either
    /// way — but only a caller-supplied sink makes them visible in shared
    /// telemetry snapshots.
    pub telemetry: TelemetrySink,
    /// Where the service records trace events (ingest/planning spans,
    /// cache-lookup instants, storage appends). Disabled by default: a
    /// site records nothing until a
    /// [`earthplus_telemetry::FlightRecorder`] sink is wired in, and its
    /// span reads the clock only for that recorder or for the service's
    /// own latency histogram.
    pub tracing: TraceSink,
    /// Deterministic fault schedule driven through the service: station
    /// outages and transfer faults reach the replicated backend, and
    /// mid-pass uplink drops clamp contact-window budgets in
    /// [`GroundService::plan_pass`]. `None` (the default) injects
    /// nothing.
    pub fault: Option<FaultPlan>,
}

impl Default for GroundServiceConfig {
    fn default() -> Self {
        GroundServiceConfig {
            shards: ShardedReferenceStore::DEFAULT_SHARDS,
            backend: ReferenceBackendConfig::InMemory,
            theta: 0.01,
            cache_capacity_bytes: None,
            ingest_threads: earthplus_raster::available_cores(),
            targets: Vec::new(),
            reference_downsample: DEFAULT_REFERENCE_DOWNSAMPLE,
            telemetry: TelemetrySink::default(),
            tracing: TraceSink::default(),
            fault: None,
        }
    }
}

impl GroundServiceConfig {
    /// Sets the uplink target list.
    pub fn with_targets(mut self, targets: Vec<(LocationId, Band)>) -> Self {
        self.targets = targets;
        self
    }

    /// Sets the on-board cache capacity bound.
    pub fn with_cache_capacity(mut self, capacity_bytes: Option<u64>) -> Self {
        self.cache_capacity_bytes = capacity_bytes;
        self
    }

    /// Sets the delta threshold θ.
    pub fn with_theta(mut self, theta: f32) -> Self {
        self.theta = theta;
        self
    }

    /// Sets the per-axis downsampling factor used when building
    /// references from archived encoded captures.
    pub fn with_reference_downsample(mut self, factor: usize) -> Self {
        self.reference_downsample = factor;
        self
    }

    /// Selects the durable backend rooted at `dir`: one station, no
    /// replicas, default storage-engine tuning. Shard logs live under
    /// `dir/station-00/shard-NNN`.
    pub fn with_persistence(self, dir: impl Into<PathBuf>) -> Self {
        self.with_stations(dir, StationSetConfig::single(RefLogConfig::default()))
    }

    /// Sets the backend explicitly.
    pub fn with_backend(mut self, backend: ReferenceBackendConfig) -> Self {
        self.backend = backend;
        self
    }

    /// Routes the service's metrics into `sink` (ingest/uplink counters,
    /// stage latency histograms, cache counters, storage-engine spans).
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Routes the service's trace events into `sink` — the flight
    /// recorder's ground-station timeline.
    pub fn with_tracing(mut self, sink: TraceSink) -> Self {
        self.tracing = sink;
        self
    }

    /// Selects the replicated multi-station backend rooted at `dir`.
    pub fn with_stations(self, dir: impl Into<PathBuf>, stations: StationSetConfig) -> Self {
        self.with_backend(ReferenceBackendConfig::Replicated {
            dir: dir.into(),
            stations,
        })
    }

    /// Installs a deterministic fault schedule (see [`FaultPlan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }
}

/// A point-in-time snapshot of the service's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroundServiceStats {
    /// (location, band) entries in the reference store.
    pub store_entries: usize,
    /// Bytes held by the reference store.
    pub store_bytes: u64,
    /// Satellites with a modelled on-board cache.
    pub satellites: usize,
    /// On-board cache counters, merged across satellites.
    pub cache: CacheStats,
    /// Current total on-board cache bytes across satellites.
    pub cache_bytes: u64,
    /// Largest single-satellite cache footprint ever observed.
    pub peak_cache_bytes: u64,
    /// Reference updates scheduled onto the uplink.
    pub deltas_sent: u64,
    /// Updates that did not fit their pass and were served stale.
    pub deltas_skipped: u64,
    /// Total bytes scheduled onto the uplink.
    pub uplink_bytes_sent: u64,
    /// Downlinked references admitted into the store.
    pub ingest_accepted: u64,
    /// Downlinked references rejected as stale.
    pub ingest_rejected: u64,
    /// References built from archived encoded captures (the LL-only
    /// partial-decode ingest path).
    pub encoded_ingests: u64,
    /// Corrupt records dropped by recovery replay when the durable
    /// backend opened (0 on a clean open or the in-memory backend).
    pub recovery_dropped_records: u64,
    /// Torn-tail bytes truncated by recovery replay at open.
    pub recovery_truncated_bytes: u64,
    /// Contact windows whose uplink budget was clamped by a mid-pass
    /// link drop; their undelivered references carry into the next
    /// window.
    pub interrupted_windows: u64,
}

impl GroundServiceStats {
    /// What happened between `earlier` and `self`: cumulative counters
    /// subtract (saturating), while level readings — store size, satellite
    /// count, cache footprint, peak — keep their current value. The shape
    /// scheduler-integration tests want: "this pass sent N deltas", not
    /// "the service has ever sent M".
    pub fn delta(&self, earlier: &GroundServiceStats) -> GroundServiceStats {
        GroundServiceStats {
            store_entries: self.store_entries,
            store_bytes: self.store_bytes,
            satellites: self.satellites,
            cache: self.cache.delta(&earlier.cache),
            cache_bytes: self.cache_bytes,
            peak_cache_bytes: self.peak_cache_bytes,
            deltas_sent: self.deltas_sent.saturating_sub(earlier.deltas_sent),
            deltas_skipped: self.deltas_skipped.saturating_sub(earlier.deltas_skipped),
            uplink_bytes_sent: self
                .uplink_bytes_sent
                .saturating_sub(earlier.uplink_bytes_sent),
            ingest_accepted: self.ingest_accepted.saturating_sub(earlier.ingest_accepted),
            ingest_rejected: self.ingest_rejected.saturating_sub(earlier.ingest_rejected),
            encoded_ingests: self.encoded_ingests.saturating_sub(earlier.encoded_ingests),
            // Recovery is a fact about the open, not a rate: level.
            recovery_dropped_records: self.recovery_dropped_records,
            recovery_truncated_bytes: self.recovery_truncated_bytes,
            interrupted_windows: self
                .interrupted_windows
                .saturating_sub(earlier.interrupted_windows),
        }
    }
}

/// The store a [`GroundService`] runs on.
#[derive(Debug)]
enum Backend {
    InMemory(ShardedReferenceStore),
    /// The durable store, with what recovery found when it opened.
    Durable {
        store: ReplicatedReferenceStore,
        recovery: RecoveryReport,
    },
}

/// The concurrent ground-segment reference service.
#[derive(Debug)]
pub struct GroundService {
    config: GroundServiceConfig,
    backend: Backend,
    /// The live fault injector, shared with the durable backend.
    fault: Option<SharedFaultInjector>,
    scheduler: ConstellationScheduler,
    caches: Mutex<HashMap<SatelliteId, EvictingReferenceCache>>,
    /// Pool of decode arenas for the encoded-capture ingest path: each
    /// ingest pops one (creating it on first use), decodes *outside* the
    /// lock, and returns it — so concurrent archive backfills decode in
    /// parallel while steady-state ingest still allocates no scratch.
    ingest_scratch: Mutex<Vec<DecodeScratch>>,
    /// Trace sink (disabled unless the caller wired a flight recorder).
    tracing: TraceSink,
    /// On-board cache counters, shared by every satellite's cache.
    cache_counters: CacheCounters,
    ingest_accepted: Counter,
    ingest_rejected: Counter,
    encoded_ingests: Counter,
    deltas_sent: Counter,
    deltas_skipped: Counter,
    uplink_bytes_sent: Counter,
    interrupted_windows: Counter,
    faults_injected: Counter,
    peak_cache_bytes: Gauge,
    ingest_ns: Histogram,
    ingest_encoded_ns: Histogram,
    plan_pass_ns: Histogram,
}

impl GroundService {
    /// Creates the service.
    ///
    /// # Panics
    ///
    /// Panics if the durable backend cannot open its directory; use
    /// [`GroundService::try_new`] to handle storage errors.
    pub fn new(config: GroundServiceConfig) -> Self {
        Self::try_new(config).expect("reference backend failed to open")
    }

    /// Creates the service, surfacing storage errors from the durable
    /// backend instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the storage-engine error when the durable backend
    /// cannot be opened (I/O failure on its directory). The in-memory
    /// backend never fails.
    pub fn try_new(config: GroundServiceConfig) -> Result<Self, RefStoreError> {
        // Counters must count whether or not the caller wired
        // observability; a disabled sink is upgraded to a private registry
        // here, once, and every handle resolves against the result.
        let sink = config.telemetry.or_private();
        let fault = config.fault.clone().map(shared_injector);
        let backend = match &config.backend {
            ReferenceBackendConfig::InMemory => {
                Backend::InMemory(ShardedReferenceStore::new(config.shards))
            }
            ReferenceBackendConfig::Replicated { dir, stations } => {
                let (store, recovery) = ReplicatedReferenceStore::open_faulted(
                    dir,
                    config.shards,
                    stations.clone(),
                    fault.clone(),
                    &sink,
                    &config.tracing,
                )?;
                // A non-clean open is a fact worth shouting about
                // (satellites' freshness clocks may have regressed); it is
                // also kept readable in `stats()` and exported as counters
                // so mission rollups and health rules see it.
                if !recovery.clean() {
                    eprintln!(
                        "ground: storage recovery healed damage: {} corrupt records dropped, \
                         {} torn bytes truncated across {} segments",
                        recovery.corrupt_records_dropped,
                        recovery.truncated_bytes,
                        recovery.segments_scanned
                    );
                }
                // Register (even at zero) so the series exists on every
                // durable mission and health rules never read missing data.
                sink.counter(names::REFSTORE_RECOVERY_DROPPED_RECORDS)
                    .add(recovery.corrupt_records_dropped);
                sink.counter(names::REFSTORE_RECOVERY_DROPPED_BYTES)
                    .add(recovery.truncated_bytes);
                Backend::Durable { store, recovery }
            }
        };
        Ok(GroundService {
            backend,
            fault,
            scheduler: ConstellationScheduler::new(config.theta),
            caches: Mutex::new(HashMap::new()),
            ingest_scratch: Mutex::new(Vec::new()),
            cache_counters: CacheCounters::from_sink(&sink),
            ingest_accepted: sink.counter(names::GROUND_INGEST_ACCEPTED),
            ingest_rejected: sink.counter(names::GROUND_INGEST_REJECTED),
            encoded_ingests: sink.counter(names::GROUND_INGEST_ENCODED),
            deltas_sent: sink.counter(names::GROUND_DELTAS_SENT),
            deltas_skipped: sink.counter(names::GROUND_DELTAS_SKIPPED),
            uplink_bytes_sent: sink.counter(names::GROUND_UPLINK_BYTES),
            interrupted_windows: sink.counter(names::GROUND_PASS_INTERRUPTED),
            faults_injected: sink.counter(names::FAULTS_INJECTED),
            peak_cache_bytes: sink.gauge(names::GROUND_CACHE_PEAK_BYTES),
            ingest_ns: sink.histogram(names::GROUND_INGEST_NS),
            ingest_encoded_ns: sink.histogram(names::GROUND_INGEST_ENCODED_NS),
            plan_pass_ns: sink.histogram(names::GROUND_PLAN_PASS_NS),
            tracing: config.tracing.clone(),
            config,
        })
    }

    /// The trace sink the service records into (disabled unless the
    /// caller wired a flight recorder via
    /// [`GroundServiceConfig::with_tracing`]).
    pub fn tracing(&self) -> &TraceSink {
        &self.tracing
    }

    /// The configuration in force.
    pub fn config(&self) -> &GroundServiceConfig {
        &self.config
    }

    /// The underlying reference store, whichever backend was configured.
    pub fn store(&self) -> &dyn ReferenceBackend {
        match &self.backend {
            Backend::InMemory(store) => store,
            Backend::Durable { store, .. } => store,
        }
    }

    /// What recovery found when the durable backend opened (`None` on
    /// the in-memory backend): live records replayed, torn bytes
    /// truncated, corrupt records dropped.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        match &self.backend {
            Backend::InMemory(_) => None,
            Backend::Durable { recovery, .. } => Some(recovery),
        }
    }

    /// The durable station set, when that backend is configured — the
    /// control-plane handle for failover state, replication pumps, and
    /// [`crate::station::StationSetStats`].
    pub fn stations(&self) -> Option<&ReplicatedReferenceStore> {
        match &self.backend {
            Backend::InMemory(_) => None,
            Backend::Durable { store, .. } => Some(store),
        }
    }

    /// Flushes the backend's durability (no-op in memory).
    pub fn sync(&self) {
        self.store().sync();
    }

    fn new_cache(&self) -> EvictingReferenceCache {
        EvictingReferenceCache::with_counters(
            self.config.cache_capacity_bytes,
            self.cache_counters.clone(),
        )
    }

    /// Admits one downlinked cloud-free reference; returns whether the
    /// store updated (freshest-wins).
    pub fn ingest_downlink(&self, reference: ReferenceImage) -> bool {
        let mut trace = self
            .tracing
            .span_on(TraceTrack::Station(0), "ground", "ingest")
            .record_into(&self.ingest_ns);
        let day = reference.captured_day;
        let accepted = self.store().offer(reference);
        trace.arg("accepted", accepted);
        trace.arg("captured_day", day);
        if accepted {
            self.ingest_accepted.inc();
        } else {
            self.ingest_rejected.inc();
        }
        accepted
    }

    /// Admits one archived *encoded* capture as a reference candidate: the
    /// low-resolution reference is built straight from the stream's coarse
    /// subband chunks (`ReferenceImage::from_encoded`) — at the default
    /// 51× operating point that decodes only the LL band, so ingest never
    /// materializes a full frame. Returns whether the store updated.
    ///
    /// # Errors
    ///
    /// Propagates decode/resample failures from a malformed or degenerate
    /// stream; nothing is ingested in that case.
    pub fn ingest_encoded(
        &self,
        location: LocationId,
        band: Band,
        day: f64,
        encoded: &EncodedImage,
    ) -> Result<bool, ReferenceFromEncodedError> {
        // Spans the whole path — partial decode, resample, store offer —
        // so `ground.ingest_encoded_ns` answers "what does an archive
        // backfill cost per capture".
        let mut trace = self
            .tracing
            .span_on(TraceTrack::Station(0), "ground", "ingest_encoded")
            .record_into(&self.ingest_encoded_ns);
        trace.arg("bytes", encoded.payload_len());
        // Pop an arena and decode outside the lock: concurrent ingests
        // each get their own scratch instead of serializing on one.
        let mut scratch = self
            .ingest_scratch
            .lock()
            .expect("ingest scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        let result = ReferenceImage::from_encoded(
            location,
            band,
            day,
            encoded,
            self.config.reference_downsample,
            &mut scratch,
        );
        self.ingest_scratch
            .lock()
            .expect("ingest scratch pool poisoned")
            .push(scratch);
        let reference = result?;
        self.encoded_ingests.inc();
        Ok(self.ingest_downlink(reference))
    }

    /// Decode-arena growth events of the encoded-capture ingest path,
    /// summed over the arena pool (see
    /// [`earthplus_codec::DecodeScratch::grow_events`]): stable across two
    /// identical ingest workloads ⇔ steady-state ingest allocates no
    /// decode scratch.
    pub fn ingest_decode_grow_events(&self) -> u64 {
        self.ingest_scratch
            .lock()
            .expect("ingest scratch pool poisoned")
            .iter()
            .map(|s| s.grow_events())
            .sum()
    }

    /// Admits a whole downlink batch on up to
    /// [`GroundServiceConfig::ingest_threads`] workers of the process's
    /// worker pool ([`earthplus_raster::fan_out`]).
    pub fn ingest_downlink_batch(&self, references: Vec<ReferenceImage>) -> IngestReport {
        let mut trace = self
            .tracing
            .span_on(TraceTrack::Station(0), "ground", "ingest_batch");
        let report = self
            .store()
            .ingest_batch(references, self.config.ingest_threads);
        trace.arg("offered", report.offered());
        trace.arg("accepted", report.accepted);
        self.ingest_accepted.add(report.accepted);
        self.ingest_rejected.add(report.rejected);
        report
    }

    /// Plans a whole pass: every contact window of the constellation since
    /// the last planning round, against one sweep of the store (see
    /// [`ConstellationScheduler::plan_pass`]).
    pub fn plan_pass(&self, contacts: &[ContactWindow]) -> Vec<UplinkReport> {
        let mut trace = self
            .tracing
            .span_on(TraceTrack::Station(0), "ground", "plan_pass")
            .record_into(&self.plan_pass_ns);
        trace.arg("contacts", contacts.len());
        // Fault epoch first: outage transitions (and their failovers)
        // land before scheduling, so the pass plans against whichever
        // primaries are actually alive on this day. The station set
        // drains its ship queues before it applies them.
        if let (Some(stations), Some(day)) = (
            self.stations(),
            contacts.iter().map(|c| c.day).reduce(f64::max),
        ) {
            stations.advance_to_day(day);
        }
        // Mid-pass uplink drops: a hit clamps the window's byte budget,
        // and whatever did not fit stays stale in the scheduler's queue —
        // carried into the satellite's next window by the normal
        // staleness ordering, not forgotten.
        let mut clamped;
        let contacts = match &self.fault {
            Some(fault) => {
                clamped = contacts.to_vec();
                let mut injector = fault.lock().expect("fault injector poisoned");
                for window in &mut clamped {
                    if let Some(fraction) = injector.uplink_interrupt() {
                        window.budget_bytes = (window.budget_bytes as f64 * fraction) as u64;
                        self.interrupted_windows.inc();
                        self.faults_injected.inc();
                        self.tracing.instant_on(
                            TraceTrack::Station(0),
                            "ground",
                            "pass_interrupted",
                            &[
                                ("satellite", window.satellite.0.into()),
                                ("budget_bytes", window.budget_bytes.into()),
                            ],
                        );
                    }
                }
                &clamped[..]
            }
            None => contacts,
        };
        // The pass's total budget after any interrupt clamped it, so the
        // span's `budget_bytes` and `bytes_used` cover the same windows.
        let budget = contacts
            .iter()
            .fold(0u64, |total, c| total.saturating_add(c.budget_bytes));
        trace.arg("budget_bytes", budget);
        let all_keys;
        let targets: &[(LocationId, Band)] = if self.config.targets.is_empty() {
            all_keys = self.store().keys();
            &all_keys
        } else {
            &self.config.targets
        };
        let mut caches = self.caches.lock().expect("cache table poisoned");
        let reports =
            self.scheduler
                .plan_pass(self.store(), &mut caches, targets, contacts, || {
                    self.new_cache()
                });
        let mut sent = 0u64;
        let mut skipped = 0u64;
        let mut bytes = 0u64;
        for report in &reports {
            sent += report.deltas_sent as u64;
            skipped += report.deltas_skipped as u64;
            bytes += report.bytes_used;
        }
        self.deltas_sent.add(sent);
        self.deltas_skipped.add(skipped);
        self.uplink_bytes_sent.add(bytes);
        trace.arg("deltas_sent", sent);
        trace.arg("deltas_skipped", skipped);
        trace.arg("bytes_used", bytes);
        let peak = caches.values().map(|c| c.size_bytes()).max().unwrap_or(0);
        self.peak_cache_bytes.set_max(peak);
        drop(caches);
        // Pass boundary: drain the ship queues, catch up any transfer
        // shortfall, and pump one budgeted compaction step per shard off
        // the append hot path. The catch-up and the maintenance re-ship
        // skip, without a filesystem call, every shard whose replication
        // watermark is current (the drain already shipped most of them),
        // so the boundary costs what changed since the last pass.
        if let Some(stations) = self.stations() {
            stations.quiesce();
            stations.replicate();
            stations.maintain();
        }
        reports
    }

    /// Serves a satellite's cached reference for a location/band — the
    /// on-board read path, recorded in the cache's hit/miss counters.
    /// References are tiny after 51× downsampling, so the clone is cheap.
    pub fn serve_reference(
        &self,
        satellite: SatelliteId,
        location: LocationId,
        band: Band,
    ) -> Option<ReferenceImage> {
        let mut caches = self.caches.lock().expect("cache table poisoned");
        let cache = caches.entry(satellite).or_insert_with(|| self.new_cache());
        let served = cache.get(location, band).cloned();
        if self.tracing.enabled() {
            self.tracing.instant_on(
                TraceTrack::Satellite(satellite.0),
                "ground",
                "cache.lookup",
                &[
                    ("hit", served.is_some().into()),
                    ("location", location.0.into()),
                ],
            );
        }
        served
    }

    /// Largest single-satellite cache footprint ever observed — a cheap
    /// atomic read for per-capture accounting hot paths; [`Self::stats`]
    /// reports the same value with full context.
    pub fn peak_cache_bytes(&self) -> u64 {
        self.peak_cache_bytes.value()
    }

    /// A snapshot of every counter the service tracks. The cache counters
    /// are constellation totals read straight off the counters every
    /// satellite's cache shares — no per-satellite merge walk.
    pub fn stats(&self) -> GroundServiceStats {
        let caches = self.caches.lock().expect("cache table poisoned");
        let cache_bytes = caches.values().map(|c| c.size_bytes()).sum();
        let store = self.store();
        let recovery = self.recovery_report();
        GroundServiceStats {
            store_entries: store.len(),
            store_bytes: store.size_bytes(),
            satellites: caches.len(),
            cache: self.cache_counters.stats(),
            cache_bytes,
            peak_cache_bytes: self.peak_cache_bytes.value(),
            deltas_sent: self.deltas_sent.value(),
            deltas_skipped: self.deltas_skipped.value(),
            uplink_bytes_sent: self.uplink_bytes_sent.value(),
            ingest_accepted: self.ingest_accepted.value(),
            ingest_rejected: self.ingest_rejected.value(),
            encoded_ingests: self.encoded_ingests.value(),
            recovery_dropped_records: recovery.map_or(0, |r| r.corrupt_records_dropped),
            recovery_truncated_bytes: recovery.map_or(0, |r| r.truncated_bytes),
            interrupted_windows: self.interrupted_windows.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_raster::{PlanetBand, Raster};

    fn red() -> Band {
        Band::Planet(PlanetBand::Red)
    }

    /// One satellite's contact window, as a pass of its own.
    fn window(satellite: SatelliteId, day: f64, budget_bytes: u64) -> [ContactWindow; 1] {
        [ContactWindow {
            satellite,
            day,
            budget_bytes,
        }]
    }

    fn reference(location: u32, day: f64, value: f32) -> ReferenceImage {
        let full = Raster::filled(128, 128, value);
        ReferenceImage::from_capture(LocationId(location), red(), day, &full, 16).unwrap()
    }

    #[test]
    fn ingest_plan_serve_round_trip() {
        let service = GroundService::new(GroundServiceConfig::default());
        assert!(service.ingest_downlink(reference(0, 3.0, 0.4)));
        assert!(!service.ingest_downlink(reference(0, 2.0, 0.5)));
        let report = service
            .plan_pass(&window(SatelliteId(0), 4.0, 1 << 20))
            .remove(0);
        assert_eq!(report.deltas_sent, 1);
        let served = service
            .serve_reference(SatelliteId(0), LocationId(0), red())
            .unwrap();
        assert_eq!(served.captured_day, 3.0);
        let stats = service.stats();
        assert_eq!(stats.ingest_accepted, 1);
        assert_eq!(stats.ingest_rejected, 1);
        assert_eq!(stats.deltas_sent, 1);
        assert_eq!(stats.cache.hits, 1);
        assert!(stats.uplink_bytes_sent > 0);
        assert!(stats.peak_cache_bytes > 0);
    }

    #[test]
    fn explicit_targets_restrict_planning() {
        let config = GroundServiceConfig::default().with_targets(vec![(LocationId(1), red())]);
        let service = GroundService::new(config);
        service.ingest_downlink(reference(0, 3.0, 0.4));
        service.ingest_downlink(reference(1, 3.0, 0.4));
        let report = service
            .plan_pass(&window(SatelliteId(0), 4.0, 1 << 20))
            .remove(0);
        assert_eq!(report.deltas_sent, 1);
        assert!(service
            .serve_reference(SatelliteId(0), LocationId(0), red())
            .is_none());
        assert!(service
            .serve_reference(SatelliteId(0), LocationId(1), red())
            .is_some());
    }

    #[test]
    fn encoded_ingest_feeds_the_same_pipeline() {
        let service =
            GroundService::new(GroundServiceConfig::default().with_reference_downsample(16));
        let full = Raster::from_fn(128, 128, |x, y| ((x + 2 * y) % 97) as f32 / 97.0);
        let enc = earthplus_codec::encode(&full, &earthplus_codec::CodecConfig::lossy()).unwrap();
        assert!(service
            .ingest_encoded(LocationId(0), red(), 3.0, &enc)
            .unwrap());
        // Stale generation rejected by the same freshest-wins rule.
        assert!(!service
            .ingest_encoded(LocationId(0), red(), 2.0, &enc)
            .unwrap());
        let stats = service.stats();
        assert_eq!(stats.encoded_ingests, 2);
        assert_eq!(stats.ingest_accepted, 1);
        assert_eq!(stats.ingest_rejected, 1);
        let stored = service.store().get(LocationId(0), red()).unwrap();
        assert_eq!(stored.downsample, 16);
        assert_eq!(stored.lowres.dimensions(), (8, 8));
        // Steady state: further ingests grow no decode scratch.
        let grow = service.ingest_decode_grow_events();
        for day in 4..8 {
            service
                .ingest_encoded(LocationId(0), red(), day as f64, &enc)
                .unwrap();
        }
        assert_eq!(service.ingest_decode_grow_events(), grow);
    }

    #[test]
    fn batch_ingest_counts_into_stats() {
        let service = GroundService::new(GroundServiceConfig::default());
        let batch: Vec<ReferenceImage> = (0..16u32).map(|loc| reference(loc, 1.0, 0.3)).collect();
        let report = service.ingest_downlink_batch(batch);
        assert_eq!(report.accepted, 16);
        assert_eq!(service.stats().store_entries, 16);
    }

    #[test]
    fn traced_batch_ingest_records_one_span_with_its_report() {
        use earthplus_telemetry::{FlightRecorder, TraceEventKind, TraceValue};
        let recorder = FlightRecorder::new();
        let service =
            GroundService::new(GroundServiceConfig::default().with_tracing(recorder.sink()));
        let batch: Vec<ReferenceImage> = (0..16u32)
            .flat_map(|loc| [reference(loc, 2.0, 0.3), reference(loc, 1.0, 0.4)])
            .collect();
        let report = service.ingest_downlink_batch(batch);
        assert_eq!((report.accepted, report.rejected), (16, 16));
        let spans: Vec<_> = recorder
            .log()
            .events
            .into_iter()
            .filter(|e| e.lane == "ground" && e.name == "ingest_batch")
            .collect();
        let kinds: Vec<_> = spans.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [TraceEventKind::Begin, TraceEventKind::End]);
        assert!(spans.iter().all(|e| e.track == TraceTrack::Station(0)));
        assert_eq!(
            spans[1].args,
            [
                ("offered", TraceValue::U64(report.offered())),
                ("accepted", TraceValue::U64(report.accepted)),
            ]
        );
    }

    #[test]
    fn capacity_config_reaches_planned_caches() {
        let one = reference(0, 1.0, 0.4).size_bytes();
        let config = GroundServiceConfig::default().with_cache_capacity(Some(one));
        let service = GroundService::new(config);
        for loc in 0..3u32 {
            service.ingest_downlink(reference(loc, 1.0, 0.4));
        }
        service.plan_pass(&window(SatelliteId(0), 2.0, 1 << 30));
        let (len, evictions) = {
            let caches = service.caches.lock().unwrap();
            let cache = &caches[&SatelliteId(0)];
            (cache.len(), cache.stats().evictions)
        };
        assert_eq!(len, 1, "capacity bound must hold after planning");
        assert_eq!(evictions, 2);
        let miss_before = service.stats().cache.misses;
        assert!(miss_before == 0);
    }

    #[test]
    fn wired_telemetry_exports_service_metrics() {
        use earthplus_telemetry::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let config = GroundServiceConfig::default().with_telemetry(registry.sink());
        let service = GroundService::new(config);
        service.ingest_downlink(reference(0, 3.0, 0.4));
        service.ingest_downlink(reference(0, 2.0, 0.5));
        service.plan_pass(&window(SatelliteId(0), 4.0, 1 << 20));
        service.serve_reference(SatelliteId(0), LocationId(0), red());
        let s = registry.snapshot();
        assert_eq!(s.counter(names::GROUND_INGEST_ACCEPTED), Some(1));
        assert_eq!(s.counter(names::GROUND_INGEST_REJECTED), Some(1));
        assert_eq!(s.counter(names::GROUND_DELTAS_SENT), Some(1));
        assert_eq!(s.counter(names::GROUND_CACHE_HITS), Some(1));
        assert!(s.gauge(names::GROUND_CACHE_PEAK_BYTES).unwrap() > 0);
        assert_eq!(s.histogram(names::GROUND_INGEST_NS).unwrap().count, 2);
        assert_eq!(s.histogram(names::GROUND_PLAN_PASS_NS).unwrap().count, 1);
        // The service's own stats read the same atomics.
        let stats = service.stats();
        assert_eq!(stats.ingest_accepted, 1);
        assert_eq!(stats.cache.hits, 1);
        // And without a caller sink the counters still count, privately.
        let dark = GroundService::new(GroundServiceConfig::default());
        dark.ingest_downlink(reference(1, 1.0, 0.3));
        assert_eq!(dark.stats().ingest_accepted, 1);
        assert!(registry.snapshot().counter(names::GROUND_INGEST_ACCEPTED) == Some(1));
    }

    #[test]
    fn stats_delta_isolates_one_pass() {
        let service = GroundService::new(GroundServiceConfig::default());
        for loc in 0..4u32 {
            service.ingest_downlink(reference(loc, 1.0, 0.4));
        }
        service.plan_pass(&window(SatelliteId(0), 2.0, 1 << 30));
        let before = service.stats();
        service.ingest_downlink(reference(0, 5.0, 0.6));
        service.plan_pass(&window(SatelliteId(0), 6.0, 1 << 30));
        let d = service.stats().delta(&before);
        assert_eq!(d.ingest_accepted, 1, "only the second round's ingest");
        assert_eq!(d.deltas_sent, 1, "only the refreshed reference moved");
        assert!(d.uplink_bytes_sent < before.uplink_bytes_sent);
        // Level readings pass through as current values.
        assert_eq!(d.store_entries, 4);
        assert_eq!(d.satellites, 1);
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the test needs callers on threads of their own"
    )]
    fn concurrent_use_from_many_threads() {
        let service = GroundService::new(GroundServiceConfig::default());
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let service = &service;
                scope.spawn(move || {
                    for i in 0..8u32 {
                        service.ingest_downlink(reference(t * 8 + i, 1.0 + i as f64, 0.3));
                    }
                    service.plan_pass(&window(SatelliteId(t), 20.0, 1 << 22));
                    service.serve_reference(SatelliteId(t), LocationId(t * 8), red());
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.store_entries, 32);
        assert_eq!(stats.satellites, 4);
        assert_eq!(stats.cache.hits + stats.cache.misses, 4);
    }
}
