//! The durable reference backend: sharded `earthplus-refstore` logs,
//! replicated over a set of ground stations.
//!
//! A [`ReplicatedReferenceStore`] keeps one crash-recoverable [`RefLog`]
//! per shard directory (`station-NN/shard-NNN/`). Keys route to shards
//! with [`crate::store::shard_index`] — the *same* routing the in-memory
//! store uses — so a shard's files can move to another station and
//! exactly the keys that hashed there move with it. A reference is
//! committed once its CRC-framed record is in the shard's active segment
//! (see the `earthplus-refstore` docs); a restart replays the logs and
//! resumes with the identical store state.
//!
//! Each shard has a fixed *placement ring* of `1 + replicas` stations
//! (`shard i` starts on station `i % stations`, replicas on the next
//! stations around the ring); the ring head that is currently up is the
//! shard's *primary*, the one live [`RefLog`] serving reads and writes.
//! A one-station set with no replicas is the plain durable store: every
//! shard lives under `station-00/` and nothing ships.
//!
//! Error policy: open-time I/O failures surface through
//! [`ReplicatedReferenceStore::open`], but the [`ReferenceBackend`]
//! surface is infallible by design (the in-memory store cannot fail), so
//! *runtime* storage failures — an append or read hitting a full or dead
//! disk mid-mission — **panic** rather than silently dropping references
//! and skewing every experiment built on the store.
//!
//! **Shipping.** Replication is file-level and, by default, synchronous:
//! every accepted `offer` tails the primary's segment files out to the
//! ring (`station-01/shard-003/seg-…` is a byte-identical prefix of the
//! primary's file), CRC-verifying each written range by read-back and
//! retrying dropped or corrupted transfers with exponential backoff plus
//! deterministic jitter — backoff is charged to a virtual-time ledger
//! ([`earthplus_telemetry::names::STATION_SHIP_BACKOFF_US`]), never
//! slept. Interrupted transfers resume from the replica's verified
//! length. The manifest ships last (the same atomic tmp + rename commit
//! as the engine's own swap, via
//! [`earthplus_refstore::write_file_atomic`]), so a promotion never sees
//! a manifest naming bytes its segment files lack — at worst the replica
//! replays newer segments manifest-free, which the engine already
//! handles.
//!
//! Each shard keeps a *replication watermark*: the primary log's
//! [`RefLog::generation`] at which a pass last left every live replica
//! byte-identical (every segment at the primary's length, the manifest
//! current, no transfer cut short). A pass that finds the log still at
//! its watermark returns before any filesystem call, so the
//! pass-boundary catch-up, the maintenance re-ship and the queue drains
//! cost what changed since the last pass, not the size of the store
//! ([`StationSetStats::ship_checks`] counts the passes that did look).
//! Whatever can change a replica behind the primary's back — a failover
//! promotion, an injected replica corruption, a station going down or
//! coming back — clears the watermark, and the next pass re-verifies.
//!
//! **Pipelined shipping.** With [`ShipQueueConfig::pipelined`] enabled,
//! accepted offers instead push their shard onto the primary station's
//! bounded *ship queue* (entries coalesce per shard; a full queue
//! backpressures the enqueuer, counted under
//! [`earthplus_telemetry::names::STATION_BACKPRESSURE`]). One worker per
//! station drains the queue, taking up to a bounded in-flight window of
//! shards at a time through the same verified, ledger-driven transfer
//! path. Because shipping is idempotent and resumes from each replica's
//! verified length, *any* drain order converges to the same replica
//! bytes; [`ReplicatedReferenceStore::quiesce`] blocks until every queue
//! is empty with nothing in flight. Outage transitions and replica
//! corruptions drain the queues before they apply (see *Failover*), and
//! the ground service quiesces at pass boundaries — so uplink schedules
//! and failover outcomes stay byte-identical to a synchronous run.
//! Setting [`ShipQueueConfig::workers`] false leaves draining to
//! explicit [`ReplicatedReferenceStore::pump_station`] calls, the
//! single-threaded mode the drain-order interleaving tests permute.
//!
//! **Failover.** `ReplicatedReferenceStore::advance_to_day` applies the
//! fault plan's outage transitions eagerly: when a primary's station goes
//! down, each of its shards promotes the first live ring member by
//! replaying that replica's shipped segments (`RefLog::open`), merging
//! the replay's [`RecoveryReport`] into the store-wide ledger. Because
//! shipping completes (synchronously per offer, or by the queue drain
//! that `advance_to_day` and `fail_station` run first) before outages
//! apply, the promoted replica holds
//! exactly the primary's committed records, so post-failover uplink
//! schedules are byte-identical to a no-failure run. With the whole ring
//! down a shard keeps serving from its in-memory log and counts degraded
//! serves.
//!
//! A returning station is not trusted: its files may carry a stale
//! pre-failover tail. The next shipping pass compares prefix CRCs,
//! truncates or wipes whatever diverged, and re-ships — the same path
//! that heals the fault plan's injected replica-segment decay.

use crate::backend::{ingest_sharded, ReferenceBackend};
use crate::fault::{SegmentCorruption, SharedFaultInjector};
use crate::reference::ReferenceImage;
use crate::store::{shard_index, IngestReport};
use earthplus_raster::{Band, LocationId};
use earthplus_refstore::manifest::MANIFEST_NAME;
use earthplus_refstore::{
    crc32, list_segments, segment_file_name, write_file_atomic, RecoveryReport, RefLog,
    RefLogConfig, Result,
};
use earthplus_telemetry::{names, Counter, Gauge, TelemetrySink, TraceSink, TraceTrack};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

/// Retry/backoff policy for one cross-station transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShipPolicy {
    /// Attempts per transfer before giving up until the next shipping
    /// pass (the shipped-length ledger carries the shortfall forward).
    pub max_attempts: u32,
    /// First retry backoff, microseconds (doubles per retry).
    pub backoff_base_us: u64,
    /// Backoff ceiling, microseconds.
    pub backoff_cap_us: u64,
}

impl Default for ShipPolicy {
    fn default() -> Self {
        ShipPolicy {
            max_attempts: 8,
            backoff_base_us: 500,
            backoff_cap_us: 50_000,
        }
    }
}

/// Configuration of the pipelined ship path (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipQueueConfig {
    /// Enables the pipelined path: accepted offers enqueue their shard on
    /// the primary station's ship queue instead of shipping inline. Off
    /// by default — the synchronous path stays the reference behaviour.
    pub pipelined: bool,
    /// Most distinct shards a station queue holds before enqueues
    /// backpressure (waiting for the worker, or draining a window on the
    /// enqueuer's thread when `workers` is off). Entries coalesce per
    /// shard, so the queue never holds a shard twice.
    pub queue_depth: usize,
    /// Most shards one drain takes in flight at once — the bounded
    /// in-flight transfer window per station.
    pub inflight_window: usize,
    /// Spawn one background drain worker per station. `false` leaves
    /// draining to explicit [`ReplicatedReferenceStore::pump_station`]
    /// calls — the deterministic mode the interleaving tests permute.
    pub workers: bool,
}

impl Default for ShipQueueConfig {
    fn default() -> Self {
        ShipQueueConfig {
            pipelined: false,
            queue_depth: 64,
            inflight_window: 4,
            workers: true,
        }
    }
}

/// Topology + engine configuration of a replicated ground segment.
#[derive(Debug, Clone, PartialEq)]
pub struct StationSetConfig {
    /// Ground stations in the set.
    pub stations: usize,
    /// Extra copies per shard (ring size is `1 + replicas`, capped at
    /// the station count).
    pub replicas: usize,
    /// Per-shard storage-engine knobs.
    pub log: RefLogConfig,
    /// Transfer retry policy.
    pub ship: ShipPolicy,
    /// Pipelined ship-queue knobs (synchronous shipping when disabled).
    pub queue: ShipQueueConfig,
}

impl Default for StationSetConfig {
    fn default() -> Self {
        StationSetConfig {
            stations: 2,
            replicas: 1,
            log: RefLogConfig::default(),
            ship: ShipPolicy::default(),
            queue: ShipQueueConfig::default(),
        }
    }
}

impl StationSetConfig {
    /// The plain durable store: one station, no replicas, engine knobs
    /// `log`, nothing to ship.
    pub fn single(log: RefLogConfig) -> Self {
        StationSetConfig {
            stations: 1,
            replicas: 0,
            log,
            ..StationSetConfig::default()
        }
    }
}

/// Directory name of station `s` under the store root.
fn station_dir_name(s: usize) -> String {
    format!("station-{s:02}")
}

/// Directory name of shard `i` under a station directory.
fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:03}")
}

/// Appends one shard's reference group as a single group-commit batch
/// ([`RefLog::append_batch`]): the whole run is framed and written
/// together with one fsync per filled segment instead of one per record.
/// Returns `(accepted, rejected)` counts identical to what sequential
/// offers of the same group would produce — the batch path resolves
/// within-batch supersedes exactly as sequential appends would.
fn append_reference_batch(log: &mut RefLog, group: &[ReferenceImage]) -> (u64, u64) {
    let payloads: Vec<Vec<u8>> = group.iter().map(|r| r.to_record_payload()).collect();
    let records: Vec<((LocationId, Band), f64, &[u8])> = group
        .iter()
        .zip(&payloads)
        .map(|(r, payload)| ((r.location, r.band), r.captured_day, payload.as_slice()))
        .collect();
    let outcomes = log
        .append_batch(&records)
        .expect("refstore batch append failed");
    let accepted = outcomes.iter().filter(|&&kept| kept).count() as u64;
    (accepted, group.len() as u64 - accepted)
}

/// Storage-engine accounting summed over every shard's primary log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistentStoreStats {
    /// Shard count.
    pub shards: u64,
    /// Segment files across shards.
    pub segments: u64,
    /// Live (indexed) records.
    pub live_records: u64,
    /// Superseded records awaiting compaction.
    pub dead_records: u64,
    /// File bytes of live records.
    pub live_bytes: u64,
    /// File bytes awaiting compaction.
    pub dead_bytes: u64,
    /// Compactions run since open.
    pub compactions: u64,
    /// Bounded compaction steps executed since open.
    pub compaction_steps: u64,
    /// Largest frame-byte count any single compaction step relocated —
    /// the observed append-path stall bound.
    pub max_step_copied_bytes: u64,
    /// Read-path segment-handle cache hits, summed across shards.
    pub handle_cache_hits: u64,
    /// Read-path segment-handle cache misses, summed across shards.
    pub handle_cache_misses: u64,
    /// fsync/fdatasync calls the engines issued, summed across shards —
    /// 0 unless `RefLogConfig::fsync_appends` is on. Group-commit ingest
    /// amortizes these to one per filled segment run per batch.
    pub fsyncs_issued: u64,
}

/// One shard's live state: where its primary is, the open log, and the
/// shipping ledger toward each replica.
#[derive(Debug)]
struct ShardHome {
    /// Candidate stations in placement order; `ring[0]` is the original
    /// primary.
    ring: Vec<usize>,
    /// Station currently holding the primary log.
    station: usize,
    /// The primary log.
    log: RefLog,
    /// Verified bytes shipped per `(station, segment id)`. A missing
    /// entry means "unknown" — the next pass re-verifies the replica
    /// file by prefix CRC before resuming.
    shipped: HashMap<(usize, u64), u64>,
    /// CRC of the manifest last shipped per station.
    manifest_crc: HashMap<usize, u32>,
    /// Replication watermark: the [`RefLog::generation`] at which a
    /// shipping pass last left every live replica a byte-identical copy
    /// of the primary's files. `None` until such a pass, and again after
    /// anything that can make a replica stale behind the primary's back
    /// (a failover, an injected replica corruption, a station going down
    /// or coming back).
    shipped_generation: Option<u64>,
}

/// The mutable half of one station's ship queue, under its mutex.
#[derive(Debug, Default)]
struct QueueState {
    /// Shard indices awaiting a drain, oldest first, one entry per shard.
    queued: VecDeque<usize>,
    /// Shards a drain currently has in flight.
    inflight: usize,
    /// Set once on drop; wakes waiters so workers can flush and exit.
    shutdown: bool,
}

/// One station's ship queue: state plus the two wake channels.
#[derive(Debug, Default)]
struct StationQueue {
    state: Mutex<QueueState>,
    /// Work arrived (or shutdown) — wakes the station's drain worker.
    work: Condvar,
    /// A window finished — wakes backpressured enqueuers and `quiesce`.
    room: Condvar,
}

/// The pipelined ship path's shared state (present only when
/// [`ShipQueueConfig::pipelined`] is set).
#[derive(Debug)]
struct ShipPipeline {
    config: ShipQueueConfig,
    /// One queue per station.
    queues: Vec<StationQueue>,
    /// Gauge over the summed queue depth across stations.
    queue_depth: Gauge,
    /// Gauge over the summed in-flight window occupancy across stations.
    inflight: Gauge,
}

/// Counter handles the station set publishes through (shared-by-name
/// with the rest of the workspace registry).
#[derive(Debug)]
struct StationCounters {
    ship_checks: Counter,
    ship_segments: Counter,
    ship_bytes: Counter,
    ship_retries: Counter,
    ship_resumed: Counter,
    ship_corrupt: Counter,
    ship_backoff_us: Counter,
    backpressure: Counter,
    outages: Counter,
    failovers: Counter,
    degraded: Counter,
    disk_stalls: Counter,
    faults: Counter,
    recovery_dropped_records: Counter,
    recovery_dropped_bytes: Counter,
}

impl StationCounters {
    fn resolve(sink: &TelemetrySink) -> Self {
        StationCounters {
            // Live even on a disabled sink: `perf_baseline`'s
            // pass-boundary gate reads it from a store opened without
            // telemetry.
            ship_checks: Counter::live(),
            ship_segments: sink.counter(names::STATION_SHIP_SEGMENTS),
            ship_bytes: sink.counter(names::STATION_SHIP_BYTES),
            ship_retries: sink.counter(names::STATION_SHIP_RETRIES),
            ship_resumed: sink.counter(names::STATION_SHIP_RESUMED),
            ship_corrupt: sink.counter(names::STATION_SHIP_CORRUPT),
            ship_backoff_us: sink.counter(names::STATION_SHIP_BACKOFF_US),
            backpressure: sink.counter(names::STATION_BACKPRESSURE),
            outages: sink.counter(names::STATION_OUTAGES),
            failovers: sink.counter(names::STATION_FAILOVERS),
            degraded: sink.counter(names::STATION_DEGRADED_SERVES),
            disk_stalls: sink.counter(names::STATION_DISK_STALLS),
            faults: sink.counter(names::FAULTS_INJECTED),
            recovery_dropped_records: sink.counter(names::REFSTORE_RECOVERY_DROPPED_RECORDS),
            recovery_dropped_bytes: sink.counter(names::REFSTORE_RECOVERY_DROPPED_BYTES),
        }
    }
}

/// Aggregated accounting across the whole station set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StationSetStats {
    /// Stations in the set.
    pub stations: u64,
    /// Storage-engine totals over the primary logs.
    pub store: PersistentStoreStats,
    /// Shard shipping passes that reached the filesystem: the shard had
    /// a live replica and its replication watermark was behind the
    /// primary log (see the module docs' *Shipping*).
    pub ship_checks: u64,
    /// Segment transfers that moved bytes.
    pub ship_segments: u64,
    /// Verified bytes copied primary → replica.
    pub ship_bytes: u64,
    /// Transfer attempts retried.
    pub ship_retries: u64,
    /// Interrupted transfers resumed from a partial replica file.
    pub ship_resumed: u64,
    /// Written ranges or replica prefixes whose CRC check failed
    /// (truncated and re-shipped).
    pub ship_corrupt_detected: u64,
    /// Virtual-time retry backoff scheduled, microseconds.
    pub ship_backoff_us: u64,
    /// Enqueue attempts backpressured by a full ship queue (pipelined
    /// mode only; always 0 on the synchronous path).
    pub ship_backpressure: u64,
    /// Station outage transitions observed.
    pub outages: u64,
    /// Shard promotions after an outage.
    pub failovers: u64,
    /// Reads served while a shard's whole ring was down.
    pub degraded_serves: u64,
    /// Slow-disk stalls injected.
    pub disk_stalls: u64,
    /// Fault events applied by the injector.
    pub faults_injected: u64,
    /// Open-time replays merged with every failover promotion's replay.
    pub recovery: RecoveryReport,
}

/// The replicated, fault-tolerant reference backend. See the module docs
/// for the replication, pipelining, and failover contract.
///
/// The handle owns the per-station drain workers (pipelined mode with
/// [`ShipQueueConfig::workers`] on); dropping it flushes every queued
/// transfer and joins the workers.
#[derive(Debug)]
pub struct ReplicatedReferenceStore {
    inner: Arc<StoreInner>,
    workers: Vec<JoinHandle<()>>,
}

/// Everything the store and its drain workers share.
#[derive(Debug)]
struct StoreInner {
    root: PathBuf,
    config: StationSetConfig,
    shards: Vec<RwLock<ShardHome>>,
    /// Current outage state per station.
    down: Mutex<Vec<bool>>,
    injector: Option<SharedFaultInjector>,
    telemetry: TelemetrySink,
    tracing: TraceSink,
    counters: StationCounters,
    recovery: Mutex<RecoveryReport>,
    /// Present exactly when the pipelined ship path is configured.
    pipeline: Option<ShipPipeline>,
}

impl ReplicatedReferenceStore {
    /// Opens (or creates) the station set under `root` with `shards`
    /// shard rings, replaying every primary log. Telemetry and tracing
    /// wire up at open so failover promotions can re-attach them; in
    /// pipelined mode with workers enabled this also spawns one drain
    /// worker per station.
    ///
    /// # Errors
    ///
    /// Propagates open-time I/O failures; corruption is healed and
    /// reported in the returned [`RecoveryReport`].
    pub fn open(
        root: &Path,
        shards: usize,
        config: StationSetConfig,
        sink: &TelemetrySink,
        tracing: &TraceSink,
    ) -> Result<(Self, RecoveryReport)> {
        Self::open_faulted(root, shards, config, None, sink, tracing)
    }

    /// [`ReplicatedReferenceStore::open`] with transfer and disk faults
    /// drawn from `injector`, the handle the ground service shares with
    /// its uplink path.
    pub(crate) fn open_faulted(
        root: &Path,
        shards: usize,
        config: StationSetConfig,
        injector: Option<SharedFaultInjector>,
        sink: &TelemetrySink,
        tracing: &TraceSink,
    ) -> Result<(Self, RecoveryReport)> {
        let shard_count = shards.max(1);
        let stations = config.stations.max(1);
        let ring_len = config.replicas.min(stations.saturating_sub(1));
        let mut homes = Vec::with_capacity(shard_count);
        let mut merged = RecoveryReport {
            manifest_loaded: true,
            ..RecoveryReport::default()
        };
        for i in 0..shard_count {
            let ring: Vec<usize> = (0..=ring_len).map(|k| (i + k) % stations).collect();
            let station = ring[0];
            let dir = root.join(station_dir_name(station)).join(shard_dir_name(i));
            let (mut log, report) = RefLog::open(&dir, config.log)?;
            log.attach_telemetry(sink);
            log.attach_tracing(tracing);
            merged.merge(&report);
            homes.push(RwLock::new(ShardHome {
                ring,
                station,
                log,
                shipped: HashMap::new(),
                manifest_crc: HashMap::new(),
                shipped_generation: None,
            }));
        }
        let pipeline = config.queue.pipelined.then(|| ShipPipeline {
            config: config.queue,
            queues: (0..stations).map(|_| StationQueue::default()).collect(),
            queue_depth: sink.gauge(names::STATION_QUEUE_DEPTH),
            inflight: sink.gauge(names::STATION_INFLIGHT),
        });
        let inner = Arc::new(StoreInner {
            root: root.to_path_buf(),
            shards: homes,
            down: Mutex::new(vec![false; stations]),
            injector,
            telemetry: sink.clone(),
            tracing: tracing.clone(),
            counters: StationCounters::resolve(sink),
            recovery: Mutex::new(merged),
            pipeline,
            config: StationSetConfig { stations, ..config },
        });
        let mut workers = Vec::new();
        if inner.pipeline.as_ref().is_some_and(|p| p.config.workers) {
            for station in 0..stations {
                let worker = Arc::clone(&inner);
                #[allow(
                    clippy::disallowed_methods,
                    reason = "a ship worker is a long-lived queue consumer, not a fan-out"
                )]
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("ship-{station:02}"))
                        .spawn(move || worker.worker_loop(station))
                        .expect("ship worker spawn failed"),
                );
            }
        }
        Ok((ReplicatedReferenceStore { inner, workers }, merged))
    }

    /// Number of stations.
    #[cfg(test)]
    pub(crate) fn station_count(&self) -> usize {
        self.inner.config.stations
    }

    /// The station currently holding `shard`'s primary log.
    #[cfg(test)]
    pub(crate) fn shard_station(&self, shard: usize) -> usize {
        self.inner.shards[shard]
            .read()
            .expect("shard poisoned")
            .station
    }

    /// Every open-time replay plus every failover promotion's replay.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.inner.recovery_report()
    }

    /// Applies the fault plan's state up to `day`: one-shot replica
    /// corruptions land, and station outage transitions take effect —
    /// eagerly promoting a replica for every shard whose primary station
    /// just went down, so reads and writes stay day-unaware. The ship
    /// queues drain first, so an outage never races a queued transfer.
    pub(crate) fn advance_to_day(&self, day: f64) {
        self.inner.advance_to_day(day)
    }

    /// Marks `station` down (outage), promoting replicas for every shard
    /// it was primary for, after draining the ship queues. Test/manual
    /// override; the fault plan drives the same path when the ground
    /// service advances the mission day.
    pub fn fail_station(&self, station: usize) {
        self.inner.quiesce();
        self.inner.set_station_state(station, true);
    }

    /// Marks `station` back up. Its files are re-verified (and any
    /// diverged tail truncated) by the next shipping pass.
    #[cfg(test)]
    pub(crate) fn restore_station(&self, station: usize) {
        self.inner.set_station_state(station, false);
    }

    /// Ships every shard's outstanding bytes to its live replicas —
    /// the catch-up pass run at contact-pass boundaries (offers also
    /// ship on their own, synchronously or via the queues).
    pub fn replicate(&self) {
        self.inner.replicate()
    }

    /// Pumps one budgeted compaction step per shard (whether or not
    /// auto-compaction is enabled), re-shipping any shard whose file set
    /// a commit just changed.
    pub fn maintain(&self) {
        self.inner.maintain()
    }

    /// Blocks until every station's ship queue is empty with nothing in
    /// flight — the drain barrier the ground service runs at pass
    /// boundaries, and that fault transitions run before they apply.
    /// Without workers the calling thread drains the queues itself; a
    /// no-op on the synchronous path.
    pub fn quiesce(&self) {
        self.inner.quiesce()
    }

    /// Drains up to one in-flight window from `station`'s ship queue on
    /// the calling thread, returning how many shards it shipped. The
    /// manual drain step the interleaving tests permute; 0 for an empty
    /// queue, an unknown station, or the synchronous path.
    pub fn pump_station(&self, station: usize) -> usize {
        self.inner.pump_station(station)
    }

    /// Shards currently waiting in `station`'s ship queue (excludes any
    /// in-flight window).
    pub fn queued_shards(&self, station: usize) -> usize {
        self.inner.queued_shards(station)
    }

    /// Aggregated accounting: engine totals over the primaries plus the
    /// replication/fault counters.
    pub fn stats(&self) -> StationSetStats {
        self.inner.stats()
    }

    #[cfg(test)]
    fn shard_dir(&self, station: usize, shard: usize) -> PathBuf {
        self.inner.shard_dir(station, shard)
    }
}

impl Drop for ReplicatedReferenceStore {
    fn drop(&mut self) {
        self.inner.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl StoreInner {
    fn station_down(&self, station: usize) -> bool {
        self.down
            .lock()
            .expect("outage state poisoned")
            .get(station)
            .copied()
            .unwrap_or(false)
    }

    fn recovery_report(&self) -> RecoveryReport {
        *self.recovery.lock().expect("recovery ledger poisoned")
    }

    fn advance_to_day(&self, day: f64) {
        let Some(injector) = &self.injector else {
            return;
        };
        // A promotion replays whatever the replica holds, and a corruption
        // must land on shipped bytes: drain every queued transfer first.
        // The drain takes shard locks, so none may be held here.
        self.quiesce();
        let (due, states): (Vec<SegmentCorruption>, Vec<bool>) = {
            let mut injector = injector.lock().expect("fault injector poisoned");
            let due = injector.due_corruptions(day);
            let states = (0..self.config.stations)
                .map(|s| injector.station_down(s, day))
                .collect();
            (due, states)
        };
        for corruption in due {
            self.apply_corruption(&corruption);
        }
        for (station, down_now) in states.into_iter().enumerate() {
            self.set_station_state(station, down_now);
        }
    }

    fn replicate(&self) {
        for idx in 0..self.shards.len() {
            let mut home = self.shards[idx].write().expect("shard poisoned");
            self.ship_shard(idx, &mut home);
        }
    }

    fn maintain(&self) {
        let budget = self.config.log.compaction_step;
        for idx in 0..self.shards.len() {
            let mut home = self.shards[idx].write().expect("shard poisoned");
            let stepped = home
                .log
                .maintain(budget)
                .expect("refstore maintenance failed");
            if stepped.is_some_and(|r| r.finished) {
                self.ship_shard(idx, &mut home);
            }
        }
    }

    fn stats(&self) -> StationSetStats {
        let mut store = PersistentStoreStats {
            shards: self.shards.len() as u64,
            ..PersistentStoreStats::default()
        };
        for shard in &self.shards {
            let stats = shard.read().expect("shard poisoned").log.stats();
            store.segments += stats.segments;
            store.live_records += stats.live_records;
            store.dead_records += stats.dead_records;
            store.live_bytes += stats.live_bytes;
            store.dead_bytes += stats.dead_bytes;
            store.compactions += stats.compactions;
            store.compaction_steps += stats.compaction_steps;
            store.max_step_copied_bytes =
                store.max_step_copied_bytes.max(stats.max_step_copied_bytes);
            store.handle_cache_hits += stats.handle_cache_hits;
            store.handle_cache_misses += stats.handle_cache_misses;
            store.fsyncs_issued += stats.fsyncs_issued;
        }
        StationSetStats {
            stations: self.config.stations as u64,
            store,
            ship_checks: self.counters.ship_checks.value(),
            ship_segments: self.counters.ship_segments.value(),
            ship_bytes: self.counters.ship_bytes.value(),
            ship_retries: self.counters.ship_retries.value(),
            ship_resumed: self.counters.ship_resumed.value(),
            ship_corrupt_detected: self.counters.ship_corrupt.value(),
            ship_backoff_us: self.counters.ship_backoff_us.value(),
            ship_backpressure: self.counters.backpressure.value(),
            outages: self.counters.outages.value(),
            failovers: self.counters.failovers.value(),
            degraded_serves: self.counters.degraded.value(),
            disk_stalls: self.counters.disk_stalls.value(),
            faults_injected: self.counters.faults.value(),
            recovery: self.recovery_report(),
        }
    }

    // --- pipelined ship path --------------------------------------------

    /// One station's drain loop: waits for queued shards, takes up to an
    /// in-flight window, ships it, repeats. Exits once shutdown is set
    /// *and* the queue is drained, so drop flushes outstanding work.
    fn worker_loop(&self, station: usize) {
        let Some(pipeline) = &self.pipeline else {
            return;
        };
        let q = &pipeline.queues[station];
        loop {
            let batch = {
                let mut state = q.state.lock().expect("ship queue poisoned");
                while state.queued.is_empty() && !state.shutdown {
                    state = q.work.wait(state).expect("ship queue poisoned");
                }
                if state.queued.is_empty() {
                    return;
                }
                self.take_window(pipeline, &mut state)
            };
            self.ship_batch(&batch);
            self.finish_window(pipeline, q, batch.len());
        }
    }

    /// Queues `shard` for `station`'s drain worker, coalescing with any
    /// entry already queued for it and backpressuring on a full queue.
    /// Callers must not hold the shard's lock — the drain needs it.
    fn enqueue_ship(&self, station: usize, shard: usize) {
        let Some(pipeline) = &self.pipeline else {
            return;
        };
        let Some(q) = pipeline.queues.get(station) else {
            return;
        };
        let depth = pipeline.config.queue_depth.max(1);
        let mut state = q.state.lock().expect("ship queue poisoned");
        loop {
            if state.shutdown || state.queued.contains(&shard) {
                // Coalesced: the queued entry's drain ships the whole
                // outstanding tail, including what was just appended.
                return;
            }
            if state.queued.len() < depth {
                break;
            }
            self.counters.backpressure.inc();
            if pipeline.config.workers {
                state = q.room.wait(state).expect("ship queue poisoned");
            } else {
                // No workers: drain a window on the enqueuer's thread.
                drop(state);
                self.pump_station(station);
                state = q.state.lock().expect("ship queue poisoned");
            }
        }
        state.queued.push_back(shard);
        pipeline.queue_depth.offset(1);
        q.work.notify_one();
    }

    /// Moves up to one in-flight window from the queue into flight.
    fn take_window(&self, pipeline: &ShipPipeline, state: &mut QueueState) -> Vec<usize> {
        let window = pipeline
            .config
            .inflight_window
            .max(1)
            .min(state.queued.len());
        let batch: Vec<usize> = state.queued.drain(..window).collect();
        state.inflight += batch.len();
        pipeline.queue_depth.offset(-(batch.len() as i64));
        pipeline.inflight.offset(batch.len() as i64);
        batch
    }

    fn ship_batch(&self, batch: &[usize]) {
        for &idx in batch {
            let mut home = self.shards[idx].write().expect("shard poisoned");
            self.ship_shard(idx, &mut home);
        }
    }

    fn finish_window(&self, pipeline: &ShipPipeline, q: &StationQueue, shipped: usize) {
        let mut state = q.state.lock().expect("ship queue poisoned");
        state.inflight -= shipped;
        pipeline.inflight.offset(-(shipped as i64));
        q.room.notify_all();
    }

    fn pump_station(&self, station: usize) -> usize {
        let Some(pipeline) = &self.pipeline else {
            return 0;
        };
        let Some(q) = pipeline.queues.get(station) else {
            return 0;
        };
        let batch = {
            let mut state = q.state.lock().expect("ship queue poisoned");
            if state.queued.is_empty() {
                return 0;
            }
            self.take_window(pipeline, &mut state)
        };
        self.ship_batch(&batch);
        self.finish_window(pipeline, q, batch.len());
        batch.len()
    }

    fn quiesce(&self) {
        let Some(pipeline) = &self.pipeline else {
            return;
        };
        for (station, q) in pipeline.queues.iter().enumerate() {
            if pipeline.config.workers {
                let mut state = q.state.lock().expect("ship queue poisoned");
                while !(state.shutdown || state.queued.is_empty() && state.inflight == 0) {
                    state = q.room.wait(state).expect("ship queue poisoned");
                }
            } else {
                while self.pump_station(station) > 0 {}
            }
        }
    }

    fn queued_shards(&self, station: usize) -> usize {
        self.pipeline
            .as_ref()
            .and_then(|p| p.queues.get(station))
            .map_or(0, |q| {
                q.state.lock().expect("ship queue poisoned").queued.len()
            })
    }

    fn begin_shutdown(&self) {
        let Some(pipeline) = &self.pipeline else {
            return;
        };
        for q in &pipeline.queues {
            if let Ok(mut state) = q.state.lock() {
                state.shutdown = true;
            }
            q.work.notify_all();
            q.room.notify_all();
        }
    }

    // --- backend operations ---------------------------------------------

    fn offer_reference(&self, reference: ReferenceImage) -> bool {
        let key = (reference.location, reference.band);
        let idx = shard_index(reference.location, reference.band, self.shards.len());
        let payload = reference.to_record_payload();
        let (accepted, _) = self.write_shard(idx, |log| {
            let accepted = log
                .append(key, reference.captured_day, &payload)
                .expect("refstore append failed");
            (accepted as u64, !accepted as u64)
        });
        accepted > 0
    }

    /// The one write into a shard: runs `write` on the shard's primary log
    /// under its write lock and, when it accepted anything, ships the new
    /// tail. Returns `write`'s `(accepted, rejected)` counts.
    fn write_shard(&self, idx: usize, write: impl FnOnce(&mut RefLog) -> (u64, u64)) -> (u64, u64) {
        let (counts, station) = {
            let mut home = self.shards[idx].write().expect("shard poisoned");
            let counts = write(&mut home.log);
            if counts.0 > 0 && self.pipeline.is_none() {
                // Synchronous replication: the tail ships before the
                // write returns, so an outage at any later instant loses
                // nothing acknowledged (modulo transfers whose every
                // retry failed — those carry in the ledger and re-ship
                // next pass).
                self.ship_shard(idx, &mut home);
            }
            (counts, home.station)
        };
        if counts.0 > 0 && self.pipeline.is_some() {
            // Pipelined: hand the shard to the station's drain worker
            // after releasing the shard lock (the drain takes it).
            self.enqueue_ship(station, idx);
        }
        counts
    }

    fn get_reference(&self, location: LocationId, band: Band) -> Option<ReferenceImage> {
        let home = self
            .shard_of(location, band)
            .read()
            .expect("shard poisoned");
        self.note_serve(&home);
        let record = home
            .log
            .get(&(location, band))
            .expect("refstore read failed")?;
        Some(
            ReferenceImage::from_record_payload(location, band, record.day, &record.payload)
                .expect("CRC-valid record decodes"),
        )
    }

    fn sync_all(&self) {
        for shard in &self.shards {
            shard
                .write()
                .expect("shard poisoned")
                .log
                .sync()
                .expect("refstore sync failed");
        }
    }

    // --- shipping, failover, faults --------------------------------------

    fn shard_dir(&self, station: usize, shard: usize) -> PathBuf {
        self.root
            .join(station_dir_name(station))
            .join(shard_dir_name(shard))
    }

    fn set_station_state(&self, station: usize, want_down: bool) {
        let was = {
            let mut down = self.down.lock().expect("outage state poisoned");
            let Some(slot) = down.get_mut(station) else {
                return;
            };
            std::mem::replace(slot, want_down)
        };
        if was == want_down {
            return;
        }
        // The set of live replicas changed: every shard placed on
        // `station` re-checks its ring on the next pass.
        for shard in &self.shards {
            let mut home = shard.write().expect("shard poisoned");
            if home.ring.contains(&station) {
                home.shipped_generation = None;
            }
        }
        if want_down {
            self.counters.outages.inc();
            self.tracing.instant_on(
                TraceTrack::Station(station as u32),
                "station",
                "outage",
                &[],
            );
            self.fail_over_shards(station);
        }
        // A returning station needs nothing eager: the next shipping
        // pass prefix-CRC-verifies its files and heals any divergence.
    }

    /// Promotes a live ring member for every shard whose primary just
    /// went down on `station`.
    fn fail_over_shards(&self, station: usize) {
        let down = self.down.lock().expect("outage state poisoned").clone();
        for idx in 0..self.shards.len() {
            let mut home = self.shards[idx].write().expect("shard poisoned");
            if home.station != station {
                continue;
            }
            let Some(&next) = home
                .ring
                .iter()
                .find(|&&s| !down.get(s).copied().unwrap_or(false))
            else {
                // Whole ring down: keep serving from the in-memory log,
                // counted per read as a degraded serve.
                continue;
            };
            let dir = self.shard_dir(next, idx);
            // The promotion replays the replica's shipped segments; the
            // backend surface is infallible, so a dead promotion target
            // is loud (see the module docs' error policy).
            let (mut log, report) =
                RefLog::open(&dir, self.config.log).expect("replica promotion failed");
            log.attach_telemetry(&self.telemetry);
            log.attach_tracing(&self.tracing);
            self.counters.failovers.inc();
            self.counters
                .recovery_dropped_records
                .add(report.corrupt_records_dropped);
            self.counters
                .recovery_dropped_bytes
                .add(report.truncated_bytes);
            self.recovery
                .lock()
                .expect("recovery ledger poisoned")
                .merge(&report);
            self.tracing.instant_on(
                TraceTrack::Station(next as u32),
                "station",
                "failover",
                &[("shard", (idx as u64).into())],
            );
            home.station = next;
            home.log = log;
            // The new primary re-derives every replica's state by prefix
            // CRC on its next shipping pass.
            home.shipped.clear();
            home.manifest_crc.clear();
            home.shipped_generation = None;
        }
    }

    /// Flips one byte of the newest shipped segment in a *replica* copy
    /// (never the live primary, whose in-memory index must stay coherent
    /// with its files) and forgets its shipping state, so the next pass
    /// re-verifies — detecting and healing the decay.
    fn apply_corruption(&self, corruption: &SegmentCorruption) {
        if corruption.shard >= self.shards.len() {
            return;
        }
        let mut home = self.shards[corruption.shard]
            .write()
            .expect("shard poisoned");
        if home.station == corruption.station {
            return;
        }
        let dir = self.shard_dir(corruption.station, corruption.shard);
        let Ok(files) = list_segments(&dir) else {
            return;
        };
        let Some((id, path)) = files.last() else {
            return;
        };
        if flip_last_byte(path).is_ok() {
            self.counters.faults.inc();
            home.shipped.remove(&(corruption.station, *id));
            home.shipped_generation = None;
        }
    }

    /// Ships `home`'s outstanding bytes to every live ring member — at
    /// once a no-op when the shard's replication watermark shows the
    /// primary's files unchanged since a pass left every replica current.
    fn ship_shard(&self, idx: usize, home: &mut ShardHome) {
        if home.shipped_generation == Some(home.log.generation()) {
            return;
        }
        let replicas: Vec<usize> = {
            let down = self.down.lock().expect("outage state poisoned");
            home.ring
                .iter()
                .copied()
                .filter(|&s| s != home.station && !down.get(s).copied().unwrap_or(false))
                .collect()
        };
        // No live replica (a one-station set, or the rest of the ring
        // down): nothing to read, nothing to ship.
        if replicas.is_empty() {
            return;
        }
        self.counters.ship_checks.inc();
        let primary_dir = self.shard_dir(home.station, idx);
        let Ok(files) = list_segments(&primary_dir) else {
            return;
        };
        let manifest = std::fs::read(primary_dir.join(MANIFEST_NAME)).ok();
        // Whether every replica ends this pass a byte-identical copy:
        // only then may the watermark advance.
        let mut current = true;
        for replica in replicas {
            let rdir = self.shard_dir(replica, idx);
            if std::fs::create_dir_all(&rdir).is_err() {
                current = false;
                continue;
            }
            for (id, path) in &files {
                let Ok(meta) = std::fs::metadata(path) else {
                    current = false;
                    continue;
                };
                let src_len = meta.len();
                let dst = rdir.join(segment_file_name(*id));
                let start = match home.shipped.get(&(replica, *id)) {
                    Some(&n) if n <= src_len => n,
                    _ => self.adopt_replica_prefix(path, &dst, src_len),
                };
                if start < src_len {
                    let shipped = self.ship_range(path, &dst, start, src_len);
                    if shipped > start {
                        self.counters.ship_segments.inc();
                    }
                    current &= shipped == src_len;
                    home.shipped.insert((replica, *id), shipped);
                } else {
                    home.shipped.insert((replica, *id), start);
                }
            }
            // Manifest last, atomically (the engine's shared tmp+rename
            // commit): a promotion never sees a manifest naming bytes
            // the segments above don't have.
            match &manifest {
                Some(bytes) => {
                    let crc = crc32(bytes);
                    if home.manifest_crc.get(&replica) != Some(&crc) {
                        if write_file_atomic(
                            &rdir,
                            MANIFEST_NAME,
                            bytes,
                            self.config.log.fsync_appends,
                        )
                        .is_ok()
                        {
                            home.manifest_crc.insert(replica, crc);
                        } else {
                            current = false;
                        }
                    }
                }
                None => {
                    current &= remove_if_present(&rdir.join(MANIFEST_NAME));
                    home.manifest_crc.remove(&replica);
                }
            }
            // Sweep replica segments the primary compacted away (only
            // after the manifest stopped naming them).
            let Ok(replica_files) = list_segments(&rdir) else {
                current = false;
                continue;
            };
            for (rid, rpath) in replica_files {
                if !files.iter().any(|(id, _)| *id == rid) {
                    current &= remove_if_present(&rpath);
                    home.shipped.remove(&(replica, rid));
                }
            }
        }
        if current {
            home.shipped_generation = Some(home.log.generation());
        }
    }

    /// Re-derives how many bytes of `dst` are a verified prefix of
    /// `src`: prefix CRCs match → adopt (truncating any stale tail past
    /// the source length); mismatch → wipe and re-ship from zero.
    fn adopt_replica_prefix(&self, src: &Path, dst: &Path, src_len: u64) -> u64 {
        let Ok(meta) = std::fs::metadata(dst) else {
            return 0;
        };
        let common = meta.len().min(src_len);
        if common == 0 {
            let _ = truncate_to(dst, 0);
            return 0;
        }
        let verified = match (read_range(src, 0, common), read_range(dst, 0, common)) {
            (Ok(s), Ok(d)) => crc32(&s) == crc32(&d),
            _ => false,
        };
        if verified {
            if meta.len() > src_len {
                // Stale pre-failover tail (records the promoted timeline
                // never had) — drop it.
                let _ = truncate_to(dst, src_len);
            }
            common
        } else {
            self.counters.ship_corrupt.inc();
            let _ = truncate_to(dst, 0);
            0
        }
    }

    /// Transfers `src[from..to]` into `dst` with read-back CRC
    /// verification, retry, exponential backoff + jitter, and fault
    /// injection. Returns the verified replica length reached (== `to`
    /// on success; the shipping ledger carries any shortfall to the next
    /// pass). Queued and inline transfers both land here, so fault
    /// injection covers both paths through one draw
    /// ([`crate::fault::FaultInjector::transfer_faults`]).
    fn ship_range(&self, src: &Path, dst: &Path, from: u64, to: u64) -> u64 {
        let policy = self.config.ship;
        let mut shipped = from;
        let mut attempt: u32 = 0;
        loop {
            let Ok(bytes) = read_range(src, shipped, to) else {
                return shipped;
            };
            // Roll this attempt's fault bundle up front; the injector
            // never touches the files itself.
            let mut cut = None;
            let mut corrupt_at = None;
            if let Some(injector) = &self.injector {
                let faults = injector
                    .lock()
                    .expect("fault injector poisoned")
                    .transfer_faults(bytes.len() as u64);
                corrupt_at = faults.corrupt_at;
                cut = faults.cut_at;
                if let Some(stall_us) = faults.stall_us {
                    // Modelled in virtual time: charged to the backoff
                    // ledger, never slept.
                    self.counters.disk_stalls.inc();
                    self.counters.faults.inc();
                    self.counters.ship_backoff_us.add(stall_us);
                }
            }
            if cut.is_some() {
                self.counters.faults.inc();
            }
            let write_len = cut.map_or(bytes.len(), |c| c as usize);
            let mut wire = bytes[..write_len].to_vec();
            if let Some(at) = corrupt_at {
                if (at as usize) < wire.len() {
                    wire[at as usize] ^= 0xFF;
                    self.counters.faults.inc();
                }
            }
            let wrote = write_at(dst, shipped, &wire).is_ok();
            // Read back what landed and verify it against the source.
            let verified = wrote
                && write_len > 0
                && read_range(dst, shipped, shipped + write_len as u64)
                    .map(|got| crc32(&got) == crc32(&bytes[..write_len]))
                    .unwrap_or(false);
            if verified {
                shipped += write_len as u64;
                self.counters.ship_bytes.add(write_len as u64);
            } else {
                if wrote && write_len > 0 {
                    self.counters.ship_corrupt.inc();
                }
                // Roll the replica back to its last verified length.
                let _ = truncate_to(dst, shipped);
            }
            if shipped >= to {
                return shipped;
            }
            attempt += 1;
            if attempt >= policy.max_attempts.max(1) {
                return shipped;
            }
            self.counters.ship_retries.inc();
            if cut.is_some() && verified {
                // The partial write landed; the next attempt continues
                // from it instead of starting over.
                self.counters.ship_resumed.inc();
            }
            let exp = policy
                .backoff_base_us
                .saturating_mul(1u64 << (attempt - 1).min(16));
            let delay = exp.min(policy.backoff_cap_us.max(policy.backoff_base_us));
            let jitter = self.injector.as_ref().map_or(0, |i| {
                i.lock()
                    .expect("fault injector poisoned")
                    .jitter(delay / 2 + 1)
            });
            self.counters.ship_backoff_us.add(delay + jitter);
        }
    }

    fn shard_of(&self, location: LocationId, band: Band) -> &RwLock<ShardHome> {
        &self.shards[shard_index(location, band, self.shards.len())]
    }

    /// Counts a degraded serve when the shard's primary station is down
    /// (only possible with the whole ring down — otherwise failover
    /// already moved the primary).
    fn note_serve(&self, home: &ShardHome) {
        if self.station_down(home.station) {
            self.counters.degraded.inc();
        }
    }
}

impl ReferenceBackend for ReplicatedReferenceStore {
    fn offer(&self, reference: ReferenceImage) -> bool {
        self.inner.offer_reference(reference)
    }

    fn get(&self, location: LocationId, band: Band) -> Option<ReferenceImage> {
        self.inner.get_reference(location, band)
    }

    fn fresh_day(&self, location: LocationId, band: Band) -> Option<f64> {
        self.inner
            .shard_of(location, band)
            .read()
            .expect("shard poisoned")
            .log
            .fresh_day(&(location, band))
    }

    fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().expect("shard poisoned").log.len())
            .sum()
    }

    fn size_bytes(&self) -> u64 {
        // Logical 12-bit model, derived from indexed frame lengths alone
        // so no disk read (or sort) happens: payload = 20-byte header +
        // 4 bytes/sample.
        let mut total = 0u64;
        for shard in &self.inner.shards {
            let home = shard.read().expect("shard poisoned");
            for (_, entry) in home.log.entries() {
                let payload = entry
                    .payload_len()
                    .saturating_sub(ReferenceImage::RECORD_PAYLOAD_HEADER as u64);
                total += (payload / 4 * 12).div_ceil(8);
            }
        }
        total
    }

    fn keys(&self) -> Vec<(LocationId, Band)> {
        let mut out = Vec::new();
        for shard in &self.inner.shards {
            out.extend(shard.read().expect("shard poisoned").log.keys());
        }
        out.sort();
        out
    }

    /// Grouped ingest: one group-commit batch append per touched shard,
    /// so one ship per shard instead of one per reference. Accept/reject
    /// counts are identical to sequential offers at any thread count,
    /// because the batch path resolves within-batch supersedes exactly as
    /// sequential appends would.
    fn ingest_batch(&self, references: Vec<ReferenceImage>, threads: usize) -> IngestReport {
        // The pool job owns a clone of the shared state. A pool thread can
        // pick the call up after this ingest has returned, and so hold the
        // last clone of a store whose handle is already dropped. That is
        // harmless: the handle's `Drop` has joined the ship workers by
        // then, and `StoreInner` has no `Drop` of its own (its logs only
        // close their files).
        let inner = Arc::clone(&self.inner);
        let shards = inner.shards.len();
        ingest_sharded(references, shards, threads, move |idx, group| {
            inner.write_shard(idx, |log| append_reference_batch(log, &group))
        })
    }

    fn sync(&self) {
        self.inner.sync_all()
    }
}

fn read_range(path: &Path, from: u64, to: u64) -> std::io::Result<Vec<u8>> {
    let mut file = std::fs::File::open(path)?;
    file.seek(SeekFrom::Start(from))?;
    let len = (to - from) as usize;
    let mut buf = vec![0u8; len];
    file.read_exact(&mut buf)?;
    Ok(buf)
}

fn write_at(path: &Path, offset: u64, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(bytes)?;
    Ok(())
}

fn truncate_to(path: &Path, len: u64) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.set_len(len)
}

/// Removes `path`; true when it is gone afterwards (removed, or never
/// there).
fn remove_if_present(path: &Path) -> bool {
    match std::fs::remove_file(path) {
        Ok(()) => true,
        Err(e) => e.kind() == std::io::ErrorKind::NotFound,
    }
}

fn flip_last_byte(path: &Path) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)?;
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(());
    }
    file.seek(SeekFrom::Start(len - 1))?;
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte)?;
    byte[0] ^= 0xFF;
    file.seek(SeekFrom::Start(len - 1))?;
    file.write_all(&byte)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{shared_injector, FaultPlan};
    use earthplus_raster::{PlanetBand, Raster};
    use earthplus_telemetry::TelemetrySink;

    fn test_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "earthplus-ground-station-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn red() -> Band {
        Band::Planet(PlanetBand::Red)
    }

    fn reference(location: u32, day: f64, value: f32) -> ReferenceImage {
        let full = Raster::filled(64, 64, value);
        ReferenceImage::from_capture(LocationId(location), red(), day, &full, 8).unwrap()
    }

    fn open_set(
        root: &Path,
        shards: usize,
        config: StationSetConfig,
        injector: Option<SharedFaultInjector>,
    ) -> ReplicatedReferenceStore {
        let sink = TelemetrySink::default().or_private();
        let (store, _) = ReplicatedReferenceStore::open_faulted(
            root,
            shards,
            config,
            injector,
            &sink,
            &TraceSink::default(),
        )
        .unwrap();
        store
    }

    /// Asserts every replica shard directory under `store` is a
    /// byte-identical copy of its primary: the same segment files with the
    /// same bytes, and the same manifest.
    fn assert_replicas_identical(store: &ReplicatedReferenceStore, shards: usize) {
        for shard in 0..shards {
            let primary = store.shard_station(shard);
            let pdir = store.shard_dir(primary, shard);
            let segments = list_segments(&pdir).unwrap();
            let ids: Vec<u64> = segments.iter().map(|(id, _)| *id).collect();
            for station in 0..store.station_count() {
                if station == primary {
                    continue;
                }
                let rdir = store.shard_dir(station, shard);
                if !rdir.exists() {
                    continue;
                }
                let replica_ids: Vec<u64> = list_segments(&rdir)
                    .unwrap()
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect();
                assert_eq!(replica_ids, ids, "shard {shard} station {station} files");
                for (id, path) in &segments {
                    let src = std::fs::read(path).unwrap();
                    let dst = std::fs::read(rdir.join(segment_file_name(*id))).unwrap();
                    assert_eq!(src, dst, "shard {shard} segment {id} diverges");
                }
                assert_eq!(
                    std::fs::read(pdir.join(MANIFEST_NAME)).ok(),
                    std::fs::read(rdir.join(MANIFEST_NAME)).ok(),
                    "shard {shard} station {station} manifest"
                );
            }
        }
    }

    /// A two-station, one-replica set whose ship queues drain only
    /// through explicit `pump_station`/`quiesce` calls.
    fn manual_pipelined(log: RefLogConfig) -> StationSetConfig {
        StationSetConfig {
            log,
            queue: ShipQueueConfig {
                pipelined: true,
                workers: false,
                ..ShipQueueConfig::default()
            },
            ..StationSetConfig::default()
        }
    }

    #[test]
    fn offers_ship_synchronously_to_replicas() {
        let root = test_root("sync-ship");
        let store = open_set(&root, 2, StationSetConfig::default(), None);
        for loc in 0..8u32 {
            assert!(store.offer(reference(loc, 2.0, 0.4)));
        }
        let stats = store.stats();
        assert!(stats.ship_bytes > 0, "offers must ship synchronously");
        assert_eq!(stats.ship_backpressure, 0, "sync path never queues");
        // Every replica shard file is a byte-identical copy of its
        // primary (fully shipped, since nothing raced).
        assert_replicas_identical(&store, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn pipelined_offers_converge_after_quiesce() {
        let root = test_root("pipelined");
        let config = StationSetConfig {
            queue: ShipQueueConfig {
                pipelined: true,
                ..ShipQueueConfig::default()
            },
            ..StationSetConfig::default()
        };
        let store = open_set(&root, 4, config, None);
        for loc in 0..32u32 {
            assert!(store.offer(reference(loc, 2.0, 0.4)));
        }
        store.quiesce();
        for station in 0..store.station_count() {
            assert_eq!(store.queued_shards(station), 0, "quiesce drains queues");
        }
        assert!(store.stats().ship_bytes > 0, "workers must have shipped");
        assert_replicas_identical(&store, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn in_sync_pass_inspects_no_shard() {
        let root = test_root("watermark-idle");
        let store = open_set(&root, 4, StationSetConfig::default(), None);
        for loc in 0..16u32 {
            assert!(store.offer(reference(loc, 2.0, 0.4)));
        }
        store.replicate();
        let before = store.stats();
        store.replicate();
        store.maintain();
        let after = store.stats();
        assert_eq!(
            after.ship_checks, before.ship_checks,
            "no shard re-inspected"
        );
        assert_eq!(after.ship_bytes, before.ship_bytes);
        assert_replicas_identical(&store, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn one_accepted_offer_ships_exactly_its_shard() {
        let root = test_root("watermark-one");
        let store = open_set(&root, 4, manual_pipelined(RefLogConfig::default()), None);
        for loc in 0..16u32 {
            assert!(store.offer(reference(loc, 2.0, 0.4)));
        }
        store.quiesce();
        store.replicate();
        let before = store.stats();
        assert!(store.offer(reference(3, 5.0, 0.6)));
        assert!(!store.offer(reference(5, 1.0, 0.6)), "stale offer rejected");
        store.replicate();
        let after = store.stats();
        assert_eq!(
            after.ship_checks - before.ship_checks,
            1,
            "one shard checked"
        );
        assert_eq!(after.ship_segments - before.ship_segments, 1);
        // The queued entry the offer left finds its shard already current.
        store.quiesce();
        assert_eq!(store.stats().ship_checks, after.ship_checks);
        assert_replicas_identical(&store, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn compaction_steps_reach_replicas_on_the_next_pass() {
        let root = test_root("watermark-compaction");
        // Any dead byte starts a compaction, and each step relocates one
        // record: compactions run in slices, pumped inside appends (auto
        // compaction) and by `maintain`, and most slices do not finish.
        let log = RefLogConfig {
            compact_min_dead_bytes: 1,
            compact_min_dead_fraction: 0.0,
            compaction_step: earthplus_refstore::CompactionBudget {
                max_bytes: 1,
                max_micros: u64::MAX,
            },
            ..RefLogConfig::default()
        };
        let store = open_set(&root, 2, manual_pipelined(log), None);
        for generation in 1..=3 {
            for loc in 0..6u32 {
                assert!(store.offer(reference(loc, generation as f64, 0.3)));
            }
        }
        assert!(
            store.stats().store.compaction_steps > 0,
            "appends pumped steps"
        );
        // Nothing drained yet: the pass ships what the appends' steps wrote.
        store.replicate();
        assert_replicas_identical(&store, 2);
        store.quiesce();
        for loc in 0..6u32 {
            assert!(store.offer(reference(loc, 4.0, 0.5)));
        }
        store.quiesce();
        let steps = store.stats().store.compaction_steps;
        for _ in 0..6 {
            store.maintain();
            store.replicate();
            assert_replicas_identical(&store, 2);
        }
        assert!(
            store.stats().store.compaction_steps > steps,
            "maintain stepped"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn short_transfer_keeps_the_watermark_behind() {
        let root = test_root("watermark-short");
        // Every transfer attempt lands corrupted, so no pass completes.
        let injector = shared_injector(FaultPlan {
            seed: 5,
            ship_corrupt_probability: 1.0,
            ..FaultPlan::default()
        });
        let store = open_set(&root, 1, StationSetConfig::default(), Some(injector));
        assert!(store.offer(reference(0, 1.0, 0.3)));
        for _ in 0..2 {
            let before = store.stats();
            store.replicate();
            let after = store.stats();
            assert_eq!(
                after.ship_checks - before.ship_checks,
                1,
                "shard re-inspected"
            );
            assert!(after.ship_corrupt_detected > before.ship_corrupt_detected);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_failover_and_restore_clear_the_watermark() {
        let root = test_root("watermark-clear");
        let injector = shared_injector(FaultPlan {
            seed: 3,
            corruptions: vec![SegmentCorruption {
                station: 2,
                shard: 0,
                day: 3.0,
            }],
            ..FaultPlan::default()
        });
        let config = StationSetConfig {
            stations: 3,
            replicas: 2,
            ..StationSetConfig::default()
        };
        let store = open_set(&root, 1, config, Some(injector));
        assert!(store.offer(reference(0, 1.0, 0.3)));
        // Runs one pass and returns how many shards it inspected.
        let pass = || {
            let before = store.stats().ship_checks;
            store.replicate();
            store.stats().ship_checks - before
        };
        assert_eq!(pass(), 0, "the offer left every replica current");

        store.advance_to_day(3.5);
        assert_eq!(pass(), 1, "a corrupted replica is re-verified");
        assert!(
            store.stats().ship_corrupt_detected > 0,
            "and the decay healed"
        );
        assert_replicas_identical(&store, 1);

        store.fail_station(0);
        assert_eq!(store.shard_station(0), 1);
        assert_eq!(pass(), 1, "a promoted primary re-derives its replicas");
        assert_replicas_identical(&store, 1);

        // The promoted timeline moves on while station 0 is dark.
        assert!(store.offer(reference(0, 5.0, 0.4)));
        store.restore_station(0);
        assert_eq!(pass(), 1, "a returning station is re-verified");
        assert_replicas_identical(&store, 1);
        assert_eq!(pass(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn manual_drain_order_converges_to_identical_replicas() {
        let manual = |window: usize| StationSetConfig {
            queue: ShipQueueConfig {
                pipelined: true,
                workers: false,
                queue_depth: 64,
                inflight_window: window,
            },
            ..StationSetConfig::default()
        };
        let offer_all = |store: &ReplicatedReferenceStore| {
            for loc in 0..48u32 {
                store.offer(reference(loc, 2.0 + (loc % 5) as f64, 0.4));
            }
        };
        let root_a = test_root("drain-a");
        let a = open_set(&root_a, 8, manual(1), None);
        offer_all(&a);
        // Drain A station-major: all of station 0, then all of station 1.
        while a.pump_station(0) > 0 {}
        while a.pump_station(1) > 0 {}
        a.quiesce();
        let root_b = test_root("drain-b");
        let b = open_set(&root_b, 8, manual(3), None);
        offer_all(&b);
        // Drain B interleaved with a different window size.
        loop {
            let moved = b.pump_station(1) + b.pump_station(0);
            if moved == 0 {
                break;
            }
        }
        b.quiesce();
        // Both drain disciplines converge to byte-identical replica
        // trees — and to the synchronous run's, transitively (each
        // replica file is a verified copy of the same primary bytes).
        for shard in 0..8usize {
            for station in 0..2usize {
                let da = a.shard_dir(station, shard);
                let db = b.shard_dir(station, shard);
                for (id, path) in list_segments(&da).unwrap() {
                    let fa = std::fs::read(&path).unwrap();
                    let fb = std::fs::read(db.join(segment_file_name(id))).unwrap();
                    assert_eq!(fa, fb, "shard {shard} station {station} segment {id}");
                }
            }
        }
        assert_replicas_identical(&a, 8);
        assert_replicas_identical(&b, 8);
        let _ = std::fs::remove_dir_all(&root_a);
        let _ = std::fs::remove_dir_all(&root_b);
    }

    #[test]
    fn full_queue_backpressures_and_coalesces() {
        let root = test_root("backpressure");
        let config = StationSetConfig {
            queue: ShipQueueConfig {
                pipelined: true,
                workers: false,
                queue_depth: 1,
                inflight_window: 1,
            },
            ..StationSetConfig::default()
        };
        // 4 shards over 2 stations: each station queue (depth 1) sees two
        // distinct shards, so the second forces a backpressure drain.
        let store = open_set(&root, 4, config, None);
        for loc in 0..32u32 {
            assert!(store.offer(reference(loc, 2.0, 0.4)));
            for station in 0..2usize {
                assert!(
                    store.queued_shards(station) <= 1,
                    "depth-1 queue must never exceed its bound"
                );
            }
        }
        assert!(
            store.stats().ship_backpressure > 0,
            "a full depth-1 queue must backpressure"
        );
        store.quiesce();
        assert_replicas_identical(&store, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn grouped_ingest_matches_sequential_offers() {
        let offers: Vec<ReferenceImage> = (0..24u32)
            .flat_map(|loc| {
                [
                    reference(loc, 3.0, 0.3),
                    reference(loc, 9.0, 0.5),
                    reference(loc, 5.0, 0.4),
                ]
            })
            .collect();
        let root_seq = test_root("ingest-seq");
        let seq = open_set(&root_seq, 4, StationSetConfig::default(), None);
        let mut seq_accepted = 0u64;
        for reference in offers.clone() {
            if seq.offer(reference) {
                seq_accepted += 1;
            }
        }
        let root_grp = test_root("ingest-grp");
        let grp = open_set(&root_grp, 4, StationSetConfig::default(), None);
        let report = grp.ingest_batch(offers, 4);
        assert_eq!(report.offered(), 72);
        assert_eq!(report.accepted, seq_accepted, "batch accepts = sequential");
        assert_eq!(grp.keys(), seq.keys());
        for loc in 0..24u32 {
            assert_eq!(grp.fresh_day(LocationId(loc), red()), Some(9.0));
        }
        assert_replicas_identical(&grp, 4);
        let _ = std::fs::remove_dir_all(&root_seq);
        let _ = std::fs::remove_dir_all(&root_grp);
    }

    #[test]
    fn failover_promotes_replica_with_identical_state() {
        let root = test_root("failover");
        let store = open_set(&root, 3, StationSetConfig::default(), None);
        for loc in 0..24u32 {
            store.offer(reference(loc, 1.0 + loc as f64, 0.3));
        }
        let before_keys = store.keys();
        let before_days: Vec<Option<f64>> = (0..24u32)
            .map(|loc| store.fresh_day(LocationId(loc), red()))
            .collect();
        store.fail_station(0);
        assert!(store.stats().failovers > 0);
        assert_eq!(store.keys(), before_keys, "no reference lost in failover");
        let after_days: Vec<Option<f64>> = (0..24u32)
            .map(|loc| store.fresh_day(LocationId(loc), red()))
            .collect();
        assert_eq!(after_days, before_days);
        for shard in 0..3usize {
            assert_ne!(store.shard_station(shard), 0, "no shard stays on station 0");
        }
        // New writes keep flowing on the promoted primaries.
        assert!(store.offer(reference(0, 99.0, 0.5)));
        assert_eq!(store.fresh_day(LocationId(0), red()), Some(99.0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn returning_station_is_healed_not_trusted() {
        let root = test_root("rejoin");
        let store = open_set(&root, 1, StationSetConfig::default(), None);
        store.offer(reference(0, 1.0, 0.3));
        let original = store.shard_station(0);
        store.fail_station(original);
        let promoted = store.shard_station(0);
        assert_ne!(promoted, original);
        // The promoted timeline moves on while the old primary is dark.
        store.offer(reference(0, 5.0, 0.4));
        store.restore_station(original);
        store.replicate();
        // The old primary's copy now matches the promoted timeline.
        let pdir = store.shard_dir(promoted, 0);
        let rdir = store.shard_dir(original, 0);
        for (id, path) in list_segments(&pdir).unwrap() {
            let src = std::fs::read(&path).unwrap();
            let dst = std::fs::read(rdir.join(segment_file_name(id))).unwrap();
            assert_eq!(src, dst, "rejoined station still diverges on {id}");
        }
        // And failing back over to it serves the promoted data.
        store.fail_station(promoted);
        assert_eq!(store.shard_station(0), original);
        assert_eq!(store.fresh_day(LocationId(0), red()), Some(5.0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_transfer_faults_retry_until_delivery() {
        let root = test_root("retry");
        let injector = shared_injector(FaultPlan {
            seed: 42,
            ship_interrupt_probability: 0.4,
            ship_corrupt_probability: 0.2,
            disk_stall_probability: 0.1,
            ..FaultPlan::default()
        });
        let store = open_set(&root, 2, StationSetConfig::default(), Some(injector));
        for loc in 0..32u32 {
            assert!(store.offer(reference(loc, 2.0, 0.4)));
        }
        store.replicate();
        let stats = store.stats();
        assert!(stats.ship_retries > 0, "faults above must force retries");
        assert!(stats.ship_backoff_us > 0, "retries must charge backoff");
        assert!(stats.faults_injected > 0);
        // Despite the faults, a failover still loses nothing: every
        // record made it to the replicas.
        let keys = store.keys();
        store.fail_station(0);
        store.fail_station(1);
        // Both down: stations 0 and 1 — but shards failed over in order,
        // so whichever survived longest holds the data; restore one and
        // verify via a fresh failback.
        store.restore_station(0);
        store.restore_station(1);
        assert_eq!(store.keys(), keys);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Pins the synchronous ship path's retry, resume, backoff and fault
    /// accounting for one seeded faulted run, so a change to the retry
    /// loop that shifts any count (attempt limit, backoff curve, jitter
    /// draws) shows up as a diff.
    #[test]
    fn faulted_sync_ship_stats_are_pinned() {
        let root = test_root("pinned-faults");
        let injector = shared_injector(FaultPlan {
            seed: 42,
            ship_interrupt_probability: 0.4,
            ship_corrupt_probability: 0.2,
            disk_stall_probability: 0.1,
            ..FaultPlan::default()
        });
        let store = open_set(&root, 2, StationSetConfig::default(), Some(injector));
        for loc in 0..32u32 {
            assert!(store.offer(reference(loc, 2.0, 0.4)));
        }
        store.replicate();
        let stats = store.stats();
        let got = (
            stats.ship_retries,
            stats.ship_resumed,
            stats.ship_backoff_us,
            stats.ship_corrupt_detected,
            stats.disk_stalls,
            stats.faults_injected,
            stats.ship_bytes,
        );
        assert_eq!(got, (37, 28, 75_521, 8, 4, 43, 9_568));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_faults_reach_queued_transfers_too() {
        let root = test_root("queued-faults");
        let injector = shared_injector(FaultPlan {
            seed: 42,
            ship_interrupt_probability: 0.4,
            ship_corrupt_probability: 0.2,
            disk_stall_probability: 0.1,
            ..FaultPlan::default()
        });
        let config = StationSetConfig {
            queue: ShipQueueConfig {
                pipelined: true,
                workers: false,
                ..ShipQueueConfig::default()
            },
            ..StationSetConfig::default()
        };
        let store = open_set(&root, 2, config, Some(injector));
        for loc in 0..32u32 {
            assert!(store.offer(reference(loc, 2.0, 0.4)));
        }
        store.quiesce();
        let stats = store.stats();
        assert!(
            stats.faults_injected > 0,
            "queued transfers must draw faults"
        );
        assert!(stats.ship_retries > 0, "queued transfers must retry");
        // The retry/heal machinery converges regardless of the path.
        assert_replicas_identical(&store, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn whole_ring_down_serves_degraded() {
        let root = test_root("degraded");
        let store = open_set(&root, 1, StationSetConfig::default(), None);
        store.offer(reference(0, 1.0, 0.3));
        store.fail_station(0);
        store.fail_station(1);
        assert!(store.get(LocationId(0), red()).is_some(), "still serves");
        assert!(store.stats().degraded_serves > 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_replica_corruption_is_detected_and_healed() {
        let root = test_root("heal");
        let injector = shared_injector(FaultPlan {
            seed: 9,
            corruptions: vec![SegmentCorruption {
                station: 1,
                shard: 0,
                day: 3.0,
            }],
            ..FaultPlan::default()
        });
        let config = StationSetConfig {
            stations: 2,
            ..StationSetConfig::default()
        };
        let store = open_set(&root, 1, config, Some(injector));
        store.offer(reference(0, 1.0, 0.3));
        let primary = store.shard_station(0);
        assert_eq!(primary, 0, "shard 0 starts on station 0");
        store.advance_to_day(3.5); // corruption lands on the replica
        store.replicate(); // scrub detects + re-ships
        let stats = store.stats();
        assert!(stats.faults_injected > 0);
        assert!(stats.ship_corrupt_detected > 0, "decay must be detected");
        // The healed replica is byte-identical again, so promoting it
        // serves the same data.
        store.fail_station(0);
        assert_eq!(store.fresh_day(LocationId(0), red()), Some(1.0));
        assert!(store.recovery_report().clean(), "promotion replay clean");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fail_station_drains_queued_ships_before_promotion() {
        let root = test_root("fail-queued");
        let config = StationSetConfig {
            queue: ShipQueueConfig {
                pipelined: true,
                workers: false,
                ..ShipQueueConfig::default()
            },
            ..StationSetConfig::default()
        };
        let store = open_set(&root, 4, config, None);
        for loc in 0..16u32 {
            assert!(store.offer(reference(loc, 1.0 + loc as f64, 0.3)));
        }
        assert!(
            store.queued_shards(0) > 0,
            "nothing may ship before the outage"
        );
        let keys = store.keys();
        let days: Vec<Option<f64>> = (0..16u32)
            .map(|loc| store.fresh_day(LocationId(loc), red()))
            .collect();
        // No quiesce: the outage itself must ship what the queue holds
        // before a replica is promoted.
        store.fail_station(store.shard_station(0));
        assert!(store.stats().failovers > 0);
        assert_eq!(store.keys(), keys, "acknowledged offers lost in failover");
        let after: Vec<Option<f64>> = (0..16u32)
            .map(|loc| store.fresh_day(LocationId(loc), red()))
            .collect();
        assert_eq!(after, days);
        let _ = std::fs::remove_dir_all(&root);
    }

    // --- one station, no replicas: the plain durable store ---------------

    fn open_one(root: &Path, shards: usize) -> (ReplicatedReferenceStore, RecoveryReport) {
        ReplicatedReferenceStore::open(
            root,
            shards,
            StationSetConfig::single(RefLogConfig::default()),
            &TelemetrySink::default(),
            &TraceSink::default(),
        )
        .unwrap()
    }

    #[test]
    fn offer_get_fresh_day_round_trip() {
        let root = test_root("roundtrip");
        let (store, report) = open_one(&root, 4);
        assert!(report.clean());
        assert!(store.offer(reference(0, 5.0, 0.4)));
        assert!(!store.offer(reference(0, 3.0, 0.5)), "stale rejected");
        assert!(store.offer(reference(0, 9.0, 0.6)));
        assert_eq!(store.fresh_day(LocationId(0), red()), Some(9.0));
        let got = store.get(LocationId(0), red()).unwrap();
        assert_eq!(got.captured_day, 9.0);
        assert_eq!(got, reference(0, 9.0, 0.6));
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().ship_bytes, 0, "nothing to ship to");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_recovers_identical_state() {
        let root = test_root("reopen");
        let (store, _) = open_one(&root, 3);
        for loc in 0..20u32 {
            store.offer(reference(loc, 1.0 + loc as f64, 0.3));
        }
        let keys = store.keys();
        let size = store.size_bytes();
        drop(store);
        let (store, report) = open_one(&root, 3);
        assert!(report.clean());
        assert_eq!(report.live_records, 20);
        assert_eq!(store.keys(), keys);
        assert_eq!(store.size_bytes(), size);
        for loc in 0..20u32 {
            assert_eq!(
                store.fresh_day(LocationId(loc), red()),
                Some(1.0 + loc as f64)
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn size_bytes_matches_in_memory_model() {
        let root = test_root("size");
        let (store, _) = open_one(&root, 2);
        let expected: u64 = (0..5u32)
            .map(|loc| reference(loc, 1.0, 0.3).size_bytes())
            .sum();
        for loc in 0..5u32 {
            store.offer(reference(loc, 1.0, 0.3));
        }
        assert_eq!(store.size_bytes(), expected);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_layout_mirrors_shard_routing() {
        let root = test_root("routing");
        let shards = 4;
        let (store, _) = open_one(&root, shards);
        for loc in 0..32u32 {
            store.offer(reference(loc, 1.0, 0.3));
        }
        drop(store);
        // Each key's record must live in exactly the directory its
        // in-memory shard routing picks, under the one station.
        for loc in 0..32u32 {
            let expected_shard = shard_index(LocationId(loc), red(), shards);
            let dir = root
                .join(station_dir_name(0))
                .join(shard_dir_name(expected_shard));
            let (log, _) = RefLog::open(&dir, RefLogConfig::default()).unwrap();
            assert!(
                log.fresh_day(&(LocationId(loc), red())).is_some(),
                "location {loc} missing from its routed shard {expected_shard}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn parallel_ingest_converges_to_freshest() {
        let root = test_root("ingest");
        let (store, _) = open_one(&root, 4);
        let mut batch = Vec::new();
        for day in [3.0, 9.0, 5.0, 1.0] {
            for loc in 0..16u32 {
                batch.push(reference(loc, day, 0.3));
            }
        }
        let report = store.ingest_batch(batch, 4);
        assert_eq!(report.offered(), 64);
        // Sequential offers would accept 3.0 and 9.0 and reject 5.0 and
        // 1.0 per location; the group-commit path must count the same.
        assert_eq!(report.accepted, 32);
        assert_eq!(report.rejected, 32);
        assert_eq!(store.len(), 16);
        for loc in 0..16u32 {
            assert_eq!(store.fresh_day(LocationId(loc), red()), Some(9.0));
        }
        store.sync();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn grouped_ingest_amortizes_fsyncs() {
        let config = StationSetConfig::single(RefLogConfig {
            fsync_appends: true,
            ..RefLogConfig::default()
        });
        let batch: Vec<ReferenceImage> = (0..16u32).map(|loc| reference(loc, 2.0, 0.3)).collect();
        let root_seq = test_root("fsync-seq");
        let seq = open_set(&root_seq, 2, config.clone(), None);
        for reference in batch.clone() {
            assert!(seq.offer(reference));
        }
        let root_grp = test_root("fsync-grp");
        let grp = open_set(&root_grp, 2, config, None);
        let report = grp.ingest_batch(batch, 2);
        assert_eq!(report.accepted, 16);
        let seq_fsyncs = seq.stats().store.fsyncs_issued;
        let grp_fsyncs = grp.stats().store.fsyncs_issued;
        // One fsync per record vs one per batched segment run: the batch
        // factor here is 8 records/shard, so well over 2x fewer syncs.
        assert!(
            grp_fsyncs * 2 <= seq_fsyncs,
            "grouped ingest issued {grp_fsyncs} fsyncs vs {seq_fsyncs} sequential"
        );
        // Same converged state either way.
        assert_eq!(grp.keys(), seq.keys());
        assert_eq!(grp.size_bytes(), seq.size_bytes());
        let _ = std::fs::remove_dir_all(&root_seq);
        let _ = std::fs::remove_dir_all(&root_grp);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let root = test_root("stats");
        // Compaction triggers on any dead byte and finishes in one step,
        // so one `maintain` compacts every shard.
        let log = RefLogConfig {
            auto_compact: false,
            compact_min_dead_bytes: 1,
            compact_min_dead_fraction: 0.0,
            compaction_step: earthplus_refstore::CompactionBudget::unbounded(),
            ..RefLogConfig::default()
        };
        let store = open_set(&root, 2, StationSetConfig::single(log), None);
        for generation in 1..=3 {
            for loc in 0..6u32 {
                store.offer(reference(loc, generation as f64, 0.3));
            }
        }
        let stats = store.stats().store;
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.live_records, 6);
        assert_eq!(stats.dead_records, 12);
        assert!(stats.dead_bytes > 0);
        store.maintain();
        let stats = store.stats().store;
        assert_eq!(stats.dead_bytes, 0);
        assert_eq!(stats.compactions, 2);
        assert!(stats.segments > 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
