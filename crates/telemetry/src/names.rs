//! Canonical metric names used across the workspace.
//!
//! One name, one meaning: instrumentation sites resolve their handles
//! from these constants, so the README's naming table, the exporters,
//! and the recording code cannot drift apart. Scheme:
//! `<subsystem>.<operation>[.<detail>]`, lowercase, dot-separated;
//! histograms carry a unit suffix (`_ns` = nanoseconds, `_bytes` =
//! bytes).

// --- on-board capture pipeline stages (per capture-band) -------------

/// Cloud-mask stage latency per capture.
pub const STAGE_CLOUD_NS: &str = "stage.cloud_ns";
/// Change-detection (+ illumination align) stage latency per band.
pub const STAGE_CHANGE_NS: &str = "stage.change_ns";
/// ROI-encode stage latency per band.
pub const STAGE_ENCODE_NS: &str = "stage.encode_ns";
/// Ground-side decode + belief patch latency per band.
pub const STAGE_GROUND_PATCH_NS: &str = "stage.ground_patch_ns";

// --- codec ------------------------------------------------------------

/// Full EPC1 encode latency (per image/tile encode call).
pub const CODEC_ENCODE_EPC1_NS: &str = "codec.encode.epc1_ns";
/// Full EPC2 encode latency (per image/tile encode call).
pub const CODEC_ENCODE_EPC2_NS: &str = "codec.encode.epc2_ns";
/// Encoded payload size per encode call.
pub const CODEC_ENCODE_BYTES: &str = "codec.encode_bytes";
/// Full EPC1 decode latency.
pub const CODEC_DECODE_EPC1_NS: &str = "codec.decode.epc1_ns";
/// Full EPC2 decode latency.
pub const CODEC_DECODE_EPC2_NS: &str = "codec.decode.epc2_ns";
/// Resolution-progressive (level-limited / LL-only) decode latency.
pub const CODEC_DECODE_PARTIAL_NS: &str = "codec.decode.partial_ns";

// --- ground service ---------------------------------------------------

/// Reference-ingest latency (downlinked reconstructions).
pub const GROUND_INGEST_NS: &str = "ground.ingest_ns";
/// Encoded-capture ingest latency (LL-only partial-decode path).
pub const GROUND_INGEST_ENCODED_NS: &str = "ground.ingest_encoded_ns";
/// Whole-pass uplink scheduling latency.
pub const GROUND_PLAN_PASS_NS: &str = "ground.plan_pass_ns";
/// References admitted into the store.
pub const GROUND_INGEST_ACCEPTED: &str = "ground.ingest.accepted";
/// References rejected as stale.
pub const GROUND_INGEST_REJECTED: &str = "ground.ingest.rejected";
/// References built from archived encoded captures.
pub const GROUND_INGEST_ENCODED: &str = "ground.ingest.encoded";
/// Reference updates scheduled onto the uplink.
pub const GROUND_DELTAS_SENT: &str = "ground.uplink.deltas_sent";
/// Updates that did not fit their pass.
pub const GROUND_DELTAS_SKIPPED: &str = "ground.uplink.deltas_skipped";
/// Bytes scheduled onto the uplink.
pub const GROUND_UPLINK_BYTES: &str = "ground.uplink.bytes_sent";
/// On-board cache hits, summed over satellites.
pub const GROUND_CACHE_HITS: &str = "ground.cache.hits";
/// On-board cache misses, summed over satellites.
pub const GROUND_CACHE_MISSES: &str = "ground.cache.misses";
/// On-board cache evictions, summed over satellites.
pub const GROUND_CACHE_EVICTIONS: &str = "ground.cache.evictions";
/// Full reference installs, summed over satellites.
pub const GROUND_CACHE_INSTALLS: &str = "ground.cache.installs";
/// Delta updates applied, summed over satellites.
pub const GROUND_CACHE_DELTA_APPLIES: &str = "ground.cache.delta_applies";
/// Largest single-satellite cache footprint observed (gauge).
pub const GROUND_CACHE_PEAK_BYTES: &str = "ground.cache.peak_bytes";

// --- storage engine ---------------------------------------------------

/// Record-append latency per committed reference.
pub const REFSTORE_APPEND_NS: &str = "refstore.append_ns";
/// Open-time replay latency per shard log.
pub const REFSTORE_REPLAY_NS: &str = "refstore.replay_ns";
/// Snapshot + compaction latency per compaction run.
pub const REFSTORE_COMPACTION_NS: &str = "refstore.compaction_ns";
/// Single bounded compaction-step latency (the append-path stall bound).
pub const REFSTORE_COMPACTION_STEP_NS: &str = "refstore.compaction.step_ns";
/// Bounded compaction steps executed.
pub const REFSTORE_COMPACTION_STEPS: &str = "refstore.compaction.steps";
/// Superseded (reclaimable) bytes across all shard logs (gauge).
pub const REFSTORE_DEAD_BYTES: &str = "refstore.dead_bytes";
/// Live payload bytes across all shard logs (gauge).
pub const REFSTORE_LIVE_BYTES: &str = "refstore.live_bytes";
/// Records committed per group-commit batch (`RefLog::append_batch`) —
/// the batch-size distribution whose mean is the fsync amortization
/// factor.
pub const REFSTORE_BATCH_RECORDS: &str = "refstore.append.batch_records";
/// Corrupt records dropped by recovery replay (surfaced from
/// non-clean `RecoveryReport`s at backend open).
pub const REFSTORE_RECOVERY_DROPPED_RECORDS: &str = "refstore.recovery.dropped_records";
/// Torn-tail bytes truncated by recovery replay.
pub const REFSTORE_RECOVERY_DROPPED_BYTES: &str = "refstore.recovery.dropped_bytes";

// --- multi-station replication -----------------------------------------

/// Segment files shipped (or tail-extended) primary -> replica.
pub const STATION_SHIP_SEGMENTS: &str = "station.ship.segments";
/// Bytes copied by cross-station segment shipping.
pub const STATION_SHIP_BYTES: &str = "station.ship.bytes";
/// Ship attempts retried after a dropped or interrupted transfer.
pub const STATION_SHIP_RETRIES: &str = "station.ship.retries";
/// Interrupted transfers resumed from a partial replica file.
pub const STATION_SHIP_RESUMED: &str = "station.ship.resumed";
/// Replica segments whose CRC verification failed (re-shipped in full).
pub const STATION_SHIP_CORRUPT: &str = "station.ship.corrupt_detected";
/// Backoff delay scheduled across ship retries, in microseconds.
pub const STATION_SHIP_BACKOFF_US: &str = "station.ship.backoff_us";
/// Station outages observed.
pub const STATION_OUTAGES: &str = "station.outages";
/// Shards promoted from a replica after a station outage.
pub const STATION_FAILOVERS: &str = "station.failovers";
/// Reference reads served while a shard had no live station (degraded).
pub const STATION_DEGRADED_SERVES: &str = "station.degraded_serves";
/// Slow-disk stall events injected/observed.
pub const STATION_DISK_STALLS: &str = "station.disk_stalls";
/// Shards currently waiting in per-station ship queues (gauge).
pub const STATION_QUEUE_DEPTH: &str = "station.ship.queue_depth";
/// Transfers currently inside a station's bounded in-flight window
/// (gauge).
pub const STATION_INFLIGHT: &str = "station.ship.inflight";
/// Enqueue attempts that hit a full ship queue and had to wait for (or
/// drain on behalf of) the workers — sustained growth means shipping
/// cannot keep up with ingest.
pub const STATION_BACKPRESSURE: &str = "station.ship.backpressure_waits";

// --- fault injection / interrupted passes -------------------------------

/// Fault events applied to the ground segment.
pub const FAULTS_INJECTED: &str = "fault.injected";
/// Contact windows whose uplink budget was clamped by a mid-pass link
/// drop (undelivered references carry into the next window).
pub const GROUND_PASS_INTERRUPTED: &str = "ground.uplink.interrupted_windows";

// --- flight recorder ---------------------------------------------------

/// Trace events recorded over the recorder's lifetime.
pub(crate) const TRACE_RECORDED: &str = "trace.recorded";
/// Trace events evicted from full rings (oldest first).
pub const TRACE_DROPPED: &str = "trace.dropped";
