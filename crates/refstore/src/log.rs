//! The log engine: open/replay, append, read, compact.
//!
//! One [`RefLog`] owns one directory of segment files plus a manifest. It
//! is single-writer by construction (`append`/`compact` take `&mut self`);
//! concurrent use is layered on top by sharding — the ground segment runs
//! one `RefLog` per shard directory behind an `RwLock`, mirroring the
//! in-memory store's shard routing.
//!
//! There is one write path and one read path. [`RefLog::append`] and
//! [`RefLog::append_batch`] share one commit core: it stages the fresher
//! records' frames in one buffer per segment run and lands each run with
//! one write (plus one data sync with `fsync_appends`), so a single
//! append is a batch of one with per-record durability. [`RefLog::get`]
//! and compaction's relocation read through the same handle-cached
//! positioned read.
//!
//! ## Durability contract
//!
//! * **Commit point** — a record is committed once its CRC-framed bytes
//!   are fully in the segment file. With `fsync_appends` enabled the
//!   write also forces the file to stable storage before returning —
//!   once per `append`, once per segment run of an `append_batch`;
//!   without it (the default, matching the simulation's needs) the OS may
//!   hold the tail in its page cache, and the commit point is
//!   process-crash-safe but not power-loss-safe.
//! * **Recovery** — replay scans manifest-listed segments plus anything
//!   newer, in id then offset order. A torn tail is truncated back to the
//!   last valid record; CRC-corrupt records in the middle of a segment
//!   are dropped and counted; both are reported in [`RecoveryReport`].
//! * **Compaction** — live records are rewritten (in key order, so the
//!   result is deterministic) into fresh segments, the manifest is
//!   atomically swapped, and the old segments deleted. Superseded
//!   reference generations die here; an interrupted compaction leaves
//!   either the old manifest (the half-written new segments replay after
//!   the originals, lose every equal-day freshness tie to them, and are
//!   reclaimed as dead bytes by the next compaction) or the new one (the
//!   retired old segments are swept as orphans on next open), never a
//!   mix.

use crate::compaction::{CompactionBudget, CompactionDriver, CompactionStepReport};
use crate::error::{RefStoreError, Result};
use crate::index::{IndexEntry, MemIndex};
use crate::manifest::{sync_dir, Manifest};
use crate::record::{
    decode_frame, encode_frame, encode_frame_into, framed_len, Record, RecordKey, BODY_FIXED_LEN,
    MAX_BODY_LEN,
};
use crate::segment::{
    list_segments, scan_segment, segment_file_name, SegmentWriter, SEGMENT_HEADER_LEN,
};
use earthplus_telemetry::{
    names, Counter, Gauge, Histogram, TelemetrySink, TraceSink, TraceSpan, TraceTrack,
};
use std::collections::{hash_map, HashMap};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cache of open read handles, one per segment file, so the read path does
/// not reopen the file on every [`RefLog::get`] (the ROADMAP follow-up).
///
/// Reads go through positioned I/O (`read_at`), so one shared handle
/// serves concurrent readers without cursor races; on platforms without
/// positioned reads the cache is bypassed and each read opens its own
/// handle, which is exactly the old behaviour. The cache holds at most
/// [`MAX_CACHED_HANDLES`] descriptors: logs with huge segment counts
/// (e.g. autocompaction disabled) reset it rather than exhausting the
/// process fd limit.
#[derive(Debug)]
struct SegmentHandleCache {
    handles: Mutex<HashMap<u64, Arc<File>>>,
    /// Per-log live counters (not registry handles): a persistent store
    /// runs one log per shard and *sums* their [`RefLogStats`], so these
    /// must count this log alone — sharing one registry atomic across
    /// shards would multiply the totals.
    hits: Counter,
    misses: Counter,
}

impl Default for SegmentHandleCache {
    fn default() -> Self {
        SegmentHandleCache {
            handles: Mutex::new(HashMap::new()),
            hits: Counter::live(),
            misses: Counter::live(),
        }
    }
}

/// Upper bound on cached segment file descriptors per log.
const MAX_CACHED_HANDLES: usize = 64;

impl SegmentHandleCache {
    #[cfg(unix)]
    fn get_or_open(&self, dir: &Path, segment: u64) -> std::io::Result<Arc<File>> {
        let mut handles = self.handles.lock().expect("handle cache poisoned");
        if handles.len() >= MAX_CACHED_HANDLES && !handles.contains_key(&segment) {
            // Rare (compaction keeps segment counts low); a full reset is
            // simpler than LRU bookkeeping on the hot read path.
            handles.clear();
        }
        match handles.entry(segment) {
            hash_map::Entry::Occupied(o) => {
                self.hits.inc();
                Ok(o.get().clone())
            }
            hash_map::Entry::Vacant(v) => {
                self.misses.inc();
                let file = Arc::new(File::open(dir.join(segment_file_name(segment)))?);
                Ok(v.insert(file).clone())
            }
        }
    }

    /// Drops every cached handle (after compaction retires segments, or
    /// when a torn tail was healed and the handle must be reopened).
    fn clear(&self) {
        self.handles.lock().expect("handle cache poisoned").clear();
    }
}

/// Reads `buf` from `file` at `offset` without moving a shared cursor.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Tuning knobs of one [`RefLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefLogConfig {
    /// Appends rotate to a new segment once the active one reaches this
    /// many bytes.
    pub segment_max_bytes: u64,
    /// Automatically compact after an append when both dead-byte
    /// thresholds are exceeded. Disable for tests that need a fixed file
    /// layout.
    pub auto_compact: bool,
    /// Auto-compaction requires at least this many dead bytes…
    pub compact_min_dead_bytes: u64,
    /// …and a dead fraction (dead / (dead + live)) at or above this.
    pub compact_min_dead_fraction: f64,
    /// `fsync` every append (power-loss durability) instead of only
    /// handing bytes to the OS (process-crash durability). Also gates the
    /// parent-directory fsyncs that make segment creation/retirement and
    /// the manifest rename power-loss durable — fsyncing a file alone does
    /// not persist its directory entry.
    pub fsync_appends: bool,
    /// Per-step work bound for auto-compaction: once the thresholds trip,
    /// each append pumps one bounded [`CompactionDriver`] step instead of
    /// paying for a full stop-the-world rewrite inline.
    pub compaction_step: CompactionBudget,
}

impl Default for RefLogConfig {
    fn default() -> Self {
        RefLogConfig {
            segment_max_bytes: 4 << 20,
            auto_compact: true,
            compact_min_dead_bytes: 256 << 10,
            compact_min_dead_fraction: 0.5,
            fsync_appends: false,
            compaction_step: CompactionBudget::default(),
        }
    }
}

/// What recovery found while rebuilding the index from a directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files scanned.
    pub segments_scanned: u64,
    /// Records now live in the index.
    pub live_records: u64,
    /// Valid records superseded by fresher generations of the same key.
    pub superseded_records: u64,
    /// CRC-invalid or undecodable records dropped mid-segment.
    pub corrupt_records_dropped: u64,
    /// Torn-tail bytes truncated off segment ends.
    pub truncated_bytes: u64,
    /// Segment files removed as compaction leftovers, plus files whose
    /// header was unreadable (quarantined in place, counted here).
    pub orphan_segments: u64,
    /// Whether a valid manifest directed the replay (false on fresh
    /// directories and after manifest corruption, when the engine falls
    /// back to replaying everything present).
    pub manifest_loaded: bool,
}

impl RecoveryReport {
    /// Accumulates another shard's report into this one (manifest flag
    /// AND-ed: "all shards recovered via manifest").
    pub fn merge(&mut self, other: &RecoveryReport) {
        self.segments_scanned += other.segments_scanned;
        self.live_records += other.live_records;
        self.superseded_records += other.superseded_records;
        self.corrupt_records_dropped += other.corrupt_records_dropped;
        self.truncated_bytes += other.truncated_bytes;
        self.orphan_segments += other.orphan_segments;
        self.manifest_loaded &= other.manifest_loaded;
    }

    /// Whether recovery saw any damage at all.
    pub fn clean(&self) -> bool {
        self.corrupt_records_dropped == 0 && self.truncated_bytes == 0
    }
}

/// Point-in-time accounting of one log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefLogStats {
    /// Segment files currently referenced.
    pub segments: u64,
    /// Live (indexed) records.
    pub live_records: u64,
    /// Superseded records still occupying file bytes.
    pub dead_records: u64,
    /// File bytes of live records (frames, headers excluded).
    pub live_bytes: u64,
    /// File bytes of superseded/corrupt records awaiting compaction.
    pub dead_bytes: u64,
    /// Compactions run since open.
    pub compactions: u64,
    /// Bounded compaction steps executed since open (a stop-the-world
    /// [`RefLog::compact`] counts one step per budget-sized slice).
    pub compaction_steps: u64,
    /// Largest frame-byte volume any single compaction step relocated —
    /// the deterministic bound on how long one step can stall an append
    /// (`max(budget.max_bytes, largest single frame)` by construction).
    pub max_step_copied_bytes: u64,
    /// Read-path segment-handle cache hits (reads served by an already
    /// open file handle).
    pub handle_cache_hits: u64,
    /// Read-path segment-handle cache misses (reads that had to open the
    /// segment file).
    pub handle_cache_misses: u64,
    /// Data and directory syncs the log has issued since open (segment
    /// `fdatasync`s plus the directory fsyncs that gate creation,
    /// rotation, and manifest swaps; the manifest's own tmp-file flush is
    /// internal to [`crate::manifest`] and not counted). With
    /// `fsync_appends` enabled this is the figure group commit amortizes:
    /// N single appends issue ~N syncs, one [`RefLog::append_batch`] of N
    /// records issues one per segment it fills.
    pub fsyncs_issued: u64,
}

/// A durable, crash-recoverable, log-structured store of freshest-wins
/// reference records. See the module docs for the durability contract.
#[derive(Debug)]
pub struct RefLog {
    dir: PathBuf,
    config: RefLogConfig,
    index: MemIndex,
    handles: SegmentHandleCache,
    active: SegmentWriter,
    /// Ids of sealed + active segments, ascending.
    segments: Vec<u64>,
    next_segment_id: u64,
    dead_records: u64,
    dead_bytes: u64,
    live_bytes: u64,
    compactions: u64,
    /// In-progress incremental compaction, if any (see [`CompactionDriver`]).
    driver: Option<CompactionDriver>,
    /// Per-log step accounting (see [`RefLogStats`]).
    compaction_steps: u64,
    max_step_copied_bytes: u64,
    /// Syncs issued since open (see [`RefLogStats::fsyncs_issued`]).
    fsyncs_issued: u64,
    /// File-changing operations since open (see [`RefLog::generation`]).
    generation: u64,
    /// Committed-append latency span target (disabled until
    /// [`RefLog::attach_telemetry`]).
    append_ns: Histogram,
    /// Compaction-run latency span target (disabled until
    /// [`RefLog::attach_telemetry`]).
    compaction_ns: Histogram,
    /// Bounded compaction-step latency (disabled until
    /// [`RefLog::attach_telemetry`]).
    step_ns: Histogram,
    /// Records committed per [`RefLog::append_batch`] call (disabled
    /// until [`RefLog::attach_telemetry`]) — the group-commit batch-size
    /// distribution.
    batch_records: Histogram,
    /// Registry step counter (shared across shard logs is fine for the
    /// rollup; per-log counts live in `compaction_steps`).
    steps: Counter,
    /// Store-wide byte gauges (disabled until [`RefLog::attach_telemetry`]).
    /// Shared across shard logs: each log publishes only the *change* in
    /// its own share ([`Gauge::offset`]), so the gauges read as the sum.
    dead_bytes_gauge: Gauge,
    live_bytes_gauge: Gauge,
    /// The byte figures last published to the gauges, so the next publish
    /// can offset by the difference.
    reported_dead_bytes: u64,
    reported_live_bytes: u64,
    /// Trace-event sink (disabled until [`RefLog::attach_tracing`]).
    tracing: TraceSink,
    /// How long [`RefLog::open`] spent replaying this directory — recorded
    /// into [`names::REFSTORE_REPLAY_NS`] when telemetry is attached
    /// (replay happens before any sink can be wired: the config is `Copy`
    /// and carries no handles).
    replay_ns: u64,
}

impl RefLog {
    /// Opens (or creates) the log at `dir`, replaying every committed
    /// record into a fresh index and healing crash damage as described in
    /// the module docs.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures. Corruption is healed and reported, not
    /// returned as an error.
    pub fn open(dir: &Path, config: RefLogConfig) -> Result<(Self, RecoveryReport)> {
        let replay_started = Instant::now();
        std::fs::create_dir_all(dir)?;
        let mut report = RecoveryReport::default();

        let manifest = Manifest::load(dir)?;
        report.manifest_loaded = manifest.is_some();
        let mut orphans: Vec<PathBuf> = Vec::new();
        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        let all = list_segments(dir)?;
        match &manifest {
            Some(manifest) => {
                for (id, path) in all {
                    if manifest.live_segments.contains(&id) || id >= manifest.next_segment_id {
                        segments.push((id, path));
                    } else {
                        // Unlisted and pre-manifest: a leftover from an
                        // interrupted compaction sweep.
                        orphans.push(path);
                    }
                }
            }
            None => segments = all,
        }
        for path in orphans {
            std::fs::remove_file(&path)?;
            report.orphan_segments += 1;
        }

        let mut index = MemIndex::new();
        let mut live_bytes = 0u64;
        let mut dead_records = 0u64;
        let mut dead_bytes = 0u64;
        let mut kept_segments: Vec<u64> = Vec::new();
        let mut tail: Option<(u64, u64)> = None; // (id, valid_len) of last good segment
        for (id, path) in &segments {
            let scan = scan_segment(path, *id)?;
            report.segments_scanned += 1;
            if scan.header_invalid {
                // Quarantine: leave the file for forensics, index nothing.
                report.orphan_segments += 1;
                continue;
            }
            if scan.torn_bytes > 0 {
                // Heal the torn tail now so the file is clean even if this
                // segment does not become the active one.
                let file = std::fs::OpenOptions::new().write(true).open(path)?;
                file.set_len(scan.valid_len)?;
                report.truncated_bytes += scan.torn_bytes;
            }
            report.corrupt_records_dropped += scan.corrupt_dropped;
            // Corrupt gaps stay in the file until compaction; counting
            // them keeps dead_bytes + live_bytes reconciled with the
            // files and lets auto-compaction reclaim them.
            dead_bytes += scan.corrupt_bytes;
            for scanned in scan.records {
                let entry = IndexEntry {
                    segment: *id,
                    offset: scanned.offset,
                    framed_len: scanned.framed_len,
                    day: scanned.record.day,
                };
                if index.is_fresher(&scanned.record.key, scanned.record.day) {
                    if let Some(old) = index.install(scanned.record.key, entry) {
                        dead_records += 1;
                        dead_bytes += old.framed_len;
                        live_bytes -= old.framed_len;
                    }
                    live_bytes += scanned.framed_len;
                } else {
                    dead_records += 1;
                    dead_bytes += scanned.framed_len;
                }
            }
            kept_segments.push(*id);
            tail = Some((*id, scan.valid_len));
        }
        report.live_records = index.len() as u64;
        report.superseded_records = dead_records;

        // Allocate new ids past everything seen on disk — including
        // quarantined files, whose names must not be reused.
        let next_free = segments
            .last()
            .map(|&(id, _)| id + 1)
            .max(manifest.as_ref().map(|m| m.next_segment_id))
            .unwrap_or(0);

        // Continue appending into the last segment when it has room;
        // otherwise start a new one. Continuing keeps the file layout of a
        // crashed-and-reopened store byte-identical to one that never
        // crashed, which the recovery tests rely on.
        let mut fsyncs_issued = 0u64;
        let active = match tail {
            Some((id, valid_len)) if valid_len < config.segment_max_bytes => {
                SegmentWriter::reopen(dir, id, valid_len)?
            }
            _ => {
                let writer = SegmentWriter::create(dir, next_free)?;
                if config.fsync_appends {
                    sync_dir(dir)?;
                    fsyncs_issued += 1;
                }
                kept_segments.push(next_free);
                writer
            }
        };
        let next_segment_id = next_free.max(active.id + 1);

        Ok((
            RefLog {
                dir: dir.to_path_buf(),
                config,
                index,
                handles: SegmentHandleCache::default(),
                active,
                segments: kept_segments,
                next_segment_id,
                dead_records,
                dead_bytes,
                live_bytes,
                compactions: 0,
                driver: None,
                compaction_steps: 0,
                max_step_copied_bytes: 0,
                fsyncs_issued,
                generation: 0,
                append_ns: Histogram::default(),
                compaction_ns: Histogram::default(),
                step_ns: Histogram::default(),
                batch_records: Histogram::default(),
                steps: Counter::default(),
                dead_bytes_gauge: Gauge::default(),
                live_bytes_gauge: Gauge::default(),
                reported_dead_bytes: 0,
                reported_live_bytes: 0,
                tracing: TraceSink::default(),
                replay_ns: replay_started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            },
            report,
        ))
    }

    /// Wires this log's instrumentation to `sink`: committed appends and
    /// compaction runs start recording latency spans
    /// ([`names::REFSTORE_APPEND_NS`] / [`names::REFSTORE_COMPACTION_NS`]),
    /// and the open-time replay duration — measured before any sink could
    /// exist — is recorded into [`names::REFSTORE_REPLAY_NS`] now, once.
    /// Histogram handles may be shared across shard logs (a merged latency
    /// distribution is still correct); the handle-cache *counters* stay
    /// per-log, see `SegmentHandleCache`.
    pub fn attach_telemetry(&mut self, sink: &TelemetrySink) {
        self.append_ns = sink.histogram(names::REFSTORE_APPEND_NS);
        self.compaction_ns = sink.histogram(names::REFSTORE_COMPACTION_NS);
        self.step_ns = sink.histogram(names::REFSTORE_COMPACTION_STEP_NS);
        self.batch_records = sink.histogram(names::REFSTORE_BATCH_RECORDS);
        self.steps = sink.counter(names::REFSTORE_COMPACTION_STEPS);
        sink.histogram(names::REFSTORE_REPLAY_NS)
            .record(self.replay_ns);
        self.dead_bytes_gauge = sink.gauge(names::REFSTORE_DEAD_BYTES);
        self.live_bytes_gauge = sink.gauge(names::REFSTORE_LIVE_BYTES);
        self.publish_byte_gauges();
    }

    /// Wires this log's trace events to `sink`: committed appends and
    /// compaction runs record begin/end spans on the ground station's
    /// timeline (lane `"refstore"`), carrying the trace id of whatever
    /// capture is in scope when they run.
    pub fn attach_tracing(&mut self, sink: &TraceSink) {
        self.tracing = sink.clone();
    }

    /// Publishes the store-wide byte gauges: offsets each shared gauge by
    /// the change in this log's share since the last publish, so gauges
    /// shared across shard logs always read as the shard sum.
    fn publish_byte_gauges(&mut self) {
        self.dead_bytes_gauge
            .offset(self.dead_bytes as i64 - self.reported_dead_bytes as i64);
        self.live_bytes_gauge
            .offset(self.live_bytes as i64 - self.reported_live_bytes as i64);
        self.reported_dead_bytes = self.dead_bytes;
        self.reported_live_bytes = self.live_bytes;
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration in force.
    pub fn config(&self) -> &RefLogConfig {
        &self.config
    }

    /// A counter of the operations since open that may have changed a
    /// file in [`RefLog::dir`]: every landed append run, segment
    /// rotation and compaction step (whose relocation writes, manifest
    /// swap and input sweep all fall inside the step) bumps it before
    /// touching the disk. Two equal readings on one open log therefore
    /// bracket an unchanged file set — the ground segment's replication
    /// watermark compares it to skip shards whose replicas are already
    /// current. A reopened log starts again at 0.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Appends a record under freshest-wins semantics. Returns `false`
    /// (writing nothing) when the stored generation is at least as fresh.
    /// An accepted record is a batch of one: it lands with its own write
    /// and, with `fsync_appends` enabled, its own data sync before this
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns [`RefStoreError::TooLarge`] — before writing anything —
    /// for a payload the frame format cannot commit (recovery would
    /// treat its frame as framing corruption). Propagates write
    /// failures; on error the index is unchanged (the partially written
    /// frame, if any, is healed by the next recovery).
    pub fn append(&mut self, key: RecordKey, day: f64, payload: &[u8]) -> Result<bool> {
        check_committable(payload)?;
        if !self.index.is_fresher(&key, day) {
            return Ok(false);
        }
        // Spans only committed appends (freshness rejections write
        // nothing); includes segment rotation and any auto-compaction the
        // append triggers — that tail is real append latency to a caller.
        let mut trace = self
            .tracing
            .span_on(TraceTrack::Station(0), "refstore", "append")
            .record_into(&self.append_ns);
        trace.arg("payload_bytes", payload.len());
        trace.arg("day", day);
        self.commit(&[(key, day, payload)])?;
        Ok(true)
    }

    /// Appends a whole batch of records under freshest-wins semantics —
    /// the group-commit path. The index, accounting, and on-disk layout
    /// end up byte-identical to calling [`RefLog::append`] once per
    /// record (later batch entries supersede earlier ones of the same
    /// key; segments rotate mid-batch at the same byte boundaries), but
    /// the I/O is amortized: staged frames land with one write per
    /// segment run, with `fsync_appends` enabled the run is forced to
    /// stable storage by **one** data sync instead of one per record,
    /// and auto-compaction pumps one bounded step per batch instead of
    /// one per append. [`RefLogStats::fsyncs_issued`] proves the
    /// amortization.
    ///
    /// The commit point moves accordingly: a crash mid-batch recovers to
    /// a *prefix of whole records* of the batch (torn-tail truncation),
    /// never a partial record — per-record durability callers keep using
    /// [`RefLog::append`].
    ///
    /// Returns one accepted flag per record, in order.
    ///
    /// # Errors
    ///
    /// Returns [`RefStoreError::TooLarge`] — before writing anything —
    /// when *any* payload in the batch is uncommittable. Propagates
    /// write failures; runs already landed stay committed, the failed
    /// run installs nothing.
    pub fn append_batch(&mut self, records: &[(RecordKey, f64, &[u8])]) -> Result<Vec<bool>> {
        for (_, _, payload) in records {
            check_committable(payload)?;
        }
        let mut trace = self
            .tracing
            .span_on(TraceTrack::Station(0), "refstore", "append_batch");
        trace.arg("records", records.len());
        let accepted = self.commit(records)?;
        let committed = accepted.iter().filter(|&&kept| kept).count() as u64;
        if committed > 0 {
            self.batch_records.record(committed);
        }
        trace.arg("committed", committed);
        Ok(accepted)
    }

    /// The one write path behind [`RefLog::append`] and
    /// [`RefLog::append_batch`]. Frames every record fresher than both
    /// the index and any earlier record of the call into a staging
    /// buffer, one buffer per segment run; lands each run with a single
    /// write plus, with `fsync_appends` enabled, one data sync; then
    /// installs the run's index entries in order, so the dead-byte
    /// accounting of supersedes matches record-at-a-time appends. A
    /// failed write or sync installs nothing from its run — the partial
    /// frames are healed as a torn tail by the next recovery. After
    /// anything landed, auto-compaction pumps one bounded step and the
    /// byte gauges are published. Returns one accepted flag per record.
    fn commit(&mut self, records: &[(RecordKey, f64, &[u8])]) -> Result<Vec<bool>> {
        let mut accepted = vec![false; records.len()];
        // The run being staged for the active segment: its frames, and
        // each record's entry with the offset relative to the run start.
        let mut frames: Vec<u8> = Vec::new();
        let mut run: Vec<(RecordKey, IndexEntry)> = Vec::new();
        // Freshest staged day per key, so supersedes within the call
        // resolve exactly as sequential appends would.
        let mut staged: HashMap<RecordKey, f64> = HashMap::new();
        for (i, &(key, day, payload)) in records.iter().enumerate() {
            let fresher = match staged.get(&key) {
                Some(&staged_day) => day > staged_day,
                None => self.index.is_fresher(&key, day),
            };
            if !fresher {
                continue;
            }
            let framed = framed_len(payload.len() as u64);
            let filled = self.active.len + frames.len() as u64;
            if filled + framed > self.config.segment_max_bytes && filled > SEGMENT_HEADER_LEN {
                self.land_run(&mut frames, &mut run)?;
                self.rotate()?;
            }
            run.push((
                key,
                IndexEntry {
                    segment: self.active.id,
                    offset: frames.len() as u64,
                    framed_len: framed,
                    day,
                },
            ));
            encode_frame_into(&mut frames, key, day, payload);
            if records.len() > 1 {
                // A batch of one has nothing later to supersede.
                staged.insert(key, day);
            }
            accepted[i] = true;
        }
        if run.is_empty() {
            return Ok(accepted);
        }
        self.land_run(&mut frames, &mut run)?;
        if self.config.auto_compact {
            // Background maintenance rides the write path in bounded
            // slices, so the stall is capped by the step budget, not the
            // live-set size.
            self.maintain(self.config.compaction_step)?;
        }
        self.publish_byte_gauges();
        Ok(accepted)
    }

    /// Lands one staged run of [`RefLog::commit`] in the active segment
    /// and installs its entries (see there); a no-op for an empty run.
    fn land_run(
        &mut self,
        frames: &mut Vec<u8>,
        run: &mut Vec<(RecordKey, IndexEntry)>,
    ) -> Result<()> {
        if run.is_empty() {
            return Ok(());
        }
        self.generation += 1;
        let start = self.active.append_frame(frames)?;
        frames.clear();
        if self.config.fsync_appends {
            self.active.sync()?;
            self.fsyncs_issued += 1;
        }
        for (key, mut entry) in run.drain(..) {
            entry.offset += start;
            if let Some(old) = self.index.install(key, entry) {
                self.dead_records += 1;
                self.dead_bytes += old.framed_len;
                self.live_bytes -= old.framed_len;
                if let Some(driver) = self.driver.as_mut() {
                    // The superseded generation lives in a compaction
                    // input (writes only ever land in post-begin
                    // segments), so its bytes die with the inputs at
                    // commit.
                    if driver.is_input(old.segment) {
                        driver.freed_dead_bytes += old.framed_len;
                        driver.freed_dead_records += 1;
                    }
                }
            }
            self.live_bytes += entry.framed_len;
        }
        Ok(())
    }

    fn rotate(&mut self) -> Result<()> {
        self.generation += 1;
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        self.active = SegmentWriter::create(&self.dir, id)?;
        if self.config.fsync_appends {
            // A synced append into the new segment is only power-loss
            // durable if the segment's directory entry is too.
            sync_dir(&self.dir)?;
            self.fsyncs_issued += 1;
        }
        self.segments.push(id);
        Ok(())
    }

    fn should_compact(&self) -> bool {
        let total = self.live_bytes + self.dead_bytes;
        self.dead_bytes >= self.config.compact_min_dead_bytes
            && total > 0
            && self.dead_bytes as f64 >= self.config.compact_min_dead_fraction * total as f64
    }

    /// The capture day of the live generation of `key`, from the index
    /// alone — the scheduler's staleness probe never touches the disk.
    pub fn fresh_day(&self, key: &RecordKey) -> Option<f64> {
        self.index.get(key).map(|e| e.day)
    }

    /// Reads the live record for `key` from its segment file, via the
    /// per-segment handle cache (on platforms with positioned reads, the
    /// file is opened at most once per segment between compactions).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; returns [`RefStoreError::Corrupt`] when
    /// the committed bytes no longer pass their CRC or decode to a
    /// different key (storage decay).
    pub fn get(&self, key: &RecordKey) -> Result<Option<Record>> {
        let Some(entry) = self.index.get(key) else {
            return Ok(None);
        };
        self.read_record(key, entry).map(Some)
    }

    /// Reads and validates the record `entry` points at — the one read
    /// path, shared by [`RefLog::get`] and compaction's relocation.
    fn read_record(&self, key: &RecordKey, entry: &IndexEntry) -> Result<Record> {
        let frame = self.read_frame(entry).map_err(|e| {
            RefStoreError::Corrupt(format!(
                "live record at segment {} offset {} unreadable: {e}",
                entry.segment, entry.offset
            ))
        })?;
        let record = decode_frame(&frame)?;
        if record.key != *key {
            return Err(RefStoreError::Corrupt(
                "index entry points at a record with a different key".into(),
            ));
        }
        Ok(record)
    }

    /// Fetches one framed record — through the shared handle cache with a
    /// positioned read where available, otherwise via a fresh handle.
    #[cfg(unix)]
    fn read_frame(&self, entry: &IndexEntry) -> std::io::Result<Vec<u8>> {
        let file = self.handles.get_or_open(&self.dir, entry.segment)?;
        let mut frame = vec![0u8; entry.framed_len as usize];
        read_exact_at(&file, &mut frame, entry.offset)?;
        Ok(frame)
    }

    /// See the `unix` variant; without positioned reads a shared handle
    /// would race on its cursor, so each read opens its own.
    #[cfg(not(unix))]
    fn read_frame(&self, entry: &IndexEntry) -> std::io::Result<Vec<u8>> {
        let mut file = File::open(self.dir.join(segment_file_name(entry.segment)))?;
        file.seek(SeekFrom::Start(entry.offset))?;
        let mut frame = vec![0u8; entry.framed_len as usize];
        file.read_exact(&mut frame)?;
        Ok(frame)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no key is live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// All live keys, sorted (deterministic across backends and restarts).
    pub fn keys(&self) -> Vec<RecordKey> {
        self.index.keys_sorted()
    }

    /// All live `(key, entry)` pairs sorted by key — the material of the
    /// byte-identity assertions in the recovery tests.
    pub fn index_entries(&self) -> Vec<(RecordKey, IndexEntry)> {
        self.index.entries_sorted()
    }

    /// Payload bytes of the live generation of `key`, without reading the
    /// file (derived from the frame length).
    pub fn payload_len(&self, key: &RecordKey) -> Option<u64> {
        self.index.get(key).map(IndexEntry::payload_len)
    }

    /// Iterates live `(key, entry)` pairs in arbitrary order (no sort,
    /// no allocation) — for whole-store accounting such as a backend's
    /// logical size model.
    pub fn entries(&self) -> impl Iterator<Item = (&RecordKey, &IndexEntry)> {
        self.index.iter()
    }

    /// Current accounting.
    pub fn stats(&self) -> RefLogStats {
        RefLogStats {
            segments: self.segments.len() as u64,
            live_records: self.index.len() as u64,
            dead_records: self.dead_records,
            live_bytes: self.live_bytes,
            dead_bytes: self.dead_bytes,
            compactions: self.compactions,
            compaction_steps: self.compaction_steps,
            max_step_copied_bytes: self.max_step_copied_bytes,
            handle_cache_hits: self.handles.hits.value(),
            handle_cache_misses: self.handles.misses.value(),
            fsyncs_issued: self.fsyncs_issued,
        }
    }

    /// Total bytes of all referenced segment files on disk.
    ///
    /// # Errors
    ///
    /// Propagates metadata failures.
    pub fn disk_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for &id in &self.segments {
            total += std::fs::metadata(self.dir.join(segment_file_name(id)))?.len();
        }
        Ok(total)
    }

    /// Forces the active segment onto stable storage.
    ///
    /// # Errors
    ///
    /// Propagates `fsync` failures.
    pub fn sync(&mut self) -> Result<()> {
        self.active.sync()?;
        self.fsyncs_issued += 1;
        Ok(())
    }

    /// Rewrites live records into fresh segments (key order), swaps the
    /// manifest atomically, and deletes the retired segments. Drops every
    /// superseded reference generation. This *is* the snapshot mechanism:
    /// the compacted segments plus the manifest are a consistent
    /// point-in-time image that replay can start from.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures. If the failure happens before the
    /// manifest rename, the store is unchanged — in memory too, so the
    /// engine keeps running on the old segments (the partially written
    /// new ones are reclaimed via replay-and-recompact, see the module
    /// docs); after the rename, the retired segments are swept instead.
    pub fn compact(&mut self) -> Result<()> {
        let mut trace = self
            .tracing
            .span_on(TraceTrack::Station(0), "refstore", "compact")
            .record_into(&self.compaction_ns);
        trace.arg("reclaimable_bytes", self.dead_bytes);
        trace.arg("live_records", self.index.len());
        self.begin_compaction()?;
        while !self
            .compaction_step(CompactionBudget::unbounded())?
            .finished
        {}
        Ok(())
    }

    /// Starts an incremental compaction: seals the active segment (so
    /// every index entry points into a sealed *input* segment that
    /// appends can no longer touch) and snapshots the live index in key
    /// order. A no-op when a driver is already in progress.
    ///
    /// # Errors
    ///
    /// Propagates the rotation I/O failure; no driver is started.
    pub(crate) fn begin_compaction(&mut self) -> Result<()> {
        if self.driver.is_some() {
            return Ok(());
        }
        if self.active.len > SEGMENT_HEADER_LEN {
            self.rotate()?;
        }
        let active = self.active.id;
        let inputs: Vec<u64> = self
            .segments
            .iter()
            .copied()
            .filter(|&id| id != active)
            .collect();
        self.driver = Some(CompactionDriver {
            inputs,
            snapshot: self.index.entries_sorted(),
            cursor: 0,
            writer: None,
            outputs: Vec::new(),
            relocations: Vec::new(),
            // Every dead byte at begin lives in an input (the post-begin
            // active is empty), so the whole current dead set dies with
            // the inputs at commit. Writes that supersede an input entry
            // while the driver runs add to this (see `land_run`).
            freed_dead_bytes: self.dead_bytes,
            freed_dead_records: self.dead_records,
        });
        Ok(())
    }

    /// Runs one slice of background maintenance regardless of the
    /// `auto_compact` setting: pumps the in-progress driver, or begins a
    /// compaction when the dead-byte thresholds have tripped. Returns
    /// `None` when there is nothing to do — callers can pump this at
    /// idle points (e.g. contact-pass boundaries) without paying for the
    /// threshold check twice.
    ///
    /// # Errors
    ///
    /// Propagates step I/O failures (the driver is abandoned, see
    /// [`compaction_step`](RefLog::compaction_step)).
    pub fn maintain(&mut self, budget: CompactionBudget) -> Result<Option<CompactionStepReport>> {
        if self.driver.is_none() && !self.should_compact() {
            return Ok(None);
        }
        self.begin_compaction()?;
        Ok(Some(self.compaction_step(budget)?))
    }

    /// Runs one bounded slice of the in-progress compaction: relocates
    /// live records until `budget` is exhausted (always at least one),
    /// committing — manifest swap, relocation install, input sweep — when
    /// the snapshot is drained. Returns `finished: true` (and zero work)
    /// when no compaction is in progress.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and abandons the driver: the engine keeps
    /// running on the old segment set and the partial outputs are
    /// reclaimed like an interrupted stop-the-world compaction.
    pub fn compaction_step(&mut self, budget: CompactionBudget) -> Result<CompactionStepReport> {
        let Some(mut driver) = self.driver.take() else {
            return Ok(CompactionStepReport {
                finished: true,
                ..CompactionStepReport::default()
            });
        };
        self.generation += 1;
        // The step reports its own time, so its span always reads the clock.
        let mut trace = self
            .tracing
            .span_on(TraceTrack::Station(0), "refstore", "compaction_step")
            .timed();
        let mut report = CompactionStepReport::default();
        // An error drops `driver` here: outputs become unlisted
        // higher-id files that the next open replays benignly (losing
        // every equal-day tie to the originals) and then sweeps.
        report.finished = self.drive_step(&mut driver, budget, &trace, &mut report)?;
        if !report.finished {
            self.driver = Some(driver);
        }
        trace.arg("copied_bytes", report.copied_bytes);
        trace.arg("finished", report.finished);
        report.step_ns = trace.finish().as_nanos().min(u64::MAX as u128) as u64;
        self.step_ns.record(report.step_ns);
        self.steps.inc();
        self.compaction_steps += 1;
        self.max_step_copied_bytes = self.max_step_copied_bytes.max(report.copied_bytes);
        Ok(report)
    }

    /// The relocation loop of one step. Returns whether it committed.
    fn drive_step(
        &mut self,
        driver: &mut CompactionDriver,
        budget: CompactionBudget,
        span: &TraceSpan,
        report: &mut CompactionStepReport,
    ) -> Result<bool> {
        loop {
            if driver.cursor >= driver.snapshot.len() {
                self.commit_compaction(driver)?;
                return Ok(true);
            }
            let (key, old) = driver.snapshot[driver.cursor];
            driver.cursor += 1;
            if self.index.get(&key) != Some(&old) {
                // A concurrent append superseded this generation after
                // the snapshot; its bytes die with the inputs.
                report.skipped_records += 1;
                continue;
            }
            let record = self.read_record(&key, &old)?;
            let frame = encode_frame(key, record.day, &record.payload);
            let rotate = driver.writer.as_ref().is_none_or(|w| {
                w.len + frame.len() as u64 > self.config.segment_max_bytes
                    && w.len > SEGMENT_HEADER_LEN
            });
            if rotate {
                if let Some(mut w) = driver.writer.take() {
                    w.sync()?;
                    self.fsyncs_issued += 1;
                }
                let id = self.next_segment_id;
                self.next_segment_id += 1;
                driver.writer = Some(SegmentWriter::create(&self.dir, id)?);
                driver.outputs.push(id);
            }
            let w = driver.writer.as_mut().expect("writer just ensured");
            let offset = w.append_frame(&frame)?;
            driver.relocations.push((
                key,
                old,
                IndexEntry {
                    segment: w.id,
                    offset,
                    framed_len: frame.len() as u64,
                    day: record.day,
                },
            ));
            report.copied_records += 1;
            report.copied_bytes += frame.len() as u64;
            if report.copied_bytes >= budget.max_bytes
                || span.elapsed().as_micros() as u64 >= budget.max_micros
            {
                return Ok(false);
            }
        }
    }

    /// The final slice of an incremental compaction: sync outputs, swap
    /// the manifest atomically, install the relocations that are still
    /// current, re-baseline the dead accounting, and sweep the inputs.
    fn commit_compaction(&mut self, driver: &mut CompactionDriver) -> Result<()> {
        if let Some(w) = driver.writer.as_mut() {
            w.sync()?;
            self.fsyncs_issued += 1;
        }
        if self.config.fsync_appends {
            // The output segments' directory entries must be durable
            // *before* the manifest commits to them: a power loss between
            // the two must never leave a manifest pointing at unlinked
            // files.
            sync_dir(&self.dir)?;
            self.fsyncs_issued += 1;
        }
        // Keep everything appends created since begin (the post-begin
        // active and its rotations) plus the outputs.
        let mut live_segments: Vec<u64> = self
            .segments
            .iter()
            .copied()
            .filter(|&id| !driver.is_input(id))
            .collect();
        live_segments.extend(&driver.outputs);
        live_segments.sort_unstable();

        // Commit point: atomically swap the manifest. `self` is untouched
        // up to here (bar fresh segment ids), so an error above leaves
        // the engine running on the old segments.
        Manifest {
            live_segments: live_segments.clone(),
            next_segment_id: self.next_segment_id,
        }
        .store(&self.dir, self.config.fsync_appends)?;

        // Install relocations whose generation is still live; a copy a
        // concurrent append superseded stays on disk as dead-on-arrival
        // output bytes until the next compaction.
        let mut doa_bytes = 0u64;
        let mut doa_records = 0u64;
        for (key, old, new) in driver.relocations.drain(..) {
            if self.index.get(&key) == Some(&old) {
                self.index.install(key, new);
            } else {
                doa_bytes += new.framed_len;
                doa_records += 1;
            }
        }
        self.dead_bytes = self.dead_bytes - driver.freed_dead_bytes + doa_bytes;
        self.dead_records = self.dead_records - driver.freed_dead_records + doa_records;
        self.segments = live_segments;
        self.compactions += 1;

        // Sweep the inputs, which the new manifest no longer lists
        // (idempotent; redone as an orphan sweep on next open if we crash
        // or fail here), dropping their cached read handles first.
        self.handles.clear();
        self.publish_byte_gauges();
        for &id in &driver.inputs {
            std::fs::remove_file(self.dir.join(segment_file_name(id)))?;
        }
        if self.config.fsync_appends {
            // Retirement durability: without this, a power loss can
            // resurrect deleted segments. Recovery would sweep them as
            // manifest orphans anyway, so this sync only tightens the
            // window, but at this durability level the caller asked for
            // the disk to match the committed state.
            sync_dir(&self.dir)?;
            self.fsyncs_issued += 1;
        }
        Ok(())
    }
}

/// Refuses a payload whose frame recovery could not tell from framing
/// corruption.
fn check_committable(payload: &[u8]) -> Result<()> {
    if BODY_FIXED_LEN + payload.len() as u64 > MAX_BODY_LEN {
        return Err(RefStoreError::TooLarge(payload.len() as u64));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_raster::{Band, LocationId, PlanetBand};

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "earthplus-refstore-log-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(loc: u32) -> RecordKey {
        (LocationId(loc), Band::Planet(PlanetBand::Red))
    }

    fn no_autocompact() -> RefLogConfig {
        RefLogConfig {
            auto_compact: false,
            ..RefLogConfig::default()
        }
    }

    #[test]
    fn append_get_round_trip_and_freshest_wins() {
        let dir = test_dir("roundtrip");
        let (mut log, report) = RefLog::open(&dir, RefLogConfig::default()).unwrap();
        assert!(report.clean());
        assert!(!report.manifest_loaded);
        assert!(log.append(key(0), 5.0, b"gen5").unwrap());
        assert!(!log.append(key(0), 3.0, b"gen3").unwrap(), "stale rejected");
        assert!(
            !log.append(key(0), 5.0, b"gen5b").unwrap(),
            "equal rejected"
        );
        assert!(log.append(key(0), 9.0, b"gen9").unwrap());
        let record = log.get(&key(0)).unwrap().unwrap();
        assert_eq!(record.day, 9.0);
        assert_eq!(record.payload, b"gen9");
        assert_eq!(log.len(), 1);
        assert_eq!(log.stats().dead_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_replays_to_identical_index() {
        let dir = test_dir("replay");
        let (mut log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        for loc in 0..20u32 {
            for day in [1.0, 2.0] {
                log.append(key(loc), day, format!("{loc}@{day}").as_bytes())
                    .unwrap();
            }
        }
        let before = log.index_entries();
        let stats_before = log.stats();
        drop(log);
        let (log, report) = RefLog::open(&dir, no_autocompact()).unwrap();
        assert!(report.clean());
        assert_eq!(report.live_records, 20);
        assert_eq!(report.superseded_records, 20);
        assert_eq!(
            log.index_entries(),
            before,
            "replayed index must be identical"
        );
        assert_eq!(log.stats().dead_bytes, stats_before.dead_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_rotation_spreads_records() {
        let dir = test_dir("rotate");
        let config = RefLogConfig {
            segment_max_bytes: 256,
            auto_compact: false,
            ..RefLogConfig::default()
        };
        let (mut log, _) = RefLog::open(&dir, config).unwrap();
        for loc in 0..32u32 {
            log.append(key(loc), 1.0, &[0u8; 48]).unwrap();
        }
        assert!(log.stats().segments > 1, "rotation must have happened");
        // Every record still readable after rotation.
        for loc in 0..32u32 {
            assert!(log.get(&key(loc)).unwrap().is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_superseded_generations_and_survives_reopen() {
        let dir = test_dir("compact");
        let (mut log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        for generation in 0..10 {
            for loc in 0..8u32 {
                log.append(key(loc), generation as f64, &[generation as u8; 64])
                    .unwrap();
            }
        }
        let disk_before = log.disk_bytes().unwrap();
        log.compact().unwrap();
        assert_eq!(log.stats().dead_bytes, 0);
        assert_eq!(log.len(), 8);
        assert!(log.disk_bytes().unwrap() < disk_before / 4);
        for loc in 0..8u32 {
            assert_eq!(log.get(&key(loc)).unwrap().unwrap().day, 9.0);
        }
        // Reopen: manifest-directed replay, same content.
        let entries = log.index_entries();
        drop(log);
        let (log, report) = RefLog::open(&dir, no_autocompact()).unwrap();
        assert!(report.manifest_loaded);
        assert_eq!(log.index_entries(), entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_compaction_duplicates_replay_benignly() {
        let dir = test_dir("interrupted");
        let (mut log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        for loc in 0..4u32 {
            log.append(key(loc), 2.0, &[9u8; 24]).unwrap();
        }
        let entries = log.index_entries();
        drop(log);
        // Simulate a compaction that crashed after writing its output
        // segment but before the manifest rename: a fresh higher-id
        // segment holding a copy of every live record.
        let mut writer = SegmentWriter::create(&dir, 7).unwrap();
        for loc in 0..4u32 {
            writer
                .append_frame(&encode_frame(key(loc), 2.0, &[9u8; 24]))
                .unwrap();
        }
        writer.sync().unwrap();
        drop(writer);
        let (mut log, report) = RefLog::open(&dir, no_autocompact()).unwrap();
        assert_eq!(
            log.index_entries(),
            entries,
            "originals replay first and win every equal-day tie"
        );
        assert_eq!(
            report.superseded_records, 4,
            "the duplicates are counted as reclaimable dead records"
        );
        log.compact().unwrap();
        assert_eq!(log.stats().dead_bytes, 0);
        assert_eq!(log.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compaction_triggers_on_dead_fraction() {
        let dir = test_dir("auto");
        let config = RefLogConfig {
            compact_min_dead_bytes: 1024,
            compact_min_dead_fraction: 0.5,
            ..RefLogConfig::default()
        };
        let (mut log, _) = RefLog::open(&dir, config).unwrap();
        for generation in 0..50 {
            log.append(key(0), generation as f64, &[0u8; 256]).unwrap();
        }
        assert!(log.stats().compactions > 0, "auto-compaction never ran");
        assert_eq!(log.get(&key(0)).unwrap().unwrap().day, 49.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_compacts_and_reopens() {
        let dir = test_dir("empty");
        let (mut log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        log.compact().unwrap();
        assert!(log.is_empty());
        drop(log);
        let (log, report) = RefLog::open(&dir, no_autocompact()).unwrap();
        assert!(log.is_empty());
        assert!(report.manifest_loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_append_is_rejected_before_writing() {
        let dir = test_dir("toolarge");
        let (mut log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        // Allocated but never touched: the append must bounce off the
        // size check before encoding a frame.
        let payload = vec![0u8; (MAX_BODY_LEN - BODY_FIXED_LEN + 1) as usize];
        assert!(matches!(
            log.append(key(0), 1.0, &payload),
            Err(RefStoreError::TooLarge(_))
        ));
        assert!(log.is_empty());
        assert_eq!(log.active.len, SEGMENT_HEADER_LEN, "nothing was written");
        assert!(log.append(key(0), 1.0, b"still usable").unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_corrupt_bytes_count_as_dead_and_compact_away() {
        let dir = test_dir("corruptdead");
        let (mut log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        for loc in 0..3u32 {
            log.append(key(loc), 1.0, &[7u8; 32]).unwrap();
        }
        drop(log);
        let framed = crate::record::framed_len(32);
        let path = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let middle_last_byte = (SEGMENT_HEADER_LEN + 2 * framed - 1) as usize;
        bytes[middle_last_byte] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (mut log, report) = RefLog::open(&dir, no_autocompact()).unwrap();
        assert_eq!(report.corrupt_records_dropped, 1);
        assert_eq!(log.len(), 2);
        let stats = log.stats();
        assert_eq!(
            stats.dead_bytes, framed,
            "the corrupt gap must be accounted as reclaimable dead bytes"
        );
        assert_eq!(
            stats.live_bytes + stats.dead_bytes,
            log.disk_bytes().unwrap() - SEGMENT_HEADER_LEN,
            "accounting must reconcile with the file"
        );
        log.compact().unwrap();
        assert_eq!(log.stats().dead_bytes, 0);
        assert_eq!(log.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_path_caches_segment_handles() {
        let dir = test_dir("handles");
        let (mut log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        for loc in 0..6u32 {
            log.append(key(loc), 1.0, &[loc as u8; 32]).unwrap();
        }
        for _ in 0..3 {
            for loc in 0..6u32 {
                assert!(log.get(&key(loc)).unwrap().is_some());
            }
        }
        let stats = log.stats();
        if cfg!(unix) {
            assert_eq!(
                stats.handle_cache_misses, 1,
                "all records share one segment: one open"
            );
            assert_eq!(stats.handle_cache_hits, 17, "subsequent reads reuse it");
        }
        // Compaction retires the segment files; reads must reopen (and
        // still succeed) afterwards.
        for loc in 0..6u32 {
            log.append(key(loc), 2.0, &[loc as u8; 32]).unwrap();
        }
        log.compact().unwrap();
        for loc in 0..6u32 {
            assert_eq!(log.get(&key(loc)).unwrap().unwrap().day, 2.0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attached_telemetry_records_replay_appends_and_compactions() {
        use earthplus_telemetry::MetricsRegistry;
        let dir = test_dir("telemetry");
        let registry = MetricsRegistry::new();
        let (mut log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        log.attach_telemetry(&registry.sink());
        for loc in 0..5u32 {
            log.append(key(loc), 1.0, &[loc as u8; 32]).unwrap();
        }
        assert!(!log.append(key(0), 0.5, b"stale").unwrap());
        log.compact().unwrap();
        let s = registry.snapshot();
        assert_eq!(
            s.histogram(names::REFSTORE_REPLAY_NS).unwrap().count,
            1,
            "one open, one replay sample"
        );
        assert_eq!(
            s.histogram(names::REFSTORE_APPEND_NS).unwrap().count,
            5,
            "freshness rejections write nothing and are not spanned"
        );
        assert_eq!(s.histogram(names::REFSTORE_COMPACTION_NS).unwrap().count, 1);
        // Reopening through the same sink contributes a second replay
        // sample to the shared histogram.
        drop(log);
        let (mut reopened, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        reopened.attach_telemetry(&registry.sink());
        let s = registry.snapshot();
        assert_eq!(s.histogram(names::REFSTORE_REPLAY_NS).unwrap().count, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_appends_path_covers_rotation_compaction_and_reopen() {
        // Exercises every directory-fsync site (initial segment creation,
        // rotation, pre-manifest sync, manifest rename, retirement sweep)
        // under the power-loss durability knob; the store must behave
        // identically to the non-synced configuration.
        let dir = test_dir("fsyncdirs");
        let config = RefLogConfig {
            segment_max_bytes: 256,
            fsync_appends: true,
            auto_compact: false,
            ..RefLogConfig::default()
        };
        let (mut log, _) = RefLog::open(&dir, config).unwrap();
        for generation in 0..4 {
            for loc in 0..8u32 {
                log.append(key(loc), generation as f64, &[generation as u8; 48])
                    .unwrap();
            }
        }
        assert!(log.stats().segments > 1, "rotation must have happened");
        log.compact().unwrap();
        assert_eq!(log.stats().dead_bytes, 0);
        let entries = log.index_entries();
        drop(log);
        let (log, report) = RefLog::open(&dir, config).unwrap();
        assert!(report.clean());
        assert!(report.manifest_loaded);
        assert_eq!(log.index_entries(), entries);
        for loc in 0..8u32 {
            assert_eq!(log.get(&key(loc)).unwrap().unwrap().day, 3.0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_compaction_bounds_each_step() {
        let dir = test_dir("stepbudget");
        let (mut log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        for generation in 0..4 {
            for loc in 0..32u32 {
                log.append(key(loc), generation as f64, &[generation as u8; 64])
                    .unwrap();
            }
        }
        let framed = crate::record::framed_len(64);
        let budget = CompactionBudget {
            max_bytes: 3 * framed,
            max_micros: u64::MAX,
        };
        log.begin_compaction().unwrap();
        let mut steps: u64 = 0;
        loop {
            let report = log.compaction_step(budget).unwrap();
            assert!(
                report.copied_bytes <= budget.max_bytes,
                "a step must stop at its byte budget"
            );
            steps += 1;
            if report.finished {
                break;
            }
            // Appends land between steps without blocking on the rewrite.
            assert!(log
                .append(key(steps as u32), 100.0 + steps as f64, &[1u8; 64])
                .unwrap());
        }
        assert!(steps > 32 / 3, "the rewrite must actually have been sliced");
        let stats = log.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.compaction_steps, steps);
        assert!(stats.max_step_copied_bytes <= budget.max_bytes);
        for loc in 0..32u32 {
            let expect = if (loc as u64) < steps && loc > 0 {
                100.0 + loc as f64
            } else {
                3.0
            };
            assert_eq!(log.get(&key(loc)).unwrap().unwrap().day, expect);
        }
        // The committed state replays identically.
        let entries = log.index_entries();
        drop(log);
        let (log, report) = RefLog::open(&dir, no_autocompact()).unwrap();
        assert!(report.manifest_loaded);
        assert_eq!(log.index_entries(), entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_moves_exactly_when_files_may_change() {
        let dir = test_dir("generation");
        let config = RefLogConfig {
            segment_max_bytes: 512,
            compact_min_dead_bytes: 1,
            compact_min_dead_fraction: 0.0,
            ..no_autocompact()
        };
        let (mut log, _) = RefLog::open(&dir, config).unwrap();
        let mut last = log.generation();
        let mut step = |log: &RefLog, moved: bool, what: &str| {
            let now = log.generation();
            assert_eq!(now != last, moved, "{what}: generation {last} -> {now}");
            last = now;
        };
        assert!(log.append(key(0), 1.0, &[1u8; 64]).unwrap());
        step(&log, true, "append");
        assert!(!log.append(key(0), 1.0, &[2u8; 64]).unwrap());
        step(&log, false, "rejected append");
        let batch: Vec<(RecordKey, f64, &[u8])> =
            (1..8u32).map(|l| (key(l), 2.0, &[3u8; 64][..])).collect();
        log.append_batch(&batch).unwrap();
        step(&log, true, "batch spanning rotations");
        assert!(log.stats().segments > 1, "the batch must have rotated");
        log.append_batch(&[(key(0), 0.5, &[4u8; 64][..])]).unwrap();
        step(&log, false, "batch with nothing fresher");
        log.get(&key(3)).unwrap();
        log.sync().unwrap();
        step(&log, false, "read and sync");
        assert!(log.append(key(0), 9.0, &[5u8; 64]).unwrap());
        step(&log, true, "superseding append");
        let budget = CompactionBudget {
            max_bytes: 1,
            max_micros: u64::MAX,
        };
        while !log.maintain(budget).unwrap().expect("dead bytes").finished {
            step(&log, true, "compaction step");
        }
        step(&log, true, "compaction commit");
        assert!(log.maintain(budget).unwrap().is_none());
        step(&log, false, "idle maintain");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_during_compaction_wins_over_relocated_copy() {
        let dir = test_dir("stepsupersede");
        let (mut log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        for loc in 0..8u32 {
            log.append(key(loc), 1.0, &[3u8; 64]).unwrap();
        }
        let framed = crate::record::framed_len(64);
        log.begin_compaction().unwrap();
        // Relocate keys 0..2, then supersede one already-relocated key
        // (dead-on-arrival copy) and one not-yet-relocated key (skipped).
        let budget = CompactionBudget {
            max_bytes: 2 * framed,
            max_micros: u64::MAX,
        };
        assert_eq!(log.compaction_step(budget).unwrap().copied_records, 2);
        assert!(log.append(key(0), 9.0, &[9u8; 64]).unwrap());
        assert!(log.append(key(5), 9.0, &[9u8; 64]).unwrap());
        let mut skipped = 0;
        loop {
            let report = log.compaction_step(budget).unwrap();
            skipped += report.skipped_records;
            if report.finished {
                break;
            }
        }
        assert_eq!(skipped, 1, "the not-yet-relocated supersede is skipped");
        assert_eq!(log.get(&key(0)).unwrap().unwrap().day, 9.0);
        assert_eq!(log.get(&key(5)).unwrap().unwrap().day, 9.0);
        let stats = log.stats();
        assert_eq!(
            stats.dead_bytes, framed,
            "only the dead-on-arrival relocated copy of key 0 remains"
        );
        // Accounting reconciles with the files.
        let overhead = stats.segments * SEGMENT_HEADER_LEN;
        assert_eq!(
            stats.live_bytes + stats.dead_bytes + overhead,
            log.disk_bytes().unwrap()
        );
        let entries = log.index_entries();
        drop(log);
        let (log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        assert_eq!(log.index_entries(), entries, "replay agrees after commit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compaction_pumps_bounded_steps_on_appends() {
        let dir = test_dir("autopump");
        let config = RefLogConfig {
            compact_min_dead_bytes: 1024,
            compact_min_dead_fraction: 0.5,
            compaction_step: CompactionBudget {
                max_bytes: 64,
                max_micros: u64::MAX,
            },
            ..RefLogConfig::default()
        };
        let (mut log, _) = RefLog::open(&dir, config).unwrap();
        for generation in 0..40 {
            for loc in 0..4u32 {
                log.append(key(loc), generation as f64, &[0u8; 256])
                    .unwrap();
            }
        }
        // Drain whatever is still mid-flight so the assertions see a
        // quiesced store.
        while log.driver.is_some() {
            log.compaction_step(config.compaction_step).unwrap();
        }
        let stats = log.stats();
        assert!(stats.compactions > 0, "auto-compaction never committed");
        assert!(
            stats.compaction_steps > stats.compactions,
            "the rewrite must have been sliced across appends"
        );
        assert_eq!(
            stats.max_step_copied_bytes,
            crate::record::framed_len(256),
            "one record per step under a sub-frame budget"
        );
        for loc in 0..4u32 {
            assert_eq!(log.get(&key(loc)).unwrap().unwrap().day, 39.0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_batch_matches_sequential_appends_exactly() {
        // The same stream — with within-batch supersedes, stale entries,
        // and segment rotation — through `append` and `append_batch` must
        // produce identical accepted flags, index, accounting, and
        // on-disk bytes.
        let seq_dir = test_dir("batchseq");
        let grp_dir = test_dir("batchgrp");
        let config = RefLogConfig {
            segment_max_bytes: 256,
            auto_compact: false,
            ..RefLogConfig::default()
        };
        let stream: Vec<(RecordKey, f64, Vec<u8>)> = (0..48u32)
            .map(|i| (key(i % 7), ((i * 37) % 13) as f64, vec![i as u8; 48]))
            .collect();
        let (mut seq, _) = RefLog::open(&seq_dir, config).unwrap();
        let mut seq_flags = Vec::new();
        for (k, day, payload) in &stream {
            seq_flags.push(seq.append(*k, *day, payload).unwrap());
        }
        let (mut grp, _) = RefLog::open(&grp_dir, config).unwrap();
        let records: Vec<(RecordKey, f64, &[u8])> = stream
            .iter()
            .map(|(k, d, p)| (*k, *d, p.as_slice()))
            .collect();
        let grp_flags = grp.append_batch(&records).unwrap();
        assert_eq!(grp_flags, seq_flags, "accept decisions must agree");
        assert!(grp_flags.iter().any(|&a| !a), "stream must exercise stale");
        assert_eq!(grp.index_entries(), seq.index_entries());
        assert_eq!(grp.stats(), seq.stats());
        let seq_segments = list_segments(&seq_dir).unwrap();
        let grp_segments = list_segments(&grp_dir).unwrap();
        assert_eq!(seq_segments.len(), grp_segments.len());
        assert!(seq_segments.len() > 1, "rotation must have happened");
        for ((_, a), (_, b)) in seq_segments.iter().zip(&grp_segments) {
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "segment files must be byte-identical"
            );
        }
        let _ = std::fs::remove_dir_all(&seq_dir);
        let _ = std::fs::remove_dir_all(&grp_dir);
    }

    #[test]
    fn append_batch_amortizes_fsyncs_to_one_per_segment_run() {
        let single_dir = test_dir("fsyncsingle");
        let batch_dir = test_dir("fsyncbatch");
        let config = RefLogConfig {
            fsync_appends: true,
            auto_compact: false,
            ..RefLogConfig::default()
        };
        let n = 16u64;
        let payload = [7u8; 64];
        let (mut single, _) = RefLog::open(&single_dir, config).unwrap();
        for loc in 0..n {
            single.append(key(loc as u32), 1.0, &payload).unwrap();
        }
        let per_append = single.stats().fsyncs_issued;
        assert_eq!(per_append, 1 + n, "initial dir sync + one sync per append");
        let (mut batch, _) = RefLog::open(&batch_dir, config).unwrap();
        let records: Vec<(RecordKey, f64, &[u8])> = (0..n)
            .map(|loc| (key(loc as u32), 1.0, payload.as_slice()))
            .collect();
        assert!(batch.append_batch(&records).unwrap().iter().all(|&a| a));
        let grouped = batch.stats().fsyncs_issued;
        assert_eq!(grouped, 2, "initial dir sync + one group commit");
        assert!(
            per_append / grouped >= n / 2,
            "group commit must amortize by at least the batch factor \
             ({per_append} vs {grouped} syncs for {n} records)"
        );
        // A batch of nothing but stale records issues no sync at all.
        let before = batch.stats().fsyncs_issued;
        assert!(batch.append_batch(&records).unwrap().iter().all(|&a| !a));
        assert_eq!(batch.stats().fsyncs_issued, before);
        let _ = std::fs::remove_dir_all(&single_dir);
        let _ = std::fs::remove_dir_all(&batch_dir);
    }

    #[test]
    fn append_batch_rejects_oversized_payload_before_writing() {
        let dir = test_dir("batchtoolarge");
        let (mut log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        let oversized = vec![0u8; (MAX_BODY_LEN - BODY_FIXED_LEN + 1) as usize];
        let records: Vec<(RecordKey, f64, &[u8])> = vec![
            (key(0), 1.0, b"fine".as_slice()),
            (key(1), 1.0, oversized.as_slice()),
        ];
        assert!(matches!(
            log.append_batch(&records),
            Err(RefStoreError::TooLarge(_))
        ));
        assert!(log.is_empty(), "nothing before the bad record lands");
        assert_eq!(log.active.len, SEGMENT_HEADER_LEN, "nothing was written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_len_matches_without_disk_read() {
        let dir = test_dir("payloadlen");
        let (mut log, _) = RefLog::open(&dir, no_autocompact()).unwrap();
        log.append(key(0), 1.0, &[0u8; 123]).unwrap();
        assert_eq!(log.payload_len(&key(0)), Some(123));
        assert_eq!(log.payload_len(&key(1)), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
