//! Golden pin of everything one `RefLog` writes and reports for a fixed
//! seeded stream.
//!
//! The stream mixes single `append`s and `append_batch`es (with
//! within-batch supersedes and stale records), one `TooLarge` rejection
//! on each path, and enough bytes to rotate segments. The log runs with
//! `fsync_appends` on and auto-compaction on under a small step budget,
//! so bounded compaction steps interleave with the writes; an explicit
//! `compact()` and a reopen follow.
//!
//! One FNV-1a hash covers, at each checkpoint: the segment and manifest
//! bytes, `index_entries()`, every accepted flag, the records `get`
//! returns, `stats()`, the `RecoveryReport`, the registry's
//! `refstore.append_ns` count and `refstore.append.batch_records` count
//! and sum, and the refstore trace events (name, phase, arguments).
//! `stats().handle_cache_{hits,misses}` are left out on purpose: they
//! count opens of the read-path handle cache, and which internal readers
//! share that cache is not part of the store's contract.

use earthplus_raster::{Band, LocationId, PlanetBand, Sentinel2Band};
use earthplus_refstore::{
    CompactionBudget, RecordKey, RecoveryReport, RefLog, RefLogConfig, RefStoreError,
};
use earthplus_telemetry::{names, FlightRecorder, MetricsRegistry, TraceEventKind};
use std::path::{Path, PathBuf};

/// The pinned hash. A change to it is a change to the bytes the store
/// writes, the decisions it takes or the telemetry it reports.
const GOLDEN: u64 = 0x311a_bce5_b531_3c51;

/// Deterministic splitmix64 PRNG.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in [lo, hi].
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// FNV-1a over everything fed to it.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn key(rng: &mut Rng) -> RecordKey {
    let band = match rng.range(0, 1) {
        0 => Band::Planet(PlanetBand::Red),
        _ => Band::Sentinel2(Sentinel2Band::ALL[3]),
    };
    (LocationId(rng.range(0, 8) as u32), band)
}

/// A record whose day is fresh, stale or tied often enough to exercise
/// every freshness outcome.
fn record(rng: &mut Rng) -> (RecordKey, f64, Vec<u8>) {
    let key = key(rng);
    let day = rng.range(0, 24) as f64 * 0.5;
    let len = rng.range(8, 72) as usize;
    let fill = rng.next_u64() as u8;
    let payload = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
    (key, day, payload)
}

fn hash_dir(h: &mut Fnv, dir: &Path) {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    for path in files {
        h.str(path.file_name().unwrap().to_str().unwrap());
        h.bytes(&std::fs::read(&path).unwrap());
    }
}

fn hash_state(h: &mut Fnv, log: &RefLog) {
    hash_dir(h, log.dir());
    for ((location, band), entry) in log.index_entries() {
        h.str(&format!("{location:?}{band:?}"));
        h.u64(entry.segment);
        h.u64(entry.offset);
        h.u64(entry.framed_len);
        h.f64(entry.day);
        let record = log.get(&(location, band)).unwrap().unwrap();
        h.f64(record.day);
        h.bytes(&record.payload);
    }
    let s = log.stats();
    for v in [
        s.segments,
        s.live_records,
        s.dead_records,
        s.live_bytes,
        s.dead_bytes,
        s.compactions,
        s.compaction_steps,
        s.max_step_copied_bytes,
        s.fsyncs_issued,
    ] {
        h.u64(v);
    }
}

fn hash_report(h: &mut Fnv, r: &RecoveryReport) {
    for v in [
        r.segments_scanned,
        r.live_records,
        r.superseded_records,
        r.corrupt_records_dropped,
        r.truncated_bytes,
        r.orphan_segments,
        r.manifest_loaded as u64,
    ] {
        h.u64(v);
    }
}

fn run_stream(dir: &Path) -> u64 {
    let config = RefLogConfig {
        segment_max_bytes: 640,
        auto_compact: true,
        compact_min_dead_bytes: 256,
        compact_min_dead_fraction: 0.3,
        fsync_appends: true,
        compaction_step: CompactionBudget {
            max_bytes: 160,
            max_micros: u64::MAX,
        },
    };
    let registry = MetricsRegistry::new();
    let recorder = FlightRecorder::new();
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    let mut rng = Rng(0x5EED_0037);

    let (mut log, report) = RefLog::open(dir, config).unwrap();
    log.attach_telemetry(&registry.sink());
    log.attach_tracing(&recorder.sink());
    hash_report(&mut h, &report);

    // 1 << 28 is the largest frame body: this payload cannot be framed.
    let oversized = vec![0u8; 1 << 28];
    for round in 0..64u32 {
        if round == 21 {
            let err = log.append(key(&mut rng), 99.0, &oversized).unwrap_err();
            assert!(matches!(err, RefStoreError::TooLarge(_)));
            h.u64(0xDEAD);
        } else if round == 42 {
            let (k, day, payload) = record(&mut rng);
            let batch = [(k, day, payload.as_slice()), (k, 99.0, &oversized[..])];
            let err = log.append_batch(&batch).unwrap_err();
            assert!(matches!(err, RefStoreError::TooLarge(_)));
            h.u64(0xBEEF);
        } else if rng.range(0, 2) == 0 {
            let (k, day, payload) = record(&mut rng);
            h.u64(log.append(k, day, &payload).unwrap() as u64);
        } else {
            let mut records: Vec<(RecordKey, f64, Vec<u8>)> =
                (0..rng.range(1, 9)).map(|_| record(&mut rng)).collect();
            // A within-batch supersede: the same key again, one day later.
            let (k, day, _) = records[0].clone();
            records.push((k, day + 1.0, vec![round as u8; 40]));
            let batch: Vec<(RecordKey, f64, &[u8])> = records
                .iter()
                .map(|(k, d, p)| (*k, *d, p.as_slice()))
                .collect();
            for accepted in log.append_batch(&batch).unwrap() {
                h.u64(accepted as u64);
            }
        }
    }
    assert!(log.stats().compaction_steps > 0, "no step interleaved");
    hash_state(&mut h, &log);

    log.compact().unwrap();
    hash_state(&mut h, &log);

    let s = registry.snapshot();
    let appends = s.histogram(names::REFSTORE_APPEND_NS).unwrap();
    let batches = s.histogram(names::REFSTORE_BATCH_RECORDS).unwrap();
    h.u64(appends.count);
    h.u64(batches.count);
    h.u64(batches.sum);
    for event in recorder.log().events {
        if event.lane != "refstore" {
            continue;
        }
        h.str(event.name);
        h.u64(match event.kind {
            TraceEventKind::Begin => 0,
            TraceEventKind::End => 1,
            TraceEventKind::Instant => 2,
        });
        h.str(&format!("{:?}", event.args));
    }
    drop(log);

    let (log, report) = RefLog::open(dir, config).unwrap();
    hash_report(&mut h, &report);
    hash_state(&mut h, &log);
    h.0
}

#[test]
fn seeded_stream_writes_and_reports_the_pinned_bytes() {
    let dir =
        std::env::temp_dir().join(format!("earthplus-refstore-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hash = run_stream(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(hash, GOLDEN, "write-path golden moved: {hash:#018x}");
}
