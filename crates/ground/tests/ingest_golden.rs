//! Batch-ingest golden: one seeded batch through `ingest_batch` at several
//! worker counts, on the durable station set and on the in-memory store.
//!
//! Every worker count must leave the same result: the same
//! [`IngestReport`], the same bytes in every file under the station set's
//! root, and the same (key, day, pixel bits) in the in-memory store. The
//! values are pinned, so a change to how the batch is split over workers
//! cannot move them without failing here. Every count above the host's
//! cores is clamped to the cores, so on a small host the higher counts
//! rerun the widest split there is.

use earthplus_ground::{
    shard_index, IngestReport, ReferenceBackend, ReferenceImage, ReplicatedReferenceStore,
    ShardedReferenceStore, ShipQueueConfig, StationSetConfig,
};
use earthplus_raster::{Band, LocationId, PlanetBand, Raster};
use earthplus_telemetry::{TelemetrySink, TraceSink};
use std::path::{Path, PathBuf};

const SHARDS: usize = 8;
const KEYS: u32 = 48;

/// The pinned outcome of the batch: the report, the FNV-1a hash of the
/// station set's files, and the FNV-1a hash of the stored references
/// (the same for both stores).
const REPORT: IngestReport = IngestReport {
    accepted: 80,
    rejected: 111,
};
const FILES_FNV: u64 = 0x5873_8aff_09bc_89cd;
const MEMORY_FNV: u64 = 0x9181_20ee_6c17_f6cb;

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

    /// Uniform integer in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn key(k: u32) -> (LocationId, Band) {
    let bands = [PlanetBand::Red, PlanetBand::Green, PlanetBand::Blue];
    (LocationId(k / 3), Band::Planet(bands[k as usize % 3]))
}

/// `KEYS` keys with 3 to 5 copies each, days drawn from a range of four
/// so that equal-day copies (told apart by their pixels) are common, in a
/// seeded shuffle.
fn batch() -> Vec<ReferenceImage> {
    let mut rng = Rng(0x1A6E_57B4_7C4E);
    let mut batch = Vec::new();
    for k in 0..KEYS {
        let (location, band) = key(k);
        for _ in 0..3 + rng.below(3) {
            let day = 10.0 + rng.below(4) as f64;
            let level = rng.below(1000) as f32 / 1000.0;
            let full = Raster::from_fn(64, 64, |x, y| {
                (level + (x * 7 + y * 3) as f32 / 2048.0).fract()
            });
            batch.push(ReferenceImage::from_capture(location, band, day, &full, 8).unwrap());
        }
    }
    for i in (1..batch.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        batch.swap(i, j);
    }
    batch
}

/// The worker counts the batch runs at: 1, 2, 3, 7 and one more than the
/// batch's non-empty shard groups.
fn worker_counts(batch: &[ReferenceImage]) -> [usize; 5] {
    let mut touched = [false; SHARDS];
    for r in batch {
        touched[shard_index(r.location, r.band, SHARDS)] = true;
    }
    let groups = touched.iter().filter(|&&t| t).count();
    [1, 2, 3, 7, groups + 1]
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "earthplus-ingest-golden-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, as (path relative to `root`, bytes).
fn files_under(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files_under(root, &path, out);
        } else {
            let rel = path
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .into_owned();
            out.push((rel, std::fs::read(&path).unwrap()));
        }
    }
}

/// FNV-1a over every file under `root`: relative path, then bytes, in
/// path order.
fn files_fnv(root: &Path) -> u64 {
    let mut files = Vec::new();
    files_under(root, root, &mut files);
    files.sort();
    let mut fnv = Fnv::new();
    for (path, bytes) in files {
        fnv.write(path.as_bytes());
        fnv.write(&(bytes.len() as u64).to_le_bytes());
        fnv.write(&bytes);
    }
    fnv.0
}

/// FNV-1a over a store's (key, day, pixel bits), in key order.
fn store_fnv(store: &dyn ReferenceBackend) -> u64 {
    let mut keys = store.keys();
    keys.sort();
    let mut fnv = Fnv::new();
    for (location, band) in keys {
        let r = store.get(location, band).unwrap();
        fnv.write(format!("{location:?}/{band:?}").as_bytes());
        fnv.write(&r.captured_day.to_bits().to_le_bytes());
        for v in r.lowres.as_slice() {
            fnv.write(&v.to_bits().to_le_bytes());
        }
    }
    fnv.0
}

#[test]
fn station_set_ingest_is_pinned_at_every_worker_count() {
    let batch = batch();
    for threads in worker_counts(&batch) {
        let dir = test_dir(&format!("stations-{threads}"));
        let config = StationSetConfig {
            stations: 2,
            replicas: 1,
            queue: ShipQueueConfig {
                pipelined: false,
                ..ShipQueueConfig::default()
            },
            ..StationSetConfig::default()
        };
        let sink = TelemetrySink::default();
        let (store, _) =
            ReplicatedReferenceStore::open(&dir, SHARDS, config, &sink, &TraceSink::default())
                .unwrap();
        let report = store.ingest_batch(batch.clone(), threads);
        store.sync();
        let memory = store_fnv(&store);
        drop(store);
        let files = files_fnv(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(report, REPORT, "report at {threads} workers");
        assert_eq!(files, FILES_FNV, "store files at {threads} workers");
        assert_eq!(memory, MEMORY_FNV, "stored references at {threads} workers");
    }
}

#[test]
fn in_memory_ingest_is_pinned_at_every_worker_count() {
    let batch = batch();
    for threads in worker_counts(&batch) {
        let store = ShardedReferenceStore::new(SHARDS);
        let report = store.ingest_batch(batch.clone(), threads);
        assert_eq!(report, REPORT, "report at {threads} workers");
        assert_eq!(
            store_fnv(&store),
            MEMORY_FNV,
            "stored references at {threads} workers"
        );
    }
}
