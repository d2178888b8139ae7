//! # earthplus-refstore — durable, crash-recoverable reference storage
//!
//! Earth+'s ground segment accumulates historical cloud-free references
//! across many contact passes; losing that archive on a ground-station
//! restart would reset every satellite's freshness clock. This crate is
//! the std-only storage engine behind the persistent reference backend in
//! `earthplus-ground`:
//!
//! * [`record`] — CRC32-framed records (`(location, band)` key, capture
//!   day, opaque payload); the CRC doubles as the commit marker;
//! * [`segment`] — append-only segment files with a tolerant scanner:
//!   torn tails are truncated to the last valid record, mid-file
//!   corruption (body *or* length word) is skipped by resyncing to the
//!   next CRC-valid frame, dropped bytes counted;
//! * [`index`] — the in-memory key → (segment, offset) index, rebuilt by
//!   replay, enforcing freshest-wins before any byte is written;
//! * [`manifest`] — the atomically swapped segment-set description that
//!   makes compaction crash-safe;
//! * [`log`] — [`RefLog`], the engine: open/replay, append, read,
//!   snapshot + compaction (which drops superseded reference
//!   generations), accounting, and [`RecoveryReport`];
//! * [`compaction`] — the incremental [`CompactionDriver`]: the same
//!   rewrite split into [`CompactionBudget`]-bounded steps off the
//!   append hot path;
//! * [`capacity`] — the closed-form [`CapacityModel`] tying disk growth
//!   to mission length, retention, and capture cadence;
//! * [`mod@crc32`] / [`error`] — the integrity primitive and error type.
//!
//! One `RefLog` is single-writer; the ground segment runs one per shard
//! directory (same shard routing as the in-memory store) behind an
//! `RwLock`, so multi-ground-station sharding maps directly onto disk
//! layout.
//!
//! # Example
//!
//! ```
//! use earthplus_refstore::{RefLog, RefLogConfig};
//! use earthplus_raster::{Band, LocationId, PlanetBand};
//!
//! let dir = std::env::temp_dir().join(format!("refstore-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let key = (LocationId(7), Band::Planet(PlanetBand::Red));
//!
//! let (mut log, report) = RefLog::open(&dir, RefLogConfig::default()).unwrap();
//! assert!(report.clean());
//! assert!(log.append(key, 5.0, b"reference payload").unwrap());
//! assert!(!log.append(key, 3.0, b"stale").unwrap()); // freshest-wins
//! drop(log); // "crash"
//!
//! let (log, report) = RefLog::open(&dir, RefLogConfig::default()).unwrap();
//! assert_eq!(report.live_records, 1);
//! assert_eq!(log.get(&key).unwrap().unwrap().payload, b"reference payload");
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capacity;
pub mod compaction;
pub mod crc32;
pub mod error;
pub mod index;
pub mod log;
pub mod manifest;
pub mod record;
pub mod segment;

pub use capacity::{CapacityModel, CapacityProjection};
pub use compaction::{CompactionBudget, CompactionDriver, CompactionStepReport};
pub use crc32::crc32;
pub use error::{RefStoreError, Result};
pub use index::{IndexEntry, MemIndex};
pub use log::{RecoveryReport, RefLog, RefLogConfig, RefLogStats};
pub use manifest::{write_file_atomic, Manifest};
pub use record::{
    band_from_tag, band_tag, decode_frame, encode_frame, framed_len, Record, RecordKey,
};
pub use segment::{
    list_segments, parse_segment_file_name, scan_segment, segment_file_name, ScannedRecord,
    SegmentScan, SegmentWriter, SEGMENT_HEADER_LEN,
};
