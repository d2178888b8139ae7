//! The in-memory key → file-location index, rebuilt by replay.
//!
//! The index is the only mutable state the engine keeps in memory; the
//! files are the source of truth. Every entry points at one CRC-framed
//! record, and freshest-wins semantics are enforced here: an insert for a
//! key that already holds an equal-or-fresher day is rejected before any
//! byte is written.

use crate::record::{framed_len, RecordKey};
use std::collections::HashMap;

/// Where one live record lives on disk, plus the metadata needed to
/// serve freshness probes without touching the file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexEntry {
    /// Segment the record lives in.
    pub segment: u64,
    /// Byte offset of the frame start within the segment file.
    pub offset: u64,
    /// Total frame length in bytes.
    pub framed_len: u64,
    /// Capture day of the stored generation.
    pub day: f64,
}

impl IndexEntry {
    /// Payload bytes of the record this entry points at (the frame minus
    /// its header and fixed body fields) — no disk read needed.
    pub fn payload_len(&self) -> u64 {
        self.framed_len - framed_len(0)
    }
}

/// The replay-built index of live records.
#[derive(Debug, Default)]
pub struct MemIndex {
    map: HashMap<RecordKey, IndexEntry>,
}

impl MemIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The live entry for a key.
    pub fn get(&self, key: &RecordKey) -> Option<&IndexEntry> {
        self.map.get(key)
    }

    /// Whether `day` would supersede the current generation of `key`
    /// (true also when the key is absent).
    pub(crate) fn is_fresher(&self, key: &RecordKey, day: f64) -> bool {
        self.map.get(key).is_none_or(|e| e.day < day)
    }

    /// Installs `entry` as the live generation of `key`, returning the
    /// entry it superseded (now dead bytes awaiting compaction).
    pub fn install(&mut self, key: RecordKey, entry: IndexEntry) -> Option<IndexEntry> {
        self.map.insert(key, entry)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no key is live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates live `(key, entry)` pairs in arbitrary order — the
    /// allocation-free accessor for whole-store accounting.
    pub fn iter(&self) -> impl Iterator<Item = (&RecordKey, &IndexEntry)> {
        self.map.iter()
    }

    /// All live `(key, entry)` pairs sorted by key — the deterministic
    /// order used by compaction and by byte-identity comparisons in
    /// recovery tests.
    pub(crate) fn entries_sorted(&self) -> Vec<(RecordKey, IndexEntry)> {
        let mut entries: Vec<(RecordKey, IndexEntry)> =
            self.map.iter().map(|(k, e)| (*k, *e)).collect();
        entries.sort_by_key(|&(key, _)| key);
        entries
    }

    /// All live keys, sorted.
    pub(crate) fn keys_sorted(&self) -> Vec<RecordKey> {
        let mut keys: Vec<RecordKey> = self.map.keys().copied().collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_raster::{Band, LocationId, PlanetBand};

    fn key(loc: u32) -> RecordKey {
        (LocationId(loc), Band::Planet(PlanetBand::Red))
    }

    fn entry(segment: u64, day: f64) -> IndexEntry {
        IndexEntry {
            segment,
            offset: 16,
            framed_len: 64,
            day,
        }
    }

    #[test]
    fn freshness_gate() {
        let mut index = MemIndex::new();
        assert!(index.is_fresher(&key(0), 1.0));
        index.install(key(0), entry(0, 5.0));
        assert!(
            !index.is_fresher(&key(0), 5.0),
            "equal day must not supersede"
        );
        assert!(!index.is_fresher(&key(0), 3.0));
        assert!(index.is_fresher(&key(0), 6.0));
    }

    #[test]
    fn install_returns_superseded() {
        let mut index = MemIndex::new();
        assert!(index.install(key(0), entry(0, 1.0)).is_none());
        let old = index.install(key(0), entry(1, 2.0)).unwrap();
        assert_eq!(old.day, 1.0);
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn sorted_listings_are_ordered() {
        let mut index = MemIndex::new();
        for loc in [5u32, 1, 3] {
            index.install(key(loc), entry(0, 1.0));
        }
        let keys = index.keys_sorted();
        assert_eq!(
            keys.iter().map(|k| k.0 .0).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        assert_eq!(index.entries_sorted().len(), 3);
    }
}
