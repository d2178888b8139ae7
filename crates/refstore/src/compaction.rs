//! Incremental, budgeted compaction.
//!
//! The stop-the-world [`compact`](crate::RefLog::compact) rewrite is fine
//! for tests and for forcing a snapshot, but on the append hot path a
//! full rewrite is a latency spike proportional to the live set. The
//! [`CompactionDriver`] splits the same rewrite into bounded steps:
//!
//! * beginning one — from [`RefLog::maintain`](crate::RefLog::maintain)
//!   once the dead-byte thresholds trip, or from `compact` — seals the
//!   active segment and snapshots the live index (key order, so the
//!   output layout is deterministic and byte-identical to a
//!   stop-the-world compaction of the same state);
//! * each [`RefLog::compaction_step`](crate::RefLog::compaction_step)
//!   relocates live records into fresh output segments until a byte or
//!   time budget ([`CompactionBudget`]) is exhausted — appends proceed
//!   freely between steps (they only ever touch the post-begin active
//!   segment, never a compaction input);
//! * the final step commits: outputs are synced, the manifest is swapped
//!   atomically, relocated index entries are installed (entries
//!   superseded by a concurrent append keep the fresher generation and
//!   the relocated copy is accounted dead-on-arrival), and the input
//!   segments are deleted.
//!
//! An error during any step abandons the driver: the engine keeps
//! running on the old segment set, and the partially written outputs are
//! reclaimed exactly like an interrupted stop-the-world compaction
//! (replayed benignly, losing every equal-day tie, then swept or
//! recompacted).

use crate::index::IndexEntry;
use crate::record::RecordKey;
use crate::segment::SegmentWriter;

/// Per-step bounds on how much work one [`compaction_step`] may do.
///
/// [`compaction_step`]: crate::RefLog::compaction_step
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionBudget {
    /// Stop after relocating at least this many frame bytes. A step
    /// always relocates at least one record, so the actual bound is
    /// `max(max_bytes, largest single frame)`.
    pub max_bytes: u64,
    /// Stop once the step has run this long (safety net on slow disks;
    /// the byte budget is the deterministic bound).
    pub max_micros: u64,
}

impl CompactionBudget {
    /// A budget with no limits — one step finishes the whole compaction
    /// (the stop-the-world behaviour).
    pub fn unbounded() -> Self {
        CompactionBudget {
            max_bytes: u64::MAX,
            max_micros: u64::MAX,
        }
    }
}

impl Default for CompactionBudget {
    fn default() -> Self {
        CompactionBudget {
            max_bytes: 256 << 10,
            max_micros: 2_000,
        }
    }
}

/// What one bounded compaction step did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStepReport {
    /// Live records relocated this step.
    pub copied_records: u64,
    /// Frame bytes relocated this step.
    pub copied_bytes: u64,
    /// Snapshot entries skipped because a concurrent append superseded
    /// them after the snapshot was taken.
    pub skipped_records: u64,
    /// Whether this step committed the compaction (manifest swapped,
    /// inputs deleted). `true` with zero work means no compaction was in
    /// progress.
    pub finished: bool,
    /// Wall-clock duration of the step, in nanoseconds.
    pub step_ns: u64,
}

/// The in-progress state of one incremental compaction: the snapshot
/// cursor, the output writers, and the relocation ledger applied at
/// commit. Owned by the [`RefLog`](crate::RefLog) between steps.
#[derive(Debug)]
pub struct CompactionDriver {
    /// Segment ids being compacted away (everything sealed before the
    /// driver started; appends never write into these).
    pub(crate) inputs: Vec<u64>,
    /// Live `(key, entry)` pairs at begin, in key order.
    pub(crate) snapshot: Vec<(RecordKey, IndexEntry)>,
    /// Next snapshot entry to relocate.
    pub(crate) cursor: usize,
    /// The output segment currently being written.
    pub(crate) writer: Option<SegmentWriter>,
    /// Output segment ids, ascending.
    pub(crate) outputs: Vec<u64>,
    /// `(key, old entry, new entry)` for every relocation, applied to
    /// the index at commit (skipped when a fresher generation landed in
    /// the meantime).
    pub(crate) relocations: Vec<(RecordKey, IndexEntry, IndexEntry)>,
    /// Dead bytes/records that die with the inputs at commit: the dead
    /// set at begin plus every input entry superseded while the driver
    /// ran.
    pub(crate) freed_dead_bytes: u64,
    pub(crate) freed_dead_records: u64,
}

impl CompactionDriver {
    /// `(entries relocated or skipped, total snapshot entries)`.
    pub fn progress(&self) -> (usize, usize) {
        (self.cursor, self.snapshot.len())
    }

    /// Whether `segment` is one of the inputs being compacted away.
    pub(crate) fn is_input(&self, segment: u64) -> bool {
        // Inputs are few (compaction keeps segment counts low); a linear
        // scan beats a set here.
        self.inputs.contains(&segment)
    }
}
