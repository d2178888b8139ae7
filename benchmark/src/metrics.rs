//! The names the benchmark reports under: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! is generated from these tables (`benchmark describe`) and a unit test
//! keeps the committed file equal to them.

use crate::json::{obj, Json};
use crate::stats::{ratio, Fnv};
use earthplus_ground::UplinkReport;

/// A workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Name on the command line and in result files.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
}

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "mission_rich",
        why: "11 locations x 13 bands, 2 satellites: stale references change most tiles, so encode and ground-side decode dominate and ground work must not",
    },
    WorkloadInfo {
        name: "mission_constellation",
        why: "8 locations x 4 bands, 48 satellites, daily revisits: fresh references shrink the codec share while cloud detection and the 336-window pass scheduler grow",
    },
    WorkloadInfo {
        name: "ground_backfill",
        why: "1024 reference keys on the replicated fsync store: archive ingest, batch ingest, 336-window passes and cache reads side by side; the codec only trickles",
    },
    WorkloadInfo {
        name: "codec_stream",
        why: "512x512 4-band captures through tile-sized and image-sized encode and decode with no ground service: the codec alone",
    },
];

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How an end-to-end value is reduced from the timed replays of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduce {
    /// Median of the set-ups made in the run.
    Setup,
    /// Median over replays of one value per replay.
    RepMedian,
    /// Nearest-rank percentile of a latency pool over all replays.
    Pooled(Pool, f64),
}

/// The latency pools a replay fills, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// On-board seconds of each capture that did on-board work.
    Onboard,
    /// The whole call that processes one capture.
    Capture,
    /// The call that plans one contact pass.
    Pass,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name in `BENCHMARK.json` and result files.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Reduction over replays.
    pub reduce: Reduce,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    reduce: Reduce,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        reduce,
    }
}

/// The twelve end-to-end metrics. Every workload reports every one; what
/// each means on each workload is tabulated in `benchmark/README.md`.
/// Bounds are sized from five sets of ten runs on ten seeds each (README,
/// "Bounds"): every timing sits at the contract's ceiling because the
/// reference box has slow phases of 25-30 % lasting minutes.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", Better::Lower, 0.25, Reduce::Setup),
    e2e(
        "captures_per_s",
        "1/s",
        Better::Higher,
        0.25,
        Reduce::RepMedian,
    ),
    e2e(
        "onboard_p50_ms",
        "ms",
        Better::Lower,
        0.25,
        Reduce::Pooled(Pool::Onboard, 0.50),
    ),
    e2e(
        "onboard_p95_ms",
        "ms",
        Better::Lower,
        0.25,
        Reduce::Pooled(Pool::Onboard, 0.95),
    ),
    e2e(
        "capture_p95_ms",
        "ms",
        Better::Lower,
        0.25,
        Reduce::Pooled(Pool::Capture, 0.95),
    ),
    e2e(
        "downlink_bytes_per_capture",
        "B",
        Better::Lower,
        0.10,
        Reduce::RepMedian,
    ),
    e2e(
        "psnr_db_mean",
        "dB",
        Better::Higher,
        0.06,
        Reduce::RepMedian,
    ),
    e2e(
        "uplink_bytes_per_contact",
        "B",
        Better::Lower,
        0.15,
        Reduce::RepMedian,
    ),
    e2e("refs_per_s", "1/s", Better::Higher, 0.25, Reduce::RepMedian),
    e2e(
        "plan_pass_p95_ms",
        "ms",
        Better::Lower,
        0.25,
        Reduce::Pooled(Pool::Pass, 0.95),
    ),
    e2e(
        "encode_mpix_per_s",
        "MPix/s",
        Better::Higher,
        0.25,
        Reduce::RepMedian,
    ),
    e2e(
        "decode_mpix_per_s",
        "MPix/s",
        Better::Higher,
        0.25,
        Reduce::RepMedian,
    ),
];

/// One per-layer metric (the layer is the prefix before the first dot).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, taken from the traced replays. A workload that does
/// not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: [Layer; 61] = [
    lo("cloud.detect_s", "s"),
    lo("cloud.dropped_share", "ratio"),
    lo("core.change_s", "s"),
    lo("core.changed_tile_fraction", "ratio"),
    lo("core.reference_age_days_mean", "days"),
    lo("core.guaranteed_share", "ratio"),
    lo("core.on_capture_s", "s"),
    lo("core.ground_side_s", "s"),
    lo("core.ground_patch_s", "s"),
    lo("codec.encode_s", "s"),
    lo("codec.encode_calls", "count"),
    lo("codec.encode_bytes", "B"),
    lo("codec.decode_s", "s"),
    lo("codec.decode_calls", "count"),
    hi("codec.roi_encode_mpix_per_s", "MPix/s"),
    hi("codec.image_encode_mpix_per_s", "MPix/s"),
    hi("codec.roi_decode_mpix_per_s", "MPix/s"),
    hi("codec.image_decode_mpix_per_s", "MPix/s"),
    lo("codec.ll_decode_us_p50", "us"),
    lo("codec.scratch_grow_events", "count"),
    lo("codec.scratch_reserved_kb", "KiB"),
    lo("ground.plan_pass_s", "s"),
    lo("ground.plan_pass_calls", "count"),
    lo("ground.windows_planned", "count"),
    hi("ground.deltas_sent", "count"),
    lo("ground.deltas_skipped", "count"),
    hi("ground.delta_fit_ratio", "ratio"),
    lo("ground.ingest_s", "s"),
    lo("ground.ingest_encoded_s", "s"),
    hi("ground.ingest_accepted", "count"),
    lo("ground.ingest_rejected", "count"),
    lo("ground.sync_s", "s"),
    lo("ground.serve_s", "s"),
    lo("ground.serve_calls", "count"),
    hi("ground.cache_hit_rate", "ratio"),
    lo("ground.ship_bytes", "B"),
    lo("ground.ship_segments", "count"),
    lo("ground.ship_retries", "count"),
    lo("ground.backpressure_waits", "count"),
    lo("refstore.append_s", "s"),
    lo("refstore.appends", "count"),
    lo("refstore.fsyncs", "count"),
    lo("refstore.fsyncs_per_append", "ratio"),
    lo("refstore.replay_s", "s"),
    lo("refstore.replay_records", "count"),
    lo("refstore.compaction_steps", "count"),
    lo("refstore.compaction_s", "s"),
    lo("refstore.live_bytes", "B"),
    lo("refstore.dead_bytes", "B"),
    lo("refstore.disk_bytes", "B"),
    lo("refstore.space_amp", "ratio"),
    hi("telemetry.overhead_ratio", "ratio"),
    lo("telemetry.trace_events", "count"),
    lo("telemetry.trace_dropped", "count"),
    lo("scene.render_s", "s"),
    lo("orbit.schedule_s", "s"),
    lo("cloud.train_s", "s"),
    lo("bench.replay_wall_s", "s"),
    lo("bench.unattributed_s", "s"),
    lo("bench.unattributed_share", "ratio"),
    lo("bench.timer_overhead_ns", "ns"),
];

/// The per-layer rows that tile a replay's wall time: each is the time a
/// layer was busy on the replay thread with nested layers subtracted, so
/// the rows plus `bench.unattributed_s` sum to `bench.replay_wall_s`.
pub const LEDGER_ROWS: [&str; 11] = [
    "cloud.detect_s",
    "core.change_s",
    "core.ground_patch_s",
    "codec.encode_s",
    "codec.decode_s",
    "ground.plan_pass_s",
    "ground.ingest_s",
    "ground.ingest_encoded_s",
    "ground.serve_s",
    "ground.sync_s",
    "refstore.append_s",
];

/// `BENCHMARK.json`, generated.
pub fn benchmark_json() -> Json {
    obj([
        (
            "command",
            vec![
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]
            .into(),
        ),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Seconds one run measures (`BENCHMARK.json`'s `run_seconds`, and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 12;

/// What one replay observed, in the vocabulary every workload shares.
#[derive(Debug, Default)]
pub struct Tally {
    /// Captures offered to the pipeline.
    pub captures: u64,
    /// Contact windows planned.
    pub contacts: u64,
    /// References offered to a pool or store.
    pub refs_offered: u64,
    /// Bytes queued for downlink.
    pub downlink_bytes: u64,
    /// Bytes scheduled onto the uplink.
    pub uplink_bytes: u64,
    /// Sum and count of reconstruction PSNRs.
    pub psnr_sum: f64,
    /// Captures with a PSNR.
    pub psnr_n: u64,
    /// Lowest single reconstruction PSNR (what the round-trip floors are
    /// set from); 0 until a PSNR is recorded.
    pub psnr_min: f64,
    /// Pixels encoded, and seconds in the calls that encoded them.
    pub encode_px: f64,
    /// Seconds in encode calls.
    pub encode_s: f64,
    /// Pixels reconstructed at full rate.
    pub decode_px: f64,
    /// Seconds in the calls that reconstructed them.
    pub decode_s: f64,
    /// On-board milliseconds per capture with on-board work.
    pub onboard_ms: Vec<f64>,
    /// Milliseconds of the whole per-capture call.
    pub capture_ms: Vec<f64>,
    /// Milliseconds per pass-planning call.
    pub pass_ms: Vec<f64>,
    /// Hash of the output streams that must repeat exactly.
    pub outputs: Fnv,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, with the first few reasons.
    pub failed: u64,
    /// Why operations failed (capped).
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one reconstruction PSNR.
    pub fn psnr(&mut self, db: f64) {
        self.psnr_sum += db;
        self.psnr_min = if self.psnr_n == 0 {
            db
        } else {
            self.psnr_min.min(db)
        };
        self.psnr_n += 1;
    }

    /// Records one pass: `windows` planned in `seconds`, answered by
    /// `reports`. `what` names the pass in a failure message.
    pub fn pass(&mut self, what: &str, windows: usize, reports: &[UplinkReport], seconds: f64) {
        self.pass_ms.push(seconds * 1e3);
        self.contacts += windows as u64;
        self.attempted += windows as u64;
        if reports.len() != windows {
            self.fail(|| format!("{what}: {} reports for {windows} windows", reports.len()));
        }
        for r in reports {
            self.uplink_bytes += r.bytes_used;
            self.outputs.u64(r.bytes_used);
            self.outputs.u64(r.deltas_sent as u64);
            self.outputs.u64(r.deltas_skipped as u64);
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }

    /// The pool a percentile metric reads.
    pub fn pool(&self, pool: Pool) -> &[f64] {
        match pool {
            Pool::Onboard => &self.onboard_ms,
            Pool::Capture => &self.capture_ms,
            Pool::Pass => &self.pass_ms,
        }
    }

    /// The once-per-replay end-to-end values, given the replay's wall
    /// seconds. One definition per metric, shared by all workloads.
    pub fn rep_value(&self, name: &str, wall_s: f64) -> f64 {
        match name {
            "captures_per_s" => ratio(self.captures as f64, wall_s),
            "downlink_bytes_per_capture" => ratio(self.downlink_bytes as f64, self.captures as f64),
            "psnr_db_mean" => ratio(self.psnr_sum, self.psnr_n as f64),
            "uplink_bytes_per_contact" => ratio(self.uplink_bytes as f64, self.contacts as f64),
            "refs_per_s" => ratio(self.refs_offered as f64, wall_s),
            "encode_mpix_per_s" => ratio(self.encode_px / 1e6, self.encode_s),
            "decode_mpix_per_s" => ratio(self.decode_px / 1e6, self.decode_s),
            other => unreachable!("{other} is not a per-replay metric"),
        }
    }

    /// The values that must be bit-identical on every replay of one tape.
    pub fn exact(&self) -> [u64; 4] {
        [
            self.downlink_bytes,
            self.uplink_bytes,
            self.outputs.0,
            self.psnr_sum.to_bits(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn tables_meet_the_file_limits() {
        let mut names = HashSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name, 64, "_.-"));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(well_formed(m.name, 64, "_.-"));
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(names.insert(m.name));
        }
        for m in &PER_LAYER {
            assert!(well_formed(m.name, 64, "_.-"));
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}", m.unit);
            assert!(names.insert(m.name), "{} twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for row in LEDGER_ROWS {
            assert!(PER_LAYER.iter().any(|m| m.name == row), "{row}");
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().to_pretty().len() <= 64 << 10);
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `benchmark describe > BENCHMARK.json`"
        );
    }
}
