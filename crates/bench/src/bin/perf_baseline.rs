//! Committed perf baseline: the on-board pipeline's throughput trajectory.
//!
//! Runs one warmed Earth+ strategy processing a fresh capture plus a
//! full-image ROI-encode microbenchmark, and writes the numbers to
//! `BENCH_pipeline.json` so every PR has a committed baseline to beat.
//!
//! ```text
//! cargo run -p earthplus-bench --release --bin perf_baseline
//! cargo run -p earthplus-bench --release --bin perf_baseline -- --quick --out /tmp/b.json
//! cargo run -p earthplus-bench --release --bin perf_baseline -- --quick --check BENCH_pipeline.json
//! ```
//!
//! * `--quick` — fewer samples (CI smoke: proves the emitter works).
//! * `--out <path>` — where to write the JSON (default
//!   `BENCH_pipeline.json` in the current directory, unless `--check` is
//!   given: a check run without `--out` writes no file).
//! * `--telemetry <path>` — also write the telemetry registry's snapshot
//!   (the metrics recorded by the instrumented runs) as JSON lines.
//! * `--check <path>` — read the committed baseline at `<path>` before
//!   anything is measured or written, then compare this run's encode and
//!   full-decode throughput (`encode_full_band`, `decode_full`,
//!   `decode_full_epc1`, each's `mpix_per_s`) against it and exit non-zero
//!   below [`CHECK_MIN_RATIO`]× of any. The generous ratio absorbs machine
//!   differences (CI runners vs the container the baseline was committed
//!   from) while still catching catastrophic codec regressions. The same
//!   flag gates wire overhead exactly: the run fails when
//!   `encode_full_band.header_bytes_per_tile` exceeds the committed value
//!   (a byte count of a deterministic encode, so no tolerance).
//!
//! Per-stage seconds come from the strategy's own [`StageTimings`] (the
//! quantities of the paper's Figure 16); throughput is reported in
//! megapixels per second of capture data processed. The encoder
//! microbenchmark times the library's EPC2 ROI encode against the vendored
//! reference encoder (the one EPC1 encoder, kept as the test oracle),
//! interleaved in-process so machine-load drift cancels out of the
//! `speedup_vs_reference` ratio. EPC2 output is asserted to decode and
//! patch before timing.
//!
//! Since the streaming partial-decode pipeline the baseline also times the
//! decode stage: full-rate EPC2 **and EPC1** full-band decodes (the EPC1
//! stream from the reference encoder) through the
//! zero-allocation [`decode_into`] entry point (steady state: reused
//! scratch arena and output raster), and the LL-only partial decode
//! interleaved with full-decode + `downsample_box` (the historical
//! reference-ingest path it replaces) — the binary exits non-zero if the
//! LL-only path is less than [`DECODE_LL_MIN_SPEEDUP`]× faster, or if
//! either scratch arena grows in steady state.
//!
//! Since the word-parallel bitplane coder (schema 7) the report also
//! carries a per-stage breakdown of the codec's own hot loops — DWT
//! transform, bitplane pass coding, (de)quantization — from the scratch
//! arenas' [`StageBreakdown`] accumulators, for the full-band EPC2 encode
//! and both full decodes. The range coder is inlined into the bitplane
//! passes, so its share cannot be split out by wall clock; instead the
//! `range_coder` section characterizes its intrinsic rate (ns/decision,
//! encode and decode) on a synthetic biased stream with no pass traversal
//! around it. The binary exits non-zero when any stage it reports reads
//! zero: a stage whose work moved into an untimed step has left the
//! ledger, not become free.
//!
//! Since the telemetry subsystem the baseline also proves the
//! instrumentation's hot-path claim: the full-band encode **and decode**
//! are re-timed with a live metric registry recording every codec span,
//! interleaved with the disabled-telemetry arenas (the side that runs
//! first alternates every iteration, so run order cancels out of the
//! per-pair ratios), and the binary exits non-zero if either enabled
//! throughput's median ratio falls below [`TELEMETRY_MIN_RATIO`]× of the
//! disabled one.
//!
//! Since the flight recorder the same treatment covers tracing: the
//! measured encode/decode paths run with tracing *disabled* (the default
//! — no event recorded and no clock read per call site), so the `--check` gate against the
//! committed baseline also guards the disabled-tracing branch; and a
//! recorder-enabled encode/decode pair is interleaved against the
//! disabled arenas, failing below [`TRACING_MIN_RATIO`]×.
//!
//! Since schema 8 the `encode_full_band` row also reports what the γ-budgeted
//! EPC2 tiles cost on the wire: `wire_bytes_per_tile` (codec header,
//! payload and ROI container framing, per tile) and `header_bytes_per_tile`
//! (the codec header alone).
//!
//! Since the pipelined ground segment the baseline also times the ship
//! and ingest paths: the same downlink burst through per-record durable
//! appends vs group-commit `ingest_batch` (both with `fsync_appends` on
//! — the binary exits non-zero unless grouped ingest at least halves the
//! fsync count), and through the synchronous vs pipelined two-station
//! ship path (pipelined timed through `quiesce()`, so it pays for the
//! same completed transfers).
//!
//! Since schema 9 the baseline also times the constellation pass planner
//! (`plan_pass`): 48 satellites × 7 windows over 1024 in-memory keys with
//! 8×8 references, one warm pass after each day's 128 ground updates.
//! `--check` fails when `plan_pass.passes_per_s` drops below
//! [`CHECK_MIN_RATIO`]× of the committed value, or when
//! `plan_pass.deltas_sent` (a count of a deterministic plan) differs
//! from it.
//!
//! Since schema 12 `encode_full_band` times the public ROI encode, which
//! fans the band's tiles out over every host core (`workers`), so its
//! `mpix_per_s` and `speedup_vs_reference` compare the fanned-out encode
//! with the serial reference encoder. The same tiles also run through
//! [`encode_view_with_budget`] one after another on one arena — the
//! serial kernel, reported as `serial_mpix_per_s` — and the per-stage
//! split comes from that serial run: the fanned-out arenas' stage sums
//! overlap in time, so they would exceed the wall time they are split
//! against.
//!
//! Since schema 13 `decode_full` times a public [`decode_into`] that
//! fans the stream's coded subband chunks out over every host core
//! (`workers`: a 256² band is at the codec's serial cut). Its per-stage
//! seconds are summed over the calling thread's and the helpers' arenas,
//! which run concurrently, so they can exceed the row's wall `seconds`,
//! and `other_s` then floors at zero. `decode_full_epc1` stays serial.
//!
//! Since schema 11 the baseline also times the ground segment's
//! pass boundary (`pass_boundary`): `quiesce` + `replicate` + `maintain`
//! on a two-station, one-replica, 16-shard pipelined store whose replicas
//! are already current, and counts the shard shipping passes those calls
//! made ([`earthplus_ground::StationSetStats::ship_checks`]). Each shard's
//! replication watermark turns every such pass into a no-op, so `--check`
//! fails when `pass_boundary.ship_checks` differs from the committed
//! count (0).

use earthplus::prelude::*;
use earthplus::{CaptureContext, ContactWindow, StageTimings};
use earthplus_cloud::{train_onboard_detector, TrainingConfig};
use earthplus_codec::rangecoder::{BitModel, RangeDecoder, RangeEncoder};
use earthplus_codec::{
    decode_into, decode_ll_only, decode_with_scratch, encode_roi_with_scratch,
    encode_view_with_budget, reference, CodecConfig, CodecScratch, DecodeScratch, EncodedImage,
    StageBreakdown,
};
use earthplus_ground::{
    ConstellationScheduler, EvictingReferenceCache, ReferenceBackend, ReferenceImage,
    ReplicatedReferenceStore, ShardedReferenceStore, ShipQueueConfig, StationSetConfig,
};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{
    available_cores, downsample_box, Band, LocationId, Raster, TileGrid, TileMask,
};
use earthplus_refstore::RefLogConfig;
use earthplus_scene::terrain::LocationArchetype;
use earthplus_scene::{LocationScene, SceneConfig};
use std::time::Instant;

/// `--check` fails when this run's encode or full-decode throughput (either
/// decode format) drops below this fraction of the committed baseline's.
const CHECK_MIN_RATIO: f64 = 0.4;

/// Minimum in-process speedup of `decode_ll_only` over full decode +
/// `downsample_box` (the acceptance floor of the partial-decode pipeline;
/// the measured ratio is far higher — LL-only touches ~1/1000 of the
/// coefficients).
const DECODE_LL_MIN_SPEEDUP: f64 = 5.0;

/// Minimum telemetry-enabled encode/decode throughput as a fraction of
/// the disabled-telemetry throughput, measured interleaved in-process.
/// The instrumentation is one histogram-fed trace span per encode/decode
/// call, reading the clock twice; anything below this floor means a
/// hot-path regression, not noise.
const TELEMETRY_MIN_RATIO: f64 = 0.9;

/// Minimum recorder-enabled (tracing) encode/decode throughput as a
/// fraction of the tracing-disabled throughput. The recorder pushes one
/// Begin/End pair per encode/decode *call* behind a short mutex hold —
/// per-tile work would show up here as a collapse below the floor.
const TRACING_MIN_RATIO: f64 = 0.8;

/// Wall-clock seconds of one call of `f`.
fn seconds(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Times one call each of an instrumented (`on`) and an uninstrumented
/// (`off`) run, returning `(on_s, off_s)`. The side that runs first
/// alternates with `iteration`, so whatever the first run of a pair pays
/// (cache state, clock ramp) lands on both sides equally and the overhead
/// ratio measures the instrumentation, not the run order.
fn time_pair(iteration: usize, on: impl FnOnce(), off: impl FnOnce()) -> (f64, f64) {
    if iteration.is_multiple_of(2) {
        let on_s = seconds(on);
        (on_s, seconds(off))
    } else {
        let off_s = seconds(off);
        (seconds(on), off_s)
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    samples[samples.len() / 2]
}

/// Seconds per stage between two [`StageBreakdown`] snapshots of the same
/// arena: `(dwt, bitplane, quantize)`.
fn stage_delta(before: StageBreakdown, after: StageBreakdown) -> (f64, f64, f64) {
    (
        (after.dwt - before.dwt).as_secs_f64(),
        (after.bitplane - before.bitplane).as_secs_f64(),
        (after.quantize - before.quantize).as_secs_f64(),
    )
}

/// Per-stage sample accumulator: one `(dwt, bitplane, quantize)` triple
/// per rep, reduced to medians (plus the untracked remainder vs `total_s`)
/// for the report.
#[derive(Default)]
struct StageSamples {
    dwt: Vec<f64>,
    bitplane: Vec<f64>,
    quantize: Vec<f64>,
}

impl StageSamples {
    fn push(&mut self, delta: (f64, f64, f64)) {
        self.dwt.push(delta.0);
        self.bitplane.push(delta.1);
        self.quantize.push(delta.2);
    }

    /// `(dwt_s, bitplane_s, quantize_s, other_s)` medians; `other_s` is
    /// the stage-untracked remainder of `total_s` (headers, subband
    /// gathers, copies), floored at zero against timer jitter.
    fn report(mut self, total_s: f64) -> (f64, f64, f64, f64) {
        let dwt = median(&mut self.dwt);
        let bitplane = median(&mut self.bitplane);
        let quantize = median(&mut self.quantize);
        let other = (total_s - dwt - bitplane - quantize).max(0.0);
        (dwt, bitplane, quantize, other)
    }
}

/// Pulls `"<key>": <float>` out of the named object of a committed
/// baseline file (hand-rolled: the workspace builds offline, with no JSON
/// dependency — and we wrote the format).
fn committed_value(json: &str, section: &str, key: &str) -> Option<f64> {
    let section = json.split(&format!("\"{section}\"")).nth(1)?;
    let value = section.split(&format!("\"{key}\":")).nth(1)?;
    value.split([',', '}', '\n']).next()?.trim().parse().ok()
}

/// The command line (see the module docs).
struct Options {
    quick: bool,
    /// Where the report goes: `--out`, else `BENCH_pipeline.json` unless
    /// `--check` is given (`None`: a check run writes no file).
    out: Option<String>,
    /// `--check`'s path and the baseline it held when the options were
    /// parsed — before the run measured or wrote anything.
    check: Option<(String, String)>,
    telemetry_out: Option<String>,
}

impl Options {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut quick = false;
        let mut out = None;
        let mut check = None;
        let mut telemetry_out = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut path = || args.next().ok_or(format!("{arg} needs a path"));
            match arg.as_str() {
                "--quick" => quick = true,
                "--out" => out = Some(path()?),
                "--check" => check = Some(path()?),
                "--telemetry" => telemetry_out = Some(path()?),
                other => {
                    return Err(format!(
                        "unknown argument {other:?} (expected --quick / --out <path> / \
                         --check <path> / --telemetry <path>)"
                    ))
                }
            }
        }
        let check = match check {
            Some(path) => {
                let committed = std::fs::read_to_string(&path)
                    .map_err(|e| format!("--check: cannot read {path}: {e}"))?;
                Some((path, committed))
            }
            None => {
                out.get_or_insert_with(|| String::from("BENCH_pipeline.json"));
                None
            }
        };
        Ok(Options {
            quick,
            out,
            check,
            telemetry_out,
        })
    }

    /// Writes the report to `out`, if the run has one.
    fn emit(&self, json: &str) {
        if let Some(out) = &self.out {
            std::fs::write(out, json).expect("write baseline JSON");
            eprintln!("wrote {out}");
        }
    }
}

/// What `--check` compares with the committed baseline.
struct Checked {
    encode_mpix_s: f64,
    decode_full_mpix_s: f64,
    decode_epc1_mpix_s: f64,
    header_bytes_per_tile: f64,
    passes_per_s: f64,
    deltas_sent: usize,
    pass_boundary_checks: u64,
}

/// Compares `run` with `committed`, the baseline read from `path`,
/// printing one line per gate; false when any gate fails.
fn check_against(committed: &str, path: &str, run: &Checked) -> bool {
    let mut ok = true;
    for (section, measured) in [
        ("encode_full_band", run.encode_mpix_s),
        ("decode_full", run.decode_full_mpix_s),
        ("decode_full_epc1", run.decode_epc1_mpix_s),
    ] {
        let committed_rate = committed_value(committed, section, "mpix_per_s")
            .unwrap_or_else(|| panic!("--check: no {section}.mpix_per_s in {path}"));
        let floor = committed_rate * CHECK_MIN_RATIO;
        eprintln!(
            "check: {section} {measured:.3} MPix/s vs committed {committed_rate:.3} \
             (floor {floor:.3})"
        );
        if measured < floor {
            eprintln!(
                "ERROR: {section} regression — {measured:.3} MPix/s is below \
                 {CHECK_MIN_RATIO}x the committed {committed_rate:.3}"
            );
            ok = false;
        }
    }
    let header = run.header_bytes_per_tile;
    let committed_header = committed_value(committed, "encode_full_band", "header_bytes_per_tile")
        .unwrap_or_else(|| panic!("--check: no encode_full_band.header_bytes_per_tile in {path}"));
    eprintln!(
        "check: encode_full_band header {header:.3} B/tile vs committed {committed_header:.3}"
    );
    // The committed value is printed with three decimals; compare at
    // that precision.
    if (header * 1e3).round() > (committed_header * 1e3).round() {
        eprintln!(
            "ERROR: EPC2 header overhead grew — {header:.3} B/tile exceeds the committed \
             {committed_header:.3}"
        );
        ok = false;
    }
    let passes_per_s = run.passes_per_s;
    let committed_passes = committed_value(committed, "plan_pass", "passes_per_s")
        .unwrap_or_else(|| panic!("--check: no plan_pass.passes_per_s in {path}"));
    let floor = committed_passes * CHECK_MIN_RATIO;
    eprintln!(
        "check: plan_pass {passes_per_s:.3} passes/s vs committed {committed_passes:.3} \
         (floor {floor:.3})"
    );
    if passes_per_s < floor {
        eprintln!(
            "ERROR: plan_pass regression — {passes_per_s:.3} passes/s is below \
             {CHECK_MIN_RATIO}x the committed {committed_passes:.3}"
        );
        ok = false;
    }
    let sent = run.deltas_sent;
    let committed_sent = committed_value(committed, "plan_pass", "deltas_sent")
        .unwrap_or_else(|| panic!("--check: no plan_pass.deltas_sent in {path}"));
    eprintln!("check: plan_pass {sent} deltas sent vs committed {committed_sent}");
    // A count of a deterministic plan: any difference is a changed plan,
    // not noise.
    if sent as f64 != committed_sent {
        eprintln!("ERROR: plan_pass sent {sent} deltas, the committed plan sent {committed_sent}");
        ok = false;
    }
    let checks = run.pass_boundary_checks;
    let committed_checks = committed_value(committed, "pass_boundary", "ship_checks")
        .unwrap_or_else(|| panic!("--check: no pass_boundary.ship_checks in {path}"));
    eprintln!("check: pass_boundary {checks} shard checks vs committed {committed_checks}");
    // A count of deterministic work: an in-sync store's pass boundary
    // touching the filesystem is a lost watermark, not noise.
    if checks as f64 != committed_checks {
        eprintln!(
            "ERROR: in-sync pass boundaries checked {checks} shards, the committed run \
             checked {committed_checks}"
        );
        ok = false;
    }
    ok
}

fn main() {
    let options = Options::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let quick = options.quick;
    let reps = if quick { 3 } else { 15 };

    // Scenario: one warmed Earth+ strategy on the quick agriculture scene.
    let scene = LocationScene::new(SceneConfig::quick(7, LocationArchetype::Agriculture));
    let detector = train_onboard_detector(&scene, &TrainingConfig::default());
    let capture = scene.capture_with_coverage(60.0, 0.1);
    let warmup = scene.capture_with_coverage(55.0, 0.0);
    let targets: Vec<_> = scene
        .config()
        .bands
        .iter()
        .map(|&b| (LocationId(0), b))
        .collect();
    let config = EarthPlusConfig::paper();
    let (w, h) = capture.image.dimensions();
    let bands = capture.image.band_count();
    let capture_mpix = (w * h * bands) as f64 / 1e6;

    // 1. Steady-state capture: warm the reference path, then time one
    //    capture end to end; per-stage seconds from the strategy itself.
    let mut totals: Vec<f64> = Vec::with_capacity(reps);
    let mut stages: Vec<StageTimings> = Vec::with_capacity(reps);
    let mut tile_fraction = 0.0f64;
    let mut steady_grow_events = 0u64;
    for _ in 0..reps {
        let mut s = EarthPlusStrategy::new(config, detector.clone(), targets.clone());
        s.on_capture(&CaptureContext {
            day: 55.0,
            satellite: SatelliteId(0),
            location: LocationId(0),
            capture: &warmup,
        });
        s.on_contact_pass(&[ContactWindow {
            satellite: SatelliteId(0),
            day: 56.0,
            budget_bytes: 20_000_000,
        }]);
        let grow_before = s.codec_scratch().grow_events();
        let t = Instant::now();
        let report = s.on_capture(&CaptureContext {
            day: 60.0,
            satellite: SatelliteId(0),
            location: LocationId(0),
            capture: &capture,
        });
        totals.push(t.elapsed().as_secs_f64());
        tile_fraction = report.downloaded_tile_fraction;
        stages.push(report.timings);
        steady_grow_events = s.codec_scratch().grow_events() - grow_before;
    }
    let mut cloud: Vec<f64> = stages.iter().map(|t| t.cloud_s).collect();
    let mut change: Vec<f64> = stages.iter().map(|t| t.change_s).collect();
    let mut encode: Vec<f64> = stages.iter().map(|t| t.encode_s).collect();
    let cloud_s = median(&mut cloud);
    let change_s = median(&mut change);
    let encode_s = median(&mut encode);
    let total_s = median(&mut totals);
    // Pixels actually pushed through the encoder (changed tiles only).
    let encoded_mpix = tile_fraction * capture_mpix;

    // 2. Encoder throughput in isolation: every tile of one band through
    //    the γ-budgeted ROI path — the library's EPC2 encoder (fanned out
    //    over the host's cores), the same tiles one by one through the
    //    serial kernel on one arena, and the vendored reference (EPC1)
    //    encoder, interleaved so the ratios are load-immune.
    let band_raster = capture
        .image
        .iter()
        .next()
        .expect("capture has bands")
        .1
        .clone();
    let grid = TileGrid::new(w, h, config.tile_size).expect("capture is tileable");
    let mut all = TileMask::new(&grid);
    all.fill();
    let budget = config.tile_budget_bytes();
    let codec = CodecConfig::lossy();
    let mut scratch = CodecScratch::new();
    // Warm both paths and prove correctness before timing: EPC2 must
    // decode and patch.
    reference::encode_roi_reference(&band_raster, &grid, &all, &codec, budget)
        .expect("image matches grid");
    let roi_epc2 = encode_roi_with_scratch(&band_raster, &grid, &all, &codec, budget, &mut scratch)
        .expect("image matches grid");
    let tiles = grid.tile_count();
    let wire_bytes_per_tile = roi_epc2.size_bytes() as f64 / tiles as f64;
    let header_bytes_per_tile = roi_epc2
        .tiles()
        .iter()
        .map(|t| t.image.size_bytes() - t.image.payload_len())
        .sum::<usize>() as f64
        / tiles as f64;
    let mut canvas = Raster::new(w, h);
    roi_epc2
        .patch_into(&mut canvas)
        .expect("EPC2 stream must decode");
    // The band has more than four tiles, so the public encode fans out.
    let workers = available_cores().min(tiles);
    let mut serial_scratch = CodecScratch::new();
    let serial_encode = |scratch: &mut CodecScratch| -> Vec<EncodedImage> {
        all.iter_set()
            .map(|index| {
                let view = grid.tile_view(&band_raster, index).expect("tile in grid");
                encode_view_with_budget(&view, &codec, budget, scratch).expect("tile encodes")
            })
            .collect()
    };
    assert!(
        serial_encode(&mut serial_scratch)
            .iter()
            .eq(roi_epc2.tiles().iter().map(|t| &t.image)),
        "the serial kernel must write the fanned-out encode's bytes"
    );
    let (mut ref_times, mut epc2_times, mut epc2_vs_ref) = (Vec::new(), Vec::new(), Vec::new());
    let mut serial_times = Vec::new();
    let mut enc_stages = StageSamples::default();
    for _ in 0..reps.max(8) {
        let t = Instant::now();
        let _ = reference::encode_roi_reference(&band_raster, &grid, &all, &codec, budget);
        let r = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let _ = encode_roi_with_scratch(&band_raster, &grid, &all, &codec, budget, &mut scratch);
        let n2 = t.elapsed().as_secs_f64();
        let s0 = serial_scratch.stages();
        let t = Instant::now();
        let _ = serial_encode(&mut serial_scratch);
        serial_times.push(t.elapsed().as_secs_f64());
        enc_stages.push(stage_delta(s0, serial_scratch.stages()));
        ref_times.push(r);
        epc2_times.push(n2);
        epc2_vs_ref.push(r / n2);
    }
    let ref_s = median(&mut ref_times);
    let epc2_s = median(&mut epc2_times);
    let serial_s = median(&mut serial_times);
    let speedup_vs_reference = median(&mut epc2_vs_ref);
    let band_mpix = (w * h) as f64 / 1e6;
    let full_encode_mpix_s = band_mpix / epc2_s;
    let serial_mpix_s = band_mpix / serial_s;

    // 3. Decode throughput: the full band as one full-rate stream per
    //    format (EPC1 from the reference encoder), decoded through the
    //    zero-allocation `decode_into` entry point (reused scratch arena
    //    and output raster — steady state, no per-rep allocation). EPC2
    //    and EPC1 full decodes, plus the LL-only partial decode, are
    //    interleaved with the historical full-decode + downsample_box
    //    reference-ingest path so every ratio is load-immune.
    let full_enc = earthplus_codec::encode(&band_raster, &codec).expect("full-band encode");
    let full_enc1 =
        reference::encode_reference(&band_raster, &codec).expect("full-band EPC1 encode");
    let mut dscratch = DecodeScratch::new();
    let mut dec_out = Raster::new(0, 0);
    // Warm every path and prove correctness before timing.
    let ll = decode_ll_only(&full_enc, &mut dscratch).expect("LL-only decode");
    assert_eq!(
        ll.dimensions(),
        full_enc.reduced_dimensions(full_enc.levels()),
        "LL-only geometry drifted"
    );
    let ds_factor = 1usize << full_enc.levels();
    decode_into(&full_enc, 0, &mut dscratch, &mut dec_out).expect("full decode");
    let _ = downsample_box(&dec_out, ds_factor).expect("downsample");
    decode_into(&full_enc1, 0, &mut dscratch, &mut dec_out).expect("full EPC1 decode");
    // A 256² output is at the codec's serial cut, so the EPC2 decode fans
    // its coded chunks out.
    let coded_chunks = full_enc
        .subbands()
        .iter()
        .filter(|c| c.planes > 0 && !c.offsets.is_empty())
        .count();
    let decode_workers = available_cores().min(coded_chunks);
    let decode_grow_before = dscratch.grow_events();
    let (mut dec_full_times, mut dec_epc1_times, mut dec_ll_times, mut ll_speedups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut dec_stages = StageSamples::default();
    let mut dec_epc1_stages = StageSamples::default();
    for _ in 0..reps.max(8) {
        let s0 = dscratch.stages();
        let t = Instant::now();
        decode_into(&full_enc, 0, &mut dscratch, &mut dec_out).expect("full decode");
        let full_s = t.elapsed().as_secs_f64();
        dec_stages.push(stage_delta(s0, dscratch.stages()));
        let t = Instant::now();
        let _ = downsample_box(&dec_out, ds_factor).expect("downsample");
        let ds_s = t.elapsed().as_secs_f64();
        let s0 = dscratch.stages();
        let t = Instant::now();
        decode_into(&full_enc1, 0, &mut dscratch, &mut dec_out).expect("full EPC1 decode");
        let epc1_s = t.elapsed().as_secs_f64();
        dec_epc1_stages.push(stage_delta(s0, dscratch.stages()));
        let t = Instant::now();
        let _ = decode_ll_only(&full_enc, &mut dscratch).expect("LL-only decode");
        let ll_s = t.elapsed().as_secs_f64();
        dec_full_times.push(full_s);
        dec_epc1_times.push(epc1_s);
        dec_ll_times.push(ll_s);
        ll_speedups.push((full_s + ds_s) / ll_s);
    }
    let decode_steady_grow_events = dscratch.grow_events() - decode_grow_before;
    let dec_full_s = median(&mut dec_full_times);
    let dec_epc1_s = median(&mut dec_epc1_times);
    let dec_ll_s = median(&mut dec_ll_times);
    let ll_speedup = median(&mut ll_speedups);
    let decode_full_mpix_s = band_mpix / dec_full_s;
    let decode_epc1_mpix_s = band_mpix / dec_epc1_s;
    let decode_ll_mpix_s = band_mpix / dec_ll_s;

    // 3b. Range-coder intrinsic rate: the coder is inlined into the
    //     bitplane passes, so its wall-clock share cannot be separated
    //     from pass traversal above — instead, measure its per-decision
    //     cost alone: a synthetic significance-like biased bit stream
    //     (~12% ones) through one adaptive context, no traversal around
    //     it. The decode loop feeds every decision back into the next
    //     (the real serial dependency chain).
    let rc_decisions: usize = if quick { 1 << 16 } else { 1 << 20 };
    let mut rc_bits = Vec::with_capacity(rc_decisions);
    let mut rc_state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..rc_decisions {
        rc_state ^= rc_state << 13;
        rc_state ^= rc_state >> 7;
        rc_state ^= rc_state << 17;
        rc_bits.push(rc_state.is_multiple_of(8));
    }
    let (mut rc_enc_times, mut rc_dec_times) = (Vec::new(), Vec::new());
    let mut rc_payload = Vec::new();
    for _ in 0..reps.max(8) {
        let mut model = BitModel::new();
        let mut enc = RangeEncoder::with_buffer(std::mem::take(&mut rc_payload));
        let t = Instant::now();
        for &bit in &rc_bits {
            enc.encode(&mut model, bit);
        }
        rc_enc_times.push(t.elapsed().as_secs_f64());
        rc_payload = enc.finish();
        let mut model = BitModel::new();
        let mut dec = RangeDecoder::new(&rc_payload);
        let mut ones = 0usize;
        let t = Instant::now();
        for _ in 0..rc_decisions {
            ones += dec.decode(&mut model) as usize;
        }
        rc_dec_times.push(t.elapsed().as_secs_f64());
        assert_eq!(
            ones,
            rc_bits.iter().filter(|&&b| b).count(),
            "range-coder microbench round-trip drifted"
        );
    }
    let rc_enc_ns = median(&mut rc_enc_times) * 1e9 / rc_decisions as f64;
    let rc_dec_ns = median(&mut rc_dec_times) * 1e9 / rc_decisions as f64;

    // 4. Telemetry overhead: the same full-band EPC2 encode and decode
    //    with a live registry recording every codec span, interleaved
    //    with the disabled-telemetry arenas so the ratios are load-immune.
    //    The disabled arenas also carry an explicitly disabled trace sink
    //    (identical to the default), so every "off" number below is the
    //    tracing-disabled path the --check gate guards.
    let registry = MetricsRegistry::new();
    let mut scratch_on = CodecScratch::new();
    scratch_on.set_telemetry(&registry.sink());
    let mut dscratch_on = DecodeScratch::new();
    dscratch_on.set_telemetry(&registry.sink());
    scratch.set_tracing(&earthplus::TraceSink::disabled());
    dscratch.set_tracing(&earthplus::TraceSink::disabled());
    let _ = encode_roi_with_scratch(&band_raster, &grid, &all, &codec, budget, &mut scratch_on)
        .expect("image matches grid");
    let _ = decode_with_scratch(&full_enc, &mut dscratch_on).expect("full decode");
    let (mut tel_on_times, mut tel_off_times, mut tel_ratios) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut tel_dec_on_times, mut tel_dec_off_times, mut tel_dec_ratios) =
        (Vec::new(), Vec::new(), Vec::new());
    let encode = |scratch: &mut CodecScratch| {
        let _ = encode_roi_with_scratch(&band_raster, &grid, &all, &codec, budget, scratch);
    };
    let decode = |scratch: &mut DecodeScratch| {
        decode_with_scratch(&full_enc, scratch).expect("full decode");
    };
    for i in 0..reps.max(8) {
        let (on, off) = time_pair(i, || encode(&mut scratch_on), || encode(&mut scratch));
        tel_on_times.push(on);
        tel_off_times.push(off);
        tel_ratios.push(off / on);
        let (dec_on, dec_off) = time_pair(i, || decode(&mut dscratch_on), || decode(&mut dscratch));
        tel_dec_on_times.push(dec_on);
        tel_dec_off_times.push(dec_off);
        tel_dec_ratios.push(dec_off / dec_on);
    }
    let telemetry_on_s = median(&mut tel_on_times);
    let telemetry_off_s = median(&mut tel_off_times);
    let telemetry_ratio = median(&mut tel_ratios);
    let telemetry_dec_on_s = median(&mut tel_dec_on_times);
    let telemetry_dec_off_s = median(&mut tel_dec_off_times);
    let telemetry_dec_ratio = median(&mut tel_dec_ratios);

    // 5. Tracing overhead: a flight recorder capturing the codec's spans
    //    (one Begin/End pair per encode/decode call), interleaved with
    //    the tracing-disabled arenas.
    let flight = FlightRecorder::new();
    let mut scratch_tr = CodecScratch::new();
    scratch_tr.set_tracing(&flight.sink());
    let mut dscratch_tr = DecodeScratch::new();
    dscratch_tr.set_tracing(&flight.sink());
    let _ = encode_roi_with_scratch(&band_raster, &grid, &all, &codec, budget, &mut scratch_tr)
        .expect("image matches grid");
    let _ = decode_with_scratch(&full_enc, &mut dscratch_tr).expect("full decode");
    let (mut trace_enc_ratios, mut trace_dec_ratios) = (Vec::new(), Vec::new());
    for i in 0..reps.max(8) {
        let (on, off) = time_pair(i, || encode(&mut scratch_tr), || encode(&mut scratch));
        trace_enc_ratios.push(off / on);
        let (dec_on, dec_off) = time_pair(i, || decode(&mut dscratch_tr), || decode(&mut dscratch));
        trace_dec_ratios.push(dec_off / dec_on);
    }
    let tracing_enc_ratio = median(&mut trace_enc_ratios);
    let tracing_dec_ratio = median(&mut trace_dec_ratios);
    let tracing_events = flight.recorded_events();

    // 6. Ground-segment ship/ingest paths: a fixed downlink burst through
    //    per-record appends vs group-commit ingest (fsync on, so the
    //    one-fsync-per-batch amortization is what's measured), and
    //    through the synchronous vs pipelined two-station ship path.
    let burst: Vec<ReferenceImage> = (0..192u32)
        .map(|i| {
            let full = Raster::filled(64, 64, (i % 7) as f32 / 7.0);
            ReferenceImage::from_capture(
                LocationId(i % 24),
                scene.config().bands[0],
                10.0 + (i / 24) as f64,
                &full,
                8,
            )
            .expect("downsample factor fits")
        })
        .collect();
    let scratch_root = std::env::temp_dir().join(format!(
        "earthplus-perf-baseline-ground-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch_root);
    let fsync_log = RefLogConfig {
        fsync_appends: true,
        ..RefLogConfig::default()
    };
    let ground_reps = if quick { 2 } else { 5 };
    // The plain durable store has nothing to ship, so the ingest legs time
    // appends alone.
    let open_durable = |dir: &std::path::Path| {
        ReplicatedReferenceStore::open(
            dir,
            4,
            StationSetConfig::single(fsync_log),
            &earthplus::TelemetrySink::disabled(),
            &earthplus::TraceSink::disabled(),
        )
        .expect("store opens")
        .0
    };
    let mut per_record_times = Vec::new();
    let mut grouped_times = Vec::new();
    let (mut per_record_fsyncs, mut grouped_fsyncs) = (0u64, 0u64);
    let (mut ship_sync_times, mut ship_pipelined_times) = (Vec::new(), Vec::new());
    for rep in 0..ground_reps {
        let dir = scratch_root.join(format!("ingest-single-{rep}"));
        let store = open_durable(&dir);
        let refs = burst.clone();
        let t = Instant::now();
        for reference in refs {
            store.offer(reference);
        }
        per_record_times.push(t.elapsed().as_secs_f64());
        per_record_fsyncs = store.stats().store.fsyncs_issued;

        let dir = scratch_root.join(format!("ingest-grouped-{rep}"));
        let store = open_durable(&dir);
        let refs = burst.clone();
        let t = Instant::now();
        store.ingest_batch(refs, 1);
        grouped_times.push(t.elapsed().as_secs_f64());
        grouped_fsyncs = store.stats().store.fsyncs_issued;

        for (pipelined, times) in [
            (false, &mut ship_sync_times),
            (true, &mut ship_pipelined_times),
        ] {
            let dir = scratch_root.join(format!("ship-{pipelined}-{rep}"));
            let (store, _) = ReplicatedReferenceStore::open(
                &dir,
                4,
                StationSetConfig {
                    stations: 2,
                    replicas: 1,
                    queue: ShipQueueConfig {
                        pipelined,
                        ..ShipQueueConfig::default()
                    },
                    ..StationSetConfig::default()
                },
                &earthplus::TelemetrySink::disabled(),
                &earthplus::TraceSink::disabled(),
            )
            .expect("station set opens");
            let refs = burst.clone();
            let t = Instant::now();
            for reference in refs {
                store.offer(reference);
            }
            store.quiesce();
            times.push(t.elapsed().as_secs_f64());
        }
    }
    let ingest_per_record_s = median(&mut per_record_times);
    let ingest_grouped_s = median(&mut grouped_times);
    let ship_sync_s = median(&mut ship_sync_times);
    let ship_pipelined_s = median(&mut ship_pipelined_times);

    // 7. The constellation pass planner: 48 satellites x 7 windows over
    //    1024 in-memory keys with 8x8 references. A cold pass installs
    //    every key on every satellite; each timed pass follows one day's
    //    128 ground updates, of which one in eight changes no pixel (the
    //    cached day advances for free instead of an update being sent).
    let plan_band = scene.config().bands[0];
    let plan_keys: Vec<(LocationId, Band)> =
        (0..1024u32).map(|l| (LocationId(l), plan_band)).collect();
    let mut plan_content: Vec<Raster> = (0..1024)
        .map(|k| Raster::filled(8, 8, (k % 13) as f32 / 13.0))
        .collect();
    let plan_store = ShardedReferenceStore::default();
    let offer_day = |content: &mut [Raster], day: u32| {
        for (k, raster) in content.iter_mut().enumerate() {
            if day > 0 && k % 8 != day as usize % 8 {
                continue;
            }
            if day > 0 && (k / 8) % 8 != 0 {
                let lowres = raster.as_mut_slice();
                for j in 0..1 + k % 6 {
                    let i = (day as usize * 5 + j * 9) % lowres.len();
                    lowres[i] = (lowres[i] + 0.25) % 1.0;
                }
            }
            plan_store.offer(ReferenceImage {
                location: LocationId(k as u32),
                band: plan_band,
                captured_day: f64::from(day),
                lowres: raster.clone(),
                downsample: 8,
                full_width: 64,
                full_height: 64,
            });
        }
    };
    let pass_windows = |day: u32| -> Vec<ContactWindow> {
        (0..48u32)
            .flat_map(|s| {
                (0..7u32).map(move |w| ContactWindow {
                    satellite: SatelliteId(s),
                    day: f64::from(day) + 0.5 + f64::from(w) / 16.0,
                    budget_bytes: 1 << 16,
                })
            })
            .collect()
    };
    let planner = ConstellationScheduler::new(0.01);
    let mut plan_caches = std::collections::HashMap::new();
    offer_day(&mut plan_content, 0);
    planner.plan_pass(
        &plan_store,
        &mut plan_caches,
        &plan_keys,
        &pass_windows(0),
        EvictingReferenceCache::default,
    );
    let (mut pass_times, mut plan_deltas_sent) = (Vec::new(), 0usize);
    for day in 1..=if quick { 15 } else { 45 } {
        offer_day(&mut plan_content, day);
        let windows = pass_windows(day);
        let t = Instant::now();
        let reports = planner.plan_pass(
            &plan_store,
            &mut plan_caches,
            &plan_keys,
            &windows,
            EvictingReferenceCache::default,
        );
        pass_times.push(t.elapsed().as_secs_f64());
        plan_deltas_sent = reports.iter().map(|r| r.deltas_sent).sum();
    }
    let plan_pass_s = median(&mut pass_times);

    // 8. The pass boundary on an in-sync replicated store with the mission
    //    ground segment's topology and ship path (two stations, one
    //    replica, pipelined workers) over 16 shards: after the burst is
    //    ingested and shipped, every quiesce + replicate + maintain has
    //    nothing to do.
    let boundary_dir = scratch_root.join("pass-boundary");
    let (boundary, _) = ReplicatedReferenceStore::open(
        &boundary_dir,
        16,
        StationSetConfig {
            stations: 2,
            replicas: 1,
            queue: ShipQueueConfig {
                pipelined: true,
                ..ShipQueueConfig::default()
            },
            ..StationSetConfig::default()
        },
        &earthplus::TelemetrySink::disabled(),
        &earthplus::TraceSink::disabled(),
    )
    .expect("station set opens");
    boundary.ingest_batch(burst.clone(), 1);
    let pass_boundary = || {
        boundary.quiesce();
        boundary.replicate();
        boundary.maintain();
    };
    pass_boundary();
    let boundary_passes = if quick { 200 } else { 2000 };
    let checks_before = boundary.stats().ship_checks;
    let mut boundary_times = Vec::with_capacity(boundary_passes);
    for _ in 0..boundary_passes {
        boundary_times.push(seconds(pass_boundary));
    }
    let pass_boundary_checks = boundary.stats().ship_checks - checks_before;
    let pass_boundary_s = median(&mut boundary_times);
    drop(boundary);
    let _ = std::fs::remove_dir_all(&scratch_root);

    let (enc_dwt_s, enc_bitplane_s, enc_quant_s, enc_other_s) = enc_stages.report(serial_s);
    let (dec_dwt_s, dec_bitplane_s, dec_quant_s, dec_other_s) = dec_stages.report(dec_full_s);
    let (dec1_dwt_s, dec1_bitplane_s, dec1_quant_s, dec1_other_s) =
        dec_epc1_stages.report(dec_epc1_s);
    let json = format!(
        r#"{{
  "schema": 13,
  "scenario": "Earth+ strategy on the quick scene (seed 7, agriculture, {w}x{h}, {bands} bands)",
  "mode": "{mode}",
  "samples": {reps},
  "capture": {{
    "total_s": {total_s:.6},
    "cloud_s": {cloud_s:.6},
    "change_s": {change_s:.6},
    "encode_s": {encode_s:.6},
    "capture_mpix": {capture_mpix:.4},
    "encoded_mpix": {encoded_mpix:.4},
    "pipeline_mpix_per_s": {pipeline_rate:.3}
  }},
  "encode_full_band": {{
    "format": "EPC2",
    "seconds": {epc2_s:.6},
    "mpix_per_s": {full_encode_mpix_s:.3},
    "workers": {workers},
    "serial_seconds": {serial_s:.6},
    "serial_mpix_per_s": {serial_mpix_s:.3},
    "reference_seconds": {ref_s:.6},
    "speedup_vs_reference": {speedup_vs_reference:.3},
    "tiles": {tiles},
    "budget_bytes_per_tile": {budget},
    "wire_bytes_per_tile": {wire_bytes_per_tile:.3},
    "header_bytes_per_tile": {header_bytes_per_tile:.3},
    "stages": {{
      "dwt_s": {enc_dwt_s:.6},
      "bitplane_s": {enc_bitplane_s:.6},
      "quantize_s": {enc_quant_s:.6},
      "other_s": {enc_other_s:.6}
    }}
  }},
  "decode_full": {{
    "format": "EPC2",
    "seconds": {dec_full_s:.6},
    "mpix_per_s": {decode_full_mpix_s:.3},
    "workers": {decode_workers},
    "stages": {{
      "bitplane_s": {dec_bitplane_s:.6},
      "dequantize_s": {dec_quant_s:.6},
      "inverse_dwt_s": {dec_dwt_s:.6},
      "other_s": {dec_other_s:.6}
    }}
  }},
  "decode_full_epc1": {{
    "format": "EPC1",
    "seconds": {dec_epc1_s:.6},
    "mpix_per_s": {decode_epc1_mpix_s:.3},
    "stages": {{
      "bitplane_s": {dec1_bitplane_s:.6},
      "dequantize_s": {dec1_quant_s:.6},
      "inverse_dwt_s": {dec1_dwt_s:.6},
      "other_s": {dec1_other_s:.6}
    }}
  }},
  "range_coder": {{
    "decisions": {rc_decisions},
    "encode_ns_per_decision": {rc_enc_ns:.3},
    "decode_ns_per_decision": {rc_dec_ns:.3}
  }},
  "decode_ll_only": {{
    "seconds": {dec_ll_s:.6},
    "mpix_per_s": {decode_ll_mpix_s:.3},
    "output_pixels": {ll_pixels},
    "speedup_vs_full_plus_downsample": {ll_speedup:.3}
  }},
  "telemetry_overhead": {{
    "enabled_seconds": {telemetry_on_s:.6},
    "disabled_seconds": {telemetry_off_s:.6},
    "enabled_mpix_per_s": {tel_on_rate:.3},
    "disabled_mpix_per_s": {tel_off_rate:.3},
    "throughput_ratio": {telemetry_ratio:.3},
    "decode_enabled_seconds": {telemetry_dec_on_s:.6},
    "decode_disabled_seconds": {telemetry_dec_off_s:.6},
    "decode_throughput_ratio": {telemetry_dec_ratio:.3},
    "min_ratio": {TELEMETRY_MIN_RATIO}
  }},
  "tracing_overhead": {{
    "encode_throughput_ratio": {tracing_enc_ratio:.3},
    "decode_throughput_ratio": {tracing_dec_ratio:.3},
    "recorded_events": {tracing_events},
    "min_ratio": {TRACING_MIN_RATIO}
  }},
  "ship_pipeline": {{
    "burst_refs": 192,
    "ingest_per_record_s": {ingest_per_record_s:.6},
    "ingest_grouped_s": {ingest_grouped_s:.6},
    "ingest_fsyncs_per_record": {per_record_fsyncs},
    "ingest_fsyncs_grouped": {grouped_fsyncs},
    "fsync_amortization": {fsync_amortization:.3},
    "ship_sync_s": {ship_sync_s:.6},
    "ship_pipelined_s": {ship_pipelined_s:.6}
  }},
  "plan_pass": {{
    "satellites": 48,
    "windows": 336,
    "keys": 1024,
    "updates_per_pass": 128,
    "pass_ms": {plan_pass_ms:.3},
    "passes_per_s": {plan_passes_per_s:.3},
    "deltas_sent": {plan_deltas_sent}
  }},
  "pass_boundary": {{
    "stations": 2,
    "replicas": 1,
    "shards": 16,
    "passes": {boundary_passes},
    "pass_us": {pass_boundary_us:.3},
    "ship_checks": {pass_boundary_checks}
  }},
  "codec_scratch": {{
    "reserved_bytes": {reserved},
    "steady_state_grow_events": {steady_grow_events}
  }},
  "decode_scratch": {{
    "reserved_bytes": {decode_reserved},
    "steady_state_grow_events": {decode_steady_grow_events}
  }}
}}
"#,
        mode = if quick { "quick" } else { "full" },
        pipeline_rate = capture_mpix / total_s,
        fsync_amortization = per_record_fsyncs as f64 / grouped_fsyncs.max(1) as f64,
        plan_pass_ms = plan_pass_s * 1e3,
        plan_passes_per_s = 1.0 / plan_pass_s,
        pass_boundary_us = pass_boundary_s * 1e6,
        tel_on_rate = band_mpix / telemetry_on_s,
        tel_off_rate = band_mpix / telemetry_off_s,
        reserved = scratch.reserved_bytes(),
        ll_pixels = ll.len(),
        decode_reserved = dscratch.reserved_bytes(),
    );
    options.emit(&json);
    print!("{json}");
    if let Some(path) = &options.telemetry_out {
        std::fs::write(path, registry.snapshot().to_jsonl()).expect("write telemetry snapshot");
        eprintln!("wrote {path}");
    }
    if telemetry_ratio < TELEMETRY_MIN_RATIO {
        eprintln!(
            "ERROR: telemetry-enabled encode runs at {telemetry_ratio:.3}x the disabled \
             throughput (floor {TELEMETRY_MIN_RATIO}x)"
        );
        std::process::exit(1);
    }
    if telemetry_dec_ratio < TELEMETRY_MIN_RATIO {
        eprintln!(
            "ERROR: telemetry-enabled decode runs at {telemetry_dec_ratio:.3}x the disabled \
             throughput (floor {TELEMETRY_MIN_RATIO}x)"
        );
        std::process::exit(1);
    }
    if tracing_enc_ratio < TRACING_MIN_RATIO {
        eprintln!(
            "ERROR: recorder-enabled encode runs at {tracing_enc_ratio:.3}x the \
             tracing-disabled throughput (floor {TRACING_MIN_RATIO}x)"
        );
        std::process::exit(1);
    }
    if tracing_dec_ratio < TRACING_MIN_RATIO {
        eprintln!(
            "ERROR: recorder-enabled decode runs at {tracing_dec_ratio:.3}x the \
             tracing-disabled throughput (floor {TRACING_MIN_RATIO}x)"
        );
        std::process::exit(1);
    }
    if steady_grow_events != 0 {
        eprintln!("ERROR: codec scratch grew during steady state ({steady_grow_events} events)");
        std::process::exit(1);
    }
    if decode_steady_grow_events != 0 {
        eprintln!(
            "ERROR: decode scratch grew during steady state ({decode_steady_grow_events} events)"
        );
        std::process::exit(1);
    }
    if grouped_fsyncs * 2 > per_record_fsyncs {
        eprintln!(
            "ERROR: group-commit ingest issued {grouped_fsyncs} fsyncs vs {per_record_fsyncs} \
             per-record — the one-fsync-per-batch amortization regressed"
        );
        std::process::exit(1);
    }
    // Compared at the printed precision: a stage the report shows as 0
    // has left the ledger (see the module docs).
    let mut untimed = false;
    for (stage, seconds) in [
        ("encode_full_band.stages.dwt_s", enc_dwt_s),
        ("encode_full_band.stages.bitplane_s", enc_bitplane_s),
        ("encode_full_band.stages.quantize_s", enc_quant_s),
        ("decode_full.stages.bitplane_s", dec_bitplane_s),
        ("decode_full.stages.dequantize_s", dec_quant_s),
        ("decode_full.stages.inverse_dwt_s", dec_dwt_s),
        ("decode_full_epc1.stages.bitplane_s", dec1_bitplane_s),
        ("decode_full_epc1.stages.dequantize_s", dec1_quant_s),
        ("decode_full_epc1.stages.inverse_dwt_s", dec1_dwt_s),
    ] {
        if (seconds * 1e6).round() == 0.0 {
            eprintln!("ERROR: {stage} reads 0 — the stage is no longer timed");
            untimed = true;
        }
    }
    if untimed {
        std::process::exit(1);
    }
    if ll_speedup < DECODE_LL_MIN_SPEEDUP {
        eprintln!(
            "ERROR: decode_ll_only is only {ll_speedup:.2}x faster than full decode + \
             downsample_box (floor {DECODE_LL_MIN_SPEEDUP}x)"
        );
        std::process::exit(1);
    }
    if let Some((path, committed)) = &options.check {
        let run = Checked {
            encode_mpix_s: full_encode_mpix_s,
            decode_full_mpix_s,
            decode_epc1_mpix_s,
            header_bytes_per_tile,
            passes_per_s: 1.0 / plan_pass_s,
            deltas_sent: plan_deltas_sent,
            pass_boundary_checks,
        };
        if !check_against(committed, path, &run) {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--check X` alone, the documented gate, compares the run against
    /// X's committed values and leaves X byte-identical; only a run
    /// without `--check` writes the baseline file by default.
    #[test]
    fn check_alone_gates_against_the_baseline_and_leaves_it_unchanged() {
        let options = Options::parse(["--quick".to_owned()]).unwrap();
        assert_eq!(options.out.as_deref(), Some("BENCH_pipeline.json"));
        assert!(Options::parse(["--bogus".to_owned()]).is_err());
        assert!(Options::parse(["--check".to_owned()]).is_err());

        let dir = std::env::temp_dir().join(format!(
            "earthplus-perf-baseline-check-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        let baseline = include_str!("../../../../BENCH_pipeline.json");
        std::fs::write(&path, baseline).unwrap();
        let path = path.to_str().unwrap().to_owned();

        let options = Options::parse(["--quick".to_owned(), "--check".to_owned(), path.clone()])
            .expect("options parse");
        assert_eq!(options.out, None, "a check run must not write a report");
        let (check_path, committed) = options.check.as_ref().expect("--check is set");
        assert_eq!(committed, baseline, "the baseline is read before the run");
        options.emit("{}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), baseline);

        // A run at the committed values passes; one at a third of every
        // committed rate fails.
        let value = |section, key| committed_value(baseline, section, key).unwrap();
        let run_at = |scale: f64| Checked {
            encode_mpix_s: value("encode_full_band", "mpix_per_s") * scale,
            decode_full_mpix_s: value("decode_full", "mpix_per_s") * scale,
            decode_epc1_mpix_s: value("decode_full_epc1", "mpix_per_s") * scale,
            header_bytes_per_tile: value("encode_full_band", "header_bytes_per_tile"),
            passes_per_s: value("plan_pass", "passes_per_s") * scale,
            deltas_sent: value("plan_pass", "deltas_sent") as usize,
            pass_boundary_checks: value("pass_boundary", "ship_checks") as u64,
        };
        assert!(check_against(committed, check_path, &run_at(1.0)));
        assert!(!check_against(committed, check_path, &run_at(1.0 / 3.0)));
        // A pass boundary that checks one shard more fails the exact gate.
        let run = Checked {
            pass_boundary_checks: run_at(1.0).pass_boundary_checks + 1,
            ..run_at(1.0)
        };
        assert!(!check_against(committed, check_path, &run));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
