//! The two mission workloads: a rendered tape of contact passes and
//! captures replayed through `EarthPlusStrategy` on the replicated,
//! fsync-on-append ground segment.

use crate::metrics::Tally;
use crate::spans::{timed, SpanLog};
use crate::store::{
    check_restart, first_store_open, ground_config, ground_layers, Held, Observability, StoreDir,
};
use crate::tape::{self, Event, MissionSpec, MissionTape, Perturbation, SetupTimes};
use crate::workload::{
    hist_count, hist_s, hist_sum, pass_layers, ratio, Layers, Rep, Workload, SCENARIO_SEED,
};
use earthplus::{
    CaptureContext, CaptureReport, CompressionStrategy, EarthPlusConfig, EarthPlusStrategy,
    UplinkReport,
};
use earthplus_raster::{Band, LocationId};
use earthplus_refstore::RefLogConfig;
use earthplus_scene::terrain::LocationArchetype;
use earthplus_scene::{DatasetConfig, SceneConfig};
use earthplus_telemetry::names;
use std::time::Instant;

/// Salt separating the constellation dataset's scenes from the rich
/// dataset's under one seed.
const CONSTELLATION_SALT: u64 = 0x91A4_E7C0;

/// First mission day on every tape: the 40 days before it are the
/// profiling period the detector trains on, as in the simulator.
const FROM_DAY: u32 = 40;

/// The Sentinel-2-like dataset: 11 locations x 13 bands, 2 satellites
/// with 10-15-day revisits, no cloud filter.
fn rich_dataset(seed: u64, smoke: bool) -> DatasetConfig {
    let mut dataset = earthplus_scene::rich_content(seed, if smoke { 64 } else { 192 });
    if smoke {
        dataset.locations.truncate(3);
    }
    dataset
}

/// The Planet-like constellation dataset widened to eight locations so
/// the 48 satellites meet varied terrain: 4 bands at 256 px, cloud filter
/// off so the on-board detector does the dropping.
fn constellation_dataset(seed: u64, smoke: bool) -> DatasetConfig {
    use LocationArchetype::{Agriculture, City, Coastal, Forest, Mountain, River};
    let archetypes = [
        Coastal,
        Agriculture,
        City,
        Forest,
        River,
        Mountain,
        Coastal,
        Agriculture,
    ];
    let (size, count) = if smoke {
        (64, 3)
    } else {
        (256, archetypes.len())
    };
    let locations = archetypes[..count]
        .iter()
        .enumerate()
        .map(|(i, &archetype)| {
            let mut config = SceneConfig::new(
                seed ^ CONSTELLATION_SALT,
                LocationId(i as u32),
                archetype,
                size,
                size,
                Band::planet_all(),
            );
            config.gsd_m = 3.7;
            config
        })
        .collect();
    DatasetConfig {
        name: "planet-constellation-8",
        locations,
        duration_days: 90,
        satellite_count: 48,
        capture_cloud_filter: None,
    }
}

/// Which mission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `mission_rich`.
    Rich,
    /// `mission_constellation`.
    Constellation,
}

/// The spec of a mission workload. Days are what the set-up budget buys:
/// a run renders its tape three times inside a fixed wall-clock budget,
/// so the year of `mission_rich` and the quarter of
/// `mission_constellation` are cut to the days below, never the image
/// size, the band count or the backend.
pub fn spec(
    kind: Kind,
    scenario_seed: u64,
    perturbation: Option<Perturbation>,
    smoke: bool,
) -> MissionSpec {
    let dataset_of = match kind {
        Kind::Rich => rich_dataset,
        Kind::Constellation => constellation_dataset,
    };
    let days = match (kind, smoke) {
        (_, true) => 20,
        (Kind::Rich, false) => 60,
        (Kind::Constellation, false) => 20,
    };
    MissionSpec {
        dataset: dataset_of(scenario_seed, smoke),
        perturbation,
        scenario_seed,
        from_day: FROM_DAY,
        days,
        train_days: if smoke { 6 } else { 10 },
    }
}

/// A mission workload ready to replay.
#[derive(Debug)]
pub struct Mission {
    tape: MissionTape,
}

impl Mission {
    /// Renders the tape (the set-up).
    pub fn build(kind: Kind, seed: u64, smoke: bool) -> Self {
        let tape = tape::build(&spec(kind, SCENARIO_SEED, Some(Perturbation(seed)), smoke));
        first_store_open(tape.targets.clone(), RefLogConfig::default());
        Mission { tape }
    }

    /// The rendered tape.
    pub fn tape(&self) -> &MissionTape {
        &self.tape
    }
}

/// What the replay loop gathers beyond the shared [`Tally`].
#[derive(Debug, Default)]
struct StageSums {
    cloud_s: f64,
    change_s: f64,
    on_capture_s: f64,
    dropped: u64,
    kept: u64,
    guaranteed: u64,
    tile_fraction: f64,
    age_sum: f64,
    age_n: u64,
}

/// Everything one pass over the events produced.
#[derive(Debug)]
pub struct Driven {
    /// End-to-end observations.
    pub tally: Tally,
    sums: StageSums,
    /// Wall seconds of the loop.
    pub wall_s: f64,
    /// Every capture report, in tape order.
    pub captures: Vec<CaptureReport>,
    /// Every uplink report, in tape order.
    pub uplink: Vec<UplinkReport>,
}

/// Replays `events` through `strategy`, timing every call from outside.
/// This loop is the load model: one client, the next event issued when
/// the previous call returns.
pub fn drive(
    events: &[Event],
    pixels_per_band: usize,
    strategy: &mut EarthPlusStrategy,
    spans: &mut SpanLog,
) -> Driven {
    let mut tally = Tally::default();
    let mut sums = StageSums::default();
    let mut captures = Vec::new();
    let mut uplink = Vec::new();
    let start = Instant::now();
    spans.open_scope("bench.replay", 0, start);
    for (index, event) in events.iter().enumerate() {
        let id = index as u64;
        match event {
            Event::Pass(windows) => {
                let (reports, s) = timed(spans, "ground.plan_pass", id, || {
                    strategy.on_contact_pass(windows)
                });
                tally.pass(&format!("event {index}"), windows.len(), &reports, s);
                uplink.extend(reports);
            }
            Event::Capture(c) => {
                let ctx = CaptureContext {
                    day: c.day,
                    satellite: c.satellite,
                    location: c.location,
                    capture: &c.capture,
                };
                let (r, s) = timed(spans, "core.on_capture", id, || strategy.on_capture(&ctx));
                tally.captures += 1;
                tally.attempted += 1;
                tally.downlink_bytes += r.downloaded_bytes;
                tally.outputs.f64(r.day);
                tally.outputs.u64(r.satellite.0 as u64);
                tally.outputs.u64(r.location.0 as u64);
                tally.outputs.u64(r.dropped as u64);
                tally.outputs.u64(r.downloaded_bytes);
                sums.cloud_s += r.timings.cloud_s;
                sums.on_capture_s += s;
                if r.dropped {
                    sums.dropped += 1;
                    captures.push(r);
                    continue;
                }
                let onboard_s = r.timings.total_s();
                let bands = c.capture.image.band_count() as f64;
                let pixels = r.downloaded_tile_fraction * bands * pixels_per_band as f64;
                tally.onboard_ms.push(onboard_s * 1e3);
                tally.capture_ms.push(s * 1e3);
                tally.encode_px += pixels;
                tally.encode_s += r.timings.encode_s;
                // The tile decode has no seam outside `on_capture`: the
                // denominator is the whole ground side of the call
                // (decode, belief patch, scoring, durable admit).
                tally.decode_px += pixels;
                tally.decode_s += s - onboard_s;
                match r.psnr_db {
                    Some(db) => tally.psnr(db),
                    None => tally.fail(|| format!("event {index}: kept capture without a PSNR")),
                }
                sums.kept += 1;
                sums.change_s += r.timings.change_s;
                sums.guaranteed += r.guaranteed as u64;
                sums.tile_fraction += r.downloaded_tile_fraction;
                if let Some(age) = r.reference_age_days {
                    sums.age_sum += age;
                    sums.age_n += 1;
                }
                captures.push(r);
            }
        }
    }
    let wall = start.elapsed();
    spans.close_scope(wall);
    Driven {
        tally,
        sums,
        wall_s: wall.as_secs_f64(),
        captures,
        uplink,
    }
}

impl Workload for Mission {
    fn setup_times(&self) -> SetupTimes {
        self.tape.setup
    }

    fn identity(&self) -> u64 {
        tape::hash(&self.tape)
    }

    fn warm_up(&self) {
        // The first captures of the tape on a throwaway ground segment:
        // page in the binary, grow the allocator's pools, open and close
        // one replicated store.
        let dir = StoreDir::fresh("warm");
        let config = ground_config(
            dir.path(),
            self.tape.targets.clone(),
            RefLogConfig::default(),
            None,
        );
        let mut strategy = EarthPlusStrategy::with_ground_config(
            EarthPlusConfig::paper(),
            self.tape.detector.clone(),
            config,
        );
        let prefix = &self.tape.events[..self.tape.events.len().min(24)];
        drive(
            prefix,
            self.tape.pixels_per_band,
            &mut strategy,
            &mut SpanLog::disabled(),
        );
    }

    fn replay(&self, spans: &mut SpanLog) -> Rep {
        let tape = &self.tape;
        let dir = StoreDir::fresh("mission");
        let log = RefLogConfig::default();
        let observe = spans.is_enabled().then(Observability::default);
        let config = ground_config(dir.path(), tape.targets.clone(), log, observe.as_ref());
        let mut strategy = EarthPlusStrategy::with_ground_config(
            EarthPlusConfig::paper(),
            tape.detector.clone(),
            config,
        );

        let Driven {
            mut tally,
            sums,
            wall_s,
            ..
        } = drive(&tape.events, tape.pixels_per_band, &mut strategy, spans);
        let ((), sync_s) = timed(spans, "ground.sync", u64::MAX, || strategy.ground().sync());

        let stats = strategy.ground().stats();
        tally.refs_offered = stats.ingest_accepted + stats.ingest_rejected;
        let held = Held::of(strategy.ground());
        let mut layers = Layers::new();
        if let Some(o) = &observe {
            let snapshot = o.registry.snapshot();
            ground_layers(&mut layers, strategy.ground(), &snapshot, &dir);
            let decode_s = hist_s(&snapshot, names::CODEC_DECODE_EPC1_NS)
                + hist_s(&snapshot, names::CODEC_DECODE_EPC2_NS)
                + hist_s(&snapshot, names::CODEC_DECODE_PARTIAL_NS);
            let ingest_s = hist_s(&snapshot, names::GROUND_INGEST_NS);
            let captures = tally.captures as f64;
            layers.insert("cloud.detect_s", sums.cloud_s);
            layers.insert("cloud.dropped_share", ratio(sums.dropped as f64, captures));
            layers.insert("core.change_s", sums.change_s);
            layers.insert(
                "core.changed_tile_fraction",
                ratio(sums.tile_fraction, sums.kept as f64),
            );
            layers.insert(
                "core.reference_age_days_mean",
                ratio(sums.age_sum, sums.age_n as f64),
            );
            layers.insert(
                "core.guaranteed_share",
                ratio(sums.guaranteed as f64, sums.kept as f64),
            );
            layers.insert("core.on_capture_s", sums.on_capture_s);
            layers.insert("core.ground_side_s", tally.decode_s);
            // Self time of the strategy's ground side: its own stage
            // histogram spans decode + patch + scoring, the codec's spans
            // the decode alone.
            layers.insert(
                "core.ground_patch_s",
                (hist_s(&snapshot, names::STAGE_GROUND_PATCH_NS) - decode_s).max(0.0),
            );
            layers.insert("codec.encode_s", tally.encode_s);
            layers.insert(
                "codec.encode_calls",
                hist_count(&snapshot, names::CODEC_ENCODE_EPC1_NS)
                    + hist_count(&snapshot, names::CODEC_ENCODE_EPC2_NS),
            );
            layers.insert(
                "codec.encode_bytes",
                hist_sum(&snapshot, names::CODEC_ENCODE_BYTES),
            );
            layers.insert("codec.decode_s", decode_s);
            layers.insert(
                "codec.decode_calls",
                hist_count(&snapshot, names::CODEC_DECODE_EPC1_NS)
                    + hist_count(&snapshot, names::CODEC_DECODE_EPC2_NS)
                    + hist_count(&snapshot, names::CODEC_DECODE_PARTIAL_NS),
            );
            layers.insert(
                "codec.scratch_grow_events",
                (strategy.codec_scratch().grow_events() + strategy.decode_scratch().grow_events())
                    as f64,
            );
            layers.insert(
                "codec.scratch_reserved_kb",
                (strategy.codec_scratch().reserved_bytes()
                    + strategy.decode_scratch().reserved_bytes()) as f64
                    / 1024.0,
            );
            pass_layers(&mut layers, &tally);
            // The durable append nests inside the ingest span on the
            // replay thread; subtract it so the two rows do not overlap.
            let append_s = layers.get("refstore.append_s").copied().unwrap_or(0.0);
            layers.insert("ground.ingest_s", (ingest_s - append_s).max(0.0));
            layers.insert("ground.sync_s", sync_s);
            layers.insert("bench.replay_wall_s", wall_s + sync_s);
        }

        // Joins the ship workers and closes the logs before the restart.
        drop(strategy);
        check_restart(dir.path(), log, &held, spans, &mut tally, &mut layers);
        Rep {
            wall_s,
            tally,
            layers,
            trace: observe.map(|o| o.recorder.log()),
        }
    }
}
