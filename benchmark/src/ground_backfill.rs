//! `ground_backfill`: the ground segment's day, driven directly.
//!
//! Each tape day offers archived EPC2 captures through `ingest_encoded`,
//! one live downlink through the codec (ROI encode on board, tile decode
//! on the ground), a batch of references through one
//! `ingest_downlink_batch`, plans one constellation-wide pass, and reads
//! references back through `serve_reference` — writes beside reads and
//! scheduling on one replicated, fsync-on-append store. The replay ends
//! with `sync`, a drop, and restarts from disk.
//!
//! The key schedule (which key is offered when, which arrives late, who
//! reads what) and the scenes derive from the scenario seed; `--seed`
//! orients each scene and draws the sensor noise of every source band.

use crate::metrics::Tally;
use crate::spans::{timed, SpanLog};
use crate::stats::Fnv;
use crate::store::{
    check_restart, first_store_open, ground_config, ground_layers, Held, Observability, StoreDir,
};
use crate::tape::{mix, Perturbation, SetupTimes};
use crate::workload::{
    hist_count, hist_s, pass_layers, ratio, Layers, Rep, Workload, SCENARIO_SEED,
    SMOKE_PSNR_FLOOR_DB,
};
use earthplus_codec::{
    encode_roi_with_scratch, encode_with_budget, tile_budget_bytes, CodecConfig, CodecScratch,
    DecodeScratch, EncodedImage,
};
use earthplus_ground::{ContactWindow, GroundService, ReferenceImage};
use earthplus_orbit::{LinkModel, SatelliteId};
use earthplus_raster::{psnr, Band, LocationId, Raster, TileGrid, TileMask};
use earthplus_refstore::RefLogConfig;
use earthplus_scene::terrain::LocationArchetype;
use earthplus_scene::{LocationScene, SceneConfig};
use earthplus_telemetry::names;
use std::collections::HashMap;
use std::time::Instant;

/// Per-axis downsampling of every reference in this workload.
const REFERENCE_DOWNSAMPLE: usize = 16;
/// Contacts per satellite per day (the Doves figure).
const CONTACTS_PER_DAY: usize = 7;
/// Tile side of the live capture's ROI encode.
const TILE: usize = 64;
/// Bits per pixel of archived streams and live tiles.
const GAMMA_BPP: f64 = 1.0;
/// Reconstruction floor (dB) under which a live round trip counts as a
/// failed operation: 1 dB under the lowest PSNR the first committed runs
/// produced over seeds 1-20 (25.10 dB).
const LIVE_PSNR_FLOOR_DB: f64 = 24.1;

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    locations: u32,
    days: u32,
    archived_per_day: usize,
    batch_per_day: usize,
    satellites: u32,
    serves_per_day: usize,
    source_px: usize,
    scenes: usize,
    generations: usize,
}

impl Shape {
    fn of(smoke: bool) -> Self {
        if smoke {
            Shape {
                locations: 32,
                days: 6,
                archived_per_day: 16,
                batch_per_day: 16,
                satellites: 8,
                serves_per_day: 64,
                source_px: 64,
                scenes: 2,
                generations: 3,
            }
        } else {
            // 256 locations x 4 bands = 1024 keys. 48 days instead of the
            // 120 first proposed: the run's measuring window then holds
            // five replays or more, and the compaction threshold below is
            // lowered in proportion so the store still compacts inside
            // every replay.
            Shape {
                locations: 256,
                days: 48,
                archived_per_day: 64,
                batch_per_day: 64,
                satellites: 48,
                serves_per_day: 512,
                source_px: 128,
                scenes: 8,
                generations: 6,
            }
        }
    }
}

/// Storage-engine tuning: defaults, except that compaction may start at
/// 16 KiB of dead bytes per shard log instead of 256 KiB. At this
/// workload's write rate (about 2.4 KB superseded per shard per day) the
/// default would never compact within the tape, and background work that
/// never runs cannot show in `refs_per_s` or `plan_pass_p95_ms`.
fn log_config() -> RefLogConfig {
    RefLogConfig {
        compact_min_dead_bytes: 16 << 10,
        ..RefLogConfig::default()
    }
}

/// splitmix64: the schedule's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

type Key = (LocationId, Band);

/// One offer of imagery for a key: which rendered source, stamped when.
#[derive(Debug, Clone, Copy)]
struct Offer {
    key: Key,
    day: f64,
    source: usize,
}

/// One tape day.
#[derive(Debug)]
struct Day {
    /// The live downlink: rendered band in, reference out.
    live: Offer,
    /// Archived EPC2 captures for `ingest_encoded`.
    archived: Vec<Offer>,
    /// References for the day's `ingest_downlink_batch` (the live
    /// capture's reference joins them in the replay).
    batch: Vec<ReferenceImage>,
    /// The day's pass.
    pass: Vec<ContactWindow>,
    /// `(satellite, key)` reads; every key was offered on an earlier day.
    serves: Vec<(SatelliteId, Key)>,
}

/// The rendered workload.
#[derive(Debug)]
pub struct GroundBackfill {
    days: Vec<Day>,
    /// Rendered source bands.
    sources: Vec<Raster>,
    /// `sources[i]` encoded as an archived EPC2 stream.
    archive: Vec<EncodedImage>,
    /// Freshest day the tape offers per key.
    expected: HashMap<Key, f64>,
    psnr_floor_db: f64,
    setup: SetupTimes,
}

impl GroundBackfill {
    /// Renders sources, encodes the archive and lays out the schedule.
    pub fn build(seed: u64, smoke: bool) -> Self {
        let shape = Shape::of(smoke);
        let bands = Band::planet_all();
        let mut setup = SetupTimes::default();

        // Sources: `scenes` clear-sky locations seen on `generations`
        // days, so successive generations of a key differ the way a
        // location differs a few days apart.
        let t = Instant::now();
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
        let mut sources = Vec::new();
        for (i, &archetype) in archetypes.iter().take(shape.scenes).enumerate() {
            let scene = LocationScene::new(SceneConfig::new(
                SCENARIO_SEED ^ 0xB4C_F111,
                LocationId(i as u32),
                archetype,
                shape.source_px,
                shape.source_px,
                bands.clone(),
            ));
            for generation in 0..shape.generations {
                let capture = scene.capture_with_coverage(40.0 + 5.0 * generation as f64, 0.0);
                let capture = Perturbation(seed).capture(&capture, LocationId(i as u32));
                sources.extend(capture.image.iter().map(|(_, raster)| raster.clone()));
            }
        }
        setup.render_s = t.elapsed().as_secs_f64();
        let source_of = |key: Key, generation: usize| {
            let scene = key.0 .0 as usize % shape.scenes;
            let slot = (generation + key.0 .0 as usize / shape.scenes) % shape.generations;
            let band = bands.iter().position(|&b| b == key.1).expect("planet band");
            (scene * shape.generations + slot) * bands.len() + band
        };

        // The archive is generator work: these streams were encoded on
        // board long before the tape starts.
        let codec = CodecConfig::lossy();
        let budget = tile_budget_bytes(GAMMA_BPP, shape.source_px * shape.source_px);
        let archive: Vec<EncodedImage> = sources
            .iter()
            .map(|raster| encode_with_budget(raster, &codec, budget).expect("source encodes"))
            .collect();

        let t = Instant::now();
        let mut rng = Rng(SCENARIO_SEED ^ 0x6B_F111);
        let uplink = LinkModel::doves_uplink();
        let keys: Vec<Key> = (0..shape.locations)
            .flat_map(|l| bands.iter().map(move |&b| (LocationId(l), b)))
            .collect();
        let mut generation: HashMap<Key, usize> = HashMap::new();
        let mut expected: HashMap<Key, f64> = HashMap::new();
        let mut offered: Vec<Key> = Vec::new();
        let mut days = Vec::new();
        for d in 0..shape.days {
            let serves = if offered.is_empty() {
                Vec::new()
            } else {
                (0..shape.serves_per_day)
                    .map(|_| {
                        let sat = SatelliteId(rng.below(shape.satellites as u64) as u32);
                        (sat, offered[rng.below(offered.len() as u64) as usize])
                    })
                    .collect()
            };
            let mut offer = |rng: &mut Rng, stamp: f64| {
                let key = keys[rng.below(keys.len() as u64) as usize];
                // One offer in eight is a late arrival, three days old: it
                // loses freshest-wins against anything newer for its key.
                let day = stamp - if rng.below(8) == 0 { 3.0 } else { 0.0 };
                let g = generation.entry(key).or_insert(0);
                *g += 1;
                let e = expected.entry(key).or_insert(f64::NEG_INFINITY);
                if *e == f64::NEG_INFINITY {
                    offered.push(key);
                }
                *e = e.max(day);
                Offer {
                    key,
                    day,
                    source: source_of(key, *g),
                }
            };
            let live = offer(&mut rng, d as f64 + 0.5);
            let archived = (0..shape.archived_per_day)
                .map(|_| offer(&mut rng, d as f64 + 0.25))
                .collect();
            let batch = (1..shape.batch_per_day)
                .map(|_| {
                    let o = offer(&mut rng, d as f64 + 0.5);
                    ReferenceImage::from_capture(
                        o.key.0,
                        o.key.1,
                        o.day,
                        &sources[o.source],
                        REFERENCE_DOWNSAMPLE,
                    )
                    .expect("downsample factor fits the source")
                })
                .collect();
            let mut pass: Vec<ContactWindow> = (0..shape.satellites)
                .flat_map(|s| {
                    let phase = rng.below(1000) as f64 / 7000.0;
                    (0..CONTACTS_PER_DAY).map(move |k| (s, phase, k))
                })
                .map(|(s, phase, k)| ContactWindow {
                    satellite: SatelliteId(s),
                    day: d as f64 + 0.55 + phase + k as f64 * 0.04,
                    budget_bytes: uplink
                        .bytes_per_contact(d as u64 * CONTACTS_PER_DAY as u64 + k as u64),
                })
                .collect();
            pass.sort_by(|a, b| a.day.partial_cmp(&b.day).expect("days are finite"));
            days.push(Day {
                live,
                archived,
                batch,
                pass,
                serves,
            });
        }
        setup.schedule_s = t.elapsed().as_secs_f64();
        first_store_open(Vec::new(), log_config());
        GroundBackfill {
            days,
            sources,
            archive,
            expected,
            psnr_floor_db: if smoke {
                SMOKE_PSNR_FLOOR_DB
            } else {
                LIVE_PSNR_FLOOR_DB
            },
            setup,
        }
    }

    fn service(&self, dir: &StoreDir, observe: Option<&Observability>) -> GroundService {
        GroundService::new(
            ground_config(dir.path(), Vec::new(), log_config(), observe)
                .with_reference_downsample(REFERENCE_DOWNSAMPLE),
        )
    }

    fn drive(&self, days: &[Day], service: &GroundService, spans: &mut SpanLog) -> Driven {
        let mut tally = Tally::default();
        let mut sums = Sums::default();
        let codec = CodecConfig::lossy();
        // The live capture's arenas record into the sinks the service was
        // given (disabled unless this is a traced replay).
        let mut encode_scratch = CodecScratch::new();
        encode_scratch.set_telemetry(&service.config().telemetry);
        encode_scratch.set_tracing(service.tracing());
        let mut decode_scratch = DecodeScratch::new();
        decode_scratch.set_telemetry(&service.config().telemetry);
        decode_scratch.set_tracing(service.tracing());
        let px = self.sources[0].width();
        let grid = TileGrid::new(px, px, TILE).expect("sources are tileable");
        let mut all_tiles = TileMask::new(&grid);
        all_tiles.fill();
        let tile_budget = tile_budget_bytes(GAMMA_BPP, TILE * TILE);
        let mut canvas = Raster::new(px, px);

        let start = Instant::now();
        spans.open_scope("bench.replay", 0, start);
        for (d, day) in days.iter().enumerate() {
            let id = d as u64;

            // Reads first: they see what the previous day's pass installed.
            let mut hits = 0usize;
            let ((), s) = timed(spans, "ground.serve", id, || {
                for &(sat, (l, b)) in &day.serves {
                    hits += service.serve_reference(sat, l, b).is_some() as usize;
                }
            });
            sums.serve_s += s;
            tally.attempted += day.serves.len() as u64;
            // Every key read was in the store before the previous day's
            // pass, and every satellite has windows in every pass: unless
            // a pass skipped deltas for lack of budget (the Doves budget
            // never does here), a miss is a failure.
            if sums.skipped == 0 {
                let misses = day.serves.len() - hits;
                for _ in 0..misses {
                    tally.fail(|| format!("day {d}: serve_reference missed an installed key"));
                }
            }

            // Live downlink: ROI encode on board, tile decode on the
            // ground, reference for the day's batch.
            let source = &self.sources[day.live.source];
            let call = Instant::now();
            let (roi, encode_s) = timed(spans, "codec.encode_roi", id, || {
                encode_roi_with_scratch(
                    source,
                    &grid,
                    &all_tiles,
                    &codec,
                    tile_budget,
                    &mut encode_scratch,
                )
            });
            let (tiles, decode_s) = timed(spans, "codec.decode_tiles", id, || {
                roi.as_ref()
                    .ok()
                    .map(|roi| roi.decode_tiles_with_scratch(&mut decode_scratch))
            });
            tally.captures += 1;
            tally.attempted += 2;
            let mut batch = day.batch.clone();
            match (roi, tiles) {
                (Ok(roi), Some(Ok(tiles))) => {
                    for (index, tile) in &tiles {
                        grid.insert_tile(&mut canvas, *index, tile)
                            .expect("tile fits the canvas");
                    }
                    let db = psnr(&canvas, source).expect("canvas matches the source");
                    if db < self.psnr_floor_db {
                        tally.fail(|| format!("day {d}: live round trip at {db:.2} dB"));
                    }
                    tally.psnr(db);
                    tally.downlink_bytes += roi.size_bytes() as u64;
                    tally.outputs.u64(roi.size_bytes() as u64);
                    tally.outputs.f64(db);
                    tally.encode_px += (px * px) as f64;
                    tally.encode_s += encode_s;
                    tally.decode_px += (px * px) as f64;
                    tally.decode_s += decode_s;
                    tally.onboard_ms.push(encode_s * 1e3);
                    batch.push(
                        ReferenceImage::from_capture(
                            day.live.key.0,
                            day.live.key.1,
                            day.live.day,
                            &canvas,
                            REFERENCE_DOWNSAMPLE,
                        )
                        .expect("downsample factor fits the canvas"),
                    );
                }
                _ => tally.fail(|| format!("day {d}: live capture failed to round-trip")),
            }
            tally.capture_ms.push(call.elapsed().as_secs_f64() * 1e3);

            // Archive backfill: LL-only reference build + durable admit.
            for o in &day.archived {
                let stream = &self.archive[o.source];
                let (result, s) = timed(spans, "ground.ingest_encoded", id, || {
                    service.ingest_encoded(o.key.0, o.key.1, o.day, stream)
                });
                sums.ingest_encoded_s += s;
                tally.captures += 1;
                tally.attempted += 1;
                tally.refs_offered += 1;
                tally.downlink_bytes += stream.size_bytes() as u64;
                tally.capture_ms.push(s * 1e3);
                match result {
                    Ok(accepted) => tally.outputs.u64(accepted as u64),
                    Err(e) => tally.fail(|| format!("day {d}: ingest_encoded: {e}")),
                }
            }

            // Downlink batch: group-commit ingest on the worker pool.
            let offered = batch.len() as u64;
            let (report, s) = timed(spans, "ground.ingest_batch", id, || {
                service.ingest_downlink_batch(batch)
            });
            sums.ingest_batch_s += s;
            tally.attempted += offered;
            tally.refs_offered += offered;
            tally.outputs.u64(report.accepted);
            if report.offered() != offered {
                tally.fail(|| format!("day {d}: batch reported {} of {offered}", report.offered()));
            }

            // The day's pass.
            let (reports, s) = timed(spans, "ground.plan_pass", id, || {
                service.plan_pass(&day.pass)
            });
            tally.pass(&format!("day {d}"), day.pass.len(), &reports, s);
            sums.skipped += reports.iter().map(|r| r.deltas_skipped as u64).sum::<u64>();
        }
        let ((), sync_s) = timed(spans, "ground.sync", u64::MAX, || service.sync());
        sums.sync_s = sync_s;
        let wall = start.elapsed();
        spans.close_scope(wall);
        sums.scratch_grow = encode_scratch.grow_events() + decode_scratch.grow_events();
        sums.scratch_reserved = encode_scratch.reserved_bytes() + decode_scratch.reserved_bytes();
        Driven {
            tally,
            sums,
            wall_s: wall.as_secs_f64(),
        }
    }
}

#[derive(Debug, Default)]
struct Sums {
    serve_s: f64,
    ingest_encoded_s: f64,
    ingest_batch_s: f64,
    sync_s: f64,
    skipped: u64,
    scratch_grow: u64,
    scratch_reserved: usize,
}

struct Driven {
    tally: Tally,
    sums: Sums,
    wall_s: f64,
}

impl Workload for GroundBackfill {
    fn setup_times(&self) -> SetupTimes {
        self.setup
    }

    fn identity(&self) -> u64 {
        let mut h = Fnv::default();
        for source in &self.sources {
            h.f32s(source.as_slice());
        }
        for day in &self.days {
            for o in std::iter::once(&day.live).chain(&day.archived) {
                h.u64(o.key.0 .0 as u64);
                h.f64(o.day);
                h.u64(o.source as u64);
            }
            for r in &day.batch {
                h.u64(r.location.0 as u64);
                h.f64(r.captured_day);
            }
            for w in &day.pass {
                h.u64(w.satellite.0 as u64);
                h.f64(w.day);
                h.u64(w.budget_bytes);
            }
            h.u64(day.serves.len() as u64);
        }
        h.0
    }

    fn warm_up(&self) {
        let dir = StoreDir::fresh("warm");
        let service = self.service(&dir, None);
        self.drive(
            &self.days[..self.days.len().min(2)],
            &service,
            &mut SpanLog::disabled(),
        );
    }

    fn replay(&self, spans: &mut SpanLog) -> Rep {
        let dir = StoreDir::fresh("backfill");
        let observe = spans.is_enabled().then(Observability::default);
        let service = self.service(&dir, observe.as_ref());
        let Driven {
            mut tally,
            sums,
            wall_s,
        } = self.drive(&self.days, &service, spans);

        // Every key must hold the freshest day the tape offered it.
        let held = Held::of(&service);
        tally.attempted += 1;
        let stale = held
            .fresh
            .iter()
            .filter(|(key, day)| self.expected.get(key) != Some(day))
            .count()
            + self.expected.len().saturating_sub(held.fresh.len());
        if stale > 0 {
            tally.fail(|| format!("{stale} keys do not hold the freshest day offered"));
        }

        let mut layers = Layers::new();
        if let Some(o) = &observe {
            let snapshot = o.registry.snapshot();
            ground_layers(&mut layers, &service, &snapshot, &dir);
            let px = (self.sources[0].len() * self.days.len()) as f64 / 1e6;
            let ll_s = hist_s(&snapshot, names::CODEC_DECODE_PARTIAL_NS);
            layers.insert("codec.encode_s", tally.encode_s);
            layers.insert(
                "codec.encode_calls",
                hist_count(&snapshot, names::CODEC_ENCODE_EPC2_NS),
            );
            layers.insert("codec.encode_bytes", tally.downlink_bytes as f64);
            // Live tile decodes are spanned by the bench; the LL-only
            // decodes nest inside `ingest_encoded` and come from the
            // registry.
            layers.insert("codec.decode_s", tally.decode_s + ll_s);
            layers.insert(
                "codec.decode_calls",
                hist_count(&snapshot, names::CODEC_DECODE_EPC2_NS)
                    + hist_count(&snapshot, names::CODEC_DECODE_PARTIAL_NS),
            );
            layers.insert("codec.roi_encode_mpix_per_s", ratio(px, tally.encode_s));
            layers.insert("codec.roi_decode_mpix_per_s", ratio(px, tally.decode_s));
            layers.insert(
                "codec.ll_decode_us_p50",
                snapshot
                    .histogram(names::CODEC_DECODE_PARTIAL_NS)
                    .map_or(0.0, |h| h.quantile(0.5) as f64 / 1e3),
            );
            layers.insert(
                "codec.scratch_grow_events",
                (sums.scratch_grow + service.ingest_decode_grow_events()) as f64,
            );
            layers.insert(
                "codec.scratch_reserved_kb",
                sums.scratch_reserved as f64 / 1024.0,
            );
            pass_layers(&mut layers, &tally);
            // Self times: the single appends nest inside `ingest_encoded`
            // (replay thread), the LL decode too.
            let append_s = layers.get("refstore.append_s").copied().unwrap_or(0.0);
            layers.insert("ground.ingest_s", sums.ingest_batch_s);
            layers.insert(
                "ground.ingest_encoded_s",
                (sums.ingest_encoded_s - append_s - ll_s).max(0.0),
            );
            layers.insert("ground.serve_s", sums.serve_s);
            layers.insert("ground.sync_s", sums.sync_s);
            layers.insert("bench.replay_wall_s", wall_s);
        }

        drop(service);
        check_restart(
            dir.path(),
            log_config(),
            &held,
            spans,
            &mut tally,
            &mut layers,
        );
        Rep {
            wall_s,
            tally,
            layers,
            trace: observe.map(|o| o.recorder.log()),
        }
    }
}
