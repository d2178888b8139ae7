//! The encoded-capture ingest path end to end: building references from
//! archived EPC2 streams via the LL-only partial decode must feed the
//! uplink scheduler *exactly* like the historical full-decode +
//! `downsample_box` path — same deltas, same bytes, same schedules.

use earthplus_codec::{decode, encode, CodecConfig, EncodedImage};
use earthplus_ground::{GroundService, GroundServiceConfig, ReferenceImage, UplinkReport};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{Band, LocationId, PlanetBand, Raster};

fn red() -> Band {
    Band::Planet(PlanetBand::Red)
}

fn scene_capture(day: usize) -> Raster {
    // Day 0: a smooth scene. Day 1: a uniform reflectance change large
    // enough that *every* low-resolution pixel crosses θ on either
    // reference construction. Day 2: identical to day 1 (no change).
    let base = Raster::from_fn(256, 256, |x, y| {
        let fx = x as f32 / 256.0;
        let fy = y as f32 / 256.0;
        (0.35 + 0.25 * (fx * 5.0).sin() * (fy * 4.0).cos()).clamp(0.0, 1.0)
    });
    match day {
        0 => base,
        _ => base.map(|v| (v + 0.2).clamp(0.0, 1.0)),
    }
}

fn encoded_captures() -> Vec<(f64, EncodedImage)> {
    (0..3)
        .map(|day| {
            (
                1.0 + day as f64,
                encode(&scene_capture(day), &CodecConfig::lossy()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn encoded_ingest_produces_identical_uplink_schedules() {
    let factor = 32usize;
    let config = || {
        GroundServiceConfig::default()
            .with_targets(vec![(LocationId(0), red())])
            .with_reference_downsample(factor)
    };
    // Pipeline A: the historical path — full decode, then box downsample.
    let via_decode = GroundService::new(config());
    // Pipeline B: the new path — LL-only partial decode, never a full frame.
    let via_encoded = GroundService::new(config());

    let mut reports_a: Vec<UplinkReport> = Vec::new();
    let mut reports_b: Vec<UplinkReport> = Vec::new();
    for (day, enc) in encoded_captures() {
        let full = decode(&enc).unwrap();
        let reference =
            ReferenceImage::from_capture(LocationId(0), red(), day, &full, factor).unwrap();
        via_decode.ingest_downlink(reference);
        via_encoded
            .ingest_encoded(LocationId(0), red(), day, &enc)
            .unwrap();
        reports_a.push(via_decode.plan_contact(SatelliteId(0), day + 0.5, 1 << 20));
        reports_b.push(via_encoded.plan_contact(SatelliteId(0), day + 0.5, 1 << 20));
    }

    assert_eq!(
        reports_a, reports_b,
        "LL-only ingest changed the uplink schedule"
    );
    // Shape of the scenario: a full install, a full-coverage delta, then a
    // free timestamp advance.
    assert_eq!(reports_a[0].deltas_sent, 1);
    assert!(reports_a[0].bytes_used > 0);
    assert_eq!(reports_a[1].deltas_sent, 1);
    assert!(reports_a[1].bytes_used > 0);
    assert_eq!(reports_a[2].deltas_sent, 0);
    assert_eq!(reports_a[2].bytes_used, 0);

    // Both satellites end with the same reference generation on board.
    let a = via_decode
        .serve_reference(SatelliteId(0), LocationId(0), red())
        .unwrap();
    let b = via_encoded
        .serve_reference(SatelliteId(0), LocationId(0), red())
        .unwrap();
    assert_eq!(a.captured_day, b.captured_day);
    assert_eq!(a.lowres.dimensions(), b.lowres.dimensions());
    assert_eq!(a.downsample, b.downsample);
    // Tolerance covers the wavelet-vs-box filter difference; a phase
    // misalignment between the two samplings would show up several times
    // larger.
    let mae = earthplus_raster::mean_abs_diff(&a.lowres, &b.lowres).unwrap();
    assert!(mae < 0.02, "on-board reference content diverged: MAE {mae}");

    let stats = via_encoded.stats();
    assert_eq!(stats.encoded_ingests, 3);
    assert_eq!(stats.ingest_accepted, 3);
}

#[test]
fn encoded_ingest_is_allocation_free_in_steady_state() {
    let service = GroundService::new(GroundServiceConfig::default().with_reference_downsample(32));
    let captures = encoded_captures();
    for (day, enc) in &captures {
        service
            .ingest_encoded(LocationId(0), red(), *day, enc)
            .unwrap();
    }
    let grow = service.ingest_decode_grow_events();
    for round in 1..4u32 {
        for (day, enc) in &captures {
            service
                .ingest_encoded(LocationId(0), red(), day + round as f64 * 10.0, enc)
                .unwrap();
        }
    }
    assert_eq!(
        service.ingest_decode_grow_events(),
        grow,
        "steady-state encoded ingest grew the decode arena"
    );
}

#[test]
fn encoded_ingest_runs_concurrently() {
    // The decode arena is pooled, not a single lock held across the
    // decode: N threads ingesting archived captures must all land their
    // freshest generation, and repeating the workload grows no scratch.
    let config = GroundServiceConfig::default().with_reference_downsample(32);
    let enc = encode(&scene_capture(0), &CodecConfig::lossy()).unwrap();
    // What one arena grows on its first decode of this stream. The pool
    // holds at most one arena per concurrent ingester and a warm arena
    // never grows again, so however the scheduler interleaves the four
    // threads, the total is a whole number of cold arenas, at most four.
    let per_arena = {
        let probe = GroundService::new(config.clone());
        probe
            .ingest_encoded(LocationId(0), red(), 1.0, &enc)
            .unwrap();
        probe.ingest_decode_grow_events()
    };
    assert!(per_arena > 0, "a cold arena grows on its first decode");
    let service = GroundService::new(config);
    // The barrier starts each round's four ingests together, so the
    // decodes overlap as far as the host allows.
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let (service, enc, barrier) = (&service, &enc, &barrier);
            scope.spawn(move || {
                for i in 0..4u32 {
                    barrier.wait();
                    service
                        .ingest_encoded(LocationId(t), red(), 1.0 + f64::from(i), enc)
                        .unwrap();
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.encoded_ingests, 16);
    assert_eq!(stats.store_entries, 4);
    let grow = service.ingest_decode_grow_events();
    assert_eq!(grow % per_arena, 0, "a warm arena grew during the warm-up");
    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let (service, enc) = (&service, &enc);
            scope.spawn(move || {
                service
                    .ingest_encoded(LocationId(t), red(), 10.0, enc)
                    .unwrap();
            });
        }
    });
    // The repeat may only add arenas the warm-up never needed; any regrowth
    // of a warm one breaks the whole-arena count.
    let after = service.ingest_decode_grow_events();
    assert_eq!(
        (after - grow) % per_arena,
        0,
        "repeat concurrent ingest grew a warm arena: {grow} -> {after} grow events"
    );
    assert!(
        after <= 4 * per_arena,
        "repeat concurrent ingest grew the arena pool past four arenas: {after} grow events"
    );
}

#[test]
fn encoded_ingest_rejects_malformed_streams() {
    let service = GroundService::new(GroundServiceConfig::default());
    let enc = encode(&scene_capture(0), &CodecConfig::lossy()).unwrap();
    let mut bytes = enc.to_bytes();
    // Corrupt the subband table so parsing succeeds structurally but the
    // chunk metadata turns inconsistent — flip a chunk's plane count high.
    // (Byte 28 is inside the EPC2 subband table.)
    bytes[30] = 0xFF;
    if let Ok(parsed) = EncodedImage::from_bytes(&bytes) {
        // If it still parses, ingest must either succeed or error cleanly.
        let _ = service.ingest_encoded(LocationId(0), red(), 1.0, &parsed);
    }
    // Whatever happened, the service stays consistent — at most the one
    // candidate entered the store, and nothing panicked.
    assert!(service.stats().store_entries <= 1);
}
