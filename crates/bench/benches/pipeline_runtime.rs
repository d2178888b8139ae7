//! Figure 16 micro-benchmark: per-capture on-board processing time per
//! strategy (cloud detection + change detection + encoding).

use criterion::{criterion_group, criterion_main, Criterion};
use earthplus::prelude::*;
use earthplus::{CaptureContext, ContactWindow};
use earthplus_cloud::{train_onboard_detector, TrainingConfig};
use earthplus_orbit::SatelliteId;
use earthplus_raster::LocationId;
use earthplus_scene::terrain::LocationArchetype;
use earthplus_scene::{LocationScene, SceneConfig};

fn bench_pipeline(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("pipeline_runtime");
    group.sample_size(10);

    group.bench_function("earthplus_capture", |b| {
        b.iter_batched(
            || {
                let mut s = EarthPlusStrategy::new(config, detector.clone(), targets.clone());
                // Warm the cache/belief so the measured capture uses the
                // steady-state reference path.
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
                s
            },
            |mut s| {
                s.on_capture(&CaptureContext {
                    day: 60.0,
                    satellite: SatelliteId(0),
                    location: LocationId(0),
                    capture: &capture,
                })
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function("kodan_capture", |b| {
        b.iter_batched(
            || KodanStrategy::new(config),
            |mut s| {
                s.on_capture(&CaptureContext {
                    day: 60.0,
                    satellite: SatelliteId(0),
                    location: LocationId(0),
                    capture: &capture,
                })
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function("satroi_capture", |b| {
        b.iter_batched(
            || {
                let mut s = SatRoiStrategy::new(config, detector.clone());
                s.on_capture(&CaptureContext {
                    day: 55.0,
                    satellite: SatelliteId(0),
                    location: LocationId(0),
                    capture: &warmup,
                });
                s
            },
            |mut s| {
                s.on_capture(&CaptureContext {
                    day: 60.0,
                    satellite: SatelliteId(0),
                    location: LocationId(0),
                    capture: &capture,
                })
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
