//! Render golden: pins every rendered bit of the scene model.
//!
//! Each case hashes (FNV-1a over little-endian `f32` bits) the static
//! fields a scene is built from, the ground reflectance of every band, and
//! the image, cloud opacity and cloud fraction of `capture_with_coverage`
//! at three cloud coverages, under both the standard and the ideal sensor.
//! Sizes include odd and degenerate (single-row, single-column) frames, so
//! a change in how the renderer walks rows or splits work shows up here as
//! a hash drift. On a mismatch the assertion message prints the whole
//! recomputed table.

use earthplus_raster::{Band, LocationId, Raster};
use earthplus_scene::terrain::LocationArchetype;
use earthplus_scene::{LocationScene, SceneConfig, SeasonalModel, SensorModel, TerrainMap};

const SIZES: [(usize, usize); 4] = [(64, 64), (67, 41), (37, 1), (1, 37)];

/// `(archetype, day)`: a snowy mountain in and out of its snow season,
/// plus a coastal scene on a fractional day.
const SCENES: [(LocationArchetype, f64); 3] = [
    (LocationArchetype::SnowyMountain, 15.0),
    (LocationArchetype::SnowyMountain, 200.0),
    (LocationArchetype::Coastal, 120.5),
];

const COVERAGES: [f64; 3] = [0.0, 0.4, 1.0];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f32s(&mut self, samples: &[f32]) {
        for v in samples {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn raster(&mut self, raster: &Raster) {
        self.bytes(&(raster.width() as u64).to_le_bytes());
        self.bytes(&(raster.height() as u64).to_le_bytes());
        self.f32s(raster.as_slice());
    }
}

/// Terrain (elevation, texture, grain, land cover) and seasonal amplitude
/// of every archetype used above, at one size.
fn fields_hash(width: usize, height: usize) -> u64 {
    let mut h = Fnv::new();
    for archetype in [LocationArchetype::SnowyMountain, LocationArchetype::Coastal] {
        let terrain = TerrainMap::generate(0x5EED, archetype, width, height);
        h.raster(terrain.elevation());
        h.raster(terrain.texture());
        h.raster(terrain.grain());
        for y in 0..height {
            for x in 0..width {
                h.bytes(&[terrain.cover(x, y).index()]);
            }
        }
        h.raster(SeasonalModel::from_terrain(0x5EED, &terrain).amplitude());
    }
    h.0
}

/// Ground reflectance of every band plus every capture of one scene.
fn scene_hash(
    bands: Vec<Band>,
    archetype: LocationArchetype,
    day: f64,
    width: usize,
    height: usize,
) -> u64 {
    let mut h = Fnv::new();
    for sensor in [SensorModel::standard(), SensorModel::ideal()] {
        let config = SceneConfig::new(
            0x5EED,
            LocationId(3),
            archetype,
            width,
            height,
            bands.clone(),
        )
        .with_sensor(sensor);
        let scene = LocationScene::new(config);
        for &band in &bands {
            h.raster(&scene.ground_reflectance(band, day));
        }
        for coverage in COVERAGES {
            let capture = scene.capture_with_coverage(day, coverage);
            for (_, raster) in capture.image.iter() {
                h.raster(raster);
            }
            h.raster(&capture.cloud_alpha);
            h.bytes(&capture.cloud_fraction.to_bits().to_le_bytes());
        }
    }
    h.0
}

fn rendered_table() -> Vec<String> {
    let mut rows = Vec::new();
    for (width, height) in SIZES {
        rows.push(format!(
            "fields {width}x{height} {:016x}",
            fields_hash(width, height)
        ));
        for (name, bands) in [
            ("planet", Band::planet_all()),
            ("sentinel2", Band::sentinel2_all()),
        ] {
            for (archetype, day) in SCENES {
                rows.push(format!(
                    "{name} {} day {day} {width}x{height} {:016x}",
                    archetype.name(),
                    scene_hash(bands.clone(), archetype, day, width, height)
                ));
            }
        }
    }
    rows
}

const GOLDEN: &[&str] = &[
    "fields 64x64 7ade4825b0bc2059",
    "planet snowy-mountain day 15 64x64 c98ad1c55b259b7b",
    "planet snowy-mountain day 200 64x64 44e268cfb7d5b475",
    "planet coastal day 120.5 64x64 f8e0ca6a6c23fb47",
    "sentinel2 snowy-mountain day 15 64x64 791a7b493c10ec75",
    "sentinel2 snowy-mountain day 200 64x64 41ac5e8c28f96437",
    "sentinel2 coastal day 120.5 64x64 2515fbce188b1697",
    "fields 67x41 cd442c5473696136",
    "planet snowy-mountain day 15 67x41 8e1ebcc273f191a8",
    "planet snowy-mountain day 200 67x41 7ed141a5de179628",
    "planet coastal day 120.5 67x41 3ac6b0e917645e88",
    "sentinel2 snowy-mountain day 15 67x41 b69f3090ef29c8ec",
    "sentinel2 snowy-mountain day 200 67x41 677fe3fe4a8f1bee",
    "sentinel2 coastal day 120.5 67x41 2b60f2b388831637",
    "fields 37x1 3c22b547bbfb12d4",
    "planet snowy-mountain day 15 37x1 62e6e0338d4476dc",
    "planet snowy-mountain day 200 37x1 7b810e6cd621e29a",
    "planet coastal day 120.5 37x1 aa96c54772ae58d9",
    "sentinel2 snowy-mountain day 15 37x1 e5d6ca5aec355a41",
    "sentinel2 snowy-mountain day 200 37x1 2aa6191647e83e79",
    "sentinel2 coastal day 120.5 37x1 b71110d909f124b2",
    "fields 1x37 a50a5dd215035836",
    "planet snowy-mountain day 15 1x37 97686b617a2c97ea",
    "planet snowy-mountain day 200 1x37 512dccd491f8ddad",
    "planet coastal day 120.5 1x37 f348bc2a2f681b19",
    "sentinel2 snowy-mountain day 15 1x37 44e49b0fb0871454",
    "sentinel2 snowy-mountain day 200 1x37 e0ceefe62922a19d",
    "sentinel2 coastal day 120.5 1x37 a5050b9cba8bf6be",
];

#[test]
fn rendered_bits_match_golden() {
    let table = rendered_table();
    assert_eq!(
        table,
        GOLDEN,
        "render golden drift; recomputed table:\n{}",
        table
            .iter()
            .map(|row| format!("    \"{row}\","))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
