//! Feature golden: pins every bit (FNV-1a over little-endian `f32` bits)
//! of the `tile_features` the cloud detectors classify, on a 512-px
//! `large_constellation` scene (three visible Planet bands) and a small
//! `rich_content` one (thirteen Sentinel-2 bands) at three cloud
//! coverages. On a mismatch the message prints the recomputed table.

use earthplus_cloud::tile_features;
use earthplus_raster::TileGrid;
use earthplus_scene::{large_constellation, rich_content, LocationScene};

const GOLDEN: &[&str] = &[
    "large_constellation 512 coverage 0 f982698f0e21dd78",
    "large_constellation 512 coverage 0.3 41ba07b363f625bf",
    "large_constellation 512 coverage 0.7 683ab3c327aa9ca8",
    "rich_content 128 coverage 0 19639e6eb92f945b",
    "rich_content 128 coverage 0.3 fa3f5ea52e27675c",
    "rich_content 128 coverage 0.7 3f2c68f8c68cd0e6",
];

#[test]
fn tile_features_match_golden() {
    let mut table = Vec::new();
    for (name, dataset, day) in [
        ("large_constellation 512", large_constellation(7, 512), 41.0),
        ("rich_content 128", rich_content(7, 128), 17.5),
    ] {
        let scene = LocationScene::new(dataset.locations[0].clone());
        for coverage in [0.0, 0.3, 0.7] {
            let image = scene.capture_with_coverage(day, coverage).image;
            let grid = TileGrid::new(image.width(), image.height(), 64).unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for v in tile_features(&image, &grid).into_iter().flatten() {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            table.push(format!("{name} coverage {coverage} {h:016x}"));
        }
    }
    assert_eq!(table, GOLDEN, "recomputed table:\n{}", table.join("\n"));
}
