//! Per-tile features for cloud classification.
//!
//! Earth+ "detects the cloud under a downsampled version of the captured
//! imagery (64×, width and height) as Earth+ only uses the cloud detection
//! to identify which 64×64 tiles need to be downloaded" (§5). One tile
//! therefore contributes one feature vector:
//!
//! * **brightness** — mean visible-band reflectance (clouds are bright);
//! * **coldness** — value in the coldest available infrared-proxy band
//!   (heavy clouds are cold: "the temperature of heavy clouds significantly
//!   differs from the nearby ground", §5);
//! * **texture** — within-tile visible variance (cloud tops are smoother
//!   than ground texture at tile scale).

use earthplus_raster::{downsample_box, BandKind, MultiBandImage, Raster, TileGrid};
use earthplus_scene::reflectance::cold_band;

/// Number of features per tile.
pub const FEATURE_COUNT: usize = 3;

/// One tile's feature vector.
pub type FeatureVector = [f32; FEATURE_COUNT];

/// Extracts per-tile feature vectors for an image, in flat tile-index
/// order.
///
/// # Panics
///
/// Panics if the image carries no bands.
pub fn tile_features(image: &MultiBandImage, grid: &TileGrid) -> Vec<FeatureVector> {
    assert!(!image.is_empty(), "image has no bands");
    let bands = image.band_ids();
    let tile = grid.tile_size();

    // Mean visible-band raster (falls back to all bands if none visible).
    let visible: Vec<&Raster> = bands
        .iter()
        .filter(|b| b.kind() == BandKind::VisibleGround)
        .filter_map(|&b| image.band(b))
        .collect();
    let visible: Vec<&Raster> = if visible.is_empty() {
        image.iter().map(|(_, r)| r).collect()
    } else {
        visible
    };
    // Built in one pass into one buffer, a cache-sized block at a time so
    // the partial sums stay hot while each band adds in. Each pixel sums
    // `b / n` over the bands in band order, starting from zero, so every
    // feature bit stays what the detector was trained on.
    const BLOCK: usize = 4096;
    let n = visible.len() as f32;
    let len = image.width() * image.height();
    let (first, rest) = visible.split_first().expect("image has bands");
    let mut mean = Vec::with_capacity(len);
    for start in (0..len).step_by(BLOCK) {
        let block = start..(start + BLOCK).min(len);
        mean.extend(first.as_slice()[block.clone()].iter().map(|&b| 0.0 + b / n));
        for r in rest {
            for (a, &b) in mean[block.clone()]
                .iter_mut()
                .zip(&r.as_slice()[block.clone()])
            {
                *a += b / n;
            }
        }
    }
    let vis_mean =
        Raster::from_vec(image.width(), image.height(), mean).expect("bands share dimensions");

    let cold: Option<&Raster> = cold_band(&bands).and_then(|b| image.band(b));

    // Downsample to one pixel per tile (the paper's 64x downsampling).
    let small_bright = downsample_box(&vis_mean, tile).expect("tile-size downsample");
    let small_cold = cold.map(|r| downsample_box(r, tile).expect("tile-size downsample"));

    // Texture: variance of a 4x-per-tile downsample within each tile.
    let quarter = (tile / 4).max(1);
    let mid = downsample_box(&vis_mean, quarter).expect("quarter downsample");
    let per_tile = tile / quarter;

    let mut features = Vec::with_capacity(grid.tile_count());
    for t in grid.iter() {
        let brightness = small_bright.try_get(t.col, t.row).unwrap_or_else(|| {
            small_bright.get(
                t.col.min(small_bright.width() - 1),
                t.row.min(small_bright.height() - 1),
            )
        });
        let coldness = match &small_cold {
            Some(c) => c
                .try_get(t.col, t.row)
                .unwrap_or_else(|| c.get(t.col.min(c.width() - 1), t.row.min(c.height() - 1))),
            None => brightness,
        };
        // Variance over the tile's block in the mid-resolution image,
        // traversed through a zero-copy clipped view (same pixels, in the
        // same row-major order, as the old per-pixel `try_get` probing).
        let x0 = (t.col * per_tile).min(mid.width());
        let y0 = (t.row * per_tile).min(mid.height());
        let bw = per_tile.min(mid.width() - x0);
        let bh = per_tile.min(mid.height() - y0);
        let block = mid.view(x0, y0, bw, bh);
        let n = (bw * bh) as u32;
        let mut sum = 0.0f64;
        let mut sum2 = 0.0f64;
        for row in block.rows() {
            for &v in row {
                sum += v as f64;
                sum2 += (v as f64) * (v as f64);
            }
        }
        let texture = if n == 0 {
            0.0
        } else {
            let mean = sum / n as f64;
            ((sum2 / n as f64 - mean * mean).max(0.0)).sqrt() as f32
        };
        features.push([brightness, coldness, texture]);
    }
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use earthplus_scene::terrain::LocationArchetype;
    use earthplus_scene::{LocationScene, SceneConfig};

    fn scene() -> LocationScene {
        LocationScene::new(SceneConfig::quick(5, LocationArchetype::Forest))
    }

    #[test]
    fn feature_count_matches_tiles() {
        let cap = scene().capture_with_coverage(3.0, 0.4);
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let f = tile_features(&cap.image, &grid);
        assert_eq!(f.len(), grid.tile_count());
    }

    #[test]
    fn cloudy_tiles_brighter_and_colder() {
        let s = scene();
        let cap = s.capture_with_coverage(3.0, 0.5);
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let feats = tile_features(&cap.image, &grid);
        let cloud_frac = grid.tile_fraction(&cap.cloud_alpha, |a| a > 0.5).unwrap();
        let mut cloudy_bright = vec![];
        let mut clear_bright = vec![];
        let mut cloudy_cold = vec![];
        let mut clear_cold = vec![];
        for (i, f) in feats.iter().enumerate() {
            if cloud_frac[i] > 0.9 {
                cloudy_bright.push(f[0] as f64);
                cloudy_cold.push(f[1] as f64);
            } else if cloud_frac[i] < 0.1 {
                clear_bright.push(f[0] as f64);
                clear_cold.push(f[1] as f64);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(!cloudy_bright.is_empty() && !clear_bright.is_empty());
        assert!(mean(&cloudy_bright) > mean(&clear_bright) + 0.2);
        assert!(mean(&cloudy_cold) < mean(&clear_cold) - 0.1);
    }

    #[test]
    fn features_deterministic() {
        let s = scene();
        let cap = s.capture_with_coverage(3.0, 0.5);
        let grid = TileGrid::new(256, 256, 64).unwrap();
        assert_eq!(
            tile_features(&cap.image, &grid),
            tile_features(&cap.image, &grid)
        );
    }

    #[test]
    fn works_without_cold_band() {
        use earthplus_raster::{Band, PlanetBand, Raster};
        let mut img = MultiBandImage::new(128, 128);
        img.push_band(Band::Planet(PlanetBand::Red), Raster::filled(128, 128, 0.4))
            .unwrap();
        let grid = TileGrid::new(128, 128, 64).unwrap();
        let f = tile_features(&img, &grid);
        assert_eq!(f.len(), 4);
        // Without a cold band, coldness falls back to brightness.
        assert_eq!(f[0][0], f[0][1]);
    }
}
