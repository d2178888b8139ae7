//! Region-of-interest (changed-tile) encoding.
//!
//! Earth+ "encodes those changed tiles by selecting the changed tiles as
//! region-of-interest and runs region-of-interest encoding ... the bit spent
//! on each encoded tile is a constant γ" (§5). [`encode_roi`] encodes each
//! selected tile as an independent embedded stream truncated to the γ
//! budget; [`RoiBitstream`] carries them with their tile indices so the
//! ground can patch the changed tiles into its latest reconstruction.
//! Every tile stream is embedded, so γ is the whole rate knob: a smaller γ
//! is a shorter prefix of the same passes, which is how Earth+ "smoothly
//! trades off between downlink bandwidth and the quality of downloaded
//! imagery" (§5).

use crate::image_codec::{decode_with_scratch, encode_view_with_budget, CodecConfig, EncodedImage};
use crate::scratch::{CodecScratch, DecodeScratch};
use crate::CodecError;
use earthplus_raster::{Raster, TileGrid, TileIndex, TileMask};

/// Per-tile byte budget derived from a bits-per-pixel target γ.
pub fn tile_budget_bytes(gamma_bpp: f64, tile_pixels: usize) -> usize {
    ((gamma_bpp * tile_pixels as f64) / 8.0).floor() as usize
}

/// One encoded tile.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedTile {
    /// Flat tile index within the grid.
    pub flat_index: u32,
    /// The tile's embedded stream.
    pub image: EncodedImage,
}

/// An encoded region-of-interest: the selected tiles of one band of one
/// capture.
#[derive(Debug, Clone, PartialEq)]
pub struct RoiBitstream {
    width: u32,
    height: u32,
    tile_size: u32,
    tiles: Vec<EncodedTile>,
}

/// Per-tile container overhead in bytes (tile index + length field).
const TILE_HEADER_BYTES: usize = 8;

impl RoiBitstream {
    /// Assembles a bitstream from already-encoded tiles of `grid` (used by
    /// the reference encoder).
    pub(crate) fn from_tiles(
        grid: &TileGrid,
        tiles: Vec<EncodedTile>,
    ) -> Result<RoiBitstream, CodecError> {
        Ok(RoiBitstream {
            width: grid.width() as u32,
            height: grid.height() as u32,
            tile_size: grid.tile_size() as u32,
            tiles,
        })
    }

    /// Image width the tiles belong to.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height the tiles belong to.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Side length of the tile grid used.
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Number of encoded tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Whether no tiles were selected.
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// The encoded tiles.
    pub fn tiles(&self) -> &[EncodedTile] {
        &self.tiles
    }

    /// Total transmission size: tile payloads, their headers, and the
    /// per-tile container overhead.
    pub fn size_bytes(&self) -> usize {
        self.tiles
            .iter()
            .map(|t| t.image.size_bytes() + TILE_HEADER_BYTES)
            .sum()
    }

    /// Decodes every tile to `(tile index, raster)` pairs through a
    /// reusable [`DecodeScratch`] arena: coefficient planes, traversal
    /// lists, and inverse-DWT buffers are reused across tiles (and across
    /// captures when the caller keeps the arena), so steady-state tile
    /// decoding allocates only the returned rasters.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] if a tile index exceeds the grid
    /// or a tile stream fails to decode.
    pub fn decode_tiles_with_scratch(
        &self,
        scratch: &mut DecodeScratch,
    ) -> Result<Vec<(TileIndex, Raster)>, CodecError> {
        let grid = self.grid()?;
        self.tiles
            .iter()
            .map(|t| {
                let flat = t.flat_index as usize;
                if flat >= grid.tile_count() {
                    return Err(CodecError::Malformed {
                        reason: format!("tile index {flat} out of range"),
                    });
                }
                let tile = decode_with_scratch(&t.image, scratch)?;
                Ok((grid.from_flat_index(flat), tile))
            })
            .collect()
    }

    /// Decodes and patches every tile into `canvas` (which must match the
    /// bitstream's image dimensions): one decode-and-blit per tile, every
    /// tile decoded into one raster reused across the loop via
    /// [`Raster::reset`].
    ///
    /// Allocates a fresh [`DecodeScratch`] per call; per-capture hot paths
    /// hold one arena and decode tile by tile with
    /// [`crate::decode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] on dimension mismatch, a bad tile
    /// index, or a tile stream that fails to decode.
    pub fn patch_into(&self, canvas: &mut Raster) -> Result<(), CodecError> {
        if canvas.dimensions() != (self.width as usize, self.height as usize) {
            return Err(CodecError::Malformed {
                reason: format!(
                    "canvas {}x{} does not match bitstream {}x{}",
                    canvas.width(),
                    canvas.height(),
                    self.width,
                    self.height
                ),
            });
        }
        let grid = self.grid()?;
        let mut scratch = DecodeScratch::new();
        let mut tile = Raster::new(0, 0);
        for t in &self.tiles {
            let flat = t.flat_index as usize;
            if flat >= grid.tile_count() {
                return Err(CodecError::Malformed {
                    reason: format!("tile index {flat} out of range"),
                });
            }
            crate::image_codec::decode_into(&t.image, 0, &mut scratch, &mut tile)?;
            grid.insert_tile(canvas, grid.from_flat_index(flat), &tile)
                .map_err(|e| CodecError::Malformed {
                    reason: e.to_string(),
                })?;
        }
        Ok(())
    }

    fn grid(&self) -> Result<TileGrid, CodecError> {
        TileGrid::new(
            self.width as usize,
            self.height as usize,
            self.tile_size as usize,
        )
        .map_err(|e| CodecError::Malformed {
            reason: e.to_string(),
        })
    }
}

/// Encodes the tiles selected by `mask` at a constant per-tile byte budget.
///
/// Allocates a fresh [`CodecScratch`] per call; per-capture hot paths
/// should hold one arena and use [`encode_roi_with_scratch`].
///
/// # Errors
///
/// Returns [`CodecError::Malformed`] if `image` does not match `grid`, or
/// propagates per-tile encoding errors.
pub fn encode_roi(
    image: &Raster,
    grid: &TileGrid,
    mask: &TileMask,
    config: &CodecConfig,
    budget_per_tile: usize,
) -> Result<RoiBitstream, CodecError> {
    encode_roi_with_scratch(
        image,
        grid,
        mask,
        config,
        budget_per_tile,
        &mut CodecScratch::new(),
    )
}

/// Zero-copy ROI encoding: each selected tile is read through a borrowed
/// [`TileView`](earthplus_raster::TileView) (no tile materialization) and
/// encoded through the reusable `scratch` arena. Output is bit-identical
/// to [`encode_roi`].
///
/// # Errors
///
/// Returns [`CodecError::Malformed`] if `image` does not match `grid`, or
/// propagates per-tile encoding errors.
pub fn encode_roi_with_scratch(
    image: &Raster,
    grid: &TileGrid,
    mask: &TileMask,
    config: &CodecConfig,
    budget_per_tile: usize,
    scratch: &mut CodecScratch,
) -> Result<RoiBitstream, CodecError> {
    if image.dimensions() != (grid.width(), grid.height()) {
        return Err(CodecError::Malformed {
            reason: format!(
                "image {}x{} does not match grid {}x{}",
                image.width(),
                image.height(),
                grid.width(),
                grid.height()
            ),
        });
    }
    let mut tiles = Vec::with_capacity(mask.count_set());
    for index in mask.iter_set() {
        let view = grid
            .tile_view(image, index)
            .map_err(|e| CodecError::Malformed {
                reason: e.to_string(),
            })?;
        let encoded = encode_view_with_budget(&view, config, budget_per_tile, scratch)?;
        tiles.push(EncodedTile {
            flat_index: grid.flat_index(index) as u32,
            image: encoded,
        });
    }
    Ok(RoiBitstream {
        width: grid.width() as u32,
        height: grid.height() as u32,
        tile_size: grid.tile_size() as u32,
        tiles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::hash_unit;
    use earthplus_raster::psnr;

    fn image_256() -> Raster {
        Raster::from_fn(256, 256, |x, y| {
            let fx = x as f32 / 256.0;
            let fy = y as f32 / 256.0;
            let base = 0.5 + 0.3 * (fx * 6.0).sin() * (fy * 5.0).cos();
            (base + (hash_unit((y * 256 + x) as u64, 77) - 0.5) * 0.04).clamp(0.0, 1.0)
        })
    }

    fn checker_mask(grid: &TileGrid) -> TileMask {
        let mut m = TileMask::new(grid);
        for t in grid.iter() {
            if (t.col + t.row) % 2 == 0 {
                m.set(t, true);
            }
        }
        m
    }

    #[test]
    fn encodes_only_selected_tiles() {
        let img = image_256();
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let mask = checker_mask(&grid);
        let roi = encode_roi(&img, &grid, &mask, &CodecConfig::lossy(), 2048).unwrap();
        assert_eq!(roi.tile_count(), mask.count_set());
    }

    #[test]
    fn budget_is_respected_per_tile() {
        let img = image_256();
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let mask = checker_mask(&grid);
        let budget = tile_budget_bytes(1.0, 64 * 64); // 512 bytes
        let roi = encode_roi(&img, &grid, &mask, &CodecConfig::lossy(), budget).unwrap();
        for t in roi.tiles() {
            assert!(t.image.payload_len() <= budget);
        }
    }

    #[test]
    fn patch_into_reconstructs_selected_tiles() {
        let img = image_256();
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let mask = checker_mask(&grid);
        let roi = encode_roi(&img, &grid, &mask, &CodecConfig::lossy(), 4096).unwrap();
        let mut canvas = Raster::filled(256, 256, 0.0);
        roi.patch_into(&mut canvas).unwrap();
        // Selected tiles approximate the source well; unselected stay 0.
        for t in grid.iter() {
            let src = grid.extract_tile(&img, t).unwrap();
            let dst = grid.extract_tile(&canvas, t).unwrap();
            if mask.get(t) {
                assert!(psnr(&src, &dst).unwrap() > 35.0);
            } else {
                assert!(dst.as_slice().iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn higher_gamma_higher_quality() {
        let img = image_256();
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let mut mask = TileMask::new(&grid);
        mask.fill();
        let quality = |gamma: f64| {
            let budget = tile_budget_bytes(gamma, 64 * 64);
            let roi = encode_roi(&img, &grid, &mask, &CodecConfig::lossy(), budget).unwrap();
            let mut canvas = Raster::new(256, 256);
            roi.patch_into(&mut canvas).unwrap();
            psnr(&img, &canvas).unwrap()
        };
        let q_low = quality(0.25);
        let q_mid = quality(1.0);
        let q_high = quality(3.0);
        assert!(q_low < q_mid && q_mid < q_high, "{q_low} {q_mid} {q_high}");
    }

    #[test]
    fn size_accounts_headers() {
        let img = image_256();
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let mask = checker_mask(&grid);
        let roi = encode_roi(&img, &grid, &mask, &CodecConfig::lossy(), 1024).unwrap();
        let payloads: usize = roi.tiles().iter().map(|t| t.image.payload_len()).sum();
        assert!(roi.size_bytes() > payloads);
    }

    #[test]
    fn empty_mask_yields_empty_bitstream() {
        let img = image_256();
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let mask = TileMask::new(&grid);
        let roi = encode_roi(&img, &grid, &mask, &CodecConfig::lossy(), 1024).unwrap();
        assert!(roi.is_empty());
        assert_eq!(roi.size_bytes(), 0);
        let mut canvas = Raster::new(256, 256);
        roi.patch_into(&mut canvas).unwrap();
    }

    #[test]
    fn patch_rejects_wrong_canvas() {
        let img = image_256();
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let mask = checker_mask(&grid);
        let roi = encode_roi(&img, &grid, &mask, &CodecConfig::lossy(), 1024).unwrap();
        let mut wrong = Raster::new(128, 128);
        assert!(roi.patch_into(&mut wrong).is_err());
    }

    #[test]
    fn mismatched_image_and_grid_rejected() {
        let img = Raster::new(128, 128);
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let mask = TileMask::new(&grid);
        assert!(encode_roi(&img, &grid, &mask, &CodecConfig::lossy(), 1024).is_err());
    }

    #[test]
    fn partial_edge_tiles_supported() {
        let img = Raster::from_fn(200, 136, |x, y| ((x + y) % 64) as f32 / 64.0);
        let grid = TileGrid::new(200, 136, 64).unwrap();
        let mut mask = TileMask::new(&grid);
        mask.fill();
        let roi = encode_roi(&img, &grid, &mask, &CodecConfig::lossy(), 4096).unwrap();
        let mut canvas = Raster::new(200, 136);
        roi.patch_into(&mut canvas).unwrap();
        assert!(psnr(&img, &canvas).unwrap() > 30.0);
    }
}
