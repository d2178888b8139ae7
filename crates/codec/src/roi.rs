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
//!
//! Because the tile streams are independent, a band's tiles are encoded
//! and decoded on every core the host offers (see `fanout`): calls over
//! more than four tiles split them across workers, and the output is the
//! same bytes and bits for any worker count.

use crate::dwt;
use crate::fanout::{self, lock, tile_workers, time_tile, TileJob, TileTime, Unit};
use crate::image_codec::{
    budgeted_stream_bytes, decode_tile_uninstrumented, encode_view_uninstrumented, CodecConfig,
    EncodedImage, FormatVersion,
};
use crate::scratch::{CodecScratch, DecodeScratch};
use crate::CodecError;
use earthplus_raster::{Raster, TileGrid, TileIndex, TileMask};
use std::sync::Mutex;

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
    /// decoding allocates only the returned rasters. Fans out like
    /// [`RoiBitstream::decode_tiles_into`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] if a tile index exceeds the grid
    /// or a tile stream fails to decode.
    pub fn decode_tiles_with_scratch(
        &self,
        scratch: &mut DecodeScratch,
    ) -> Result<Vec<(TileIndex, Raster)>, CodecError> {
        let mut rasters: Vec<Raster> = self.tiles.iter().map(|_| Raster::new(0, 0)).collect();
        self.decode_tiles_into(scratch, &mut rasters)?;
        let grid = self.grid()?;
        Ok(self
            .tiles
            .iter()
            .zip(rasters)
            .map(|(t, raster)| (grid.from_flat_index(t.flat_index as usize), raster))
            .collect())
    }

    /// Decodes tile `i` into `out[i]` (reshaped in place, reusing its
    /// allocation) for every tile, in stream order, through `scratch`.
    ///
    /// A call over more than four tiles fans out over the host's cores:
    /// the calling thread (through `scratch`) and the process's pool
    /// workers (each through the codec's decode arena for that worker)
    /// claim the tiles one at a time. Every tile's span and latency sample
    /// is committed from the calling thread after the last tile, in tile
    /// order. The rasters are the same bits for any worker count and
    /// schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] if `out` does not hold one
    /// raster per tile, a tile index exceeds the grid, or a tile stream
    /// fails to decode (the first such tile in stream order).
    pub fn decode_tiles_into(
        &self,
        scratch: &mut DecodeScratch,
        out: &mut [Raster],
    ) -> Result<(), CodecError> {
        self.decode_tiles_on(tile_workers(self.tiles.len()), scratch, out)
    }

    /// [`RoiBitstream::decode_tiles_into`] on `workers` workers.
    pub(crate) fn decode_tiles_on(
        &self,
        workers: usize,
        scratch: &mut DecodeScratch,
        out: &mut [Raster],
    ) -> Result<(), CodecError> {
        if out.len() != self.tiles.len() {
            return Err(CodecError::Malformed {
                reason: format!("{} rasters for {} tiles", out.len(), self.tiles.len()),
            });
        }
        let tile_count = self.grid()?.tile_count();
        let timed = scratch.timed();
        let decoded: Vec<DecodedSlot> = if workers.min(out.len()) <= 1 {
            self.tiles
                .iter()
                .zip(out.iter_mut())
                .map(|(tile, raster)| decode_tile(tile, tile_count, timed, scratch, raster))
                .collect()
        } else {
            // The pool's workers decode into the caller's own rasters,
            // lent to the job for the call.
            let job = DecodeTiles {
                tiles: self.tiles.clone(),
                tile_count,
                timed,
                slots: out
                    .iter_mut()
                    .map(|raster| Mutex::new((std::mem::replace(raster, Raster::new(0, 0)), None)))
                    .collect(),
            };
            let call = fanout::run(scratch, workers, out.len(), job);
            call.job()
                .slots
                .iter()
                .zip(out.iter_mut())
                .map(|(slot, raster)| {
                    let mut slot = lock(slot);
                    std::mem::swap(raster, &mut slot.0);
                    slot.1.take().expect("every tile is worked")
                })
                .collect()
        };
        for (tile, (decoded, time)) in self.tiles.iter().zip(decoded) {
            decoded?;
            scratch.commit_decode(tile.image.format(), time, tile.image.payload_len());
        }
        Ok(())
    }

    /// Decodes and patches every tile into `canvas` (which must match the
    /// bitstream's image dimensions), decoding through
    /// [`RoiBitstream::decode_tiles_into`].
    ///
    /// Allocates a fresh [`DecodeScratch`] and one raster per tile per
    /// call; per-capture hot paths hold one arena and reuse the rasters.
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
        for (index, tile) in self.decode_tiles_with_scratch(&mut DecodeScratch::new())? {
            grid.insert_tile(canvas, index, &tile)
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
/// A call over more than four tiles fans out over the host's cores: the
/// calling thread (through `scratch`) and the process's pool workers
/// (each through the codec's encode arena for that worker) claim the
/// tiles one at a time. Every tile's span and histogram samples are
/// committed from the calling thread after the last tile, in mask order.
/// The bytes are the same for any worker count and schedule.
///
/// # Errors
///
/// Returns [`CodecError::Malformed`] if `image` does not match `grid`, or
/// propagates the first per-tile encoding error in mask order.
pub fn encode_roi_with_scratch(
    image: &Raster,
    grid: &TileGrid,
    mask: &TileMask,
    config: &CodecConfig,
    budget_per_tile: usize,
    scratch: &mut CodecScratch,
) -> Result<RoiBitstream, CodecError> {
    let workers = tile_workers(mask.count_set());
    encode_roi_on(workers, image, grid, mask, config, budget_per_tile, scratch)
}

/// [`encode_roi_with_scratch`] on `workers` workers.
pub(crate) fn encode_roi_on(
    workers: usize,
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
    let indices: Vec<TileIndex> = mask.iter_set().collect();
    let timed = scratch.timed();
    let encoded: Vec<EncodedSlot> = if workers.min(indices.len()) <= 1 {
        indices
            .iter()
            .map(|&index| encode_tile(image, grid, index, config, budget_per_tile, timed, scratch))
            .collect()
    } else {
        // The pool's workers read the band from the job's own copy.
        let job = EncodeTiles {
            band: image.clone(),
            grid: *grid,
            indices: indices.clone(),
            config: *config,
            budget: budget_per_tile,
            timed,
            slots: indices.iter().map(|_| Mutex::new(None)).collect(),
        };
        let call = fanout::run(scratch, workers, indices.len(), job);
        call.job()
            .slots
            .iter()
            .map(|slot| lock(slot).take().expect("every tile is worked"))
            .collect()
    };
    let mut tiles = Vec::with_capacity(indices.len());
    for (index, (encoded, time)) in indices.iter().zip(encoded) {
        let encoded = encoded?;
        scratch.commit_encode(time, encoded.payload_len());
        tiles.push(EncodedTile {
            flat_index: grid.flat_index(*index) as u32,
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

/// One tile's encode and its worker-side time.
type EncodedSlot = (Result<EncodedImage, CodecError>, TileTime);

/// One tile's decode and its worker-side time.
type DecodedSlot = (Result<(), CodecError>, TileTime);

/// Encodes tile `index` of `image` through `arena`.
fn encode_tile(
    image: &Raster,
    grid: &TileGrid,
    index: TileIndex,
    config: &CodecConfig,
    budget: usize,
    timed: bool,
    arena: &mut CodecScratch,
) -> EncodedSlot {
    match grid.tile_view(image, index) {
        Ok(view) => time_tile(timed, || {
            encode_view_uninstrumented(&view, config, budget, arena)
        }),
        Err(e) => (
            Err(CodecError::Malformed {
                reason: e.to_string(),
            }),
            None,
        ),
    }
}

/// Decodes `tile` of a grid of `tile_count` tiles into `out` through
/// `arena`.
fn decode_tile(
    tile: &EncodedTile,
    tile_count: usize,
    timed: bool,
    arena: &mut DecodeScratch,
    out: &mut Raster,
) -> DecodedSlot {
    let flat = tile.flat_index as usize;
    if flat >= tile_count {
        return (
            Err(CodecError::Malformed {
                reason: format!("tile index {flat} out of range"),
            }),
            None,
        );
    }
    let (decoded, time) = decode_tile_uninstrumented(&tile.image, timed, arena, out);
    (decoded.map_err(CodecError::from), time)
}

/// A fanned-out ROI encode: a copy of the band, and one slot per tile.
struct EncodeTiles {
    band: Raster,
    grid: TileGrid,
    indices: Vec<TileIndex>,
    config: CodecConfig,
    budget: usize,
    timed: bool,
    slots: Vec<Mutex<Option<EncodedSlot>>>,
}

impl TileJob<CodecScratch> for EncodeTiles {
    fn work(&self, arena: &mut CodecScratch, i: usize) {
        let encoded = encode_tile(
            &self.band,
            &self.grid,
            self.indices[i],
            &self.config,
            self.budget,
            self.timed,
            arena,
        );
        *lock(&self.slots[i]) = Some(encoded);
    }

    fn unit(&self) -> Unit {
        let side = self.grid.tile_size();
        let levels = self.config.levels.min(dwt::max_levels(side, side));
        let chain = dwt::largest_subband(side, side, levels);
        Unit {
            plane: side * side,
            chain,
            subbands: 3 * levels as usize + 1,
            bytes: budgeted_stream_bytes(self.budget, chain),
        }
    }
}

/// A fanned-out tile decode: the tiles, and one slot per tile holding
/// its output raster.
struct DecodeTiles {
    tiles: Vec<EncodedTile>,
    tile_count: usize,
    timed: bool,
    slots: Vec<Mutex<(Raster, Option<DecodedSlot>)>>,
}

impl TileJob<DecodeScratch> for DecodeTiles {
    fn work(&self, arena: &mut DecodeScratch, i: usize) {
        let mut slot = lock(&self.slots[i]);
        let decoded = decode_tile(
            &self.tiles[i],
            self.tile_count,
            self.timed,
            arena,
            &mut slot.0,
        );
        slot.1 = Some(decoded);
    }

    fn unit(&self) -> Unit {
        let mut unit = Unit::default();
        for tile in &self.tiles {
            let image = &tile.image;
            let (w, h) = (image.width() as usize, image.height() as usize);
            // EPC1 codes the whole plane as one chain.
            let chain = match image.format() {
                FormatVersion::Epc1 => w * h,
                FormatVersion::Epc2 => dwt::largest_subband(w, h, image.levels()),
            };
            unit.plane = unit.plane.max(w * h);
            unit.chain = unit.chain.max(chain);
            unit.subbands = unit.subbands.max(3 * image.levels() as usize + 1);
        }
        unit
    }
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

    /// Every tile's `(flat_index, bytes)`, then every decoded tile's bits.
    type TileBytesAndBits = (Vec<(u32, Vec<u8>)>, Vec<Vec<u32>>);

    /// [`TileBytesAndBits`] with the ROI encoded and decoded on `workers`
    /// workers.
    fn fanned_out(
        workers: usize,
        img: &Raster,
        grid: &TileGrid,
        mask: &TileMask,
        enc: &mut CodecScratch,
        dec: &mut DecodeScratch,
    ) -> TileBytesAndBits {
        let roi =
            encode_roi_on(workers, img, grid, mask, &CodecConfig::lossy(), 1024, enc).unwrap();
        let bytes = roi
            .tiles()
            .iter()
            .map(|t| (t.flat_index, t.image.to_bytes()))
            .collect();
        let mut rasters = vec![Raster::new(0, 0); roi.tile_count()];
        roi.decode_tiles_on(workers, dec, &mut rasters).unwrap();
        let bits = rasters
            .iter()
            .map(|r| r.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        (bytes, bits)
    }

    #[test]
    fn tiles_are_independent_of_worker_count() {
        let edges = Raster::from_fn(200, 137, |x, y| ((x * 3 + y * 5) % 61) as f32 / 61.0);
        let edge_grid = TileGrid::new(200, 137, 64).unwrap();
        let mut edge_mask = TileMask::new(&edge_grid);
        edge_mask.fill();
        let img = image_256();
        let grid = TileGrid::new(256, 256, 64).unwrap();
        for (img, grid, mask) in [
            (&img, &grid, checker_mask(&grid)),
            (&edges, &edge_grid, edge_mask),
        ] {
            let (mut enc, mut dec) = (CodecScratch::new(), DecodeScratch::new());
            let serial = fanned_out(1, img, grid, &mask, &mut enc, &mut dec);
            let tiles = mask.count_set();
            for workers in [1, 2, 3, 7, tiles + 1] {
                let (mut enc, mut dec) = (CodecScratch::new(), DecodeScratch::new());
                let got = fanned_out(workers, img, grid, &mask, &mut enc, &mut dec);
                assert!(got == serial, "{workers} workers over {tiles} tiles");
                // The pool's threads are kept, and a repeat call grows
                // none.
                let grown = (enc.grow_events(), dec.grow_events());
                let reserved = (enc.reserved_bytes(), dec.reserved_bytes());
                assert!(earthplus_raster::pool_threads() < earthplus_raster::available_cores());
                assert!(fanned_out(workers, img, grid, &mask, &mut enc, &mut dec) == serial);
                assert_eq!((enc.grow_events(), dec.grow_events()), grown);
                assert_eq!((enc.reserved_bytes(), dec.reserved_bytes()), reserved);
            }
        }
    }

    #[test]
    fn fanned_out_spans_commit_in_tile_order() {
        use earthplus_telemetry::{names, FlightRecorder, MetricsRegistry, TraceEventKind};
        let img = image_256();
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let mut mask = TileMask::new(&grid);
        mask.fill();
        let registry = MetricsRegistry::new();
        let recorder = FlightRecorder::new();
        let (mut enc, mut dec) = (CodecScratch::new(), DecodeScratch::new());
        enc.set_telemetry(&registry.sink());
        enc.set_tracing(&recorder.sink());
        dec.set_telemetry(&registry.sink());
        dec.set_tracing(&recorder.sink());
        let (bytes, _) = fanned_out(3, &img, &grid, &mask, &mut enc, &mut dec);
        let log = recorder.log();
        let snapshot = registry.snapshot();
        for (name, hist) in [
            ("encode.epc2", names::CODEC_ENCODE_EPC2_NS),
            ("decode.epc2", names::CODEC_DECODE_EPC2_NS),
        ] {
            let events: Vec<_> = log.events.iter().filter(|e| e.name == name).collect();
            assert_eq!(events.len(), 2 * bytes.len(), "{name}");
            let mut sum = 0;
            for pair in events.chunks(2) {
                assert_eq!(pair[0].kind, TraceEventKind::Begin);
                assert_eq!(pair[1].kind, TraceEventKind::End);
                sum += pair[1].ts_ns - pair[0].ts_ns;
            }
            let h = snapshot.histogram(hist).unwrap();
            assert_eq!((h.count, h.sum), (bytes.len() as u64, sum), "{name}");
        }
        // Payload sizes ride on the End events, in mask order.
        let sizes: Vec<_> = log
            .events
            .iter()
            .filter(|e| e.name == "encode.epc2" && e.kind == TraceEventKind::End)
            .map(|e| e.args[0].1.clone())
            .collect();
        let roi = encode_roi(&img, &grid, &mask, &CodecConfig::lossy(), 1024).unwrap();
        let expect: Vec<_> = roi
            .tiles()
            .iter()
            .map(|t| t.image.payload_len().into())
            .collect();
        assert_eq!(sizes, expect);
        let h = snapshot.histogram(names::CODEC_ENCODE_BYTES).unwrap();
        assert_eq!(h.count, bytes.len() as u64);
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
