//! Pins the ROI tile path's output: the bytes of every encoded tile and
//! the bits of every decoded tile, on the shapes a band's tiles come in.
//!
//! Each case hashes (FNV-1a) every tile's `(flat_index, to_bytes())` from
//! [`encode_roi_with_scratch`], then every `(tile index, raster bits)`
//! pair from [`RoiBitstream::decode_tiles_with_scratch`]. The cases cover
//! the `codec_stream` geometry (512² × 4 bands, every tile set), a
//! checkerboard mask, partial edge tiles (200 × 137), and masks of one to
//! five tiles, each at a 512 B and a 4096 B tile budget. However the tile
//! loop is scheduled, these hashes must not move.

use earthplus_codec::{
    encode_roi_with_scratch, CodecConfig, CodecScratch, DecodeScratch, RoiBitstream,
};
use earthplus_raster::{Raster, TileGrid, TileMask};

const TILE: usize = 64;
const BUDGETS: [usize; 2] = [512, 4096];

/// FNV-1a over everything fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A smooth field with texture and noise that differs per `seed`, so
/// every band and every tile codes differently.
fn band(w: usize, h: usize, seed: u64) -> Raster {
    let phase = (seed % 7) as f32 * 0.37;
    Raster::from_fn(w, h, |x, y| {
        let fx = x as f32 / w as f32;
        let fy = y as f32 / h as f32;
        let base = 0.5 + 0.3 * (fx * 9.0 + phase).sin() * (fy * 7.0 - phase).cos();
        let edge = if (x / 37 + y / 23) % 3 == 0 { 0.1 } else { 0.0 };
        let noise = (mix((y * w + x) as u64 ^ seed.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)) >> 40)
            as f32
            / (1u64 << 24) as f32;
        (base + edge + (noise - 0.5) * 0.05).clamp(0.0, 1.0)
    })
}

fn full_mask(grid: &TileGrid) -> TileMask {
    let mut mask = TileMask::new(grid);
    mask.fill();
    mask
}

fn checker_mask(grid: &TileGrid) -> TileMask {
    let mut mask = TileMask::new(grid);
    for t in grid.iter() {
        mask.set(t, (t.col + t.row) % 2 == 0);
    }
    mask
}

/// `count` tiles scattered over the grid (every third flat index from 1).
fn sparse_mask(grid: &TileGrid, count: usize) -> TileMask {
    let mut mask = TileMask::new(grid);
    for k in 0..count {
        mask.set_flat((1 + 3 * k) % grid.tile_count(), true);
    }
    assert_eq!(mask.count_set(), count);
    mask
}

/// Encodes `mask`'s tiles of every band at every budget, decodes them
/// back, and hashes both.
fn case_hash(
    bands: &[Raster],
    mask: &TileMask,
    encoder: &mut CodecScratch,
    decoder: &mut DecodeScratch,
) -> u64 {
    let (w, h) = bands[0].dimensions();
    let grid = TileGrid::new(w, h, TILE).unwrap();
    let mut hash = Fnv::new();
    for &budget in &BUDGETS {
        for image in bands {
            let roi: RoiBitstream =
                encode_roi_with_scratch(image, &grid, mask, &CodecConfig::lossy(), budget, encoder)
                    .unwrap();
            assert_eq!(roi.tile_count(), mask.count_set());
            for tile in roi.tiles() {
                hash.u64(tile.flat_index as u64);
                hash.bytes(&tile.image.to_bytes());
            }
            for (index, raster) in roi.decode_tiles_with_scratch(decoder).unwrap() {
                hash.u64(grid.flat_index(index) as u64);
                hash.u64(raster.width() as u64);
                hash.u64(raster.height() as u64);
                for v in raster.as_slice() {
                    hash.bytes(&v.to_bits().to_le_bytes());
                }
            }
        }
    }
    hash.0
}

#[test]
fn roi_tile_bytes_and_decoded_bits_match_golden() {
    let stream: Vec<Raster> = (0..4).map(|b| band(512, 512, 11 + b)).collect();
    let stream_grid = TileGrid::new(512, 512, TILE).unwrap();
    let small = vec![band(256, 256, 5)];
    let small_grid = TileGrid::new(256, 256, TILE).unwrap();
    let edges = vec![band(200, 137, 3)];
    let edge_grid = TileGrid::new(200, 137, TILE).unwrap();

    let mut cases: Vec<(String, &[Raster], TileMask, u64)> = vec![
        (
            "512x512x4 every tile".into(),
            &stream,
            full_mask(&stream_grid),
            0x14e7_7e9c_36d3_66c4,
        ),
        (
            "512x512 checkerboard".into(),
            &stream[..1],
            checker_mask(&stream_grid),
            0x2b92_2bfd_2bca_0bef,
        ),
        (
            "200x137 partial edges".into(),
            &edges,
            full_mask(&edge_grid),
            0x14e6_cb8f_3909_d55e,
        ),
    ];
    let sparse = [
        0x3b3d_abf4_c491_80cf,
        0x8e7d_c9e1_7c19_a99b,
        0x0602_be61_f4ab_75b1,
        0x604e_e5e9_2504_ea4f,
        0x5c08_2f78_21e5_afd5,
    ];
    for (k, &golden) in sparse.iter().enumerate() {
        cases.push((
            format!("256x256 {} tiles", k + 1),
            &small,
            sparse_mask(&small_grid, k + 1),
            golden,
        ));
    }

    let mut encoder = CodecScratch::new();
    let mut decoder = DecodeScratch::new();
    let report: Vec<(String, u64, u64)> = cases
        .iter()
        .map(|(name, bands, mask, golden)| {
            let hash = case_hash(bands, mask, &mut encoder, &mut decoder);
            (name.clone(), hash, *golden)
        })
        .collect();
    for (name, hash, golden) in &report {
        assert_eq!(
            hash, golden,
            "{name}: {hash:#018x} (every case, got vs golden: {report:#x?})"
        );
    }
}

/// One `codec_stream`-shaped capture: every band's tiles encoded and
/// decoded back through the two arenas.
fn capture(bands: &[Raster], encoder: &mut CodecScratch, decoder: &mut DecodeScratch) {
    let grid = TileGrid::new(512, 512, TILE).unwrap();
    let mask = full_mask(&grid);
    for image in bands {
        let roi = encode_roi_with_scratch(image, &grid, &mask, &CodecConfig::lossy(), 512, encoder)
            .unwrap();
        roi.decode_tiles_with_scratch(decoder).unwrap();
    }
}

#[test]
fn second_identical_capture_grows_no_arena() {
    let bands: Vec<Raster> = (0..4).map(|b| band(512, 512, 11 + b)).collect();
    let mut encoder = CodecScratch::new();
    let mut decoder = DecodeScratch::new();
    capture(&bands, &mut encoder, &mut decoder);
    let grown = (encoder.grow_events(), decoder.grow_events());
    let reserved = (encoder.reserved_bytes(), decoder.reserved_bytes());
    assert!(grown.0 > 0 && grown.1 > 0);
    capture(&bands, &mut encoder, &mut decoder);
    assert_eq!((encoder.grow_events(), decoder.grow_events()), grown);
    assert_eq!(
        (encoder.reserved_bytes(), decoder.reserved_bytes()),
        reserved
    );

    // With more than one core the 64-tile calls fan out, and the helper
    // arenas count: together they hold more than one arena that only ever
    // coded tiles on the calling thread.
    if earthplus_raster::available_cores() > 1 {
        let grid = TileGrid::new(512, 512, TILE).unwrap();
        let (mut serial_enc, mut serial_dec) = (CodecScratch::new(), DecodeScratch::new());
        for image in &bands {
            let roi = encode_roi_with_scratch(
                image,
                &grid,
                &sparse_mask(&grid, 4),
                &CodecConfig::lossy(),
                512,
                &mut serial_enc,
            )
            .unwrap();
            roi.decode_tiles_with_scratch(&mut serial_dec).unwrap();
        }
        assert!(encoder.reserved_bytes() > serial_enc.reserved_bytes());
        assert!(decoder.reserved_bytes() > serial_dec.reserved_bytes());
    }
}
