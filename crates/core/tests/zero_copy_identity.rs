//! Bit-identity of the zero-copy/scratch-arena pipeline.
//!
//! The tile-view + codec-scratch refactor must not change a single output
//! bit. Three layers of protection:
//!
//! 1. **Golden hashes** — FNV-1a hashes of encoder output, change scores,
//!    and cloud masks on the quickstart scene, captured from the
//!    pre-refactor implementation. Any stream-format or numeric drift
//!    fails these. The frozen EPC1 bytes come from the vendored reference
//!    encoders (`earthplus_codec::reference`), the one EPC1 encoder.
//! 2. **Differential tests** — the zero-copy paths (tile views through
//!    one shared scratch arena) must match the copy path (materialized
//!    tiles, fresh arenas) byte for byte.
//! 3. **Steady-state allocation accounting** — a second capture through
//!    the same strategy must not grow the codec scratch arena.

use earthplus::prelude::*;
use earthplus::{CaptureContext, ChangeDetector, ContactWindow, ReferenceImage};
use earthplus_cloud::{train_onboard_detector, TrainingConfig};
use earthplus_codec::{
    decode, encode_roi_with_scratch, encode_with_budget, reference, CodecConfig, CodecScratch,
    EncodedImage, FormatVersion,
};
use earthplus_orbit::SatelliteId;
use earthplus_raster::{Band, LocationId, PlanetBand, Raster, TileGrid, TileMask};
use earthplus_scene::terrain::LocationArchetype;
use earthplus_scene::{Capture, LocationScene, SceneConfig};

/// Golden values captured from the pre-refactor (copy-path) pipeline on
/// the quickstart scene; since the EPC2 format bump these pin the **EPC1**
/// wire format, which must stay decodable and byte-stable forever. Do not
/// update these without understanding exactly why the output bytes
/// changed.
const GOLDEN_ROI_HASH: u64 = 0x568bdefd2376dd56;
const GOLDEN_ENCODE_HASH: u64 = 0x98b24f4bdc22c080;
const GOLDEN_SCORES_HASH: u64 = 0x0ef819b08ffb1192;
const GOLDEN_CLOUD_HASH: u64 = 0x881cb9b960fc813c;
/// Golden values of the EPC2 encoder on the same scene, last re-goldened
/// when the header's pass-offset table became Exp-Golomb deltas (payload
/// and offsets unchanged, see [`GOLDEN_EPC2_ROI_PAYLOAD_HASH`]). Versioned
/// separately from the EPC1 hashes: an encoder change that alters EPC2
/// bytes must bump these *and* leave the EPC1 hashes untouched.
const GOLDEN_EPC2_ROI_HASH: u64 = 0x210f329eac6e5666;
const GOLDEN_EPC2_ENCODE_HASH: u64 = 0x3eb4d988fdd3805f;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a64(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn quickstart_scene() -> (LocationScene, Capture) {
    let scene = LocationScene::new(SceneConfig::quick(7, LocationArchetype::Agriculture));
    let capture = scene.capture_with_coverage(60.0, 0.1);
    (scene, capture)
}

/// The frozen EPC1 ROI bytes survive the library's parser: every
/// budget-truncated tile parses back equal and re-serializes to the
/// golden bytes.
#[test]
fn golden_roi_bytes_unchanged() {
    let (_, capture) = quickstart_scene();
    let red = capture
        .image
        .require_band(Band::Planet(PlanetBand::Red))
        .unwrap();
    let config = EarthPlusConfig::paper();
    let grid = TileGrid::new(256, 256, config.tile_size).unwrap();
    let mut all = TileMask::new(&grid);
    all.fill();
    let roi = reference::encode_roi_reference(
        red,
        &grid,
        &all,
        &CodecConfig::lossy(),
        config.tile_budget_bytes(),
    )
    .unwrap();
    let mut hash = FNV_OFFSET;
    for tile in roi.tiles() {
        let parsed = EncodedImage::from_bytes(&tile.image.to_bytes()).unwrap();
        assert_eq!(parsed, tile.image, "tile {}", tile.flat_index);
        hash = fnv1a64(&tile.flat_index.to_be_bytes(), hash);
        hash = fnv1a64(&parsed.to_bytes(), hash);
    }
    assert_eq!(hash, GOLDEN_ROI_HASH, "EPC1 ROI bytes drifted");
}

/// The frozen full-rate EPC1 stream survives the library's parser.
#[test]
fn golden_full_encode_bytes_unchanged() {
    let (_, capture) = quickstart_scene();
    let red = capture
        .image
        .require_band(Band::Planet(PlanetBand::Red))
        .unwrap();
    let full = reference::encode_reference(red, &CodecConfig::lossy()).unwrap();
    let parsed = EncodedImage::from_bytes(&full.to_bytes()).unwrap();
    assert_eq!(parsed, full);
    assert_eq!(
        fnv1a64(&parsed.to_bytes(), FNV_OFFSET),
        GOLDEN_ENCODE_HASH,
        "full-rate EPC1 bytes drifted"
    );
}

/// The vendored reference encoders alone reproduce the frozen EPC1
/// goldens: the EPC1 wire bytes are pinned against the oracle, not
/// against whichever optimized encoder happens to emit them.
#[test]
fn reference_encoders_hash_to_the_epc1_goldens() {
    let (_, capture) = quickstart_scene();
    let red = capture
        .image
        .require_band(Band::Planet(PlanetBand::Red))
        .unwrap();
    let config = EarthPlusConfig::paper();
    let grid = TileGrid::new(256, 256, config.tile_size).unwrap();
    let mut all = TileMask::new(&grid);
    all.fill();
    let codec = CodecConfig::lossy();
    let roi = reference::encode_roi_reference(red, &grid, &all, &codec, config.tile_budget_bytes())
        .unwrap();
    let mut hash = FNV_OFFSET;
    for tile in roi.tiles() {
        hash = fnv1a64(&tile.flat_index.to_be_bytes(), hash);
        hash = fnv1a64(&tile.image.to_bytes(), hash);
    }
    assert_eq!(hash, GOLDEN_ROI_HASH, "reference ROI encoder drifted");
    let full = reference::encode_reference(red, &codec).unwrap();
    assert_eq!(
        fnv1a64(&full.to_bytes(), FNV_OFFSET),
        GOLDEN_ENCODE_HASH,
        "reference full-rate encoder drifted"
    );
}

#[test]
fn golden_epc2_roi_bytes_and_roundtrip() {
    let (_, capture) = quickstart_scene();
    let red = capture
        .image
        .require_band(Band::Planet(PlanetBand::Red))
        .unwrap();
    let config = EarthPlusConfig::paper();
    let grid = TileGrid::new(256, 256, config.tile_size).unwrap();
    let mut all = TileMask::new(&grid);
    all.fill();
    let mut scratch = CodecScratch::new();
    let roi = encode_roi_with_scratch(
        red,
        &grid,
        &all,
        &CodecConfig::lossy(),
        config.tile_budget_bytes(),
        &mut scratch,
    )
    .unwrap();
    let mut hash = FNV_OFFSET;
    for tile in roi.tiles() {
        assert_eq!(tile.image.format(), FormatVersion::Epc2);
        hash = fnv1a64(&tile.flat_index.to_be_bytes(), hash);
        hash = fnv1a64(&tile.image.to_bytes(), hash);
    }
    assert_eq!(
        hash, GOLDEN_EPC2_ROI_HASH,
        "EPC2 ROI encoder output drifted"
    );
    // Every budget-truncated EPC2 tile must survive a serialize → parse →
    // decode round trip and patch cleanly.
    let mut canvas = Raster::new(256, 256);
    roi.patch_into(&mut canvas).unwrap();
}

#[test]
fn golden_epc2_full_encode_roundtrips_bit_exact() {
    let (_, capture) = quickstart_scene();
    let red = capture
        .image
        .require_band(Band::Planet(PlanetBand::Red))
        .unwrap();
    let full = earthplus_codec::encode(red, &CodecConfig::lossy()).unwrap();
    assert_eq!(full.format(), FormatVersion::Epc2);
    assert_eq!(
        fnv1a64(&full.to_bytes(), FNV_OFFSET),
        GOLDEN_EPC2_ENCODE_HASH,
        "EPC2 full-rate encoder output drifted"
    );
    // Bit-exact through serialization, and decode agrees with the EPC1
    // decode of the same capture to within float noise (same quantizer,
    // same transform).
    let parsed = EncodedImage::from_bytes(&full.to_bytes()).unwrap();
    assert_eq!(parsed, full);
    let epc2_dec = decode(&parsed).unwrap();
    let epc1_dec =
        decode(&reference::encode_reference(red, &CodecConfig::lossy()).unwrap()).unwrap();
    let max_err = epc1_dec
        .as_slice()
        .iter()
        .zip(epc2_dec.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_err < 1e-5,
        "EPC2 full-rate decode diverged from EPC1: {max_err}"
    );
}

/// Golden FNV-1a hashes of everything an EPC2 stream carries *except* the
/// header's wire encoding: per tile the flat index, the payload bytes and
/// every subband chunk's plane count and pass offsets. A change to how the
/// header table is serialized must leave these untouched, while
/// [`GOLDEN_EPC2_ROI_HASH`] / [`GOLDEN_EPC2_ENCODE_HASH`] move with it.
const GOLDEN_EPC2_ROI_PAYLOAD_HASH: u64 = 0x8b75519ddc9b170e;
const GOLDEN_EPC2_ENCODE_PAYLOAD_HASH: u64 = 0x3e6b687c88399378;

/// Hashes an EPC2 stream's payload (the trailing `payload_len` bytes of
/// its serialization) and its chunk table as plain integers.
fn epc2_payload_and_offsets_hash(image: &EncodedImage, mut hash: u64) -> u64 {
    let bytes = image.to_bytes();
    hash = fnv1a64(&bytes[bytes.len() - image.payload_len()..], hash);
    for chunk in image.subbands() {
        hash = fnv1a64(&[chunk.planes], hash);
        for &o in &chunk.offsets {
            hash = fnv1a64(&o.to_le_bytes(), hash);
        }
    }
    hash
}

#[test]
fn golden_epc2_payload_and_offsets_unchanged() {
    let (_, capture) = quickstart_scene();
    let red = capture
        .image
        .require_band(Band::Planet(PlanetBand::Red))
        .unwrap();
    let config = EarthPlusConfig::paper();
    let grid = TileGrid::new(256, 256, config.tile_size).unwrap();
    let mut all = TileMask::new(&grid);
    all.fill();
    let roi = encode_roi_with_scratch(
        red,
        &grid,
        &all,
        &CodecConfig::lossy(),
        config.tile_budget_bytes(),
        &mut CodecScratch::new(),
    )
    .unwrap();
    let mut hash = FNV_OFFSET;
    for tile in roi.tiles() {
        hash = fnv1a64(&tile.flat_index.to_be_bytes(), hash);
        hash = epc2_payload_and_offsets_hash(&tile.image, hash);
    }
    let full = earthplus_codec::encode(red, &CodecConfig::lossy()).unwrap();
    let full_hash = epc2_payload_and_offsets_hash(&full, FNV_OFFSET);
    assert_eq!(
        [hash, full_hash],
        [
            GOLDEN_EPC2_ROI_PAYLOAD_HASH,
            GOLDEN_EPC2_ENCODE_PAYLOAD_HASH
        ],
        "EPC2 payload or pass offsets drifted (ROI, full-rate): {:#018x?}",
        [hash, full_hash]
    );
}

/// Golden FNV-1a hashes of the decoded `f32` bits of the budget-truncated
/// ROI tiles above (EPC1 and EPC2): truncation exercises the mid-tread
/// bias on the lowest decoded plane, which the encoder goldens cannot see.
const GOLDEN_EPC1_ROI_DECODE_HASH: u64 = 0x16107b4779eda22e;
const GOLDEN_EPC2_ROI_DECODE_HASH: u64 = 0x081520e6cd5c811f;

#[test]
fn golden_roi_decodes_unchanged() {
    let (_, capture) = quickstart_scene();
    let red = capture
        .image
        .require_band(Band::Planet(PlanetBand::Red))
        .unwrap();
    let config = EarthPlusConfig::paper();
    let grid = TileGrid::new(256, 256, config.tile_size).unwrap();
    let mut all = TileMask::new(&grid);
    all.fill();
    let (codec, budget) = (CodecConfig::lossy(), config.tile_budget_bytes());
    let epc1 = reference::encode_roi_reference(red, &grid, &all, &codec, budget).unwrap();
    let epc2 = encode_roi_with_scratch(red, &grid, &all, &codec, budget, &mut CodecScratch::new())
        .unwrap();
    for (roi, golden) in [
        (epc1, GOLDEN_EPC1_ROI_DECODE_HASH),
        (epc2, GOLDEN_EPC2_ROI_DECODE_HASH),
    ] {
        let format = roi.tiles()[0].image.format();
        let mut hash = FNV_OFFSET;
        for tile in roi.tiles() {
            for &v in decode(&tile.image).unwrap().as_slice() {
                hash = fnv1a64(&v.to_bits().to_le_bytes(), hash);
            }
        }
        assert_eq!(hash, golden, "{format:?} ROI decode drifted");
    }
}

#[test]
fn golden_change_scores_unchanged() {
    let (scene, capture) = quickstart_scene();
    let band = Band::Planet(PlanetBand::Red);
    let red = capture.image.require_band(band).unwrap();
    let config = EarthPlusConfig::paper();
    let reference = ReferenceImage::from_capture(
        LocationId(0),
        band,
        57.0,
        &scene.ground_reflectance(band, 57.0),
        config.reference_downsample,
    )
    .unwrap();
    let det = ChangeDetector::new(config.detection_theta(), config.tile_size);
    let result = det.detect(red, &reference, None).unwrap();
    let mut hash = FNV_OFFSET;
    for sc in &result.scores {
        hash = fnv1a64(&sc.to_bits().to_be_bytes(), hash);
    }
    assert_eq!(hash, GOLDEN_SCORES_HASH, "fused tile scores drifted");
    assert_eq!(result.changed.count_set(), 12);
}

#[test]
fn golden_cloud_mask_unchanged() {
    let (scene, capture) = quickstart_scene();
    let detector = train_onboard_detector(&scene, &TrainingConfig::default());
    let detection = detector.detect(&capture.image).unwrap();
    let grid = TileGrid::new(256, 256, 64).unwrap();
    let mut hash = FNV_OFFSET;
    for t in grid.iter() {
        hash = fnv1a64(&[detection.tile_mask.get(t) as u8], hash);
    }
    assert_eq!(hash, GOLDEN_CLOUD_HASH, "view-based cloud features drifted");
}

/// The zero-copy ROI path (tile views through one arena shared by every
/// band) emits the bytes of the copy path: each tile materialized and
/// encoded to the budget through a fresh arena.
#[test]
fn scratch_path_matches_reference_on_every_band() {
    let (_, capture) = quickstart_scene();
    let config = EarthPlusConfig::paper();
    let grid = TileGrid::new(256, 256, config.tile_size).unwrap();
    let mut all = TileMask::new(&grid);
    all.fill();
    let codec = CodecConfig::lossy();
    let budget = config.tile_budget_bytes();
    let mut scratch = CodecScratch::new();
    for (band, raster) in capture.image.iter() {
        let roi =
            encode_roi_with_scratch(raster, &grid, &all, &codec, budget, &mut scratch).unwrap();
        assert_eq!(roi.tile_count(), grid.tile_count());
        for (t, tile) in grid.iter().zip(roi.tiles()) {
            let copied = grid.extract_tile(raster, t).unwrap();
            let old = encode_with_budget(&copied, &codec, budget).unwrap();
            assert_eq!(
                old, tile.image,
                "band {band:?} tile {t}: scratch path diverged"
            );
        }
    }
}

#[test]
fn view_encode_matches_copy_encode_on_partial_tiles() {
    // Odd dimensions exercise clipped edge tiles through both paths.
    let img = Raster::from_fn(200, 137, |x, y| ((x * 31 + y * 57) % 101) as f32 / 101.0);
    let grid = TileGrid::new(200, 137, 64).unwrap();
    let codec = CodecConfig::lossy();
    let mut scratch = CodecScratch::new();
    for t in grid.iter() {
        let copied = grid.extract_tile(&img, t).unwrap();
        let old = earthplus_codec::encode(&copied, &codec).unwrap();
        let view = grid.tile_view(&img, t).unwrap();
        let new = earthplus_codec::encode_view(&view, &codec, &mut scratch).unwrap();
        assert_eq!(old, new, "tile {t}");
        assert_eq!(old.to_bytes(), new.to_bytes(), "tile {t} serialization");
    }
}

#[test]
fn masked_tile_mse_matches_naive_lookup() {
    let grid = TileGrid::new(130, 70, 64).unwrap();
    let a = Raster::from_fn(130, 70, |x, y| ((x * 13 + y * 7) % 19) as f32 / 19.0);
    let b = Raster::from_fn(130, 70, |x, y| ((x * 5 + y * 11) % 23) as f32 / 23.0);
    let mut eval = TileMask::new(&grid);
    eval.fill();
    eval.set_flat(1, false);
    // The pre-refactor per-pixel lookup, verbatim.
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for t in eval.iter_set() {
        let (x0, y0, w, h) = grid.tile_rect(t);
        for y in y0..y0 + h {
            for x in x0..x0 + w {
                let d = (a.get(x, y) - b.get(x, y)) as f64;
                sum += d * d;
                n += 1;
            }
        }
    }
    let naive = sum / n as f64;
    let viewed = earthplus::strategy::masked_tile_mse(&a, &b, &grid, &eval).unwrap();
    assert_eq!(viewed, naive, "view-based MSE must be exactly equal");
}

#[test]
fn second_capture_allocates_no_new_scratch() {
    let (scene, capture) = quickstart_scene();
    let detector = train_onboard_detector(&scene, &TrainingConfig::default());
    let targets: Vec<_> = scene
        .config()
        .bands
        .iter()
        .map(|&b| (LocationId(0), b))
        .collect();
    let mut strategy = EarthPlusStrategy::new(EarthPlusConfig::paper(), detector, targets);
    let warmup = scene.capture_with_coverage(55.0, 0.0);
    strategy.on_capture(&CaptureContext {
        day: 55.0,
        satellite: SatelliteId(0),
        location: LocationId(0),
        capture: &warmup,
    });
    strategy.on_contact_pass(&[ContactWindow {
        satellite: SatelliteId(0),
        day: 56.0,
        budget_bytes: 20_000_000,
    }]);
    let after_first = strategy.codec_scratch().grow_events();
    assert!(after_first > 0, "first capture must have sized the arena");
    let decode_after_first = strategy.decode_scratch().grow_events();
    assert!(
        decode_after_first > 0,
        "first capture must have sized the decode arena"
    );
    let reserved = strategy.codec_scratch().reserved_bytes();
    let decode_reserved = strategy.decode_scratch().reserved_bytes();
    strategy.on_capture(&CaptureContext {
        day: 60.0,
        satellite: SatelliteId(0),
        location: LocationId(0),
        capture: &capture,
    });
    assert_eq!(
        strategy.codec_scratch().grow_events(),
        after_first,
        "steady-state capture grew the codec scratch arena"
    );
    assert_eq!(strategy.codec_scratch().reserved_bytes(), reserved);
    assert_eq!(
        strategy.decode_scratch().grow_events(),
        decode_after_first,
        "steady-state capture grew the decode scratch arena"
    );
    assert_eq!(strategy.decode_scratch().reserved_bytes(), decode_reserved);
}
