//! Cross-version format tests: EPC1 ↔ EPC2 coexistence, truncation
//! metadata consistency, and budgeted-encode equivalence. The library
//! encodes EPC2; EPC1 streams come from the vendored reference encoder,
//! the one EPC1 encoder.
//!
//! Randomized cases use a deterministic splitmix64 PRNG (the workspace has
//! no proptest dependency; see `tests/property_invariants.rs` at the repo
//! root for the idiom).

use earthplus_codec::bitplane::MAX_PLANES;
use earthplus_codec::{
    decode, encode, encode_view, encode_view_with_budget, encode_with_budget, reference,
    CodecConfig, CodecError, CodecScratch, EncodedImage, FormatVersion,
};
use earthplus_raster::{psnr, Raster, TileGrid, TileMask};

struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }
}

fn natural_image(w: usize, h: usize, seed: u64) -> Raster {
    let mut rng = Rng(seed);
    let noise: Vec<f32> = (0..w * h).map(|_| rng.unit_f32()).collect();
    Raster::from_fn(w, h, |x, y| {
        let fx = x as f32 / w as f32;
        let fy = y as f32 / h as f32;
        let smooth = 0.4 + 0.3 * (fx * 4.0).sin() * (fy * 3.0).cos();
        let texture = (noise[y * w + x] - 0.5) * 0.05;
        let edge = if fx > 0.5 { 0.15 } else { 0.0 };
        (smooth + texture + edge).clamp(0.0, 1.0)
    })
}

const FORMATS: [FormatVersion; 2] = [FormatVersion::Epc1, FormatVersion::Epc2];

/// Encodes `img` in `format`: EPC2 through the library, EPC1 through the
/// vendored reference encoder.
fn encode_as(
    img: &Raster,
    config: &CodecConfig,
    format: FormatVersion,
) -> Result<EncodedImage, CodecError> {
    match format {
        FormatVersion::Epc1 => reference::encode_reference(img, config),
        FormatVersion::Epc2 => encode(img, config),
    }
}

fn epc1(img: &Raster) -> EncodedImage {
    reference::encode_reference(img, &CodecConfig::lossy()).unwrap()
}

fn epc2() -> CodecConfig {
    CodecConfig::lossy()
}

#[test]
fn default_format_is_epc2() {
    for config in [CodecConfig::lossy(), CodecConfig::lossless()] {
        let enc = encode(&natural_image(32, 32, 1), &config).unwrap();
        assert_eq!(enc.format(), FormatVersion::Epc2);
        assert_eq!(enc.to_bytes()[4], 2, "version byte");
    }
}

#[test]
fn epc1_streams_still_encode_and_decode() {
    let img = natural_image(64, 64, 2);
    let enc = epc1(&img);
    assert_eq!(enc.format(), FormatVersion::Epc1);
    assert_eq!(enc.to_bytes()[4], 1, "version byte");
    let q = psnr(&img, &decode(&enc).unwrap()).unwrap();
    assert!(q > 45.0, "EPC1 full-rate PSNR {q}");
}

/// A quantizer step too fine for the image's dynamic range needs more
/// magnitude planes than a stream can carry: the encoders must refuse it
/// with a typed error instead of emitting a stream that decodes to noise.
#[test]
fn plane_overflow_is_an_encode_error_in_both_formats() {
    let img = Raster::from_fn(64, 64, |x, y| {
        0.5 + 0.4 * (x as f32 / 64.0 * 3.0).sin() * (y as f32 / 64.0 * 2.0).cos()
    });
    let fine = |quant_step| CodecConfig {
        quant_step,
        ..CodecConfig::lossy()
    };
    let too_many = |r: Result<EncodedImage, CodecError>| match r {
        Err(CodecError::TooManyPlanes { planes }) => planes > MAX_PLANES,
        _ => false,
    };
    for format in FORMATS {
        // A step of 1e-3 still fits and decodes back at full quality.
        let enc = encode_as(&img, &fine(1e-3), format).unwrap();
        assert!(enc.planes() <= MAX_PLANES, "{format:?}");
        let q = psnr(&img, &decode(&enc).unwrap()).unwrap();
        assert!(q > 60.0, "{format:?}: full-rate PSNR {q} at step 1e-3");
        // 1e-4 needs 31 planes: the quantizer's `as i32` cast saturates.
        assert!(too_many(encode_as(&img, &fine(1e-4), format)), "{format:?}");
    }
    let overflow = fine(1e-4);
    assert!(
        too_many(encode_with_budget(&img, &overflow, 4096)),
        "budgeted"
    );
    let mut scratch = CodecScratch::new();
    assert!(
        too_many(encode_view(
            &img.view(0, 0, 64, 64),
            &overflow,
            &mut scratch
        )),
        "scratch view"
    );
    // The reference ROI encoder refuses it too instead of clamping the
    // plane count.
    let grid = TileGrid::new(64, 64, 32).unwrap();
    let mut all = TileMask::new(&grid);
    all.fill();
    assert!(matches!(
        reference::encode_roi_reference(&img, &grid, &all, &overflow, 4096),
        Err(CodecError::TooManyPlanes { planes }) if planes > MAX_PLANES
    ));
}

#[test]
fn cross_version_serialization_roundtrip() {
    let img = natural_image(48, 32, 3);
    for format in FORMATS {
        let enc = encode_as(&img, &CodecConfig::lossy(), format).unwrap();
        let bytes = enc.to_bytes();
        assert_eq!(bytes.len(), enc.size_bytes(), "{format:?}");
        let parsed = EncodedImage::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, enc, "{format:?}");
        assert_eq!(
            decode(&parsed).unwrap().as_slice(),
            decode(&enc).unwrap().as_slice(),
            "{format:?}"
        );
        // The header length is computed, not measured: it must match the
        // serialization at every pass cut, including the empty stream.
        for cut in std::iter::once(0).chain(enc.pass_boundaries()) {
            let t = enc.truncated(cut);
            let bytes = t.to_bytes();
            assert_eq!(bytes.len(), t.size_bytes(), "{format:?} cut {cut}");
            assert_eq!(EncodedImage::from_bytes(&bytes).unwrap(), t);
        }
    }
}

#[test]
fn epc2_lossless_roundtrips_bit_exact() {
    let img = natural_image(67, 41, 4).map(|v| (v * 4095.0).round() / 4095.0);
    let enc = encode(&img, &CodecConfig::lossless()).unwrap();
    let dec = decode(&enc).unwrap();
    let max_err = img
        .as_slice()
        .iter()
        .zip(dec.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max)
        * 4095.0;
    assert!(max_err < 0.5, "EPC2 lossless max err {max_err} LSB");
}

#[test]
fn epc2_handles_all_zero_subbands_without_chunk_misalignment() {
    // A pure vertical stripe pattern leaves every LH (vertical-detail)
    // subband exactly zero while HL subbands carry energy. An all-zero
    // chunk records no pass offsets but the range coder still flushes a
    // few bytes — those must not enter the payload, or every later
    // chunk's derived start shifts and the decode collapses.
    let img = Raster::from_fn(64, 64, |x, _| if x % 2 == 0 { 0.25 } else { 0.75 });
    let q1 = psnr(&img, &decode(&epc1(&img)).unwrap()).unwrap();
    let q2 = psnr(&img, &decode(&encode(&img, &epc2()).unwrap()).unwrap()).unwrap();
    assert!(
        (q1 - q2).abs() < 0.01,
        "EPC2 diverged on zero subbands: EPC1 {q1} dB vs EPC2 {q2} dB"
    );
    // Flat imagery (all subbands but LL zero) and fully-black tiles too.
    for img in [
        Raster::filled(64, 64, 0.5),
        Raster::filled(48, 32, 0.0),
        Raster::from_fn(64, 64, |_, y| if y % 2 == 0 { 0.2 } else { 0.8 }),
    ] {
        let enc = encode(&img, &epc2()).unwrap();
        let dec = decode(&enc).unwrap();
        let e1 = decode(&epc1(&img)).unwrap();
        let max_diff = e1
            .as_slice()
            .iter()
            .zip(dec.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 1e-6, "flat-image decode diverged by {max_diff}");
        let parsed = EncodedImage::from_bytes(&enc.to_bytes()).unwrap();
        assert_eq!(parsed, enc);
    }
}

#[test]
fn from_bytes_rejects_corrupt_levels_byte_without_panicking() {
    let img = natural_image(32, 32, 6);
    for format in FORMATS {
        let mut bytes = encode_as(&img, &CodecConfig::lossy(), format)
            .unwrap()
            .to_bytes();
        // Header layout: magic(4) ver(1) wavelet(1) levels(1) ...
        bytes[6] = 200;
        let result = EncodedImage::from_bytes(&bytes);
        assert!(
            result.is_err(),
            "{format:?}: corrupt levels byte must be Malformed, not a panic"
        );
        bytes[6] = 13; // just past the valid cap
        assert!(EncodedImage::from_bytes(&bytes).is_err());
    }
}

#[test]
fn both_formats_decode_to_equivalent_quality_at_full_rate() {
    let img = natural_image(128, 128, 5);
    let q1 = psnr(&img, &decode(&epc1(&img)).unwrap()).unwrap();
    let q2 = psnr(&img, &decode(&encode(&img, &epc2()).unwrap()).unwrap()).unwrap();
    // Same quantizer, same transform: full-rate reconstructions match to
    // within float noise of the identical dequantized coefficients.
    assert!((q1 - q2).abs() < 0.01, "EPC1 {q1} dB vs EPC2 {q2} dB");
}

#[test]
fn epc2_budgeted_encode_equals_truncated_full_encode() {
    let mut rng = Rng(0xB06E7);
    for case in 0..16 {
        let img = natural_image(rng.range(8, 96), rng.range(8, 96), 100 + case);
        let full = encode(&img, &epc2()).unwrap();
        for _ in 0..4 {
            let budget = rng.range(0, full.payload_len() + 32);
            let budgeted = encode_with_budget(&img, &epc2(), budget).unwrap();
            let truncated = full.truncated(budget);
            assert_eq!(budgeted, truncated, "case {case} budget {budget}");
            assert_eq!(budgeted.to_bytes(), truncated.to_bytes());
        }
    }
}

/// Budgets on, just below and just above every pass boundary of the full
/// encode (where an off-by-one in the budgeted encoder's stopping rule
/// would show), plus the empty and the over-long budget. Every encode runs
/// through one shared arena, full and budgeted interleaved across shapes,
/// so a budgeted encode that stops early must leave no state behind that
/// changes the next encode's bytes.
#[test]
fn epc2_budgeted_encode_matches_truncation_at_every_pass_boundary() {
    let mut scratch = CodecScratch::new();
    for (case, &(w, h)) in [(64, 64), (67, 41), (8, 8), (1, 37), (128, 128)]
        .iter()
        .enumerate()
    {
        let img = natural_image(w, h, 300 + case as u64);
        let view = img.view(0, 0, w, h);
        let full = encode_view(&view, &epc2(), &mut scratch).unwrap();
        assert_eq!(full, encode(&img, &epc2()).unwrap(), "{w}x{h}: full");
        let mut budgets = std::collections::BTreeSet::from([0, full.payload_len() + 1]);
        for b in full.pass_boundaries() {
            budgets.extend([b.saturating_sub(1), b, b + 1]);
        }
        for (i, &budget) in budgets.iter().enumerate() {
            let budgeted = encode_view_with_budget(&view, &epc2(), budget, &mut scratch).unwrap();
            let truncated = full.truncated(budget);
            assert_eq!(budgeted, truncated, "{w}x{h} budget {budget}");
            assert_eq!(budgeted.to_bytes(), truncated.to_bytes());
            if i % 8 == 0 {
                let again = encode_view(&view, &epc2(), &mut scratch).unwrap();
                assert_eq!(again, full, "{w}x{h}: full encode after budget {budget}");
            }
        }
    }
}

#[test]
fn truncation_is_idempotent_and_metadata_consistent() {
    let mut rng = Rng(0x1DE0);
    for case in 0..12 {
        let img = natural_image(rng.range(8, 80), rng.range(8, 80), 200 + case);
        for format in FORMATS {
            let enc = encode_as(&img, &CodecConfig::lossy(), format).unwrap();
            for _ in 0..6 {
                let budget = rng.range(0, enc.payload_len() + 16);
                let t = enc.truncated(budget);
                // Metadata agrees with the payload…
                assert!(t.payload_len() <= budget.min(enc.payload_len()));
                assert_eq!(t.to_bytes().len(), t.size_bytes());
                if t.payload_len() > 0 {
                    assert_eq!(t.pass_boundaries().last().copied(), Some(t.payload_len()));
                }
                // …double truncation is the identity…
                assert_eq!(t.truncated(budget), t, "{format:?} case {case}");
                assert_eq!(t.truncated(t.payload_len()), t);
                // …and the cut stream round-trips through serialization.
                let parsed = EncodedImage::from_bytes(&t.to_bytes()).unwrap();
                assert_eq!(parsed, t);
                assert_eq!(
                    decode(&parsed).unwrap().as_slice(),
                    decode(&t).unwrap().as_slice()
                );
            }
        }
    }
}

#[test]
fn epc2_rate_distortion_is_monotone() {
    let img = natural_image(128, 128, 8);
    let full = encode(&img, &epc2()).unwrap();
    let mut last = 0.0;
    for rate in [0.1, 0.25, 0.5, 1.0f64] {
        let budget = (full.payload_len() as f64 * rate) as usize;
        let q = psnr(&img, &decode(&full.truncated(budget)).unwrap()).unwrap();
        assert!(q >= last - 0.3, "rate {rate}: {q} dB after {last} dB");
        last = q;
    }
    assert!(last > 40.0);
}
