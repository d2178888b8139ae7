//! Streaming partial-decode pipeline tests: level-limited and LL-only
//! decoding, the `DecodeScratch` arena, typed decode errors, and
//! corrupt-bitstream robustness.
//!
//! Randomized cases use a deterministic splitmix64 PRNG (the workspace has
//! no proptest dependency; see `tests/property_invariants.rs` at the repo
//! root for the idiom).

use earthplus_codec::{
    decode, decode_into, decode_level_limited, decode_ll_only, decode_with_scratch, dwt, encode,
    encode_with_budget, reference, CodecConfig, DecodeScratch, EncodedImage, FormatVersion,
};
use earthplus_raster::{downsample_box, mean_abs_diff, Raster};

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

/// One encoder per wavelet and format: the library for EPC2, the vendored
/// reference (the one EPC1 encoder) for EPC1.
#[derive(Clone, Copy, Debug)]
struct Subject {
    config: CodecConfig,
    format: FormatVersion,
}

impl Subject {
    fn encode(&self, img: &Raster) -> EncodedImage {
        match self.format {
            FormatVersion::Epc1 => reference::encode_reference(img, &self.config),
            FormatVersion::Epc2 => encode(img, &self.config),
        }
        .unwrap()
    }

    /// A budgeted encode; EPC1's historical wire form keeps the full
    /// offset table.
    fn encode_with_budget(&self, img: &Raster, budget: usize) -> EncodedImage {
        match self.format {
            FormatVersion::Epc1 => self.encode(img).wire_truncated(budget),
            FormatVersion::Epc2 => encode_with_budget(img, &self.config, budget).unwrap(),
        }
    }
}

fn all_subjects() -> Vec<Subject> {
    [CodecConfig::lossy(), CodecConfig::lossless()]
        .into_iter()
        .flat_map(|config| {
            [FormatVersion::Epc2, FormatVersion::Epc1].map(|format| Subject { config, format })
        })
        .collect()
}

#[test]
fn zero_discard_is_bit_identical_to_full_decode() {
    let mut scratch = DecodeScratch::new();
    for &(w, h) in &[(64usize, 64usize), (67, 41), (96, 33)] {
        let img = natural_image(w, h, 11);
        for subject in all_subjects() {
            let enc = subject.encode(&img);
            let full = decode(&enc).unwrap();
            let limited = decode_level_limited(&enc, 0, &mut scratch).unwrap();
            assert_eq!(
                full.as_slice(),
                limited.as_slice(),
                "{w}x{h} {:?} {:?}",
                subject.format,
                subject.config.wavelet
            );
            // And for a truncated stream.
            let t = enc.truncated(enc.payload_len() / 3);
            assert_eq!(
                decode(&t).unwrap().as_slice(),
                decode_level_limited(&t, 0, &mut scratch)
                    .unwrap()
                    .as_slice()
            );
        }
    }
}

/// Mean of `full` over a `stride`-sized window *centred* on the position
/// of LL sample `(i, j)` (which sits at `stride·i`, not at the block
/// centre `stride·(i + ½)` a box downsample represents), clamped at the
/// image edges.
fn centered_block_mean(full: &Raster, stride: usize, i: usize, j: usize) -> f32 {
    let half = stride / 2;
    let x0 = (stride * i).saturating_sub(half);
    let x1 = (stride * i + half).min(full.width()).max(x0 + 1);
    let y0 = (stride * j).saturating_sub(half);
    let y1 = (stride * j + half).min(full.height()).max(y0 + 1);
    let mut sum = 0.0f64;
    for y in y0..y1 {
        for &v in &full.row(y)[x0..x1] {
            sum += v as f64;
        }
    }
    (sum / ((x1 - x0) * (y1 - y0)) as f64) as f32
}

#[test]
fn ll_only_approximates_full_decode_plus_downsampling() {
    // The differential contract behind the ground fast path: the LL band
    // is an antialiased downsample of the full reconstruction, sampled on
    // the grid `stride·i` (box-downsampled pixels sit half a cell later —
    // the ground reference builder corrects that phase). Compare against
    // window means centred on the LL sample positions; the filters still
    // differ, so this is a tolerance bound, not equality.
    let mut scratch = DecodeScratch::new();
    for seed in [1u64, 2, 3] {
        let img = natural_image(128, 128, seed);
        for subject in all_subjects() {
            let enc = subject.encode(&img);
            let ll = decode_ll_only(&enc, &mut scratch).unwrap();
            let full = decode(&enc).unwrap();
            let stride = 1usize << enc.levels();
            let boxed = downsample_box(&full, stride).unwrap();
            assert_eq!(ll.dimensions(), boxed.dimensions(), "{:?}", subject.format);
            assert_eq!(ll.dimensions(), enc.reduced_dimensions(enc.levels()));
            let (lw, lh) = ll.dimensions();
            let mut sum = 0.0f64;
            for j in 0..lh {
                for i in 0..lw {
                    let expect = centered_block_mean(&full, stride, i, j);
                    sum += (ll.get(i, j) - expect).abs() as f64;
                }
            }
            let mae = sum / (lw * lh) as f64;
            // The wavelet low-pass is more peaked than a box filter, so
            // sensor-noise texture leaks a little more energy into the LL
            // band than into a block mean.
            assert!(
                mae < 0.05,
                "seed {seed} {:?} {:?}: LL vs centred downsample MAE {mae}",
                subject.format,
                subject.config.wavelet
            );
        }
    }
}

#[test]
fn ll_only_is_exact_on_constant_content() {
    // Pure normalization check: a constant image must survive the DC-gain
    // correction of the truncated inverse at every discard depth.
    for value in [0.0f32, 0.25, 0.5, 1.0] {
        let img = Raster::filled(96, 64, value);
        let mut scratch = DecodeScratch::new();
        for subject in all_subjects() {
            let enc = subject.encode(&img);
            for k in 0..=enc.levels() {
                let dec = decode_level_limited(&enc, k, &mut scratch).unwrap();
                let max_err = dec
                    .as_slice()
                    .iter()
                    .map(|&v| (v - value).abs())
                    .fold(0.0f32, f32::max);
                assert!(
                    max_err < 2.0 / 4095.0,
                    "{:?} {:?} value {value} discard {k}: max err {max_err}",
                    subject.format,
                    subject.config.wavelet
                );
            }
        }
    }
}

#[test]
fn lossless_level_limited_equals_wavelet_downsample_exactly() {
    // For the reversible 5/3 transform at full rate, a level-limited
    // decode must reproduce *exactly* the LL representation of the
    // original after k forward levels — no tolerance.
    let img = natural_image(96, 64, 7).map(|v| (v * 4095.0).round() / 4095.0);
    let config = CodecConfig::lossless();
    for format in [FormatVersion::Epc2, FormatVersion::Epc1] {
        let enc = Subject { config, format }.encode(&img);
        let mut scratch = DecodeScratch::new();
        for k in 0..=enc.levels() {
            let got = decode_level_limited(&enc, k, &mut scratch).unwrap();
            // Reference: forward-transform the scaled original k levels and
            // read the LL corner back through the same normalization.
            let mut buf: Vec<f32> = img
                .as_slice()
                .iter()
                .map(|&v| (v * 4095.0).round())
                .collect();
            dwt::forward_into(&mut buf, 96, 64, dwt::Wavelet::Cdf53, k, &mut Vec::new());
            let (rw, rh) = dwt::reduced_dims(96, 64, k);
            let expect = Raster::from_fn(rw, rh, |x, y| (buf[y * 96 + x] / 4095.0).clamp(0.0, 1.0));
            assert_eq!(
                got.as_slice(),
                expect.as_slice(),
                "{format:?} discard {k} diverged from the exact wavelet downsample"
            );
        }
    }
}

#[test]
fn epc1_and_epc2_partial_decodes_agree() {
    // Same quantizer, same transform: at full rate the two formats decode
    // identical coefficients, so every level-limited reconstruction must
    // agree bit for bit; at mid truncation they share the coarse passes,
    // so they stay close.
    for wavelet_config in [CodecConfig::lossy(), CodecConfig::lossless()] {
        let img = natural_image(128, 96, 21);
        let e1 = reference::encode_reference(&img, &wavelet_config).unwrap();
        let e2 = encode(&img, &wavelet_config).unwrap();
        let mut scratch = DecodeScratch::new();
        for k in 0..=e1.levels() {
            let d1 = decode_level_limited(&e1, k, &mut scratch).unwrap();
            let d2 = decode_level_limited(&e2, k, &mut scratch).unwrap();
            assert_eq!(
                d1.as_slice(),
                d2.as_slice(),
                "{:?} discard {k}: EPC1 and EPC2 full-rate partial decodes diverged",
                wavelet_config.wavelet
            );
        }
        let t1 = e1.truncated(e1.payload_len() / 2);
        let t2 = e2.truncated(e2.payload_len() / 2);
        let d1 = decode_ll_only(&t1, &mut scratch).unwrap();
        let d2 = decode_ll_only(&t2, &mut scratch).unwrap();
        let mae = mean_abs_diff(&d1, &d2).unwrap();
        assert!(mae < 0.05, "truncated LL decodes diverged: MAE {mae}");
    }
}

#[test]
fn discard_beyond_stream_depth_clamps_to_ll() {
    let img = natural_image(64, 64, 3);
    let enc = encode(&img, &CodecConfig::lossy()).unwrap();
    let mut scratch = DecodeScratch::new();
    let ll = decode_ll_only(&enc, &mut scratch).unwrap();
    let over = decode_level_limited(&enc, 200, &mut scratch).unwrap();
    assert_eq!(over.as_slice(), ll.as_slice());
    assert_eq!(enc.reduced_dimensions(200), ll.dimensions());
}

#[test]
fn ll_only_reads_only_the_ll_chunk_bytes() {
    // Byte-access accounting: an EPC2 LL-only decode must hand the
    // bitplane decoders exactly the LL chunk's bytes — never anything
    // past it.
    let img = natural_image(128, 128, 9);
    let enc = encode(&img, &CodecConfig::lossy()).unwrap();
    assert_eq!(enc.format(), FormatVersion::Epc2);
    let ll_chunk_len = enc.subbands()[0].offsets.last().copied().unwrap_or(0) as usize;
    assert!(ll_chunk_len > 0, "test image must fill the LL chunk");
    let mut scratch = DecodeScratch::new();
    let ll = decode_ll_only(&enc, &mut scratch).unwrap();
    assert_eq!(
        scratch.payload_bytes_read(),
        ll_chunk_len,
        "LL-only decode read bytes outside the LL chunk"
    );
    assert!(
        scratch.payload_bytes_read() * 10 < enc.payload_len(),
        "LL chunk should be a small fraction of the payload ({} of {})",
        scratch.payload_bytes_read(),
        enc.payload_len()
    );
    // Full decode reads (at least) every chunk it decodes; LL-only must
    // read strictly less.
    decode_with_scratch(&enc, &mut scratch).unwrap();
    assert!(scratch.payload_bytes_read() > ll_chunk_len);

    // Independent proof through the wire: corrupt every payload byte past
    // the LL chunk and the LL-only decode must not change.
    let mut bytes = enc.to_bytes();
    let payload_start = bytes.len() - enc.payload_len();
    for b in &mut bytes[payload_start + ll_chunk_len..] {
        *b ^= 0xA5;
    }
    let corrupted = EncodedImage::from_bytes(&bytes).unwrap();
    let ll_corrupted = decode_ll_only(&corrupted, &mut scratch).unwrap();
    assert_eq!(
        ll.as_slice(),
        ll_corrupted.as_slice(),
        "bytes past the LL chunk influenced an LL-only decode"
    );
}

#[test]
fn decode_scratch_settles_across_steady_state_captures() {
    // One arena across repeated same-shape workloads: after the first
    // capture's worth of decoding, no buffer may grow again.
    let mut scratch = DecodeScratch::new();
    let tiles: Vec<EncodedImage> = (0..4)
        .map(|i| {
            encode_with_budget(&natural_image(64, 64, 40 + i), &CodecConfig::lossy(), 2048).unwrap()
        })
        .collect();
    let mut out = Raster::new(0, 0);
    for t in &tiles {
        decode_into(t, 0, &mut scratch, &mut out).unwrap();
        decode_into(t, t.levels(), &mut scratch, &mut out).unwrap();
    }
    let grown = scratch.grow_events();
    for _ in 0..3 {
        for t in &tiles {
            decode_into(t, 0, &mut scratch, &mut out).unwrap();
            decode_into(t, t.levels(), &mut scratch, &mut out).unwrap();
        }
    }
    assert_eq!(
        scratch.grow_events(),
        grown,
        "steady-state decode grew scratch"
    );
    assert!(scratch.reserved_bytes() > 0);
}

#[test]
fn decode_into_reuses_the_output_raster() {
    let mut scratch = DecodeScratch::new();
    let mut out = Raster::new(0, 0);
    for &(w, h) in &[(64usize, 64usize), (32, 48), (67, 41)] {
        let img = natural_image(w, h, 60);
        let enc = encode(&img, &CodecConfig::lossy()).unwrap();
        decode_into(&enc, 0, &mut scratch, &mut out).unwrap();
        assert_eq!(out.dimensions(), (w, h));
        assert_eq!(out.as_slice(), decode(&enc).unwrap().as_slice());
        decode_into(&enc, 1, &mut scratch, &mut out).unwrap();
        assert_eq!(out.dimensions(), enc.reduced_dimensions(1));
    }
}

#[test]
fn corrupt_streams_never_panic() {
    // Random truncations and byte flips anywhere in the serialized stream:
    // parsing either rejects the bytes or yields a stream whose decode
    // paths all run to completion — no panics, no unwinding.
    let mut rng = Rng(0xF00D);
    let images = [
        natural_image(64, 64, 100),
        natural_image(33, 17, 101),
        natural_image(96, 48, 102),
    ];
    let mut scratch = DecodeScratch::new();
    let mut exercised = 0usize;
    for case in 0..220 {
        let img = &images[case % images.len()];
        let subject = all_subjects()[case % 4];
        let enc = if case % 3 == 0 {
            subject.encode_with_budget(img, rng.range(16, 4096))
        } else {
            subject.encode(img)
        };
        let mut bytes = enc.to_bytes();
        match case % 4 {
            0 => bytes.truncate(rng.range(0, bytes.len())),
            1 => {
                let i = rng.range(0, bytes.len() - 1);
                bytes[i] ^= 1 << rng.range(0, 7);
            }
            2 => {
                // Header-targeted flip: the first 40 bytes hold the
                // metadata the decoder trusts most.
                let i = rng.range(0, 40.min(bytes.len() - 1));
                bytes[i] = bytes[i].wrapping_add(rng.range(1, 255) as u8);
            }
            _ => {
                for _ in 0..rng.range(2, 8) {
                    let i = rng.range(0, bytes.len() - 1);
                    bytes[i] ^= rng.range(1, 255) as u8;
                }
            }
        }
        if let Ok(parsed) = EncodedImage::from_bytes(&bytes) {
            exercised += 1;
            // Every decode entry point must be total on parsed streams.
            let _ = decode(&parsed);
            let _ = decode_with_scratch(&parsed, &mut scratch);
            let _ = decode_ll_only(&parsed, &mut scratch);
            let _ = decode_level_limited(&parsed, rng.range(0, 8) as u8, &mut scratch);
        }
    }
    assert!(
        exercised > 20,
        "only {exercised} corrupted streams survived parsing; fuzz lost its teeth"
    );
}

#[test]
fn from_bytes_rejects_corrupt_plane_counts() {
    let img = natural_image(32, 32, 77);
    for subject in &all_subjects()[..2] {
        let mut bytes = subject.encode(&img).to_bytes();
        // Header layout: magic(4) ver(1) wavelet(1) levels(1) planes(1).
        bytes[7] = 200;
        assert!(
            EncodedImage::from_bytes(&bytes).is_err(),
            "{:?}: corrupt plane count must be rejected",
            subject.format
        );
    }
}

#[test]
fn truncated_ll_only_still_decodes() {
    // Budget cuts shed fine chunks first (EPC2 is resolution-progressive),
    // so even heavily truncated streams keep a useful LL band.
    let img = natural_image(128, 128, 55);
    let full = encode(&img, &CodecConfig::lossy()).unwrap();
    let mut scratch = DecodeScratch::new();
    let reference_ll = decode_ll_only(&full, &mut scratch).unwrap();
    for denom in [2usize, 4, 10] {
        let t = full.truncated(full.payload_len() / denom);
        let ll = decode_ll_only(&t, &mut scratch).unwrap();
        assert_eq!(ll.dimensions(), reference_ll.dimensions());
        let mae = mean_abs_diff(&ll, &reference_ll).unwrap();
        assert!(mae < 0.05, "1/{denom} truncation: LL MAE {mae}");
    }
    // Empty payload: defined (all-zero) output at LL geometry.
    let none = full.truncated(0);
    let ll = decode_ll_only(&none, &mut scratch).unwrap();
    assert_eq!(ll.dimensions(), reference_ll.dimensions());
}

// ---------------------------------------------------------------------------
// The EPC2 header table: 22-byte common prefix, then order-0 Exp-Golomb
// codes of the subband count and, per chunk, its plane count, pass count and
// pass-offset deltas, zero-padded to a byte, then `payload_len` and the
// payload. The helpers below build that table independently of the codec, so
// the tests can pin the layout and hand-craft hostile headers.
// ---------------------------------------------------------------------------

/// Bytes of the header prefix shared by both formats.
const PREFIX: usize = 22;

/// Order-0 Exp-Golomb codes of `values`, most significant bit first,
/// zero-padded to a whole byte.
fn exp_golomb(values: &[u32]) -> Vec<u8> {
    let mut bits = Vec::new();
    for &v in values {
        let x = v as u64 + 1;
        let digits = 64 - x.leading_zeros();
        bits.extend(std::iter::repeat_n(false, digits as usize - 1));
        bits.extend((0..digits).rev().map(|i| (x >> i) & 1 == 1));
    }
    bits.chunks(8)
        .map(|byte| {
            byte.iter()
                .enumerate()
                .fold(0u8, |acc, (i, &bit)| acc | (u8::from(bit) << (7 - i)))
        })
        .collect()
}

/// The table values of `enc`, per chunk `[planes, passes, deltas…]`.
fn chunk_values(enc: &EncodedImage) -> Vec<Vec<u32>> {
    enc.subbands()
        .iter()
        .map(|chunk| {
            let mut values = vec![chunk.planes as u32, chunk.offsets.len() as u32];
            let mut previous = 0;
            for &o in &chunk.offsets {
                values.push(o - previous);
                previous = o;
            }
            values
        })
        .collect()
}

/// `enc`'s serialization with the header table replaced by `table`.
fn with_table(enc: &EncodedImage, table: &[u8]) -> Vec<u8> {
    let bytes = enc.to_bytes();
    let mut out = bytes[..PREFIX].to_vec();
    out.extend_from_slice(table);
    out.extend_from_slice(&(enc.payload_len() as u32).to_be_bytes());
    out.extend_from_slice(&bytes[bytes.len() - enc.payload_len()..]);
    out
}

/// `enc`'s serialization with the table rebuilt from a subband count and
/// per-chunk values.
fn with_values(enc: &EncodedImage, n_subbands: u32, chunks: &[Vec<u32>]) -> Vec<u8> {
    let mut values = vec![n_subbands];
    values.extend(chunks.iter().flatten());
    with_table(enc, &exp_golomb(&values))
}

/// The two hostile-input subjects: a γ-budgeted 64-px EPC2 tile (512
/// payload bytes, as the on-board ROI path emits) and a full-rate 67×41
/// image (odd geometry, every pass of every chunk).
fn table_subjects() -> [EncodedImage; 2] {
    [
        encode_with_budget(&natural_image(64, 64, 300), &CodecConfig::lossy(), 512).unwrap(),
        encode(&natural_image(67, 41, 301), &CodecConfig::lossy()).unwrap(),
    ]
}

fn assert_malformed(bytes: &[u8], what: &str) {
    match EncodedImage::from_bytes(bytes) {
        Err(earthplus_codec::CodecError::Malformed { reason }) => {
            eprintln!("{what}: rejected ({reason})");
        }
        other => panic!("{what}: expected Malformed, got {other:?}"),
    }
}

#[test]
fn epc2_header_is_the_documented_exp_golomb_table() {
    for enc in table_subjects() {
        let rebuilt = with_values(&enc, enc.subbands().len() as u32, &chunk_values(&enc));
        assert_eq!(rebuilt, enc.to_bytes(), "EPC2 header layout drifted");
        assert_eq!(rebuilt.len(), enc.size_bytes());
        assert_eq!(EncodedImage::from_bytes(&rebuilt).unwrap(), enc);
    }
}

#[test]
fn epc2_table_truncations_and_bit_flips_never_panic() {
    let mut scratch = DecodeScratch::new();
    let mut exercised = 0usize;
    for enc in table_subjects() {
        let bytes = enc.to_bytes();
        // Every strict prefix is missing payload bytes the header promises.
        for len in 0..bytes.len() {
            assert!(
                EncodedImage::from_bytes(&bytes[..len]).is_err(),
                "{len}-byte prefix of {} parsed",
                bytes.len()
            );
        }
        // Every single-bit flip in the prefix and the table.
        let header = enc.size_bytes() - enc.payload_len() - 4;
        for bit in 0..8 * header {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 0x80 >> (bit % 8);
            if let Ok(parsed) = EncodedImage::from_bytes(&flipped) {
                exercised += 1;
                let _ = decode_ll_only(&parsed, &mut scratch);
                // A flipped width or height may claim up to MAX_PIXELS, a
                // geometry the decoder rightly allocates for; the
                // full-resolution entry points run while the claim stays
                // tile-sized, the LL-only decode above always.
                if parsed.width() as u64 * parsed.height() as u64 <= 1 << 16 {
                    let _ = decode(&parsed);
                    let _ = decode_with_scratch(&parsed, &mut scratch);
                    let _ = decode_level_limited(&parsed, 1, &mut scratch);
                }
            }
        }
    }
    // Flips of the prefix's step and input-level fields, and of table bits
    // that trade equal-length codes, still parse.
    assert!(exercised > 20, "only {exercised} flipped headers parsed");
}

#[test]
fn epc2_table_rejects_overlong_codes() {
    for enc in table_subjects() {
        // 33 leading zeros: longer than any u32 code.
        assert_malformed(&with_table(&enc, &[0, 0, 0, 0, 0x40]), "33 leading zeros");
        // 32 zeros then 33 ones: 2^33 - 2, past u32::MAX.
        let table = [0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x80];
        assert_malformed(&with_table(&enc, &table), "value above u32::MAX");
    }
}

#[test]
fn epc2_table_rejects_offset_overflow() {
    for enc in table_subjects() {
        let mut chunks = chunk_values(&enc);
        assert!(chunks[0][0] >= 1, "LL chunk must code a plane");
        chunks[0].truncate(2);
        chunks[0][1] = 2;
        chunks[0].extend([u32::MAX, 1]);
        let n = chunks.len() as u32;
        assert_malformed(&with_values(&enc, n, &chunks), "offset overflow");
    }
}

#[test]
fn epc2_table_rejects_more_than_two_passes_per_plane() {
    for enc in table_subjects() {
        let mut chunks = chunk_values(&enc);
        // An extra zero delta keeps every chunk length, so only the pass
        // bound can reject it.
        let planes = chunks[0][0];
        chunks[0].truncate(2);
        chunks[0][1] = 2 * planes + 1;
        chunks[0].extend(std::iter::repeat_n(0, 2 * planes as usize + 1));
        let last = enc.subbands()[0].offsets.last().copied().unwrap_or(0);
        *chunks[0].last_mut().unwrap() = last;
        let n = chunks.len() as u32;
        assert_malformed(&with_values(&enc, n, &chunks), "too many passes");
        // A huge pass count is rejected before it sizes an allocation.
        chunks[0].truncate(2);
        chunks[0][1] = u32::MAX;
        assert_malformed(&with_values(&enc, n, &chunks), "u32::MAX passes");
    }
}

#[test]
fn epc2_table_rejects_a_subband_count_off_the_geometry() {
    for enc in table_subjects() {
        let chunks = chunk_values(&enc);
        let n = chunks.len() as u32;
        assert_malformed(&with_values(&enc, n - 1, &chunks[1..]), "one subband short");
        let mut extra = chunks.clone();
        extra.push(vec![0, 0]);
        assert_malformed(&with_values(&enc, n + 1, &extra), "one subband extra");
    }
}

#[test]
fn epc2_table_rejects_chunk_lengths_off_the_payload() {
    for enc in table_subjects() {
        let mut chunks = chunk_values(&enc);
        let n = chunks.len() as u32;
        let last = chunks.iter_mut().rfind(|c| c.len() > 2).unwrap();
        *last.last_mut().unwrap() += 1;
        assert_malformed(&with_values(&enc, n, &chunks), "chunks past payload_len");
        // And the converse: a header promising less than the payload.
        let mut bytes = enc.to_bytes();
        bytes.push(0);
        let at = bytes.len() - enc.payload_len() - 5;
        bytes[at..at + 4].copy_from_slice(&(enc.payload_len() as u32 + 1).to_be_bytes());
        assert_malformed(&bytes, "payload_len past the chunks");
    }
}

#[test]
fn epc2_table_rejects_non_zero_padding() {
    let mut padded = 0;
    for enc in table_subjects() {
        let mut values = vec![enc.subbands().len() as u32];
        values.extend(chunk_values(&enc).iter().flatten());
        let mut table = exp_golomb(&values);
        let bits: u32 = values
            .iter()
            .map(|&v| 2 * (64 - (v as u64 + 1).leading_zeros()) - 1)
            .sum();
        if bits.is_multiple_of(8) {
            continue;
        }
        *table.last_mut().unwrap() |= 1;
        assert_malformed(&with_table(&enc, &table), "non-zero padding");
        padded += 1;
    }
    assert!(padded > 0, "no subject's table ends mid-byte");
}

#[test]
fn epc2_rejects_the_fixed_width_offset_layout() {
    // The layout EPC2 used before the Exp-Golomb table: u16 subband count,
    // then per chunk u8 planes, u16 pass count and u32 offsets.
    for enc in table_subjects() {
        let mut table = (enc.subbands().len() as u16).to_be_bytes().to_vec();
        for chunk in enc.subbands() {
            table.push(chunk.planes);
            table.extend((chunk.offsets.len() as u16).to_be_bytes());
            for &o in &chunk.offsets {
                table.extend(o.to_be_bytes());
            }
        }
        assert_malformed(&with_table(&enc, &table), "fixed-width layout");
    }
}
