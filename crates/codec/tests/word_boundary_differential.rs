//! Word-boundary differential tests for the word-parallel bitplane coder.
//!
//! The pass coders walk 64-coefficient `u64` word state, so the places an
//! optimization-level- or shape-dependent bug would hide are the word
//! seams: blocks of 1, 63, 64, 65, 255... coefficients, the partial last
//! word, all-zero and all-significant populations, and truncation at every
//! coded pass boundary. Every case here runs the real coders — the
//! library's EPC2 encoder and, for EPC1, the vendored `reference` encoder
//! (the one EPC1 encoder) — and the one decoder traversal of both formats:
//!
//! * EPC2 plane-coder output is pinned by frozen FNV-1a goldens (captured
//!   when the word-parallel coder landed; the image-level EPC2 goldens in
//!   `crates/core/tests/zero_copy_identity.rs` reach back further).
//! * Both formats round-trip exactly at full rate, decode without panics
//!   at **every** recorded truncation point, and reconstruct monotonically
//!   (more passes never lose a significant coefficient).
//! * The word-mask scratch arenas stay allocation-free in steady state
//!   (`grow_events == 0` after warmup) across the same shapes.
//!
//! Randomized cases use a deterministic splitmix64 PRNG (see
//! `tests/format_versions.rs` for the idiom).

use earthplus_codec::bitplane::{
    decode_planes, decode_planes_with, encode_planes, encode_planes_into, EncodedPlanes,
};
use earthplus_codec::{
    decode, encode, encode_with_budget, reference, CodecConfig, CodecScratch, DecodeScratch,
    FormatVersion,
};
use earthplus_raster::Raster;

const FORMATS: [FormatVersion; 2] = [FormatVersion::Epc1, FormatVersion::Epc2];

struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `(width, rows)` shapes straddling every `u64` word seam: single
/// coefficient, one-below/at/one-above a word, a 255-wide row (partial
/// last word), multi-row blocks whose totals are not multiples of 64, and
/// a square block (the subband case).
const SHAPES: [(usize, usize); 12] = [
    (1, 1),
    (63, 1),
    (64, 1),
    (65, 1),
    (255, 1),
    (1, 64),
    (63, 3),
    (64, 2),
    (65, 3),
    (127, 5),
    (255, 2),
    (64, 64),
];

/// Coefficient populations per shape: sparse random, dense random,
/// all-zero, and all-significant (every coefficient nonzero, alternating
/// signs, word-boundary-aligned magnitude steps).
fn populations(width: usize, rows: usize, seed: u64) -> Vec<(&'static str, Vec<i32>)> {
    let n = width * rows;
    let mut rng = Rng(seed);
    let sparse: Vec<i32> = (0..n)
        .map(|_| {
            let r = rng.next_u64();
            if r.is_multiple_of(19) {
                let mag = 1 + (r >> 8) % 127;
                if r & 2 != 0 {
                    -(mag as i32)
                } else {
                    mag as i32
                }
            } else {
                0
            }
        })
        .collect();
    let dense: Vec<i32> = (0..n)
        .map(|_| {
            let r = rng.next_u64();
            let mag = (r % 1024) >> ((r >> 32) % 8);
            if r & 4 != 0 {
                -(mag as i32)
            } else {
                mag as i32
            }
        })
        .collect();
    let all_sig: Vec<i32> = (0..n)
        .map(|i| {
            let mag = 1 + ((i % 64) as i32) * 8;
            if i.is_multiple_of(2) {
                mag
            } else {
                -mag
            }
        })
        .collect();
    vec![
        ("sparse", sparse),
        ("dense", dense),
        ("all_zero", vec![0i32; n]),
        ("all_significant", all_sig),
    ]
}

/// Encodes a coefficient block in `format`: EPC2 through the library,
/// EPC1 through the vendored reference encoder.
fn encode_as(coeffs: &[i32], width: usize, format: FormatVersion) -> EncodedPlanes {
    match format {
        FormatVersion::Epc1 => reference::encode_planes_reference(coeffs, width),
        FormatVersion::Epc2 => encode_planes(coeffs, width),
    }
    .unwrap()
}

/// FNV-1a over an encoded plane set (payload, then offsets, then planes).
fn fnv_planes(enc: &EncodedPlanes) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&enc.payload);
    for &o in &enc.pass_offsets {
        eat(&o.to_be_bytes());
    }
    eat(&[enc.planes]);
    hash
}

/// EPC2 plane-coder goldens: frozen FNV-1a hashes of the zero-run coder's
/// output on fixed word-seam inputs. A wire-format change (even one that
/// still round-trips) fails here first.
#[test]
fn epc2_plane_coder_matches_frozen_goldens() {
    const GOLDENS: [((usize, usize), &str, u64); 4] = [
        ((63, 3), "sparse", 0xc1d9791275e01483),
        ((64, 2), "dense", 0x4c3b03e46caf0232),
        ((65, 3), "all_significant", 0x00fa657cd1e6c2cf),
        ((64, 64), "sparse", 0xd12c3cab4d19b151),
    ];
    for ((width, rows), name, golden) in GOLDENS {
        let si = SHAPES
            .iter()
            .position(|&s| s == (width, rows))
            .expect("golden shape is a tested shape");
        let coeffs = populations(width, rows, 0xA5A5 + si as u64)
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("golden population exists")
            .1;
        let enc = encode_planes(&coeffs, width).unwrap();
        assert_eq!(
            fnv_planes(&enc),
            golden,
            "EPC2 plane-coder golden drift at {width}x{rows}/{name}"
        );
    }
}

/// FNV-1a over decoded coefficients (little-endian `i32`s), chained.
fn fnv_coeffs(coeffs: &[i32], mut hash: u64) -> u64 {
    for &q in coeffs {
        for b in q.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Decoder goldens: one FNV-1a hash per format over the plane decoder's
/// output at every recorded pass cut, across every shape and population.
/// The encoder goldens above cannot see a change in how a *truncated*
/// stream reconstructs; these can. The EPC1 hash also pins the reference
/// encoder's planes, the only EPC1 planes there are.
#[test]
fn truncated_decodes_match_frozen_goldens() {
    const GOLDENS: [(FormatVersion, u64); 2] = [
        (FormatVersion::Epc1, 0x3eba0f3af440d6f1),
        (FormatVersion::Epc2, 0x4eeaff1a961a65b6),
    ];
    for (format, golden) in GOLDENS {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (si, &(width, rows)) in SHAPES.iter().enumerate() {
            for (_, coeffs) in populations(width, rows, 0xA5A5 + si as u64) {
                let n = coeffs.len();
                let enc = encode_as(&coeffs, width, format);
                for &cut in &enc.pass_offsets {
                    let cut = (cut as usize).min(enc.payload.len());
                    let dec = decode_planes(
                        &enc.payload[..cut],
                        n,
                        width,
                        enc.planes,
                        &enc.pass_offsets,
                        format,
                    );
                    hash = fnv_coeffs(&dec, hash);
                }
            }
        }
        assert_eq!(hash, golden, "{format:?} decode golden drift");
    }
}

/// Both formats round-trip exactly at full rate and decode at **every**
/// recorded pass boundary without panicking; reconstruction is monotone
/// (a longer prefix never zeroes a coefficient a shorter one resolved).
#[test]
fn roundtrip_and_every_truncation_point_at_word_seams() {
    for (si, &(width, rows)) in SHAPES.iter().enumerate() {
        for (name, coeffs) in populations(width, rows, 0x5A5A + si as u64) {
            let n = coeffs.len();
            for format in FORMATS {
                let enc = encode_as(&coeffs, width, format);
                let decode_at = |cut: usize| {
                    decode_planes(
                        &enc.payload[..cut],
                        n,
                        width,
                        enc.planes,
                        &enc.pass_offsets,
                        format,
                    )
                };
                let full = decode_at(enc.payload.len());
                assert_eq!(
                    full, coeffs,
                    "full-rate roundtrip drift at {width}x{rows}/{name} {format:?}"
                );
                let mut prev_nonzero = 0usize;
                for (k, &cut) in enc.pass_offsets.iter().enumerate() {
                    let cut = (cut as usize).min(enc.payload.len());
                    let partial = decode_at(cut);
                    let nonzero = partial.iter().filter(|&&q| q != 0).count();
                    assert!(
                        nonzero >= prev_nonzero,
                        "truncation pass {k} lost significance at {width}x{rows}/{name} {format:?}"
                    );
                    prev_nonzero = nonzero;
                }
            }
        }
    }
}

/// The word-mask scratch arenas reach steady state after one call per
/// shape: repeating every shape/population a second time through the same
/// arenas must not grow a single buffer.
#[test]
fn word_mask_arenas_steady_state_no_growth() {
    let mut enc_scratch = CodecScratch::new();
    let mut dec_scratch = DecodeScratch::new();
    let run_all = |enc_scratch: &mut CodecScratch, dec_scratch: &mut DecodeScratch| {
        for (si, &(width, rows)) in SHAPES.iter().enumerate() {
            for (_, coeffs) in populations(width, rows, 0x7777 + si as u64) {
                let n = coeffs.len();
                encode_planes_into(&coeffs, width, enc_scratch).unwrap();
                for format in FORMATS {
                    let enc = encode_as(&coeffs, width, format);
                    decode_planes_with(
                        &enc.payload,
                        n,
                        width,
                        enc.planes,
                        &enc.pass_offsets,
                        format,
                        dec_scratch,
                    );
                }
            }
        }
    };
    run_all(&mut enc_scratch, &mut dec_scratch);
    let enc_grow = enc_scratch.grow_events();
    let dec_grow = dec_scratch.grow_events();
    run_all(&mut enc_scratch, &mut dec_scratch);
    assert_eq!(
        enc_scratch.grow_events(),
        enc_grow,
        "encode word-mask arena grew in steady state"
    );
    assert_eq!(
        dec_scratch.grow_events(),
        dec_grow,
        "decode word-mask arena grew in steady state"
    );
}

/// Image-level truncation equivalence on an odd-sized image, at **every**
/// pass-boundary layer of both formats. EPC2's budgeted encoder emits the
/// byte-identical truncated full stream; EPC1's budgeted wire form (the
/// reference encode cut by `wire_truncated`) keeps the historical full
/// offset table in its header, so equivalence there is the payload bytes
/// plus a pixel-exact decode match. Every truncated stream must decode.
#[test]
fn image_truncation_points_match_budgeted_encode() {
    let mut rng = Rng(42);
    let noise: Vec<f32> = (0..48 * 33)
        .map(|_| (rng.next_u64() >> 40) as f32)
        .collect();
    let img = Raster::from_fn(48, 33, |x, y| {
        let fx = x as f32 / 48.0;
        let fy = y as f32 / 33.0;
        let smooth = 0.4 + 0.3 * (fx * 4.0).sin() * (fy * 3.0).cos();
        let texture = (noise[y * 48 + x] / (1u64 << 24) as f32 - 0.5) * 0.05;
        (smooth + texture).clamp(0.0, 1.0)
    });
    let config = CodecConfig::lossy();
    for format in FORMATS {
        let full = match format {
            FormatVersion::Epc1 => reference::encode_reference(&img, &config).unwrap(),
            FormatVersion::Epc2 => encode(&img, &config).unwrap(),
        };
        let cuts = std::iter::once(0).chain(full.pass_boundaries());
        for (k, cut_bytes) in cuts.enumerate() {
            let cut = full.truncated(cut_bytes);
            let budgeted = match format {
                FormatVersion::Epc1 => full.wire_truncated(cut.payload_len()),
                FormatVersion::Epc2 => {
                    encode_with_budget(&img, &config, cut.payload_len()).unwrap()
                }
            };
            match format {
                FormatVersion::Epc2 => assert_eq!(
                    budgeted.to_bytes(),
                    cut.to_bytes(),
                    "EPC2 budgeted encode != truncated full stream at layer {k}"
                ),
                FormatVersion::Epc1 => assert_eq!(
                    budgeted.payload_len(),
                    cut.payload_len(),
                    "EPC1 budgeted payload cut drifted at layer {k}"
                ),
            }
            let from_cut = decode(&cut).unwrap_or_else(|e| {
                panic!("truncated stream failed to decode at layer {k} ({format:?}): {e:?}")
            });
            let from_budgeted = decode(&budgeted).unwrap_or_else(|e| {
                panic!("budgeted stream failed to decode at layer {k} ({format:?}): {e:?}")
            });
            assert_eq!(
                from_budgeted.as_slice(),
                from_cut.as_slice(),
                "budgeted and truncated decodes disagree at layer {k} ({format:?})"
            );
        }
    }
}
