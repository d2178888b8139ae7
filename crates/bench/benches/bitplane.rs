//! Bitplane pass-coder micro-benchmarks: the word-parallel significance /
//! refinement passes in isolation — no DWT, no quantizer, no image-level
//! header work — so a throughput regression localizes to the plane coder
//! instead of the whole pipeline.
//!
//! The library encodes EPC2 only, and its decoder runs one plane traversal
//! for both formats, which differ only in the significance pass (`epc1` =
//! dense, `epc2` = zero-run). So the EPC2 encoder and both decodes are
//! timed on three plane populations (the EPC1 payload comes from the
//! vendored reference encoder, the one EPC1 encoder, and is not timed):
//!
//! * `sparse` — ~2% significant, upper-plane dominated: exercises the
//!   zero-run chunking and whole-word skips.
//! * `dense` — textured, most coefficients significant within a few
//!   planes: exercises the context-model and refinement hot loops.
//! * `all_zero` — the word-skip floor (no pass emits a coefficient bit).
//!
//! Encode benches run through a reused scratch arena (steady state, no
//! allocation); decode benches replay a pre-encoded payload the same way.
//! Every case codes one 128×128 plane (16,384 coefficients) per iteration.
//! Case ids are `encode_epc2/<population>` and
//! `decode_<format>/<population>`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use earthplus_codec::bitplane::{decode_planes_with, encode_planes, encode_planes_into};
use earthplus_codec::reference::encode_planes_reference;
use earthplus_codec::{CodecScratch, DecodeScratch, FormatVersion};

/// Band geometry: the largest subband of the evaluation's 256×256 tile.
const W: usize = 128;
const H: usize = 128;

/// Deterministic xorshift so every run (and both formats) sees the
/// same plane.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// `sparse`: ~2% nonzero, small magnitudes clustered in rows (a plausible
/// high-frequency subband after quantization).
fn sparse_plane() -> Vec<i32> {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    (0..W * H)
        .map(|_| {
            let r = xorshift(&mut s);
            if r.is_multiple_of(50) {
                let mag = 1 + (r >> 8) % 31;
                if r & 1 << 16 != 0 {
                    -(mag as i32)
                } else {
                    mag as i32
                }
            } else {
                0
            }
        })
        .collect()
}

/// `dense`: most coefficients nonzero with an exponential-ish magnitude
/// spread (a low-frequency subband).
fn dense_plane() -> Vec<i32> {
    let mut s = 0xdead_beef_cafe_f00du64;
    (0..W * H)
        .map(|_| {
            let r = xorshift(&mut s);
            let mag = (r % 256) >> ((r >> 32) % 6);
            if r & 1 << 40 != 0 {
                -(mag as i32)
            } else {
                mag as i32
            }
        })
        .collect()
}

fn bench_bitplane(c: &mut Criterion) {
    let planes: [(&str, Vec<i32>); 3] = [
        ("sparse", sparse_plane()),
        ("dense", dense_plane()),
        ("all_zero", vec![0i32; W * H]),
    ];

    let mut group = c.benchmark_group("bitplane");
    let mut enc_scratch = CodecScratch::new();
    let mut dec_scratch = DecodeScratch::new();
    for (name, coeffs) in &planes {
        group.bench_with_input(
            BenchmarkId::new("encode_epc2", name),
            coeffs,
            |b, coeffs| b.iter(|| encode_planes_into(coeffs, W, &mut enc_scratch)),
        );
        for (id, format) in [("epc1", FormatVersion::Epc1), ("epc2", FormatVersion::Epc2)] {
            let enc = match format {
                FormatVersion::Epc1 => encode_planes_reference(coeffs, W),
                FormatVersion::Epc2 => encode_planes(coeffs, W),
            }
            .expect("bench planes fit MAX_PLANES");
            group.bench_with_input(
                BenchmarkId::new(format!("decode_{id}"), name),
                &enc,
                |b, enc| {
                    b.iter(|| {
                        decode_planes_with(
                            &enc.payload,
                            W * H,
                            W,
                            enc.planes,
                            &enc.pass_offsets,
                            format,
                            &mut dec_scratch,
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_bitplane);
criterion_main!(benches);
