//! Pins the whole-band image path's output: the bytes of every encoded
//! stream and the bits of every decode of it, at every resolution.
//!
//! Each case hashes (FNV-1a) a stream's `to_bytes()`, then the geometry
//! and raster bits of [`decode_into`] at every `discard_levels` from 0 (a
//! full decode) to the stream's `levels` (LL only). The cases are a
//! rendered four-band 512² scene capture at γ = 1 bpp through
//! [`encode_view_with_budget`] (the `codec_stream` geometry) and one 256²
//! full-rate stream (the `perf_baseline` decode row). The other decode
//! entry points must return the same bits as `decode_into`. However a
//! decode's subband chunks are scheduled, these hashes must not move.

use earthplus_codec::{
    decode_into, decode_level_limited, decode_ll_only, decode_with_scratch, encode,
    encode_view_with_budget, tile_budget_bytes, CodecConfig, CodecScratch, DecodeScratch,
    EncodedImage,
};
use earthplus_raster::{Band, LocationId, Raster};
use earthplus_scene::terrain::LocationArchetype;
use earthplus_scene::{LocationScene, SceneConfig};

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
/// every band and every subband codes differently.
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

fn hash_raster(hash: &mut Fnv, raster: &Raster) {
    hash.u64(raster.width() as u64);
    hash.u64(raster.height() as u64);
    for v in raster.as_slice() {
        hash.bytes(&v.to_bits().to_le_bytes());
    }
}

fn bits(raster: &Raster) -> Vec<u32> {
    raster.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Hashes `stream`'s bytes and its decode at every resolution, checking
/// the other entry points against `decode_into` on the way.
fn stream_hash(hash: &mut Fnv, stream: &EncodedImage, decoder: &mut DecodeScratch) {
    hash.bytes(&stream.to_bytes());
    let mut out = Raster::new(0, 0);
    for k in 0..=stream.levels() {
        decode_into(stream, k, decoder, &mut out).unwrap();
        assert_eq!(out.dimensions(), stream.reduced_dimensions(k));
        hash_raster(hash, &out);
        let limited = decode_level_limited(stream, k, decoder).unwrap();
        assert!(bits(&limited) == bits(&out), "decode_level_limited at {k}");
    }
    let full = decode_with_scratch(stream, decoder).unwrap();
    decode_into(stream, 0, decoder, &mut out).unwrap();
    assert!(bits(&full) == bits(&out), "decode_with_scratch");
    let ll = decode_ll_only(stream, decoder).unwrap();
    decode_into(stream, stream.levels(), decoder, &mut out).unwrap();
    assert!(bits(&ll) == bits(&out), "decode_ll_only");
}

#[test]
fn image_bytes_and_decoded_bits_match_golden() {
    let codec = CodecConfig::lossy();
    let mut encoder = CodecScratch::new();
    let mut decoder = DecodeScratch::new();

    let scene = LocationScene::new(SceneConfig::new(
        0xC0DE_C511,
        LocationId(0),
        LocationArchetype::Coastal,
        512,
        512,
        Band::planet_all(),
    ));
    let capture_image = scene.capture_with_coverage(43.0, 0.25).image;
    assert_eq!(capture_image.band_count(), 4);
    let mut capture = Fnv::new();
    let budget = tile_budget_bytes(1.0, 512 * 512);
    for (_, image) in capture_image.iter() {
        let view = image.view(0, 0, 512, 512);
        let stream = encode_view_with_budget(&view, &codec, budget, &mut encoder).unwrap();
        assert!(stream.payload_len() <= budget);
        stream_hash(&mut capture, &stream, &mut decoder);
    }

    let mut full_rate = Fnv::new();
    let stream = encode(&band(256, 256, 5), &codec).unwrap();
    stream_hash(&mut full_rate, &stream, &mut decoder);

    let report = [
        ("512x512x4 at 1 bpp", capture.0, 0x7195_e81a_a370_54e3),
        ("256x256 full rate", full_rate.0, 0x5514_aa6a_ffe1_ee4a),
    ];
    for (name, hash, golden) in report {
        assert_eq!(
            hash, golden,
            "{name}: {hash:#018x} (every case, got vs golden: {report:#x?})"
        );
    }
}
