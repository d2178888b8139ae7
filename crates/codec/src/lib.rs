//! Layered wavelet image codec for the Earth+ reproduction.
//!
//! A from-scratch JPEG-2000-class codec standing in for the Kakadu encoder
//! the paper uses (§5): lifting DWT (reversible CDF 5/3 and irreversible
//! CDF 9/7), deadzone quantization, adaptive binary range coding, and
//! bitplane-embedded streams with per-pass truncation points. The three
//! capabilities Earth+ needs are all first-class:
//!
//! * **rate control** — encode to a bits-per-pixel budget by truncating the
//!   embedded stream ([`encode_with_budget`], [`EncodedImage::truncated`]);
//! * **region-of-interest encoding** — encode only the changed tiles at a
//!   constant per-tile budget γ ([`encode_roi`], [`RoiBitstream`]);
//! * **quality layers** — every coding pass is a truncation point
//!   ([`EncodedImage::pass_boundaries`]), so a shorter prefix of the same
//!   stream is a lower-quality layer.
//!
//! Streams are versioned ([`FormatVersion`]). The library encodes EPC2,
//! which splits the payload into independently seekable subband chunks
//! with subband-local pass offsets and zero-run significance coding. The
//! original EPC1 format is frozen: every decode path still reads it, and
//! the vendored [`reference`](mod@reference) encoder, the test oracle, is the one encoder
//! that emits it. See the [`image_codec`] module docs for the wire
//! layouts.
//!
//! # Example
//!
//! ```
//! use earthplus_codec::{decode, encode_with_budget, CodecConfig};
//! use earthplus_raster::{psnr, Raster};
//!
//! # fn main() -> Result<(), earthplus_codec::CodecError> {
//! let image = Raster::from_fn(64, 64, |x, y| ((x ^ y) % 61) as f32 / 61.0);
//! let encoded = encode_with_budget(&image, &CodecConfig::lossy(), 1024)?;
//! assert!(encoded.payload_len() <= 1024);
//! let reconstructed = decode(&encoded)?;
//! assert_eq!(reconstructed.dimensions(), (64, 64));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops here are deliberate: the numeric kernels index several
// buffers with arithmetic on the same induction variable.
#![allow(clippy::needless_range_loop)]

pub mod bitplane;
pub mod dwt;
mod exp_golomb;
mod fanout;
pub mod image_codec;
pub mod rangecoder;
pub mod reference;
pub mod roi;
pub mod scratch;

pub use dwt::Wavelet;
pub use image_codec::{
    decode, decode_into, decode_level_limited, decode_ll_only, decode_with_scratch, encode,
    encode_view, encode_view_with_budget, encode_with_budget, CodecConfig, EncodedImage,
    FormatVersion, SubbandChunk, MAX_PIXELS,
};
pub use roi::{encode_roi, encode_roi_with_scratch, tile_budget_bytes, EncodedTile, RoiBitstream};
pub use scratch::{CodecScratch, DecodeScratch, StageBreakdown};

use std::error::Error;
use std::fmt;

/// Errors produced by the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input raster has zero pixels.
    EmptyImage,
    /// The input raster exceeds the codec's pixel bound
    /// ([`image_codec::MAX_PIXELS`]): the decoder rejects headers past the
    /// bound (they size its allocations), so the encoder refuses to
    /// produce a stream it could not decode back.
    TooLarge {
        /// Pixel count of the rejected input.
        pixels: u64,
    },
    /// The quantized coefficients need more magnitude bitplanes than a
    /// stream can carry ([`bitplane::MAX_PLANES`]): the quantizer step is
    /// too fine for the input's dynamic range. Raise `quant_step`.
    TooManyPlanes {
        /// Bitplanes the largest quantized magnitude needs.
        planes: u8,
    },
    /// A bitstream failed validation during parsing or decoding.
    Malformed {
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::EmptyImage => write!(f, "cannot encode an empty image"),
            CodecError::TooLarge { pixels } => {
                write!(
                    f,
                    "image of {pixels} pixels exceeds the codec bound of {} pixels",
                    image_codec::MAX_PIXELS
                )
            }
            CodecError::TooManyPlanes { planes } => {
                write!(
                    f,
                    "quantized coefficients need {planes} magnitude planes, maximum is {}",
                    bitplane::MAX_PLANES
                )
            }
            CodecError::Malformed { reason } => write!(f, "malformed bitstream: {reason}"),
        }
    }
}

impl Error for CodecError {}

/// Errors produced by the decode paths.
///
/// Decoding used to panic (or, in release builds, shift out of range) on
/// headers whose metadata disagreed with the stream geometry; every such
/// condition is now a typed error. Truncation is *not* an error — embedded
/// streams decode whatever passes survive — so these only fire on
/// metadata that no encoder emits.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The header's decomposition depth exceeds the maximum the stream's
    /// dimensions admit.
    TooManyLevels {
        /// Levels the header claims.
        levels: u8,
        /// Maximum valid depth for the stream's dimensions.
        max: u8,
    },
    /// A magnitude-plane count (global or per subband chunk) exceeds
    /// [`bitplane::MAX_PLANES`].
    TooManyPlanes {
        /// Planes the header claims.
        planes: u8,
    },
    /// Header metadata is inconsistent with the stream geometry.
    Malformed {
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TooManyLevels { levels, max } => {
                write!(
                    f,
                    "stream claims {levels} DWT levels, geometry admits {max}"
                )
            }
            DecodeError::TooManyPlanes { planes } => {
                write!(
                    f,
                    "stream claims {planes} magnitude planes, maximum is {}",
                    bitplane::MAX_PLANES
                )
            }
            DecodeError::Malformed { reason } => write!(f, "malformed bitstream: {reason}"),
        }
    }
}

impl Error for DecodeError {}

impl From<DecodeError> for CodecError {
    fn from(e: DecodeError) -> Self {
        CodecError::Malformed {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    //! Deterministic pseudo-random helpers for codec tests (no external
    //! RNG dependency needed in unit tests).

    pub(crate) fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn hash_unit(i: u64, seed: u64) -> f32 {
        (mix(i ^ seed.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)) >> 40) as f32 / (1u64 << 24) as f32
    }

    pub(crate) fn hash_bit(i: u64, seed: u64) -> bool {
        mix(i ^ seed.wrapping_mul(0x1656_67B1_9E37_79F9)) & 1 == 1
    }
}
