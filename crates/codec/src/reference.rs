//! The vendored reference encoder: the one EPC1 encoder.
//!
//! These are the original dense-traversal, allocate-per-call encode paths,
//! kept verbatim as executable documentation of the stream format. EPC1 is
//! frozen — archived streams must keep decoding and its goldens never
//! move — so the library itself only decodes it, and every test, bench
//! and baseline that needs EPC1 bytes takes them from here:
//! [`encode_reference`] for a whole image (a budgeted encode is
//! `encode_reference(..)?.wire_truncated(budget)`), [`encode_roi_reference`]
//! for the γ-budgeted ROI path, and [`encode_planes_reference`] for one
//! coefficient block. The frozen hashes in
//! `crates/core/tests/zero_copy_identity.rs` and
//! `tests/word_boundary_differential.rs` pin their output.
//!
//! Nothing here is used by the production pipeline, which encodes EPC2.
//! Its forward transform (`forward_reference`) is also the bit-exact
//! oracle of the optimized forward DWT (`dwt.rs`'s unit tests), and `perf_baseline` times the
//! reference ROI encode in-process against the EPC2 encoder
//! (`speedup_vs_reference`).

use crate::bitplane::{neighbor_context, EncodedPlanes, MAX_PLANES};
use crate::dwt::{self, Coefficients, Wavelet};
use crate::image_codec::{CodecConfig, EncodedImage};
use crate::rangecoder::RangeEncoder;
use crate::roi::{EncodedTile, RoiBitstream};
use crate::CodecError;
use earthplus_raster::{Raster, TileGrid, TileMask};

/// Decoder lookahead margin (mirrors `bitplane::LOOKAHEAD`).
const LOOKAHEAD: usize = 5;

// CDF 9/7 lifting constants (mirrors `dwt`).
const ALPHA: f32 = -1.586_134_3;
const BETA: f32 = -0.052_980_118;
const GAMMA: f32 = 0.882_911_1;
const DELTA: f32 = 0.443_506_87;
const KAPPA: f32 = 1.230_174_1;

/// The original forward DWT: allocates a line buffer per level and
/// resolves boundaries with per-element symmetric index reflection.
///
/// # Panics
///
/// Panics if `levels` exceeds [`dwt::max_levels`] for the buffer.
pub(crate) fn forward_reference(coeffs: &mut Coefficients, wavelet: Wavelet, levels: u8) {
    let (width, height) = (coeffs.width(), coeffs.height());
    assert!(
        levels <= dwt::max_levels(width, height),
        "too many DWT levels"
    );
    let (mut w, mut h) = (width, height);
    for _ in 0..levels {
        forward_single_reference(coeffs.as_mut_slice(), width, wavelet, w, h);
        w = w.div_ceil(2);
        h = h.div_ceil(2);
    }
}

fn forward_single_reference(data: &mut [f32], stride: usize, wavelet: Wavelet, w: usize, h: usize) {
    let mut line = vec![0.0f32; w.max(h)];
    // Rows.
    for y in 0..h {
        for x in 0..w {
            line[x] = data[y * stride + x];
        }
        lift_forward_reference(&mut line[..w], wavelet);
        deinterleave_reference(&mut data[y * stride..y * stride + w], &line[..w]);
    }
    // Columns.
    for x in 0..w {
        for y in 0..h {
            line[y] = data[y * stride + x];
        }
        lift_forward_reference(&mut line[..h], wavelet);
        let half = h.div_ceil(2);
        for y in 0..h {
            let dst = if y % 2 == 0 { y / 2 } else { half + y / 2 };
            data[dst * stride + x] = line[y];
        }
    }
}

fn deinterleave_reference(dst: &mut [f32], interleaved: &[f32]) {
    let n = interleaved.len();
    let half = n.div_ceil(2);
    for i in 0..n {
        let v = interleaved[i];
        let dst_idx = if i % 2 == 0 { i / 2 } else { half + i / 2 };
        dst[dst_idx] = v;
    }
}

#[inline]
fn sym(i: isize, n: isize) -> usize {
    let mut i = i;
    if i < 0 {
        i = -i;
    }
    if i >= n {
        i = 2 * (n - 1) - i;
    }
    i.max(0) as usize
}

fn lift_forward_reference(line: &mut [f32], wavelet: Wavelet) {
    let n = line.len();
    if n < 2 {
        return;
    }
    let ni = n as isize;
    match wavelet {
        Wavelet::Cdf53 => {
            for i in (1..n).step_by(2) {
                let left = line[sym(i as isize - 1, ni)];
                let right = line[sym(i as isize + 1, ni)];
                line[i] -= ((left + right) / 2.0).floor();
            }
            for i in (0..n).step_by(2) {
                let left = line[sym(i as isize - 1, ni)];
                let right = line[sym(i as isize + 1, ni)];
                line[i] += ((left + right + 2.0) / 4.0).floor();
            }
        }
        Wavelet::Cdf97 => {
            for (step, coef) in [(1usize, ALPHA), (0, BETA), (1, GAMMA), (0, DELTA)] {
                for i in (step..n).step_by(2) {
                    let left = line[sym(i as isize - 1, ni)];
                    let right = line[sym(i as isize + 1, ni)];
                    line[i] += coef * (left + right);
                }
            }
            for (i, v) in line.iter_mut().enumerate() {
                if i % 2 == 0 {
                    *v *= KAPPA;
                } else {
                    *v /= KAPPA;
                }
            }
        }
    }
}

/// The original dense bitplane encoder: scans all `n` coefficients twice
/// per plane, allocating the significance map and per-plane lists.
///
/// # Errors
///
/// Returns [`CodecError::TooManyPlanes`] when the largest magnitude needs
/// more than [`MAX_PLANES`] bitplanes: a stream of fewer planes would not
/// represent the coefficients.
///
/// # Panics
///
/// Panics if `width` is zero or does not divide `coefficients.len()`.
pub fn encode_planes_reference(
    coefficients: &[i32],
    width: usize,
) -> Result<EncodedPlanes, CodecError> {
    assert!(width > 0, "width must be positive");
    assert_eq!(
        coefficients.len() % width,
        0,
        "coefficient count must be a multiple of width"
    );
    let n = coefficients.len();
    let max_mag = coefficients
        .iter()
        .map(|&c| c.unsigned_abs())
        .max()
        .unwrap_or(0);
    let planes = (32 - max_mag.leading_zeros()) as u8;
    if planes > MAX_PLANES {
        return Err(CodecError::TooManyPlanes { planes });
    }

    let mut enc = RangeEncoder::new();
    let mut ctx = crate::bitplane::Contexts::new();
    let mut sig = vec![false; n];
    let mut pass_offsets = Vec::with_capacity(planes as usize * 2);

    for plane in (0..planes).rev() {
        let bit_mask = 1u32 << plane;
        // Pass 1: significance.
        let mut newly_significant = Vec::new();
        for i in 0..n {
            if sig[i] {
                continue;
            }
            let mag = coefficients[i].unsigned_abs();
            let becomes = mag & bit_mask != 0;
            let c = neighbor_context(&sig, width, i);
            enc.encode(&mut ctx.significance[c], becomes);
            if becomes {
                enc.encode_raw(coefficients[i] < 0);
                newly_significant.push(i);
            }
        }
        for i in newly_significant {
            sig[i] = true;
        }
        pass_offsets.push((enc.len() + LOOKAHEAD) as u32);
        // Pass 2: refinement of previously-significant coefficients.
        for i in 0..n {
            if !sig[i] {
                continue;
            }
            let mag = coefficients[i].unsigned_abs();
            // Skip those that became significant in THIS plane: their
            // current bit was already conveyed by the significance pass.
            if (mag >> plane).count_ones() == 1 && mag & bit_mask != 0 {
                continue;
            }
            enc.encode(&mut ctx.refinement, mag & bit_mask != 0);
        }
        pass_offsets.push((enc.len() + LOOKAHEAD) as u32);
    }

    let mut payload = enc.finish();
    if let Some(&last) = pass_offsets.last() {
        if payload.len() < last as usize {
            payload.resize(last as usize, 0);
        }
    }
    Ok(EncodedPlanes {
        payload,
        planes,
        pass_offsets,
    })
}

/// The original whole-raster encode: allocates the scaled-sample and
/// quantized vectors per call and runs [`encode_planes_reference`].
///
/// # Errors
///
/// Returns [`CodecError::EmptyImage`] for a zero-sized raster, and
/// [`CodecError::TooManyPlanes`] when `config.quant_step` is too fine for
/// the input's dynamic range.
pub fn encode_reference(image: &Raster, config: &CodecConfig) -> Result<EncodedImage, CodecError> {
    if image.is_empty() {
        return Err(CodecError::EmptyImage);
    }
    let (w, h) = image.dimensions();
    let levels = config.levels.min(dwt::max_levels(w, h));
    let scale = config.input_levels as f32;
    let data: Vec<f32> = image
        .as_slice()
        .iter()
        .map(|&v| (v * scale).round())
        .collect();
    let mut coeffs = Coefficients::new(w, h, data);
    forward_reference(&mut coeffs, config.wavelet, levels);
    let step = config.quant_step.max(1e-6);
    let quantized: Vec<i32> = coeffs
        .as_slice()
        .iter()
        .map(|&c| {
            let q = (c.abs() / step).floor() as i32;
            if c < 0.0 {
                -q
            } else {
                q
            }
        })
        .collect();
    let planes = encode_planes_reference(&quantized, w)?;
    Ok(EncodedImage::from_parts(
        w as u32,
        h as u32,
        config.wavelet,
        levels,
        planes.planes,
        step,
        config.input_levels,
        planes.pass_offsets,
        planes.payload,
    ))
}

/// The original ROI path: materialize every selected tile with
/// `extract_tile`, encode it fully, then cut the payload to the per-tile
/// budget in the historical EPC1 wire form (full offset table kept — the
/// exact bytes the pre-refactor encoder emitted, which the golden hashes
/// pin).
///
/// # Errors
///
/// Returns [`CodecError::Malformed`] if `image` does not match `grid`, or
/// propagates per-tile encoding errors.
pub fn encode_roi_reference(
    image: &Raster,
    grid: &TileGrid,
    mask: &TileMask,
    config: &CodecConfig,
    budget_per_tile: usize,
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
        let tile = grid
            .extract_tile(image, index)
            .map_err(|e| CodecError::Malformed {
                reason: e.to_string(),
            })?;
        let encoded = encode_reference(&tile, config)?.wire_truncated(budget_per_tile);
        tiles.push(EncodedTile {
            flat_index: grid.flat_index(index) as u32,
            image: encoded,
        });
    }
    RoiBitstream::from_tiles(grid, tiles)
}
