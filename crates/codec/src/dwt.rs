//! Discrete wavelet transforms (lifting implementations).
//!
//! Two transforms, matching the JPEG-2000 standard the paper's encoder
//! (Kakadu) implements:
//!
//! * **CDF 5/3** — integer-to-integer lifting; exactly reversible, used for
//!   lossless coding.
//! * **CDF 9/7** — floating-point lifting; better energy compaction, used
//!   for lossy coding.
//!
//! Both operate in place on a 2-D coefficient buffer with the conventional
//! multi-level Mallat layout: after `levels` decompositions, the top-left
//! `ceil(w/2^levels) × ceil(h/2^levels)` corner holds the LL band and each
//! level's detail bands surround it. Odd lengths are handled with symmetric
//! boundary extension, so any size ≥ 1 is valid.
//!
//! # One planar kernel
//!
//! Every lifting step, horizontal or vertical, forward or inverse, is one
//! contiguous loop `t[i] = f(t[i], a[i], b[i])` (`odd_step` /
//! `even_step`) over a *planar* line: the low-pass samples first, the
//! high-pass samples after them, each sample `lanes` floats wide. A
//! forward level deinterleaves each row of the region straight into its
//! vertically deinterleaved slot of a `w × h` block buffer (even rows in
//! the top half, odd rows below) and lifts it there with `lanes = 1`; it
//! then lifts the columns over the same block with `lanes = w` (one
//! "sample" is a whole row, so column `x` is lane `x`) and copies the
//! block back once. The inverse mirrors this: columns over a copy of the
//! region, then each row lifted in its slot and interleaved straight
//! back. The symmetric-extension ends are the only special cases, split
//! off ahead of the loop, and the (de)interleave is written as
//! `chunks_exact(2)` zips, so every hot loop auto-vectorizes.
//!
//! Each coefficient sees exactly the f32 operation sequence of the
//! textbook in-place lifting on an interleaved line (a predict step reads
//! only even samples and writes only odd ones, and vice versa), so the
//! output is bit-identical to the vendored reference transform
//! (`reference::forward_reference`).

/// Which wavelet to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Wavelet {
    /// Reversible integer 5/3 transform.
    Cdf53,
    /// Irreversible 9/7 transform.
    Cdf97,
}

// CDF 9/7 lifting constants (JPEG-2000 Part 1).
const ALPHA: f32 = -1.586_134_3;
const BETA: f32 = -0.052_980_118;
const GAMMA: f32 = 0.882_911_1;
const DELTA: f32 = 0.443_506_87;
const KAPPA: f32 = 1.230_174_1;

/// A 2-D coefficient buffer (row-major `f32`; the 5/3 path keeps values on
/// the integer lattice).
#[derive(Debug, Clone, PartialEq)]
pub struct Coefficients {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Coefficients {
    /// Wraps a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn new(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "coefficient buffer size");
        Coefficients {
            width,
            height,
            data,
        }
    }

    /// Width in samples.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in samples.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Immutable view of the buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes self, returning the buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

/// One subband's rectangle within the Mallat coefficient layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SubbandRect {
    /// Left edge in the coefficient buffer.
    pub x0: usize,
    /// Top edge in the coefficient buffer.
    pub y0: usize,
    /// Subband width in coefficients.
    pub w: usize,
    /// Subband height in coefficients.
    pub h: usize,
}

impl SubbandRect {
    /// Number of coefficients in the subband.
    pub fn count(&self) -> usize {
        self.w * self.h
    }
}

/// Appends the subbands of a `levels`-deep Mallat layout of a
/// `width × height` buffer to `out`, coarsest first: the final LL band,
/// then for each level from deepest to shallowest its HL (horizontal
/// detail), LH (vertical detail), and HH bands. Zero-area subbands (which
/// arise when a dimension collapses to 1) are omitted, so every emitted
/// rectangle holds at least one coefficient. With `levels == 0` the whole
/// buffer is one subband.
///
/// This enumeration *is* the EPC2 chunk order: both the encoder and the
/// decoder derive it from `(width, height, levels)`, so the stream never
/// serializes subband geometry.
/// Coefficients of the largest subband of a `width × height` plane
/// decomposed `levels` times: the plane itself at 0 levels, else at most
/// a quarter of it (every level-1 subband, and the low-pass band the
/// deeper levels split, fits in `⌈w/2⌉ × ⌈h/2⌉`).
pub(crate) fn largest_subband(width: usize, height: usize, levels: u8) -> usize {
    if levels == 0 {
        width * height
    } else {
        width.div_ceil(2) * height.div_ceil(2)
    }
}

pub(crate) fn subband_rects_into(
    width: usize,
    height: usize,
    levels: u8,
    out: &mut Vec<SubbandRect>,
) {
    out.clear();
    if width == 0 || height == 0 {
        return;
    }
    // Per-level parent sizes: sizes[k] is the region the level-(k+1)
    // decomposition splits.
    let mut sizes = [(0usize, 0usize); 12];
    let (mut w, mut h) = (width, height);
    for level in 0..levels as usize {
        sizes[level] = (w, h);
        w = w.div_ceil(2);
        h = h.div_ceil(2);
    }
    out.push(SubbandRect { x0: 0, y0: 0, w, h });
    let mut push = |r: SubbandRect| {
        if r.w > 0 && r.h > 0 {
            out.push(r);
        }
    };
    for &(pw, ph) in sizes[..levels as usize].iter().rev() {
        let (cw, ch) = (pw.div_ceil(2), ph.div_ceil(2));
        push(SubbandRect {
            x0: cw,
            y0: 0,
            w: pw - cw,
            h: ch,
        });
        push(SubbandRect {
            x0: 0,
            y0: ch,
            w: cw,
            h: ph - ch,
        });
        push(SubbandRect {
            x0: cw,
            y0: ch,
            w: pw - cw,
            h: ph - ch,
        });
    }
}

/// Allocating convenience wrapper around [`subband_rects_into`].
pub(crate) fn subband_rects(width: usize, height: usize, levels: u8) -> Vec<SubbandRect> {
    let mut out = Vec::new();
    subband_rects_into(width, height, levels, &mut out);
    out
}

/// Dimensions of the low-pass (LL) band after `levels` decompositions of a
/// `width × height` buffer: each level takes the ceiling half of both axes.
/// This is also the size of the raster a level-limited decode produces when
/// it discards the finest `levels` detail levels.
pub fn reduced_dims(width: usize, height: usize, levels: u8) -> (usize, usize) {
    let (mut w, mut h) = (width, height);
    for _ in 0..levels {
        w = w.div_ceil(2);
        h = h.div_ceil(2);
    }
    (w, h)
}

/// DC gain of the 1-D low-pass analysis lifting chain: the factor a
/// constant signal's even (low-pass) samples acquire per decomposition
/// level. A level-limited decode stops the inverse transform while the
/// remaining samples still carry this gain once per level per axis, so the
/// truncated reconstruction divides it back out (`gain^(2k)` for `k`
/// discarded 2-D levels).
///
/// The reversible 5/3 chain is gain-free on constants (`floor((c+c)/2)`
/// cancels exactly); the 9/7 value follows from composing the lifting
/// steps on a constant line.
pub(crate) fn low_pass_dc_gain(wavelet: Wavelet) -> f32 {
    match wavelet {
        Wavelet::Cdf53 => 1.0,
        Wavelet::Cdf97 => {
            let d = 1.0 + 2.0 * ALPHA;
            let s = 1.0 + 2.0 * BETA * d;
            let d = d + 2.0 * GAMMA * s;
            let s = s + 2.0 * DELTA * d;
            s * KAPPA
        }
    }
}

/// Maximum usable decomposition depth for the given dimensions (each level
/// halves the LL band; stop before a dimension reaches 1).
pub(crate) fn max_levels(width: usize, height: usize) -> u8 {
    let mut levels = 0u8;
    let (mut w, mut h) = (width, height);
    while w >= 2 && h >= 2 && levels < 12 {
        w = w.div_ceil(2);
        h = h.div_ceil(2);
        levels += 1;
    }
    levels
}

/// Forward multi-level transform in place.
///
/// # Panics
///
/// Panics if `levels` exceeds `max_levels` for the buffer.
pub fn forward(coeffs: &mut Coefficients, wavelet: Wavelet, levels: u8) {
    let (w, h) = (coeffs.width, coeffs.height);
    forward_into(&mut coeffs.data, w, h, wavelet, levels, &mut Vec::new());
}

/// Forward multi-level transform over a raw row-major buffer, reusing
/// `block` as the planar working buffer (it grows once and is reused
/// across levels and calls).
///
/// # Panics
///
/// Panics if `data.len() != width * height` or `levels` exceeds
/// `max_levels`.
pub fn forward_into(
    data: &mut [f32],
    width: usize,
    height: usize,
    wavelet: Wavelet,
    levels: u8,
    block: &mut Vec<f32>,
) {
    assert_eq!(data.len(), width * height, "coefficient buffer size");
    assert!(levels <= max_levels(width, height), "too many DWT levels");
    if block.len() < width * height {
        block.resize(width * height, 0.0);
    }
    let (mut w, mut h) = (width, height);
    for _ in 0..levels {
        forward_level(data, width, wavelet, w, h, &mut block[..w * h]);
        w = w.div_ceil(2);
        h = h.div_ceil(2);
    }
}

/// Inverse multi-level transform in place (mirror of [`forward`]).
///
/// # Panics
///
/// Panics if `levels` exceeds `max_levels` for the buffer.
pub fn inverse(coeffs: &mut Coefficients, wavelet: Wavelet, levels: u8) {
    let (w, h) = (coeffs.width, coeffs.height);
    inverse_into(&mut coeffs.data, w, h, wavelet, levels, &mut Vec::new());
}

/// Inverse multi-level transform over a raw row-major buffer (mirror of
/// [`forward_into`], with the same reusable planar `block`).
///
/// # Panics
///
/// Panics if `data.len() != width * height` or `levels` exceeds
/// `max_levels`.
pub(crate) fn inverse_into(
    data: &mut [f32],
    width: usize,
    height: usize,
    wavelet: Wavelet,
    levels: u8,
    block: &mut Vec<f32>,
) {
    assert_eq!(data.len(), width * height, "coefficient buffer size");
    assert!(levels <= max_levels(width, height), "too many DWT levels");
    if block.len() < width * height {
        block.resize(width * height, 0.0);
    }
    // Rebuild the per-level sizes, then undo from the deepest level out.
    let mut sizes = [(0usize, 0usize); 12];
    let (mut w, mut h) = (width, height);
    for level in 0..levels as usize {
        sizes[level] = (w, h);
        w = w.div_ceil(2);
        h = h.div_ceil(2);
    }
    for &(w, h) in sizes[..levels as usize].iter().rev() {
        inverse_level(data, width, wavelet, w, h, &mut block[..w * h]);
    }
}

/// Row of the `w × h` region whose samples land in planar `block` row `r`
/// (low-pass rows first, then high-pass rows).
fn source_row(r: usize, h: usize) -> usize {
    let half = h.div_ceil(2);
    if r < half {
        2 * r
    } else {
        2 * (r - half) + 1
    }
}

/// One analysis level of the `w × h` region at the top-left of `data`:
/// each row is deinterleaved straight into its vertically deinterleaved
/// slot of `block` and lifted there, the columns are lifted over the whole
/// block, and the result is copied back once.
fn forward_level(
    data: &mut [f32],
    stride: usize,
    wavelet: Wavelet,
    w: usize,
    h: usize,
    block: &mut [f32],
) {
    for (r, plane) in block.chunks_exact_mut(w).enumerate() {
        let y = source_row(r, h);
        deinterleave(plane, &data[y * stride..y * stride + w]);
        analyze(plane, 1, wavelet);
    }
    analyze(block, w, wavelet);
    for (row, plane) in data.chunks_mut(stride).zip(block.chunks_exact(w)) {
        row[..w].copy_from_slice(plane);
    }
}

/// One synthesis level (mirror of [`forward_level`]): the columns are
/// lifted over a planar copy of the region, then each row is lifted in
/// its block slot and interleaved straight back into place.
fn inverse_level(
    data: &mut [f32],
    stride: usize,
    wavelet: Wavelet,
    w: usize,
    h: usize,
    block: &mut [f32],
) {
    for (plane, row) in block.chunks_exact_mut(w).zip(data.chunks(stride)) {
        plane.copy_from_slice(&row[..w]);
    }
    synthesize(block, w, wavelet);
    for (r, plane) in block.chunks_exact_mut(w).enumerate() {
        synthesize(plane, 1, wavelet);
        let y = source_row(r, h);
        interleave(&mut data[y * stride..y * stride + w], plane);
    }
}

/// Forward 1-D lifting of a planar line of `n = plane.len() / lanes`
/// samples, each `lanes` floats wide: the low-pass samples `s` fill the
/// first `ceil(n/2)` slots, the high-pass samples `d` the rest.
#[inline(always)]
fn analyze(plane: &mut [f32], lanes: usize, wavelet: Wavelet) {
    let n = plane.len() / lanes;
    if n < 2 {
        return;
    }
    let (s, d) = plane.split_at_mut(n.div_ceil(2) * lanes);
    match wavelet {
        Wavelet::Cdf53 => {
            // Predict: d[k] -= floor((s[k] + s[k+1]) / 2)
            odd_step(d, s, lanes, |c, l, r| c - ((l + r) / 2.0).floor());
            // Update: s[k] += floor((d[k-1] + d[k] + 2) / 4)
            even_step(s, d, lanes, |c, l, r| c + ((l + r + 2.0) / 4.0).floor());
        }
        Wavelet::Cdf97 => {
            odd_step(d, s, lanes, |c, l, r| c + ALPHA * (l + r));
            even_step(s, d, lanes, |c, l, r| c + BETA * (l + r));
            odd_step(d, s, lanes, |c, l, r| c + GAMMA * (l + r));
            even_step(s, d, lanes, |c, l, r| c + DELTA * (l + r));
            s.iter_mut().for_each(|v| *v *= KAPPA);
            d.iter_mut().for_each(|v| *v /= KAPPA);
        }
    }
}

/// Inverse 1-D lifting of a planar line (mirror of [`analyze`]).
#[inline(always)]
fn synthesize(plane: &mut [f32], lanes: usize, wavelet: Wavelet) {
    let n = plane.len() / lanes;
    if n < 2 {
        return;
    }
    let (s, d) = plane.split_at_mut(n.div_ceil(2) * lanes);
    match wavelet {
        Wavelet::Cdf53 => {
            even_step(s, d, lanes, |c, l, r| c - ((l + r + 2.0) / 4.0).floor());
            odd_step(d, s, lanes, |c, l, r| c + ((l + r) / 2.0).floor());
        }
        Wavelet::Cdf97 => {
            s.iter_mut().for_each(|v| *v /= KAPPA);
            d.iter_mut().for_each(|v| *v *= KAPPA);
            even_step(s, d, lanes, |c, l, r| c - DELTA * (l + r));
            odd_step(d, s, lanes, |c, l, r| c - GAMMA * (l + r));
            even_step(s, d, lanes, |c, l, r| c - BETA * (l + r));
            odd_step(d, s, lanes, |c, l, r| c - ALPHA * (l + r));
        }
    }
}

/// `t[i] = f(t[i], a[i], b[i])` elementwise: the one loop every lifting
/// step runs, contiguous so it auto-vectorizes.
#[inline(always)]
fn lift(t: &mut [f32], a: &[f32], b: &[f32], f: &impl Fn(f32, f32, f32) -> f32) {
    for ((t, &a), &b) in t.iter_mut().zip(a).zip(b) {
        *t = f(*t, a, b);
    }
}

/// Lifts the odd (high-pass) samples from their even neighbours:
/// `d[k] = f(d[k], s[k], s[k+1])`. On an even-length line the last `d`
/// has no right neighbour; symmetric extension reflects it to `s[k]`.
#[inline(always)]
fn odd_step(d: &mut [f32], s: &[f32], lanes: usize, f: impl Fn(f32, f32, f32) -> f32) {
    let inner = (s.len() - lanes).min(d.len());
    let (body, end) = d.split_at_mut(inner);
    lift(body, &s[..inner], &s[lanes..lanes + inner], &f);
    if !end.is_empty() {
        let last = &s[inner..];
        lift(end, last, last, &f);
    }
}

/// Lifts the even (low-pass) samples from their odd neighbours:
/// `s[k] = f(s[k], d[k-1], d[k])`. Symmetric extension reflects `d[-1]`
/// to `d[0]` at the start and, on an odd-length line, the missing right
/// neighbour of the last `s` to `d[k-1]`.
#[inline(always)]
fn even_step(s: &mut [f32], d: &[f32], lanes: usize, f: impl Fn(f32, f32, f32) -> f32) {
    let (first, rest) = s.split_at_mut(lanes);
    lift(first, &d[..lanes], &d[..lanes], &f);
    let inner = (d.len() - lanes).min(rest.len());
    let (body, end) = rest.split_at_mut(inner);
    lift(body, &d[..inner], &d[lanes..lanes + inner], &f);
    if !end.is_empty() {
        let last = &d[d.len() - lanes..];
        lift(end, last, last, &f);
    }
}

/// Splits an interleaved line into planar form: even samples first, then
/// odd ones.
fn deinterleave(dst: &mut [f32], interleaved: &[f32]) {
    let (even, odd) = dst.split_at_mut(interleaved.len().div_ceil(2));
    for ((e, o), pair) in even
        .iter_mut()
        .zip(odd.iter_mut())
        .zip(interleaved.chunks_exact(2))
    {
        *e = pair[0];
        *o = pair[1];
    }
    if let [.., last] = interleaved.chunks_exact(2).remainder() {
        even[even.len() - 1] = *last;
    }
}

/// Inverse of [`deinterleave`].
fn interleave(dst: &mut [f32], planar: &[f32]) {
    let (even, odd) = planar.split_at(planar.len().div_ceil(2));
    for (pair, (&e, &o)) in dst.chunks_exact_mut(2).zip(even.iter().zip(odd)) {
        pair[0] = e;
        pair[1] = o;
    }
    if let [last] = dst.chunks_exact_mut(2).into_remainder() {
        *last = even[even.len() - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::hash_unit;

    fn test_image(w: usize, h: usize, seed: u64) -> Vec<f32> {
        (0..w * h)
            .map(|i| (hash_unit(i as u64, seed) * 4095.0).round())
            .collect()
    }

    fn roundtrip_error(w: usize, h: usize, wavelet: Wavelet, levels: u8) -> f32 {
        let original = test_image(w, h, 7);
        let mut c = Coefficients::new(w, h, original.clone());
        forward(&mut c, wavelet, levels);
        inverse(&mut c, wavelet, levels);
        original
            .iter()
            .zip(c.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    #[test]
    fn cdf53_perfect_reconstruction_even_sizes() {
        assert_eq!(roundtrip_error(64, 64, Wavelet::Cdf53, 3), 0.0);
        assert_eq!(roundtrip_error(128, 32, Wavelet::Cdf53, 4), 0.0);
    }

    #[test]
    fn cdf53_perfect_reconstruction_odd_sizes() {
        assert_eq!(roundtrip_error(65, 47, Wavelet::Cdf53, 3), 0.0);
        assert_eq!(roundtrip_error(33, 17, Wavelet::Cdf53, 2), 0.0);
        assert_eq!(roundtrip_error(5, 3, Wavelet::Cdf53, 1), 0.0);
    }

    #[test]
    fn cdf53_integer_lattice_preserved() {
        let mut c = Coefficients::new(32, 32, test_image(32, 32, 3));
        forward(&mut c, Wavelet::Cdf53, 3);
        for &v in c.as_slice() {
            assert!((v - v.round()).abs() < 1e-4, "non-integer coeff {v}");
        }
    }

    #[test]
    fn cdf97_near_perfect_reconstruction() {
        let err = roundtrip_error(64, 64, Wavelet::Cdf97, 3);
        assert!(err < 1e-2, "max error {err}");
        let err = roundtrip_error(51, 37, Wavelet::Cdf97, 2);
        assert!(err < 1e-2, "max error {err}");
    }

    #[test]
    fn smooth_signal_energy_compacts_into_ll() {
        // A smooth gradient should leave almost all energy in the LL band.
        let w = 64;
        let data: Vec<f32> = (0..w * w)
            .map(|i| {
                let x = (i % w) as f32 / w as f32;
                let y = (i / w) as f32 / w as f32;
                1000.0 * (x + y)
            })
            .collect();
        let mut c = Coefficients::new(w, w, data);
        forward(&mut c, Wavelet::Cdf97, 3);
        let ll = w / 8;
        let mut ll_energy = 0.0f64;
        let mut total = 0.0f64;
        for y in 0..w {
            for x in 0..w {
                let e = (c.as_slice()[y * w + x] as f64).powi(2);
                total += e;
                if x < ll && y < ll {
                    ll_energy += e;
                }
            }
        }
        assert!(
            ll_energy / total > 0.99,
            "LL fraction {}",
            ll_energy / total
        );
    }

    #[test]
    fn buffer_entry_points_match_coefficients_path() {
        // Reusing (and over-sized, dirty) scratch buffers must not change a
        // single bit of the transform.
        let mut block = vec![55.0f32; 3];
        let mut planar = vec![-9.0f32; 1];
        for &(w, h, levels) in &[(64usize, 64usize, 5u8), (67, 41, 3), (5, 3, 1)] {
            for wavelet in [Wavelet::Cdf53, Wavelet::Cdf97] {
                let original = test_image(w, h, 11);
                let mut reference = Coefficients::new(w, h, original.clone());
                forward(&mut reference, wavelet, levels);
                let mut buf = original.clone();
                forward_into(&mut buf, w, h, wavelet, levels, &mut block);
                assert_eq!(buf, reference.as_slice(), "forward {w}x{h} {wavelet:?}");
                inverse(&mut reference, wavelet, levels);
                inverse_into(&mut buf, w, h, wavelet, levels, &mut planar);
                assert_eq!(buf, reference.as_slice(), "inverse {w}x{h} {wavelet:?}");
            }
        }
    }

    #[test]
    fn forward_into_matches_forward_reference_bit_for_bit() {
        // The vendored reference transform is otherwise reached only
        // through quantized bytes, which can hide a 1-ulp drift; compare
        // the raw coefficients bit for bit instead, through dirty and
        // over-sized scratch, at every legal depth.
        let mut block = vec![-3.5f32; 20_000];
        for &(w, h) in &[
            (1usize, 16usize),
            (16, 1),
            (2, 2),
            (5, 3),
            (63, 65),
            (67, 41),
            (128, 37),
            (64, 64),
        ] {
            for levels in 0..=max_levels(w, h) {
                for wavelet in [Wavelet::Cdf53, Wavelet::Cdf97] {
                    let original = test_image(w, h, 17);
                    let mut expect = Coefficients::new(w, h, original.clone());
                    crate::reference::forward_reference(&mut expect, wavelet, levels);
                    let mut got = original;
                    forward_into(&mut got, w, h, wavelet, levels, &mut block);
                    let bits_equal = got
                        .iter()
                        .zip(expect.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(bits_equal, "forward {w}x{h}@{levels} {wavelet:?}");
                }
            }
        }
    }

    /// Symmetric extension index for out-of-range neighbours.
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

    /// Scalar inverse lifting of one interleaved line, every neighbour
    /// resolved through [`sym`]: the pre-planar form of [`synthesize`].
    fn lift_inverse(line: &mut [f32], wavelet: Wavelet) {
        let n = line.len();
        if n < 2 {
            return;
        }
        let pass = |line: &mut [f32], start: usize, f: &dyn Fn(f32, f32, f32) -> f32| {
            for i in (start..n).step_by(2) {
                let left = line[sym(i as isize - 1, n as isize)];
                let right = line[sym(i as isize + 1, n as isize)];
                line[i] = f(line[i], left, right);
            }
        };
        match wavelet {
            Wavelet::Cdf53 => {
                pass(line, 0, &|c, l, r| c - ((l + r + 2.0) / 4.0).floor());
                pass(line, 1, &|c, l, r| c + ((l + r) / 2.0).floor());
            }
            Wavelet::Cdf97 => {
                for (i, v) in line.iter_mut().enumerate() {
                    if i % 2 == 0 {
                        *v /= KAPPA;
                    } else {
                        *v *= KAPPA;
                    }
                }
                for (step, coef) in [(0usize, DELTA), (1, GAMMA), (0, BETA), (1, ALPHA)] {
                    pass(line, step, &|c, l, r| c - coef * (l + r));
                }
            }
        }
    }

    /// Index-form interleave (evens from the first half, odds from the
    /// second), independent of the production [`interleave`].
    fn interleave_scalar(dst: &mut [f32], planar: &[f32]) {
        let half = planar.len().div_ceil(2);
        for (i, v) in dst.iter_mut().enumerate() {
            *v = if i % 2 == 0 {
                planar[i / 2]
            } else {
                planar[half + i / 2]
            };
        }
    }

    /// The pre-vectorization inverse level: per-column gather, interleave,
    /// lift, scatter. Kept as the ground truth for bit-exactness of the
    /// planar kernel.
    fn inverse_single_per_column(
        data: &mut [f32],
        stride: usize,
        wavelet: Wavelet,
        w: usize,
        h: usize,
    ) {
        let mut line = vec![0.0f32; w.max(h)];
        let mut planar = vec![0.0f32; w.max(h)];
        for x in 0..w {
            for y in 0..h {
                planar[y] = data[y * stride + x];
            }
            interleave_scalar(&mut line[..h], &planar[..h]);
            lift_inverse(&mut line[..h], wavelet);
            for y in 0..h {
                data[y * stride + x] = line[y];
            }
        }
        for y in 0..h {
            planar[..w].copy_from_slice(&data[y * stride..y * stride + w]);
            interleave_scalar(&mut line[..w], &planar[..w]);
            lift_inverse(&mut line[..w], wavelet);
            data[y * stride..y * stride + w].copy_from_slice(&line[..w]);
        }
    }

    #[test]
    fn vectorized_inverse_is_bit_identical_to_per_column_lifting() {
        // Odd sizes, tiny sizes, degenerate single-row/column regions, and
        // multi-level nesting (where w/h shrink below the stride).
        let mut planar = vec![0.0f32; 1];
        for &(w, h, levels) in &[
            (64usize, 64usize, 5u8),
            (67, 41, 3),
            (5, 3, 1),
            (1, 16, 0),
            (16, 1, 0),
            (2, 2, 1),
            (63, 65, 4),
            (128, 37, 3),
        ] {
            for wavelet in [Wavelet::Cdf53, Wavelet::Cdf97] {
                let mut forwarded = test_image(w, h, 13);
                forward_into(&mut forwarded, w, h, wavelet, levels, &mut planar);
                let mut expect = forwarded.clone();
                {
                    // Mirror inverse_into's level schedule with the
                    // per-column reference.
                    let mut sizes = [(0usize, 0usize); 12];
                    let (mut lw, mut lh) = (w, h);
                    for level in 0..levels as usize {
                        sizes[level] = (lw, lh);
                        lw = lw.div_ceil(2);
                        lh = lh.div_ceil(2);
                    }
                    for &(lw, lh) in sizes[..levels as usize].iter().rev() {
                        inverse_single_per_column(&mut expect, w, wavelet, lw, lh);
                    }
                }
                let mut got = forwarded.clone();
                inverse_into(&mut got, w, h, wavelet, levels, &mut planar);
                let bits_equal = got
                    .iter()
                    .zip(&expect)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(bits_equal, "inverse {w}x{h}@{levels} {wavelet:?}");
            }
        }
    }

    #[test]
    fn max_levels_sane() {
        assert_eq!(max_levels(64, 64), 6);
        assert_eq!(max_levels(1, 64), 0);
        assert!(max_levels(4000, 4000) >= 10);
    }

    #[test]
    #[should_panic(expected = "too many DWT levels")]
    fn forward_rejects_excess_levels() {
        let mut c = Coefficients::new(8, 8, vec![0.0; 64]);
        forward(&mut c, Wavelet::Cdf53, 7);
    }

    #[test]
    fn single_pixel_and_line_degenerate_cases() {
        // Must not panic; zero levels is the only legal depth.
        let mut c = Coefficients::new(1, 1, vec![5.0]);
        forward(&mut c, Wavelet::Cdf53, 0);
        inverse(&mut c, Wavelet::Cdf53, 0);
        assert_eq!(c.as_slice(), &[5.0]);
    }

    #[test]
    fn sym_extension_indices() {
        assert_eq!(sym(-1, 8), 1);
        assert_eq!(sym(-2, 8), 2);
        assert_eq!(sym(8, 8), 6);
        assert_eq!(sym(9, 8), 5);
        assert_eq!(sym(3, 8), 3);
    }

    #[test]
    fn subband_rects_partition_every_coefficient_once() {
        for &(w, h) in &[(64usize, 64usize), (67, 41), (200, 137), (2, 2), (5, 3)] {
            for levels in 0..=max_levels(w, h) {
                let rects = subband_rects(w, h, levels);
                assert!(!rects.is_empty());
                if levels == 0 {
                    assert_eq!(rects.len(), 1, "zero levels is one subband");
                }
                let mut counts = vec![0u8; w * h];
                for r in &rects {
                    assert!(r.w > 0 && r.h > 0, "empty rect emitted");
                    for y in r.y0..r.y0 + r.h {
                        for x in r.x0..r.x0 + r.w {
                            counts[y * w + x] += 1;
                        }
                    }
                }
                assert!(
                    counts.iter().all(|&c| c == 1),
                    "{w}x{h} levels {levels}: subbands must tile the buffer"
                );
            }
        }
    }

    #[test]
    fn subband_rects_order_is_coarsest_first() {
        let rects = subband_rects(64, 64, 3);
        // LL(8x8), then 3 bands each at 8x8, 16x16, 32x32.
        assert_eq!(rects.len(), 10);
        assert_eq!((rects[0].w, rects[0].h), (8, 8));
        assert_eq!((rects[0].x0, rects[0].y0), (0, 0));
        assert_eq!((rects[1].w, rects[1].h), (8, 8));
        assert_eq!((rects[9].w, rects[9].h), (32, 32));
        assert_eq!((rects[9].x0, rects[9].y0), (32, 32));
    }

    #[test]
    fn reduced_dims_match_ll_rect() {
        for &(w, h) in &[(64usize, 64usize), (67, 41), (510, 510), (5, 3)] {
            for levels in 0..=max_levels(w, h) {
                let rects = subband_rects(w, h, levels);
                let (rw, rh) = reduced_dims(w, h, levels);
                assert_eq!((rects[0].w, rects[0].h), (rw, rh), "{w}x{h}@{levels}");
            }
        }
    }

    #[test]
    fn reduced_enumeration_is_a_prefix_of_the_full_one() {
        // The property partial decode leans on: the subbands of the
        // reduced geometry (after discarding k fine levels) are exactly
        // the first entries of the full enumeration, in order.
        for &(w, h) in &[(64usize, 64usize), (67, 41), (200, 137), (5, 3)] {
            let levels = max_levels(w, h);
            let full = subband_rects(w, h, levels);
            for k in 0..=levels {
                let (rw, rh) = reduced_dims(w, h, k);
                let reduced = subband_rects(rw, rh, levels - k);
                assert_eq!(&full[..reduced.len()], &reduced[..], "{w}x{h} discard {k}");
            }
        }
    }

    #[test]
    fn low_pass_dc_gain_matches_lifting_on_constants() {
        for wavelet in [Wavelet::Cdf53, Wavelet::Cdf97] {
            let mut line = vec![100.0f32; 64];
            analyze(&mut line, 1, wavelet);
            let gain = low_pass_dc_gain(wavelet);
            // The low-pass samples fill the first half of the planar line.
            for i in 0..32 {
                assert!(
                    (line[i] / 100.0 - gain).abs() < 1e-4,
                    "{wavelet:?} sample {i}: {} vs gain {gain}",
                    line[i] / 100.0
                );
            }
        }
    }

    #[test]
    fn deinterleave_interleave_roundtrip() {
        let src: Vec<f32> = (0..9).map(|v| v as f32).collect();
        let mut planar = vec![0.0; 9];
        deinterleave(&mut planar, &src);
        // Evens first, then odds.
        assert_eq!(planar, vec![0.0, 2.0, 4.0, 6.0, 8.0, 1.0, 3.0, 5.0, 7.0]);
        let mut back = vec![0.0; 9];
        interleave(&mut back, &planar);
        assert_eq!(back, src);
    }
}
