//! Whole-image wavelet codec with embedded rate control.
//!
//! # Format versioning
//!
//! Two wire formats share the header magic and are distinguished by the
//! version byte ([`FormatVersion`]):
//!
//! * **EPC1** — one range-coder chain over the whole Mallat layout, with
//!   global per-pass truncation offsets. The original format, frozen: the
//!   library only decodes it, and the vendored
//!   [`reference`](crate::reference) encoder is the one encoder that still
//!   emits it (the golden-hash compatibility tests pin its bytes).
//! * **EPC2** — the format every library encoder emits. The stream is
//!   split into independently decodable
//!   *subband chunks* (coarsest first: LL, then each level's detail
//!   bands), each with its own range-coder chain and *subband-local* pass
//!   offsets, and the significance pass batches runs of insignificant
//!   coefficients into single zero-run decisions. The decoder seeks any
//!   subband's planes directly from the header — no replay of the global
//!   chain — and truncation cuts whole trailing chunks plus a pass-aligned
//!   prefix of one chunk (resolution-progressive). The header's chunk
//!   table is bit-packed: Exp-Golomb codes of each chunk's plane count,
//!   pass count and pass-offset deltas.
//!
//! EPC1 streams keep their historical wire quirk: a budget-truncated
//! encode carries the full pass-offset table even for passes beyond the
//! payload ([`EncodedImage::wire_truncated`]). EPC2 headers always describe
//! exactly the payload present, and
//! [`EncodedImage::truncated`] clamps offsets for both formats, so size
//! accounting agrees with the bytes.

use crate::bitplane::{self, encode_planes_until, MAX_PLANES};
use crate::dwt::{self, Wavelet};
use crate::exp_golomb::{self, BitReader, BitWriter};
use crate::fanout::{self, chunk_workers, lock, time_tile, TileJob, TileTime};
use crate::scratch::{reserve_to, CodecScratch, DecodeScratch};
use crate::{CodecError, DecodeError};
use bytes::{Buf, BufMut, Bytes};
use earthplus_raster::{Raster, TileView};
use std::sync::Mutex;

/// Magic number identifying an encoded image ("EP" wavelet codec).
const MAGIC: u32 = 0x4550_5743;

/// Upper bound on the pixel count a stream may claim (268 MPix — an order
/// of magnitude beyond a full Doves capture). Headers are trusted to size
/// decoder allocations, so a bit-flipped dimension field must be rejected
/// before it can drive an unbounded allocation; both
/// [`EncodedImage::from_bytes`] and the decode entry points enforce this.
pub const MAX_PIXELS: u64 = 1 << 28;

/// Bitstream format version (the header's version byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FormatVersion {
    /// Original format: one global range-coder chain, global pass offsets.
    Epc1,
    /// Versioned format 2: per-subband chunks with subband-local pass
    /// offsets and zero-run significance coding.
    #[default]
    Epc2,
}

impl FormatVersion {
    /// The wire value of the header version byte.
    pub(crate) fn wire_byte(self) -> u8 {
        match self {
            FormatVersion::Epc1 => 1,
            FormatVersion::Epc2 => 2,
        }
    }
}

/// Codec configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecConfig {
    /// Wavelet family.
    pub wavelet: Wavelet,
    /// Decomposition levels (clamped to the valid maximum per image).
    pub levels: u8,
    /// Quantizer step size in scaled-integer units (1.0 quantizes 9/7
    /// coefficients of `input_levels`-scaled data onto the integer grid).
    /// A step so fine that a coefficient needs more than [`MAX_PLANES`]
    /// magnitude bitplanes makes the encoders fail.
    pub quant_step: f32,
    /// Input scaling: `[0, 1]` samples are multiplied by this and rounded;
    /// 4095 matches a 12-bit sensor.
    pub input_levels: u16,
}

impl CodecConfig {
    /// Lossy 9/7 configuration (the workhorse for downlink encoding).
    pub fn lossy() -> Self {
        CodecConfig {
            wavelet: Wavelet::Cdf97,
            levels: 5,
            quant_step: 1.0,
            input_levels: 4095,
        }
    }

    /// Reversible 5/3 configuration: exact on the 12-bit sensor lattice
    /// when decoded at full rate.
    pub fn lossless() -> Self {
        CodecConfig {
            wavelet: Wavelet::Cdf53,
            levels: 5,
            quant_step: 1.0,
            input_levels: 4095,
        }
    }
}

impl Default for CodecConfig {
    fn default() -> Self {
        Self::lossy()
    }
}

/// One EPC2 subband chunk's header entry: the chunk's magnitude-plane
/// count and its pass offsets *local to the chunk* (lookahead margin
/// included; the last offset is the chunk's byte length). Chunk byte
/// positions are not stored — they are the running sum of chunk lengths in
/// subband-enumeration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubbandChunk {
    /// Magnitude bitplanes coded in this chunk (0 ⇒ empty chunk).
    pub planes: u8,
    /// Chunk-local byte offset after each coding pass.
    pub offsets: Vec<u32>,
}

impl SubbandChunk {
    /// The chunk's payload length in bytes.
    fn len(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0) as usize
    }

    /// Rejects pass offsets that run backwards.
    fn check_monotone(&self) -> Result<(), DecodeError> {
        if self.offsets.windows(2).any(|o| o[0] > o[1]) {
            return Err(DecodeError::Malformed {
                reason: "EPC2 chunk offsets not monotone".to_owned(),
            });
        }
        Ok(())
    }
}

/// An encoded image: header plus embedded payload.
///
/// The payload is a shared [`Bytes`] buffer, so [`EncodedImage::truncated`]
/// is an O(1) byte-range view — rate control does not clone the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedImage {
    width: u32,
    height: u32,
    wavelet: Wavelet,
    levels: u8,
    planes: u8,
    quant_step: f32,
    input_levels: u16,
    format: FormatVersion,
    /// EPC1: global per-pass payload offsets. Empty for EPC2.
    pass_offsets: Vec<u32>,
    /// EPC2: per-subband chunk descriptors in enumeration order. Empty for
    /// EPC1.
    subbands: Vec<SubbandChunk>,
    payload: Bytes,
}

impl EncodedImage {
    /// Assembles an EPC1 image from already-encoded parts (the vendored
    /// reference encoder, the only EPC1 encoder, uses this; the payload is
    /// copied into shared storage).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        width: u32,
        height: u32,
        wavelet: Wavelet,
        levels: u8,
        planes: u8,
        quant_step: f32,
        input_levels: u16,
        pass_offsets: Vec<u32>,
        payload: Vec<u8>,
    ) -> EncodedImage {
        EncodedImage {
            width,
            height,
            wavelet,
            levels,
            planes,
            quant_step,
            input_levels,
            format: FormatVersion::Epc1,
            pass_offsets,
            subbands: Vec::new(),
            payload: Bytes::from(payload),
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Payload length in bytes (excluding header).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Total serialized size: header plus payload.
    pub fn size_bytes(&self) -> usize {
        self.header_len() + self.payload.len()
    }

    /// The stream's format version.
    pub fn format(&self) -> FormatVersion {
        self.format
    }

    /// Decomposition depth of the stream.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Magnitude bitplanes coded (the maximum across subband chunks for
    /// EPC2 streams).
    pub fn planes(&self) -> u8 {
        self.planes
    }

    /// Output dimensions of a level-limited decode that discards the
    /// finest `discard_levels` detail levels (clamped to the stream's
    /// depth): `ceil(w / 2^k) × ceil(h / 2^k)`.
    pub fn reduced_dimensions(&self, discard_levels: u8) -> (usize, usize) {
        dwt::reduced_dims(
            self.width as usize,
            self.height as usize,
            discard_levels.min(self.levels),
        )
    }

    /// The EPC2 subband chunk table (empty for EPC1 streams).
    pub fn subbands(&self) -> &[SubbandChunk] {
        &self.subbands
    }

    /// Number of quality layers (coding passes) in the stream.
    pub(crate) fn layer_count(&self) -> usize {
        match self.format {
            FormatVersion::Epc1 => self.pass_offsets.len(),
            FormatVersion::Epc2 => self.subbands.iter().map(|c| c.offsets.len()).sum(),
        }
    }

    /// Serialized header length in bytes — exactly what
    /// [`EncodedImage::to_bytes`] writes before the payload.
    fn header_len(&self) -> usize {
        // Common: magic(4) + ver(1) + wavelet(1) + levels(1) + planes(1) +
        // w(4) + h(4) + step(4) + input_levels(2) = 22, plus payload_len(4).
        match self.format {
            // + n_offsets(2) + offsets(4n)
            FormatVersion::Epc1 => 28 + 4 * self.pass_offsets.len(),
            // + the Exp-Golomb table, zero-padded to a whole byte
            FormatVersion::Epc2 => {
                let bits: usize = self.epc2_table().map(exp_golomb::code_bits).sum();
                26 + bits.div_ceil(8)
            }
        }
    }

    /// The EPC2 header table as the integers it serializes, in wire order:
    /// the subband count, then per chunk its plane count, its pass count
    /// and each pass offset as the delta from the previous one (the first
    /// from 0).
    fn epc2_table(&self) -> impl Iterator<Item = u32> + '_ {
        let chunks = self.subbands.iter().flat_map(|chunk| {
            let previous = std::iter::once(0).chain(chunk.offsets.iter().copied());
            let deltas = chunk.offsets.iter().zip(previous).map(|(&o, p)| o - p);
            [chunk.planes as u32, chunk.offsets.len() as u32]
                .into_iter()
                .chain(deltas)
        });
        std::iter::once(self.subbands.len() as u32).chain(chunks)
    }

    /// Every valid truncation point of the payload, ascending: the byte
    /// positions at which the stream ends exactly on a coding-pass
    /// boundary. For EPC2 these are each chunk's local offsets rebased to
    /// the chunk's position in the payload.
    pub fn pass_boundaries(&self) -> Vec<usize> {
        match self.format {
            FormatVersion::Epc1 => self.pass_offsets.iter().map(|&o| o as usize).collect(),
            FormatVersion::Epc2 => {
                let mut cuts = Vec::with_capacity(self.layer_count());
                let mut start = 0usize;
                for chunk in &self.subbands {
                    cuts.extend(chunk.offsets.iter().map(|&o| start + o as usize));
                    start += chunk.len();
                }
                cuts
            }
        }
    }

    /// Returns a view truncated to at most `max_payload_bytes`, cut at the
    /// largest pass boundary that fits (rate control and downlink-layer
    /// dropping both use this). O(1) payload handling: the storage is
    /// shared, not cloned. The header metadata is clamped to the cut, so
    /// the result's [`EncodedImage::size_bytes`] and
    /// [`EncodedImage::pass_boundaries`] describe exactly the surviving bytes,
    /// and truncating twice at the same budget is a no-op.
    pub fn truncated(&self, max_payload_bytes: usize) -> EncodedImage {
        let mut out = self.wire_truncated(max_payload_bytes);
        let cut = out.payload.len();
        match self.format {
            FormatVersion::Epc1 => out.pass_offsets.retain(|&o| o as usize <= cut),
            FormatVersion::Epc2 => {
                let mut start = 0usize;
                let mut max_planes = 0u8;
                for chunk in &mut out.subbands {
                    let len = chunk.len();
                    let local = cut.saturating_sub(start);
                    chunk.offsets.retain(|&o| o as usize <= local);
                    if chunk.offsets.is_empty() {
                        // Fully-cut chunk: nothing of it survives, so it
                        // carries no plane information either.
                        chunk.planes = 0;
                    }
                    max_planes = max_planes.max(chunk.planes);
                    start += len;
                }
                out.planes = max_planes;
            }
        }
        out
    }

    /// Cuts the payload at the largest pass boundary that fits
    /// `max_payload_bytes` while keeping the header metadata untouched —
    /// the historical EPC1 on-board wire form, where a budgeted encode
    /// advertises every pass offset and the decoder derives availability
    /// from the payload length. A budgeted EPC1 encode is
    /// [`reference::encode_reference`](crate::reference::encode_reference)
    /// followed by this cut; downlink-side truncation goes through
    /// [`EncodedImage::truncated`], which clamps.
    pub fn wire_truncated(&self, max_payload_bytes: usize) -> EncodedImage {
        let cut = self
            .pass_boundaries()
            .into_iter()
            .take_while(|&o| o <= max_payload_bytes)
            .last()
            .unwrap_or(0)
            .min(self.payload.len());
        let mut out = self.clone();
        out.payload = self.payload.slice(..cut);
        out
    }

    /// Serializes to a self-describing byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.size_bytes());
        buf.put_u32(MAGIC);
        buf.put_u8(self.format.wire_byte());
        buf.put_u8(match self.wavelet {
            Wavelet::Cdf53 => 0,
            Wavelet::Cdf97 => 1,
        });
        buf.put_u8(self.levels);
        buf.put_u8(self.planes);
        buf.put_u32(self.width);
        buf.put_u32(self.height);
        buf.put_f32(self.quant_step);
        buf.put_u16(self.input_levels);
        match self.format {
            FormatVersion::Epc1 => {
                buf.put_u16(self.pass_offsets.len() as u16);
                for &o in &self.pass_offsets {
                    buf.put_u32(o);
                }
            }
            FormatVersion::Epc2 => {
                let mut table = BitWriter::new(&mut buf);
                for v in self.epc2_table() {
                    table.put_code(v);
                }
                table.finish();
            }
        }
        buf.put_u32(self.payload.len() as u32);
        buf.extend_from_slice(&self.payload);
        buf
    }

    /// Parses a byte vector produced by [`EncodedImage::to_bytes`] — either
    /// format version.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] on truncated or corrupt input.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<EncodedImage, CodecError> {
        let need = |buf: &[u8], n: usize| -> Result<(), CodecError> {
            if buf.remaining() < n {
                Err(malformed("unexpected end of stream"))
            } else {
                Ok(())
            }
        };
        need(bytes, 24)?;
        if bytes.get_u32() != MAGIC {
            return Err(malformed("bad magic"));
        }
        let format = match bytes.get_u8() {
            1 => FormatVersion::Epc1,
            2 => FormatVersion::Epc2,
            version => return Err(malformed(format!("unsupported version {version}"))),
        };
        let wavelet = match bytes.get_u8() {
            0 => Wavelet::Cdf53,
            1 => Wavelet::Cdf97,
            w => return Err(malformed(format!("unknown wavelet {w}"))),
        };
        let levels = bytes.get_u8();
        let planes = bytes.get_u8();
        let width = bytes.get_u32();
        let height = bytes.get_u32();
        let quant_step = bytes.get_f32();
        let input_levels = bytes.get_u16();
        if width as u64 * height as u64 > MAX_PIXELS {
            return Err(malformed(format!(
                "{width}x{height} exceeds the decodable pixel bound"
            )));
        }
        // The encoder clamps levels to max_levels (≤ 12); anything larger
        // is corruption, and both the subband enumeration and the inverse
        // DWT assume the valid range — reject it here rather than panic
        // downstream.
        let max_levels = dwt::max_levels(width as usize, height as usize);
        if levels > max_levels {
            return Err(malformed(format!(
                "levels {levels} exceeds the maximum {max_levels} for {width}x{height}"
            )));
        }
        // No encoder emits more than MAX_PLANES magnitude planes; a larger
        // value is corruption, and the bitplane decoders' plane masks
        // assume the valid range — reject here rather than decode garbage.
        if planes > MAX_PLANES {
            return Err(malformed(format!(
                "plane count {planes} exceeds the maximum {MAX_PLANES}"
            )));
        }
        let mut pass_offsets = Vec::new();
        let mut subbands = Vec::new();
        match format {
            FormatVersion::Epc1 => {
                need(bytes, 2)?;
                let n_offsets = bytes.get_u16() as usize;
                need(bytes, 4 * n_offsets)?;
                pass_offsets = (0..n_offsets).map(|_| bytes.get_u32()).collect();
            }
            FormatVersion::Epc2 => {
                let expected = dwt::subband_rects(width as usize, height as usize, levels).len();
                let mut table = BitReader::new(bytes);
                subbands = parse_epc2_table(&mut table, expected)?;
                bytes = &bytes[table.byte_len()..];
            }
        }
        need(bytes, 4)?;
        let payload_len = bytes.get_u32() as usize;
        // EPC2 headers describe exactly the payload present.
        let chunk_total: u64 = subbands.iter().map(|c| c.len() as u64).sum();
        if format == FormatVersion::Epc2 && chunk_total != payload_len as u64 {
            return Err(malformed(format!(
                "EPC2 chunk lengths sum to {chunk_total}, payload_len is {payload_len}"
            )));
        }
        need(bytes, payload_len)?;
        let payload = Bytes::copy_from_slice(&bytes[..payload_len]);
        Ok(EncodedImage {
            width,
            height,
            wavelet,
            levels,
            planes,
            quant_step,
            input_levels,
            format,
            pass_offsets,
            subbands,
            payload,
        })
    }
}

fn malformed(reason: impl Into<String>) -> CodecError {
    CodecError::Malformed {
        reason: reason.into(),
    }
}

/// Reads the EPC2 header table (see [`EncodedImage::epc2_table`]) for a
/// geometry with `expected` subbands, rejecting what no encoder writes:
/// an overlong code, a subband count that disagrees with the geometry, a
/// plane count past [`MAX_PLANES`], more than two passes per plane (which
/// also bounds the offset allocation), an offset past `u32::MAX`, or
/// non-zero padding after the last code.
fn parse_epc2_table(
    table: &mut BitReader<'_>,
    expected: usize,
) -> Result<Vec<SubbandChunk>, CodecError> {
    let n_subbands = table.code()? as usize;
    if n_subbands != expected {
        return Err(malformed(format!(
            "EPC2 stream lists {n_subbands} subbands, geometry has {expected}"
        )));
    }
    let mut subbands = Vec::with_capacity(n_subbands);
    for _ in 0..n_subbands {
        let planes = table.code()?;
        if planes > MAX_PLANES as u32 {
            return Err(malformed(format!(
                "subband plane count {planes} exceeds the maximum {MAX_PLANES}"
            )));
        }
        let passes = table.code()?;
        if passes > 2 * planes {
            return Err(malformed(format!(
                "EPC2 chunk lists {passes} passes for {planes} planes"
            )));
        }
        let mut offsets = Vec::with_capacity(passes as usize);
        let mut offset = 0u32;
        for _ in 0..passes {
            offset = offset
                .checked_add(table.code()?)
                .ok_or_else(|| malformed("EPC2 pass offset overflows u32"))?;
            offsets.push(offset);
        }
        subbands.push(SubbandChunk {
            planes: planes as u8,
            offsets,
        });
    }
    if !table.padding_is_zero() {
        return Err(malformed("EPC2 table padding is not zero"));
    }
    Ok(subbands)
}

/// Encodes a `[0, 1]` raster into a fully-embedded EPC2 stream (all
/// bitplanes). The library encodes EPC2 only; EPC1 streams come from the
/// vendored [`reference`](crate::reference) encoder.
///
/// Combine with [`EncodedImage::truncated`] for rate control, or use
/// [`encode_with_budget`]. Hot paths that encode many tiles should use
/// [`encode_view`] with a persistent [`CodecScratch`] instead.
///
/// # Errors
///
/// Returns [`CodecError::EmptyImage`] for a zero-sized raster, and
/// [`CodecError::TooManyPlanes`] when `config.quant_step` is so fine that
/// the largest quantized coefficient needs more than [`MAX_PLANES`]
/// magnitude bitplanes.
pub fn encode(image: &Raster, config: &CodecConfig) -> Result<EncodedImage, CodecError> {
    let (w, h) = image.dimensions();
    if image.is_empty() {
        return Err(CodecError::EmptyImage);
    }
    encode_view(&image.view(0, 0, w, h), config, &mut CodecScratch::new())
}

/// Encodes and truncates to a byte budget (payload bytes).
///
/// # Errors
///
/// Propagates [`encode`] errors.
pub fn encode_with_budget(
    image: &Raster,
    config: &CodecConfig,
    max_payload_bytes: usize,
) -> Result<EncodedImage, CodecError> {
    let (w, h) = image.dimensions();
    if image.is_empty() {
        return Err(CodecError::EmptyImage);
    }
    encode_view_with_budget(
        &image.view(0, 0, w, h),
        config,
        max_payload_bytes,
        &mut CodecScratch::new(),
    )
}

/// Encodes a zero-copy tile view into a fully-embedded stream, using (and
/// growing only on first use) the buffers of `scratch`. Bit-identical to
/// [`encode`] on the materialized tile.
///
/// # Errors
///
/// As [`encode`].
pub fn encode_view(
    view: &TileView<'_>,
    config: &CodecConfig,
    scratch: &mut CodecScratch,
) -> Result<EncodedImage, CodecError> {
    encode_view_impl(view, config, None, scratch)
}

/// Encodes a zero-copy tile view truncated to a payload byte budget.
/// Bit-identical to [`encode_with_budget`] on the materialized tile, but
/// only the surviving prefix of the stream is ever copied out of the
/// scratch arena.
///
/// # Errors
///
/// As [`encode`].
pub fn encode_view_with_budget(
    view: &TileView<'_>,
    config: &CodecConfig,
    max_payload_bytes: usize,
    scratch: &mut CodecScratch,
) -> Result<EncodedImage, CodecError> {
    encode_view_impl(view, config, Some(max_payload_bytes), scratch)
}

fn encode_view_impl(
    view: &TileView<'_>,
    config: &CodecConfig,
    budget: Option<usize>,
    scratch: &mut CodecScratch,
) -> Result<EncodedImage, CodecError> {
    check_encodable(view)?;
    // The span clones its histogram handle, so the borrow of `scratch`
    // ends immediately; with tracing and telemetry off it reads no clock.
    let mut trace = scratch
        .tracing
        .span("codec", "encode.epc2")
        .record_into(&scratch.enc_epc2_ns);
    let image = encode_checked(view, config, budget, scratch)?;
    scratch.enc_bytes.record(image.payload.len() as u64);
    trace.arg("payload_bytes", image.payload.len());
    Ok(image)
}

/// [`encode_view_with_budget`] without its trace span and histogram
/// samples: a fanned-out ROI tile encodes through this on its worker, and
/// the calling thread commits the tile's instrumentation after the call
/// (see [`CodecScratch::commit_encode`]).
pub(crate) fn encode_view_uninstrumented(
    view: &TileView<'_>,
    config: &CodecConfig,
    max_payload_bytes: usize,
    scratch: &mut CodecScratch,
) -> Result<EncodedImage, CodecError> {
    check_encodable(view)?;
    encode_checked(view, config, Some(max_payload_bytes), scratch)
}

fn check_encodable(view: &TileView<'_>) -> Result<(), CodecError> {
    if view.is_empty() {
        return Err(CodecError::EmptyImage);
    }
    let (w, h) = view.dimensions();
    // The decoder rejects headers past MAX_PIXELS (they size its
    // allocations), so refuse to emit a stream that could not be decoded
    // back.
    if w as u64 * h as u64 > MAX_PIXELS {
        return Err(CodecError::TooLarge {
            pixels: w as u64 * h as u64,
        });
    }
    Ok(())
}

/// Gather, forward DWT and EPC2 coding of a view [`check_encodable`]
/// accepted.
fn encode_checked(
    view: &TileView<'_>,
    config: &CodecConfig,
    budget: Option<usize>,
    scratch: &mut CodecScratch,
) -> Result<EncodedImage, CodecError> {
    let (w, h) = view.dimensions();
    let levels = config.levels.min(dwt::max_levels(w, h));
    let scale = config.input_levels as f32;
    // Gather + scale in one pass (this replaces the old extract-tile copy
    // followed by a whole-tile map).
    scratch.samples.clear();
    scratch.samples.reserve(w * h);
    for row in view.rows() {
        scratch
            .samples
            .extend(row.iter().map(|&v| (v * scale).round()));
    }
    let t = std::time::Instant::now();
    dwt::forward_into(
        &mut scratch.samples,
        w,
        h,
        config.wavelet,
        levels,
        &mut scratch.dwt_block,
    );
    scratch.stages.dwt += t.elapsed();
    let step = config.quant_step.max(1e-6);
    let image = encode_epc2(w, h, levels, step, config, budget, scratch)?;
    scratch.track_growth();
    Ok(image)
}

/// EPC2 chunked encode over the DWT coefficients in `scratch.samples`:
/// each subband (enumerated coarsest first) is quantized as it is gathered
/// and coded as an independent zero-run stream, concatenated into one
/// payload with subband-local pass offsets in the header.
///
/// With a byte budget the encoder does only the work whose bytes survive
/// the cut (the format-level win over EPC1's single chain, which must code
/// every plane before truncating). Subbands whose chunk would start at or
/// beyond the budget are neither quantized nor coded, and the chunk that
/// straddles the budget stops coding once its range coder has committed the bytes up
/// to the cut (see `encode_planes_until`). The result is byte-identical to
/// encoding everything and calling [`EncodedImage::truncated`] with the
/// same budget.
fn encode_epc2(
    w: usize,
    h: usize,
    levels: u8,
    step: f32,
    config: &CodecConfig,
    budget: Option<usize>,
    scratch: &mut CodecScratch,
) -> Result<EncodedImage, CodecError> {
    let mut rects = std::mem::take(&mut scratch.sb_rects);
    dwt::subband_rects_into(w, h, levels, &mut rects);
    scratch.stream.clear();
    // The rect buffer moves out of the arena for the borrow and straight
    // back in, error or not — no allocation.
    let subbands = encode_subband_chunks(w, &rects, step, budget, scratch);
    scratch.sb_rects = rects;
    let subbands = subbands?;
    let full = EncodedImage {
        width: w as u32,
        height: h as u32,
        wavelet: config.wavelet,
        levels,
        planes: subbands.iter().map(|c| c.planes).max().unwrap_or(0),
        quant_step: step,
        input_levels: config.input_levels,
        format: FormatVersion::Epc2,
        pass_offsets: Vec::new(),
        subbands,
        payload: Bytes::copy_from_slice(&scratch.stream),
    };
    Ok(match budget {
        None => full,
        Some(max) => full.truncated(max),
    })
}

/// Quantizes and codes each subband of the `w`-wide coefficient plane in
/// `scratch.samples` as one EPC2 chunk, appending its bytes to
/// `scratch.stream` (see [`encode_epc2`]).
fn encode_subband_chunks(
    w: usize,
    rects: &[dwt::SubbandRect],
    step: f32,
    budget: Option<usize>,
    scratch: &mut CodecScratch,
) -> Result<Vec<SubbandChunk>, CodecError> {
    let mut subbands: Vec<SubbandChunk> = Vec::with_capacity(rects.len());
    for rect in rects {
        // The chunk's share of the budget: its bytes past `cut` cannot
        // survive truncation.
        let cut = match budget {
            None => usize::MAX,
            Some(max) if scratch.stream.len() < max => max - scratch.stream.len(),
            Some(_) => {
                // This chunk would start at or past the cut: nothing of it
                // can survive truncation, so skip the work.
                subbands.push(SubbandChunk {
                    planes: 0,
                    offsets: Vec::new(),
                });
                continue;
            }
        };
        let t = std::time::Instant::now();
        let CodecScratch {
            samples, sb_coeffs, ..
        } = &mut *scratch;
        sb_coeffs.clear();
        for r in 0..rect.h {
            let base = (rect.y0 + r) * w + rect.x0;
            quantize_extend(&samples[base..base + rect.w], step, sb_coeffs);
        }
        let quantized = std::time::Instant::now();
        scratch.stages.quantize += quantized - t;
        let sb_coeffs = std::mem::take(&mut scratch.sb_coeffs);
        let planes = encode_planes_until(&sb_coeffs, rect.w, cut, scratch);
        scratch.stages.bitplane += quantized.elapsed();
        scratch.sb_coeffs = sb_coeffs;
        let planes = planes?;
        // Append exactly the chunk's recorded length — the padding in the
        // plane coder guarantees `payload.len()` reaches the last offset.
        // An all-zero subband records no offsets at all, but the range
        // coder still flushed a few bytes; those must NOT enter the stream
        // or every later chunk's derived start would shift. A chunk that
        // stopped at its cut ends past it, so every later chunk is skipped.
        let chunk_len = scratch.pass_offsets.last().copied().unwrap_or(0) as usize;
        debug_assert_eq!(
            chunk_len,
            if planes == 0 {
                0
            } else {
                scratch.payload.len()
            }
        );
        scratch
            .stream
            .extend_from_slice(&scratch.payload[..chunk_len]);
        subbands.push(SubbandChunk {
            planes,
            offsets: scratch.pass_offsets.clone(),
        });
    }
    Ok(subbands)
}

/// Deadzone quantizer: appends each coefficient of `src` divided by `step`
/// and truncated toward zero (`as` truncates, which equals the floor of
/// the non-negative quotient) to `dst`. Unit step — the default
/// configuration — divides by exactly 1.0, so the division is skipped
/// without changing a single output bit.
fn quantize_extend(src: &[f32], step: f32, dst: &mut Vec<i32>) {
    if step == 1.0 {
        dst.extend(src.iter().map(|&c| {
            let q = c.abs() as i32;
            if c < 0.0 {
                -q
            } else {
                q
            }
        }));
    } else {
        dst.extend(src.iter().map(|&c| {
            let q = (c.abs() / step) as i32;
            if c < 0.0 {
                -q
            } else {
                q
            }
        }));
    }
}

/// Decodes an encoded image (possibly truncated) back to a `[0, 1]` raster
/// — either format version. Allocating convenience wrapper: hot paths that
/// decode many tiles should hold a [`DecodeScratch`] and use
/// [`decode_with_scratch`] (or [`decode_into`] to also reuse the output
/// raster).
///
/// # Errors
///
/// Returns [`DecodeError`] when the header metadata is inconsistent with
/// the stream geometry (truncation is not an error — embedded streams
/// decode whatever passes survive).
pub fn decode(encoded: &EncodedImage) -> Result<Raster, DecodeError> {
    decode_with_scratch(encoded, &mut DecodeScratch::new())
}

/// Full decode through a reusable [`DecodeScratch`] arena: coefficient
/// planes, traversal lists, and the inverse-DWT block buffer persist across
/// calls, so steady-state decoding allocates only the returned raster
/// (which must be owned).
///
/// # Errors
///
/// As [`decode`].
pub fn decode_with_scratch(
    encoded: &EncodedImage,
    scratch: &mut DecodeScratch,
) -> Result<Raster, DecodeError> {
    decode_level_limited(encoded, 0, scratch)
}

/// Resolution-progressive partial decode: discards the finest
/// `discard_levels` detail levels (clamped to the stream's depth) and runs
/// a truncated inverse DWT, producing a `ceil(w/2^k) × ceil(h/2^k)` raster
/// directly.
///
/// On EPC2 streams only the subband chunks of the kept resolution levels
/// are seeked and decoded — the finer chunks' bytes are never touched. An
/// EPC1 stream has one global coding chain, so it falls back to replaying
/// the whole prefix and then reconstructing only the reduced geometry.
///
/// # Errors
///
/// As [`decode`].
pub fn decode_level_limited(
    encoded: &EncodedImage,
    discard_levels: u8,
    scratch: &mut DecodeScratch,
) -> Result<Raster, DecodeError> {
    let mut out = Raster::new(0, 0);
    decode_into(encoded, discard_levels, scratch, &mut out)?;
    Ok(out)
}

/// Decodes only the LL band — the coarsest resolution the stream carries
/// (`ceil(w/2^levels) × ceil(h/2^levels)`). On EPC2 this reads exactly one
/// subband chunk; it is the fast path for building heavily-downsampled
/// reference images from archived captures without materializing a full
/// frame.
///
/// # Errors
///
/// As [`decode`].
pub fn decode_ll_only(
    encoded: &EncodedImage,
    scratch: &mut DecodeScratch,
) -> Result<Raster, DecodeError> {
    decode_level_limited(encoded, encoded.levels, scratch)
}

/// The zero-allocation decode entry point: decodes into `out`, which is
/// reshaped in place (reusing its allocation) to the output geometry of a
/// decode that discards the finest `discard_levels` levels. Pass 0 for a
/// full-resolution decode.
///
/// An EPC2 decode whose output holds at least 256² pixels fans its coded
/// subband chunks out over the host's cores: the calling thread (through
/// `scratch`) and one helper thread per extra core (which `scratch` owns
/// and keeps) claim the chunks, and the calling thread assembles them and
/// runs the inverse DWT. The output is the same bits for any core count
/// and schedule. Smaller decodes stay on the calling thread.
///
/// # Errors
///
/// As [`decode`]; on error `out`'s contents are unspecified.
pub fn decode_into(
    encoded: &EncodedImage,
    discard_levels: u8,
    scratch: &mut DecodeScratch,
    out: &mut Raster,
) -> Result<(), DecodeError> {
    let (rw, rh) = encoded.reduced_dimensions(discard_levels);
    decode_into_on(
        chunk_workers(rw * rh),
        encoded,
        discard_levels,
        scratch,
        out,
    )
}

/// [`decode_into`] with an EPC2 stream's coded subband chunks on
/// `workers` workers (see [`decode_epc2_fanned`]); 1 keeps the serial
/// chunk loop.
pub(crate) fn decode_into_on(
    workers: usize,
    encoded: &EncodedImage,
    discard_levels: u8,
    scratch: &mut DecodeScratch,
    out: &mut Raster,
) -> Result<(), DecodeError> {
    let Some(k) = check_decodable(encoded, discard_levels, scratch, out)? else {
        return Ok(());
    };
    // The span clones its handle, so the borrow of `scratch` ends
    // immediately.
    let (name, hist) = scratch.decode_span(encoded.format, k);
    let mut trace = scratch.tracing.span("codec", name).record_into(hist);
    trace.arg("payload_bytes", encoded.payload_len());
    trace.arg("discard_levels", k);
    decode_checked(encoded, k, workers, scratch, out)
}

/// A full decode of one ROI tile into `out` without its trace span and
/// histogram sample: a fanned-out tile decodes through this on its
/// worker, timed with one pair of clock reads when `timed`, and the
/// calling thread commits the span after the call (see
/// [`DecodeScratch::commit_decode`]). The time is `None` when untimed or
/// when the stream is empty, which [`decode_into`] records no span for
/// either. The tile's chunks stay on its worker: a tile call is already
/// fanned out per tile, so a helper arena never fans out.
pub(crate) fn decode_tile_uninstrumented(
    encoded: &EncodedImage,
    timed: bool,
    scratch: &mut DecodeScratch,
    out: &mut Raster,
) -> (Result<(), DecodeError>, TileTime) {
    match check_decodable(encoded, 0, scratch, out) {
        Err(e) => (Err(e), None),
        Ok(None) => (Ok(()), None),
        Ok(Some(k)) => time_tile(timed, || decode_checked(encoded, k, 1, scratch, out)),
    }
}

/// Validates `encoded`'s header against the decodable bounds and returns
/// the levels a decode discarding `discard_levels` drops, or `None` for
/// an empty stream (`out` is then already its empty output).
fn check_decodable(
    encoded: &EncodedImage,
    discard_levels: u8,
    scratch: &mut DecodeScratch,
    out: &mut Raster,
) -> Result<Option<u8>, DecodeError> {
    let w = encoded.width as usize;
    let h = encoded.height as usize;
    scratch.payload_bytes_read = 0;
    if w == 0 || h == 0 {
        out.reset(w, h);
        return Ok(None);
    }
    // Headers size every decoder allocation; re-check the pixel bound here
    // so even an in-memory stream with a corrupt dimension cannot drive an
    // unbounded allocation.
    if w as u64 * h as u64 > MAX_PIXELS {
        return Err(DecodeError::Malformed {
            reason: format!("{w}x{h} exceeds the decodable pixel bound"),
        });
    }
    let max = dwt::max_levels(w, h);
    if encoded.levels > max {
        return Err(DecodeError::TooManyLevels {
            levels: encoded.levels,
            max,
        });
    }
    Ok(Some(discard_levels.min(encoded.levels)))
}

/// Seek, bitplane decode, dequantization and inverse DWT of a stream
/// [`check_decodable`] accepted, discarding its finest `k` levels, with
/// an EPC2 stream's chunks on `workers` workers.
fn decode_checked(
    encoded: &EncodedImage,
    k: u8,
    workers: usize,
    scratch: &mut DecodeScratch,
    out: &mut Raster,
) -> Result<(), DecodeError> {
    let w = encoded.width as usize;
    let h = encoded.height as usize;
    let keep = encoded.levels - k;
    let (rw, rh) = dwt::reduced_dims(w, h, k);
    out.reset(rw, rh);
    scratch.coeffs.clear();
    scratch.coeffs.resize(rw * rh, 0.0);
    match encoded.format {
        FormatVersion::Epc1 => decode_epc1_reduced(encoded, w, rw, rh, scratch)?,
        FormatVersion::Epc2 => {
            // The rects buffer moves out of the arena for the borrow and
            // straight back in — no allocation, and the chunk loop can
            // borrow `scratch` for the bitplane decoders.
            let mut rects = std::mem::take(&mut scratch.sb_rects);
            let result =
                decode_epc2_reduced(encoded, w, h, rw, rh, keep, workers, &mut rects, scratch);
            scratch.sb_rects = rects;
            result?;
        }
    }
    let t = std::time::Instant::now();
    {
        let DecodeScratch {
            coeffs, dwt_block, ..
        } = &mut *scratch;
        dwt::inverse_into(
            &mut coeffs[..rw * rh],
            rw,
            rh,
            encoded.wavelet,
            keep,
            dwt_block,
        );
    }
    scratch.stages.dwt += t.elapsed();
    // The stopped inverse leaves level-k low-pass samples, which still
    // carry the analysis low-pass DC gain once per discarded level per
    // axis; divide it back out along with the input scaling. With k = 0
    // the gain factor is exactly 1 and this is the historical full-decode
    // mapping, bit for bit.
    let t = std::time::Instant::now();
    let norm =
        encoded.input_levels as f32 * dwt::low_pass_dc_gain(encoded.wavelet).powi(2 * k as i32);
    for (dst, &v) in out
        .as_mut_slice()
        .iter_mut()
        .zip(&scratch.coeffs[..rw * rh])
    {
        *dst = (v / norm).clamp(0.0, 1.0);
    }
    scratch.stages.quantize += t.elapsed();
    scratch.track_growth();
    Ok(())
}

/// Dequantizes a row straight from the decoder's magnitude plane and sign
/// word mask — the fused form of mid-tread reconstruction over
/// `emit_quantized`-style signed coefficients, skipping the intermediate
/// `i32` plane entirely. Bit-identical to the unfused
/// `(±q as f32 ± bias) * step` path: `mag as f32` rounds like `±q as f32`
/// in magnitude, IEEE addition is symmetric under negation, and the sign
/// and the zero case are applied as integer bit operations on the float
/// representation (no data-dependent branches — signs are near-random).
///
/// The sign word is expanded into a per-lane mask before the arithmetic
/// loop so the body is a straight-line map the compiler can vectorize.
#[inline]
fn dequantize_row_fused(
    mag: &[u32],
    neg: &[u64],
    base: usize,
    dst: &mut [f32],
    bias: f32,
    step: f32,
) {
    let src = &mag[base..base + dst.len()];
    for (k, (d, &m)) in dst.iter_mut().zip(src).enumerate() {
        let i = base + k;
        let v = (m as f32 + bias) * step;
        let sign = ((neg[i >> 6] >> (i & 63)) as u32 & 1) << 31;
        let nonzero = ((m != 0) as u32).wrapping_neg();
        *d = f32::from_bits((v.to_bits() ^ sign) & nonzero);
    }
}

/// The decode step both formats share for one coding chain — EPC1's
/// global chain or one EPC2 subband chunk: rejects a plane count past
/// [`MAX_PLANES`], accounts the chain's bytes as read, decodes the passes
/// `payload` fully holds into `scratch.mag` / `scratch.neg_words`, and
/// returns the reconstruction bias of the lowest decoded plane —
/// magnitudes are floored there, so they are centred in their uncertainty
/// interval (zero bias when the chain decoded exactly). `None` when the
/// chain codes nothing (no planes or no passes): its coefficients stay at
/// the zeros the coefficient plane starts from.
fn decode_chunk(
    encoded: &EncodedImage,
    payload: &[u8],
    planes: u8,
    offsets: &[u32],
    width: usize,
    count: usize,
    scratch: &mut DecodeScratch,
) -> Result<Option<f32>, DecodeError> {
    if planes > MAX_PLANES {
        return Err(DecodeError::TooManyPlanes { planes });
    }
    scratch.payload_bytes_read += payload.len();
    if planes == 0 || offsets.is_empty() {
        return Ok(None);
    }
    Ok(Some(decode_coded_chain(
        encoded, payload, planes, offsets, width, count, scratch,
    )))
}

/// The bitplane decode of a chain [`decode_chunk`] accepted and found
/// coded, returning its reconstruction bias.
fn decode_coded_chain(
    encoded: &EncodedImage,
    payload: &[u8],
    planes: u8,
    offsets: &[u32],
    width: usize,
    count: usize,
    scratch: &mut DecodeScratch,
) -> f32 {
    let t = std::time::Instant::now();
    let passes = bitplane::decode_planes_core(
        payload,
        count,
        width,
        planes,
        offsets,
        encoded.format,
        scratch,
    );
    scratch.stages.bitplane += t.elapsed();
    let lowest_plane = planes as usize - passes.div_ceil(2);
    let reversible =
        encoded.wavelet == Wavelet::Cdf53 && encoded.quant_step == 1.0 && lowest_plane == 0;
    if reversible {
        0.0
    } else if lowest_plane > 0 {
        (1u32 << lowest_plane) as f32 * 0.5
    } else {
        0.5
    }
}

/// EPC1: one global chain over the whole Mallat layout. A partial decode
/// cannot seek — it replays the whole prefix — but only the top-left
/// `rw × rh` corner of the coefficient plane (which holds exactly the kept
/// subbands) is dequantized into the reduced output geometry.
fn decode_epc1_reduced(
    encoded: &EncodedImage,
    w: usize,
    rw: usize,
    rh: usize,
    scratch: &mut DecodeScratch,
) -> Result<(), DecodeError> {
    let count = encoded.width as usize * encoded.height as usize;
    let Some(bias) = decode_chunk(
        encoded,
        &encoded.payload,
        encoded.planes,
        &encoded.pass_offsets,
        w,
        count,
        scratch,
    )?
    else {
        return Ok(());
    };
    let t = std::time::Instant::now();
    let DecodeScratch {
        mag,
        neg_words,
        coeffs,
        ..
    } = &mut *scratch;
    for r in 0..rh {
        let dst = &mut coeffs[r * rw..(r + 1) * rw];
        dequantize_row_fused(mag, neg_words, r * w, dst, bias, encoded.quant_step);
    }
    scratch.stages.quantize += t.elapsed();
    Ok(())
}

/// EPC2: every subband chunk decodes independently from its own slice of
/// the payload — the header's subband-local offsets are all the decoder
/// needs to seek a chunk; no other chunk's chain is replayed. The reduced
/// enumeration is a prefix of the full one, so a level-limited decode
/// touches only the leading chunks' bytes and skips the rest of the
/// payload entirely. Chunks cut off by truncation reconstruct as zero, and
/// the mid-tread bias is applied per subband at that subband's lowest
/// decoded plane.
///
/// On more than one worker the coded chunks fan out instead
/// ([`decode_epc2_fanned`]).
#[allow(clippy::too_many_arguments)]
fn decode_epc2_reduced(
    encoded: &EncodedImage,
    w: usize,
    h: usize,
    rw: usize,
    rh: usize,
    keep: u8,
    workers: usize,
    rects: &mut Vec<dwt::SubbandRect>,
    scratch: &mut DecodeScratch,
) -> Result<(), DecodeError> {
    dwt::subband_rects_into(w, h, encoded.levels, rects);
    if encoded.subbands.len() != rects.len() {
        return Err(DecodeError::Malformed {
            reason: format!(
                "EPC2 stream lists {} subbands, geometry has {}",
                encoded.subbands.len(),
                rects.len()
            ),
        });
    }
    dwt::subband_rects_into(rw, rh, keep, rects);
    if workers > 1 {
        return decode_epc2_fanned(encoded, rw, rects, workers, scratch);
    }
    let payload = &encoded.payload[..];
    let mut start = 0usize;
    for (rect, chunk) in rects.iter().zip(&encoded.subbands) {
        chunk.check_monotone()?;
        let chunk_len = chunk.len();
        let lo = start.min(payload.len());
        let hi = (start + chunk_len).min(payload.len());
        start += chunk_len;
        let Some(bias) = decode_chunk(
            encoded,
            &payload[lo..hi],
            chunk.planes,
            &chunk.offsets,
            rect.w,
            rect.count(),
            scratch,
        )?
        else {
            continue;
        };
        let t = std::time::Instant::now();
        let DecodeScratch {
            mag,
            neg_words,
            coeffs,
            ..
        } = &mut *scratch;
        for r in 0..rect.h {
            let base = (rect.y0 + r) * rw + rect.x0;
            let dst = &mut coeffs[base..base + rect.w];
            dequantize_row_fused(mag, neg_words, r * rect.w, dst, bias, encoded.quant_step);
        }
        scratch.stages.quantize += t.elapsed();
    }
    Ok(())
}

/// The kept EPC2 chunks of one decode on `workers` workers: the calling
/// thread (through `scratch`) and the arena's helpers claim the coded
/// chunks longest payload first, and each worker bitplane-decodes and
/// dequantizes a chunk into that chunk's own buffer (lent by `scratch`
/// for the call). The calling thread then copies every buffer into its
/// rect of the coefficient plane, so the plane holds the serial loop's
/// bits for any worker count and schedule. Every kept chunk is checked
/// in stream order before any is decoded, so a malformed stream fails
/// with the serial loop's error.
fn decode_epc2_fanned(
    encoded: &EncodedImage,
    rw: usize,
    rects: &[dwt::SubbandRect],
    workers: usize,
    scratch: &mut DecodeScratch,
) -> Result<(), DecodeError> {
    let chunks = &encoded.subbands[..rects.len()];
    let payload_len = encoded.payload.len();
    let mut ranges = Vec::with_capacity(chunks.len());
    let mut start = 0usize;
    for chunk in chunks {
        chunk.check_monotone()?;
        if chunk.planes > MAX_PLANES {
            return Err(DecodeError::TooManyPlanes {
                planes: chunk.planes,
            });
        }
        ranges.push(start.min(payload_len)..(start + chunk.len()).min(payload_len));
        start += chunk.len();
    }
    let mut order: Vec<usize> = (0..chunks.len())
        .filter(|&c| chunks[c].planes > 0 && !chunks[c].offsets.is_empty())
        .collect();
    // Stable: equal lengths keep stream order.
    order.sort_by_key(|&c| std::cmp::Reverse(ranges[c].len()));
    // Every kept chunk's buffer is reserved, coded or not, so which
    // chunks a stream codes never grows the arena later.
    if scratch.chunk_coeffs.len() < rects.len() {
        scratch.chunk_coeffs.resize_with(rects.len(), Vec::new);
    }
    for (buffer, rect) in scratch.chunk_coeffs.iter_mut().zip(rects) {
        reserve_to(buffer, rect.count());
    }
    let job = DecodeChunks {
        slots: order
            .iter()
            .map(|&c| Mutex::new(std::mem::take(&mut scratch.chunk_coeffs[c])))
            .collect(),
        encoded: encoded.clone(),
        rects: rects.to_vec(),
        ranges,
        order,
    };
    let mut helpers = std::mem::take(&mut scratch.helpers);
    let call = fanout::run(scratch, &mut helpers, workers, job.order.len(), job);
    scratch.helpers = helpers;
    let job = call.job();
    scratch.payload_bytes_read = job.ranges.iter().map(|range| range.len()).sum();
    let t = std::time::Instant::now();
    for (&c, slot) in job.order.iter().zip(&job.slots) {
        let buffer = std::mem::take(&mut *lock(slot));
        let rect = rects[c];
        for (r, row) in buffer.chunks_exact(rect.w).enumerate() {
            let base = (rect.y0 + r) * rw + rect.x0;
            scratch.coeffs[base..base + rect.w].copy_from_slice(row);
        }
        scratch.chunk_coeffs[c] = buffer;
    }
    scratch.stages.quantize += t.elapsed();
    Ok(())
}

/// A fanned-out EPC2 decode: the stream, its kept chunks' rects and
/// payload ranges, the coded chunks in claim order, and one buffer per
/// coded chunk, in that order.
struct DecodeChunks {
    encoded: EncodedImage,
    rects: Vec<dwt::SubbandRect>,
    ranges: Vec<std::ops::Range<usize>>,
    order: Vec<usize>,
    slots: Vec<Mutex<Vec<f32>>>,
}

impl TileJob<DecodeScratch> for DecodeChunks {
    fn work(&self, arena: &mut DecodeScratch, i: usize) {
        let c = self.order[i];
        let (rect, chunk) = (self.rects[c], &self.encoded.subbands[c]);
        let bias = decode_coded_chain(
            &self.encoded,
            &self.encoded.payload[self.ranges[c].clone()],
            chunk.planes,
            &chunk.offsets,
            rect.w,
            rect.count(),
            arena,
        );
        let t = std::time::Instant::now();
        let mut buffer = lock(&self.slots[i]);
        // Every coefficient is written below, so a buffer already at the
        // chunk's size is not cleared first.
        buffer.resize(rect.count(), 0.0);
        dequantize_row_fused(
            &arena.mag,
            &arena.neg_words,
            0,
            &mut buffer,
            bias,
            self.encoded.quant_step,
        );
        arena.stages.quantize += t.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::hash_unit;
    use earthplus_raster::psnr;

    fn natural_image(w: usize, h: usize, seed: u64) -> Raster {
        // Smooth base + texture + an edge: exercises all subbands.
        Raster::from_fn(w, h, |x, y| {
            let fx = x as f32 / w as f32;
            let fy = y as f32 / h as f32;
            let smooth = 0.4 + 0.3 * (fx * 4.0).sin() * (fy * 3.0).cos();
            let texture = (hash_unit((y * w + x) as u64, seed) - 0.5) * 0.05;
            let edge = if fx > 0.5 { 0.15 } else { 0.0 };
            (smooth + texture + edge).clamp(0.0, 1.0)
        })
    }

    #[test]
    fn lossless_is_exact_on_sensor_lattice() {
        // Quantize input onto the 12-bit grid first (the sensor already
        // does this in the pipeline).
        let img = natural_image(64, 64, 1).map(|v| (v * 4095.0).round() / 4095.0);
        let enc = encode(&img, &CodecConfig::lossless()).unwrap();
        let dec = decode(&enc).unwrap();
        let max_err = img
            .as_slice()
            .iter()
            .zip(dec.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.5 / 4095.0, "max err {max_err}");
    }

    #[test]
    fn lossy_full_rate_is_high_quality() {
        let img = natural_image(128, 128, 2);
        let enc = encode(&img, &CodecConfig::lossy()).unwrap();
        let dec = decode(&enc).unwrap();
        let q = psnr(&img, &dec).unwrap();
        assert!(q > 45.0, "full-rate PSNR {q}");
    }

    #[test]
    fn rate_distortion_is_monotone() {
        let img = natural_image(128, 128, 3);
        let full = encode(&img, &CodecConfig::lossy()).unwrap();
        let rates = [0.1, 0.25, 0.5, 1.0f64];
        let mut last_psnr = 0.0;
        for r in rates {
            let budget = (full.payload_len() as f64 * r) as usize;
            let dec = decode(&full.truncated(budget)).unwrap();
            let q = psnr(&img, &dec).unwrap();
            assert!(
                q >= last_psnr - 0.3,
                "PSNR not monotone: {q} after {last_psnr} at rate {r}"
            );
            last_psnr = q;
        }
        assert!(last_psnr > 40.0);
    }

    #[test]
    fn truncation_cuts_at_pass_boundaries() {
        let img = natural_image(64, 64, 4);
        let enc = encode(&img, &CodecConfig::lossy()).unwrap();
        let t = enc.truncated(enc.payload_len() / 3);
        assert!(t.payload_len() <= enc.payload_len() / 3);
        assert_eq!(
            t.pass_boundaries().last().copied(),
            Some(t.payload_len()),
            "clamped metadata must end exactly at the cut"
        );
    }

    #[test]
    fn truncated_zero_is_empty_but_decodable() {
        let img = natural_image(64, 64, 5);
        let enc = encode(&img, &CodecConfig::lossy()).unwrap();
        let none = enc.truncated(0);
        assert_eq!(none.payload_len(), 0);
        let dec = decode(&none).unwrap();
        assert_eq!(dec.dimensions(), (64, 64));
    }

    #[test]
    fn more_layers_never_hurt() {
        let img = natural_image(64, 64, 6);
        let epc1 = crate::reference::encode_reference(&img, &CodecConfig::lossy()).unwrap();
        let epc2 = encode(&img, &CodecConfig::lossy()).unwrap();
        for enc in [epc1, epc2] {
            let format = enc.format();
            let mut last = -1.0;
            let cuts = enc.pass_boundaries();
            for layers in [2, 6, 10, enc.layer_count()] {
                let cut = enc.truncated(cuts[layers - 1]);
                // At least the requested passes survive (zero-cost passes
                // sharing the same byte boundary ride along).
                assert!(cut.layer_count() >= layers, "{format:?} layers {layers}");
                let q = psnr(&img, &decode(&cut).unwrap()).unwrap();
                assert!(q >= last - 0.3, "{format:?} layers {layers}: {q} < {last}");
                last = q;
            }
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let img = natural_image(48, 32, 7);
        let enc = encode(&img, &CodecConfig::lossy()).unwrap();
        let bytes = enc.to_bytes();
        assert_eq!(bytes.len(), enc.size_bytes());
        let parsed = EncodedImage::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, enc);
        assert_eq!(
            decode(&parsed).unwrap().as_slice(),
            decode(&enc).unwrap().as_slice()
        );
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(EncodedImage::from_bytes(&[]).is_err());
        assert!(EncodedImage::from_bytes(&[0u8; 16]).is_err());
        let img = natural_image(16, 16, 8);
        let mut bytes = encode(&img, &CodecConfig::lossy()).unwrap().to_bytes();
        bytes.truncate(bytes.len() - 5);
        assert!(EncodedImage::from_bytes(&bytes).is_err());
    }

    #[test]
    fn empty_image_is_an_error() {
        let img = Raster::new(0, 0);
        assert!(matches!(
            encode(&img, &CodecConfig::lossy()),
            Err(CodecError::EmptyImage)
        ));
    }

    #[test]
    fn odd_dimensions_roundtrip() {
        let img = natural_image(67, 41, 9);
        let enc = encode(&img, &CodecConfig::lossy()).unwrap();
        let dec = decode(&enc).unwrap();
        assert_eq!(dec.dimensions(), (67, 41));
        assert!(psnr(&img, &dec).unwrap() > 40.0);
    }

    #[test]
    fn compression_beats_raw_at_high_quality() {
        let img = natural_image(128, 128, 10);
        let enc = encode(&img, &CodecConfig::lossy()).unwrap();
        // Find the smallest truncation still above 35 dB and compare with
        // raw 12-bit storage.
        let raw_bytes = 128 * 128 * 12 / 8;
        let mut budget = enc.payload_len();
        loop {
            let half = budget / 2;
            let dec = decode(&enc.truncated(half)).unwrap();
            if psnr(&img, &dec).unwrap() < 35.0 {
                break;
            }
            budget = half;
            if budget < 64 {
                break;
            }
        }
        assert!(
            budget * 3 < raw_bytes,
            "35dB needs {budget} bytes vs raw {raw_bytes}"
        );
    }

    /// Every decode of `stream`, at every resolution, on `workers`
    /// workers through `scratch`: the bits and the payload bytes read.
    fn decodes_on(
        workers: usize,
        stream: &EncodedImage,
        scratch: &mut DecodeScratch,
    ) -> Vec<(Vec<u32>, usize)> {
        let mut out = Raster::new(0, 0);
        (0..=stream.levels())
            .map(|k| {
                decode_into_on(workers, stream, k, scratch, &mut out).unwrap();
                let bits = out.as_slice().iter().map(|v| v.to_bits()).collect();
                (bits, scratch.payload_bytes_read())
            })
            .collect()
    }

    #[test]
    fn chunk_decode_is_independent_of_worker_count() {
        let config = CodecConfig::lossy();
        let mut enc = CodecScratch::new();
        let band = natural_image(512, 512, 23);
        let view = band.view(0, 0, 512, 512);
        let odd = natural_image(300, 217, 5);
        let full_rate = encode(&natural_image(256, 256, 9), &config).unwrap();
        let streams = [
            encode_view_with_budget(&view, &config, 512 * 512 / 8, &mut enc).unwrap(),
            // Cut inside a chunk: trailing chunks empty, one partly kept.
            full_rate.truncated(full_rate.payload_len() / 3),
            full_rate,
            encode(&odd, &config).unwrap(),
        ];
        for stream in &streams {
            let serial = decodes_on(1, stream, &mut DecodeScratch::new());
            let chunks = stream.subbands().len();
            for workers in [1, 2, 3, 7, chunks + 1] {
                let mut scratch = DecodeScratch::new();
                let what = format!("{}x{} on {workers}", stream.width(), stream.height());
                assert!(
                    decodes_on(workers, stream, &mut scratch) == serial,
                    "{what}"
                );
                // The helpers are kept, and a repeat call grows nothing.
                assert!(scratch.helpers.len() < workers.max(2), "{what}");
                let grown = (scratch.grow_events(), scratch.reserved_bytes());
                assert!(
                    decodes_on(workers, stream, &mut scratch) == serial,
                    "{what}"
                );
                assert_eq!(
                    (scratch.grow_events(), scratch.reserved_bytes()),
                    grown,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn small_decodes_spawn_no_helper() {
        use crate::{encode_roi, RoiBitstream};
        use earthplus_raster::{TileGrid, TileMask};
        assert_eq!(chunk_workers(64 * 64), 1);
        let config = CodecConfig::lossy();
        let mut scratch = DecodeScratch::new();
        let tile = encode(&natural_image(64, 64, 3), &config).unwrap();
        decode_into(&tile, 0, &mut scratch, &mut Raster::new(0, 0)).unwrap();
        let stream = encode(&natural_image(128, 128, 4), &config).unwrap();
        assert!(stream.levels() >= 4);
        let partial = decode_level_limited(&stream, 4, &mut scratch).unwrap();
        assert_eq!(partial.dimensions(), (8, 8));
        assert!(scratch.helpers.is_empty());
        // A fanned-out tile decode's helpers decode each tile serially.
        let img = natural_image(256, 256, 6);
        let grid = TileGrid::new(256, 256, 64).unwrap();
        let mut mask = TileMask::new(&grid);
        mask.fill();
        let roi: RoiBitstream = encode_roi(&img, &grid, &mask, &config, 1024).unwrap();
        roi.decode_tiles_with_scratch(&mut scratch).unwrap();
        let helpers = &scratch.helpers;
        assert!(helpers.iter().all(|h| h.arena().helpers.is_empty()));
    }

    #[test]
    fn a_second_identical_sweep_grows_nothing() {
        use crate::encode_roi_with_scratch;
        use earthplus_raster::{TileGrid, TileMask};
        let config = CodecConfig::lossy();
        let grid = TileGrid::new(512, 512, 64).unwrap();
        let mut mask = TileMask::new(&grid);
        mask.fill();
        let mut enc = CodecScratch::new();
        let band = natural_image(512, 512, 40);
        let roi = encode_roi_with_scratch(&band, &grid, &mask, &config, 512, &mut enc).unwrap();
        let view = band.view(0, 0, 512, 512);
        let image = encode_view_with_budget(&view, &config, 512 * 512 / 8, &mut enc).unwrap();
        let epc1 = crate::reference::encode_reference(&band, &config).unwrap();
        // The `codec_stream` order (ROI tiles, the whole band, LL only),
        // then a serial EPC1 decode that grows the calling thread's arena
        // after the fan-outs.
        let mut scratch = DecodeScratch::new();
        let mut out = Raster::new(0, 0);
        let mut sweep = |scratch: &mut DecodeScratch| {
            roi.decode_tiles_with_scratch(scratch).unwrap();
            decode_into(&image, 0, scratch, &mut out).unwrap();
            decode_ll_only(&image, scratch).unwrap();
            decode_into(&epc1, 0, scratch, &mut out).unwrap();
            (scratch.grow_events(), scratch.reserved_bytes())
        };
        let first = sweep(&mut scratch);
        assert!(first.0 > 0);
        assert_eq!(sweep(&mut scratch), first);
    }
}
