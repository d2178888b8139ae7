//! Embedded bitplane coding of quantized coefficients.
//!
//! Coefficients are coded sign–magnitude, most-significant bitplane first,
//! with two passes per plane (JPEG-2000-style):
//!
//! 1. **significance pass** — for coefficients not yet significant, code
//!    whether this plane makes them significant (and, if so, the sign);
//! 2. **refinement pass** — for already-significant coefficients, code the
//!    plane's magnitude bit.
//!
//! The encoder emits EPC2 only; the decoder reads both stream formats
//! ([`FormatVersion`]) with one traversal: the same mask setup, per-plane
//! snapshot and context derivation, refinement pass, pass-offset check and
//! truncation stop. The formats differ only in the significance pass,
//! picked once per plane:
//!
//! * **EPC1, dense** (frozen, decode-only here) — one adaptive decision per
//!   not-yet-significant coefficient in raster order, in one of three
//!   neighbour contexts (0, 1 or 2+ significant causal neighbours). The
//!   vendored [`reference`](crate::reference) encoder is the one EPC1
//!   encoder.
//! * **EPC2, zero-run** — a candidate with a significant neighbour is coded
//!   as in EPC1, but a stretch of context-0 candidates is grouped into
//!   chunks of up to `RUN_MAX` (64) that cost one adaptive "all clear"
//!   decision when nothing in them becomes significant — the dominant case
//!   in the upper bitplanes. When a chunk does hold a new significant
//!   coefficient, its position is sent in `ceil(log2(len))` raw bits and
//!   the chunk resumes after it.
//!
//! The traversal runs over 64-coefficient `u64` word state: a significance
//! mask (one bit per coefficient), a per-plane magnitude-bit mask, and
//! neighbour-context masks derived for a whole word from the shifted
//! significance masks of the row above (`derive_context_masks`). The next
//! candidate is found with `trailing_zeros`, and a word with no candidate
//! is skipped with one load. Contexts and the refinement set are frozen
//! from a snapshot taken at the start of each plane, so the context
//! modelling reproduces the per-coefficient probe in `neighbor_context`
//! bit for bit (the EPC1 decoder reads the `reference` encoder's streams),
//! and EPC2's chunk boundaries are a pure function of pass-start state that
//! the decoder regathers exactly.
//!
//! The encoder records a truncation offset after every pass. Cutting the
//! payload at any recorded offset yields a valid lower-rate stream; the
//! decoder decodes exactly the passes that are fully contained in the bytes
//! it was given. These per-pass boundaries are the *quality layers* the
//! Earth+ ground station uses to download fewer layers when the downlink
//! degrades (§5, *Handling bandwidth fluctuation*).

use crate::image_codec::FormatVersion;
use crate::rangecoder::{BitModel, RangeDecoder, RangeEncoder};
use crate::scratch::{CodecScratch, DecodeScratch};
use crate::CodecError;

/// Decoder lookahead margin, in bytes: the range decoder primes itself with
/// five bytes, so each recorded pass boundary must include them.
const LOOKAHEAD: usize = 5;

/// Maximum magnitude bitplanes supported.
pub const MAX_PLANES: u8 = 28;

/// Result of bitplane-encoding a coefficient block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedPlanes {
    /// Range-coded payload (embedded stream).
    pub payload: Vec<u8>,
    /// Number of magnitude bitplanes encoded.
    pub planes: u8,
    /// Cumulative payload byte offsets after each coding pass (two passes
    /// per plane: significance, then refinement), including the decoder
    /// lookahead margin. Monotone non-decreasing.
    pub pass_offsets: Vec<u32>,
}

// Pass-boundary queries over the offsets table; only the unit tests use
// them, the encoder and decoders work from `pass_offsets` directly.
#[cfg(test)]
impl EncodedPlanes {
    /// The number of passes whose data is entirely contained within
    /// `available_bytes` of payload.
    fn passes_within(&self, available_bytes: usize) -> usize {
        self.pass_offsets
            .iter()
            .take_while(|&&o| o as usize <= available_bytes)
            .count()
    }

    /// The largest payload length `<= budget` that ends exactly at a pass
    /// boundary (0 when even the first pass does not fit).
    fn truncation_point(&self, budget: usize) -> usize {
        self.pass_offsets
            .iter()
            .map(|&o| o as usize)
            .take_while(|&o| o <= budget)
            .last()
            .unwrap_or(0)
    }
}

/// Upper bound on an EPC2 zero-run chunk (power of two): consecutive
/// context-0 coefficients of the significance pass are grouped into chunks
/// of at most this many and cleared with a single range-coder decision.
pub(crate) const RUN_MAX: usize = 64;

/// Bits needed to address a position inside a chunk of `len` entries
/// (`0` for a single-entry chunk).
#[inline]
pub(crate) fn run_position_bits(len: usize) -> u32 {
    usize::BITS - (len - 1).leading_zeros()
}

pub(crate) struct Contexts {
    /// Significance contexts indexed by the number of significant causal
    /// neighbours (0, 1, 2+).
    pub(crate) significance: [BitModel; 3],
    /// Refinement context.
    pub(crate) refinement: BitModel,
    /// EPC2 zero-run context: "every coefficient of this chunk stays
    /// insignificant". Unused (and therefore bit-neutral) in EPC1 streams.
    pub(crate) run: BitModel,
}

impl Contexts {
    pub(crate) fn new() -> Self {
        Contexts {
            significance: [BitModel::new(); 3],
            refinement: BitModel::new(),
            run: BitModel::new(),
        }
    }
}

#[inline]
pub(crate) fn neighbor_context(sig: &[bool], width: usize, idx: usize) -> usize {
    let x = idx % width;
    let mut n = 0usize;
    if x > 0 && sig[idx - 1] {
        n += 1;
    }
    if idx >= width && sig[idx - width] {
        n += 1;
    }
    if x + 1 < width && idx >= width && sig[idx - width + 1] {
        n += 1;
    }
    n.min(2)
}

/// Encodes quantized coefficients as an EPC2 zero-run plane stream
/// (`width` is the row length used for neighbour context modelling).
/// Allocating wrapper over [`encode_planes_into`].
///
/// # Errors
///
/// As [`encode_planes_into`].
///
/// # Panics
///
/// Panics if `width` is zero or does not divide `coefficients.len()`.
pub fn encode_planes(coefficients: &[i32], width: usize) -> Result<EncodedPlanes, CodecError> {
    let mut scratch = CodecScratch::new();
    let planes = encode_planes_into(coefficients, width, &mut scratch)?;
    Ok(EncodedPlanes {
        payload: std::mem::take(&mut scratch.payload),
        planes,
        pass_offsets: std::mem::take(&mut scratch.pass_offsets),
    })
}

/// Scratch-arena encoder: bit-identical to [`encode_planes`], but every
/// intermediate buffer (significance word masks, context masks, range-coder
/// output) lives in `scratch` and is reused across calls. The payload ends
/// up in `scratch.payload` with per-pass offsets (lookahead included) in
/// `scratch.pass_offsets`; the number of magnitude bitplanes is returned.
///
/// This is the encoder's one plane loop: pack the plane's magnitude bits,
/// snapshot the significance mask and derive the frozen contexts, run the
/// zero-run significance pass, then the refinement pass over the snapshot
/// — exactly the coefficients significant *before* this plane, so the
/// "skip those that became significant in THIS plane" rule needs no
/// per-coefficient check. An offset is recorded after each pass.
///
/// # Errors
///
/// Returns [`CodecError::TooManyPlanes`] when the largest magnitude needs
/// more than [`MAX_PLANES`] bitplanes; nothing is coded.
///
/// # Panics
///
/// Panics if `width` is zero or does not divide `coefficients.len()`.
pub fn encode_planes_into(
    coefficients: &[i32],
    width: usize,
    scratch: &mut CodecScratch,
) -> Result<u8, CodecError> {
    encode_planes_until(coefficients, width, usize::MAX, scratch)
}

/// [`encode_planes_into`] that stops coding once the payload's first `cut`
/// bytes are final: after each recorded pass offset, the loop ends as soon
/// as the range coder has committed `cut` bytes. Every pass boundary
/// `<= cut` is then recorded, and the payload's first `cut` bytes equal
/// those of the full encode (committed bytes never change, and a later
/// boundary lies past the committed bytes plus the lookahead margin), so
/// cutting either stream at a boundary `<= cut` gives the same bytes. The
/// offsets and payload bytes past `cut` differ from the full encode's.
/// `usize::MAX` codes every pass.
pub(crate) fn encode_planes_until(
    coefficients: &[i32],
    width: usize,
    cut: usize,
    scratch: &mut CodecScratch,
) -> Result<u8, CodecError> {
    let planes = plane_count(coefficients, width)?;
    let CodecScratch {
        payload,
        pass_offsets,
        sig_words,
        snap_words,
        any_words,
        two_words,
        bits_words,
        rowstart_words,
        rowend_words,
        ..
    } = scratch;
    let n = coefficients.len();
    let wc = word_count(n);
    let last = last_word_mask(n);
    // `snap`/`bits` are fully overwritten every plane, so they are only
    // sized, not cleared.
    zero_words(sig_words, wc);
    zero_words(any_words, wc);
    zero_words(two_words, wc);
    prepare(snap_words, wc);
    prepare(bits_words, wc);
    build_row_masks(n, width, rowstart_words, rowend_words);
    let sig = &mut sig_words[..wc];
    let snap = &mut snap_words[..wc];
    let any = &mut any_words[..wc];
    let two = &mut two_words[..wc];
    let bits = &mut bits_words[..wc];
    let rowstart = &rowstart_words[..wc];
    let rowend = &rowend_words[..wc];
    let mut enc = RangeEncoder::with_buffer(std::mem::take(payload));
    pass_offsets.clear();
    let mut ctx = Contexts::new();
    let mut scan = RunScan::new();
    let mut have_sig = false;

    for plane in (0..planes).rev() {
        pack_plane_bits(coefficients, 1u32 << plane, bits);
        snap.copy_from_slice(sig);
        // Until the first coefficient becomes significant every context is
        // 0 and `any`/`two` stay all-clear from initialization, so the
        // derivation is skipped for every plane above the first
        // significant magnitude.
        if have_sig {
            derive_context_masks(snap, width, rowstart, rowend, any, two);
        }
        let mut w = SignificanceWords {
            sig: &mut *sig,
            any: &*any,
            two: &*two,
            last,
        };
        have_sig |= encode_run_pass(coefficients, bits, &mut w, &mut scan, &mut enc, &mut ctx);
        pass_offsets.push((enc.len() + LOOKAHEAD) as u32);
        if enc.committed() >= cut {
            break;
        }
        for i in 0..wc {
            let bw = bits[i];
            let mut s = snap[i];
            while s != 0 {
                let j = s.trailing_zeros();
                enc.encode(&mut ctx.refinement, (bw >> j) & 1 != 0);
                s &= s - 1;
            }
        }
        pass_offsets.push((enc.len() + LOOKAHEAD) as u32);
        if enc.committed() >= cut {
            break;
        }
    }
    // Pad to the final recorded offset: offsets include the decoder
    // lookahead margin, so a full (untruncated) stream must physically
    // contain every offset for the availability check to admit all passes.
    *payload = enc.finish();
    if let Some(&end) = pass_offsets.last() {
        if payload.len() < end as usize {
            payload.resize(end as usize, 0);
        }
    }
    Ok(planes)
}

/// Number of magnitude bitplanes needed for `coefficients` (also validates
/// the block shape).
fn plane_count(coefficients: &[i32], width: usize) -> Result<u8, CodecError> {
    assert!(width > 0, "width must be positive");
    assert_eq!(
        coefficients.len() % width,
        0,
        "coefficient count must be a multiple of width"
    );
    let max_mag = coefficients
        .iter()
        .map(|&c| c.unsigned_abs())
        .max()
        .unwrap_or(0);
    let planes = (32 - max_mag.leading_zeros()) as u8;
    if planes > MAX_PLANES {
        return Err(CodecError::TooManyPlanes { planes });
    }
    Ok(planes)
}

fn prepare<T: Copy + Default>(buf: &mut Vec<T>, n: usize) {
    if buf.len() < n {
        buf.resize(n, T::default());
    }
}

/// Number of 64-bit mask words covering `n` coefficients.
#[inline]
fn word_count(n: usize) -> usize {
    n.div_ceil(64)
}

/// Mask of the bits of the last, possibly partial, word that map to real
/// coefficients.
#[inline]
fn last_word_mask(n: usize) -> u64 {
    match n % 64 {
        0 => !0,
        r => (1u64 << r) - 1,
    }
}

fn zero_words(buf: &mut Vec<u64>, wc: usize) {
    buf.clear();
    buf.resize(wc, 0);
}

/// Sets the row-boundary masks: `rowstart` has a bit at every position in
/// column 0 (no left neighbour), `rowend` at every position in the last
/// column (no up-right neighbour).
fn build_row_masks(n: usize, width: usize, rowstart: &mut Vec<u64>, rowend: &mut Vec<u64>) {
    let wc = word_count(n);
    zero_words(rowstart, wc);
    zero_words(rowend, wc);
    if width == 1 {
        rowstart[..wc].fill(!0);
        rowend[..wc].fill(!0);
        return;
    }
    let mut p = 0usize;
    while p < n {
        rowstart[p / 64] |= 1u64 << (p % 64);
        p += width;
    }
    let mut p = width - 1;
    while p < n {
        rowend[p / 64] |= 1u64 << (p % 64);
        p += width;
    }
}

/// Word `i` of the linear bit mask `m` shifted towards higher positions by
/// `64 * q + r` bits (`r < 64`); bits shifted in from before the start of
/// the mask read as zero — exactly the "no row above the first row"
/// boundary condition.
#[inline(always)]
fn shifted_word(m: &[u64], i: usize, q: usize, r: u32) -> u64 {
    let lo = if i >= q { m[i - q] } else { 0 };
    if r == 0 {
        lo
    } else {
        let hi = if i > q { m[i - q - 1] } else { 0 };
        (lo << r) | (hi >> (64 - r))
    }
}

/// Derives whole-word neighbour-context masks from a frozen significance
/// mask: bit `j` of `any[i]` (resp. `two[i]`) says coefficient `64*i + j`
/// has at least one (resp. at least two) significant causal neighbours —
/// left, up, up-right — matching [`neighbor_context`] bit for bit. The
/// three neighbour masks are the significance mask shifted by 1, `width`,
/// and `width - 1` positions, with the row-boundary masks clearing shifts
/// that would cross a row edge.
fn derive_context_masks(
    sig: &[u64],
    width: usize,
    rowstart: &[u64],
    rowend: &[u64],
    any: &mut [u64],
    two: &mut [u64],
) {
    let (uq, ur) = (width / 64, (width % 64) as u32);
    let (rq, rr) = ((width - 1) / 64, ((width - 1) % 64) as u32);
    let mut prev = 0u64;
    for i in 0..sig.len() {
        let s = sig[i];
        let l = ((s << 1) | (prev >> 63)) & !rowstart[i];
        prev = s;
        let u = shifted_word(sig, i, uq, ur);
        let r = shifted_word(sig, i, rq, rr) & !rowend[i];
        any[i] = l | u | r;
        two[i] = (l & u) | (l & r) | (u & r);
    }
}

/// Packs this plane's magnitude bit of 64 consecutive coefficients per
/// word: bit `j` of `bits[i]` = `|coefficients[64*i + j]| & bit_mask != 0`.
fn pack_plane_bits(coefficients: &[i32], bit_mask: u32, bits: &mut [u64]) {
    for (slot, chunk) in bits.iter_mut().zip(coefficients.chunks(64)) {
        let mut m = 0u64;
        for (j, &c) in chunk.iter().enumerate() {
            m |= (((c.unsigned_abs() & bit_mask) != 0) as u64) << j;
        }
        *slot = m;
    }
}

/// The lowest `k` set bits of `m` (`k` not exceeding the popcount).
#[inline]
fn keep_lowest(m: u64, k: usize) -> u64 {
    let mut rest = m;
    for _ in 0..k {
        rest &= rest - 1;
    }
    m & !rest
}

/// Bit position of the `k`-th (0-based) set bit of `m`.
#[inline]
fn nth_set_bit(m: u64, k: usize) -> u32 {
    let mut rest = m;
    for _ in 0..k {
        rest &= rest - 1;
    }
    rest.trailing_zeros()
}

/// Mask of the bit positions strictly above `j`.
#[inline(always)]
fn above_bit(j: u32) -> u64 {
    (!0u64).checked_shl(j + 1).unwrap_or(0)
}

/// The word state one significance pass works on: the live significance
/// mask (updated as coefficients become significant) and the context
/// masks frozen from the pass-start snapshot.
struct SignificanceWords<'a> {
    sig: &'a mut [u64],
    any: &'a [u64],
    two: &'a [u64],
    /// Valid-coefficient mask of the last word.
    last: u64,
}

impl SignificanceWords<'_> {
    /// Candidates of word `i`: its still-insignificant coefficients (the
    /// tail word masked to real coefficients).
    #[inline(always)]
    fn candidates(&self, i: usize) -> u64 {
        let valid = if i + 1 == self.sig.len() {
            self.last
        } else {
            !0
        };
        !self.sig[i] & valid
    }
}

/// One gathered EPC2 zero-run chunk: up to [`RUN_MAX`] consecutive
/// context-0 candidates of the significance pass, recorded as per-word bit
/// segments so hit testing and position lookup stay word operations.
struct RunScan {
    /// Entries in the chunk (1..=`RUN_MAX`).
    len: usize,
    /// Segments actually used.
    nseg: usize,
    /// Word index of each segment.
    seg_word: [u32; RUN_MAX],
    /// The chunk's candidate bits within that word.
    seg_bits: [u64; RUN_MAX],
    /// Word where the scan stopped (the word count when it ran off the
    /// end of the block).
    end_word: usize,
    /// Candidates of `end_word` remaining after the chunk (the stopper
    /// and everything above it, or bits past the `RUN_MAX` cap).
    end_cur: u64,
}

impl RunScan {
    fn new() -> Self {
        RunScan {
            len: 0,
            nseg: 0,
            seg_word: [0; RUN_MAX],
            seg_bits: [0; RUN_MAX],
            end_word: 0,
            end_cur: 0,
        }
    }
}

/// Scans the maximal context-0 chunk starting at the lowest set bit of
/// `cur` (a context-0 candidate in word `start`): candidates extend the
/// chunk until the first candidate with a non-zero context, the
/// [`RUN_MAX`] cap, or the end of the block — whole candidate-free words
/// cost one load, and an all-candidate context-0 word is one 64-entry
/// segment. Only state frozen at the start of the pass is read, so the
/// encoder and the decoder gather identical chunks.
///
/// `scan` is caller-owned and reused across calls (only the scalar fields
/// are reset; the segment arrays are write-before-read up to `nseg`) so
/// the hot path never re-zeroes the 64-entry segment buffers.
#[inline]
fn gather_run(scan: &mut RunScan, w: &SignificanceWords, start: usize, cur: u64) {
    let (any, wc) = (w.any, w.sig.len());
    scan.len = 0;
    scan.nseg = 0;
    scan.end_word = wc;
    scan.end_cur = 0;
    let (mut gi, mut gcur) = (start, cur);
    loop {
        let r0 = gcur & !any[gi];
        let stop = gcur & any[gi];
        let mut run_bits = if stop != 0 {
            r0 & ((1u64 << stop.trailing_zeros()) - 1)
        } else {
            r0
        };
        let avail = run_bits.count_ones() as usize;
        if scan.len + avail >= RUN_MAX {
            let need = RUN_MAX - scan.len;
            if need < avail {
                run_bits = keep_lowest(run_bits, need);
            }
            scan.seg_word[scan.nseg] = gi as u32;
            scan.seg_bits[scan.nseg] = run_bits;
            scan.nseg += 1;
            scan.len = RUN_MAX;
            scan.end_word = gi;
            scan.end_cur = gcur & !run_bits;
            return;
        }
        if run_bits != 0 {
            scan.seg_word[scan.nseg] = gi as u32;
            scan.seg_bits[scan.nseg] = run_bits;
            scan.nseg += 1;
            scan.len += avail;
        }
        if stop != 0 {
            scan.end_word = gi;
            scan.end_cur = gcur & !run_bits;
            return;
        }
        gi += 1;
        if gi >= wc {
            return;
        }
        gcur = w.candidates(gi);
    }
}

/// Ordinal position, word, and bit of the first chunk entry whose plane
/// bit is set, if any (encoder side: one word AND per segment).
#[inline]
fn first_run_hit(scan: &RunScan, bits: &[u64]) -> Option<(usize, usize, u32)> {
    let mut before = 0usize;
    for s in 0..scan.nseg {
        let seg = scan.seg_bits[s];
        let h = seg & bits[scan.seg_word[s] as usize];
        if h != 0 {
            let j = h.trailing_zeros();
            let below = (seg & ((1u64 << j) - 1)).count_ones() as usize;
            return Some((before + below, scan.seg_word[s] as usize, j));
        }
        before += seg.count_ones() as usize;
    }
    None
}

/// Word and bit of the `p`-th (0-based) chunk entry (decoder side, after
/// reading a hit position).
#[inline]
fn run_entry_at(scan: &RunScan, p: usize) -> (usize, u32) {
    let (mut s, mut acc) = (0usize, 0usize);
    loop {
        let cnt = scan.seg_bits[s].count_ones() as usize;
        if acc + cnt > p {
            return (
                scan.seg_word[s] as usize,
                nth_set_bit(scan.seg_bits[s], p - acc),
            );
        }
        acc += cnt;
        s += 1;
    }
}

/// EPC2 significance pass (encoder): the cursor walks candidate words; a
/// candidate with a significant neighbour costs one decision in its
/// context (as in EPC1's dense pass), and a
/// context-0 candidate opens a [`gather_run`] chunk whose hit test is one
/// `u64` AND per segment. Returns whether any coefficient became
/// significant.
#[inline(always)]
fn encode_run_pass(
    coefficients: &[i32],
    bits: &[u64],
    w: &mut SignificanceWords,
    scan: &mut RunScan,
    enc: &mut RangeEncoder,
    ctx: &mut Contexts,
) -> bool {
    let wc = w.sig.len();
    let mut became = false;
    let mut i = 0usize;
    let mut cur = if wc > 0 { w.candidates(0) } else { 0 };
    'pass: loop {
        while cur == 0 {
            i += 1;
            if i >= wc {
                break 'pass;
            }
            cur = w.candidates(i);
        }
        let j = cur.trailing_zeros();
        if (w.any[i] >> j) & 1 != 0 {
            let c = 1 + ((w.two[i] >> j) & 1) as usize;
            let becomes = (bits[i] >> j) & 1 != 0;
            enc.encode_biased(&mut ctx.significance[c], becomes);
            if becomes {
                enc.encode_raw(coefficients[i * 64 + j as usize] < 0);
                w.sig[i] |= 1u64 << j;
            }
            cur &= cur - 1;
            continue;
        }
        gather_run(scan, w, i, cur);
        let hit = first_run_hit(scan, bits);
        enc.encode_biased(&mut ctx.run, hit.is_none());
        match hit {
            None => {
                i = scan.end_word;
                cur = scan.end_cur;
            }
            Some((p, hw, hj)) => {
                for b in (0..run_position_bits(scan.len)).rev() {
                    enc.encode_raw((p >> b) & 1 == 1);
                }
                enc.encode_raw(coefficients[hw * 64 + hj as usize] < 0);
                w.sig[hw] |= 1u64 << hj;
                became = true;
                // Resume just above the hit: the run entries below it in
                // this word stayed insignificant and are behind the
                // cursor, so they must not re-enter the candidate set.
                i = hw;
                cur = w.candidates(hw) & above_bit(hj);
            }
        }
    }
    became
}

/// Decodes a `format` payload (optionally truncated): EPC2 as produced by
/// [`encode_planes_into`], EPC1 as produced by the vendored
/// [`reference`](crate::reference) encoder. Allocating wrapper over
/// [`decode_planes_with`].
///
/// Only passes entirely contained in `payload` (per `pass_offsets`) are
/// decoded; missing low-order planes reconstruct as zero bits, with a +½
/// mid-tread bias on the lowest decoded plane applied by the dequantizer.
///
/// # Panics
///
/// As [`decode_planes_with`].
pub fn decode_planes(
    payload: &[u8],
    count: usize,
    width: usize,
    planes: u8,
    pass_offsets: &[u32],
    format: FormatVersion,
) -> Vec<i32> {
    let mut scratch = DecodeScratch::new();
    decode_planes_with(
        payload,
        count,
        width,
        planes,
        pass_offsets,
        format,
        &mut scratch,
    );
    std::mem::take(&mut scratch.quantized)
}

/// Scratch-arena decoder: identical output to [`decode_planes`], with
/// every intermediate buffer (significance/sign word masks, context masks,
/// the magnitude plane) living in `scratch`; the decoded coefficients land
/// in `scratch.quantized`. A `planes` value beyond [`MAX_PLANES`] (only
/// corrupt headers produce one; the image-level decoder rejects them
/// first) is clamped rather than shifted out of range.
///
/// # Panics
///
/// Panics if `width` is zero, does not divide `count`, or `count` exceeds
/// `u32::MAX` (indices are range-checked against the `u32` domain the
/// format was designed for).
pub fn decode_planes_with(
    payload: &[u8],
    count: usize,
    width: usize,
    planes: u8,
    pass_offsets: &[u32],
    format: FormatVersion,
    scratch: &mut DecodeScratch,
) {
    decode_planes_core(payload, count, width, planes, pass_offsets, format, scratch);
    let DecodeScratch {
        mag,
        neg_words,
        quantized,
        ..
    } = scratch;
    // Signed coefficients from the magnitude plane and the sign masks.
    quantized.clear();
    quantized.extend(mag[..count].iter().enumerate().map(|(i, &m)| {
        let m = m as i32;
        if (neg_words[i / 64] >> (i % 64)) & 1 != 0 {
            -m
        } else {
            m
        }
    }));
}

/// [`decode_planes_with`] without the signed-coefficient emission: leaves
/// the decoded magnitudes in `scratch.mag` and the sign bits in
/// `scratch.neg_words`, and returns the number of coding passes decoded.
/// The image-level decoder dequantizes straight from that representation,
/// skipping a full write+read pass over an intermediate `i32` plane.
///
/// The decoder's plane loop mirrors the encoder's: the same snapshot and
/// frozen contexts (EPC2 chunk boundaries are regathered from the
/// decoder's own pass-start state), so the context sequence matches
/// decision for decision, and it stops at the first pass not fully
/// contained in `payload`.
pub(crate) fn decode_planes_core(
    payload: &[u8],
    count: usize,
    width: usize,
    planes: u8,
    pass_offsets: &[u32],
    format: FormatVersion,
    scratch: &mut DecodeScratch,
) -> usize {
    assert!(width > 0, "width must be positive");
    assert_eq!(count % width, 0, "count must be a multiple of width");
    assert!(count <= u32::MAX as usize, "count exceeds the index domain");
    let planes = planes.min(MAX_PLANES);
    let available: usize = pass_offsets
        .iter()
        .take_while(|&&o| o as usize <= payload.len())
        .count();
    let mut dec = RangeDecoder::new(payload);
    let mut ctx = Contexts::new();
    let DecodeScratch {
        mag,
        sig_words,
        snap_words,
        any_words,
        two_words,
        neg_words,
        rowstart_words,
        rowend_words,
        ..
    } = &mut *scratch;
    mag.clear();
    mag.resize(count, 0);
    let wc = word_count(count);
    let last = last_word_mask(count);
    zero_words(sig_words, wc);
    zero_words(any_words, wc);
    zero_words(two_words, wc);
    zero_words(neg_words, wc);
    prepare(snap_words, wc);
    build_row_masks(count, width, rowstart_words, rowend_words);
    let sig = &mut sig_words[..wc];
    let snap = &mut snap_words[..wc];
    let any = &mut any_words[..wc];
    let two = &mut two_words[..wc];
    let neg = &mut neg_words[..wc];
    let rowstart = &rowstart_words[..wc];
    let rowend = &rowend_words[..wc];
    let mag = &mut mag[..count];
    let mut scan = RunScan::new();
    let mut have_sig = false;
    let mut pass_idx = 0usize;
    for plane in (0..planes).rev() {
        if pass_idx >= available {
            break;
        }
        let bit = 1u32 << plane;
        snap.copy_from_slice(sig);
        if have_sig {
            derive_context_masks(snap, width, rowstart, rowend, any, two);
        }
        let mut w = SignificanceWords {
            sig: &mut *sig,
            any: &*any,
            two: &*two,
            last,
        };
        have_sig |= match format {
            FormatVersion::Epc1 => decode_dense_pass(&mut w, neg, mag, bit, &mut dec, &mut ctx),
            FormatVersion::Epc2 => {
                decode_run_pass(&mut w, neg, mag, bit, &mut scan, &mut dec, &mut ctx)
            }
        };
        pass_idx += 1;
        if pass_idx >= available {
            break;
        }
        for i in 0..wc {
            let mut s = snap[i];
            while s != 0 {
                let j = s.trailing_zeros();
                // Unconditional store: the refinement bit is ~50/50 noise,
                // so a conditional write would mispredict constantly.
                mag[i * 64 + j as usize] |= (dec.decode(&mut ctx.refinement) as u32) << plane;
                s &= s - 1;
            }
        }
        pass_idx += 1;
    }
    pass_idx
}

/// EPC1 significance pass (decoder): one decision per not-yet-significant
/// coefficient in raster order, mirroring the reference encoder's dense
/// pass. Arrivals and signs are gathered per word and merged after it. Returns
/// whether any coefficient became significant.
#[inline(always)]
fn decode_dense_pass(
    w: &mut SignificanceWords,
    neg: &mut [u64],
    mag: &mut [u32],
    bit: u32,
    dec: &mut RangeDecoder,
    ctx: &mut Contexts,
) -> bool {
    let wc = w.sig.len();
    let mut became = false;
    for i in 0..wc {
        let mut b = w.candidates(i);
        if b == 0 {
            continue;
        }
        let (a, t) = (w.any[i], w.two[i]);
        let mut set = 0u64;
        let mut negs = 0u64;
        while b != 0 {
            let j = b.trailing_zeros();
            let c = (((a >> j) & 1) + ((t >> j) & 1)) as usize;
            if dec.decode_biased(&mut ctx.significance[c]) {
                negs |= (dec.decode_raw() as u64) << j;
                mag[i * 64 + j as usize] |= bit;
                set |= 1u64 << j;
            }
            b &= b - 1;
        }
        if set != 0 {
            w.sig[i] |= set;
            neg[i] |= negs;
            became = true;
        }
    }
    became
}

/// EPC2 significance pass (decoder): the mirror of [`encode_run_pass`].
/// Returns whether any coefficient became significant.
#[inline(always)]
fn decode_run_pass(
    w: &mut SignificanceWords,
    neg: &mut [u64],
    mag: &mut [u32],
    bit: u32,
    scan: &mut RunScan,
    dec: &mut RangeDecoder,
    ctx: &mut Contexts,
) -> bool {
    let wc = w.sig.len();
    let mut became = false;
    let mut i = 0usize;
    let mut cur = if wc > 0 { w.candidates(0) } else { 0 };
    'pass: loop {
        while cur == 0 {
            i += 1;
            if i >= wc {
                break 'pass;
            }
            cur = w.candidates(i);
        }
        let j = cur.trailing_zeros();
        if (w.any[i] >> j) & 1 != 0 {
            let c = 1 + ((w.two[i] >> j) & 1) as usize;
            if dec.decode_biased(&mut ctx.significance[c]) {
                neg[i] |= (dec.decode_raw() as u64) << j;
                mag[i * 64 + j as usize] |= bit;
                w.sig[i] |= 1u64 << j;
            }
            cur &= cur - 1;
            continue;
        }
        gather_run(scan, w, i, cur);
        if dec.decode_biased(&mut ctx.run) {
            i = scan.end_word;
            cur = scan.end_cur;
        } else {
            let mut p = 0usize;
            for _ in 0..run_position_bits(scan.len) {
                p = (p << 1) | dec.decode_raw() as usize;
            }
            // A valid stream always addresses inside the chunk; clamp so
            // corrupt input cannot index out of bounds.
            let p = p.min(scan.len - 1);
            let (hw, hj) = run_entry_at(scan, p);
            neg[hw] |= (dec.decode_raw() as u64) << hj;
            mag[hw * 64 + hj as usize] |= bit;
            w.sig[hw] |= 1u64 << hj;
            became = true;
            i = hw;
            cur = w.candidates(hw) & above_bit(hj);
        }
    }
    became
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::hash_unit;

    const FORMATS: [FormatVersion; 2] = [FormatVersion::Epc1, FormatVersion::Epc2];

    fn sample_coefficients(n: usize, seed: u64) -> Vec<i32> {
        // Laplacian-ish: mostly small, occasionally large, like wavelet
        // detail coefficients.
        (0..n)
            .map(|i| {
                let u = hash_unit(i as u64, seed);
                let mag = if u < 0.7 {
                    0
                } else if u < 0.9 {
                    (u * 10.0) as i32
                } else {
                    (u * 4000.0) as i32
                };
                if hash_unit(i as u64, seed ^ 1) < 0.5 {
                    -mag
                } else {
                    mag
                }
            })
            .collect()
    }

    /// EPC2 from the library encoder, EPC1 from the vendored reference
    /// (the one EPC1 encoder).
    fn try_encode(
        coeffs: &[i32],
        width: usize,
        format: FormatVersion,
    ) -> Result<EncodedPlanes, CodecError> {
        match format {
            FormatVersion::Epc1 => crate::reference::encode_planes_reference(coeffs, width),
            FormatVersion::Epc2 => encode_planes(coeffs, width),
        }
    }

    fn encode(coeffs: &[i32], width: usize, format: FormatVersion) -> EncodedPlanes {
        try_encode(coeffs, width, format).unwrap()
    }

    /// Decodes the first `cut` payload bytes of `enc`.
    fn decode_prefix(
        enc: &EncodedPlanes,
        cut: usize,
        count: usize,
        width: usize,
        format: FormatVersion,
    ) -> Vec<i32> {
        let cut = cut.min(enc.payload.len());
        decode_planes(
            &enc.payload[..cut],
            count,
            width,
            enc.planes,
            &enc.pass_offsets,
            format,
        )
    }

    fn check_lossless_roundtrip(format: FormatVersion) {
        for seed in [42u64, 7, 1234] {
            let coeffs = sample_coefficients(64 * 64, seed);
            let enc = encode(&coeffs, 64, format);
            let dec = decode_prefix(&enc, usize::MAX, coeffs.len(), 64, format);
            assert_eq!(dec, coeffs, "{format:?} seed {seed}");
        }
    }

    #[test]
    fn lossless_roundtrip() {
        check_lossless_roundtrip(FormatVersion::Epc1);
    }

    #[test]
    fn v2_lossless_roundtrip() {
        check_lossless_roundtrip(FormatVersion::Epc2);
    }

    #[test]
    fn all_zero_block_is_tiny() {
        for format in FORMATS {
            let coeffs = vec![0i32; 4096];
            let enc = encode(&coeffs, 64, format);
            assert_eq!(enc.planes, 0);
            assert!(enc.payload.len() <= 8, "payload {}", enc.payload.len());
            let dec = decode_prefix(&enc, usize::MAX, 4096, 64, format);
            assert_eq!(dec, coeffs, "{format:?}");
        }
    }

    #[test]
    fn single_large_coefficient() {
        for format in FORMATS {
            let mut coeffs = vec![0i32; 256];
            coeffs[100] = -123_456;
            let enc = encode(&coeffs, 16, format);
            let dec = decode_prefix(&enc, usize::MAX, 256, 16, format);
            assert_eq!(dec, coeffs, "{format:?}");
        }
    }

    #[test]
    fn plane_overflow_is_an_error() {
        // 2^28 needs 29 planes: one more than the format can carry.
        let mut coeffs = vec![0i32; 64];
        coeffs[3] = (1 << MAX_PLANES) - 1;
        for format in FORMATS {
            assert_eq!(encode(&coeffs, 8, format).planes, MAX_PLANES);
        }
        coeffs[3] = 1 << MAX_PLANES;
        for format in FORMATS {
            assert_eq!(
                try_encode(&coeffs, 8, format),
                Err(CodecError::TooManyPlanes {
                    planes: MAX_PLANES + 1
                })
            );
        }
        coeffs[3] = i32::MIN;
        for format in FORMATS {
            assert_eq!(
                try_encode(&coeffs, 8, format),
                Err(CodecError::TooManyPlanes { planes: 32 })
            );
        }
    }

    #[test]
    fn v2_scratch_reuse_is_byte_identical() {
        // A dirty arena (last used on another shape) still matches a fresh
        // encode.
        let mut scratch = CodecScratch::new();
        encode_planes_into(&sample_coefficients(40 * 25, 3), 40, &mut scratch).unwrap();
        let coeffs = sample_coefficients(64 * 64, 9);
        let fresh = encode(&coeffs, 64, FormatVersion::Epc2);
        let planes = encode_planes_into(&coeffs, 64, &mut scratch).unwrap();
        assert_eq!(planes, fresh.planes);
        assert_eq!(scratch.payload, fresh.payload);
        assert_eq!(scratch.pass_offsets, fresh.pass_offsets);
        // Blocks of different sizes, shapes and sparsity through the same
        // arena: every output matches a fresh encode, and repeating the
        // largest block grows nothing.
        for (i, &(n, w)) in [(64 * 64, 64usize), (16 * 16, 16), (40 * 25, 40), (8, 4)]
            .iter()
            .enumerate()
        {
            let coeffs = sample_coefficients(n, i as u64 * 31 + 7);
            let fresh = encode(&coeffs, w, FormatVersion::Epc2);
            let planes = encode_planes_into(&coeffs, w, &mut scratch).unwrap();
            assert_eq!(planes, fresh.planes);
            assert_eq!(scratch.payload, fresh.payload, "block {i}");
            assert_eq!(scratch.pass_offsets, fresh.pass_offsets, "block {i}");
        }
        let coeffs = sample_coefficients(64 * 64, 7);
        encode_planes_into(&coeffs, 64, &mut scratch).unwrap();
        scratch.track_growth();
        let grown = scratch.grow_events();
        encode_planes_into(&coeffs, 64, &mut scratch).unwrap();
        scratch.track_growth();
        assert_eq!(scratch.grow_events(), grown, "steady-state reuse grew");
    }

    fn check_offsets(format: FormatVersion) {
        let coeffs = sample_coefficients(32 * 32, 7);
        let enc = encode(&coeffs, 32, format);
        assert_eq!(
            enc.pass_offsets.len(),
            enc.planes as usize * 2,
            "{format:?}"
        );
        assert!(
            enc.pass_offsets.windows(2).all(|w| w[0] <= w[1]),
            "{format:?}"
        );
        // The payload is padded to exactly the last offset (EPC2 chunk
        // lengths are read from it).
        assert_eq!(
            *enc.pass_offsets.last().unwrap() as usize,
            enc.payload.len(),
            "{format:?}"
        );
    }

    #[test]
    fn offsets_are_monotone() {
        check_offsets(FormatVersion::Epc1);
    }

    #[test]
    fn v2_offsets_are_monotone_and_cover_payload() {
        check_offsets(FormatVersion::Epc2);
    }

    #[test]
    fn truncation_monotonically_improves() {
        for format in FORMATS {
            let coeffs = sample_coefficients(64 * 64, 9);
            let enc = encode(&coeffs, 64, format);
            let error = |budget: usize| -> f64 {
                let dec =
                    decode_prefix(&enc, enc.truncation_point(budget), coeffs.len(), 64, format);
                coeffs
                    .iter()
                    .zip(&dec)
                    .map(|(&a, &b)| ((a - b) as f64).powi(2))
                    .sum::<f64>()
            };
            let full = enc.payload.len();
            let e_full = error(full + 16);
            let e_half = error(full / 2);
            let e_tenth = error(full / 10);
            assert_eq!(e_full, 0.0, "{format:?}: full budget must be lossless");
            assert!(
                e_half <= e_tenth,
                "{format:?}: half {e_half} tenth {e_tenth}"
            );
            assert!(
                e_tenth > 0.0,
                "{format:?}: savage truncation must lose something"
            );
        }
    }

    #[test]
    fn truncated_decode_never_over_reports_magnitude_plane() {
        // With only the first significance pass, every decoded value is
        // either 0 or has only the top plane bit set.
        for format in FORMATS {
            let coeffs = sample_coefficients(32 * 32, 11);
            let enc = encode(&coeffs, 32, format);
            let cut = enc.pass_offsets[0] as usize;
            let dec = decode_prefix(&enc, cut, coeffs.len(), 32, format);
            let top = 1i32 << (enc.planes - 1);
            for &v in &dec {
                assert!(v == 0 || v.abs() == top, "{format:?}: unexpected value {v}");
            }
        }
    }

    #[test]
    fn passes_within_counts_correctly() {
        let coeffs = sample_coefficients(16 * 16, 3);
        let enc = encode(&coeffs, 16, FormatVersion::Epc1);
        assert_eq!(enc.passes_within(0), 0);
        assert_eq!(enc.passes_within(usize::MAX), enc.pass_offsets.len());
    }

    fn sparse_block() -> Vec<i32> {
        // 95% zeros, small values elsewhere.
        (0..4096)
            .map(|i| {
                if hash_unit(i as u64, 5) < 0.05 {
                    ((hash_unit(i as u64, 6) * 63.0) as i32) + 1
                } else {
                    0
                }
            })
            .collect()
    }

    #[test]
    fn compresses_sparse_blocks_well() {
        // Far below 16 bits/coefficient.
        let enc = encode(&sparse_block(), 64, FormatVersion::Epc1);
        let bits_per_coeff = enc.payload.len() as f64 * 8.0 / 4096.0;
        assert!(bits_per_coeff < 1.5, "bits/coeff {bits_per_coeff}");
    }

    #[test]
    fn width_must_divide_count() {
        for format in FORMATS {
            let r = std::panic::catch_unwind(|| try_encode(&[1, 2, 3], 2, format));
            assert!(r.is_err(), "{format:?}");
        }
    }

    #[test]
    fn negative_values_roundtrip() {
        for format in FORMATS {
            let coeffs: Vec<i32> = (-50..50).collect();
            let enc = encode(&coeffs, 10, format);
            let dec = decode_prefix(&enc, usize::MAX, 100, 10, format);
            assert_eq!(dec, coeffs, "{format:?}");
        }
    }

    #[test]
    fn v2_roundtrips_edge_blocks() {
        // All zero, single large, dense negatives, single coefficient.
        let blocks: Vec<(Vec<i32>, usize)> = vec![
            (vec![0i32; 4096], 64),
            (
                {
                    let mut v = vec![0i32; 256];
                    v[100] = -123_456;
                    v
                },
                16,
            ),
            ((-50..50).collect(), 10),
            (vec![7i32], 1),
        ];
        for (coeffs, w) in blocks {
            let enc = encode(&coeffs, w, FormatVersion::Epc2);
            let dec = decode_prefix(&enc, usize::MAX, coeffs.len(), w, FormatVersion::Epc2);
            assert_eq!(dec, coeffs, "width {w}");
        }
    }

    #[test]
    fn v2_beats_v1_on_sparse_blocks() {
        // The zero-run mode exists for sparse significance data: it must
        // both shrink the stream and (the real goal) slash decision counts.
        let coeffs = sparse_block();
        let v1 = encode(&coeffs, 64, FormatVersion::Epc1);
        let v2 = encode(&coeffs, 64, FormatVersion::Epc2);
        assert!(
            v2.payload.len() <= v1.payload.len(),
            "v2 {} > v1 {}",
            v2.payload.len(),
            v1.payload.len()
        );
    }

    #[test]
    fn v2_truncated_prefix_decodes_consistently() {
        // Every recorded pass boundary must yield a stream whose decode
        // agrees with the full decode on all passes before the cut.
        let format = FormatVersion::Epc2;
        let coeffs = sample_coefficients(32 * 32, 11);
        let enc = encode(&coeffs, 32, format);
        let planes = enc.planes;
        let full = decode_prefix(&enc, usize::MAX, coeffs.len(), 32, format);
        assert_eq!(full, coeffs);
        for (pass, &cut) in enc.pass_offsets.iter().enumerate() {
            let dec = decode_prefix(&enc, cut as usize, coeffs.len(), 32, format);
            // Decoded magnitudes can only refine toward the truth: bits in
            // every fully decoded plane pair (significance + refinement)
            // match, nothing above the truth is ever invented, and signs of
            // significant coefficients are exact.
            let full_pairs = pass.div_ceil(2);
            let lowest_exact = planes as usize - full_pairs.min(planes as usize);
            for (i, (&d, &c)) in dec.iter().zip(&coeffs).enumerate() {
                assert_eq!(
                    d.unsigned_abs() >> lowest_exact,
                    c.unsigned_abs() >> lowest_exact,
                    "pass {pass} index {i}"
                );
                assert!(
                    d.unsigned_abs() <= c.unsigned_abs(),
                    "pass {pass} index {i}"
                );
                if d != 0 {
                    assert_eq!(d.signum(), c.signum(), "pass {pass} index {i}");
                }
            }
        }
    }

    #[test]
    fn scratch_decoders_match_allocating_decoders_at_every_cut() {
        // One dirty arena across blocks of different shapes and both
        // formats, at every recorded truncation point: the scratch
        // decoder must reproduce the allocating decoder bit for bit.
        let mut scratch = DecodeScratch::new();
        for (i, &(n, w)) in [(64 * 64, 64usize), (16 * 16, 16), (40 * 25, 40), (8, 4)]
            .iter()
            .enumerate()
        {
            let coeffs = sample_coefficients(n, i as u64 * 17 + 3);
            for format in FORMATS {
                let enc = encode(&coeffs, w, format);
                let mut cuts: Vec<usize> = vec![0, enc.payload.len()];
                cuts.extend(enc.pass_offsets.iter().map(|&o| o as usize));
                for cut in cuts {
                    let cut = cut.min(enc.payload.len());
                    let expect = decode_prefix(&enc, cut, n, w, format);
                    decode_planes_with(
                        &enc.payload[..cut],
                        n,
                        w,
                        enc.planes,
                        &enc.pass_offsets,
                        format,
                        &mut scratch,
                    );
                    assert_eq!(scratch.quantized, expect, "{format:?} block {i} cut {cut}");
                }
            }
        }
    }

    #[test]
    fn scratch_decoders_settle_allocation() {
        let coeffs = sample_coefficients(64 * 64, 5);
        let format = FormatVersion::Epc2;
        let enc = encode(&coeffs, 64, format);
        let mut scratch = DecodeScratch::new();
        let decode = |scratch: &mut DecodeScratch| {
            decode_planes_with(
                &enc.payload,
                coeffs.len(),
                64,
                enc.planes,
                &enc.pass_offsets,
                format,
                scratch,
            );
            scratch.track_growth();
        };
        decode(&mut scratch);
        let grown = scratch.grow_events();
        for _ in 0..3 {
            decode(&mut scratch);
        }
        assert_eq!(scratch.grow_events(), grown, "steady-state decode grew");
    }

    #[test]
    fn run_position_bits_bounds() {
        assert_eq!(run_position_bits(1), 0);
        assert_eq!(run_position_bits(2), 1);
        assert_eq!(run_position_bits(3), 2);
        assert_eq!(run_position_bits(64), 6);
    }
}
