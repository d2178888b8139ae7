//! Adaptive binary range coder.
//!
//! A carry-aware byte-oriented range coder (the arithmetic-coding core of
//! JPEG-2000-class codecs) over adaptive binary contexts, following the
//! well-tested LZMA construction (64-bit `low` with a byte cache that
//! absorbs carry propagation).
//!
//! The emitted stream is *embedded*: a decoder fed a truncated prefix reads
//! virtual zero bytes past the end and keeps producing symbols, so an
//! encoder can record truncation points (quality layers) and the decoder
//! can stop at any of them — the property Earth+ relies on to trade
//! downlink bandwidth against quality during bandwidth fluctuation (§5).

/// Number of probability bits in a context state.
const PROB_BITS: u32 = 12;
/// Initial probability: one half.
const PROB_ONE_HALF: u32 = (1 << PROB_BITS) / 2;
/// Adaptation rate shift: smaller adapts faster.
const ADAPT_SHIFT: u32 = 5;
/// Renormalization threshold.
const TOP: u32 = 1 << 24;

/// An adaptive probability model for one binary decision context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitModel {
    /// Probability that the next bit is 0, in `[32, 2^12 - 32]`. Kept in
    /// a full register-width word: 16-bit arithmetic costs extra
    /// zero-extensions on the adaptation chain.
    p0: u32,
}

impl BitModel {
    /// Creates a model with P(0) = 1/2.
    pub fn new() -> Self {
        BitModel { p0: PROB_ONE_HALF }
    }

    #[inline(always)]
    fn update(&mut self, bit: bool) {
        // Mask-select (branchless) update: refinement and sign bits are
        // near-random, so a data-dependent branch here mispredicts half
        // the time, and an if/else is not reliably lowered to cmov at
        // every inlined call site.
        let m = (bit as u32).wrapping_neg();
        let toward_one = self.p0 - (self.p0 >> ADAPT_SHIFT);
        let toward_zero = self.p0 + (((1 << PROB_BITS) - self.p0) >> ADAPT_SHIFT);
        let p0 = (toward_one & m) | (toward_zero & !m);
        // Keep probabilities away from 0/1 so the range never collapses.
        self.p0 = p0.clamp(32, (1 << PROB_BITS) - 32);
    }
}

impl Default for BitModel {
    fn default() -> Self {
        Self::new()
    }
}

/// Range encoder writing to an internal byte buffer.
#[derive(Debug)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    output: Vec<u8>,
}

impl RangeEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::with_buffer(Vec::new())
    }

    /// Creates an encoder that writes into `buf` (cleared first, capacity
    /// kept) — the allocation-reuse seam for per-tile encoding: take the
    /// buffer back from [`RangeEncoder::finish`] and pass it to the next
    /// encoder.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            output: buf,
        }
    }

    /// Encodes one bit under an adaptive context.
    #[inline(always)]
    pub fn encode(&mut self, model: &mut BitModel, bit: bool) {
        let bound = (self.range >> PROB_BITS) * model.p0;
        // Mask arithmetic rather than if/else: the bit value is data (not
        // control) and often near-random, and an if/else select is not
        // reliably lowered to cmov at every inlined call site.
        let m = (bit as u32).wrapping_neg();
        self.low += (bound & m) as u64;
        self.range = ((self.range - bound) & m) | (bound & !m);
        model.update(bit);
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    /// Encodes one bit under an adaptive context whose bit stream is
    /// heavily biased (significance and zero-run decisions, which are
    /// mostly 0). Arithmetic is identical to [`RangeEncoder::encode`] —
    /// same wire format, interchangeable per decision — but the update is
    /// an if/else: on predictable data the branch predictor speculates
    /// straight through the serial range dependency chain. Use `encode`
    /// for near-random bits (refinement, signs), where this branch would
    /// mispredict half the time.
    #[inline(always)]
    pub fn encode_biased(&mut self, model: &mut BitModel, bit: bool) {
        let bound = (self.range >> PROB_BITS) * model.p0;
        if bit {
            self.low += bound as u64;
            self.range -= bound;
        } else {
            self.range = bound;
        }
        model.update(bit);
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    /// Encodes one bit with fixed probability 1/2 and no adaptation (used
    /// for signs, which are nearly incompressible).
    #[inline(always)]
    pub fn encode_raw(&mut self, bit: bool) {
        let bound = self.range >> 1;
        let m = (bit as u32).wrapping_neg();
        self.low += (bound & m) as u64;
        self.range = ((self.range - bound) & m) | (bound & !m);
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        let carry = (self.low >> 32) as u8;
        if self.low < 0xFF00_0000 || carry == 1 {
            self.output.push(self.cache.wrapping_add(carry));
            for _ in 1..self.cache_size {
                self.output.push(0xFFu8.wrapping_add(carry));
            }
            self.cache = (self.low >> 24) as u8;
            self.cache_size = 0;
        }
        self.cache_size += 1;
        // Keep only the lower 24 bits, shifted up: the byte at bits 24..32
        // has moved into the cache (or is a deferred 0xFF), and any carry
        // bit has been resolved above.
        self.low = ((self.low as u32) << 8) as u64;
    }

    /// Upper bound on the stream length if it were flushed now — used to
    /// record quality-layer truncation points during encoding.
    pub fn len(&self) -> usize {
        self.output.len() + self.cache_size as usize
    }

    /// Bytes already final: no later decision, carry included, can change
    /// them, so they are a prefix of the [`RangeEncoder::finish`] stream.
    /// Unlike [`RangeEncoder::len`] this leaves out the carry cache.
    #[inline]
    pub(crate) fn committed(&self) -> usize {
        self.output.len()
    }

    /// Whether nothing has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.output.is_empty() && self.cache_size == 1
    }

    /// Flushes the final state and returns the stream.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.output
    }
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Range decoder reading from a byte slice; reads past the end yield zero
/// bytes (supporting truncated embedded streams).
#[derive(Debug)]
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    input: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Creates a decoder over `input` (which may be a truncated prefix of
    /// an encoded stream).
    pub fn new(input: &'a [u8]) -> Self {
        let mut d = RangeDecoder {
            code: 0,
            range: u32::MAX,
            input,
            pos: 0,
        };
        // The first emitted byte is the encoder's initial zero cache; five
        // reads leave the last four bytes in `code`.
        for _ in 0..5 {
            d.code = (d.code << 8) | d.next_byte() as u32;
        }
        d
    }

    #[inline(always)]
    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Decodes one bit under an adaptive context (must mirror the encoder's
    /// context sequence exactly).
    #[inline]
    pub fn decode(&mut self, model: &mut BitModel) -> bool {
        let bound = (self.range >> PROB_BITS) * model.p0;
        let bit = self.code >= bound;
        // Branchless arithmetic rather than if/else: the decoded bit is
        // data, and at full rate it is near-random (refinement, signs), so
        // a branch here mispredicts ~50% of the time, and an if/else is
        // not reliably compiled to cmov at every inlined call site. The
        // unsigned-min form selects without materializing a mask: when
        // `code < bound` the subtraction wraps above `code`, so `min`
        // keeps the original — one compare+cmov on the critical chain
        // instead of setcc/neg/and.
        self.code = self.code.min(self.code.wrapping_sub(bound));
        let m = (bit as u32).wrapping_neg();
        self.range = ((self.range - bound) & m) | (bound & !m);
        model.update(bit);
        self.normalize();
        bit
    }

    /// Branchless single-step renormalization. One byte always suffices:
    /// `p0` is clamped to `[32, 2^12 - 32]`, so a decision shrinks `range`
    /// by at most a factor of 128 — from `>= 2^24` to `>= 2^17`, within one
    /// byte shift of the threshold. Whether a byte is needed is as random
    /// as the compressed payload (~1 byte per 8 bits of entropy), so a
    /// branch here mispredicts constantly; mask arithmetic keeps the
    /// pipeline full.
    #[inline(always)]
    fn normalize(&mut self) {
        debug_assert!(self.range >= TOP >> 8);
        let need = (self.range < TOP) as u32;
        let m = need.wrapping_neg();
        let b = self.input.get(self.pos).copied().unwrap_or(0) as u32;
        let sh = need * 8;
        self.code = (self.code << sh) | (b & m);
        self.range <<= sh;
        self.pos += need as usize;
    }

    /// Decodes one bit under an adaptive context whose bit stream is
    /// heavily biased (significance and zero-run decisions, which are
    /// mostly 0). Arithmetic is identical to [`RangeDecoder::decode`] —
    /// same wire format, interchangeable per decision — but the update is
    /// an if/else: on predictable data the branch predictor speculates
    /// straight through the serial range/code dependency chain, which the
    /// branchless form cannot do. Use `decode` for near-random bits
    /// (refinement), where this branch would mispredict half the time.
    #[inline]
    pub fn decode_biased(&mut self, model: &mut BitModel) -> bool {
        let bound = (self.range >> PROB_BITS) * model.p0;
        let bit = self.code >= bound;
        if bit {
            self.code -= bound;
            self.range -= bound;
        } else {
            self.range = bound;
        }
        model.update(bit);
        self.normalize();
        bit
    }

    /// Decodes one fixed-probability bit (mirror of
    /// [`RangeEncoder::encode_raw`]).
    #[inline]
    pub fn decode_raw(&mut self) -> bool {
        let bound = self.range >> 1;
        let bit = self.code >= bound;
        // Same forced-branchless form as `decode`: raw bits are signs and
        // run positions, the least predictable data in the stream.
        self.code = self.code.min(self.code.wrapping_sub(bound));
        let m = (bit as u32).wrapping_neg();
        self.range = ((self.range - bound) & m) | (bound & !m);
        self.normalize();
        bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{hash_bit, hash_unit};

    fn roundtrip(bits: &[bool], contexts: usize) -> Vec<bool> {
        let mut enc = RangeEncoder::new();
        let mut models = vec![BitModel::new(); contexts.max(1)];
        for (i, &b) in bits.iter().enumerate() {
            let ctx = i % models.len();
            enc.encode(&mut models[ctx], b);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        let mut models = vec![BitModel::new(); contexts.max(1)];
        (0..bits.len())
            .map(|i| dec.decode(&mut models[i % contexts.max(1)]))
            .collect()
    }

    #[test]
    fn roundtrip_random_bits() {
        let bits: Vec<bool> = (0..5000u64).map(|i| hash_bit(i, 0xDEAD)).collect();
        assert_eq!(roundtrip(&bits, 1), bits);
        assert_eq!(roundtrip(&bits, 7), bits);
    }

    #[test]
    fn roundtrip_all_zero_and_all_one() {
        let zeros = vec![false; 4096];
        let ones = vec![true; 4096];
        assert_eq!(roundtrip(&zeros, 1), zeros);
        assert_eq!(roundtrip(&ones, 1), ones);
    }

    #[test]
    fn roundtrip_carry_heavy_patterns() {
        // Long runs of ones drive `low` toward the carry path.
        let mut bits = vec![true; 2000];
        bits.extend((0..2000u64).map(|i| hash_bit(i, 3)));
        bits.extend(vec![false; 2000]);
        assert_eq!(roundtrip(&bits, 3), bits);
    }

    #[test]
    fn skewed_input_compresses() {
        // 97% zeros should compress far below 1 bit/symbol.
        let bits: Vec<bool> = (0..20_000u64)
            .map(|i| hash_unit(i, 0xBEEF) < 0.03)
            .collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &bits {
            enc.encode(&mut m, b);
        }
        let bytes = enc.finish();
        let bits_per_symbol = bytes.len() as f64 * 8.0 / bits.len() as f64;
        assert!(bits_per_symbol < 0.35, "bits/symbol {bits_per_symbol}");
    }

    #[test]
    fn random_input_near_one_bit() {
        let bits: Vec<bool> = (0..20_000u64).map(|i| hash_bit(i, 0xC0FFEE)).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &bits {
            enc.encode(&mut m, b);
        }
        let bytes = enc.finish();
        let bits_per_symbol = bytes.len() as f64 * 8.0 / bits.len() as f64;
        assert!(
            (0.95..1.1).contains(&bits_per_symbol),
            "bits/symbol {bits_per_symbol}"
        );
    }

    #[test]
    fn raw_bits_roundtrip() {
        let bits: Vec<bool> = (0..1000u64).map(|i| hash_bit(i, 0x51EE7)).collect();
        let mut enc = RangeEncoder::new();
        for &b in &bits {
            enc.encode_raw(b);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        let decoded: Vec<bool> = (0..bits.len()).map(|_| dec.decode_raw()).collect();
        assert_eq!(decoded, bits);
    }

    #[test]
    fn mixed_adaptive_and_raw_roundtrip() {
        let n = 3000u64;
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        let bits: Vec<(bool, bool)> = (0..n)
            .map(|i| (hash_bit(i, 1), hash_unit(i, 2) < 0.1))
            .collect();
        for &(raw, adaptive) in &bits {
            enc.encode_raw(raw);
            enc.encode(&mut m, adaptive);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        let mut m = BitModel::new();
        for &(raw, adaptive) in &bits {
            assert_eq!(dec.decode_raw(), raw);
            assert_eq!(dec.decode(&mut m), adaptive);
        }
    }

    #[test]
    fn truncated_stream_decodes_prefix_correctly() {
        // The defining property for embedded streams: a truncated stream
        // must decode the same early symbols as the full stream.
        let bits: Vec<bool> = (0..8000u64).map(|i| hash_unit(i, 0xFEED) < 0.2).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        let mut prefix_len_bytes = 0usize;
        for (i, &b) in bits.iter().enumerate() {
            enc.encode(&mut m, b);
            if i == 3999 {
                prefix_len_bytes = enc.len();
            }
        }
        let bytes = enc.finish();
        // `len()` already over-counts by the cached-byte margin, so the
        // recorded point covers all state needed for the first 4000 bits.
        let cut = (prefix_len_bytes + 5).min(bytes.len());
        let truncated = &bytes[..cut];
        let mut dec = RangeDecoder::new(truncated);
        let mut m = BitModel::new();
        for &expected in bits.iter().take(4000) {
            assert_eq!(dec.decode(&mut m), expected);
        }
    }

    #[test]
    fn with_buffer_reuse_is_byte_identical() {
        let bits: Vec<bool> = (0..4000u64).map(|i| hash_unit(i, 0xA5A5) < 0.3).collect();
        let run = |buf: Vec<u8>| -> Vec<u8> {
            let mut enc = RangeEncoder::with_buffer(buf);
            let mut m = BitModel::new();
            for &b in &bits {
                enc.encode(&mut m, b);
            }
            enc.finish()
        };
        let fresh = run(Vec::new());
        // Reuse a dirty buffer: same bytes, no reallocation needed.
        let dirty = vec![0xEEu8; fresh.len() + 64];
        let cap = dirty.capacity();
        let reused = run(dirty);
        assert_eq!(reused, fresh);
        assert_eq!(reused.capacity(), cap, "buffer capacity must be kept");
    }

    #[test]
    fn empty_stream_decodes_zeros_gracefully() {
        let mut dec = RangeDecoder::new(&[]);
        let mut m = BitModel::new();
        // Must not panic; bits are arbitrary but deterministic.
        for _ in 0..100 {
            let _ = dec.decode(&mut m);
        }
    }

    #[test]
    fn len_upper_bounds_final_length() {
        let bits: Vec<bool> = (0..2000u64).map(|i| hash_bit(i, 9)).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &bits {
            enc.encode(&mut m, b);
        }
        let claimed = enc.len();
        let actual = enc.finish().len();
        assert!(claimed <= actual + 5, "claimed {claimed} actual {actual}");
    }

    #[test]
    fn committed_bytes_are_a_final_prefix() {
        // The budgeted encoder stops a chunk once `committed()` reaches its
        // cut, so every committed byte must already be the byte `finish()`
        // emits. Seeded streams mix all three coding calls, with skewed
        // adaptive bits (long carry-prone runs) and near-random ones.
        for seed in 0..8u64 {
            let p_one = [0.02, 0.5, 0.97, 0.2][seed as usize % 4];
            let mut enc = RangeEncoder::new();
            let mut models = [BitModel::new(); 3];
            let mut seen: Vec<u8> = Vec::new();
            for i in 0..6000u64 {
                let bit = hash_unit(i, seed) < p_one;
                match hash_unit(i, seed ^ 0xC0) {
                    u if u < 0.4 => enc.encode(&mut models[(i % 2) as usize], bit),
                    u if u < 0.8 => enc.encode_biased(&mut models[2], bit),
                    _ => enc.encode_raw(hash_bit(i, seed ^ 0x5A)),
                }
                let committed = enc.committed();
                assert!(committed <= enc.len(), "seed {seed} step {i}");
                assert!(committed >= seen.len(), "seed {seed} step {i}: shrank");
                assert_eq!(
                    enc.output[..seen.len()],
                    seen[..],
                    "seed {seed} step {i}: a committed byte changed"
                );
                seen.extend_from_slice(&enc.output[seen.len()..committed]);
            }
            let bytes = enc.finish();
            assert!(seen.len() <= bytes.len(), "seed {seed}");
            assert_eq!(bytes[..seen.len()], seen[..], "seed {seed}");
        }
    }

    #[test]
    fn bit_model_probability_bounds() {
        let mut m = BitModel::new();
        for _ in 0..10_000 {
            m.update(true);
        }
        assert!(m.p0 >= 32);
        let mut m = BitModel::new();
        for _ in 0..10_000 {
            m.update(false);
        }
        assert!(m.p0 <= (1 << PROB_BITS) - 32);
    }
}
