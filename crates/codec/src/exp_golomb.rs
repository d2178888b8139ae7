//! Order-0 Exp-Golomb codes over a big-endian bit stream — the integer
//! code of the EPC2 header table.
//!
//! A value `v` is written as `⌊log2(v + 1)⌋` zero bits followed by the
//! binary digits of `v + 1`, so small values are short: 0 costs one bit,
//! 1–2 cost three, 3–6 cost five. Every `u32` fits in at most 65 bits
//! (32 zeros, then the 33 digits of `2^32`).

use crate::CodecError;

/// Leading zeros past which a code cannot hold a `u32`.
const MAX_ZEROS: u32 = 32;

/// Code length of `v` in bits: `2·⌊log2(v + 1)⌋ + 1`.
pub(crate) fn code_bits(v: u32) -> usize {
    let digits = 64 - (v as u64 + 1).leading_zeros();
    2 * digits as usize - 1
}

/// Appends codes to a byte vector, most significant bit first.
pub(crate) struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Pending bits, right-aligned; fewer than 8 between calls.
    acc: u64,
    pending: u32,
}

impl<'a> BitWriter<'a> {
    pub(crate) fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter {
            out,
            acc: 0,
            pending: 0,
        }
    }

    /// Appends the low `count` (≤ 33) bits of `value`.
    fn put(&mut self, value: u64, count: u32) {
        self.acc = (self.acc << count) | value;
        self.pending += count;
        while self.pending >= 8 {
            self.pending -= 8;
            self.out.push((self.acc >> self.pending) as u8);
        }
        self.acc &= (1 << self.pending) - 1;
    }

    /// Appends the code of `v`.
    pub(crate) fn put_code(&mut self, v: u32) {
        let x = v as u64 + 1;
        let digits = 64 - x.leading_zeros();
        self.put(0, digits - 1);
        self.put(x, digits);
    }

    /// Zero-pads the last partial byte and writes it out.
    pub(crate) fn finish(self) {
        if self.pending > 0 {
            self.out.push((self.acc << (8 - self.pending)) as u8);
        }
    }
}

/// Reads codes from a byte slice, most significant bit first.
pub(crate) struct BitReader<'a> {
    bytes: &'a [u8],
    /// Bits consumed so far.
    pos: usize,
}

impl<'a> BitReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    fn bit(&mut self) -> Result<u64, CodecError> {
        let byte = *self
            .bytes
            .get(self.pos / 8)
            .ok_or_else(|| CodecError::Malformed {
                reason: "unexpected end of stream".to_owned(),
            })?;
        let bit = (byte >> (7 - self.pos % 8)) & 1;
        self.pos += 1;
        Ok(bit as u64)
    }

    /// Reads one code, rejecting more than 32 leading zeros or a value
    /// past `u32::MAX`.
    pub(crate) fn code(&mut self) -> Result<u32, CodecError> {
        let overlong = || CodecError::Malformed {
            reason: "Exp-Golomb code exceeds u32".to_owned(),
        };
        let mut zeros = 0;
        while self.bit()? == 0 {
            zeros += 1;
            if zeros > MAX_ZEROS {
                return Err(overlong());
            }
        }
        let mut x = 1u64;
        for _ in 0..zeros {
            x = (x << 1) | self.bit()?;
        }
        u32::try_from(x - 1).map_err(|_| overlong())
    }

    /// Bytes spanned by the codes read so far (the last one partial).
    pub(crate) fn byte_len(&self) -> usize {
        self.pos.div_ceil(8)
    }

    /// Whether the unread bits of the last partial byte are all zero.
    pub(crate) fn padding_is_zero(&self) -> bool {
        let used = self.pos % 8;
        used == 0 || self.bytes[self.pos / 8] & (0xFF >> used) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(values: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = BitWriter::new(&mut out);
        for &v in values {
            w.put_code(v);
        }
        w.finish();
        out
    }

    #[test]
    fn known_codes() {
        // 0 → 1, 1 → 010, 2 → 011, 3 → 00100: 1010 0110 0100 → A6 40.
        assert_eq!(encode(&[0, 1, 2, 3]), [0xA6, 0x40]);
        assert_eq!(encode(&[]), Vec::<u8>::new());
        assert_eq!(code_bits(0), 1);
        assert_eq!(code_bits(6), 5);
        assert_eq!(code_bits(u32::MAX), 65);
    }

    #[test]
    fn roundtrip_and_length_agree() {
        let values: Vec<u32> = (0..40)
            .map(|k| 1u32 << (k % 32))
            .chain([0, 1, 2, 7, 8, 255, 256, u32::MAX - 1, u32::MAX])
            .collect();
        let bytes = encode(&values);
        let bits: usize = values.iter().map(|&v| code_bits(v)).sum();
        assert_eq!(bytes.len(), bits.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.code(), Ok(v));
        }
        assert_eq!(r.byte_len(), bytes.len());
        assert!(r.padding_is_zero());
    }

    fn reason(bytes: &[u8]) -> String {
        match BitReader::new(bytes).code() {
            Err(CodecError::Malformed { reason }) => reason,
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn rejects_overlong_and_short_input() {
        // 33 zeros then a one: more leading zeros than any u32 needs.
        assert_eq!(reason(&[0, 0, 0, 0, 0x40]), "Exp-Golomb code exceeds u32");
        // 32 zeros then 33 ones: the code of 2^33 − 2, past u32::MAX.
        let over = [0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x80];
        assert_eq!(reason(&over), "Exp-Golomb code exceeds u32");
        assert_eq!(reason(&[]), "unexpected end of stream");
        assert_eq!(reason(&[0x01]), "unexpected end of stream");
    }
}
