//! The on-disk record format: CRC32-framed key/day/payload triples.
//!
//! Every record is one frame:
//!
//! ```text
//! [body_len: u32 LE][crc32(body): u32 LE][body]
//! body = [kind: u8][location: u32 LE][band_tag: u8][day: f64 LE bits][payload…]
//! ```
//!
//! The **commit point** of an append is the moment the whole frame is in
//! the file: a reader either sees a CRC-valid frame (committed) or a
//! short/invalid one (never happened). There is no separate commit marker
//! — the CRC doubles as it, which is what makes torn-tail recovery a pure
//! truncation.

use crate::crc32::crc32;
use crate::error::{RefStoreError, Result};
use earthplus_raster::{Band, LocationId, PlanetBand, Sentinel2Band};

/// The key a record is stored under: one `(location, band)` pair, exactly
/// the keyspace of the in-memory reference stores.
pub type RecordKey = (LocationId, Band);

/// Bytes of the frame header (`body_len` + `crc32`).
pub(crate) const FRAME_HEADER_LEN: u64 = 8;
/// Fixed body bytes before the payload (`kind` + `location` + `band` + `day`).
pub(crate) const BODY_FIXED_LEN: u64 = 14;
/// Sanity bound on a single body; anything larger is treated as framing
/// corruption rather than attempted as an allocation.
pub(crate) const MAX_BODY_LEN: u64 = 1 << 28;

/// Record kind tag. Only `Put` exists today — freshest-wins semantics
/// need no tombstones (superseded generations die at compaction) — but
/// the tag keeps the format extensible without a version bump.
pub(crate) const KIND_PUT: u8 = 1;

/// Total file bytes one record with `payload_len` payload bytes occupies.
pub const fn framed_len(payload_len: u64) -> u64 {
    FRAME_HEADER_LEN + BODY_FIXED_LEN + payload_len
}

/// Stable on-disk tag for a [`Band`]. `PlanetBand`s take 0–3,
/// `Sentinel2Band`s 16–28; gaps leave room for future sensors without
/// renumbering (the tag is a storage format, so renumbering would corrupt
/// every existing archive).
pub fn band_tag(band: Band) -> u8 {
    match band {
        Band::Planet(PlanetBand::Blue) => 0,
        Band::Planet(PlanetBand::Green) => 1,
        Band::Planet(PlanetBand::Red) => 2,
        Band::Planet(PlanetBand::NearInfrared) => 3,
        Band::Sentinel2(b) => {
            let idx = Sentinel2Band::ALL
                .iter()
                .position(|&x| x == b)
                .expect("every Sentinel2Band is in ALL");
            16 + idx as u8
        }
    }
}

/// Inverse of [`band_tag`]; `None` for tags this version does not know.
pub fn band_from_tag(tag: u8) -> Option<Band> {
    match tag {
        0 => Some(Band::Planet(PlanetBand::Blue)),
        1 => Some(Band::Planet(PlanetBand::Green)),
        2 => Some(Band::Planet(PlanetBand::Red)),
        3 => Some(Band::Planet(PlanetBand::NearInfrared)),
        16..=28 => Some(Band::Sentinel2(Sentinel2Band::ALL[(tag - 16) as usize])),
        _ => None,
    }
}

/// One decoded record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The `(location, band)` key.
    pub key: RecordKey,
    /// Capture day of the reference generation this record carries.
    pub day: f64,
    /// Opaque payload (the serialized reference image).
    pub payload: Vec<u8>,
}

/// Encodes one record as a complete frame ready to append.
pub fn encode_frame(key: RecordKey, day: f64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, key, day, payload);
    frame
}

/// Appends one record's complete frame to `out` — how a write run stages
/// its frames back to back in one buffer.
pub(crate) fn encode_frame_into(out: &mut Vec<u8>, key: RecordKey, day: f64, payload: &[u8]) {
    let start = out.len();
    let body_len = BODY_FIXED_LEN as usize + payload.len();
    out.reserve(FRAME_HEADER_LEN as usize + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc placeholder
    out.push(KIND_PUT);
    out.extend_from_slice(&key.0 .0.to_le_bytes());
    out.push(band_tag(key.1));
    out.extend_from_slice(&day.to_bits().to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start + FRAME_HEADER_LEN as usize..]);
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes the body of a frame whose CRC already checked out.
///
/// # Errors
///
/// Returns [`RefStoreError::Corrupt`] for an unknown record kind or band
/// tag — a CRC-valid body from a future format version.
pub(crate) fn decode_body(body: &[u8]) -> Result<Record> {
    if body.len() < BODY_FIXED_LEN as usize {
        return Err(RefStoreError::Corrupt(format!(
            "record body of {} bytes is shorter than the fixed fields",
            body.len()
        )));
    }
    if body[0] != KIND_PUT {
        return Err(RefStoreError::Corrupt(format!(
            "unknown record kind {}",
            body[0]
        )));
    }
    let location = LocationId(u32::from_le_bytes(body[1..5].try_into().expect("4 bytes")));
    let band = band_from_tag(body[5]).ok_or_else(|| {
        RefStoreError::Corrupt(format!("unknown band tag {} for {location:?}", body[5]))
    })?;
    let day = f64::from_bits(u64::from_le_bytes(body[6..14].try_into().expect("8 bytes")));
    Ok(Record {
        key: (location, band),
        day,
        payload: body[BODY_FIXED_LEN as usize..].to_vec(),
    })
}

/// Validates a frame's CRC and decodes it. Used on the read path for
/// index-addressed records, where a mismatch means storage decay.
///
/// # Errors
///
/// Returns [`RefStoreError::Corrupt`] on a short frame, CRC mismatch, or
/// undecodable body.
pub fn decode_frame(frame: &[u8]) -> Result<Record> {
    if frame.len() < FRAME_HEADER_LEN as usize {
        return Err(RefStoreError::Corrupt(format!(
            "frame of {} bytes is shorter than its header",
            frame.len()
        )));
    }
    let body_len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes")) as usize;
    let stored_crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
    let body = frame
        .get(FRAME_HEADER_LEN as usize..FRAME_HEADER_LEN as usize + body_len)
        .ok_or_else(|| RefStoreError::Corrupt("frame shorter than its body_len".into()))?;
    if crc32(body) != stored_crc {
        return Err(RefStoreError::Corrupt("record CRC mismatch on read".into()));
    }
    decode_body(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_bands() -> Vec<Band> {
        let mut bands = Band::planet_all();
        bands.extend(Band::sentinel2_all());
        bands
    }

    #[test]
    fn band_tags_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for band in all_bands() {
            let tag = band_tag(band);
            assert!(seen.insert(tag), "duplicate tag {tag}");
            assert_eq!(band_from_tag(tag), Some(band));
        }
        assert_eq!(band_from_tag(255), None);
        assert_eq!(band_from_tag(8), None);
    }

    #[test]
    fn frame_round_trip() {
        let key = (LocationId(7), Band::Planet(PlanetBand::NearInfrared));
        let payload = vec![1u8, 2, 3, 250];
        let frame = encode_frame(key, 12.5, &payload);
        assert_eq!(frame.len() as u64, framed_len(payload.len() as u64));
        let record = decode_frame(&frame).unwrap();
        assert_eq!(record.key, key);
        assert_eq!(record.day, 12.5);
        assert_eq!(record.payload, payload);
    }

    #[test]
    fn bit_flip_is_detected() {
        let key = (LocationId(0), Band::Planet(PlanetBand::Red));
        let mut frame = encode_frame(key, 1.0, &[9u8; 32]);
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        assert!(matches!(
            decode_frame(&frame),
            Err(RefStoreError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_kind_rejected() {
        let key = (LocationId(0), Band::Planet(PlanetBand::Red));
        let frame = encode_frame(key, 1.0, &[]);
        let mut body = frame[FRAME_HEADER_LEN as usize..].to_vec();
        body[0] = 9;
        assert!(matches!(decode_body(&body), Err(RefStoreError::Corrupt(_))));
    }

    #[test]
    fn empty_payload_allowed() {
        let key = (LocationId(3), Band::Planet(PlanetBand::Green));
        let record = decode_frame(&encode_frame(key, -2.0, &[])).unwrap();
        assert!(record.payload.is_empty());
    }
}
