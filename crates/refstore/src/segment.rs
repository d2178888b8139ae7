//! Append-only segment files and the tolerant scanner that replays them.
//!
//! A segment is a 16-byte header followed by a run of CRC32-framed records
//! (see [`crate::record`]). Appends go to the *active* (highest-id)
//! segment until it reaches the configured size, then a new segment is
//! started; each write lands with one [`SegmentWriter`] call, whether it
//! carries one record or a batch's whole staged run. Compaction rewrites
//! live records into fresh segments and retires the old ones. Segment
//! files are never modified in place except for the single recovery-time
//! truncation of a torn tail.

use crate::crc32::crc32;
use crate::error::Result;
use crate::record::{decode_body, Record, BODY_FIXED_LEN, FRAME_HEADER_LEN, MAX_BODY_LEN};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file ("Earth+ Reference Store").
pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"EPRS";
/// Current segment format version.
pub(crate) const SEGMENT_VERSION: u16 = 1;
/// Bytes of the segment header (magic + version + flags + segment id).
pub const SEGMENT_HEADER_LEN: u64 = 16;

/// File name of segment `id` (fixed width so lexicographic = numeric order).
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:010}.log")
}

/// Parses a segment id back out of a file name produced by
/// [`segment_file_name`].
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn header_bytes(id: u64) -> [u8; SEGMENT_HEADER_LEN as usize] {
    let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
    header[0..4].copy_from_slice(&SEGMENT_MAGIC);
    header[4..6].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    // bytes 6..8: flags, reserved as zero
    header[8..16].copy_from_slice(&id.to_le_bytes());
    header
}

/// An open, appendable segment file.
#[derive(Debug)]
pub struct SegmentWriter {
    /// Segment id (also encoded in the file name and header).
    pub id: u64,
    file: File,
    /// Current file length in bytes (header included).
    pub len: u64,
}

impl SegmentWriter {
    /// Creates a brand-new segment file with its header written.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn create(dir: &Path, id: u64) -> Result<Self> {
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(dir.join(segment_file_name(id)))?;
        file.write_all(&header_bytes(id))?;
        Ok(SegmentWriter {
            id,
            file,
            len: SEGMENT_HEADER_LEN,
        })
    }

    /// Reopens an existing segment for appending at `len` (the valid
    /// length established by the recovery scan; anything beyond it — a
    /// torn tail — is truncated away here, restoring the
    /// last-valid-record commit point).
    ///
    /// # Errors
    ///
    /// Propagates open/truncate/seek failures.
    pub fn reopen(dir: &Path, id: u64, len: u64) -> Result<Self> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(dir.join(segment_file_name(id)))?;
        file.set_len(len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(SegmentWriter { id, file, len })
    }

    /// Appends pre-encoded frames — one, or a staged run back to back —
    /// with a single write, returning the offset of the first. Each
    /// record is *committed* once its frame is fully handed to the OS:
    /// recovery accepts exactly the CRC-valid frame prefix of the file,
    /// so a crash mid-write loses only whole trailing records.
    ///
    /// # Errors
    ///
    /// Propagates write failures; any partially written tail is healed
    /// by the next recovery scan.
    pub(crate) fn append_frame(&mut self, frame: &[u8]) -> Result<u64> {
        let offset = self.len;
        self.file.write_all(frame)?;
        self.len += frame.len() as u64;
        Ok(offset)
    }

    /// Forces everything appended so far onto stable storage.
    ///
    /// # Errors
    ///
    /// Propagates `fsync` failures.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// One record yielded by a segment scan, with its location in the file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScannedRecord {
    /// Byte offset of the frame start within the segment file.
    pub offset: u64,
    /// Total frame length in bytes.
    pub framed_len: u64,
    /// The decoded record.
    pub record: Record,
}

/// Outcome of scanning one segment file.
#[derive(Debug, Default)]
pub struct SegmentScan {
    /// CRC-valid records in file order.
    pub records: Vec<ScannedRecord>,
    /// Mid-file corruption events survived: resync gaps of one or more
    /// damaged records, plus CRC-valid records whose body was
    /// undecodable.
    pub corrupt_dropped: u64,
    /// File bytes covered by those corruption events; they stay in the
    /// file as dead bytes until compaction.
    pub corrupt_bytes: u64,
    /// Offset just past the last valid record — the length the file must
    /// be truncated to before appending again.
    pub valid_len: u64,
    /// Bytes past `valid_len` (a torn/garbage tail; zero on clean files).
    pub torn_bytes: u64,
    /// Whether the file's 16-byte header was unreadable, in which case the
    /// whole file is quarantined (no records, nothing truncated).
    pub header_invalid: bool,
}

/// Checks whether a CRC-valid frame starts at byte `at`, returning its
/// total framed length and body slice if so. `body_len` is trusted only
/// when it lands the frame wholly inside the file, within
/// [`BODY_FIXED_LEN`]..[`MAX_BODY_LEN`], *and* the CRC verifies — so a
/// corrupted length word fails here just like a corrupted body. The
/// lower bound matters: without it a run of zero bytes (a zero-extended
/// crash tail) would parse as CRC-"valid" empty frames, since
/// `crc32(&[]) == 0`.
fn frame_at(bytes: &[u8], at: usize) -> Option<(u64, &[u8])> {
    let remaining = (bytes.len() - at) as u64;
    if remaining < FRAME_HEADER_LEN {
        return None;
    }
    let body_len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as u64;
    if !(BODY_FIXED_LEN..=MAX_BODY_LEN).contains(&body_len)
        || body_len > remaining - FRAME_HEADER_LEN
    {
        return None;
    }
    let stored_crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
    let body = &bytes[at + FRAME_HEADER_LEN as usize..at + (FRAME_HEADER_LEN + body_len) as usize];
    (crc32(body) == stored_crc).then_some((FRAME_HEADER_LEN + body_len, body))
}

/// Scans a segment file, tolerating a torn tail and corrupt records.
///
/// Design: at the first offset where no CRC-valid frame parses — body
/// corruption *or* a corrupted length word; the scan cannot tell them
/// apart, so it trusts neither — it resyncs by searching forward for the
/// next offset holding a CRC-valid frame and resumes there, counting the
/// gap as corrupt bytes. Damage therefore costs only the bytes it
/// touches, never the committed records after it. When no later valid
/// frame exists, everything from the failure on is an uncommitted tail,
/// reported via `torn_bytes` for truncation. (A garbage gap mimicking a
/// valid frame needs a 1-in-2³² CRC collision.)
///
/// # Errors
///
/// Propagates I/O failures; corruption is reported in the scan, not as an
/// error.
pub fn scan_segment(path: &Path, expected_id: u64) -> Result<SegmentScan> {
    let mut file = File::open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;

    let mut scan = SegmentScan::default();
    let expected_header = header_bytes(expected_id);
    if bytes.len() < SEGMENT_HEADER_LEN as usize
        || bytes[..SEGMENT_HEADER_LEN as usize] != expected_header
    {
        scan.header_invalid = true;
        return Ok(scan);
    }

    let mut offset = SEGMENT_HEADER_LEN;
    scan.valid_len = offset;
    let file_len = bytes.len() as u64;
    while offset < file_len {
        let Some((framed, body)) = frame_at(&bytes, offset as usize) else {
            // No valid frame here: mid-file corruption or the torn tail.
            // Resync to the next CRC-valid frame; none left means the
            // rest of the file is an uncommitted tail.
            match (offset + 1..file_len).find(|&o| frame_at(&bytes, o as usize).is_some()) {
                Some(next) => {
                    scan.corrupt_dropped += 1;
                    scan.corrupt_bytes += next - offset;
                    offset = next;
                    continue;
                }
                None => break,
            }
        };
        match decode_body(body) {
            Ok(record) => {
                scan.records.push(ScannedRecord {
                    offset,
                    framed_len: framed,
                    record,
                });
            }
            // CRC-valid but undecodable (e.g. a band tag from a newer
            // format): drop it rather than refuse the whole segment.
            Err(_) => {
                scan.corrupt_dropped += 1;
                scan.corrupt_bytes += framed;
            }
        }
        offset += framed;
        scan.valid_len = offset;
    }
    scan.torn_bytes = file_len - scan.valid_len;
    Ok(scan)
}

/// Lists the segment files in `dir` as `(id, path)` pairs sorted by id.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(id) = name.to_str().and_then(parse_segment_file_name) {
            segments.push((id, entry.path()));
        }
    }
    segments.sort_by_key(|&(id, _)| id);
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_frame;
    use earthplus_raster::{Band, LocationId, PlanetBand};

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "earthplus-refstore-segment-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn key(loc: u32) -> (LocationId, Band) {
        (LocationId(loc), Band::Planet(PlanetBand::Red))
    }

    #[test]
    fn file_name_round_trip() {
        assert_eq!(segment_file_name(42), "seg-0000000042.log");
        assert_eq!(parse_segment_file_name("seg-0000000042.log"), Some(42));
        assert_eq!(parse_segment_file_name("seg-42.log"), None);
        assert_eq!(parse_segment_file_name("MANIFEST"), None);
    }

    #[test]
    fn write_then_scan_round_trips() {
        let dir = test_dir("roundtrip");
        let mut writer = SegmentWriter::create(&dir, 0).unwrap();
        for i in 0..5u32 {
            let frame = encode_frame(key(i), i as f64, &[i as u8; 10]);
            writer.append_frame(&frame).unwrap();
        }
        let scan = scan_segment(&dir.join(segment_file_name(0)), 0).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.corrupt_dropped, 0);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.records[3].record.key, key(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_reported_not_yielded() {
        let dir = test_dir("torn");
        let mut writer = SegmentWriter::create(&dir, 0).unwrap();
        let frame = encode_frame(key(0), 1.0, &[7u8; 16]);
        writer.append_frame(&frame).unwrap();
        // Append only the first half of a second frame: a crash mid-write.
        let partial = encode_frame(key(1), 2.0, &[8u8; 16]);
        writer.append_frame(&partial[..partial.len() / 2]).unwrap();
        drop(writer);
        let path = dir.join(segment_file_name(0));
        let scan = scan_segment(&path, 0).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn_bytes, (partial.len() / 2) as u64);
        assert_eq!(
            scan.valid_len,
            SEGMENT_HEADER_LEN + frame.len() as u64,
            "valid length must end exactly after the last committed record"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_drops_one_record_and_continues() {
        let dir = test_dir("midcorrupt");
        let mut writer = SegmentWriter::create(&dir, 0).unwrap();
        let frames: Vec<Vec<u8>> = (0..3u32)
            .map(|i| encode_frame(key(i), i as f64, &[i as u8; 12]))
            .collect();
        for f in &frames {
            writer.append_frame(f).unwrap();
        }
        drop(writer);
        // Flip a payload byte inside the middle record.
        let path = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let middle_payload = SEGMENT_HEADER_LEN as usize + frames[0].len() + frames[1].len() - 1;
        bytes[middle_payload] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path, 0).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.corrupt_dropped, 1);
        assert_eq!(scan.corrupt_bytes, frames[1].len() as u64);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.records[1].record.key, key(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_length_word_resyncs_to_next_record() {
        let dir = test_dir("lenword");
        let mut writer = SegmentWriter::create(&dir, 0).unwrap();
        let frames: Vec<Vec<u8>> = (0..4u32)
            .map(|i| encode_frame(key(i), i as f64, &[i as u8; 12]))
            .collect();
        for f in &frames {
            writer.append_frame(f).unwrap();
        }
        drop(writer);
        // Corrupt the body_len word of the second record: the frame no
        // longer parses at its own offset, so the scan must resync to the
        // third record instead of cascading past it.
        let path = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let second = SEGMENT_HEADER_LEN as usize + frames[0].len();
        bytes[second] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path, 0).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.corrupt_dropped, 1);
        assert_eq!(scan.corrupt_bytes, frames[1].len() as u64);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.records[1].record.key, key(2));
        assert_eq!(scan.records[2].record.key, key(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_extended_tail_is_torn_not_valid_empty_frames() {
        let dir = test_dir("zerotail");
        let mut writer = SegmentWriter::create(&dir, 0).unwrap();
        let frame = encode_frame(key(0), 1.0, &[5u8; 16]);
        writer.append_frame(&frame).unwrap();
        // A power loss can commit a file-size update before the data
        // blocks, zero-extending the tail. crc32("") == 0, so without
        // the minimum-body-length bound these 64 zero bytes would parse
        // as eight CRC-"valid" empty frames.
        writer.append_frame(&[0u8; 64]).unwrap();
        drop(writer);
        let scan = scan_segment(&dir.join(segment_file_name(0)), 0).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.corrupt_dropped, 0, "zeros are not committed records");
        assert_eq!(scan.torn_bytes, 64, "the zero run is an uncommitted tail");
        assert_eq!(scan.valid_len, SEGMENT_HEADER_LEN + frame.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_header_quarantines_file() {
        let dir = test_dir("header");
        std::fs::write(dir.join(segment_file_name(0)), b"not a segment").unwrap();
        let scan = scan_segment(&dir.join(segment_file_name(0)), 0).unwrap();
        assert!(scan.header_invalid);
        assert!(scan.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_truncates_to_valid_len() {
        let dir = test_dir("reopen");
        let mut writer = SegmentWriter::create(&dir, 3).unwrap();
        let frame = encode_frame(key(0), 1.0, &[1u8; 8]);
        writer.append_frame(&frame).unwrap();
        writer.append_frame(&[0xAB; 5]).unwrap(); // garbage tail
        drop(writer);
        let path = dir.join(segment_file_name(3));
        let scan = scan_segment(&path, 3).unwrap();
        let writer = SegmentWriter::reopen(&dir, 3, scan.valid_len).unwrap();
        assert_eq!(writer.len, scan.valid_len);
        drop(writer);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            SEGMENT_HEADER_LEN + frame.len() as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
