//! Error type of the storage engine.

use std::fmt;
use std::io;

/// Anything that can go wrong opening, appending to, or reading from a
/// reference log.
///
/// Corruption found *during recovery* is deliberately **not** an error —
/// recovery quarantines torn tails and CRC-invalid records and reports
/// them in [`crate::RecoveryReport`]. `Corrupt` is only returned when a
/// record that the live index points at fails its CRC on read, i.e. the
/// storage decayed underneath a running engine.
#[derive(Debug)]
pub enum RefStoreError {
    /// An operating-system I/O failure.
    Io(io::Error),
    /// A committed record failed validation on read.
    Corrupt(String),
    /// An append was rejected because its payload exceeds what the frame
    /// format can commit (a 2^28-byte frame body); nothing was written.
    TooLarge(u64),
}

impl fmt::Display for RefStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefStoreError::Io(e) => write!(f, "refstore I/O error: {e}"),
            RefStoreError::Corrupt(what) => write!(f, "refstore corruption: {what}"),
            RefStoreError::TooLarge(bytes) => {
                write!(f, "refstore record too large: {bytes}-byte payload")
            }
        }
    }
}

impl std::error::Error for RefStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RefStoreError::Io(e) => Some(e),
            RefStoreError::Corrupt(_) | RefStoreError::TooLarge(_) => None,
        }
    }
}

impl From<io::Error> for RefStoreError {
    fn from(e: io::Error) -> Self {
        RefStoreError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RefStoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_both_variants() {
        let io = RefStoreError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().contains("gone"));
        let corrupt = RefStoreError::Corrupt("bad crc".into());
        assert!(corrupt.to_string().contains("bad crc"));
    }
}
