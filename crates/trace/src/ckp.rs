//! Checksums and the error type shared by the record log.
//!
//! [`fnv1a`] / [`checksum`] are the FNV-1a checksum every on-disk format
//! in this workspace uses (the `DTBCTC01` store in [`crate::ctc`], the
//! `DTBLOG01` record log in [`crate::record_log`], and the benchmark's
//! report digests). [`CkpError`] is the error type of the record log and
//! of the run journals built on it.

use std::path::{Path, PathBuf};

/// FNV-1a offset basis: the state [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a `state`, so a checksum can be computed
/// incrementally over data that arrives in pieces.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, b| (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over `bytes`, the checksum used by every on-disk format in
/// this workspace.
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// A failure reading, writing, or interpreting a record log.
///
/// The `Mismatch` variant is produced by *consumers* of the payload (a
/// run journal whose header belongs to a different evaluation); the
/// rest come from the log itself.
#[derive(Clone, Debug, PartialEq)]
pub enum CkpError {
    /// Filesystem failure (the original error rendered as text so the
    /// variant stays comparable and cloneable).
    Io {
        /// File involved.
        path: PathBuf,
        /// The underlying I/O error message.
        message: String,
    },
    /// Missing or wrong magic header: not this format, or an older
    /// version of it.
    BadMagic {
        /// Offending file.
        path: PathBuf,
        /// The leading bytes found where the magic belongs.
        found: Vec<u8>,
    },
    /// A record log is damaged before its last frame: not a torn tail
    /// from a crash, so no prefix of it can be trusted as complete.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// Byte offset of the first damaged frame.
        offset: u64,
    },
    /// The payload passed its checksum but does not decode to the
    /// consumer's schema.
    BadPayload {
        /// Offending file.
        path: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
    /// The file decoded but belongs to a different run: the run
    /// journal's header check raises it when the journal on disk was
    /// written by a differently shaped or configured evaluation (and
    /// reopening raises it when the journal changed since it was read).
    Mismatch {
        /// Which field disagreed.
        what: &'static str,
        /// Value the resuming run expected.
        expected: String,
        /// Value found on disk.
        found: String,
    },
}

impl std::fmt::Display for CkpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkpError::Io { path, message } => {
                write!(f, "{}: i/o error: {message}", path.display())
            }
            CkpError::BadMagic { path, found } => write!(
                f,
                "{}: unrecognised file magic \"{}\"",
                path.display(),
                found.escape_ascii()
            ),
            CkpError::Corrupt { path, offset } => {
                write!(f, "{}: corrupt record at byte {offset}", path.display())
            }
            CkpError::BadPayload { path, reason } => {
                write!(f, "{}: bad checkpoint payload: {reason}", path.display())
            }
            CkpError::Mismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {what} mismatch: expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for CkpError {}

pub(crate) fn io_err(path: &Path, e: std::io::Error) -> CkpError {
    CkpError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}
