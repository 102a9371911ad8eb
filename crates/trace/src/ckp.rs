//! `DTBCKP01`: the checksummed on-disk checkpoint container.
//!
//! A checkpoint file is a single opaque payload wrapped in the same
//! integrity conventions as the `DTBCTC01` store ([`crate::ctc`]): the
//! 8-byte magic `DTBCKP01` (the trailing `01` is the format version),
//! the payload bytes, and a trailing FNV-1a checksum of everything
//! before it. The payload's schema is the *writer's* business — the
//! simulator stores a JSON-encoded `SimCheckpoint` — so this module
//! stays a pure container: it guarantees that what [`read_blob`]
//! returns is byte-for-byte what [`write_blob`] stored, or a typed
//! [`CkpError`], never a panic and never silently-corrupt bytes.
//!
//! Writes are atomic: the file is assembled under a temporary name,
//! fsync'd, and renamed into place, so a crash mid-write leaves the
//! previous checkpoint intact instead of a torn file.

use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes identifying a checkpoint file (format version 1).
pub const MAGIC: &[u8; 8] = b"DTBCKP01";

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

/// A failure reading, writing, or interpreting a checkpoint.
///
/// The `Mismatch` variant is produced by *consumers* of the payload
/// (e.g. the simulator refusing to resume a checkpoint taken on a
/// different trace); the rest come from the container itself.
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
    /// The file is too short to hold even an empty payload.
    Truncated {
        /// Offending file.
        path: PathBuf,
    },
    /// The trailing checksum does not match the bytes read.
    ChecksumMismatch {
        /// Offending file.
        path: PathBuf,
        /// Recorded checksum.
        expected: u64,
        /// Checksum computed from the bytes actually read.
        found: u64,
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
    /// The checkpoint decoded but belongs to a different run (wrong
    /// trace, policy, or configuration).
    Mismatch {
        /// Which field disagreed.
        what: &'static str,
        /// Value the resuming run expected.
        expected: String,
        /// Value found in the checkpoint.
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
            CkpError::Truncated { path } => {
                write!(f, "{}: file ends mid-structure", path.display())
            }
            CkpError::ChecksumMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: checksum mismatch (recorded {expected:#018x}, computed {found:#018x})",
                path.display()
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

/// Atomically writes `payload` as a checkpoint file at `path`.
///
/// The bytes go to `<path>.tmp` first, are fsync'd, and are renamed
/// over `path` — a crash at any point leaves either the old checkpoint
/// or the new one, never a torn mix.
///
/// # Errors
///
/// [`CkpError::Io`] on filesystem failure.
pub fn write_blob(path: impl AsRef<Path>, payload: &[u8]) -> Result<(), CkpError> {
    let path = path.as_ref();
    let mut data = Vec::with_capacity(MAGIC.len() + payload.len() + 8);
    data.extend_from_slice(MAGIC);
    data.extend_from_slice(payload);
    let sum = checksum(&data);
    data.extend_from_slice(&sum.to_le_bytes());

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    file.write_all(&data)
        .and_then(|()| file.sync_all())
        .map_err(|e| io_err(&tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Reads and verifies a checkpoint file, returning its payload bytes.
///
/// # Errors
///
/// [`CkpError::Io`] on filesystem failure, [`CkpError::Truncated`] /
/// [`CkpError::BadMagic`] / [`CkpError::ChecksumMismatch`] when the
/// container is damaged. Payloads that verify are returned verbatim.
pub fn read_blob(path: impl AsRef<Path>) -> Result<Vec<u8>, CkpError> {
    let path = path.as_ref();
    let data = std::fs::read(path).map_err(|e| io_err(path, e))?;
    if data.len() < MAGIC.len() + 8 {
        return Err(CkpError::Truncated {
            path: path.to_path_buf(),
        });
    }
    let (body, trailer) = data.split_at(data.len() - 8);
    let recorded = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    let computed = checksum(body);
    if recorded != computed {
        return Err(CkpError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected: recorded,
            found: computed,
        });
    }
    if &body[..MAGIC.len()] != MAGIC {
        return Err(CkpError::BadMagic {
            path: path.to_path_buf(),
            found: body[..MAGIC.len()].to_vec(),
        });
    }
    Ok(body[MAGIC.len()..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dtb-ckp-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("state.dtbckp")
    }

    #[test]
    fn round_trips_payload_bytes() {
        let path = temp_path("rt");
        for payload in [&b""[..], b"x", b"{\"clock\":12345}", &[0u8; 1024][..]] {
            write_blob(&path, payload).unwrap();
            assert_eq!(read_blob(&path).unwrap(), payload);
        }
    }

    #[test]
    fn overwrite_replaces_previous_checkpoint() {
        let path = temp_path("ow");
        write_blob(&path, b"first, much longer payload").unwrap();
        write_blob(&path, b"second").unwrap();
        assert_eq!(read_blob(&path).unwrap(), b"second");
    }

    #[test]
    fn flipped_byte_is_a_checksum_error() {
        let path = temp_path("flip");
        write_blob(&path, b"some checkpoint payload").unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x10;
        std::fs::write(&path, raw).unwrap();
        assert!(matches!(
            read_blob(&path).unwrap_err(),
            CkpError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn truncated_file_is_typed() {
        let path = temp_path("trunc");
        write_blob(&path, b"payload").unwrap();
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 9]).unwrap();
        assert!(matches!(
            read_blob(&path).unwrap_err(),
            CkpError::ChecksumMismatch { .. } | CkpError::Truncated { .. }
        ));
        std::fs::write(&path, &raw[..4]).unwrap();
        assert!(matches!(
            read_blob(&path).unwrap_err(),
            CkpError::Truncated { .. }
        ));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read_blob("/nonexistent/definitely/not/here.dtbckp").unwrap_err();
        assert!(matches!(err, CkpError::Io { .. }));
        assert!(err.to_string().contains("i/o"));
    }

    #[test]
    fn wrong_magic_is_typed() {
        let path = temp_path("magic");
        // A valid container whose magic says "compiled trace store".
        let mut data = Vec::new();
        data.extend_from_slice(b"DTBCTC01");
        data.extend_from_slice(b"payload");
        let sum = checksum(&data);
        data.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, data).unwrap();
        assert!(matches!(
            read_blob(&path).unwrap_err(),
            CkpError::BadMagic { .. }
        ));
    }
}
