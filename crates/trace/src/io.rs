//! Trace file I/O: store and load traces in the binary format, and
//! [`TraceEventReader`], the one `DTBTRC01` decoder.
//!
//! Separating workload generation from simulation lets expensive traces be
//! generated once and replayed many times (the `tracegen` binary does
//! exactly that from the command line).

use crate::event::{Event, ObjectId, Trace, TraceError, TraceMeta};
use crate::format::{self, FormatError};
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};

/// An I/O, format, or semantic failure while reading a trace file.
///
/// Every variant names the offending file, so a bad trace in a batch of
/// hundreds is diagnosable from the rendered message alone.
#[derive(Debug)]
pub enum TraceIoError {
    /// Filesystem-level failure.
    Io {
        /// Offending file.
        path: PathBuf,
        /// The underlying filesystem error.
        error: io::Error,
    },
    /// The file is not a valid trace.
    Format {
        /// Offending file.
        path: PathBuf,
        /// The format-level failure.
        error: FormatError,
    },
    /// The file decoded, but its event stream is semantically malformed
    /// (e.g. a double free or an allocation-clock overflow).
    Invalid {
        /// Offending file.
        path: PathBuf,
        /// The event-stream failure.
        error: TraceError,
    },
}

impl TraceIoError {
    /// The file the failure was observed on.
    pub fn path(&self) -> &Path {
        match self {
            TraceIoError::Io { path, .. }
            | TraceIoError::Format { path, .. }
            | TraceIoError::Invalid { path, .. } => path,
        }
    }
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io { path, error } => {
                write!(f, "{}: trace file i/o error: {error}", path.display())
            }
            TraceIoError::Format { path, error } => {
                write!(f, "{}: trace file malformed: {error}", path.display())
            }
            TraceIoError::Invalid { path, error } => {
                write!(f, "{}: trace file inconsistent: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io { error, .. } => Some(error),
            TraceIoError::Format { error, .. } => Some(error),
            TraceIoError::Invalid { error, .. } => Some(error),
        }
    }
}

fn io_err(path: &Path, error: io::Error) -> TraceIoError {
    TraceIoError::Io {
        path: path.to_path_buf(),
        error,
    }
}

fn format_err(path: &Path, error: FormatError) -> TraceIoError {
    TraceIoError::Format {
        path: path.to_path_buf(),
        error,
    }
}

/// Writes a trace to `path` in the binary format.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_trace(path: impl AsRef<Path>, trace: &Trace) -> Result<(), TraceIoError> {
    let path = path.as_ref();
    std::fs::write(path, format::encode(trace)).map_err(|e| io_err(path, e))
}

/// Reads a trace from `path` and validates its event stream.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] on filesystem failure,
/// [`TraceIoError::Format`] when the file is not a valid trace, and
/// [`TraceIoError::Invalid`] when the file decodes but its events are
/// semantically malformed ([`Trace::validate`]) — so a corrupt file
/// surfaces one precise diagnostic here instead of a failure downstream.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Trace, TraceIoError> {
    let path = path.as_ref();
    let data = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let trace = format::decode(&data).map_err(|e| format_err(path, e))?;
    trace.validate().map_err(|error| TraceIoError::Invalid {
        path: path.to_path_buf(),
        error,
    })?;
    Ok(trace)
}

/// Streaming reader over the *events* of a `DTBTRC01` trace: the one
/// decoder of the format.
///
/// It decodes one event at a time, so memory stays independent of trace
/// length. [`TraceEventReader::open`] reads a file through a
/// [`BufReader`] (the `DTBCTC01` two-pass converter streams this way);
/// [`format::decode`] runs the same reader over a byte slice.
/// Event-stream *semantics* (double frees, clock overflow, …) are **not**
/// checked here — callers that need them validate as they consume.
pub struct TraceEventReader<R: Read = BufReader<File>> {
    reader: R,
    path: PathBuf,
    meta: TraceMeta,
    remaining: u64,
    expected_id: u64,
}

impl TraceEventReader {
    /// Opens `path` and decodes the header (magic, metadata, event count).
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Io`] on filesystem failure, [`TraceIoError::Format`]
    /// when the header is malformed.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceIoError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| io_err(path, e))?;
        TraceEventReader::new(BufReader::new(file), path)
    }
}

impl<R: Read> TraceEventReader<R> {
    /// [`open`](TraceEventReader::open) over any reader; errors name
    /// `path`, the source the bytes came from.
    pub(crate) fn new(mut reader: R, path: impl AsRef<Path>) -> Result<Self, TraceIoError> {
        let path = path.as_ref().to_path_buf();
        let mut magic = [0u8; 8];
        match reader.read_exact(&mut magic) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(format_err(&path, FormatError::BadMagic))
            }
            Err(e) => return Err(io_err(&path, e)),
        }
        if &magic != format::MAGIC {
            return Err(format_err(&path, FormatError::BadMagic));
        }
        let name = read_string(&mut reader, &path)?;
        let description = read_string(&mut reader, &path)?;
        let mut raw = [0u8; 8];
        read_exact_or_truncated(&mut reader, &mut raw, &path)?;
        let exec_seconds = f64::from_be_bytes(raw);
        let remaining = read_varint(&mut reader, &path)?;
        Ok(TraceEventReader {
            reader,
            path,
            meta: TraceMeta {
                name,
                description,
                exec_seconds,
            },
            remaining,
            expected_id: 0,
        })
    }

    /// The trace metadata decoded from the header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Events not yet read (from the header count).
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Decodes the next event, or `Ok(None)` once the header count is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Format`] when a record is malformed (including an
    /// allocation size above `u32::MAX`) or the input ends early,
    /// [`TraceIoError::Io`] when the underlying reader fails.
    pub fn next_event(&mut self) -> Result<Option<Event>, TraceIoError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut tag = [0u8; 1];
        read_exact_or_truncated(&mut self.reader, &mut tag, &self.path)?;
        match tag[0] {
            format::TAG_ALLOC => {
                let delta = read_varint(&mut self.reader, &self.path)?;
                let id = self.expected_id.wrapping_add(delta);
                self.expected_id = id.wrapping_add(1);
                let size = read_varint(&mut self.reader, &self.path)?;
                let size = u32::try_from(size)
                    .map_err(|_| format_err(&self.path, FormatError::SizeOverflow(size)))?;
                Ok(Some(Event::Alloc {
                    id: ObjectId(id),
                    size,
                }))
            }
            format::TAG_FREE => {
                let id = read_varint(&mut self.reader, &self.path)?;
                Ok(Some(Event::Free { id: ObjectId(id) }))
            }
            tag => Err(format_err(&self.path, FormatError::BadTag(tag))),
        }
    }
}

/// `read_exact` that maps a clean EOF to [`FormatError::Truncated`].
fn read_exact_or_truncated(
    reader: &mut impl Read,
    buf: &mut [u8],
    path: &Path,
) -> Result<(), TraceIoError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            format_err(path, FormatError::Truncated)
        } else {
            io_err(path, e)
        }
    })
}

/// Incremental LEB128 decode; a varint longer than 64 bits is
/// [`FormatError::Truncated`].
fn read_varint(reader: &mut impl Read, path: &Path) -> Result<u64, TraceIoError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        read_exact_or_truncated(reader, &mut byte, path)?;
        v |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(format_err(path, FormatError::Truncated));
        }
    }
}

/// Incremental string decode (varint length, then UTF-8 bytes). Reads
/// through a `Take` so a corrupt length varint cannot trigger a huge
/// up-front allocation.
fn read_string(reader: &mut impl Read, path: &Path) -> Result<String, TraceIoError> {
    let len = read_varint(reader, path)?;
    let mut raw = Vec::with_capacity(len.min(1 << 16) as usize);
    let took = reader
        .by_ref()
        .take(len)
        .read_to_end(&mut raw)
        .map_err(|e| io_err(path, e))?;
    if (took as u64) < len {
        return Err(format_err(path, FormatError::Truncated));
    }
    String::from_utf8(raw).map_err(|_| format_err(path, FormatError::BadString))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("dtb-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dtbtrc");
        let mut b = TraceBuilder::new("file-io");
        let id = b.alloc(128);
        b.free(id);
        let trace = b.finish();
        write_trace(&path, &trace).unwrap();
        let loaded = read_trace(&path).unwrap();
        assert_eq!(loaded, trace);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_reports_io_error_with_path() {
        let err = read_trace("/nonexistent/definitely/not/here.dtbtrc").unwrap_err();
        assert!(matches!(err, TraceIoError::Io { .. }));
        let msg = err.to_string();
        assert!(msg.contains("i/o"), "message: {msg}");
        assert!(
            msg.contains("/nonexistent/definitely/not/here.dtbtrc"),
            "message does not name the file: {msg}"
        );
    }

    #[test]
    fn semantically_malformed_file_reports_invalid_with_path() {
        use crate::event::{Event, ObjectId, TraceMeta};
        let dir = std::env::temp_dir().join(format!("dtb-io-inv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inv.dtbtrc");
        // Encodes fine (the format is a plain event list) but double-frees.
        let trace = Trace {
            meta: TraceMeta::named("inv"),
            events: vec![
                Event::Alloc {
                    id: ObjectId(0),
                    size: 8,
                },
                Event::Free { id: ObjectId(0) },
                Event::Free { id: ObjectId(0) },
            ],
        };
        std::fs::write(&path, crate::format::encode(&trace)).unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::Invalid {
                error: TraceError::DoubleFree { .. },
                ..
            }
        ));
        let msg = err.to_string();
        assert!(msg.contains("inconsistent"), "message: {msg}");
        assert!(msg.contains("inv.dtbtrc"), "message: {msg}");
        assert_eq!(err.path(), path);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_reader_matches_slurped_events() {
        let dir = std::env::temp_dir().join(format!("dtb-io-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.dtbtrc");
        let mut b = TraceBuilder::new("stream-io");
        b.exec_seconds(2.5).description("streamed");
        let a = b.alloc(300);
        b.alloc(7);
        b.free(a);
        b.alloc(64);
        let trace = b.finish();
        write_trace(&path, &trace).unwrap();

        let mut reader = TraceEventReader::open(&path).unwrap();
        assert_eq!(reader.meta(), &trace.meta);
        assert_eq!(reader.remaining(), trace.events.len() as u64);
        let mut events = Vec::new();
        while let Some(e) = reader.next_event().unwrap() {
            events.push(e);
        }
        assert_eq!(events, trace.events);
        assert_eq!(reader.remaining(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_reader_detects_truncation_and_names_the_file() {
        let dir = std::env::temp_dir().join(format!("dtb-io-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dtbtrc");
        let mut b = TraceBuilder::new("trunc");
        for _ in 0..10 {
            b.alloc(500);
        }
        let full = crate::format::encode(&b.finish());
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let mut reader = TraceEventReader::open(&path).unwrap();
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncated file should not stream cleanly"),
                Err(e) => break e,
            }
        };
        assert!(matches!(
            err,
            TraceIoError::Format {
                error: FormatError::Truncated,
                ..
            }
        ));
        assert!(err.to_string().contains("t.dtbtrc"), "message: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_file_reports_format_error() {
        let dir = std::env::temp_dir().join(format!("dtb-io-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.dtbtrc");
        std::fs::write(&path, b"this is not a trace").unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(matches!(err, TraceIoError::Format { .. }));
        assert!(err.to_string().contains("malformed"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
