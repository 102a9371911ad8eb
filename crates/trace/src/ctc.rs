//! `DTBCTC02`: the sharded on-disk *compiled-trace* format.
//!
//! `DTBTRC01` (see [`crate::format`]) stores the raw alloc/free event
//! stream; compiling it resolves each object's death time. This module
//! stores the **compiled** form on disk so simulation can stream it
//! without ever materializing a
//! [`CompiledTrace`](crate::event::CompiledTrace): a directory holding a
//! small `manifest.dtbctc` plus numbered `shard-NNNNN.dtbctc` files of
//! birth-ordered, fixed-stride records.
//!
//! ## Layout
//!
//! Every file opens with the 8-byte magic `DTBCTC02` and a *kind* byte
//! (0 = manifest, 1 = shard). All integers are little-endian. A store of
//! any other version fails the magic check with [`CtcError::BadMagic`];
//! stores are regenerated from their source, not migrated.
//!
//! **Manifest** (`manifest.dtbctc`): name and description as
//! `u32` length + UTF-8 bytes, `exec_seconds` as `f64`, then `end` clock,
//! `total_records`, `records_per_shard` and the shard count as `u64`,
//! followed by one `{records: u64, checksum: u64}` entry per shard and a
//! trailing FNV-1a checksum of everything before it.
//!
//! **Shard** (`shard-NNNNN.dtbctc`): after the magic/kind, its index
//! (`u32`) and the store's stride (`u64`), then 20-byte records —
//! `birth: u64`, `size: u32`, `death: u64` with `u64::MAX` meaning
//! "lives to trace end" — and a trailing FNV-1a checksum of the record
//! bytes. Fixed stride keeps reads chunked and seekable; records are in
//! strictly increasing birth order across the whole store.
//!
//! ## Integrity
//!
//! Corruption surfaces as a typed [`CtcError`], never a panic: checksums
//! cover both shard payloads (verified on read-through) and the manifest
//! itself, and every structural field is cross-checked against the
//! manifest when a shard is opened.

use crate::ckp::{fnv1a, FNV_OFFSET};
use crate::event::{resolve, ObjectLife, TraceError, TraceMeta};
use crate::format::FormatError;
use crate::io::{TraceEventReader, TraceIoError};
use crate::read_ahead::ReadAhead;
use crate::source::{EventBlock, EventSource, SourceError, DEFAULT_BLOCK_EVENTS};
use dtb_core::time::VirtualTime;
use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::SystemTime;

/// Magic bytes identifying a compiled-trace store file (format version 2).
pub const MAGIC: &[u8; 8] = b"DTBCTC02";

/// Manifest file name inside a store directory.
pub const MANIFEST_NAME: &str = "manifest.dtbctc";

const KIND_MANIFEST: u8 = 0;
const KIND_SHARD: u8 = 1;

/// Bytes per record: birth (8) + size (4) + death (8).
const RECORD_BYTES: usize = 20;

/// Shard file header bytes: magic (8) + kind (1) + index (4) + stride (8).
const HEADER_BYTES: usize = 8 + 1 + 4 + 8;

/// Death-time sentinel for objects that live to trace end.
const NO_DEATH: u64 = u64::MAX;

/// A failure reading, writing, or converting a compiled-trace store.
#[derive(Clone, Debug, PartialEq)]
pub enum CtcError {
    /// Filesystem failure (the original error rendered as text so the
    /// variant stays comparable and cloneable).
    Io {
        /// File or directory involved.
        path: PathBuf,
        /// The underlying I/O error message.
        message: String,
    },
    /// Missing or wrong magic header, or the wrong kind byte for the
    /// file's role.
    BadMagic {
        /// Offending file.
        path: PathBuf,
    },
    /// The file ends mid-structure.
    Truncated {
        /// Offending file.
        path: PathBuf,
    },
    /// A metadata string is not UTF-8.
    BadString {
        /// Offending file.
        path: PathBuf,
    },
    /// A shard header field disagrees with the manifest.
    ShardMismatch {
        /// Offending shard file.
        path: PathBuf,
        /// Which header field disagreed.
        field: &'static str,
        /// Value the manifest promised.
        expected: u64,
        /// Value found in the shard.
        found: u64,
    },
    /// A payload checksum does not match its recorded value.
    ChecksumMismatch {
        /// Offending file.
        path: PathBuf,
        /// Recorded checksum.
        expected: u64,
        /// Checksum computed from the bytes actually read.
        found: u64,
    },
    /// A record is structurally impossible.
    BadRecord {
        /// Offending file.
        path: PathBuf,
        /// Record index within the store (birth order).
        index: u64,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// The manifest is structurally inconsistent.
    BadManifest {
        /// Offending manifest file.
        path: PathBuf,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// The source `DTBTRC01` file is malformed at the format level.
    SourceFormat {
        /// The source trace file.
        path: PathBuf,
        /// The format-level failure.
        error: FormatError,
    },
    /// The source `DTBTRC01` event stream is semantically malformed.
    SourceTrace {
        /// The source trace file.
        path: PathBuf,
        /// The event-stream failure.
        error: TraceError,
    },
    /// A [`ShardReader`]'s helper thread ended before it handed over the
    /// end of the stream (it panicked).
    ReadAheadStopped {
        /// The store being read.
        path: PathBuf,
        /// The helper's panic message.
        reason: String,
    },
}

impl std::fmt::Display for CtcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtcError::Io { path, message } => {
                write!(f, "{}: i/o error: {message}", path.display())
            }
            CtcError::BadMagic { path } => {
                write!(f, "{}: not a compiled-trace store file", path.display())
            }
            CtcError::Truncated { path } => {
                write!(f, "{}: file ends mid-structure", path.display())
            }
            CtcError::BadString { path } => {
                write!(f, "{}: metadata string is not valid UTF-8", path.display())
            }
            CtcError::ShardMismatch {
                path,
                field,
                expected,
                found,
            } => write!(
                f,
                "{}: shard {field} is {found}, manifest says {expected}",
                path.display()
            ),
            CtcError::ChecksumMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: checksum mismatch (recorded {expected:#018x}, computed {found:#018x})",
                path.display()
            ),
            CtcError::BadRecord {
                path,
                index,
                reason,
            } => write!(f, "{}: record {index}: {reason}", path.display()),
            CtcError::BadManifest { path, reason } => {
                write!(f, "{}: bad manifest: {reason}", path.display())
            }
            CtcError::SourceFormat { path, error } => {
                write!(f, "{}: source trace malformed: {error}", path.display())
            }
            CtcError::SourceTrace { path, error } => {
                write!(f, "{}: source trace inconsistent: {error}", path.display())
            }
            CtcError::ReadAheadStopped { path, reason } => write!(
                f,
                "{}: read-ahead thread stopped before the end of the store: {reason}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CtcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CtcError::SourceFormat { error, .. } => Some(error),
            CtcError::SourceTrace { error, .. } => Some(error),
            _ => None,
        }
    }
}

fn io_err(path: &Path, e: std::io::Error) -> CtcError {
    CtcError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

fn from_trace_io(e: TraceIoError) -> CtcError {
    match e {
        TraceIoError::Io { path, error } => io_err(&path, error),
        TraceIoError::Format { path, error } => CtcError::SourceFormat { path, error },
        TraceIoError::Invalid { path, error } => CtcError::SourceTrace { path, error },
    }
}

/// Per-shard bookkeeping recorded in the manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// Records in this shard.
    pub records: u64,
    /// FNV-1a checksum of the shard's record bytes.
    pub checksum: u64,
}

/// The decoded manifest of a compiled-trace store.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest {
    /// Trace metadata carried from the source.
    pub meta: TraceMeta,
    /// End-of-trace allocation clock (= total bytes allocated).
    pub end: VirtualTime,
    /// Records across all shards.
    pub total_records: u64,
    /// Stride used when the store was written (the last shard may hold
    /// fewer).
    pub records_per_shard: u64,
    /// Per-shard record counts and checksums, in order.
    pub shards: Vec<ShardInfo>,
}

/// Path of shard `index` inside a store directory.
pub fn shard_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:05}.dtbctc"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_NAME)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Byte cursor over a slurped manifest with typed truncation errors.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CtcError> {
        if self.data.len() - self.pos < n {
            return Err(CtcError::Truncated {
                path: self.path.to_path_buf(),
            });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CtcError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CtcError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CtcError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, CtcError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, CtcError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CtcError::BadString {
            path: self.path.to_path_buf(),
        })
    }
}

fn encode_manifest(m: &ShardManifest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128 + m.shards.len() * 16);
    buf.extend_from_slice(MAGIC);
    buf.push(KIND_MANIFEST);
    put_str(&mut buf, &m.meta.name);
    put_str(&mut buf, &m.meta.description);
    buf.extend_from_slice(&m.meta.exec_seconds.to_le_bytes());
    put_u64(&mut buf, m.end.as_u64());
    put_u64(&mut buf, m.total_records);
    put_u64(&mut buf, m.records_per_shard);
    put_u64(&mut buf, m.shards.len() as u64);
    for s in &m.shards {
        put_u64(&mut buf, s.records);
        put_u64(&mut buf, s.checksum);
    }
    let checksum = fnv1a(FNV_OFFSET, &buf);
    put_u64(&mut buf, checksum);
    buf
}

/// Reads and verifies the manifest of the store at `dir`.
///
/// # Errors
///
/// [`CtcError`] on I/O failure, corruption (the whole manifest is
/// checksummed), or structural inconsistency.
pub fn read_manifest(dir: impl AsRef<Path>) -> Result<ShardManifest, CtcError> {
    let path = manifest_path(dir.as_ref());
    let data = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
    if data.len() < MAGIC.len() + 1 + 8 {
        return Err(CtcError::Truncated { path });
    }
    let (body, trailer) = data.split_at(data.len() - 8);
    let recorded = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    let computed = fnv1a(FNV_OFFSET, body);
    if recorded != computed {
        return Err(CtcError::ChecksumMismatch {
            path,
            expected: recorded,
            found: computed,
        });
    }
    let mut cur = Cursor {
        data: body,
        pos: 0,
        path: &path,
    };
    if cur.take(MAGIC.len())? != MAGIC || cur.u8()? != KIND_MANIFEST {
        return Err(CtcError::BadMagic { path });
    }
    let name = cur.string()?;
    let description = cur.string()?;
    let exec_seconds = cur.f64()?;
    let end = VirtualTime::from_bytes(cur.u64()?);
    let total_records = cur.u64()?;
    let records_per_shard = cur.u64()?;
    let shard_count = cur.u64()? as usize;
    // Each entry is 16 bytes; an impossible count cannot pass the
    // checksum, but bound the allocation anyway.
    let remaining = body.len() - cur.pos;
    if shard_count.checked_mul(16) != Some(remaining) {
        return Err(CtcError::BadManifest {
            path,
            reason: "shard table length disagrees with shard count",
        });
    }
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let records = cur.u64()?;
        let checksum = cur.u64()?;
        shards.push(ShardInfo { records, checksum });
    }
    if records_per_shard == 0 && total_records > 0 {
        return Err(CtcError::BadManifest {
            path,
            reason: "records_per_shard is zero",
        });
    }
    if shards.iter().map(|s| s.records).sum::<u64>() != total_records {
        return Err(CtcError::BadManifest {
            path,
            reason: "shard record counts do not sum to total_records",
        });
    }
    Ok(ShardManifest {
        meta: TraceMeta {
            name,
            description,
            exec_seconds,
        },
        end,
        total_records,
        records_per_shard,
        shards,
    })
}

struct OpenShard {
    writer: BufWriter<File>,
    path: PathBuf,
    records: u64,
    fnv: u64,
}

/// Incremental writer for a compiled-trace store.
///
/// Records must be pushed in strictly increasing birth order (the order
/// [`crate::event::Trace::compile`] produces); [`ShardWriter::finish`]
/// seals the store by writing the manifest. A store that was never
/// finished has no manifest and cannot be opened.
pub struct ShardWriter {
    dir: PathBuf,
    meta: TraceMeta,
    records_per_shard: u64,
    shards: Vec<ShardInfo>,
    total: u64,
    last_birth: Option<u64>,
    current: Option<OpenShard>,
}

impl ShardWriter {
    /// Creates the store directory and positions the writer at record 0.
    ///
    /// # Errors
    ///
    /// [`CtcError::BadManifest`] when `records_per_shard` is zero,
    /// [`CtcError::Io`] on filesystem failure.
    pub fn create(
        dir: impl AsRef<Path>,
        meta: TraceMeta,
        records_per_shard: u64,
    ) -> Result<ShardWriter, CtcError> {
        let dir = dir.as_ref().to_path_buf();
        if records_per_shard == 0 {
            return Err(CtcError::BadManifest {
                path: manifest_path(&dir),
                reason: "records_per_shard must be at least 1",
            });
        }
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(ShardWriter {
            dir,
            meta,
            records_per_shard,
            shards: Vec::new(),
            total: 0,
            last_birth: None,
            current: None,
        })
    }

    fn close_current(&mut self) -> Result<(), CtcError> {
        if let Some(mut shard) = self.current.take() {
            shard
                .writer
                .write_all(&shard.fnv.to_le_bytes())
                .and_then(|()| shard.writer.flush())
                .map_err(|e| io_err(&shard.path, e))?;
            self.shards.push(ShardInfo {
                records: shard.records,
                checksum: shard.fnv,
            });
        }
        Ok(())
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// [`CtcError::BadRecord`] when the record is structurally impossible
    /// (zero size, death before birth, births out of order, or a death
    /// time colliding with the `u64::MAX` sentinel); [`CtcError::Io`] on
    /// filesystem failure.
    pub fn push(&mut self, life: ObjectLife) -> Result<(), CtcError> {
        let index = self.total;
        let here = |reason| CtcError::BadRecord {
            path: shard_path(&self.dir, self.shards.len()),
            index,
            reason,
        };
        if life.size == 0 {
            return Err(here("object has zero size"));
        }
        let birth = life.birth.as_u64();
        if self.last_birth.is_some_and(|prev| birth <= prev) {
            return Err(here("births must be strictly increasing"));
        }
        let death = match life.death {
            None => NO_DEATH,
            Some(d) => {
                let d = d.as_u64();
                if d < birth {
                    return Err(here("object dies before it is born"));
                }
                if d == NO_DEATH {
                    return Err(here("death time collides with the immortal sentinel"));
                }
                d
            }
        };
        if self
            .current
            .as_ref()
            .is_none_or(|s| s.records >= self.records_per_shard)
        {
            self.close_current()?;
            let path = shard_path(&self.dir, self.shards.len());
            let file = File::create(&path).map_err(|e| io_err(&path, e))?;
            let mut writer = BufWriter::new(file);
            let mut header = Vec::with_capacity(MAGIC.len() + 1 + 4 + 8);
            header.extend_from_slice(MAGIC);
            header.push(KIND_SHARD);
            put_u32(&mut header, self.shards.len() as u32);
            // The header carries the *stride*, not the shard's own record
            // count: a streaming writer doesn't know the count until the
            // shard closes, and rewriting the header would need a seek.
            // The true per-shard count lives in the checksummed manifest.
            put_u64(&mut header, self.records_per_shard);
            writer.write_all(&header).map_err(|e| io_err(&path, e))?;
            self.current = Some(OpenShard {
                writer,
                path,
                records: 0,
                fnv: FNV_OFFSET,
            });
        }
        let shard = self.current.as_mut().expect("opened above");
        let mut raw = [0u8; RECORD_BYTES];
        raw[0..8].copy_from_slice(&birth.to_le_bytes());
        raw[8..12].copy_from_slice(&life.size.to_le_bytes());
        raw[12..20].copy_from_slice(&death.to_le_bytes());
        shard
            .writer
            .write_all(&raw)
            .map_err(|e| io_err(&shard.path, e))?;
        shard.fnv = fnv1a(shard.fnv, &raw);
        shard.records += 1;
        self.total += 1;
        self.last_birth = Some(birth);
        Ok(())
    }

    /// Seals the store: closes the open shard and writes the manifest.
    ///
    /// `end` is the end-of-trace allocation clock; for a compiled trace it
    /// equals the final birth (total bytes allocated).
    ///
    /// # Errors
    ///
    /// [`CtcError::BadManifest`] when `end` precedes the final birth,
    /// [`CtcError::Io`] on filesystem failure.
    pub fn finish(mut self, end: VirtualTime) -> Result<ShardManifest, CtcError> {
        if self.last_birth.is_some_and(|b| end.as_u64() < b) {
            return Err(CtcError::BadManifest {
                path: manifest_path(&self.dir),
                reason: "end clock precedes the final birth",
            });
        }
        self.close_current()?;
        let manifest = ShardManifest {
            meta: self.meta.clone(),
            end,
            total_records: self.total,
            records_per_shard: self.records_per_shard,
            shards: std::mem::take(&mut self.shards),
        };
        let path = manifest_path(&self.dir);
        std::fs::write(&path, encode_manifest(&manifest)).map_err(|e| io_err(&path, e))?;
        Ok(manifest)
    }
}

/// Writes an in-memory compiled trace as a store at `dir`.
///
/// # Errors
///
/// Propagates [`ShardWriter`] errors; a trace that fails
/// [`crate::event::CompiledTrace::validate`]-level invariants (zero
/// sizes, out-of-order births…) is rejected record by record.
pub fn write_shards(
    dir: impl AsRef<Path>,
    trace: &crate::event::CompiledTrace,
    records_per_shard: u64,
) -> Result<ShardManifest, CtcError> {
    let mut writer = ShardWriter::create(dir, trace.meta.clone(), records_per_shard)?;
    for life in trace.lives() {
        writer.push(life)?;
    }
    writer.finish(trace.end)
}

/// Converts a `DTBTRC01` event-trace *file* into a store at `dir` without
/// ever materializing the trace: two streaming passes over the source.
///
/// Pass 1 streams the events through the resolver
/// [`crate::event::Trace::compile`] runs, validating the stream exactly
/// as `compile` would and resolving each object's death clock; pass 2
/// replays the file, emitting one record per allocation. Memory is
/// O(objects) — a `u64` death per object, plus the resolver's id table
/// during pass 1 — far below the resident
/// [`CompiledTrace`](crate::event::CompiledTrace) plus event list, and
/// the output is byte-for-byte the store [`write_shards`] would produce
/// from the compiled trace.
///
/// # Errors
///
/// [`CtcError::SourceFormat`] / [`CtcError::SourceTrace`] when the source
/// file is malformed (a read failure is reported before any event-stream
/// error), plus all [`ShardWriter`] errors.
pub fn convert_trace_file(
    src: impl AsRef<Path>,
    dir: impl AsRef<Path>,
    records_per_shard: u64,
) -> Result<ShardManifest, CtcError> {
    let src = src.as_ref();
    // Pass 1: resolve death clocks, validating the event stream. A read
    // failure ends the stream; the resolver saw only the good prefix.
    let mut reader = TraceEventReader::open(src).map_err(from_trace_io)?;
    // The header's event count sizes the resolver's id table. Every
    // event takes at least two bytes, so the file length bounds a corrupt
    // count, as in `format::decode`.
    let file_len = std::fs::metadata(src).map_or(0, |m| m.len());
    let hint = usize::try_from(reader.remaining().min(file_len / 2)).unwrap_or(usize::MAX);
    let mut read_error = None;
    let events = std::iter::from_fn(|| {
        reader.next_event().unwrap_or_else(|e| {
            read_error = Some(e);
            None
        })
    });
    let resolved = resolve(events, hint, |_, _| {});
    if let Some(e) = read_error {
        return Err(from_trace_io(e));
    }
    let (deaths, end) = resolved.map_err(|error| CtcError::SourceTrace {
        path: src.to_path_buf(),
        error,
    })?;

    // Pass 2: emit one record per allocation, in event (= birth) order.
    let mut writer = ShardWriter::create(dir, reader.meta().clone(), records_per_shard)?;
    let mut reader = TraceEventReader::open(src).map_err(from_trace_io)?;
    let mut clock: u64 = 0;
    let mut next: usize = 0;
    while let Some(event) = reader.next_event().map_err(from_trace_io)? {
        if let crate::event::Event::Alloc { size, .. } = event {
            clock += size as u64;
            let Some(&death) = deaths.get(next) else {
                return Err(CtcError::BadRecord {
                    path: src.to_path_buf(),
                    index: next as u64,
                    reason: "trace file changed between converter passes",
                });
            };
            writer.push(ObjectLife {
                birth: VirtualTime::from_bytes(clock),
                size,
                death: (death != NO_DEATH).then(|| VirtualTime::from_bytes(death)),
            })?;
            next += 1;
        }
    }
    writer.finish(end)
}

/// Verification status of one shard, from [`verify_store`].
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// The shard file checked.
    pub path: PathBuf,
    /// Records the manifest promises for this shard.
    pub records: u64,
    /// `None` when the shard verified; the precise failure otherwise.
    pub error: Option<CtcError>,
}

/// The result of an offline [`verify_store`] walk.
#[derive(Clone, Debug)]
pub struct StoreReport {
    /// The (checksummed, verified) manifest.
    pub manifest: ShardManifest,
    /// Per-shard status, in shard order.
    pub shards: Vec<ShardStatus>,
}

impl StoreReport {
    /// True when every shard verified.
    pub fn is_ok(&self) -> bool {
        self.shards.iter().all(|s| s.error.is_none())
    }

    /// The shards that failed verification.
    pub fn bad_shards(&self) -> impl Iterator<Item = &ShardStatus> {
        self.shards.iter().filter(|s| s.error.is_some())
    }
}

/// Offline integrity check of the store at `dir`: re-reads the manifest
/// (whole-file checksum), then every shard — header fields against the
/// manifest, exact file length, and the FNV-1a checksum of the record
/// bytes against both the shard's own trailer and the manifest's record.
///
/// One bad shard does not stop the walk: every shard gets a
/// [`ShardStatus`] so a 100-shard store with one corrupt file reports
/// exactly which one (`tracegen verify` prints them).
///
/// # Errors
///
/// Returns `Err` only when the manifest itself cannot be read or
/// verified; per-shard failures land in the report.
pub fn verify_store(dir: impl AsRef<Path>) -> Result<StoreReport, CtcError> {
    let dir = dir.as_ref();
    let manifest = read_manifest(dir)?;
    let shards = manifest
        .shards
        .iter()
        .enumerate()
        .map(|(i, info)| {
            let path = shard_path(dir, i);
            let error = check_shard(&path, i, &manifest, info).err();
            ShardStatus {
                path,
                records: info.records,
                error,
            }
        })
        .collect();
    Ok(StoreReport { manifest, shards })
}

/// Checks a shard header — magic, kind byte, index and stride — against
/// the shard's position and the manifest's stride.
fn check_header(
    header: &[u8; HEADER_BYTES],
    path: &Path,
    index: usize,
    stride: u64,
) -> Result<(), CtcError> {
    if &header[0..8] != MAGIC || header[8] != KIND_SHARD {
        return Err(CtcError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let found_index = u32::from_le_bytes(header[9..13].try_into().expect("4 bytes"));
    let found_stride = u64::from_le_bytes(header[13..21].try_into().expect("8 bytes"));
    for (field, expected, found) in [
        ("index", index as u64, u64::from(found_index)),
        ("stride", stride, found_stride),
    ] {
        if found != expected {
            return Err(CtcError::ShardMismatch {
                path: path.to_path_buf(),
                field,
                expected,
                found,
            });
        }
    }
    Ok(())
}

/// Full structural + checksum verification of one shard file.
fn check_shard(
    path: &Path,
    index: usize,
    manifest: &ShardManifest,
    info: &ShardInfo,
) -> Result<(), CtcError> {
    let data = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let expected_len = HEADER_BYTES + info.records as usize * RECORD_BYTES + 8;
    let Some(header) = data.first_chunk::<HEADER_BYTES>() else {
        return Err(CtcError::Truncated {
            path: path.to_path_buf(),
        });
    };
    check_header(header, path, index, manifest.records_per_shard)?;
    if data.len() < expected_len {
        return Err(CtcError::Truncated {
            path: path.to_path_buf(),
        });
    }
    if data.len() > expected_len {
        return Err(CtcError::ShardMismatch {
            path: path.to_path_buf(),
            field: "file length",
            expected: expected_len as u64,
            found: data.len() as u64,
        });
    }
    let records = &data[HEADER_BYTES..expected_len - 8];
    let recorded = u64::from_le_bytes(data[expected_len - 8..].try_into().expect("8 bytes"));
    let computed = fnv1a(FNV_OFFSET, records);
    if computed != recorded || computed != info.checksum {
        return Err(CtcError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected: if recorded != computed {
                recorded
            } else {
                info.checksum
            },
            found: computed,
        });
    }
    Ok(())
}

/// Identity of one *generation* of a shard file: a re-open only hits the
/// verified-shard memo when the path, file length, modification time and
/// manifest checksum all match the generation that was hashed. Any
/// rewrite bumps the length or mtime and forces re-verification.
#[derive(PartialEq, Eq, Hash)]
struct VerifiedKey {
    path: PathBuf,
    len: u64,
    modified: Option<SystemTime>,
    checksum: u64,
}

static VERIFIED_SHARDS: OnceLock<Mutex<HashSet<VerifiedKey>>> = OnceLock::new();

fn verified_shards() -> &'static Mutex<HashSet<VerifiedKey>> {
    VERIFIED_SHARDS.get_or_init(|| Mutex::new(HashSet::new()))
}

fn verified_key(path: &Path, checksum: u64) -> Option<VerifiedKey> {
    let md = std::fs::metadata(path).ok()?;
    Some(VerifiedKey {
        path: path.to_path_buf(),
        len: md.len(),
        modified: md.modified().ok(),
        checksum,
    })
}

#[derive(Debug)]
struct ShardFile {
    reader: BufReader<File>,
    path: PathBuf,
    shard_index: usize,
    records: u64,
    read: u64,
    fnv: u64,
    /// This shard generation already passed checksum verification in this
    /// process: skip FNV accumulation and the trailer check.
    verified: bool,
}

/// Chunked [`EventSource`] over an on-disk compiled-trace store, read on
/// the calling thread: the specification [`ShardReader`] runs ahead.
///
/// Streams records shard by shard through a [`BufReader`], verifying each
/// shard's checksum as its last record is consumed; memory is one read
/// buffer plus the manifest, independent of trace length.
#[derive(Debug)]
pub struct ShardCursor {
    dir: PathBuf,
    manifest: ShardManifest,
    next_shard: usize,
    consumed: u64,
    current: Option<ShardFile>,
    /// Reusable chunk buffer for [`EventSource::next_block`]: one read
    /// and one FNV pass per chunk instead of per record. Sized for a
    /// default block when the reader opens, before the consumer builds
    /// its own state: grown on the first block instead, it was allocated
    /// in the middle of a run, and glibc's malloc could then keep one
    /// run's freed heap pages resident into the next.
    buf: Vec<u8>,
    /// Full checksum verifications performed by *this* reader — see
    /// [`ShardCursor::checksum_validations`].
    validations: u64,
}

impl ShardCursor {
    /// Opens the store at `dir` by reading and verifying its manifest.
    ///
    /// Shard files are opened lazily as the stream reaches them.
    ///
    /// # Errors
    ///
    /// Propagates [`read_manifest`] errors.
    pub fn open(dir: impl AsRef<Path>) -> Result<ShardCursor, CtcError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = read_manifest(&dir)?;
        Ok(ShardCursor::with_manifest(dir, manifest))
    }

    /// A cursor at record 0 of the store at `dir`, whose manifest has
    /// already been read and verified.
    fn with_manifest(dir: PathBuf, manifest: ShardManifest) -> ShardCursor {
        ShardCursor {
            dir,
            manifest,
            next_shard: 0,
            consumed: 0,
            current: None,
            buf: Vec::with_capacity(DEFAULT_BLOCK_EVENTS * RECORD_BYTES),
            validations: 0,
        }
    }

    /// The verified manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of full shard checksum verifications this reader has
    /// performed. Shard checksums are memoized process-wide per (path,
    /// length, mtime, checksum) generation: once any reader verifies a
    /// shard, later read-throughs of the same generation skip the FNV
    /// accumulation and trailer check entirely and leave this counter
    /// untouched. [`verify_store`] never consults the memo.
    pub fn checksum_validations(&self) -> u64 {
        self.validations
    }

    fn open_shard(&mut self) -> Result<(), CtcError> {
        let i = self.next_shard;
        let path = shard_path(&self.dir, i);
        let file = File::open(&path).map_err(|e| io_err(&path, e))?;
        let mut reader = BufReader::new(file);
        let mut header = [0u8; HEADER_BYTES];
        read_exact_ctc(&mut reader, &mut header, &path)?;
        check_header(&header, &path, i, self.manifest.records_per_shard)?;
        let verified = verified_key(&path, self.manifest.shards[i].checksum)
            .is_some_and(|key| verified_shards().lock().expect("memo lock").contains(&key));
        self.current = Some(ShardFile {
            reader,
            path,
            shard_index: i,
            records: self.manifest.shards[i].records,
            read: 0,
            fnv: FNV_OFFSET,
            verified,
        });
        self.next_shard += 1;
        Ok(())
    }

    /// Closes the exhausted current shard, verifying its trailer checksum
    /// against both the accumulated FNV and the manifest — unless this
    /// shard generation already verified, in which case both the trailer
    /// read and the comparison are skipped.
    fn finish_shard(&mut self) -> Result<(), SourceError> {
        let mut cur = self.current.take().expect("only called with an open shard");
        debug_assert!(cur.read >= cur.records, "shard not exhausted");
        if cur.verified {
            return Ok(());
        }
        let mut trailer = [0u8; 8];
        read_exact_ctc(&mut cur.reader, &mut trailer, &cur.path)?;
        let recorded = u64::from_le_bytes(trailer);
        let expected = self.manifest.shards[cur.shard_index].checksum;
        if recorded != cur.fnv || expected != cur.fnv {
            return Err(SourceError::Shard(CtcError::ChecksumMismatch {
                path: cur.path.clone(),
                expected: if recorded != cur.fnv {
                    recorded
                } else {
                    expected
                },
                found: cur.fnv,
            }));
        }
        self.validations += 1;
        if let Some(key) = verified_key(&cur.path, expected) {
            verified_shards().lock().expect("memo lock").insert(key);
        }
        Ok(())
    }
}

fn read_exact_ctc(reader: &mut impl Read, buf: &mut [u8], path: &Path) -> Result<(), CtcError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CtcError::Truncated {
                path: path.to_path_buf(),
            }
        } else {
            io_err(path, e)
        }
    })
}

fn record_birth(raw: &[u8; RECORD_BYTES]) -> u64 {
    u64::from_le_bytes(raw[0..8].try_into().expect("8 bytes"))
}

fn record_size(raw: &[u8; RECORD_BYTES]) -> u32 {
    u32::from_le_bytes(raw[8..12].try_into().expect("4 bytes"))
}

fn record_death(raw: &[u8; RECORD_BYTES]) -> u64 {
    u64::from_le_bytes(raw[12..20].try_into().expect("8 bytes"))
}

/// Decodes one 20-byte record — record `index` of the store, read from
/// `path` — rejecting a zero size and a death before birth.
#[inline(always)]
fn decode_record(
    raw: &[u8; RECORD_BYTES],
    path: &Path,
    index: u64,
) -> Result<ObjectLife, CtcError> {
    let (birth, size, death) = (record_birth(raw), record_size(raw), record_death(raw));
    let bad = |reason| CtcError::BadRecord {
        path: path.to_path_buf(),
        index,
        reason,
    };
    if size == 0 {
        return Err(bad("object has zero size"));
    }
    // `NO_DEATH` is `u64::MAX`, never below a birth.
    if death < birth {
        return Err(bad("object dies before it is born"));
    }
    Ok(ObjectLife {
        birth: VirtualTime::from_bytes(birth),
        size,
        death: (death != NO_DEATH).then(|| VirtualTime::from_bytes(death)),
    })
}

/// True when no record of `records` would fail [`decode_record`]: one
/// branch-free fold over the chunk.
fn chunk_is_valid(records: &[[u8; RECORD_BYTES]]) -> bool {
    records.iter().fold(true, |ok, raw| {
        ok & (record_size(raw) != 0) & (record_death(raw) >= record_birth(raw))
    })
}

impl EventSource for ShardCursor {
    fn meta(&self) -> &TraceMeta {
        &self.manifest.meta
    }

    fn len_hint(&self) -> Option<usize> {
        usize::try_from(self.manifest.total_records).ok()
    }

    fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
        loop {
            if self.current.is_none() {
                if self.next_shard >= self.manifest.shards.len() {
                    return Ok(None);
                }
                self.open_shard()?;
            }
            let cur = self.current.as_mut().expect("opened above");
            if cur.read >= cur.records {
                // Shard exhausted: verify its trailer checksum against
                // both the bytes just read and the manifest's record.
                self.finish_shard()?;
                continue;
            }
            let mut raw = [0u8; RECORD_BYTES];
            read_exact_ctc(&mut cur.reader, &mut raw, &cur.path)?;
            if !cur.verified {
                cur.fnv = fnv1a(cur.fnv, &raw);
            }
            cur.read += 1;
            let index = self.consumed;
            self.consumed += 1;
            return Ok(Some(decode_record(&raw, &cur.path, index)?));
        }
    }

    fn next_block(&mut self, block: &mut EventBlock) -> usize {
        block.clear();
        while block.len() < block.capacity() {
            if self.current.is_none() {
                if self.next_shard >= self.manifest.shards.len() {
                    break;
                }
                if let Err(e) = self.open_shard() {
                    block.set_error(SourceError::Shard(e));
                    break;
                }
            }
            let cur = self.current.as_mut().expect("opened above");
            if cur.read >= cur.records {
                if let Err(e) = self.finish_shard() {
                    block.set_error(e);
                    break;
                }
                continue;
            }
            // One read and (when unverified) one FNV pass for the whole
            // chunk — the shard remainder or the block remainder,
            // whichever is smaller.
            let want = (block.capacity() - block.len()).min((cur.records - cur.read) as usize);
            self.buf.resize(want * RECORD_BYTES, 0);
            if cur.reader.read_exact(&mut self.buf).is_err() {
                // A failed chunk read leaves the cursor at an unspecified
                // position: rewind to the chunk start and replay record by
                // record so the typed error — and every good record before
                // it — is identical to the per-record path.
                let at = HEADER_BYTES as u64 + cur.read * RECORD_BYTES as u64;
                if let Err(e) = cur.reader.seek(SeekFrom::Start(at)) {
                    let path = cur.path.clone();
                    block.set_error(SourceError::Shard(io_err(&path, e)));
                    break;
                }
                while block.len() < block.capacity() {
                    match self.next_record() {
                        Ok(Some(life)) => block.push(life),
                        Ok(None) => break,
                        Err(e) => {
                            block.set_error(e);
                            break;
                        }
                    }
                }
                break;
            }
            if !cur.verified {
                cur.fnv = fnv1a(cur.fnv, &self.buf);
            }
            let records = self.buf.as_chunks::<RECORD_BYTES>().0;
            // A valid chunk appends its three columns; only a chunk that
            // holds a bad record decodes record by record, to name it.
            if chunk_is_valid(records) {
                block.extend_columns(records, record_birth, record_size, record_death);
                cur.read += want as u64;
                self.consumed += want as u64;
                continue;
            }
            for raw in records {
                cur.read += 1;
                let index = self.consumed;
                self.consumed += 1;
                match decode_record(raw, &cur.path, index) {
                    Ok(life) => block.push(life),
                    Err(e) => {
                        block.set_error(SourceError::Shard(e));
                        return block.len();
                    }
                }
            }
        }
        block.len()
    }

    fn end(&self) -> VirtualTime {
        self.manifest.end
    }
}

/// Chunked [`EventSource`] over an on-disk compiled-trace store, decoded
/// ahead of the consumer on a helper thread.
///
/// Each reader runs a [`ShardCursor`] on one helper thread named
/// `dtb-read-ahead`, which hands decoded blocks over in batches while the
/// consumer works, so shard decode and checksums overlap the engine or
/// stats kernel reading them. The stream is exactly the cursor's: the
/// same records, end and typed errors at every block capacity, a block's
/// deferred error after its good prefix. A helper that ends before the
/// end of the stream ends it with [`CtcError::ReadAheadStopped`]. Memory
/// is the cursor's plus a read-ahead window of 16 blocks of
/// [`DEFAULT_BLOCK_EVENTS`] records (320 KB), independent of trace
/// length. Dropping the reader joins its helper. If the helper cannot be
/// spawned, the cursor runs on the calling thread instead.
#[derive(Debug)]
pub struct ShardReader {
    manifest: ShardManifest,
    read: Decode,
}

#[derive(Debug)]
enum Decode {
    /// A helper thread runs the cursor.
    Ahead(ReadAhead),
    /// The helper could not be spawned: the cursor runs here.
    Inline(ShardCursor),
}

impl ShardReader {
    /// Opens the store at `dir` by reading and verifying its manifest,
    /// and starts its helper thread.
    ///
    /// Shard files are opened lazily as the helper reaches them.
    ///
    /// # Errors
    ///
    /// Propagates [`read_manifest`] errors.
    pub fn open(dir: impl AsRef<Path>) -> Result<ShardReader, CtcError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = read_manifest(&dir)?;
        let cursor = || ShardCursor::with_manifest(dir.clone(), manifest.clone());
        let stopped = read_ahead_stopped(dir.clone());
        let read = match ReadAhead::spawn(cursor(), ShardCursor::checksum_validations, stopped) {
            Ok(ahead) => Decode::Ahead(ahead),
            // Typically out of threads or memory: the reader still works,
            // only without the overlap.
            Err(_) => Decode::Inline(cursor()),
        };
        Ok(ShardReader { manifest, read })
    }

    /// The verified manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Full shard checksum verifications this reader has performed, as
    /// [`ShardCursor::checksum_validations`] counts them, up to the
    /// latest batch the helper handed over: once the stream has ended,
    /// every verification of the read.
    pub fn checksum_validations(&self) -> u64 {
        match &self.read {
            Decode::Ahead(ahead) => ahead.tally(),
            Decode::Inline(cursor) => cursor.checksum_validations(),
        }
    }
}

/// The error a [`ShardReader`] of the store at `path` ends with when its
/// helper stops early, built from the helper's panic message.
fn read_ahead_stopped(path: PathBuf) -> impl Fn(String) -> SourceError + Send + 'static {
    move |reason| {
        let path = path.clone();
        SourceError::Shard(CtcError::ReadAheadStopped { path, reason })
    }
}

impl EventSource for ShardReader {
    fn meta(&self) -> &TraceMeta {
        &self.manifest.meta
    }

    fn len_hint(&self) -> Option<usize> {
        usize::try_from(self.manifest.total_records).ok()
    }

    fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
        match &mut self.read {
            Decode::Ahead(ahead) => ahead.next_record(),
            Decode::Inline(cursor) => cursor.next_record(),
        }
    }

    fn next_block(&mut self, block: &mut EventBlock) -> usize {
        match &mut self.read {
            Decode::Ahead(ahead) => ahead.next_block(block),
            Decode::Inline(cursor) => cursor.next_block(block),
        }
    }

    fn end(&self) -> VirtualTime {
        self.manifest.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::event::CompiledTrace;
    use crate::source::collect_source;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dtb-ctc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_trace(objects: usize) -> CompiledTrace {
        let mut b = TraceBuilder::new("ctc-test");
        b.exec_seconds(4.5).description("store round trip");
        let mut open = Vec::new();
        for i in 0..objects {
            open.push(b.alloc(64 + (i % 37) as u32));
            if i % 3 == 0 {
                if let Some(id) = open.pop() {
                    b.free(id);
                }
            }
        }
        b.finish().compile().unwrap()
    }

    /// Everything a stream yields one record at a time: its records, then
    /// its error if it ends on one.
    fn drain_records(source: &mut impl EventSource) -> (Vec<ObjectLife>, Option<SourceError>) {
        let mut lives = Vec::new();
        loop {
            match source.next_record() {
                Ok(Some(life)) => lives.push(life),
                Ok(None) => return (lives, None),
                Err(e) => return (lives, Some(e)),
            }
        }
    }

    /// The same, read through `next_block` at `capacity`.
    fn drain_blocks(
        source: &mut impl EventSource,
        capacity: usize,
    ) -> (Vec<ObjectLife>, Option<SourceError>) {
        let mut block = EventBlock::new(capacity);
        let mut lives = Vec::new();
        loop {
            let n = source.next_block(&mut block);
            lives.extend((0..n).map(|i| block.life(i)));
            if let Some(e) = block.take_error() {
                return (lives, Some(e));
            }
            if n == 0 {
                return (lives, None);
            }
        }
    }

    #[test]
    fn store_round_trips_across_strides() {
        let trace = sample_trace(100);
        for stride in [1u64, 7, 64, u64::MAX] {
            let dir = temp_dir(&format!("rt{stride}"));
            let manifest = write_shards(&dir, &trace, stride).unwrap();
            assert_eq!(manifest.total_records, 100);
            assert_eq!(manifest.end, trace.end);
            let mut reader = ShardReader::open(&dir).unwrap();
            let back = collect_source(&mut reader).unwrap();
            assert_eq!(back, trace);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn converter_matches_write_shards() {
        let dir = temp_dir("conv");
        let mut b = TraceBuilder::new("conv-test");
        let a = b.alloc(100);
        b.alloc(260);
        b.free(a);
        b.alloc(1);
        let trace = b.finish();
        let compiled = trace.compile().unwrap();
        let src = dir.join("src.dtbtrc");
        std::fs::create_dir_all(&dir).unwrap();
        crate::io::write_trace(&src, &trace).unwrap();

        let store_a = dir.join("from-file");
        let store_b = dir.join("from-memory");
        let ma = convert_trace_file(&src, &store_a, 2).unwrap();
        let mb = write_shards(&store_b, &compiled, 2).unwrap();
        assert_eq!(ma, mb);
        for i in 0..ma.shards.len() {
            assert_eq!(
                std::fs::read(shard_path(&store_a, i)).unwrap(),
                std::fs::read(shard_path(&store_b, i)).unwrap(),
                "shard {i} differs"
            );
        }
        let back = collect_source(&mut ShardReader::open(&store_a).unwrap()).unwrap();
        assert_eq!(back, compiled);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn converter_rejects_malformed_event_streams() {
        use crate::event::{Event, ObjectId, Trace, TraceMeta};
        let dir = temp_dir("badsrc");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("bad.dtbtrc");
        let trace = Trace {
            meta: TraceMeta::named("bad"),
            events: vec![
                Event::Alloc {
                    id: ObjectId(0),
                    size: 8,
                },
                Event::Free { id: ObjectId(0) },
                Event::Free { id: ObjectId(0) },
            ],
        };
        std::fs::write(&src, crate::format::encode(&trace)).unwrap();
        let err = convert_trace_file(&src, dir.join("out"), 8).unwrap_err();
        assert!(matches!(
            err,
            CtcError::SourceTrace {
                error: TraceError::DoubleFree { .. },
                ..
            }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn next_block_matches_next_record_across_strides_and_capacities() {
        let trace = sample_trace(157);
        for stride in [1u64, 7, 64, u64::MAX] {
            let dir = temp_dir(&format!("blk{stride}"));
            write_shards(&dir, &trace, stride).unwrap();
            let expected = drain_records(&mut ShardCursor::open(&dir).unwrap());
            assert_eq!(expected, (trace.lives().collect(), None));
            for cap in [1usize, 3, 7, 100, 4096] {
                // The cursor's chunk decode, and the reader's hand-over of
                // the blocks its helper decoded.
                let blocked = drain_blocks(&mut ShardCursor::open(&dir).unwrap(), cap);
                assert_eq!(blocked, expected, "cursor: stride {stride} capacity {cap}");
                let ahead = drain_blocks(&mut ShardReader::open(&dir).unwrap(), cap);
                assert_eq!(ahead, expected, "reader: stride {stride} capacity {cap}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn reopening_a_store_skips_checksum_re_verification() {
        let trace = sample_trace(90);
        let dir = temp_dir("memo");
        let manifest = write_shards(&dir, &trace, 16).unwrap();
        let shard_count = manifest.shards.len() as u64;
        assert!(shard_count >= 2);
        // First full read-through hashes every shard once.
        let mut first = ShardReader::open(&dir).unwrap();
        assert_eq!(collect_source(&mut first).unwrap(), trace);
        assert_eq!(first.checksum_validations(), shard_count);
        // The same generation re-opened: every shard hits the memo.
        let mut second = ShardReader::open(&dir).unwrap();
        assert_eq!(collect_source(&mut second).unwrap(), trace);
        assert_eq!(second.checksum_validations(), 0);
        // Block reads hit the memo too.
        let mut blocked = ShardReader::open(&dir).unwrap();
        let mut block = EventBlock::new(64);
        while blocked.next_block(&mut block) > 0 {
            assert!(block.take_error().is_none());
        }
        assert_eq!(blocked.checksum_validations(), 0);
        // Rewriting the store is a new generation: verification resumes.
        // (Sleep past coarse filesystem mtime granularity so the rewrite
        // cannot collide with the memoized generation key.)
        std::thread::sleep(std::time::Duration::from_millis(20));
        write_shards(&dir, &trace, 16).unwrap();
        let mut reread = ShardReader::open(&dir).unwrap();
        assert_eq!(collect_source(&mut reread).unwrap(), trace);
        assert!(
            reread.checksum_validations() >= 1,
            "rewritten shards must be re-verified"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_shard_read_via_blocks_defers_the_same_error() {
        let trace = sample_trace(50);
        let dir = temp_dir("blkflip");
        write_shards(&dir, &trace, 16).unwrap();
        let path = shard_path(&dir, 1);
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&path, raw).unwrap();
        // Per-record reference on this thread: where does the stream
        // fail, and after how many good records?
        let expected = drain_records(&mut ShardCursor::open(&dir).unwrap());
        assert!(
            matches!(
                expected.1,
                Some(SourceError::Shard(CtcError::ChecksumMismatch { .. }))
            ),
            "corruption must surface: {:?}",
            expected.1
        );
        // Block paths: same records, then the same typed error, deferred.
        let blocked = drain_blocks(&mut ShardCursor::open(&dir).unwrap(), 33);
        assert_eq!(blocked, expected, "cursor");
        let ahead = drain_blocks(&mut ShardReader::open(&dir).unwrap(), 33);
        assert_eq!(ahead, expected, "reader");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_shard_read_via_blocks_matches_per_record_position() {
        let trace = sample_trace(40);
        let dir = temp_dir("blktrunc");
        write_shards(&dir, &trace, 64).unwrap();
        let path = shard_path(&dir, 0);
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 12]).unwrap();
        let expected = drain_records(&mut ShardCursor::open(&dir).unwrap());
        assert!(
            matches!(
                expected.1,
                Some(SourceError::Shard(CtcError::Truncated { .. }))
            ),
            "truncation must surface: {:?}",
            expected.1
        );
        // The same good prefix before the truncation point, then the same
        // error, from the cursor's blocks and the reader's.
        let blocked = drain_blocks(&mut ShardCursor::open(&dir).unwrap(), 1024);
        assert_eq!(blocked, expected, "cursor");
        let ahead = drain_blocks(&mut ShardReader::open(&dir).unwrap(), 1024);
        assert_eq!(ahead, expected, "reader");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_shard_byte_is_a_checksum_error() {
        let trace = sample_trace(50);
        let dir = temp_dir("flip");
        write_shards(&dir, &trace, 16).unwrap();
        let path = shard_path(&dir, 1);
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&path, raw).unwrap();
        let err = collect_source(&mut ShardReader::open(&dir).unwrap()).unwrap_err();
        assert!(
            matches!(
                err,
                SourceError::Shard(CtcError::ChecksumMismatch { .. } | CtcError::BadRecord { .. })
            ),
            "unexpected error: {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_byte_is_a_checksum_error() {
        let trace = sample_trace(20);
        let dir = temp_dir("mflip");
        write_shards(&dir, &trace, 8).unwrap();
        let path = dir.join(MANIFEST_NAME);
        let mut raw = std::fs::read(&path).unwrap();
        raw[MAGIC.len() + 3] ^= 0x01;
        std::fs::write(&path, raw).unwrap();
        let err = ShardReader::open(&dir).unwrap_err();
        assert!(matches!(err, CtcError::ChecksumMismatch { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_shard_is_a_typed_error() {
        let trace = sample_trace(40);
        let dir = temp_dir("trunc");
        write_shards(&dir, &trace, 64).unwrap();
        let path = shard_path(&dir, 0);
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 12]).unwrap();
        let err = collect_source(&mut ShardReader::open(&dir).unwrap()).unwrap_err();
        assert!(matches!(
            err,
            SourceError::Shard(CtcError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_store_is_an_io_error() {
        let err = ShardReader::open("/nonexistent/definitely/not/a/store").unwrap_err();
        assert!(matches!(err, CtcError::Io { .. }));
        assert!(err.to_string().contains("i/o"));
    }

    #[test]
    fn writer_rejects_out_of_order_births() {
        let dir = temp_dir("order");
        let mut w = ShardWriter::create(&dir, TraceMeta::named("x"), 8).unwrap();
        w.push(ObjectLife {
            birth: VirtualTime::from_bytes(100),
            size: 100,
            death: None,
        })
        .unwrap();
        let err = w
            .push(ObjectLife {
                birth: VirtualTime::from_bytes(100),
                size: 10,
                death: None,
            })
            .unwrap_err();
        assert!(matches!(err, CtcError::BadRecord { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_rejects_end_before_final_birth() {
        let dir = temp_dir("endlow");
        let mut w = ShardWriter::create(&dir, TraceMeta::named("x"), 8).unwrap();
        w.push(ObjectLife {
            birth: VirtualTime::from_bytes(100),
            size: 100,
            death: None,
        })
        .unwrap();
        let err = w.finish(VirtualTime::from_bytes(50)).unwrap_err();
        assert!(matches!(err, CtcError::BadManifest { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_store_accepts_a_clean_store_and_names_the_bad_shard() {
        let trace = sample_trace(120);
        let dir = temp_dir("verify");
        write_shards(&dir, &trace, 32).unwrap();
        let report = verify_store(&dir).unwrap();
        assert!(report.is_ok());
        assert_eq!(report.shards.len(), 4);

        // Flip one byte in shard 2: only that shard is reported bad.
        let victim = shard_path(&dir, 2);
        let mut raw = std::fs::read(&victim).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x04;
        std::fs::write(&victim, raw).unwrap();
        let report = verify_store(&dir).unwrap();
        assert!(!report.is_ok());
        let bad: Vec<_> = report.bad_shards().collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].path, victim);
        assert!(matches!(
            bad[0].error,
            Some(CtcError::ChecksumMismatch { .. })
        ));

        // Truncate shard 0 as well: both now reported, in order.
        let first = shard_path(&dir, 0);
        let raw = std::fs::read(&first).unwrap();
        std::fs::write(&first, &raw[..raw.len() - 5]).unwrap();
        let report = verify_store(&dir).unwrap();
        assert_eq!(report.bad_shards().count(), 2);
        assert!(matches!(
            report.shards[0].error,
            Some(CtcError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_store_rejects_a_corrupt_manifest() {
        let trace = sample_trace(20);
        let dir = temp_dir("verify-manifest");
        write_shards(&dir, &trace, 8).unwrap();
        let path = dir.join(MANIFEST_NAME);
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        std::fs::write(&path, raw).unwrap();
        assert!(matches!(
            verify_store(&dir).unwrap_err(),
            CtcError::ChecksumMismatch { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_store_flags_trailing_garbage() {
        let trace = sample_trace(30);
        let dir = temp_dir("verify-tail");
        write_shards(&dir, &trace, 64).unwrap();
        let path = shard_path(&dir, 0);
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(b"junk");
        std::fs::write(&path, raw).unwrap();
        let report = verify_store(&dir).unwrap();
        assert!(matches!(
            report.shards[0].error,
            Some(CtcError::ShardMismatch {
                field: "file length",
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_files_hold_twenty_byte_records() {
        let trace = sample_trace(100);
        let dir = temp_dir("stride20");
        let manifest = write_shards(&dir, &trace, 16).unwrap();
        assert_eq!(manifest.shards.len(), 7);
        for (i, info) in manifest.shards.iter().enumerate() {
            let len = std::fs::metadata(shard_path(&dir, i)).unwrap().len();
            // Header (magic, kind, index, stride), the records, checksum.
            assert_eq!(len, 21 + 20 * info.records + 8, "shard {i}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_store_with_the_old_magic_is_refused_and_left_alone() {
        let dir = temp_dir("oldmagic");
        let manifest = write_shards(&dir, &sample_trace(40), 16).unwrap();
        let shards: Vec<PathBuf> = (0..manifest.shards.len())
            .map(|i| shard_path(&dir, i))
            .collect();
        let manifest_file = dir.join(MANIFEST_NAME);
        // Stamps the previous version's magic on a file, re-sealing the
        // manifest's checksum as that version's writer did.
        let stamp_old = |path: &Path| {
            let mut raw = std::fs::read(path).unwrap();
            raw[..8].copy_from_slice(b"DTBCTC01");
            if path == manifest_file {
                let body = raw.len() - 8;
                let sum = fnv1a(FNV_OFFSET, &raw[..body]);
                raw[body..].copy_from_slice(&sum.to_le_bytes());
            }
            std::fs::write(path, raw).unwrap();
        };
        let snapshot = || {
            let mut files = shards.clone();
            files.push(manifest_file.clone());
            files
                .iter()
                .map(|p| std::fs::read(p).unwrap())
                .collect::<Vec<_>>()
        };

        // Old shards under a current manifest: each shard is refused.
        shards.iter().for_each(|p| stamp_old(p));
        let stamped = snapshot();
        let report = verify_store(&dir).unwrap();
        assert_eq!(report.bad_shards().count(), shards.len());
        for shard in &report.shards {
            assert!(matches!(shard.error, Some(CtcError::BadMagic { .. })));
        }
        let err = collect_source(&mut ShardReader::open(&dir).unwrap()).unwrap_err();
        assert!(matches!(err, SourceError::Shard(CtcError::BadMagic { .. })));
        assert_eq!(snapshot(), stamped, "a refused store is left as it was");

        // A whole old store: refused at the manifest.
        stamp_old(&manifest_file);
        let stamped = snapshot();
        assert!(matches!(
            ShardReader::open(&dir).unwrap_err(),
            CtcError::BadMagic { .. }
        ));
        assert!(matches!(
            verify_store(&dir).unwrap_err(),
            CtcError::BadMagic { .. }
        ));
        assert_eq!(snapshot(), stamped, "a refused store is left as it was");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A cursor that panics, on the helper's thread, when asked for more
    /// than its first `.1` records.
    struct PanicAfter(ShardCursor, usize);

    impl EventSource for PanicAfter {
        fn meta(&self) -> &TraceMeta {
            self.0.meta()
        }
        fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
            self.1 = self.1.checked_sub(1).expect("injected helper failure");
            self.0.next_record()
        }
        fn end(&self) -> VirtualTime {
            self.0.end()
        }
    }

    #[test]
    fn a_helper_that_stops_early_ends_the_stream_with_a_typed_error() {
        let trace = sample_trace(20_000);
        let dir = temp_dir("stopped");
        write_shards(&dir, &trace, 3_000).unwrap();
        for (records, capacity) in [(0, 1024), (10, 7), (9_000, 1024), (19_999, 4096)] {
            let cursor = PanicAfter(ShardCursor::open(&dir).unwrap(), records);
            let tally = |s: &PanicAfter| s.0.checksum_validations();
            let stopped = read_ahead_stopped(dir.clone());
            let mut reader = ShardReader {
                manifest: cursor.0.manifest.clone(),
                read: Decode::Ahead(ReadAhead::spawn(cursor, tally, stopped).unwrap()),
            };
            let mut block = EventBlock::new(capacity);
            let mut got = Vec::new();
            let error = loop {
                let n = reader.next_block(&mut block);
                got.extend((0..n).map(|i| block.life(i)));
                if let Some(e) = block.take_error() {
                    break e;
                }
                assert!(n > 0, "the stream ended without its last records");
            };
            // The error names the helper's panic.
            assert!(
                matches!(&error, SourceError::Shard(CtcError::ReadAheadStopped { path, reason })
                    if *path == dir && reason == "injected helper failure"),
                "{error}"
            );
            assert!(error.to_string().contains("read-ahead thread stopped"));
            assert!(got.len() <= records);
            assert_eq!(
                got[..],
                trace.lives().take(got.len()).collect::<Vec<_>>()[..]
            );
            assert_eq!(reader.next_block(&mut block), 0, "the stream stays ended");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_spawn_fallback_reads_the_store_on_the_calling_thread() {
        let trace = sample_trace(3_000);
        let dir = temp_dir("inline");
        write_shards(&dir, &trace, 1_000).unwrap();
        let cursor = ShardCursor::open(&dir).unwrap();
        let mut reader = ShardReader {
            manifest: cursor.manifest.clone(),
            read: Decode::Inline(cursor),
        };
        assert_eq!(collect_source(&mut reader).unwrap(), trace);
        assert_eq!(reader.checksum_validations(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_trace_round_trips() {
        let dir = temp_dir("empty");
        let trace = TraceBuilder::new("empty").finish().compile().unwrap();
        let manifest = write_shards(&dir, &trace, 8).unwrap();
        assert_eq!(manifest.total_records, 0);
        assert!(manifest.shards.is_empty());
        let back = collect_source(&mut ShardReader::open(&dir).unwrap()).unwrap();
        assert_eq!(back, trace);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
