//! `DTBLOG01`: the durable, append-only record log under every store
//! that must survive a crash record by record — the simulator's run
//! journal (also the coordinator's per-sweep journal) and the
//! coordinator's sweep log.
//!
//! A file is the magic [`MAGIC`], then one frame per record: `u32 len`,
//! `u64` FNV-1a of the payload ([`checksum`]), `len` payload bytes
//! (little-endian; `len` at most [`MAX_RECORD`]). A crash can only
//! leave a *prefix* of the last frame — a short header, or a payload
//! running past the end of the file — and replay drops that torn tail.
//! Any other damage is [`CkpError::Corrupt`], and a file that does not
//! start with the magic is [`CkpError::BadMagic`]; a refusal never
//! modifies the file. A tripped [`FaultFuse`] tears an append the way a
//! crash would, and the next append rolls the torn bytes back, so they
//! only ever sit at the tail.

use crate::ckp::{checksum, io_err, CkpError};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Magic bytes opening every record log (format version 1).
pub const MAGIC: &[u8; 8] = b"DTBLOG01";

/// Largest payload one frame may carry (64 MiB).
pub const MAX_RECORD: u32 = 64 << 20;

/// Frame header bytes: `u32` length + `u64` checksum.
const HEADER: usize = 4 + 8;

/// A chargeable fault trigger, shared between a test or chaos plan and
/// the log it sabotages. Each [`trip`](FaultFuse::trip) consumes one
/// charge and reports `true` (inject the fault) until the charges run
/// out; an unarmed fuse never trips. Cloning shares the charge pool.
#[derive(Clone, Debug, Default)]
pub struct FaultFuse(Option<Arc<AtomicU32>>);

impl FaultFuse {
    /// A fuse that never trips.
    pub fn none() -> FaultFuse {
        FaultFuse(None)
    }

    /// A fuse with `n` charges: the next `n` trips inject.
    pub fn charges(n: u32) -> FaultFuse {
        FaultFuse(Some(Arc::new(AtomicU32::new(n))))
    }

    /// Consumes one charge. `true` = inject the fault now.
    pub fn trip(&self) -> bool {
        match &self.0 {
            None => false,
            Some(left) => left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok(),
        }
    }

    /// Charges left (0 for an unarmed fuse).
    pub fn remaining(&self) -> u32 {
        self.0.as_ref().map_or(0, |n| n.load(Ordering::Relaxed))
    }
}

/// What a replay recovered.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Replay {
    /// Every intact record's payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix: everything past it is a torn
    /// tail. 0 when not even the magic is complete.
    pub valid_len: u64,
}

/// The `(len, fnv)` header of the frame at `pos`, if a whole header is
/// there.
fn header_at(data: &[u8], pos: usize) -> Option<(usize, u64)> {
    let head = data.get(pos..pos + HEADER)?;
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
    let fnv = u64::from_le_bytes(head[4..].try_into().expect("8 bytes"));
    Some((len as usize, fnv))
}

/// True when some intact frame starting after `from` ends exactly at the
/// end of `data` — proof that a frame overrunning the end is not a torn
/// tail but a damaged length with records after it.
fn intact_frame_ends_at_eof(data: &[u8], from: usize) -> bool {
    (from..data.len().saturating_sub(HEADER - 1)).any(|p| {
        header_at(data, p).is_some_and(|(len, fnv)| {
            len <= MAX_RECORD as usize
                && p + HEADER + len == data.len()
                && checksum(&data[p + HEADER..]) == fnv
        })
    })
}

/// Verifies log bytes read from `path`.
fn parse(path: &Path, data: &[u8]) -> Result<Replay, CkpError> {
    if data.len() < MAGIC.len() && MAGIC.starts_with(data) {
        return Ok(Replay::default());
    }
    if !data.starts_with(MAGIC) {
        return Err(CkpError::BadMagic {
            path: path.to_path_buf(),
            found: data[..data.len().min(MAGIC.len())].to_vec(),
        });
    }
    let corrupt = |offset: usize| CkpError::Corrupt {
        path: path.to_path_buf(),
        offset: offset as u64,
    };
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    while let Some((len, fnv)) = header_at(data, pos) {
        if len > MAX_RECORD as usize {
            return Err(corrupt(pos));
        }
        let end = pos + HEADER + len;
        if end > data.len() {
            if intact_frame_ends_at_eof(data, pos + HEADER) {
                return Err(corrupt(pos));
            }
            break; // torn tail
        }
        let payload = &data[pos + HEADER..end];
        if checksum(payload) != fnv {
            return Err(corrupt(pos));
        }
        records.push(payload.to_vec());
        pos = end;
    }
    Ok(Replay {
        records,
        valid_len: pos as u64,
    })
}

/// Reads and verifies the log at `path` without modifying it — safe on
/// a file another process is appending to. A missing file replays as an
/// empty log, the same as a zero-byte one.
///
/// # Errors
///
/// [`CkpError::Io`] when the file cannot be read, [`CkpError::BadMagic`]
/// for a file that is not a `DTBLOG01` log, [`CkpError::Corrupt`] on
/// interior damage.
pub fn replay(path: impl AsRef<Path>) -> Result<Replay, CkpError> {
    let path = path.as_ref();
    match std::fs::read(path) {
        Ok(data) => parse(path, &data),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Replay::default()),
        Err(e) => Err(io_err(path, e)),
    }
}

/// Fsyncs a directory, so the entries created in it survive a crash.
/// The empty path is the current directory.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    File::open(dir)?.sync_all()
}

/// An open log, appending after its last good record.
#[derive(Debug)]
pub struct RecordLog {
    file: File,
    path: PathBuf,
    /// Length of the valid prefix on disk (0 = not even the magic yet).
    len: u64,
    /// A failed or injected append may have left bytes past `len`.
    torn: bool,
    fault: FaultFuse,
}

impl RecordLog {
    /// Creates an empty log at `path` (and its parent directory),
    /// replacing any file there. A new file's directory entry is made
    /// durable at once; nothing else is written until the first
    /// [`append`](RecordLog::append), which lays down the magic and its
    /// frame in one write and one fsync.
    ///
    /// # Errors
    ///
    /// [`CkpError::Io`] on filesystem failure.
    pub fn create(path: impl AsRef<Path>) -> Result<RecordLog, CkpError> {
        RecordLog::at(path.as_ref(), 0)
    }

    /// Opens the log at `path` for appending — creating it and its
    /// parent directory when missing — and returns it with what it
    /// already holds. A torn tail is truncated away; any refusal leaves
    /// the file byte-for-byte as it was.
    ///
    /// # Errors
    ///
    /// [`CkpError::Io`] on filesystem failure, and every error of
    /// [`replay`].
    pub fn open(path: impl AsRef<Path>) -> Result<(RecordLog, Replay), CkpError> {
        let path = path.as_ref();
        let replay = replay(path)?;
        Ok((RecordLog::at(path, replay.valid_len)?, replay))
    }

    /// Opens `path` for appending with its valid prefix cut to `len`.
    ///
    /// Fsyncing a file does not make its directory entry durable
    /// (fsync(2)), so when this creates the file it also fsyncs the
    /// parent directory and every directory it had to make, up to the
    /// first one that already existed. Without that, a power loss could
    /// drop a freshly created log whose records were all fsync'd.
    fn at(path: &Path, len: u64) -> Result<RecordLog, CkpError> {
        let dir = path.parent().unwrap_or(Path::new(""));
        let made: Vec<&Path> = dir
            .ancestors()
            .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
            .collect();
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let mut open = OpenOptions::new();
        open.append(true);
        let fresh = open.clone().create_new(true).open(path);
        let created = fresh.is_ok();
        let file = match fresh {
            Err(e) if e.kind() == ErrorKind::AlreadyExists => open.open(path),
            other => other,
        }
        .and_then(|file| file.set_len(len).map(|()| file))
        .map_err(|e| io_err(path, e))?;
        if created {
            for d in std::iter::once(dir).chain(made.iter().filter_map(|d| d.parent())) {
                sync_dir(d).map_err(|e| io_err(d, e))?;
            }
        }
        Ok(RecordLog {
            file,
            path: path.to_path_buf(),
            len,
            torn: false,
            fault: FaultFuse::none(),
        })
    }

    /// Arms `fault` over later appends: each trip tears one.
    pub fn inject_fault(&mut self, fault: FaultFuse) {
        self.fault = fault;
    }

    /// Appends one record and fsyncs it: once this returns `Ok`, the
    /// record survives any crash.
    ///
    /// # Errors
    ///
    /// [`CkpError::BadPayload`] for a payload over [`MAX_RECORD`];
    /// [`CkpError::Io`] when the write or fsync fails (or a fault is
    /// injected). The record is then not durable, and the next append
    /// first truncates whatever part of it reached the file.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), CkpError> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|len| *len <= MAX_RECORD)
            .ok_or_else(|| CkpError::BadPayload {
                path: self.path.clone(),
                reason: format!("{}-byte record exceeds the frame cap", payload.len()),
            })?;
        if self.torn {
            self.file
                .set_len(self.len)
                .map_err(|e| io_err(&self.path, e))?;
            self.torn = false;
        }
        let mut frame = Vec::with_capacity(MAGIC.len() + HEADER + payload.len());
        if self.len == 0 {
            frame.extend_from_slice(MAGIC);
        }
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.torn = true;
        if self.fault.trip() {
            // A crash mid-append: half the frame lands, no fsync.
            let _ = self.file.write_all(&frame[..frame.len() / 2]);
            return Err(CkpError::Io {
                path: self.path.clone(),
                message: "injected fault: append torn mid-frame".to_string(),
            });
        }
        self.file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(&self.path, e))?;
        self.torn = false;
        self.len += frame.len() as u64;
        Ok(())
    }
}
