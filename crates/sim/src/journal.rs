//! Durable run journal: one fsync'd record per completed cell.
//!
//! An [`Evaluation`](crate::exec::Evaluation) given a journal directory
//! appends one record per completed cell to `run.journal`, each fsync'd
//! before the next cell starts, so a crash — even `SIGKILL` — loses at
//! most the cell that was in flight. Resuming
//! ([`Evaluation::resume`](crate::exec::Evaluation::resume)) reads the
//! journal back, skips every completed cell, recomputes failed ones, and
//! appends the new outcomes to the same file.
//!
//! The file is a [`record_log`](dtb_trace::record_log), which owns the
//! framing, checksums and crash semantics. Each record is a one-byte
//! tag and a JSON payload: `H` + the [`JournalHeader`] (matrix shape and
//! configuration, guarding against resuming someone else's journal)
//! first, then `C` + a [`JournalCell`] per outcome.

use crate::engine::{SimConfig, SimRun};
use dtb_core::policy::PolicyConfig;
use dtb_trace::ckp::CkpError;
use dtb_trace::record_log::{self, FaultFuse, RecordLog};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// File name of the journal inside its run directory.
pub const JOURNAL_FILE: &str = "run.journal";

/// Format version written by this build.
pub const JOURNAL_VERSION: u32 = 1;

const HEADER_TAG: u8 = b'H';
const CELL_TAG: u8 = b'C';

/// The journal file inside a run directory.
pub fn journal_path(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(JOURNAL_FILE)
}

/// First record of every journal: the shape and configuration of the
/// evaluation that wrote it. A resume refuses a journal whose header
/// disagrees with the configured evaluation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Format version ([`JOURNAL_VERSION`]).
    pub version: u32,
    /// Column (workload) names, in evaluation order.
    pub columns: Vec<String>,
    /// Row labels, in evaluation order.
    pub rows: Vec<String>,
    /// The policy constraint configuration of the run.
    pub policy: PolicyConfig,
    /// The simulation configuration of the run.
    pub sim: SimConfig,
}

/// One journal record: the final outcome of one matrix cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalCell {
    /// Column (workload) name of the cell.
    pub column: String,
    /// Row label of the cell.
    pub row: String,
    /// How many attempts the cell took (1 = first try).
    pub attempts: u32,
    /// Wall-clock time the cell took, nanoseconds (the vendored serde
    /// has no `Duration`; a `u64` of nanos round-trips exactly).
    pub elapsed_ns: u64,
    /// The completed run, when the cell succeeded.
    pub run: Option<SimRun>,
    /// The stringified failure, when it did not. Failed cells are
    /// *recomputed* on resume, so the string is diagnostic only.
    pub failure: Option<String>,
}

impl JournalCell {
    /// True when this cell completed and its run can be reused verbatim.
    pub fn is_completed(&self) -> bool {
        self.run.is_some()
    }
}

/// A fully parsed journal.
#[derive(Clone, Debug, PartialEq)]
pub struct Journal {
    /// The header record.
    pub header: JournalHeader,
    /// Every cell record, in write order. A cell may appear more than
    /// once (a resumed run re-recording a previously failed cell); the
    /// last occurrence wins.
    pub cells: Vec<JournalCell>,
    /// Byte length of the valid prefix of the file. Anything past this
    /// is a torn tail from a crash; [`JournalWriter::resume`] truncates
    /// to it before appending.
    pub valid_len: u64,
}

impl Journal {
    /// The latest recorded outcome for one `(column, row)` cell.
    pub fn cell(&self, column: &str, row: &str) -> Option<&JournalCell> {
        self.cells
            .iter()
            .rev()
            .find(|c| c.column == column && c.row == row)
    }
}

fn bad(path: &Path, reason: impl Into<String>) -> CkpError {
    CkpError::BadPayload {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

/// Appends fsync'd records to a `run.journal` — once
/// [`JournalWriter::cell`] returns, that cell survives any crash.
#[derive(Debug)]
pub struct JournalWriter {
    log: RecordLog,
}

impl JournalWriter {
    /// Starts a fresh journal in `dir` (creating the directory, replacing
    /// any previous journal) and writes the header record.
    ///
    /// # Errors
    ///
    /// [`CkpError::Io`] on filesystem failure.
    pub fn create(
        dir: impl AsRef<Path>,
        header: &JournalHeader,
    ) -> Result<JournalWriter, CkpError> {
        let mut writer = JournalWriter {
            log: RecordLog::create(journal_path(dir))?,
        };
        writer.append(HEADER_TAG, header)?;
        Ok(writer)
    }

    /// Reopens the journal in `dir` for appending, first truncating away
    /// the torn tail (if any) that `journal` — the result of
    /// [`read_journal`] on the same directory — identified.
    ///
    /// # Errors
    ///
    /// [`CkpError::Io`] on filesystem failure, [`CkpError::Mismatch`]
    /// when the file no longer matches `journal`.
    pub fn resume(dir: impl AsRef<Path>, journal: &Journal) -> Result<JournalWriter, CkpError> {
        let (log, replay) = RecordLog::open(journal_path(dir))?;
        if replay.valid_len != journal.valid_len {
            return Err(CkpError::Mismatch {
                what: "journal length",
                expected: journal.valid_len.to_string(),
                found: replay.valid_len.to_string(),
            });
        }
        Ok(JournalWriter { log })
    }

    /// Appends one cell outcome and fsyncs it.
    ///
    /// # Errors
    ///
    /// [`CkpError::Io`] on filesystem failure (or an injected fault).
    pub fn cell(&mut self, cell: &JournalCell) -> Result<(), CkpError> {
        self.append(CELL_TAG, cell)
    }

    /// Arms a fault fuse over later cell appends (see
    /// [`RecordLog::inject_fault`]).
    pub fn inject_fault(&mut self, fault: FaultFuse) {
        self.log.inject_fault(fault);
    }

    fn append<T: Serialize>(&mut self, tag: u8, value: &T) -> Result<(), CkpError> {
        let json = serde_json::to_string(value).expect("journal records serialize infallibly");
        let mut record = Vec::with_capacity(1 + json.len());
        record.push(tag);
        record.extend_from_slice(json.as_bytes());
        self.log.append(&record)
    }
}

/// Decodes one tagged record's JSON payload.
fn decode<T: Deserialize>(path: &Path, json: &[u8]) -> Result<T, CkpError> {
    std::str::from_utf8(json)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        .map_err(|e| bad(path, format!("cannot decode journal record: {e}")))
}

/// Reads and verifies the journal in `dir`.
///
/// `Ok(None)` means there is nothing to resume: the log holds no intact
/// record — the file is missing, empty, or was torn inside the append
/// that carries the magic and the header. A torn final record (crash
/// mid-write) is dropped: the journal is valid up to it and
/// [`Journal::valid_len`] records where the good prefix ends.
///
/// # Errors
///
/// [`CkpError::Io`] when the file cannot be read, the record log's
/// typed errors on damage, and [`CkpError::BadPayload`] when the records
/// are not a header followed by cells.
pub fn read_journal(dir: impl AsRef<Path>) -> Result<Option<Journal>, CkpError> {
    let path = journal_path(dir.as_ref());
    let replay = record_log::replay(&path)?;
    let mut records = replay.records.iter();
    let header = match records.next().map(|r| r.split_first()) {
        None => return Ok(None),
        Some(Some((&HEADER_TAG, json))) => decode(&path, json)?,
        Some(_) => return Err(bad(&path, "journal does not start with a header record")),
    };
    let cells = records
        .map(|r| match r.split_first() {
            Some((&CELL_TAG, json)) => decode(&path, json),
            _ => Err(bad(&path, "journal record after the header is not a cell")),
        })
        .collect::<Result<_, _>>()?;
    Ok(Some(Journal {
        header,
        cells,
        valid_len: replay.valid_len,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            columns: vec!["CFRAC".into()],
            rows: vec!["FULL".into(), "No GC".into()],
            policy: PolicyConfig::paper(),
            sim: SimConfig::paper(),
        }
    }

    fn cell(row: &str) -> JournalCell {
        JournalCell {
            column: "CFRAC".into(),
            row: row.into(),
            attempts: 2,
            elapsed_ns: 12_345,
            run: None,
            failure: Some("injected".into()),
        }
    }

    #[test]
    fn journal_round_trips_across_a_resume() {
        let dir = std::env::temp_dir().join(format!("dtb-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            read_journal(&dir).unwrap(),
            None,
            "missing = nothing to resume"
        );
        drop(JournalWriter::create(&dir, &header()).unwrap());
        let header_only = std::fs::read(journal_path(&dir)).unwrap();
        let mut w = JournalWriter::create(&dir, &header()).unwrap();
        w.cell(&cell("FULL")).unwrap();
        drop(w);
        let first = read_journal(&dir).unwrap().unwrap();
        let mut w = JournalWriter::resume(&dir, &first).unwrap();
        w.cell(&cell("No GC")).unwrap();
        drop(w);
        let j = read_journal(&dir).unwrap().unwrap();
        assert_eq!(j.header, header());
        assert_eq!(j.cells, vec![cell("FULL"), cell("No GC")]);
        assert_eq!(j.cell("CFRAC", "No GC"), Some(&j.cells[1]));
        assert_eq!(j.cell("CFRAC", "absent"), None);
        // A stale read no longer describes the file: refused, not mixed.
        let err = JournalWriter::resume(&dir, &first).unwrap_err();
        assert!(matches!(err, CkpError::Mismatch { .. }), "{err}");
        // A crash inside the first append (magic + header frame) leaves
        // no intact record at any offset: nothing to resume, not damage.
        for cut in 0..header_only.len() {
            std::fs::write(journal_path(&dir), &header_only[..cut]).unwrap();
            assert_eq!(read_journal(&dir).unwrap(), None, "cut at {cut}");
        }
        std::fs::write(journal_path(&dir), &header_only).unwrap();
        assert!(read_journal(&dir).unwrap().is_some());
        // The old text format is someone else's file: refused.
        std::fs::write(journal_path(&dir), b"0123456789abcdef H {}\n").unwrap();
        let err = read_journal(&dir).unwrap_err();
        assert!(matches!(err, CkpError::BadMagic { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
