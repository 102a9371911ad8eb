//! The queryable results store behind `GET /results`.
//!
//! A [`record_log`](dtb_trace::record_log) file plus an in-memory index.
//! The coordinator appends one record per *finalized* cell — the same
//! moment the journal record lands — and `/results` serves cells
//! straight from the store, so results outlive the in-memory sweep
//! state and can be queried while a sweep is still running (unlike
//! `GET /sweep`, which withholds cells until the sweep is done).
//!
//! Each record is the JSON `{"sweep":S,"cell":C,"result":{...}}` of one
//! [`CellResult`]. The store is a serving cache — the journal remains
//! the durability story — so append failures are reported to stderr but
//! never fail a completion, and a file the store cannot trust is refused
//! untouched (see [`ResultsStore::open_or_memory`]).

use crate::proto::{decode, encode, CellResult};
use dtb_sim::CkpError;
use dtb_trace::record_log::{FaultFuse, RecordLog};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

#[derive(Serialize, Deserialize)]
struct ResultRecord {
    sweep: u64,
    cell: u64,
    result: CellResult,
}

/// Append-only results store: file-backed when opened with a path,
/// memory-only otherwise.
pub struct ResultsStore {
    inner: Mutex<StoreInner>,
}

struct StoreInner {
    log: Option<RecordLog>,
    /// `(sweep, cell)` → finalized result. Insertion order is not kept;
    /// queries sort by cell index.
    index: HashMap<(u64, u64), CellResult>,
}

impl ResultsStore {
    /// A memory-only store (nothing persisted).
    pub fn memory() -> ResultsStore {
        ResultsStore::with(None, HashMap::new())
    }

    fn with(log: Option<RecordLog>, index: HashMap<(u64, u64), CellResult>) -> ResultsStore {
        ResultsStore {
            inner: Mutex::new(StoreInner { log, index }),
        }
    }

    /// Opens (or creates) a file-backed store at `path`, replaying any
    /// existing records into the index. A torn tail is dropped and
    /// later appends continue after the last good record.
    ///
    /// # Errors
    ///
    /// I/O failures, a file that is not a record log (wrong or older
    /// magic), interior corruption, or a record that does not decode.
    /// A refusal never drops a valid record: a foreign or damaged file
    /// is left byte-for-byte untouched.
    pub fn open(path: &Path) -> Result<ResultsStore, CkpError> {
        let (log, replay) = RecordLog::open(path)?;
        let mut index = HashMap::new();
        for record in &replay.records {
            let r: ResultRecord = decode(record).map_err(|why| CkpError::BadPayload {
                path: path.to_path_buf(),
                reason: format!("results record: {why}"),
            })?;
            index.insert((r.sweep, r.cell), r.result);
        }
        Ok(ResultsStore::with(Some(log), index))
    }

    /// Opens a file-backed store, falling back to memory-only (with a
    /// note on stderr) when the file cannot be opened — the coordinator
    /// must come up either way, and recovery backfills the memory store
    /// from the journals.
    pub fn open_or_memory(path: Option<&Path>) -> ResultsStore {
        match path {
            None => ResultsStore::memory(),
            Some(p) => ResultsStore::open(p).unwrap_or_else(|e| {
                eprintln!("coordinator: results store unavailable ({e}); serving from memory");
                ResultsStore::memory()
            }),
        }
    }

    /// Records one finalized cell. Idempotent per `(sweep, cell)`: a
    /// re-append of an already-stored cell is ignored (the first
    /// durable record won, mirroring the journal's exactly-once record).
    /// File write failures are reported to stderr, never propagated.
    pub fn append(&self, sweep: u64, cell: u64, result: &CellResult) {
        let mut inner = self.lock();
        if inner.index.contains_key(&(sweep, cell)) {
            return;
        }
        let record = ResultRecord {
            sweep,
            cell,
            result: result.clone(),
        };
        if let Some(log) = &mut inner.log {
            if let Err(e) = log.append(&encode(&record)) {
                eprintln!("coordinator: results append failed ({e}); record kept in memory");
            }
        }
        inner.index.insert((sweep, cell), record.result);
    }

    /// Arms a fault fuse over appends (see
    /// [`RecordLog::inject_fault`]): a torn record stays servable from
    /// memory, the next append truncates it, and the coordinator's
    /// recovery backfills it from the journal after a restart.
    pub fn inject_fault(&self, fault: FaultFuse) {
        if let Some(log) = &mut self.lock().log {
            log.inject_fault(fault);
        }
    }

    /// One cell's stored result.
    pub fn get(&self, sweep: u64, cell: u64) -> Option<CellResult> {
        self.lock().index.get(&(sweep, cell)).cloned()
    }

    /// All stored cells of one sweep, sorted by cell index.
    pub fn sweep_cells(&self, sweep: u64) -> Vec<(u64, CellResult)> {
        let inner = self.lock();
        let mut cells: Vec<(u64, CellResult)> = inner
            .index
            .iter()
            .filter(|((s, _), _)| *s == sweep)
            .map(|((_, c), r)| (*c, r.clone()))
            .collect();
        cells.sort_by_key(|(c, _)| *c);
        cells
    }

    /// Records stored across all sweeps.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// True when nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn result(row: &str, ok: bool) -> CellResult {
        CellResult {
            column: "CFRAC".into(),
            row: row.into(),
            attempts: 1,
            elapsed_ns: 42,
            run: None,
            failure: if ok { None } else { Some("injected".into()) },
            transient: false,
        }
    }

    fn tempfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dtb-res-{tag}-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn memory_store_round_trips_and_sorts() {
        let store = ResultsStore::memory();
        store.append(1, 2, &result("FIXED 1.0", true));
        store.append(1, 0, &result("FULL", true));
        store.append(2, 0, &result("FULL", false));
        assert_eq!(store.len(), 3);
        let cells = store.sweep_cells(1);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].0, 0);
        assert_eq!(cells[1].0, 2);
        assert_eq!(
            store.get(2, 0).unwrap().failure.as_deref(),
            Some("injected")
        );
        // Idempotent: a second append of the same cell changes nothing.
        store.append(1, 0, &result("FULL", false));
        assert!(store.get(1, 0).unwrap().failure.is_none());
    }

    #[test]
    fn file_store_survives_reopen_losing_only_a_torn_record() {
        let path = tempfile("reopen");
        std::fs::remove_file(&path).ok();
        {
            let store = ResultsStore::open(&path).unwrap();
            store.append(1, 0, &result("FULL", true));
            store.inject_fault(FaultFuse::charges(1));
            store.append(1, 1, &result("FIXED 1.0", true));
            assert!(store.get(1, 1).is_some(), "torn record still servable");
            store.append(1, 2, &result("DTB-FM", false));
        }
        let store = ResultsStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.get(1, 1).is_none());
        assert_eq!(
            store.get(1, 2).unwrap().failure.as_deref(),
            Some("injected")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_are_refused_untouched() {
        let path = tempfile("foreign");
        // Not a results store at all (`--results` pointed at the wrong
        // file), and a store in the pre-record-log format.
        for bytes in [&b"precious user data\n"[..], b"DTBRES01\n"] {
            std::fs::write(&path, bytes).unwrap();
            let err = ResultsStore::open(&path).err().expect("refused");
            assert!(matches!(err, CkpError::BadMagic { .. }), "{err}");
            let store = ResultsStore::open_or_memory(Some(&path));
            store.append(1, 0, &result("FULL", true));
            assert_eq!(store.len(), 1, "memory fallback still serves");
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
        std::fs::remove_file(&path).ok();
    }
}
