//! Crash-safety end to end: an evaluation SIGKILLed mid-matrix resumes
//! from its durable journal and produces the same matrix, cell for
//! cell, as a run that never crashed.
//!
//! The crash is real: the parent test re-spawns this test binary
//! (filtered to [`crash_child_worker`]) with the journal directory in an
//! environment variable, waits until the child's journal records at
//! least two completed cells, and `SIGKILL`s it — no destructors, no
//! flushes, possibly a torn record mid-write. The resumed evaluation must
//! reuse every journaled cell verbatim, recompute only the missing
//! ones, and match the clean run bit for bit.

use dtb_core::policy::PolicyKind;
use dtb_sim::exec::Evaluation;
use dtb_sim::journal::{journal_path, read_journal};
use dtb_trace::programs::Program;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHILD_ENV: &str = "DTB_CRASH_CHILD_DIR";

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dtb-crash-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The matrix both processes run: one workload, all six collectors,
/// serial so the journal grows in a predictable order.
fn evaluation() -> Evaluation {
    Evaluation::new()
        .programs([Program::Cfrac])
        .policies(PolicyKind::ALL)
        .baselines(false)
        .parallelism(1)
}

/// Worker half of the crash test: does nothing unless spawned by
/// [`sigkilled_run_resumes_to_the_clean_matrix`] with the journal
/// directory in the environment. Paces itself half a second per cell so
/// the parent reliably kills it with cells still missing.
#[test]
fn crash_child_worker() {
    let Some(dir) = std::env::var_os(CHILD_ENV) else {
        return;
    };
    let _ = evaluation()
        .resume(PathBuf::from(dir))
        .on_cell(|_| std::thread::sleep(Duration::from_millis(500)))
        .run();
}

/// Counts durably journaled cells (a torn final record is not one).
fn journaled_cells(dir: &Path) -> usize {
    read_journal(dir)
        .ok()
        .flatten()
        .map_or(0, |journal| journal.cells.len())
}

#[test]
fn sigkilled_run_resumes_to_the_clean_matrix() {
    let dir = temp_dir("sigkill");
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .args(["crash_child_worker", "--exact", "--test-threads=1"])
        .env(CHILD_ENV, &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crash child");

    // Wait for two durable cells, then kill without ceremony.
    let deadline = Instant::now() + Duration::from_secs(60);
    while journaled_cells(&dir) < 2 {
        assert!(Instant::now() < deadline, "child never journaled two cells");
        assert!(
            child.try_wait().expect("child status").is_none(),
            "child finished before it could be killed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL the child");
    child.wait().expect("reap the child");

    let survived = read_journal(&dir)
        .expect("journal readable after SIGKILL")
        .expect("journal holds records after SIGKILL");
    let done_before = survived.cells.iter().filter(|c| c.is_completed()).count();
    assert!(
        done_before >= 2,
        "polled for two cells, found {done_before}"
    );
    assert!(
        done_before < PolicyKind::ALL.len(),
        "child was killed too late to leave work for the resume"
    );

    // Resume in this process: only the missing cells are computed.
    let computed = Arc::new(AtomicUsize::new(0));
    let counter = computed.clone();
    let resumed = evaluation()
        .resume(&dir)
        .on_cell(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        })
        .run();
    let computed = computed.load(Ordering::Relaxed);
    assert_eq!(computed, PolicyKind::ALL.len() - done_before);

    // Cell for cell, the crashed-and-resumed matrix is the clean matrix.
    let clean = evaluation().run();
    assert!(resumed.is_complete());
    for kind in PolicyKind::ALL {
        assert_eq!(
            resumed.get(Program::Cfrac, kind).unwrap(),
            clean.get(Program::Cfrac, kind).unwrap(),
            "{kind}: resumed cell diverges from the clean run"
        );
    }
    // Every attempt was a first attempt, journaled or fresh.
    for (_, cell) in resumed.cells() {
        assert_eq!(cell.attempts, 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a crash, resuming a finished journal recomputes nothing and
/// reproduces the matrix from disk alone.
#[test]
fn finished_journal_resumes_without_recomputing() {
    let dir = temp_dir("finished");
    let eval = || {
        Evaluation::new()
            .programs([Program::Cfrac])
            .policies([PolicyKind::Full, PolicyKind::DtbFm])
            .baselines(true)
    };
    let first = eval().journal(&dir).run();
    assert!(first.is_complete());

    let computed = Arc::new(AtomicUsize::new(0));
    let counter = computed.clone();
    let resumed = eval()
        .resume(&dir)
        .on_cell(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        })
        .run();
    // Baseline rows have no SimRun in the journal (they are recomputed —
    // they're cheap, exact, and carry no curve), so only policy rows are
    // skipped.
    assert!(computed.load(Ordering::Relaxed) <= 2);
    for (col, cell) in first.cells() {
        let twin = resumed
            .column_by_name(col.name())
            .unwrap()
            .cells
            .iter()
            .find(|c| c.row == cell.row)
            .unwrap();
        assert_eq!(cell.report(), twin.report(), "{} diverges", cell.row);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming against a directory with no journal — or a zero-byte one,
/// or one torn inside its first append, as a crash before the header
/// fsync leaves behind — is a fresh run with a warning, not an error.
/// Only interior corruption is refused.
#[test]
fn resume_with_missing_or_empty_journal_starts_fresh() {
    let eval = || {
        Evaluation::new()
            .programs([Program::Cfrac])
            .policies([PolicyKind::Full])
            .baselines(false)
    };
    let fresh = eval().run();
    let full = |matrix: &dtb_sim::Matrix| matrix.get(Program::Cfrac, PolicyKind::Full).cloned();

    // Missing directory entirely.
    let dir = temp_dir("fresh-missing");
    let matrix = eval().resume(&dir).try_run().expect("fresh run");
    assert!(matrix.is_complete());
    // The fresh run journaled its cells, so a second resume reuses them.
    let computed = Arc::new(AtomicUsize::new(0));
    let counter = computed.clone();
    let again = eval()
        .resume(&dir)
        .on_cell(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        })
        .run();
    assert!(again.is_complete());
    assert_eq!(computed.load(Ordering::Relaxed), 0);
    let _ = std::fs::remove_dir_all(&dir);

    // Zero-byte journal file (crash before the header line landed).
    let dir = temp_dir("fresh-empty");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(journal_path(&dir), b"").unwrap();
    let matrix = eval()
        .resume(&dir)
        .try_run()
        .expect("fresh run over empty journal");
    assert!(matrix.is_complete());
    let _ = std::fs::remove_dir_all(&dir);

    // Torn inside the first append: a prefix of the magic, or the magic
    // and part of the header frame. No record is intact, so the resume
    // is a fresh run and computes the fresh matrix.
    let dir = temp_dir("fresh-torn");
    let _ = eval().journal(&dir).run();
    let bytes = std::fs::read(journal_path(&dir)).unwrap();
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let header_end = 8 + 12 + header_len;
    for cut in [3, 8, 15, header_end - 1] {
        std::fs::write(journal_path(&dir), &bytes[..cut]).unwrap();
        let matrix = eval()
            .resume(&dir)
            .try_run()
            .unwrap_or_else(|e| panic!("torn at {cut}: {e}"));
        assert!(matrix.is_complete(), "torn at {cut}");
        assert_eq!(full(&matrix), full(&fresh), "torn at {cut}");
    }

    // Interior damage — a flipped byte in the header frame, with a cell
    // record after it — is still refused, and the file left as it was.
    let _ = eval().journal(&dir).run();
    let mut bytes = std::fs::read(journal_path(&dir)).unwrap();
    assert!(bytes.len() > header_end, "a cell record follows the header");
    bytes[header_end - 2] ^= 0x55;
    std::fs::write(journal_path(&dir), &bytes).unwrap();
    let err = eval().resume(&dir).try_run().unwrap_err();
    assert!(
        matches!(err, dtb_sim::CkpError::Corrupt { .. }),
        "expected interior damage to be refused, got {err}"
    );
    assert_eq!(std::fs::read(journal_path(&dir)).unwrap(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal from a differently-shaped evaluation is refused with a
/// typed mismatch, not silently mixed in.
#[test]
fn resume_refuses_a_foreign_journal() {
    let dir = temp_dir("foreign");
    let _ = Evaluation::new()
        .programs([Program::Cfrac])
        .policies([PolicyKind::Full])
        .baselines(false)
        .journal(&dir)
        .run();
    let err = Evaluation::new()
        .programs([Program::Cfrac])
        .policies([PolicyKind::Fixed1])
        .baselines(false)
        .resume(&dir)
        .try_run()
        .unwrap_err();
    assert!(
        matches!(err, dtb_sim::CkpError::Mismatch { .. }),
        "expected a typed journal mismatch, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
