//! Property tests for crash recovery: no state the disk can be left in
//! — truncated tails from a crash mid-append, or arbitrary bit flips
//! from a dying device — may panic `Coordinator` recovery, and no such
//! state may ever lead to a cell being finalized twice.
//!
//! The contract under test, split by corruption class:
//!
//! * **tail truncation** (what a real crash leaves): recovery must
//!   *succeed* — every store drops its torn tail and the matrix can be
//!   driven to completion with exactly one journal line per cell;
//! * **interior corruption** (bit rot): recovery must return `Ok` or a
//!   typed refusal, never panic — and when it accepts, the journal
//!   still ends exactly-once.
//!
//! The fixture triple (sweep log + finalization journal + results
//! store) is built once by driving a real coordinator, then mutated
//! per case; completions use synthetic failures so no case pays for a
//! simulation.

use dtb_core::policy::{PolicyConfig, PolicyKind};
use dtb_sim::engine::SimConfig;
use dtb_sim::exec::RetryPolicy;
use dtb_sim::journal::read_journal;
use dtb_svc::http::Request;
use dtb_svc::proto::{
    decode, encode, CompleteRequest, LeaseReply, LeaseRequest, SweepSpec, PROTO_VERSION,
};
use dtb_svc::{journal_exactly_once, Coordinator, CoordinatorConfig};
use dtb_trace::programs::Program;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const TOTAL_CELLS: u64 = 3; // Cfrac × (Full + NoGc + Live)
const PREFINALIZED: u64 = 2;

fn spec() -> SweepSpec {
    SweepSpec {
        tenant: "prop".to_string(),
        programs: vec![Program::Cfrac],
        policies: vec![PolicyKind::Full],
        baselines: true,
        policy: PolicyConfig::paper(),
        sim: SimConfig::paper(),
    }
}

fn config_for(dir: &Path) -> CoordinatorConfig {
    CoordinatorConfig {
        retry: RetryPolicy::retries(0),
        journal_dir: Some(dir.to_path_buf()),
        results_path: Some(dir.join("results.bin")),
        ..CoordinatorConfig::default()
    }
}

/// Leases one cell in-process; `None` when the coordinator has nothing
/// open.
fn lease_one(coordinator: &Coordinator, worker: &str) -> Option<dtb_svc::proto::CellTask> {
    let resp = coordinator.handle(&Request {
        method: "POST".to_string(),
        path: "/lease".to_string(),
        body: encode(&LeaseRequest {
            proto: PROTO_VERSION,
            worker: worker.to_string(),
        }),
    });
    assert_eq!(resp.status, 200, "lease refused");
    let reply: LeaseReply = decode(&resp.body).expect("lease reply decodes");
    reply.task
}

/// Finalizes one leased cell with a synthetic permanent failure (no
/// simulation runs in these tests; a quarantined cell is just as
/// journaled as a completed one).
fn complete_synthetic(coordinator: &Coordinator, task: &dtb_svc::proto::CellTask) -> u16 {
    let resp = coordinator.handle(&Request {
        method: "POST".to_string(),
        path: "/complete".to_string(),
        body: encode(&CompleteRequest {
            sweep: task.sweep,
            cell: task.cell,
            lease: task.lease,
            worker: "prop-worker".to_string(),
            run: None,
            failure: Some("synthetic: proptest fixture".to_string()),
            transient: false,
            elapsed_ns: 7,
        }),
    });
    resp.status
}

/// One file of the fixture triple: path relative to the journal dir,
/// plus its bytes.
type Snapshot = Vec<(PathBuf, Vec<u8>)>;

fn snapshot_tree(root: &Path, prefix: &Path, out: &mut Snapshot) {
    for entry in std::fs::read_dir(root).expect("read fixture dir") {
        let entry = entry.expect("dir entry");
        let path = entry.path();
        let rel = prefix.join(entry.file_name());
        if path.is_dir() {
            snapshot_tree(&path, &rel, out);
        } else {
            out.push((rel, std::fs::read(&path).expect("read fixture file")));
        }
    }
}

/// Builds the valid triple once: a coordinator over real dirs, one
/// submitted sweep, two of three cells finalized, then a clean
/// shutdown. Returns every file as (relative path, bytes).
fn fixture() -> &'static Snapshot {
    static FIXTURE: OnceLock<Snapshot> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("dtb-recover-fixture-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        let coordinator =
            Coordinator::bind("127.0.0.1:0", config_for(&dir)).expect("bind fixture coordinator");
        coordinator.submit(spec()).expect("submit fixture sweep");
        for _ in 0..PREFINALIZED {
            let task = lease_one(&coordinator, "fixture").expect("open cell to lease");
            assert_eq!(complete_synthetic(&coordinator, &task), 200);
        }
        coordinator.shutdown();
        let mut files = Snapshot::new();
        snapshot_tree(&dir, Path::new(""), &mut files);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            files.iter().any(|(p, _)| p.ends_with("sweeps.log")),
            "fixture misses the sweep log"
        );
        assert!(files.len() >= 3, "fixture should be a triple: {files:?}");
        files
    })
}

/// Materializes a (possibly mutated) snapshot into a fresh directory.
fn materialize(files: &Snapshot, tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dtb-recover-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (rel, bytes) in files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent"))
            .expect("create parent dir");
        std::fs::write(&path, bytes).expect("write fixture file");
    }
    dir
}

/// Drives every still-open cell to finalization, then asserts the
/// journal holds each cell at most once — the exactly-once property
/// that must survive whatever the corruption did.
fn drive_and_check_exactly_once(coordinator: &Coordinator, dir: &Path) {
    for _ in 0..(TOTAL_CELLS * 2) {
        match lease_one(coordinator, "prop-driver") {
            Some(task) => assert_eq!(complete_synthetic(coordinator, &task), 200),
            None => break,
        }
    }
    for entry in std::fs::read_dir(dir).expect("read recovered dir") {
        let path = entry.expect("entry").path();
        if !path.is_dir() {
            continue;
        }
        let Ok(Some(journal)) = read_journal(&path) else {
            continue;
        };
        let keys: Vec<(String, String)> = journal
            .cells
            .iter()
            .map(|c| (c.column.clone(), c.row.clone()))
            .collect();
        journal_exactly_once(&keys).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            keys.len() as u64 <= TOTAL_CELLS,
            "{}: more journal lines than cells",
            path.display()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A crash tears tails, it does not rewrite interiors: recovery over
    /// any tail-truncated file of the triple must *succeed*, keep every
    /// surviving finalization final, and drive to an exactly-once
    /// journal.
    #[test]
    fn tail_truncation_always_recovers(
        which in 0usize..16,
        cut in 1usize..64,
    ) {
        let mut files = fixture().clone();
        let target = which % files.len();
        let (_, bytes) = &mut files[target];
        let keep = bytes.len().saturating_sub(cut);
        bytes.truncate(keep);
        let dir = materialize(&files, "trunc");

        let coordinator = Coordinator::bind("127.0.0.1:0", config_for(&dir))
            .expect("tail truncation must never refuse recovery");
        let report = coordinator.recovery_report();
        prop_assert!(report.sweeps <= 1);
        prop_assert!(report.finalized <= PREFINALIZED,
            "recovery invented finalizations: {}", report.finalized);
        drive_and_check_exactly_once(&coordinator, &dir);
        coordinator.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arbitrary interior corruption: flipped bits anywhere in any file
    /// of the triple. Recovery may accept (dropping what checksums
    /// reject) or refuse with a typed error — but it may never panic,
    /// and acceptance still ends exactly-once.
    #[test]
    fn bit_flips_never_panic_and_never_double_finalize(
        flips in prop::collection::vec((0usize..1_000_000, 0usize..1_000_000, 1u8..=255), 1..5),
    ) {
        let mut files = fixture().clone();
        for (file_idx, byte_idx, mask) in flips {
            let target = file_idx % files.len();
            let (_, bytes) = &mut files[target];
            if !bytes.is_empty() {
                let i = byte_idx % bytes.len();
                bytes[i] ^= mask;
            }
        }
        let dir = materialize(&files, "flip");

        // Ok or typed refusal — reaching either without panicking is
        // the property.
        match Coordinator::bind("127.0.0.1:0", config_for(&dir)) {
            Ok(coordinator) => {
                let report = coordinator.recovery_report();
                prop_assert!(report.finalized <= PREFINALIZED);
                drive_and_check_exactly_once(&coordinator, &dir);
                coordinator.shutdown();
            }
            Err(e) => {
                // The refusal must be the typed recovery error, not an
                // incidental bind failure.
                prop_assert!(e.to_string().contains("recovery refused"), "{e}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
