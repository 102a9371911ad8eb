//! The seeded chaos drill, in-process: crash the coordinator mid-matrix
//! with disk faults armed and workers on a misbehaving wire, restart it
//! over the same directories, and prove the three recovery guarantees
//! end to end:
//!
//! 1. the recovered matrix is bit-identical to a clean single-process
//!    run (cell for cell, by report);
//! 2. every cell is finalized exactly once in the journal, crash or no
//!    crash — stale pre-crash leases are fenced by epoch;
//! 3. a follower that rode out the restart saw a gapless, duplicate-free
//!    event stream (per-epoch contiguous sequence numbers).
//!
//! Everything is scripted by a [`ChaosPlan`] derived from one seed, so a
//! failure reproduces from the seed alone. The `dtb-chaos` binary runs
//! the same drill against real processes with real SIGKILL.

use dtb_core::policy::{PolicyConfig, PolicyKind};
use dtb_sim::engine::SimConfig;
use dtb_sim::exec::{Evaluation, RetryPolicy};
use dtb_sim::journal::read_journal;
use dtb_svc::client::TcpTransport;
use dtb_svc::proto::{CompleteRequest, CompleteStatus, SweepSpec};
use dtb_svc::worker::{run_worker, WorkerConfig, WorkerExit};
use dtb_svc::{
    follow_events_resilient, journal_exactly_once, line_cursor, matrix_from_sweep,
    stream_continuity, ChaosPlan, Client, Coordinator, CoordinatorConfig, DiskFaults, EventCursor,
    FaultFuse, NetFault,
};
use dtb_trace::programs::Program;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dtb-chaos-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

const POLICIES: [PolicyKind; 2] = [PolicyKind::Full, PolicyKind::DtbFm];

fn spec() -> SweepSpec {
    SweepSpec {
        tenant: "chaos".to_string(),
        programs: vec![Program::Cfrac],
        policies: POLICIES.to_vec(),
        baselines: true,
        policy: PolicyConfig::paper(),
        sim: SimConfig::paper(),
    }
}

fn local_matrix() -> dtb_sim::exec::Matrix {
    Evaluation::new()
        .programs([Program::Cfrac])
        .policies(POLICIES)
        .baselines(true)
        .run()
}

/// Served == local, cell for cell, by report (bit-identical results).
fn assert_matrices_match(served: &dtb_sim::exec::Matrix, local: &dtb_sim::exec::Matrix) {
    assert!(served.is_complete(), "served matrix has failed cells");
    let mut compared = 0;
    for (col, cell) in local.cells() {
        let twin_col = served
            .column_by_name(col.name())
            .unwrap_or_else(|| panic!("served matrix misses column {}", col.name()));
        let twin = twin_col
            .cells
            .iter()
            .find(|c| c.row == cell.row)
            .unwrap_or_else(|| panic!("served matrix misses cell {}/{}", col.name(), cell.row));
        assert_eq!(
            cell.report(),
            twin.report(),
            "{}/{}: recovered cell diverges from the clean run",
            col.name(),
            cell.row
        );
        compared += 1;
    }
    assert!(compared > 0, "nothing compared");
}

/// The drill. One seed scripts the whole failure schedule: where the
/// crash lands, the per-worker wire faults, and how many journal /
/// results appends are sabotaged on the restarted incarnation.
#[test]
fn seeded_crash_drill_recovers_bit_identical() {
    let seed = 0xC0FFEE;
    let total = (POLICIES.len() + 2) as u64;
    let plan = ChaosPlan::from_seed(seed, total, 2);
    let kill_at = plan.coordinator_kills[0].min(total - 1).max(1);

    let journal_dir = temp_dir("drill");
    let results_path = journal_dir.join("results.bin");
    let lease = Duration::from_secs(3);

    // ── incarnation A: a journal-fault charge armed from the start ──
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            lease_timeout: lease,
            retry: RetryPolicy::retries(2),
            journal_dir: Some(journal_dir.clone()),
            results_path: Some(results_path.clone()),
            disk_faults: DiskFaults {
                journal: FaultFuse::charges(plan.journal_faults),
                results: FaultFuse::none(),
            },
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator A");
    let addr = coordinator.addr().to_string();
    let sweep = coordinator.submit(spec()).expect("submit sweep");

    // ── follower: rides the restart on its epoch-tagged cursor ──
    let stop = Arc::new(AtomicBool::new(false));
    let cursors: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let follower = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        let cursors = Arc::clone(&cursors);
        std::thread::spawn(move || {
            follow_events_resilient(
                &addr,
                EventCursor::start(),
                Duration::from_secs(60),
                &stop,
                |line| {
                    let at = line_cursor(line).expect("every event line is cursor-tagged");
                    cursors.lock().unwrap().push((at.epoch, at.seq));
                    true
                },
            )
        })
    };

    // ── workers: reconnect windows on, one over the plan's faulty wire ──
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let wire = plan.net[i];
            std::thread::spawn(move || {
                let transport = NetFault::new(TcpTransport::new(addr), wire);
                let mut client =
                    Client::with_transport(Box::new(transport), RetryPolicy::retries(8));
                let mut config = WorkerConfig::new(format!("chaos-w{i}"));
                config.exit_when_done = true;
                config.cell_delay = Duration::from_millis(150);
                config.reconnect = Some(Duration::from_secs(60));
                run_worker(&mut client, &config)
            })
        })
        .collect();

    // Steal one lease and sit on it: this token must be fenced out by
    // the restarted epoch, never recorded.
    let mut prober = Client::connect(&addr);
    let stale = loop {
        let reply = prober.lease("stale-prober").expect("prober lease");
        if let Some(task) = reply.task {
            break task;
        }
        std::thread::sleep(Duration::from_millis(20));
    };

    // Let the matrix make the plan's scripted progress, then crash.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "matrix never got under way");
        let status = prober.status().expect("status");
        let progress = status.sweeps.iter().find(|s| s.sweep == sweep).unwrap();
        if progress.finalized >= kill_at {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    coordinator.shutdown();
    // Give detached in-flight request handlers (which share the old
    // state) a moment to finish before a new incarnation opens the same
    // files — the process-level driver gets this for free from SIGKILL.
    std::thread::sleep(Duration::from_millis(300));

    // ── incarnation B: same dirs, same port, skewed lease clock, a
    // torn-results charge armed ──
    let (num, den) = plan.lease_skew;
    let skewed = Duration::from_millis((lease.as_millis() as u64).saturating_mul(num) / den);
    let restarted = {
        let bind_deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Coordinator::bind(
                addr.as_str(),
                CoordinatorConfig {
                    lease_timeout: skewed.max(Duration::from_millis(500)),
                    retry: RetryPolicy::retries(2),
                    journal_dir: Some(journal_dir.clone()),
                    results_path: Some(results_path.clone()),
                    disk_faults: DiskFaults {
                        journal: FaultFuse::none(),
                        results: FaultFuse::charges(plan.results_faults),
                    },
                    ..CoordinatorConfig::default()
                },
            ) {
                Ok(c) => break c,
                Err(e) => {
                    assert!(
                        Instant::now() < bind_deadline,
                        "cannot rebind {addr} after shutdown: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
    };
    assert_eq!(restarted.epoch(), 2, "second incarnation bumps the epoch");
    let report = restarted.recovery_report();
    assert_eq!(report.sweeps, 1, "the sweep log re-admitted the sweep");
    assert!(
        report.finalized >= kill_at,
        "journal replay kept pre-crash finalizations ({} < {kill_at})",
        report.finalized
    );

    // The pre-crash lease is from a dead epoch: fenced, never recorded.
    let fenced = prober
        .complete(&CompleteRequest {
            sweep: stale.sweep,
            cell: stale.cell,
            lease: stale.lease,
            worker: "stale-prober".to_string(),
            run: None,
            failure: Some("stale result from before the crash".to_string()),
            transient: false,
            elapsed_ns: 1,
        })
        .expect("fenced completion still answers");
    assert_eq!(
        fenced.status,
        CompleteStatus::LeaseLost,
        "pre-crash lease must be fenced by the new epoch"
    );

    // ── convergence ──
    let reply = prober
        .wait_sweep(
            sweep,
            Duration::from_millis(100),
            Some(Duration::from_secs(180)),
        )
        .expect("sweep converges after the crash");
    assert!(reply.done);
    assert_eq!(reply.total, total);
    for worker in workers {
        match worker.join().expect("worker thread") {
            WorkerExit::Drained => {}
            WorkerExit::Lost(e) => panic!("worker did not ride out the restart: {e}"),
        }
    }

    // Re-completing an already-finalized cell answers Duplicate — the
    // first durable record won, across the crash.
    let dup = prober
        .complete(&CompleteRequest {
            sweep: stale.sweep,
            cell: stale.cell,
            lease: stale.lease,
            worker: "stale-prober".to_string(),
            run: None,
            failure: Some("echo".to_string()),
            transient: false,
            elapsed_ns: 1,
        })
        .expect("duplicate completion answers");
    assert_eq!(dup.status, CompleteStatus::Duplicate);

    stop.store(true, Ordering::Relaxed);
    let matrix = matrix_from_sweep(&reply);
    restarted.shutdown();
    follower
        .join()
        .expect("follower thread")
        .expect("follower survived the drill");

    // 1. Bit-identical to the clean run.
    assert_matrices_match(&matrix, &local_matrix());

    // 2. Exactly one finalization per cell, across both incarnations.
    let journal = read_journal(journal_dir.join(format!("sweep-{sweep}")))
        .expect("journal reads back")
        .expect("journal holds records");
    assert_eq!(journal.cells.len() as u64, total, "one line per cell");
    let keys: Vec<(String, String)> = journal
        .cells
        .iter()
        .map(|c| (c.column.clone(), c.row.clone()))
        .collect();
    journal_exactly_once(&keys).expect("no cell finalized twice");

    // 3. The resumed stream has no gaps or duplicates, and really did
    // span both epochs.
    let seen = cursors.lock().unwrap();
    stream_continuity(&seen).expect("gapless, duplicate-free stream");
    let epochs: std::collections::HashSet<u64> = seen.iter().map(|&(e, _)| e).collect();
    assert!(
        epochs.contains(&1) && epochs.contains(&2),
        "follower should have streamed from both incarnations: {epochs:?}"
    );

    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// Same plan, same seed, twice: the schedule is bit-for-bit identical —
/// the replayability contract the drill's failure reports rely on.
#[test]
fn chaos_plans_replay_from_the_seed() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let a = ChaosPlan::from_seed(seed, 8, 3);
        let b = ChaosPlan::from_seed(seed, 8, 3);
        assert_eq!(a.coordinator_kills, b.coordinator_kills);
        assert_eq!(a.worker_kill, b.worker_kill);
        assert_eq!(a.journal_faults, b.journal_faults);
        assert_eq!(a.results_faults, b.results_faults);
        assert_eq!(a.lease_skew, b.lease_skew);
        for (x, y) in a.net.iter().zip(&b.net) {
            assert_eq!(x.drop_every, y.drop_every);
            assert_eq!(x.garble_every, y.garble_every);
            assert_eq!(x.replay_every, y.replay_every);
        }
    }
}
