//! The distributed service end to end: real coordinator, real worker
//! *processes*, real crashes.
//!
//! The centerpiece SIGKILLs a worker mid-matrix — no destructors, no
//! goodbye to the coordinator, a lease left dangling — and proves the
//! served sweep still converges to the matrix a single-process
//! [`Evaluation::run`] produces, cell for cell, with exactly one journal
//! line per cell. The chaos test runs a worker over a deterministically
//! misbehaving wire (drops, garbled responses, stale replays) and asserts
//! the same convergence.

use dtb_core::policy::{PolicyConfig, PolicyKind};
use dtb_sim::engine::SimConfig;
use dtb_sim::exec::{Evaluation, RetryPolicy};
use dtb_sim::journal::read_journal;
use dtb_svc::client::TcpTransport;
use dtb_svc::proto::SweepSpec;
use dtb_svc::worker::{run_worker, WorkerConfig, WorkerExit};
use dtb_svc::{matrix_from_sweep, Client, Coordinator, CoordinatorConfig, FaultPlan, NetFault};
use dtb_trace::programs::Program;
use std::collections::HashSet;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dtb-svc-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sweep both tests serve: one workload, every collector, baselines.
fn spec(tenant: &str, policies: &[PolicyKind]) -> SweepSpec {
    SweepSpec {
        tenant: tenant.to_string(),
        programs: vec![Program::Cfrac],
        policies: policies.to_vec(),
        baselines: true,
        policy: PolicyConfig::paper(),
        sim: SimConfig::paper(),
    }
}

/// The single-process ground truth for [`spec`].
fn local_matrix(policies: &[PolicyKind]) -> dtb_sim::exec::Matrix {
    Evaluation::new()
        .programs([Program::Cfrac])
        .policies(policies.iter().copied())
        .baselines(true)
        .run()
}

/// Asserts the served matrix equals the local one, cell for cell, by
/// report (attempts may legitimately differ — that is the point of the
/// crash tests).
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
            "{}/{}: served cell diverges from the single-process run",
            col.name(),
            cell.row
        );
        compared += 1;
    }
    assert!(compared > 0, "nothing compared");
}

fn spawn_worker(addr: &str, name: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_dtb-worker"))
        .args([
            "--addr",
            addr,
            "--name",
            name,
            "--exit-when-done",
            "--cell-delay-ms",
            "250",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dtb-worker")
}

/// The coordinator crashes mid-matrix; real worker *processes* started
/// with `--reconnect-ms` ride out the downtime, a new incarnation
/// recovers from the same journal directory on the same port, and the
/// sweep converges to the clean matrix with exactly one journal line
/// per cell — no worker restarts, no resubmission.
#[test]
fn workers_ride_out_a_coordinator_restart() {
    let journal_dir = temp_dir("restart");
    let results_path = journal_dir.join("results.bin");
    let config = || CoordinatorConfig {
        lease_timeout: Duration::from_secs(4),
        retry: RetryPolicy::retries(2),
        journal_dir: Some(journal_dir.clone()),
        results_path: Some(results_path.clone()),
        ..CoordinatorConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", config()).expect("bind coordinator");
    let addr = coordinator.addr().to_string();

    let policies = &PolicyKind::ALL[..];
    let sweep = coordinator
        .submit(spec("restart-tenant", policies))
        .expect("submit sweep");
    let total = (policies.len() + 2) as u64;

    let spawn_patient = |name: &str| {
        Command::new(env!("CARGO_BIN_EXE_dtb-worker"))
            .args([
                "--addr",
                &addr,
                "--name",
                name,
                "--exit-when-done",
                "--cell-delay-ms",
                "250",
                "--reconnect-ms",
                "60000",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn dtb-worker")
    };
    let mut workers = vec![spawn_patient("patient-1"), spawn_patient("patient-2")];

    // Let the matrix get demonstrably under way, then take the
    // coordinator down mid-flight — leases outstanding, workers mid-cell.
    let mut client = Client::connect(&addr);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "matrix never got under way");
        let status = client.status().expect("status");
        let progress = status.sweeps.iter().find(|s| s.sweep == sweep).unwrap();
        if progress.finalized >= 2 && progress.finalized < total {
            break;
        }
        assert!(progress.finalized < total, "matrix finished too fast");
        std::thread::sleep(Duration::from_millis(5));
    }
    coordinator.shutdown();
    // Let detached in-flight handlers (sharing the old state) finish
    // before the new incarnation opens the same journal files.
    std::thread::sleep(Duration::from_millis(300));

    let restarted = {
        let bind_deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Coordinator::bind(addr.as_str(), config()) {
                Ok(c) => break c,
                Err(e) => {
                    assert!(Instant::now() < bind_deadline, "cannot rebind {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
    };
    assert_eq!(restarted.epoch(), 2);
    assert_eq!(restarted.recovery_report().sweeps, 1);

    // The same worker processes finish the matrix against the new
    // incarnation.
    let reply = client
        .wait_sweep(
            sweep,
            Duration::from_millis(100),
            Some(Duration::from_secs(120)),
        )
        .expect("sweep converges across the restart");
    assert!(reply.done);
    assert_eq!(reply.total, total);
    assert_matrices_match(&matrix_from_sweep(&reply), &local_matrix(policies));

    for worker in &mut workers {
        let exit = worker.wait().expect("reap worker");
        assert!(exit.success(), "worker exited {exit:?}");
    }

    // Exactly-once across incarnations: one journal line per cell.
    let journal = read_journal(journal_dir.join(format!("sweep-{sweep}")))
        .expect("journal reads back")
        .expect("journal holds records");
    assert_eq!(journal.cells.len() as u64, total, "one line per cell");
    let distinct: HashSet<(String, String)> = journal
        .cells
        .iter()
        .map(|c| (c.column.clone(), c.row.clone()))
        .collect();
    assert_eq!(distinct.len() as u64, total, "no cell journaled twice");

    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// Two real worker processes; one is SIGKILLed mid-matrix. The dangling
/// lease expires, the survivor picks the cell up, and the served matrix
/// equals the single-process run — with exactly one journal line per
/// cell despite the crash.
#[test]
fn sigkilled_worker_converges_to_the_clean_matrix() {
    let journal_dir = temp_dir("sigkill");
    let config = CoordinatorConfig {
        lease_timeout: Duration::from_secs(4),
        retry: RetryPolicy::retries(2),
        journal_dir: Some(journal_dir.clone()),
        ..CoordinatorConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", config).expect("bind coordinator");
    let addr = coordinator.addr().to_string();

    let policies = &PolicyKind::ALL[..];
    let sweep = coordinator
        .submit(spec("crash-tenant", policies))
        .expect("submit sweep");
    let total = (policies.len() + 2) as u64;

    let mut victim = spawn_worker(&addr, "victim");
    let mut survivor = spawn_worker(&addr, "survivor");

    // Wait until the matrix is demonstrably in flight, then kill the
    // victim without ceremony — mid-cell, lease outstanding.
    let mut client = Client::connect(&addr);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "matrix never got under way");
        let status = client.status().expect("status");
        let progress = status.sweeps.iter().find(|s| s.sweep == sweep).unwrap();
        if progress.finalized >= 2 {
            assert!(
                progress.finalized < total,
                "matrix finished before the victim could be killed; slow the pacing down"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.kill().expect("SIGKILL the victim");
    victim.wait().expect("reap the victim");

    // The survivor finishes everything, including the victim's expired
    // lease. Deadline is generous: lease expiry alone costs 4 s.
    let reply = client
        .wait_sweep(
            sweep,
            Duration::from_millis(100),
            Some(Duration::from_secs(120)),
        )
        .expect("sweep converges after the crash");
    assert!(reply.done);
    assert_eq!(reply.total, total);

    assert_matrices_match(&matrix_from_sweep(&reply), &local_matrix(policies));

    // Exactly-once, structurally: one journal line per cell, every cell.
    let journal = read_journal(journal_dir.join(format!("sweep-{sweep}")))
        .expect("served journal reads")
        .expect("served journal holds records");
    assert_eq!(journal.cells.len() as u64, total, "one line per cell");
    let distinct: HashSet<(String, String)> = journal
        .cells
        .iter()
        .map(|c| (c.column.clone(), c.row.clone()))
        .collect();
    assert_eq!(distinct.len() as u64, total, "no cell journaled twice");
    assert!(journal.cells.iter().all(|c| c.is_completed()));

    let survivor_exit = survivor.wait().expect("reap the survivor");
    assert!(survivor_exit.success(), "survivor exited {survivor_exit:?}");
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// A worker over a misbehaving wire — dropped connections, garbled
/// responses, stale request replays — still converges to the clean
/// matrix: wire failures retry, duplicates answer `Duplicate`, stale
/// lease echoes answer `LeaseLost`, and nothing double-records.
#[test]
fn faulty_wire_converges_to_the_clean_matrix() {
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            lease_timeout: Duration::from_secs(10),
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator");
    let addr = coordinator.addr().to_string();

    let policies = [PolicyKind::Full, PolicyKind::DtbFm];
    let sweep = coordinator
        .submit(spec("chaos-tenant", &policies))
        .expect("submit sweep");

    let plan = FaultPlan {
        drop_every: Some(3),
        garble_every: Some(5),
        replay_every: Some(7),
        delay_every: None,
    };
    let worker_addr = addr.clone();
    let worker = std::thread::spawn(move || {
        let transport = NetFault::new(TcpTransport::new(worker_addr), plan);
        let mut client = Client::with_transport(Box::new(transport), RetryPolicy::retries(8));
        let config = WorkerConfig {
            exit_when_done: true,
            ..WorkerConfig::new("chaos-worker")
        };
        run_worker(&mut client, &config)
    });

    let mut client = Client::connect(&addr);
    let reply = client
        .wait_sweep(
            sweep,
            Duration::from_millis(50),
            Some(Duration::from_secs(120)),
        )
        .expect("sweep converges over a faulty wire");
    assert!(reply.done);
    assert_matrices_match(&matrix_from_sweep(&reply), &local_matrix(&policies));

    match worker.join().expect("worker thread") {
        WorkerExit::Drained => {}
        WorkerExit::Lost(e) => panic!("worker lost the coordinator: {e}"),
    }
    coordinator.shutdown();
}

/// Per-tenant quotas bind: a tenant capped well below the workload's
/// event count sees every cell quarantined with a budget failure, while
/// an uncapped tenant's identical sweep completes — and the quarantine
/// cause is carried through to the served matrix's failure rendering.
#[test]
fn tenant_quota_quarantines_only_the_capped_tenant() {
    let mut config = CoordinatorConfig {
        lease_timeout: Duration::from_secs(30),
        retry: RetryPolicy::retries(0),
        ..CoordinatorConfig::default()
    };
    config
        .quotas
        .insert("capped".to_string(), dtb_sim::SimBudget::events(10));
    let coordinator = Coordinator::bind("127.0.0.1:0", config).expect("bind coordinator");
    let addr = coordinator.addr().to_string();

    let policies = [PolicyKind::Full];
    let capped = coordinator
        .submit(spec("capped", &policies))
        .expect("submit capped");
    let free = coordinator
        .submit(spec("free", &policies))
        .expect("submit free");

    let worker_addr = addr.clone();
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(worker_addr);
        let config = WorkerConfig {
            exit_when_done: true,
            ..WorkerConfig::new("quota-worker")
        };
        run_worker(&mut client, &config)
    });

    let mut client = Client::connect(&addr);
    let capped_reply = client
        .wait_sweep(
            capped,
            Duration::from_millis(50),
            Some(Duration::from_secs(120)),
        )
        .expect("capped sweep finishes");
    let free_reply = client
        .wait_sweep(
            free,
            Duration::from_millis(50),
            Some(Duration::from_secs(120)),
        )
        .expect("free sweep finishes");
    assert!(matches!(
        worker.join().expect("worker"),
        WorkerExit::Drained
    ));
    coordinator.shutdown();

    // The free tenant's matrix is clean.
    assert_matrices_match(&matrix_from_sweep(&free_reply), &local_matrix(&policies));

    // The capped tenant's policy cell hit its budget; baselines are
    // event-free and survive.
    let policy_cell = capped_reply
        .cells
        .iter()
        .find(|c| c.row == dtb_core::policy::Row::Policy(PolicyKind::Full).to_string())
        .expect("policy cell served");
    let cause = policy_cell
        .failure
        .as_deref()
        .expect("policy cell quarantined");
    assert!(
        cause.contains("budget"),
        "unexpected quarantine cause: {cause}"
    );

    // And the cause survives reassembly into the executor's shape.
    let matrix = matrix_from_sweep(&capped_reply);
    assert!(!matrix.is_complete());
}
