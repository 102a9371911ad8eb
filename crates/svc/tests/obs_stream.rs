//! The observability layer end to end: a coordinator, an in-process
//! worker relaying per-scavenge telemetry, and `/events` followers
//! tailing the run live.
//!
//! The centerpiece drives a full sweep while two followers watch: one
//! stays to the end and must see the complete, monotone lifecycle —
//! `sweep_submitted`, a `cell_recorded` per cell, `sweep_drained` —
//! plus the worker's relayed scavenge spans; the other disconnects
//! mid-stream, and the run must not care. Afterwards `GET /results`
//! must reassemble (via [`matrix_from_cells`]) into exactly the matrix
//! the sweep reply carries, which the sibling suite already proves
//! equal to a single-process run.

use dtb_core::policy::{PolicyConfig, PolicyKind};
use dtb_sim::engine::SimConfig;
use dtb_svc::proto::SweepSpec;
use dtb_svc::worker::{run_worker, WorkerConfig, WorkerExit};
use dtb_svc::{
    follow_events, matrix_from_cells, matrix_from_sweep, Client, Coordinator, CoordinatorConfig,
};
use dtb_trace::programs::Program;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Events of one `type` among captured follower lines (crude but
/// sufficient: the coordinator emits compact single-line JSON).
fn lines_of<'a>(lines: &'a [String], tag: &str) -> Vec<&'a String> {
    let needle = format!("\"type\":\"{tag}\"");
    lines.iter().filter(|l| l.contains(&needle)).collect()
}

#[test]
fn followers_see_the_lifecycle_and_results_match_the_sweep() {
    let coordinator =
        Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default()).expect("bind coordinator");
    let addr = coordinator.addr().to_string();

    // Followers attach before anything happens; `from=1` means a late
    // TCP handshake still replays the full (bounded) log.
    let stop = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(Mutex::new(Vec::<String>::new()));
    let follower = {
        let (addr, stop, seen) = (addr.clone(), stop.clone(), seen.clone());
        std::thread::spawn(move || {
            follow_events(&addr, 1, &stop, |line| {
                seen.lock().unwrap().push(line.to_string());
                true
            })
        })
    };
    // The doomed follower hangs up after two events, mid-sweep. The
    // coordinator must shrug: a dead follower is a failed write on the
    // streaming thread, never a perturbation of the run.
    let doomed = {
        let (addr, stop) = (addr.clone(), Arc::new(AtomicBool::new(false)));
        let stop2 = stop.clone();
        std::thread::spawn(move || {
            let mut n = 0u32;
            follow_events(&addr, 1, &stop2, move |_| {
                n += 1;
                n < 2
            })
        })
    };

    let policies = [PolicyKind::Full, PolicyKind::DtbFm];
    let spec = SweepSpec {
        tenant: "obs-tenant".to_string(),
        programs: vec![Program::Cfrac],
        policies: policies.to_vec(),
        baselines: true,
        policy: PolicyConfig::paper(),
        sim: SimConfig::paper(),
    };
    let sweep = coordinator.submit(spec.clone()).expect("submit sweep");
    let total = (policies.len() + 2) as u64;

    // One in-process worker, relaying per-scavenge telemetry.
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr);
            let mut config = WorkerConfig::new("obs-worker".to_string());
            config.exit_when_done = true;
            config.relay_events = true;
            run_worker(&mut client, &config)
        })
    };

    let mut client = Client::connect(&addr);
    let reply = client
        .wait_sweep(
            sweep,
            Duration::from_millis(50),
            Some(Duration::from_secs(120)),
        )
        .expect("sweep completes");
    assert!(reply.done);
    assert_eq!(reply.total, total);
    assert!(matches!(
        worker.join().expect("worker thread"),
        WorkerExit::Drained
    ));

    // The doomed follower is long gone and the sweep still finished.
    assert!(doomed.join().expect("doomed follower thread").is_ok());

    // `/results` serves every finalized cell, and reassembles into the
    // exact matrix the sweep reply carries — both read the same sweep
    // state.
    let results = client.results(sweep).expect("results reply");
    assert_eq!(results.sweep, sweep);
    assert_eq!(results.stored, total);
    assert_eq!(results.total, total);
    assert!(results.complete);
    let from_results = matrix_from_cells(&spec, &results.cells);
    let from_sweep = matrix_from_sweep(&reply);
    assert!(from_results.is_complete());
    let mut compared = 0;
    for (col, cell) in from_sweep.cells() {
        let twin = from_results
            .column_by_name(col.name())
            .and_then(|c| c.cells.iter().find(|c| c.row == cell.row))
            .unwrap_or_else(|| panic!("results matrix misses {}/{}", col.name(), cell.row));
        assert_eq!(
            cell.report(),
            twin.report(),
            "{}/{} diverges",
            col.name(),
            cell.row
        );
        assert_eq!(cell.attempts, twin.attempts);
        compared += 1;
    }
    assert_eq!(compared as u64, total);

    // Shutting down closes the event stream; the surviving follower
    // drains cleanly and we can audit what it saw.
    coordinator.shutdown();
    follower
        .join()
        .expect("follower thread")
        .expect("follow_events");
    let lines = seen.lock().unwrap().clone();

    assert_eq!(lines_of(&lines, "sweep_submitted").len(), 1);
    assert_eq!(
        lines_of(&lines, "cell_recorded").len() as u64,
        total,
        "one cell_recorded per cell"
    );
    assert_eq!(lines_of(&lines, "sweep_drained").len(), 1);
    assert!(
        !lines_of(&lines, "worker_event").is_empty(),
        "the worker's relayed scavenge spans reach followers"
    );
    // Monotone progress: every line carries the log's epoch-tagged
    // cursor with a strictly increasing seq, and the drain closes the
    // lifecycle after the last recording.
    let cursors: Vec<dtb_svc::EventCursor> = lines
        .iter()
        .map(|l| dtb_svc::line_cursor(l).expect("framed with an (epoch, seq) cursor"))
        .collect();
    assert!(
        cursors.iter().all(|c| c.epoch == 1),
        "a single incarnation streams a single epoch"
    );
    assert!(
        cursors.windows(2).all(|w| w[0].seq < w[1].seq),
        "seqs strictly increase"
    );
    let last_recorded = lines
        .iter()
        .rposition(|l| l.contains("\"type\":\"cell_recorded\""))
        .unwrap();
    let drained = lines
        .iter()
        .position(|l| l.contains("\"type\":\"sweep_drained\""))
        .unwrap();
    assert!(drained > last_recorded, "drain follows the final recording");
}
