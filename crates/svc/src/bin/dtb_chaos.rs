//! `dtb-chaos`: the seeded chaos drill against **real processes**.
//!
//! ```text
//! dtb-chaos --seed 42 --workers 2 --dir chaos-artifacts
//! ```
//!
//! Derives a [`ChaosPlan`] from the seed, then executes it with real
//! SIGKILL: a `dtb-coordinator` process is killed (no destructors, no
//! goodbye) at scripted finalized-cell counts and restarted over the
//! same journal directory on the same port — with a skewed lease clock
//! and disk-write faults armed; one `dtb-worker` process is killed and
//! replaced mid-matrix; every worker runs over a deterministically
//! misbehaving wire; a resilient follower rides the restarts on its
//! epoch-tagged cursor.
//!
//! The drill passes when, despite all of that:
//!
//! 1. the served matrix is **bit-identical** (by report) to a clean
//!    in-process run of the same spec;
//! 2. the journal finalizes every cell **exactly once**;
//! 3. the follower's stream has **no gaps or duplicates** within any
//!    epoch, and spans every incarnation.
//!
//! Exit 0 = all three hold; exit 1 = a violation, with the seed and the
//! artifact directory (coordinator/worker logs, journal, results store,
//! followed stream) printed for replay. The same seed always replays
//! the same schedule.

use dtb_core::policy::PolicyKind;
use dtb_sim::exec::{Matrix, TraceCache};
use dtb_sim::journal::read_journal;
use dtb_svc::proto::{CellResult, CellTask, SweepSpec};
use dtb_svc::worker::run_cell;
use dtb_svc::{
    follow_events_resilient, journal_exactly_once, line_cursor, matrix_from_cells,
    matrix_from_sweep, stream_continuity, ChaosPlan, Client, EventCursor,
};
use dtb_trace::programs::Program;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: dtb-chaos [--seed N] [--workers N] [--dir PATH] [--cell-delay-ms N]\n\
         \n\
         --seed N           chaos plan seed (default 42); a failing run replays from it\n\
         --workers N        worker processes (default 2)\n\
         --dir PATH         artifact directory: logs, journal, results, stream (default chaos-artifacts)\n\
         --cell-delay-ms N  per-cell pacing so kills land mid-matrix (default 250)"
    );
    std::process::exit(2);
}

struct Args {
    seed: u64,
    workers: usize,
    dir: PathBuf,
    cell_delay_ms: u64,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        seed: 42,
        workers: 2,
        dir: PathBuf::from("chaos-artifacts"),
        cell_delay_ms: 250,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--seed" => parsed.seed = parse_num(&value("--seed")),
            "--workers" => parsed.workers = parse_num(&value("--workers")) as usize,
            "--dir" => parsed.dir = value("--dir").into(),
            "--cell-delay-ms" => parsed.cell_delay_ms = parse_num(&value("--cell-delay-ms")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    if parsed.workers == 0 {
        eprintln!("--workers must be at least 1");
        usage()
    }
    parsed
}

fn parse_num(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("`{s}` is not a number");
        usage()
    })
}

/// The drill's sweep: one workload, every collector, baselines — small
/// enough for CI, wide enough that kills land between finalizations.
fn drill_spec() -> SweepSpec {
    SweepSpec {
        tenant: "chaos".to_string(),
        programs: vec![Program::Cfrac],
        policies: PolicyKind::ALL.to_vec(),
        baselines: true,
        policy: dtb_core::policy::PolicyConfig::paper(),
        sim: dtb_sim::engine::SimConfig::paper(),
    }
}

/// The clean ground truth, computed in-process through the *same*
/// per-cell runner the workers use.
fn reference_matrix(spec: &SweepSpec) -> Matrix {
    let cache = TraceCache::new();
    let rows = spec.rows();
    let mut cells = Vec::new();
    let mut index = 0u64;
    for &program in &spec.programs {
        for row in &rows {
            let task = CellTask {
                sweep: 0,
                cell: index,
                lease: 0,
                lease_ms: 600_000,
                program,
                row: row.clone(),
                policy: spec.policy,
                sim: spec.sim,
                attempt: 1,
            };
            let done = run_cell(&cache, &task, 1);
            cells.push(CellResult {
                column: program.label().to_string(),
                row: row.to_string(),
                attempts: 1,
                elapsed_ns: done.elapsed_ns,
                run: done.run,
                failure: done.failure,
                transient: done.transient,
            });
            index += 1;
        }
    }
    matrix_from_cells(spec, &cells)
}

/// Bit-identical by report, cell for cell. `Err` lists every diverging
/// cell.
fn compare_matrices(served: &Matrix, clean: &Matrix) -> Result<(), String> {
    let mut diverged = Vec::new();
    let mut compared = 0;
    for (col, cell) in clean.cells() {
        let twin = served
            .column_by_name(col.name())
            .and_then(|c| c.cells.iter().find(|c| c.row == cell.row));
        match twin {
            None => diverged.push(format!(
                "{}/{}: missing from served matrix",
                col.name(),
                cell.row
            )),
            Some(twin) if twin.report() != cell.report() => diverged.push(format!(
                "{}/{}: report diverges from the clean run",
                col.name(),
                cell.row
            )),
            Some(_) => compared += 1,
        }
    }
    if compared == 0 {
        diverged.push("nothing compared".to_string());
    }
    if diverged.is_empty() {
        Ok(())
    } else {
        Err(diverged.join("\n"))
    }
}

/// A sibling binary of this one (all three live in the same target dir).
fn sibling(name: &str) -> PathBuf {
    let mut path = std::env::current_exe().expect("current_exe");
    path.set_file_name(name);
    path
}

fn log_file(dir: &Path, name: &str) -> std::fs::File {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(name))
        .unwrap_or_else(|e| {
            eprintln!("dtb-chaos: cannot open log {name}: {e}");
            std::process::exit(2);
        })
}

/// Starts a coordinator incarnation and waits for its listening line.
/// `addr` is `None` for the first incarnation (ephemeral port) and the
/// fixed address for restarts. Returns the child and the bound address.
fn start_coordinator(
    args: &Args,
    addr: Option<&str>,
    lease_ms: u64,
    journal_faults: u32,
    results_faults: u32,
    incarnation: u32,
) -> (Child, String) {
    let dir = &args.dir;
    let mut cmd = Command::new(sibling("dtb-coordinator"));
    cmd.args([
        "--addr",
        addr.unwrap_or("127.0.0.1:0"),
        "--lease-ms",
        &lease_ms.to_string(),
        "--retries",
        "2",
        "--journal",
        &dir.join("journal").to_string_lossy(),
        "--results",
        &dir.join("results.bin").to_string_lossy(),
    ]);
    if journal_faults > 0 {
        cmd.args(["--fault-journal-writes", &journal_faults.to_string()]);
    }
    if results_faults > 0 {
        cmd.args(["--fault-results-writes", &results_faults.to_string()]);
    }
    // A killed incarnation leaves the port in use briefly; retry the
    // whole spawn until the new one binds.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(log_file(dir, &format!("coordinator-{incarnation}.stderr")))
            .spawn()
            .unwrap_or_else(|e| {
                eprintln!("dtb-chaos: cannot spawn dtb-coordinator: {e}");
                std::process::exit(2);
            });
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let mut bound = None;
        for line in &mut lines {
            let Ok(line) = line else { break };
            eprintln!("[coordinator-{incarnation}] {line}");
            if let Some(rest) = line.strip_prefix("dtb-coordinator listening on ") {
                bound = Some(rest.trim().to_string());
                break;
            }
        }
        match bound {
            Some(bound) => {
                // Drain the rest of stdout to the log in the background.
                let mut log = log_file(dir, &format!("coordinator-{incarnation}.stdout"));
                std::thread::spawn(move || {
                    for line in lines {
                        let Ok(line) = line else { break };
                        let _ = writeln!(log, "{line}");
                    }
                });
                return (child, bound);
            }
            None => {
                // Bind failed (port still draining); reap and retry.
                let _ = child.wait();
                if Instant::now() >= deadline {
                    eprintln!("dtb-chaos: coordinator never bound {addr:?}");
                    std::process::exit(2);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Starts one worker over the plan's wire faults, with a reconnect
/// window and a healthz endpoint the driver can probe.
fn start_worker(args: &Args, plan: &ChaosPlan, addr: &str, index: usize, generation: u32) -> Child {
    let name = format!("chaos-w{index}-g{generation}");
    let wire = &plan.net[index % plan.net.len()];
    let mut cmd = Command::new(sibling("dtb-worker"));
    cmd.args([
        "--addr",
        addr,
        "--name",
        &name,
        "--exit-when-done",
        "--cell-delay-ms",
        &args.cell_delay_ms.to_string(),
        "--reconnect-ms",
        "120000",
        "--healthz",
        "127.0.0.1:0",
    ]);
    if let Some(n) = wire.drop_every {
        cmd.args(["--fault-drop-every", &n.to_string()]);
    }
    if let Some(n) = wire.garble_every {
        cmd.args(["--fault-garble-every", &n.to_string()]);
    }
    if let Some(n) = wire.replay_every {
        cmd.args(["--fault-replay-every", &n.to_string()]);
    }
    cmd.stdout(Stdio::null())
        .stderr(log_file(&args.dir, &format!("{name}.stderr")))
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("dtb-chaos: cannot spawn dtb-worker: {e}");
            std::process::exit(2);
        })
}

fn finalized_count(client: &mut Client, sweep: u64) -> Option<u64> {
    let status = client.status().ok()?;
    status
        .sweeps
        .iter()
        .find(|s| s.sweep == sweep)
        .map(|s| s.finalized)
}

fn fail(seed: u64, dir: &Path, what: &str) -> ! {
    eprintln!("\ndtb-chaos: FAIL — {what}");
    eprintln!(
        "dtb-chaos: replay with --seed {seed}; artifacts kept in {}",
        dir.display()
    );
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(args.dir.join("journal")).unwrap_or_else(|e| {
        eprintln!("dtb-chaos: cannot create {}: {e}", args.dir.display());
        std::process::exit(2);
    });

    let spec = drill_spec();
    let total = (spec.policies.len() + 2) as u64;
    let plan = ChaosPlan::from_seed(args.seed, total, args.workers);
    eprintln!(
        "dtb-chaos: seed {} over {total} cells, {} workers: kill coordinator at {:?}, \
         kill worker {:?}, lease skew {}/{}, {} journal + {} results write faults",
        args.seed,
        args.workers,
        plan.coordinator_kills,
        plan.worker_kill,
        plan.lease_skew.0,
        plan.lease_skew.1,
        plan.journal_faults,
        plan.results_faults,
    );

    eprintln!("dtb-chaos: computing the clean reference matrix in-process…");
    let clean = reference_matrix(&spec);

    // ── incarnation 1 ──
    let lease_ms = 4_000u64;
    let (mut coordinator, addr) = start_coordinator(&args, None, lease_ms, 0, 0, 1);

    // The resilient follower rides every restart; its stream is both an
    // artifact and the continuity evidence.
    let stop = Arc::new(AtomicBool::new(false));
    let cursors: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let follower = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        let cursors = Arc::clone(&cursors);
        let mut stream_log = log_file(&args.dir, "stream.jsonl");
        std::thread::spawn(move || {
            follow_events_resilient(
                &addr,
                EventCursor::start(),
                Duration::from_secs(120),
                &stop,
                |line| {
                    if let Some(at) = line_cursor(line) {
                        cursors.lock().unwrap().push((at.epoch, at.seq));
                    }
                    let _ = writeln!(stream_log, "{line}");
                    true
                },
            )
        })
    };

    let mut workers: Vec<Child> = (0..args.workers)
        .map(|i| start_worker(&args, &plan, &addr, i, 1))
        .collect();

    let mut client = Client::connect(addr.clone());
    let sweep = match client.submit(&spec) {
        Ok(reply) => reply.sweep,
        Err(e) => fail(args.seed, &args.dir, &format!("submit refused: {e}")),
    };

    // ── execute the schedule: kills at scripted finalized counts ──
    let mut kills = plan.coordinator_kills.clone();
    kills.sort_unstable();
    kills.dedup();
    let mut worker_kill = plan.worker_kill;
    let mut incarnation = 1u32;
    let (num, den) = plan.lease_skew;
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        if Instant::now() >= deadline {
            fail(args.seed, &args.dir, "drill did not converge within 600 s");
        }
        let Some(finalized) = finalized_count(&mut client, sweep) else {
            // Coordinator down (between kill and restart) — keep polling.
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        if let Some((victim, at)) = worker_kill {
            if finalized >= at.min(total - 1) {
                let victim_idx = victim % workers.len();
                eprintln!(
                    "dtb-chaos: {finalized}/{total} finalized — SIGKILL worker {victim_idx}, starting replacement"
                );
                let _ = workers[victim_idx].kill();
                let _ = workers[victim_idx].wait();
                workers[victim_idx] = start_worker(&args, &plan, &addr, victim_idx, 2);
                worker_kill = None;
            }
        }
        if let Some(&at) = kills.first() {
            if finalized >= at.min(total - 1) {
                incarnation += 1;
                eprintln!(
                    "dtb-chaos: {finalized}/{total} finalized — SIGKILL coordinator, restarting as incarnation {incarnation}"
                );
                let _ = coordinator.kill(); // SIGKILL: no destructors, no goodbye
                let _ = coordinator.wait();
                // Restart over the same dirs on the same port, lease
                // clock skewed, disk-write faults armed.
                let skewed = (lease_ms.saturating_mul(num) / den).max(500);
                let (child, rebound) = start_coordinator(
                    &args,
                    Some(&addr),
                    skewed,
                    plan.journal_faults,
                    plan.results_faults,
                    incarnation,
                );
                assert_eq!(rebound, addr, "restart must reuse the address");
                coordinator = child;
                kills.remove(0);
                continue;
            }
        }
        if kills.is_empty() && worker_kill.is_none() && finalized >= total {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // ── quiescence: the sweep is served done, workers drain ──
    let reply = match client.wait_sweep(
        sweep,
        Duration::from_millis(200),
        Some(Duration::from_secs(120)),
    ) {
        Ok(reply) => reply,
        Err(e) => fail(
            args.seed,
            &args.dir,
            &format!("sweep never served done: {e}"),
        ),
    };
    for (i, worker) in workers.iter_mut().enumerate() {
        match worker.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => fail(args.seed, &args.dir, &format!("worker {i} exited {status}")),
            Err(e) => fail(args.seed, &args.dir, &format!("worker {i} unreapable: {e}")),
        }
    }

    // ── verdicts ──
    let mut violations = Vec::new();

    // 1. Bit-identical matrix.
    if let Err(e) = compare_matrices(&matrix_from_sweep(&reply), &clean) {
        violations.push(format!("matrix diverged:\n{e}"));
    } else {
        eprintln!("dtb-chaos: matrix is bit-identical to the clean run ({total} cells)");
    }

    // 2. Exactly-once journal.
    match read_journal(args.dir.join("journal").join(format!("sweep-{sweep}"))) {
        Ok(Some(journal)) => {
            let keys: Vec<(String, String)> = journal
                .cells
                .iter()
                .map(|c| (c.column.clone(), c.row.clone()))
                .collect();
            if keys.len() as u64 != total {
                violations.push(format!(
                    "journal holds {} lines, expected {total}",
                    keys.len()
                ));
            }
            if let Err(e) = journal_exactly_once(&keys) {
                violations.push(format!("journal exactly-once violated: {e}"));
            } else {
                eprintln!("dtb-chaos: journal finalized every cell exactly once");
            }
        }
        Ok(None) => violations.push("journal holds no record after the drill".to_string()),
        Err(e) => violations.push(format!("journal unreadable after the drill: {e}")),
    }

    // 3. Gapless stream across every incarnation. Stop the follower by
    // shutting the last coordinator down (closes the stream) and join.
    stop.store(true, Ordering::Relaxed);
    let _ = Client::connect(addr.clone()).shutdown();
    let _ = coordinator.wait();
    match follower.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => violations.push(format!("follower died: {e}")),
        Err(_) => violations.push("follower panicked".to_string()),
    }
    {
        let seen = cursors.lock().unwrap();
        if let Err(e) = stream_continuity(&seen) {
            violations.push(format!("stream continuity violated: {e}"));
        }
        let epochs: std::collections::BTreeSet<u64> = seen.iter().map(|&(e, _)| e).collect();
        if epochs.len() < incarnation as usize {
            violations.push(format!(
                "follower saw epochs {epochs:?}, expected all {incarnation} incarnations"
            ));
        } else {
            eprintln!(
                "dtb-chaos: follower streamed {} lines across epochs {epochs:?} with no gaps or duplicates",
                seen.len()
            );
        }
    }

    if !violations.is_empty() {
        fail(args.seed, &args.dir, &violations.join("\n---\n"));
    }
    println!(
        "dtb-chaos: PASS — seed {} survived {} coordinator kill(s), {} worker kill(s), wire + disk faults",
        args.seed,
        incarnation - 1,
        if plan.worker_kill.is_some() { 1 } else { 0 },
    );
}
