//! The worker: a lease → run → complete loop against one coordinator.
//!
//! Each leased cell runs under the engine's cooperative-cancellation
//! deadline, armed at 80% of the lease window — a hung or oversized cell
//! gives up (and reports a *transient* failure) before the coordinator
//! declares the lease dead, so the cell requeues exactly once instead of
//! being double-counted as both a worker failure and a lease expiry.
//!
//! Failure classification mirrors the executor's
//! [`FailureCause::is_transient`] split: deadlines and shard I/O retry,
//! policy errors / invariant violations / corruption / panics quarantine.
//! Wire failures (connection reset, garbled response) never fail a cell
//! at all — they retry inside [`Client`] with the executor's
//! [`RetryPolicy`] backoff. What happens when
//! even that budget runs out is [`WorkerConfig::reconnect`]'s call: with
//! no reconnect window the worker exits with an error (fail-fast, the
//! pre-recovery behaviour), with one it keeps retrying under the idle
//! backoff schedule until the coordinator returns or the window of
//! *continuous* outage closes — so a coordinator crash + restart is
//! something a fleet simply rides out. An unacknowledged completion is
//! re-sent until the (restarted) coordinator answers `Recorded` /
//! `Duplicate` / `LeaseLost`; lease-epoch fencing on the coordinator
//! makes that retry loop safe.

use crate::client::{Client, SvcError};
use crate::proto::{CellTask, CompleteRequest, CompleteStatus, RelayRequest, MAX_RELAY_LINES};
use dtb_core::policy::Row;
use dtb_sim::baseline::baseline_report;
use dtb_sim::curve::MemoryCurve;
use dtb_sim::engine::{Sim, SimRun};
use dtb_sim::exec::{panic_message, FailureCause, RetryPolicy, TraceCache, Watchdog};
use dtb_sim::SimError;
use dtb_trace::ckp::checksum;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Worker tuning knobs.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// This worker's identity (diagnostics and lease bookkeeping).
    pub name: String,
    /// Exit cleanly once the coordinator reports itself drained (all
    /// submitted sweeps finished). Off = keep polling for new sweeps.
    pub exit_when_done: bool,
    /// Artificial pause before each cell — the crash suites use it to
    /// pace workers so a SIGKILL reliably lands mid-matrix.
    pub cell_delay: Duration,
    /// Relay per-scavenge telemetry from completed cells into the
    /// coordinator's `/events` stream (`POST /relay`). Best-effort: a
    /// failed relay never fails the cell.
    pub relay_events: bool,
    /// Maximum *continuous* coordinator outage to ride out before giving
    /// up. `None` = fail fast once the client's own retry budget is
    /// spent (the pre-recovery behaviour). The outage clock resets on
    /// every successful exchange.
    pub reconnect: Option<Duration>,
    /// Shared liveness counters, published over `GET /healthz` by
    /// [`serve_healthz`] when wired up.
    pub health: Option<Arc<WorkerHealth>>,
}

impl WorkerConfig {
    /// A worker named `name` with defaults: run until drained? no —
    /// poll forever; no cell delay; fail fast on coordinator loss; no
    /// health endpoint.
    pub fn new(name: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            name: name.into(),
            exit_when_done: false,
            cell_delay: Duration::ZERO,
            relay_events: false,
            reconnect: None,
            health: None,
        }
    }
}

/// Liveness counters one worker exposes over `GET /healthz`. All fields
/// are plain atomics so the serving thread, the worker loop, and any
/// in-process observer share one allocation without locks.
#[derive(Debug, Default)]
pub struct WorkerHealth {
    /// Cells completed successfully (a run was produced).
    pub cells_completed: AtomicU64,
    /// Cells that ended in a failure report.
    pub cells_failed: AtomicU64,
    /// Coordinator-outage episodes ridden out (one per continuous
    /// outage, not per retry).
    pub reconnects: AtomicU64,
    /// Whether a cell is being executed right now.
    pub busy: AtomicBool,
}

/// Serves `GET /healthz` for one worker on `addr` (a `host:port`;
/// `127.0.0.1:0` picks an ephemeral port) from a background thread, and
/// returns the bound address. The chaos driver polls this to tell a
/// worker that is busy simulating from one that is gone.
///
/// # Errors
///
/// I/O errors binding the listener.
pub fn serve_healthz(
    addr: &str,
    name: &str,
    health: Arc<WorkerHealth>,
) -> std::io::Result<std::net::SocketAddr> {
    let listener = std::net::TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let name = name.to_string();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
            let resp = match crate::http::read_request(&mut stream) {
                Ok(req) if req.method == "GET" && req.path == "/healthz" => {
                    crate::http::Response::ok(
                        format!(
                            "{{\"worker\":{:?},\"busy\":{},\"cells_completed\":{},\"cells_failed\":{},\"reconnects\":{}}}",
                            name,
                            health.busy.load(Ordering::Relaxed),
                            health.cells_completed.load(Ordering::Relaxed),
                            health.cells_failed.load(Ordering::Relaxed),
                            health.reconnects.load(Ordering::Relaxed),
                        )
                        .into_bytes(),
                    )
                }
                Ok(_) => crate::http::Response::error(404, "try GET /healthz"),
                Err(e) => crate::http::Response::error(400, e.to_string()),
            };
            let _ = crate::http::write_response(&mut stream, &resp);
        }
    });
    Ok(local)
}

/// The wait before idle poll number `streak` (0-based count of
/// consecutive empty leases): the coordinator's suggested `retry_ms` as
/// the base of the executor's [`RetryPolicy`] schedule — exponential
/// growth capped at 10 s, with deterministic jitter salted by the
/// worker's name so an idle fleet fans out instead of polling in
/// lockstep.
pub fn idle_backoff(worker: &str, retry_ms: u64, streak: u32) -> Duration {
    let policy = RetryPolicy {
        max_retries: 0, // unused by `delay`
        base_delay: Duration::from_millis(retry_ms.clamp(1, 10_000)),
        max_delay: Duration::from_secs(10),
    };
    let salt = checksum(worker.as_bytes());
    policy.delay(salt, streak.min(16))
}

/// What one finished [`run_task`] reports back.
#[derive(Debug)]
pub struct CellRun {
    /// The completed run, on success.
    pub run: Option<SimRun>,
    /// The stringified failure, otherwise.
    pub failure: Option<String>,
    /// Whether that failure is worth a retry.
    pub transient: bool,
    /// Wall-clock nanoseconds the cell took.
    pub elapsed_ns: u64,
}

/// [`run_task`]; the cache and thread-count arguments are ignored.
/// Stays only because `benchmark/src/workloads/served_sweeps.rs` calls
/// it, until that file calls [`run_task`].
pub fn run_cell(_cache: &TraceCache, task: &CellTask, _threads: usize) -> CellRun {
    run_task(task)
}

/// Runs one leased cell to completion on the calling thread: resolves
/// the preset through [`Program::compiled`](dtb_trace::Program::compiled)
/// (compiled at most once per process), arms the deadline at 80% of the
/// lease window, contains panics, and classifies any failure as
/// transient or permanent.
pub fn run_task(task: &CellTask) -> CellRun {
    let started = Instant::now();
    // Inner error: (stringified failure, transient?).
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Custom rows exist only for in-process custom policies; the wire
        // ships names, not closures, so a worker cannot build one.
        if let Row::Custom(name) = &task.row {
            return Err((format!("custom row `{name}` is not distributable"), false));
        }
        match &task.row {
            // Both baseline rows read the program's memoized stats.
            Row::NoGc | Row::Live => Ok(SimRun {
                report: baseline_report(task.row.clone(), task.program.stats()),
                curve: MemoryCurve::new(),
            }),
            Row::Policy(kind) => {
                let trace = task.program.compiled();
                let mut policy = kind.build(&task.policy);
                // Give up before the coordinator does: 80% of the lease
                // window, so a slow cell requeues via one clean transient
                // failure instead of a lease expiry racing a late result.
                let deadline = Duration::from_millis(task.lease_ms.saturating_mul(4) / 5);
                let cancel = Arc::new(AtomicBool::new(false));
                let _watchdog = Watchdog::arm(deadline, Arc::clone(&cancel));
                Sim::new(task.sim)
                    .cancel(&cancel)
                    .run_trace(&trace, policy.as_mut())
                    .map_err(|err| (err.to_string(), classify(&err)))
            }
            Row::Custom(_) => unreachable!("handled above"),
        }
    }));
    let elapsed_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    match outcome {
        Ok(Ok(run)) => CellRun {
            run: Some(run),
            failure: None,
            transient: false,
            elapsed_ns,
        },
        Ok(Err((failure, transient))) => CellRun {
            failure: Some(failure),
            transient,
            run: None,
            elapsed_ns,
        },
        Err(panic) => CellRun {
            failure: Some(format!("panicked: {}", panic_message(panic.as_ref()))),
            transient: false,
            run: None,
            elapsed_ns,
        },
    }
}

/// Transient simulation failures, in the executor's taxonomy: a deadline
/// cancellation or shard I/O. Everything else is deterministic and would
/// fail identically on retry.
fn classify(err: &SimError) -> bool {
    matches!(err, SimError::Cancelled { .. }) || FailureCause::Sim(err.clone()).is_transient()
}

/// How one worker loop ended.
#[derive(Debug)]
pub enum WorkerExit {
    /// The coordinator reported all sweeps finished
    /// (`exit_when_done`).
    Drained,
    /// The coordinator became unreachable past the client's retry budget
    /// (and, with a [`WorkerConfig::reconnect`] window, past that too).
    Lost(SvcError),
}

/// Retries `call` across a coordinator outage, bounded by the config's
/// reconnect window of *continuous* downtime. Without a window this is
/// just `call()` — the client's own retry budget is the only tolerance.
/// Permanent protocol errors (`4xx`) return immediately either way: a
/// restarted coordinator would refuse the identical request identically.
fn call_with_reconnect<T>(
    config: &WorkerConfig,
    what: &str,
    mut call: impl FnMut() -> Result<T, SvcError>,
) -> Result<T, SvcError> {
    let Some(window) = config.reconnect else {
        return call();
    };
    let mut outage: Option<Instant> = None;
    let mut streak: u32 = 0;
    loop {
        match call() {
            Ok(v) => return Ok(v),
            Err(SvcError::Protocol { status, message }) if status < 500 => {
                return Err(SvcError::Protocol { status, message });
            }
            Err(e) => {
                let started = *outage.get_or_insert_with(Instant::now);
                if started.elapsed() >= window {
                    return Err(e);
                }
                if streak == 0 {
                    eprintln!(
                        "worker {}: {what} unreachable ({e}); reconnecting for up to {window:?}",
                        config.name
                    );
                    if let Some(h) = &config.health {
                        h.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Same jittered-exponential schedule as idle polling, so
                // a whole fleet reconnecting after a restart fans out.
                thread::sleep(idle_backoff(&config.name, 200, streak));
                streak = streak.saturating_add(1);
            }
        }
    }
}

/// The worker main loop: lease, run, complete, repeat.
///
/// Cells whose completion is refused ([`CompleteStatus::LeaseLost`]) are
/// simply dropped — the coordinator has re-leased them — and duplicates
/// are already recorded, so both just continue the loop. A completion
/// the coordinator never acknowledged is re-sent (under the reconnect
/// window) until it answers: exactly-once recording is the
/// coordinator's journal dedupe + lease fencing, not worker restraint.
pub fn run_worker(client: &mut Client, config: &WorkerConfig) -> WorkerExit {
    let mut idle_streak: u32 = 0;
    loop {
        if let Some(h) = &config.health {
            h.busy.store(false, Ordering::Relaxed);
        }
        let reply = match call_with_reconnect(config, "lease", || client.lease(&config.name)) {
            Ok(reply) => reply,
            Err(e) => return WorkerExit::Lost(e),
        };
        let Some(task) = reply.task else {
            if reply.drained && config.exit_when_done {
                return WorkerExit::Drained;
            }
            // Idle: back off jittered-exponentially instead of hammering
            // the coordinator at a fixed cadence.
            thread::sleep(idle_backoff(&config.name, reply.retry_ms, idle_streak));
            idle_streak = idle_streak.saturating_add(1);
            continue;
        };
        idle_streak = 0;
        if let Some(h) = &config.health {
            h.busy.store(true, Ordering::Relaxed);
        }
        if !config.cell_delay.is_zero() {
            thread::sleep(config.cell_delay);
        }
        let done = run_task(&task);
        if config.relay_events {
            if let Some(run) = &done.run {
                relay_scavenges(client, config, &task, run);
            }
        }
        let completion = CompleteRequest {
            sweep: task.sweep,
            cell: task.cell,
            lease: task.lease,
            worker: config.name.clone(),
            run: done.run,
            failure: done.failure,
            transient: done.transient,
            elapsed_ns: done.elapsed_ns,
        };
        match call_with_reconnect(config, "complete", || client.complete(&completion)) {
            // Recorded / Requeued / Duplicate / LeaseLost all mean the
            // coordinator owns the cell's fate now; just keep working.
            Ok(reply) => {
                if let Some(h) = &config.health {
                    let counter = if completion.failure.is_none() {
                        &h.cells_completed
                    } else {
                        &h.cells_failed
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                if reply.status == CompleteStatus::LeaseLost {
                    eprintln!(
                        "worker {}: lease {} lost for sweep {} cell {} (result discarded)",
                        config.name, task.lease, task.sweep, task.cell
                    );
                }
            }
            // A coordinator restarted without its journal forgot the
            // sweep entirely (404). With reconnection on, that is a fact
            // to survive, not a reason to die: drop the orphaned result
            // and go back to leasing whatever the new incarnation has.
            Err(SvcError::Protocol {
                status: 404,
                message,
            }) if config.reconnect.is_some() => {
                eprintln!(
                    "worker {}: completion for sweep {} cell {} refused ({message}); dropping",
                    config.name, task.sweep, task.cell
                );
            }
            Err(e) => return WorkerExit::Lost(e),
        }
    }
}

/// Relays the cell's per-scavenge telemetry, reconstructed from the
/// completed run's scavenge history. Reconstruction (rather than a live
/// sink) keeps attribution exact with several workers in one process:
/// the history *is* the run's, by construction. When the history
/// overflows one relay batch, the most recent scavenges win. Fields the
/// history does not record (`events`, `inverse_queries`, `tenured`)
/// relay as 0; scavenge sequence numbers are relative to the cell.
fn relay_scavenges(client: &mut Client, config: &WorkerConfig, task: &CellTask, run: &SimRun) {
    let history = &run.report.history;
    if history.is_empty() {
        return;
    }
    let skip = history.len().saturating_sub(MAX_RELAY_LINES);
    let lines: Vec<String> = history
        .iter()
        .enumerate()
        .skip(skip)
        .map(|(i, rec)| {
            dtb_obs::encode_json(&dtb_obs::Envelope {
                seq: (i + 1) as u64,
                scope: task.sweep,
                event: dtb_obs::Event::Scavenge {
                    collection: i as u64,
                    at: rec.at.as_u64(),
                    boundary: rec.boundary.as_u64(),
                    traced: rec.traced.as_u64(),
                    surviving: rec.surviving.as_u64(),
                    reclaimed: rec.reclaimed.as_u64(),
                    tenured: 0,
                    mem_before: rec.mem_before.as_u64(),
                    events: 0,
                    inverse_queries: 0,
                },
            })
        })
        .collect();
    let req = RelayRequest {
        sweep: task.sweep,
        cell: task.cell,
        worker: config.name.clone(),
        lines,
    };
    if let Err(e) = client.relay(&req) {
        eprintln!(
            "worker {}: event relay for sweep {} cell {} failed (run unaffected): {e}",
            config.name, task.sweep, task.cell
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtb_core::policy::{PolicyConfig, PolicyKind};
    use dtb_sim::engine::{SimBudget, SimConfig};
    use dtb_trace::programs::Program;

    fn task(row: Row) -> CellTask {
        CellTask {
            sweep: 1,
            cell: 0,
            lease: 1,
            lease_ms: 60_000,
            program: Program::Cfrac,
            row,
            policy: PolicyConfig::paper(),
            sim: SimConfig::paper(),
            attempt: 1,
        }
    }

    #[test]
    fn baselines_and_policies_run() {
        for row in [Row::NoGc, Row::Live, Row::Policy(PolicyKind::Full)] {
            let done = run_task(&task(row.clone()));
            assert!(done.run.is_some(), "{row}: {:?}", done.failure);
            assert!(!done.transient);
        }
    }

    #[test]
    fn baseline_rows_read_the_memoized_stats() {
        let trace = Program::Cfrac.compiled();
        for (row, want) in [
            (Row::NoGc, dtb_sim::baseline::no_gc_report(&trace)),
            (Row::Live, dtb_sim::baseline::live_report(&trace)),
        ] {
            let done = run_task(&task(row.clone()));
            assert_eq!(done.run.map(|run| run.report), Some(want), "{row}");
        }
    }

    #[test]
    fn budget_exhaustion_is_a_permanent_failure() {
        let mut t = task(Row::Policy(PolicyKind::Full));
        t.sim.budget = SimBudget::events(10);
        let done = run_task(&t);
        assert!(done.run.is_none());
        assert!(!done.transient, "budget exhaustion must not retry");
        assert!(
            done.failure.as_deref().unwrap_or("").contains("budget"),
            "{:?}",
            done.failure
        );
    }

    #[test]
    fn idle_backoff_schedule_grows_jittered_and_capped() {
        // Deterministic: same (worker, retry_ms, streak) → same delay.
        assert_eq!(idle_backoff("w1", 100, 3), idle_backoff("w1", 100, 3));
        // Jittered: different workers desynchronize at the same streak.
        assert_ne!(idle_backoff("w1", 100, 3), idle_backoff("w2", 100, 3));
        for streak in 0..20 {
            let d = idle_backoff("w1", 100, streak);
            // Every delay sits in the upper half of its exponential
            // window, capped at 10 s.
            let window =
                Duration::from_millis(100 * (1 << streak.min(16))).min(Duration::from_secs(10));
            assert!(d >= window / 2, "streak {streak}: {d:?} < {:?}", window / 2);
            assert!(d <= window, "streak {streak}: {d:?} > {window:?}");
        }
        // The envelope grows monotonically with the streak until the cap.
        assert!(idle_backoff("w1", 100, 8) > idle_backoff("w1", 100, 0));
        // Degenerate retry_ms still sleeps (no busy-poll).
        assert!(idle_backoff("w1", 0, 0) >= Duration::from_nanos(1));
    }

    #[test]
    fn reconnect_wrapper_rides_out_transient_failures() {
        use crate::http::WireError;
        let mut config = WorkerConfig::new("w-re");
        config.reconnect = Some(Duration::from_secs(30));
        config.health = Some(Arc::new(WorkerHealth::default()));
        let mut calls = 0u32;
        let out: Result<u32, SvcError> = call_with_reconnect(&config, "lease", || {
            calls += 1;
            if calls < 3 {
                Err(SvcError::Wire(WireError::Malformed("injected".into())))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls, 3, "wrapper retries until the call succeeds");
        let health = config.health.as_ref().unwrap();
        assert_eq!(
            health.reconnects.load(Ordering::Relaxed),
            1,
            "one outage episode, not one count per retry"
        );

        // 4xx is permanent: exactly one call, immediate error.
        let mut calls = 0u32;
        let out: Result<u32, SvcError> = call_with_reconnect(&config, "complete", || {
            calls += 1;
            Err(SvcError::Protocol {
                status: 400,
                message: "bad".into(),
            })
        });
        assert!(matches!(out, Err(SvcError::Protocol { status: 400, .. })));
        assert_eq!(calls, 1);

        // An exhausted window surfaces the last transient error.
        config.reconnect = Some(Duration::ZERO);
        let out: Result<u32, SvcError> = call_with_reconnect(&config, "lease", || {
            Err(SvcError::Wire(WireError::Malformed("still down".into())))
        });
        assert!(matches!(out, Err(SvcError::Wire(_))));
    }

    #[test]
    fn healthz_serves_counters() {
        let health = Arc::new(WorkerHealth::default());
        health.cells_completed.store(3, Ordering::Relaxed);
        health.busy.store(true, Ordering::Relaxed);
        let addr = serve_healthz("127.0.0.1:0", "w-h", Arc::clone(&health)).unwrap();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        crate::http::write_request(
            &mut stream,
            &crate::http::Request {
                method: "GET".into(),
                path: "/healthz".into(),
                body: Vec::new(),
            },
        )
        .unwrap();
        let resp = crate::http::read_response(&mut stream).unwrap();
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"worker\":\"w-h\""), "{body}");
        assert!(body.contains("\"busy\":true"), "{body}");
        assert!(body.contains("\"cells_completed\":3"), "{body}");
        // Unknown paths get a 404, and the listener survives to serve
        // the next probe.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        crate::http::write_request(
            &mut stream,
            &crate::http::Request {
                method: "GET".into(),
                path: "/nope".into(),
                body: Vec::new(),
            },
        )
        .unwrap();
        assert_eq!(crate::http::read_response(&mut stream).unwrap().status, 404);
    }

    #[test]
    fn deadline_cancellation_is_transient() {
        let mut t = task(Row::Policy(PolicyKind::Full));
        t.lease_ms = 1; // 80% of 1 ms: the watchdog fires immediately
        let done = run_task(&t);
        assert!(done.run.is_none(), "expected cancellation");
        assert!(done.transient, "{:?}", done.failure);
    }
}
