//! The coordinator: shards sweeps into cells, leases them to workers,
//! and records completions with exactly-once semantics.
//!
//! # The lease/complete state machine
//!
//! Every cell moves through:
//!
//! ```text
//! Pending ──lease──▶ Leased ──complete(ok | permanent | retries spent)──▶ Final
//!    ▲                 │
//!    └──lease expiry───┘        (also: complete(transient, retries left))
//! ```
//!
//! `Final` is **Done** (a journaled [`SimRun`]) or **Quarantined** (a
//! journaled failure). The transition into `Final` happens *after* the
//! corresponding journal line is fsync'd — a cell is only done once its
//! completion is durable — and happens at most once, so the journal
//! carries **exactly one completion line per cell** no matter how many
//! workers crash, how many stale leases replay, or how many duplicate
//! completions arrive:
//!
//! * a completion for an already-final cell is answered
//!   [`Duplicate`](CompleteStatus::Duplicate) and not re-journaled;
//! * a completion whose lease token is not the cell's *current* lease
//!   (expired and re-leased, or plain garbage) is answered
//!   [`LeaseLost`](CompleteStatus::LeaseLost) and discarded;
//! * a transient failure with retries left goes back to `Pending`
//!   ([`Requeued`](CompleteStatus::Requeued)) and is journaled only when
//!   its retries run out.
//!
//! Lease timeouts reuse the executor's per-cell wall-clock deadline
//! semantics (`Evaluation::cell_deadline`): a worker that holds a cell
//! past [`CoordinatorConfig::lease_timeout`] is presumed dead and the
//! cell is re-leased; the straggler's late completion, if it ever
//! arrives, is a stale lease and ignored. Retries reuse the executor's
//! [`RetryPolicy`] shape: only transient failures are retried, at most
//! `retry.max_retries` times beyond the first attempt, and the exhausted
//! or permanent cell is quarantined with its attempt count.
//!
//! # Fairness and quotas
//!
//! Leases rotate **round-robin across tenants**: among tenants with
//! pending work, the least-recently-served tenant goes first, so a
//! tenant that submits a thousand sweeps cannot starve one that submits
//! one. Per-tenant [`SimBudget`] quotas cap every leased cell's
//! events/scavenges — the coordinator merges the quota into the cell's
//! `SimConfig` before it ships, so an over-budget cell fails with the
//! engine's own typed `BudgetExceeded`, exactly as it would in-process.

use crate::chaos::FaultFuse;
use crate::events::{json_string, EventLog, HEARTBEAT};
use crate::http::{
    read_request, write_chunk, write_chunk_end, write_chunked_head, write_response, Request,
    Response, WireError,
};
use crate::proto::{
    decode, encode, CellResult, CellTask, CompleteReply, CompleteRequest, CompleteStatus,
    LeaseReply, LeaseRequest, RelayReply, RelayRequest, ResultsReply, StatusReply, SubmitReply,
    SubmitRequest, SweepReply, SweepSpec, SweepStatus, TenantStatus, MAX_RELAY_LINES,
    PROTO_VERSION,
};
use crate::sweeplog::SweepLog;
use dtb_core::policy::Row;
use dtb_obs::{Envelope, Event};
use dtb_sim::engine::{SimBudget, SimRun};
use dtb_sim::exec::RetryPolicy;
use dtb_sim::journal::{read_journal, JournalCell, JournalHeader, JournalWriter, JOURNAL_VERSION};
use dtb_sim::CkpError;
use dtb_trace::programs::Program;
use std::collections::{BTreeMap, HashMap};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Coordinator tuning knobs.
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// How long a lease is valid. Past this, the worker is presumed dead
    /// and the cell is re-leased — the service-side reuse of the
    /// executor's per-cell wall-clock deadline.
    pub lease_timeout: Duration,
    /// How transient failures (including lease expiry) are retried:
    /// `max_retries` bounds re-leases beyond the first attempt. Backoff
    /// delays are worker-side; the coordinator only counts attempts.
    pub retry: RetryPolicy,
    /// Directory for durable per-sweep journals (`<dir>/sweep-<id>/`);
    /// `None` keeps completions in memory only (tests).
    pub journal_dir: Option<PathBuf>,
    /// What idle workers are told to wait before re-polling.
    pub idle_retry: Duration,
    /// Per-tenant cell quotas, merged into every leased cell's budget.
    /// Tenants not listed get [`SimBudget::UNLIMITED`].
    pub quotas: HashMap<String, SimBudget>,
    /// Ignored. `GET /results` reads the sweep state, and a sweep's
    /// journal is the one durable copy of its finalized cells; the field
    /// remains so existing callers keep compiling.
    pub results_path: Option<PathBuf>,
    /// Chaos-harness fault fuse armed on every sweep journal: each trip
    /// tears one finalization append, which must leave its cell open.
    /// Unarmed (the default) in production.
    pub journal_fault: FaultFuse,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            lease_timeout: Duration::from_secs(60),
            retry: RetryPolicy::retries(2),
            journal_dir: None,
            idle_retry: Duration::from_millis(100),
            quotas: HashMap::new(),
            results_path: None,
            journal_fault: FaultFuse::none(),
        }
    }
}

/// Where one cell stands in the lease/complete state machine.
#[derive(Debug)]
enum CellStatus {
    /// Waiting for a worker.
    Pending,
    /// Leased out; `lease` must be echoed by the completion.
    Leased { lease: u64, expires: Instant },
    /// Final: the run was journaled.
    Done { run: SimRun },
    /// Final: failed permanently (or out of retries); cause journaled.
    /// `transient` preserves the failure's class (see
    /// [`CellResult::transient`]).
    Quarantined { failure: String, transient: bool },
}

impl CellStatus {
    fn is_final(&self) -> bool {
        matches!(
            self,
            CellStatus::Done { .. } | CellStatus::Quarantined { .. }
        )
    }
}

#[derive(Debug)]
struct CellState {
    program: Program,
    row: Row,
    status: CellStatus,
    /// Leases granted so far.
    attempts: u32,
    /// Wall-clock nanoseconds of the finalizing attempt.
    elapsed_ns: u64,
}

struct SweepState {
    id: u64,
    spec: SweepSpec,
    cells: Vec<CellState>,
    journal: Option<JournalWriter>,
}

impl SweepState {
    fn finalized(&self) -> u64 {
        self.cells.iter().filter(|c| c.status.is_final()).count() as u64
    }

    fn is_done(&self) -> bool {
        self.cells.iter().all(|c| c.status.is_final())
    }

    /// Makes one cell final — journaling the outcome first, then flipping
    /// the in-memory state. This is the **only** place a cell becomes
    /// `Done`/`Quarantined` and the only place a cell journal line is
    /// written, which makes "exactly one completion per cell" a
    /// structural property rather than a convention.
    ///
    /// On a journal error the cell is left untouched (still leased or
    /// pending): durability gates finality, never the other way round.
    fn finalize(
        &mut self,
        index: usize,
        run: Option<SimRun>,
        failure: Option<String>,
        transient: bool,
        elapsed_ns: u64,
    ) -> Result<(), CkpError> {
        let cell = &mut self.cells[index];
        debug_assert!(!cell.status.is_final(), "finalize called twice on a cell");
        if let Some(journal) = &mut self.journal {
            journal.cell(&JournalCell {
                column: cell.program.label().to_string(),
                row: cell.row.to_string(),
                attempts: cell.attempts.max(1),
                elapsed_ns,
                run: run.clone(),
                failure: failure.clone(),
                transient: Some(transient),
            })?;
        }
        cell.elapsed_ns = elapsed_ns;
        cell.status = match (run, failure) {
            (Some(run), _) => CellStatus::Done { run },
            (None, Some(failure)) => CellStatus::Quarantined { failure, transient },
            (None, None) => unreachable!("finalize needs a run or a failure"),
        };
        Ok(())
    }

    /// Quarantined cells in this sweep.
    fn failed(&self) -> u64 {
        self.cells
            .iter()
            .filter(|c| matches!(c.status, CellStatus::Quarantined { .. }))
            .count() as u64
    }
}

/// One cell's servable final (or in-flight) state, as `GET /sweep` and
/// `GET /results` both shape it.
fn cell_result(cell: &CellState) -> CellResult {
    CellResult {
        column: cell.program.label().to_string(),
        row: cell.row.to_string(),
        attempts: cell.attempts.max(1),
        elapsed_ns: cell.elapsed_ns,
        run: match &cell.status {
            CellStatus::Done { run } => Some(run.clone()),
            _ => None,
        },
        failure: match &cell.status {
            CellStatus::Quarantined { failure, .. } => Some(failure.clone()),
            _ => None,
        },
        transient: matches!(
            cell.status,
            CellStatus::Quarantined {
                transient: true,
                ..
            }
        ),
    }
}

/// Publishes one coordinator lifecycle event twice: onto the local obs
/// bus (in-process sinks) and into the `/events` log (followers). The
/// log's sequence number is authoritative for the wire framing; the
/// line leads with `{"epoch":E,"seq":S,` so followers can resume from
/// an unambiguous cursor across restarts.
fn publish_event(events: &EventLog, scope: u64, event: Event) {
    dtb_obs::emit(|| event.clone());
    events.publish_with(|epoch, seq| {
        let env = dtb_obs::encode_json(&Envelope { seq, scope, event });
        format!("{{\"epoch\":{epoch},{}", &env[1..])
    });
}

/// What recovery rebuilt from durable storage when [`Coordinator::bind`]
/// started over a journal directory.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// The incarnation number this coordinator now runs under.
    pub epoch: u64,
    /// Sweeps replayed from the sweep log.
    pub sweeps: u64,
    /// Cells already finalized by earlier incarnations.
    pub finalized: u64,
    /// Cells still open (re-leasable) after recovery.
    pub open: u64,
}

struct State {
    config: CoordinatorConfig,
    sweeps: Vec<SweepState>,
    next_sweep: u64,
    next_lease: u64,
    /// This incarnation's epoch (from the sweep log; 1 without one).
    /// Folded into every lease token so pre-crash leases cannot collide
    /// with post-restart ones.
    epoch: u64,
    /// The durable intake log; `None` without a `journal_dir`.
    sweep_log: Option<SweepLog>,
    /// What recovery rebuilt, for `/status` and the startup banner.
    recovery: RecoveryReport,
    /// Fairness clock: bumped on every lease; each tenant remembers the
    /// tick it was last served at.
    serve_tick: u64,
    last_served: HashMap<String, u64>,
    /// The `/events` log. Shared (`Arc`) so streaming connections tail
    /// it without holding the state lock.
    events: Arc<EventLog>,
}

impl State {
    /// A fresh or recovered state: with a `journal_dir` this replays the
    /// sweep log and every per-sweep finalization journal; without one
    /// it is simply empty under epoch 1.
    ///
    /// # Errors
    ///
    /// Interior corruption of the sweep log or a journal (a missing file
    /// or torn tail is not corruption), or filesystem failures.
    fn recover(config: CoordinatorConfig) -> Result<State, CkpError> {
        let (sweep_log, epoch, logged) = match &config.journal_dir {
            None => (None, 1, Vec::new()),
            Some(dir) => {
                let (log, replay) = SweepLog::open(dir)?;
                (Some(log), replay.epoch, replay.sweeps)
            }
        };
        let events = Arc::new(EventLog::with_epoch(crate::events::DEFAULT_CAPACITY, epoch));
        let mut sweeps = Vec::with_capacity(logged.len());
        let mut next_sweep = 1;
        for (id, spec) in logged {
            let dir = config.journal_dir.as_deref().expect("logged implies dir");
            sweeps.push(rebuild_sweep(id, spec, dir, config.journal_fault.clone())?);
            next_sweep = next_sweep.max(id + 1);
        }
        let recovery = RecoveryReport {
            epoch,
            sweeps: sweeps.len() as u64,
            finalized: sweeps.iter().map(SweepState::finalized).sum(),
            open: sweeps
                .iter()
                .map(|s| s.cells.len() as u64 - s.finalized())
                .sum(),
        };
        if epoch > 1 || recovery.sweeps > 0 {
            publish_event(
                &events,
                0,
                Event::CoordinatorRecovered {
                    epoch,
                    sweeps: recovery.sweeps,
                    finalized: recovery.finalized,
                    open: recovery.open,
                },
            );
        }
        Ok(State {
            config,
            sweeps,
            next_sweep,
            next_lease: 1,
            epoch,
            sweep_log,
            recovery,
            serve_tick: 0,
            last_served: HashMap::new(),
            events,
        })
    }

    #[cfg(test)]
    fn new(config: CoordinatorConfig) -> State {
        State::recover(config).expect("recoverable state")
    }

    /// The next lease token: the epoch in the high 16 bits over a plain
    /// counter. A lease granted before a crash can therefore never equal
    /// one granted after the restart — the stale completion answers
    /// `LeaseLost` instead of finalizing someone else's cell.
    fn mint_lease(&mut self) -> u64 {
        let lease = (self.epoch << 48) | self.next_lease;
        self.next_lease += 1;
        lease
    }

    /// Returns expired leases to the pending queue (or quarantines cells
    /// that spent their retries timing out). Called lazily from every
    /// request — there is no background reaper thread to race with.
    fn expire_leases(&mut self) {
        let now = Instant::now();
        let max_attempts = 1 + self.config.retry.max_retries;
        let lease_timeout = self.config.lease_timeout;
        let events = Arc::clone(&self.events);
        for sweep in &mut self.sweeps {
            for i in 0..sweep.cells.len() {
                let cell = &mut sweep.cells[i];
                let CellStatus::Leased { lease, expires } = cell.status else {
                    continue;
                };
                if now < expires {
                    continue;
                }
                if cell.attempts >= max_attempts {
                    let failure = format!(
                        "lease expired after {} attempt(s) (lease timeout {lease_timeout:?})",
                        cell.attempts
                    );
                    // A timeout is transient-class: retries ran out, the
                    // failure itself would not recur deterministically.
                    if let Err(e) = sweep.finalize(i, None, Some(failure), true, 0) {
                        // Journal unavailable: leave the cell leased (and
                        // expired); the next pass will retry the write.
                        eprintln!("coordinator: journal write failed, cell stays open: {e}");
                        continue;
                    }
                    record_published(sweep, i, lease, "", false, &events);
                } else {
                    cell.status = CellStatus::Pending;
                    publish_event(
                        &events,
                        sweep.id,
                        Event::CellRequeued {
                            sweep: sweep.id,
                            cell: i as u64,
                            lease,
                            worker: String::new(),
                            tenant: sweep.spec.tenant.clone(),
                            cause: format!("lease expired ({lease_timeout:?})"),
                        },
                    );
                }
            }
        }
    }

    /// Picks the next cell to lease, fair across tenants: among tenants
    /// with pending work, the least-recently-served wins; within a
    /// tenant, the oldest sweep's first pending cell.
    fn pick(&mut self) -> Option<(usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for (s, sweep) in self.sweeps.iter().enumerate() {
            let Some(c) = sweep
                .cells
                .iter()
                .position(|c| matches!(c.status, CellStatus::Pending))
            else {
                continue;
            };
            let served = *self.last_served.get(&sweep.spec.tenant).unwrap_or(&0);
            // Strictly-less keeps the earliest sweep for tied tenants.
            let better = match best {
                None => true,
                Some((b, _, _)) => served < b,
            };
            if better {
                best = Some((served, s, c));
            }
        }
        let (_, s, c) = best?;
        self.serve_tick += 1;
        let tick = self.serve_tick;
        self.last_served
            .insert(self.sweeps[s].spec.tenant.clone(), tick);
        Some((s, c))
    }

    fn drained(&self) -> bool {
        !self.sweeps.is_empty() && self.sweeps.iter().all(SweepState::is_done)
    }
}

/// A running coordinator: the server thread plus the shared state.
///
/// Dropping the handle does **not** stop the server; call
/// [`Coordinator::shutdown`] (or hit `POST /shutdown`).
pub struct Coordinator {
    state: Arc<Mutex<State>>,
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Coordinator {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: CoordinatorConfig,
    ) -> std::io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // With a journal_dir this *is* recovery: replay the sweep log and
        // the finalization journals. A fresh dir recovers to an empty
        // state, so there is one startup path.
        let state = State::recover(config).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("recovery refused: {e}"),
            )
        })?;
        let state = Arc::new(Mutex::new(state));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            thread::spawn(move || serve(listener, state, stop))
        };
        Ok(Coordinator {
            state,
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// What startup recovery rebuilt (all zeroes for a fresh state).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.lock().recovery
    }

    /// The epoch (incarnation number) this coordinator runs under.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Submits a sweep in-process (equivalent to `POST /submit`).
    ///
    /// # Errors
    ///
    /// Propagates journal-creation failures.
    pub fn submit(&self, spec: SweepSpec) -> Result<u64, CkpError> {
        submit(&mut self.lock(), spec)
    }

    /// Answers one already-parsed request in-process — the same routing
    /// the TCP loop uses. Exposed so tests (and the wire proptests) can
    /// drive the full request surface without a socket.
    pub fn handle(&self, req: &Request) -> Response {
        handle_request(&mut self.lock(), req)
    }

    /// True when every submitted sweep is finished (and at least one was
    /// submitted).
    pub fn drained(&self) -> bool {
        self.lock().drained()
    }

    /// The live event log behind `GET /events` — in-process followers
    /// (and tests) can read it without a socket.
    pub fn events(&self) -> Arc<EventLog> {
        Arc::clone(&self.lock().events)
    }

    /// Blocks until the server thread exits (a `POST /shutdown`
    /// arrived) — the serve loop of the `dtb-coordinator` binary.
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Stops the server thread and waits for it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A handler panic while holding the lock poisons it; the state
        // itself stays consistent (mutations are single-assignment per
        // request), so serving beats refusing.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

fn serve(listener: TcpListener, state: Arc<Mutex<State>>, stop: Arc<AtomicBool>) {
    // Connection handlers are short-lived (one request, one response,
    // close), so a thread per connection is plenty at this protocol's
    // request rate; handles are detached and panics are contained below.
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_connection(stream, &state, &stop);
            }));
        });
    }
    // Serve loop over: close the event log so `/events` followers see a
    // clean end-of-stream instead of a timeout.
    let events = {
        let state = state.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(&state.events)
    };
    events.close();
}

fn handle_connection(mut stream: TcpStream, state: &Arc<Mutex<State>>, stop: &Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let response = match read_request(&mut stream) {
        Ok(req) => {
            if req.method == "POST" && req.path == "/shutdown" {
                stop.store(true, Ordering::SeqCst);
                Response::ok(b"{}".to_vec())
            } else if req.method == "GET" && req.path.split('?').next() == Some("/events") {
                // The one streaming route: hold the connection open and
                // push chunks. Only the Arc is taken under the lock —
                // the stream tail runs lock-free against the log.
                let events = {
                    let state = state.lock().unwrap_or_else(|p| p.into_inner());
                    Arc::clone(&state.events)
                };
                let mut from = query(&req.path, "from=").unwrap_or(1);
                // A cursor from another epoch (the follower outlived a
                // restart): its seq means nothing here, so replay the
                // whole retained window — the follower dedupes by the
                // epoch tag on each line. Absent epoch = current epoch.
                if let Some(epoch) = query(&req.path, "epoch=") {
                    if epoch != events.epoch() {
                        from = 1;
                    }
                }
                stream_events(stream, &events, stop.as_ref(), from);
                return;
            } else {
                let mut state = state.lock().unwrap_or_else(|p| p.into_inner());
                handle_request(&mut state, &req)
            }
        }
        Err(WireError::Io(_)) => return, // peer vanished; nothing to answer
        Err(e) => Response::error(400, format!("bad request: {e}")),
    };
    let _ = write_response(&mut stream, &response);
    if stop.load(Ordering::SeqCst) {
        // Wake the accept loop so the flag is noticed immediately.
        if let Ok(addr) = stream.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Streams the event log to one follower over chunked transfer: event
/// batches as they arrive, a heartbeat chunk each idle second. Exits on
/// coordinator stop, log close, or the first write failure (the
/// follower died — its death never touches the run).
fn stream_events(mut stream: TcpStream, events: &EventLog, stop: &AtomicBool, from: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    if write_chunked_head(&mut stream, 200).is_err() {
        return;
    }
    let mut from = from;
    loop {
        if stop.load(Ordering::SeqCst) {
            let _ = write_chunk_end(&mut stream);
            return;
        }
        let batch = events.read_from(from, Duration::from_secs(1));
        from = batch.next;
        if !batch.lines.is_empty() {
            let mut payload = String::new();
            for line in &batch.lines {
                payload.push_str(line);
                payload.push('\n');
            }
            if write_chunk(&mut stream, payload.as_bytes()).is_err() {
                return;
            }
        } else if !batch.closed {
            let mut beat = String::from(HEARTBEAT);
            beat.push('\n');
            if write_chunk(&mut stream, beat.as_bytes()).is_err() {
                return;
            }
        }
        if batch.closed {
            let _ = write_chunk_end(&mut stream);
            return;
        }
    }
}

/// The `u64` value of `key` (`"name="`) in a request path's query
/// string, if present and numeric.
fn query(path: &str, key: &str) -> Option<u64> {
    let (_, q) = path.split_once('?')?;
    q.split('&')
        .find_map(|kv| kv.strip_prefix(key))
        .and_then(|v| v.parse().ok())
}

/// Routes one parsed request. Total: every (method, path, body) maps to
/// a response — malformed bodies to `400`, unknown routes to `404` —
/// never a panic (the wire proptests hold this door shut). `GET
/// /events` is the exception to one-shot request/response and is
/// intercepted in [`handle_connection`] before routing reaches here;
/// through this path it answers `400`.
fn handle_request(state: &mut State, req: &Request) -> Response {
    let route = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), route) {
        ("POST", "/submit") => match decode::<SubmitRequest>(&req.body) {
            Ok(msg) => match submit(state, msg.spec) {
                Ok(sweep) => {
                    let cells = state.sweeps.last().map_or(0, |s| s.cells.len() as u64);
                    Response::ok(encode(&SubmitReply { sweep, cells }))
                }
                Err(e) => Response::error(500, format!("journal: {e}")),
            },
            Err(e) => Response::error(400, e),
        },
        ("POST", "/lease") => match decode::<LeaseRequest>(&req.body) {
            Ok(msg) => lease(state, &msg),
            Err(e) => Response::error(400, e),
        },
        ("POST", "/complete") => match decode::<CompleteRequest>(&req.body) {
            Ok(msg) => complete(state, &msg),
            Err(e) => Response::error(400, e),
        },
        ("POST", "/relay") => match decode::<RelayRequest>(&req.body) {
            Ok(msg) => relay(state, &msg),
            Err(e) => Response::error(400, e),
        },
        ("GET", "/events") => Response::error(
            400,
            "`/events` is a streaming endpoint (chunked transfer); connect a follower over TCP",
        ),
        ("GET", "/results") => {
            state.expire_leases();
            let Some(id) = query(&req.path, "sweep=") else {
                return Response::error(400, "missing or bad `sweep` query parameter");
            };
            let Some(sweep) = state.sweeps.iter().find(|s| s.id == id) else {
                return Response::error(404, format!("no results for sweep {id}"));
            };
            let cells: Vec<CellResult> = sweep
                .cells
                .iter()
                .filter(|c| c.status.is_final())
                .map(cell_result)
                .collect();
            Response::ok(encode(&ResultsReply {
                sweep: id,
                stored: cells.len() as u64,
                total: sweep.cells.len() as u64,
                complete: sweep.is_done(),
                cells,
            }))
        }
        ("GET", "/status") => {
            state.expire_leases();
            let mut queues: BTreeMap<String, TenantStatus> = BTreeMap::new();
            let sweeps: Vec<SweepStatus> = state
                .sweeps
                .iter()
                .map(|s| {
                    let pending = s
                        .cells
                        .iter()
                        .filter(|c| matches!(c.status, CellStatus::Pending))
                        .count() as u64;
                    let leased = s
                        .cells
                        .iter()
                        .filter(|c| matches!(c.status, CellStatus::Leased { .. }))
                        .count() as u64;
                    let tenant =
                        queues
                            .entry(s.spec.tenant.clone())
                            .or_insert_with(|| TenantStatus {
                                tenant: s.spec.tenant.clone(),
                                sweeps: 0,
                                pending: 0,
                                leased: 0,
                            });
                    tenant.sweeps += 1;
                    tenant.pending += pending;
                    tenant.leased += leased;
                    SweepStatus {
                        sweep: s.id,
                        tenant: s.spec.tenant.clone(),
                        finalized: s.finalized(),
                        pending,
                        leased,
                        quarantined: s
                            .cells
                            .iter()
                            .filter(|c| matches!(c.status, CellStatus::Quarantined { .. }))
                            .count() as u64,
                        total: s.cells.len() as u64,
                    }
                })
                .collect();
            Response::ok(encode(&StatusReply {
                proto: PROTO_VERSION,
                epoch: state.epoch,
                recovered_sweeps: state.recovery.sweeps,
                recovered_finalized: state.recovery.finalized,
                sweeps,
                tenants: queues.into_values().collect(),
            }))
        }
        ("GET", "/sweep") => {
            state.expire_leases();
            let Some(id) = query(&req.path, "id=") else {
                return Response::error(400, "missing or bad `id` query parameter");
            };
            let Some(sweep) = state.sweeps.iter().find(|s| s.id == id) else {
                return Response::error(404, format!("no sweep {id}"));
            };
            let done = sweep.is_done();
            let cells = if done {
                sweep.cells.iter().map(cell_result).collect()
            } else {
                Vec::new()
            };
            Response::ok(encode(&SweepReply {
                sweep: sweep.id,
                spec: sweep.spec.clone(),
                finalized: sweep.finalized(),
                total: sweep.cells.len() as u64,
                done,
                cells,
            }))
        }
        _ => Response::error(404, format!("no route {} {}", req.method, req.path)),
    }
}

/// The journal header a sweep's spec determines — shared between fresh
/// submits and recovery re-creation of a journal that never hit disk.
fn journal_header(spec: &SweepSpec, rows: &[Row]) -> JournalHeader {
    JournalHeader {
        version: JOURNAL_VERSION,
        columns: spec
            .programs
            .iter()
            .map(|p| p.label().to_string())
            .collect(),
        rows: rows.iter().map(|r| r.to_string()).collect(),
        policy: spec.policy,
        sim: spec.sim,
    }
}

/// The program-major cell grid a spec unfolds to (the same order
/// `submit` builds, so recovered cell indices line up with clients that
/// cached a sweep's shape).
fn build_cells(spec: &SweepSpec, rows: &[Row]) -> Vec<CellState> {
    let mut cells = Vec::with_capacity(spec.programs.len() * rows.len());
    for program in &spec.programs {
        for row in rows {
            cells.push(CellState {
                program: *program,
                row: row.clone(),
                status: CellStatus::Pending,
                attempts: 0,
                elapsed_ns: 0,
            });
        }
    }
    cells
}

/// Rebuilds one sweep's in-memory state from its durable record: cells
/// from the logged spec, finality and failure class from the journal
/// (each journaled completion re-marks its cell `Done`/`Quarantined` —
/// exactly-once survives the restart because `finalize` still refuses
/// final cells). A journal with no intact record (missing, or torn
/// inside its header append) is re-created fresh — the sweep was acked
/// before its journal hit disk — but a corrupt one is refused.
fn rebuild_sweep(
    id: u64,
    spec: SweepSpec,
    journal_dir: &Path,
    journal_fault: FaultFuse,
) -> Result<SweepState, CkpError> {
    let rows = spec.rows();
    let mut cells = build_cells(&spec, &rows);
    let dir = journal_dir.join(format!("sweep-{id}"));
    let mut journal = match read_journal(&dir)? {
        Some(journal) => {
            for jc in &journal.cells {
                let Some(index) = cells.iter().position(|c| {
                    !c.status.is_final()
                        && c.program.label() == jc.column
                        && c.row.to_string() == jc.row
                }) else {
                    // A journal line naming no (or only already-final)
                    // cells: tolerated — recovery never panics on data
                    // that passed its checksums but fails to line up.
                    eprintln!(
                        "coordinator: sweep {id} journal names unknown cell {}/{}; ignored",
                        jc.column, jc.row
                    );
                    continue;
                };
                let cell = &mut cells[index];
                cell.attempts = jc.attempts;
                cell.elapsed_ns = jc.elapsed_ns;
                cell.status = match (&jc.run, &jc.failure) {
                    (Some(run), _) => CellStatus::Done { run: run.clone() },
                    (None, Some(failure)) => CellStatus::Quarantined {
                        failure: failure.clone(),
                        transient: jc.is_transient(),
                    },
                    (None, None) => continue, // decodes but carries nothing
                };
            }
            JournalWriter::resume(&dir, &journal)?
        }
        // No intact record (the crash landed between the sweep-log ack
        // and the end of the journal's first append): start it fresh,
        // all cells open. Damage and I/O errors were refused above,
        // mirroring `Evaluation::resume`.
        None => JournalWriter::create(&dir, &journal_header(&spec, &rows))?,
    };
    journal.inject_fault(journal_fault);
    Ok(SweepState {
        id,
        spec,
        cells,
        journal: Some(journal),
    })
}

fn submit(state: &mut State, spec: SweepSpec) -> Result<u64, CkpError> {
    let id = state.next_sweep;
    let rows = spec.rows();
    let journal = match &state.config.journal_dir {
        None => None,
        Some(dir) => {
            let mut journal = JournalWriter::create(
                dir.join(format!("sweep-{id}")),
                &journal_header(&spec, &rows),
            )?;
            journal.inject_fault(state.config.journal_fault.clone());
            Some(journal)
        }
    };
    // Durable intake: the sweep goes into the fsync'd sweep log *before*
    // the submit is acked. On failure the id is not consumed and the
    // freshly-created journal dir is a harmless orphan (recovery ignores
    // journals the sweep log does not name).
    if let Some(log) = &mut state.sweep_log {
        log.sweep(id, &spec)?;
    }
    let cells = build_cells(&spec, &rows);
    state.next_sweep += 1;
    let tenant = spec.tenant.clone();
    let total = cells.len() as u64;
    state.sweeps.push(SweepState {
        id,
        spec,
        cells,
        journal,
    });
    publish_event(
        &state.events,
        id,
        Event::SweepSubmitted {
            sweep: id,
            tenant,
            cells: total,
        },
    );
    Ok(id)
}

fn lease(state: &mut State, req: &LeaseRequest) -> Response {
    if req.proto != PROTO_VERSION {
        return Response::error(
            400,
            format!(
                "protocol version mismatch: worker speaks {}, coordinator {}",
                req.proto, PROTO_VERSION
            ),
        );
    }
    state.expire_leases();
    let idle_ms = state.config.idle_retry.as_millis().max(1) as u64;
    let Some((s, c)) = state.pick() else {
        return Response::ok(encode(&LeaseReply {
            task: None,
            retry_ms: idle_ms,
            drained: state.drained(),
        }));
    };
    let lease = state.mint_lease();
    let lease_timeout = state.config.lease_timeout;
    let quota = state
        .config
        .quotas
        .get(&state.sweeps[s].spec.tenant)
        .copied()
        .unwrap_or(SimBudget::UNLIMITED);
    let events = Arc::clone(&state.events);
    let sweep = &mut state.sweeps[s];
    let mut sim = sweep.spec.sim;
    sim.budget = merge_budget(sim.budget, quota);
    let cell = &mut sweep.cells[c];
    cell.attempts += 1;
    cell.status = CellStatus::Leased {
        lease,
        expires: Instant::now() + lease_timeout,
    };
    let (program, row, attempt) = (cell.program, cell.row.clone(), cell.attempts);
    publish_event(
        &events,
        sweep.id,
        Event::CellLeased {
            sweep: sweep.id,
            cell: c as u64,
            lease,
            worker: req.worker.clone(),
            tenant: sweep.spec.tenant.clone(),
            attempt,
        },
    );
    Response::ok(encode(&LeaseReply {
        task: Some(CellTask {
            sweep: sweep.id,
            cell: c as u64,
            lease,
            lease_ms: lease_timeout.as_millis().min(u64::MAX as u128) as u64,
            program,
            row,
            policy: sweep.spec.policy,
            sim,
            attempt,
        }),
        retry_ms: 0,
        drained: false,
    }))
}

/// The tighter of two budgets, cap by cap: a tenant quota can only
/// shrink what a sweep asked for, never widen it.
fn merge_budget(sweep: SimBudget, quota: SimBudget) -> SimBudget {
    fn tighter(a: Option<u64>, b: Option<u64>) -> Option<u64> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (x, None) | (None, x) => x,
        }
    }
    SimBudget {
        max_events: tighter(sweep.max_events, quota.max_events),
        max_scavenges: tighter(sweep.max_scavenges, quota.max_scavenges),
    }
}

/// Post-finalize bookkeeping shared by success and quarantine: publish
/// `cell_recorded`, and `sweep_drained` when this was the sweep's last
/// open cell.
fn record_published(
    sweep: &SweepState,
    index: usize,
    lease: u64,
    worker: &str,
    ok: bool,
    events: &EventLog,
) {
    publish_event(
        events,
        sweep.id,
        Event::CellRecorded {
            sweep: sweep.id,
            cell: index as u64,
            lease,
            worker: worker.to_string(),
            tenant: sweep.spec.tenant.clone(),
            ok,
        },
    );
    if sweep.is_done() {
        publish_event(
            events,
            sweep.id,
            Event::SweepDrained {
                sweep: sweep.id,
                tenant: sweep.spec.tenant.clone(),
                failed: sweep.failed(),
            },
        );
    }
}

fn complete(state: &mut State, req: &CompleteRequest) -> Response {
    state.expire_leases();
    let max_attempts = 1 + state.config.retry.max_retries;
    let events = Arc::clone(&state.events);
    let Some(sweep) = state.sweeps.iter_mut().find(|s| s.id == req.sweep) else {
        return Response::error(404, format!("no sweep {}", req.sweep));
    };
    let index = req.cell as usize;
    let Some(cell) = sweep.cells.get(index) else {
        return Response::error(404, format!("no cell {} in sweep {}", req.cell, req.sweep));
    };
    let reply = |status: CompleteStatus| Response::ok(encode(&CompleteReply { status }));

    if cell.status.is_final() {
        // Exactly-once: the first durable completion won; later copies —
        // worker retries after a lost ack, stale-lease replays — are
        // acknowledged but change nothing and journal nothing.
        return reply(CompleteStatus::Duplicate);
    }
    match cell.status {
        CellStatus::Leased { lease, .. } if lease == req.lease => {}
        // Pending (lease expired and requeued) or re-leased under a new
        // token: this worker lost the race. Discard its result — the
        // current leaseholder owns the cell.
        _ => return reply(CompleteStatus::LeaseLost),
    }

    let attempts = cell.attempts;
    match (&req.run, &req.failure) {
        (Some(run), _) => {
            match sweep.finalize(index, Some(run.clone()), None, false, req.elapsed_ns) {
                Ok(()) => {
                    record_published(sweep, index, req.lease, &req.worker, true, &events);
                    reply(CompleteStatus::Recorded)
                }
                // Journal write failed: the cell stays leased; the worker
                // sees a 500 (transient) and retries the completion.
                Err(e) => Response::error(500, format!("journal: {e}")),
            }
        }
        (None, Some(cause)) if req.transient && attempts < max_attempts => {
            sweep.cells[index].status = CellStatus::Pending;
            publish_event(
                &events,
                sweep.id,
                Event::CellRequeued {
                    sweep: sweep.id,
                    cell: index as u64,
                    lease: req.lease,
                    worker: req.worker.clone(),
                    tenant: sweep.spec.tenant.clone(),
                    cause: cause.clone(),
                },
            );
            reply(CompleteStatus::Requeued)
        }
        (None, Some(failure)) => {
            // The failure string is stored verbatim — a served failure
            // must render exactly as a local run's would. The attempt
            // count already travels separately as `CellResult::attempts`,
            // and the failure class as `CellResult::transient`.
            match sweep.finalize(
                index,
                None,
                Some(failure.clone()),
                req.transient,
                req.elapsed_ns,
            ) {
                Ok(()) => {
                    record_published(sweep, index, req.lease, &req.worker, false, &events);
                    reply(CompleteStatus::Recorded)
                }
                Err(e) => Response::error(500, format!("journal: {e}")),
            }
        }
        (None, None) => Response::error(400, "completion carries neither run nor failure"),
    }
}

/// `POST /relay`: splice worker-side event lines into `/events`. Each
/// accepted line is re-framed as a `worker_event` carrying the sweep's
/// tenant and the relaying worker; lines failing the single-line JSON
/// framing check are dropped (counted by the difference between sent
/// and `accepted`). Best-effort by design: relayed telemetry never
/// affects cell state.
fn relay(state: &mut State, req: &RelayRequest) -> Response {
    if req.lines.len() > MAX_RELAY_LINES {
        return Response::error(
            400,
            format!(
                "relay batch of {} exceeds {MAX_RELAY_LINES} lines",
                req.lines.len()
            ),
        );
    }
    let Some(sweep) = state.sweeps.iter().find(|s| s.id == req.sweep) else {
        return Response::error(404, format!("no sweep {}", req.sweep));
    };
    let tenant = json_string(&sweep.spec.tenant);
    let worker = json_string(&req.worker);
    let scope = req.sweep;
    let cell = req.cell;
    let mut accepted = 0u64;
    for line in &req.lines {
        if !crate::events::is_clean_event_line(line) {
            continue;
        }
        state.events.publish_with(|epoch, seq| {
            format!(
                "{{\"epoch\":{epoch},\"seq\":{seq},\"scope\":{scope},\"type\":\"worker_event\",\
                 \"tenant\":{tenant},\"worker\":{worker},\"cell\":{cell},\"event\":{line}}}"
            )
        });
        accepted += 1;
    }
    Response::ok(encode(&RelayReply { accepted }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtb_core::policy::{PolicyConfig, PolicyKind};
    use dtb_sim::engine::{simulate, SimConfig};
    use dtb_trace::TraceBuilder;

    fn spec() -> SweepSpec {
        SweepSpec {
            tenant: "t1".into(),
            programs: vec![Program::Cfrac],
            policies: vec![PolicyKind::Full, PolicyKind::Fixed1],
            baselines: false,
            policy: PolicyConfig::paper(),
            sim: SimConfig::paper(),
        }
    }

    fn lease_task(state: &mut State) -> Option<CellTask> {
        let resp = lease(
            state,
            &LeaseRequest {
                proto: PROTO_VERSION,
                worker: "w".into(),
            },
        );
        assert_eq!(resp.status, 200);
        decode::<LeaseReply>(&resp.body).unwrap().task
    }

    /// A real (but tiny) run to ship in completions: these tests exercise
    /// the ledger, not the engine.
    fn tiny_run() -> SimRun {
        let mut b = TraceBuilder::new("tiny");
        for _ in 0..4 {
            let id = b.alloc(1_000);
            b.free(id);
        }
        let trace = b.finish().compile().unwrap();
        simulate(
            &trace,
            &mut dtb_core::policy::Full::new(),
            &SimConfig::paper(),
        )
        .unwrap()
    }

    fn completion(task: &CellTask, run: Option<SimRun>) -> CompleteRequest {
        CompleteRequest {
            sweep: task.sweep,
            cell: task.cell,
            lease: task.lease,
            worker: "w".into(),
            run,
            failure: None,
            transient: false,
            elapsed_ns: 1,
        }
    }

    /// `GET path`, through the request router.
    fn get(st: &mut State, path: &str) -> Response {
        let req = Request {
            method: "GET".into(),
            path: path.into(),
            body: Vec::new(),
        };
        handle_request(st, &req)
    }

    /// The `GET /results?sweep=N` reply.
    fn results_of(st: &mut State, sweep: u64) -> ResultsReply {
        let resp = get(st, &format!("/results?sweep={sweep}"));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        decode(&resp.body).unwrap()
    }

    fn status_of(resp: &Response) -> CompleteStatus {
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        decode::<CompleteReply>(&resp.body).unwrap().status
    }

    #[test]
    fn fair_round_robin_across_tenants() {
        let mut st = State::new(CoordinatorConfig::default());
        let mut heavy = spec();
        heavy.tenant = "heavy".into();
        heavy.policies = PolicyKind::ALL.to_vec();
        submit(&mut st, heavy).unwrap();
        let mut light = spec();
        light.tenant = "light".into();
        submit(&mut st, light).unwrap();

        // Four consecutive leases alternate tenants even though "heavy"
        // has three times the pending cells.
        let tenants: Vec<u64> = (0..4)
            .map(|_| lease_task(&mut st).expect("work available").sweep)
            .collect();
        assert_eq!(tenants, [1, 2, 1, 2]);
    }

    #[test]
    fn tenant_quota_tightens_the_cell_budget() {
        let cfg = CoordinatorConfig {
            quotas: HashMap::from([("t1".to_string(), SimBudget::events(10))]),
            ..CoordinatorConfig::default()
        };
        let mut st = State::new(cfg);
        submit(&mut st, spec()).unwrap();
        let task = lease_task(&mut st).unwrap();
        assert_eq!(task.sim.budget.max_events, Some(10));
        // The sweep's own (unlimited) budget was only ever tightened.
        assert_eq!(task.sim.budget.max_scavenges, None);
    }

    #[test]
    fn duplicate_completion_is_idempotent() {
        let mut st = State::new(CoordinatorConfig::default());
        submit(&mut st, spec()).unwrap();
        let task = lease_task(&mut st).unwrap();
        let req = completion(&task, Some(tiny_run()));
        assert_eq!(
            status_of(&complete(&mut st, &req)),
            CompleteStatus::Recorded
        );
        // The same completion again — a worker retrying a lost ack, or a
        // stale-lease replay — is acknowledged but changes nothing.
        assert_eq!(
            status_of(&complete(&mut st, &req)),
            CompleteStatus::Duplicate
        );
    }

    #[test]
    fn expired_lease_requeues_and_stale_completion_is_refused() {
        let cfg = CoordinatorConfig {
            lease_timeout: Duration::from_millis(1),
            ..CoordinatorConfig::default()
        };
        let mut st = State::new(cfg);
        submit(&mut st, spec()).unwrap();
        let stale = lease_task(&mut st).unwrap();
        std::thread::sleep(Duration::from_millis(5));

        // The cell comes back out under a fresh lease and a bumped
        // attempt count…
        let fresh = lease_task(&mut st).unwrap();
        assert_eq!(fresh.cell, stale.cell);
        assert_ne!(fresh.lease, stale.lease);
        assert_eq!(fresh.attempt, 2);

        // …and the stale worker's late completion is discarded. (Pin the
        // fresh lease far into the future first so it cannot also expire
        // on a slow machine.)
        if let CellStatus::Leased { expires, .. } =
            &mut st.sweeps[0].cells[fresh.cell as usize].status
        {
            *expires = Instant::now() + Duration::from_secs(600);
        }
        let run = tiny_run();
        let resp = complete(&mut st, &completion(&stale, Some(run.clone())));
        assert_eq!(status_of(&resp), CompleteStatus::LeaseLost);

        // The current leaseholder's completion is the one that lands.
        let resp = complete(&mut st, &completion(&fresh, Some(run)));
        assert_eq!(status_of(&resp), CompleteStatus::Recorded);
    }

    #[test]
    fn transient_failures_requeue_then_quarantine_with_attempts() {
        let dir = tempdir("svc-transient");
        let cfg = CoordinatorConfig {
            retry: RetryPolicy::retries(1), // 2 attempts total
            journal_dir: Some(dir.clone()),
            ..CoordinatorConfig::default()
        };
        let mut st = State::new(cfg.clone());
        submit(&mut st, spec()).unwrap();

        let fail = |st: &mut State, task: &CellTask| {
            let mut req = completion(task, None);
            req.failure = Some("connection reset by peer".into());
            req.transient = true;
            status_of(&complete(st, &req))
        };

        let t1 = lease_task(&mut st).unwrap();
        assert_eq!(fail(&mut st, &t1), CompleteStatus::Requeued);
        // The requeued cell comes around again (lease until we find it:
        // cell order within the sweep is not part of the contract).
        let t2 = loop {
            let t = lease_task(&mut st).unwrap();
            if t.cell == t1.cell {
                break t;
            }
        };
        assert_eq!(t2.attempt, 2);
        assert_eq!(fail(&mut st, &t2), CompleteStatus::Recorded);
        let cell = &st.sweeps[0].cells[t1.cell as usize];
        let CellStatus::Quarantined { failure, transient } = &cell.status else {
            panic!("expected quarantine, got {:?}", cell.status);
        };
        // The cause is stored verbatim (no "(after N attempts)" suffix):
        // a served failure renders exactly as a local one; the attempt
        // count travels separately.
        assert_eq!(failure, "connection reset by peer");
        assert!(*transient, "retries-exhausted keeps its transient class");
        assert_eq!(cell.attempts, 2);

        // …and `/results` serves both verbatim, before and after a
        // restart: the journal carries the failure class.
        for st in [&mut st, &mut State::new(cfg)] {
            let results = results_of(st, 1);
            assert_eq!(results.stored, 1);
            let stored = &results.cells[0];
            assert_eq!(stored.failure.as_deref(), Some("connection reset by peer"));
            assert!(stored.transient, "quarantined as transient, not permanent");
            assert_eq!(stored.attempts, 2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn permanent_failures_quarantine_immediately() {
        let mut st = State::new(CoordinatorConfig::default());
        submit(&mut st, spec()).unwrap();
        let task = lease_task(&mut st).unwrap();
        let mut req = completion(&task, None);
        req.failure = Some("policy `FULL` failed: injected".into());
        assert_eq!(
            status_of(&complete(&mut st, &req)),
            CompleteStatus::Recorded
        );
        let cell = &st.sweeps[0].cells[task.cell as usize];
        assert!(matches!(cell.status, CellStatus::Quarantined { .. }));
        assert_eq!(cell.attempts, 1);
    }

    #[test]
    fn version_mismatch_is_refused() {
        let mut st = State::new(CoordinatorConfig::default());
        submit(&mut st, spec()).unwrap();
        let resp = lease(
            &mut st,
            &LeaseRequest {
                proto: PROTO_VERSION + 1,
                worker: "w".into(),
            },
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn journal_records_exactly_one_line_per_cell() {
        let dir = tempdir("svc-journal");
        let cfg = CoordinatorConfig {
            journal_dir: Some(dir.clone()),
            ..CoordinatorConfig::default()
        };
        let mut st = State::new(cfg);
        submit(&mut st, spec()).unwrap();
        let run = tiny_run();
        while let Some(task) = lease_task(&mut st) {
            let req = completion(&task, Some(run.clone()));
            assert_eq!(
                status_of(&complete(&mut st, &req)),
                CompleteStatus::Recorded
            );
            // Replay it: refused as duplicate, nothing re-journaled.
            assert_eq!(
                status_of(&complete(&mut st, &req)),
                CompleteStatus::Duplicate
            );
        }
        let journal = dtb_sim::read_journal(dir.join("sweep-1")).unwrap().unwrap();
        assert_eq!(journal.cells.len(), 2);
        let mut keys: Vec<(String, String)> = journal
            .cells
            .iter()
            .map(|c| (c.column.clone(), c.row.clone()))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 2, "duplicate journal lines for a cell");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rebuilds_sweeps_and_fences_stale_leases() {
        let dir = tempdir("svc-recover");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = CoordinatorConfig {
            journal_dir: Some(dir.clone()),
            ..CoordinatorConfig::default()
        };
        let run = tiny_run();
        let (stale, done_cell) = {
            let mut st = State::new(cfg.clone());
            assert_eq!(st.epoch, 1);
            submit(&mut st, spec()).unwrap();
            let done = lease_task(&mut st).unwrap();
            assert_eq!(
                status_of(&complete(&mut st, &completion(&done, Some(run.clone())))),
                CompleteStatus::Recorded
            );
            // Leave the second cell leased — its worker "dies" with the
            // coordinator and will straggle in after the restart.
            let stale = lease_task(&mut st).unwrap();
            (stale, done.cell)
        };

        // "Restart": a new state over the same directories.
        let mut st = State::new(cfg.clone());
        assert_eq!(st.epoch, 2, "every open bumps the epoch");
        assert_eq!(st.recovery.sweeps, 1);
        assert_eq!(st.recovery.finalized, 1);
        assert_eq!(st.recovery.open, 1);
        assert_eq!(st.next_sweep, 2, "sweep ids continue, never reused");
        assert!(
            st.sweeps[0].cells[done_cell as usize].status.is_final(),
            "finalized stays finalized across the restart"
        );

        // The pre-crash worker's completion arrives late: its lease
        // token belongs to epoch 1 and can never match an epoch-2 lease.
        let resp = complete(&mut st, &completion(&stale, Some(run.clone())));
        assert_eq!(status_of(&resp), CompleteStatus::LeaseLost);

        // The open cell re-leases and finishes normally; re-finalizing
        // the recovered cell is refused as a duplicate.
        let fresh = lease_task(&mut st).unwrap();
        assert_eq!(fresh.cell, stale.cell);
        assert!(fresh.lease != stale.lease);
        assert_eq!(fresh.attempt, 1, "recovery re-opens, attempts restart");
        assert_eq!(
            status_of(&complete(&mut st, &completion(&fresh, Some(run.clone())))),
            CompleteStatus::Recorded
        );
        let mut dup = completion(&fresh, Some(run));
        dup.cell = done_cell;
        assert_eq!(
            status_of(&complete(&mut st, &dup)),
            CompleteStatus::Duplicate
        );
        assert!(st.sweeps[0].is_done());

        // Exactly one journal line per cell, across both incarnations.
        let journal = dtb_sim::read_journal(dir.join("sweep-1")).unwrap().unwrap();
        assert_eq!(journal.cells.len(), 2);
        let mut keys: Vec<(String, String)> = journal
            .cells
            .iter()
            .map(|c| (c.column.clone(), c.row.clone()))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 2);

        // A sweep whose journal is torn inside its first append (the
        // crash landed between the sweep-log ack and the header's fsync)
        // holds no record: recovery re-creates it with every cell open.
        let torn = submit(&mut st, spec()).unwrap();
        drop(st);
        let path = dtb_sim::journal::journal_path(dir.join(format!("sweep-{torn}")));
        let header = std::fs::read(&path).unwrap();
        std::fs::write(&path, &header[..header.len() / 2]).unwrap();
        let st = State::new(cfg);
        assert_eq!(st.recovery.sweeps, 2);
        assert_eq!(st.recovery.finalized, 2, "sweep 1 is untouched");
        assert_eq!(st.recovery.open, 2);
        assert!(st.sweeps[1].cells.iter().all(|c| !c.status.is_final()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_sweep_log_refuses_recovery() {
        let dir = tempdir("svc-refuse");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = CoordinatorConfig {
            journal_dir: Some(dir.clone()),
            ..CoordinatorConfig::default()
        };
        {
            let mut st = State::new(cfg.clone());
            submit(&mut st, spec()).unwrap();
            submit(&mut st, spec()).unwrap();
        }
        let log = dir.join(crate::sweeplog::SWEEP_LOG_FILE);
        let mut bytes = std::fs::read(&log).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&log, &bytes).unwrap();
        assert!(State::recover(cfg).is_err(), "interior corruption refused");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_disk_fault_leaves_the_cell_open() {
        let dir = tempdir("svc-diskfault");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = CoordinatorConfig {
            journal_dir: Some(dir.clone()),
            journal_fault: FaultFuse::charges(1),
            ..CoordinatorConfig::default()
        };
        let mut st = State::new(cfg);
        submit(&mut st, spec()).unwrap();
        let task = lease_task(&mut st).unwrap();
        let req = completion(&task, Some(tiny_run()));

        // The armed fuse tears the finalization write: the worker sees a
        // 500, the cell is NOT final, and replay drops the torn record.
        let resp = complete(&mut st, &req);
        assert_eq!(
            resp.status,
            500,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        assert!(!st.sweeps[0].cells[task.cell as usize].status.is_final());
        let journal = dtb_sim::read_journal(dir.join("sweep-1")).unwrap().unwrap();
        assert!(journal.cells.is_empty(), "no torn finalization");

        // The fuse is spent; the worker's retry of the same completion
        // (same lease) lands durably.
        assert_eq!(
            status_of(&complete(&mut st, &req)),
            CompleteStatus::Recorded
        );
        let journal = dtb_sim::read_journal(dir.join("sweep-1")).unwrap().unwrap();
        assert_eq!(journal.cells.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dtb-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Event `type` tags published so far, in sequence order.
    fn event_tags(st: &State) -> Vec<String> {
        st.events
            .read_from(1, Duration::ZERO)
            .lines
            .iter()
            .map(|line| {
                line.split("\"type\":\"")
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .unwrap_or("?")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn lifecycle_events_stream_in_order() {
        let mut st = State::new(CoordinatorConfig::default());
        submit(&mut st, spec()).unwrap();
        let run = tiny_run();
        while let Some(task) = lease_task(&mut st) {
            let req = completion(&task, Some(run.clone()));
            assert_eq!(
                status_of(&complete(&mut st, &req)),
                CompleteStatus::Recorded
            );
        }
        assert_eq!(
            event_tags(&st),
            [
                "sweep_submitted",
                "cell_leased",
                "cell_recorded",
                "cell_leased",
                "cell_recorded",
                "sweep_drained",
            ]
        );
        // Lines are well-formed envelopes: the epoch-tagged cursor leads
        // and the seq is monotone.
        let lines = st.events.read_from(1, Duration::ZERO).lines;
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"epoch\":1,\"seq\":{},", i + 1)),
                "{line}"
            );
        }
    }

    #[test]
    fn results_serve_finalized_cells_before_the_sweep_is_done() {
        // No journal: nothing outlives this incarnation, whatever
        // `results_path` names.
        let dir = tempdir("svc-results");
        let cfg = CoordinatorConfig {
            results_path: Some(dir.join("results.dtbres")),
            ..CoordinatorConfig::default()
        };
        let mut st = State::new(cfg.clone());
        submit(&mut st, spec()).unwrap();
        let first = lease_task(&mut st).unwrap();
        let req = completion(&first, Some(tiny_run()));
        assert_eq!(
            status_of(&complete(&mut st, &req)),
            CompleteStatus::Recorded
        );
        // One of two cells final: /sweep withholds cells, /results serves
        // the finalized one already.
        assert!(!st.sweeps[0].is_done());
        let results = results_of(&mut st, 1);
        assert_eq!((results.stored, results.total), (1, 2));
        assert!(!results.complete);
        assert_eq!(results.cells[0].row, first.row.to_string());
        assert!(results.cells[0].run.is_some());
        let last = lease_task(&mut st).unwrap();
        complete(&mut st, &completion(&last, Some(tiny_run())));
        assert!(results_of(&mut st, 1).complete);

        // A restarted coordinator knows no sweep 1 until it hands that
        // id out again, and then serves the new sweep's results, never
        // the previous incarnation's.
        let mut st = State::new(cfg);
        assert_eq!(get(&mut st, "/results?sweep=1").status, 404);
        submit(&mut st, spec()).unwrap();
        let results = results_of(&mut st, 1);
        assert_eq!((results.stored, results.total), (0, 2));
        assert!(!results.complete);
        let task = lease_task(&mut st).unwrap();
        let mut req = completion(&task, None);
        req.failure = Some("policy `FULL` failed: injected".into());
        assert_eq!(
            status_of(&complete(&mut st, &req)),
            CompleteStatus::Recorded
        );
        let results = results_of(&mut st, 1);
        assert_eq!(results.stored, 1);
        assert_eq!(results.cells[0].row, task.row.to_string());
        assert_eq!(results.cells[0].failure, req.failure);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn relay_reframes_clean_lines_and_drops_garbage() {
        let mut st = State::new(CoordinatorConfig::default());
        submit(&mut st, spec()).unwrap();
        let resp = relay(
            &mut st,
            &RelayRequest {
                sweep: 1,
                cell: 0,
                worker: "w\"1".into(),
                lines: vec![
                    "{\"type\":\"scavenge\",\"at\":42}".into(),
                    "not json".into(),
                    "{\"multi\":\nline}".into(),
                ],
            },
        );
        assert_eq!(resp.status, 200);
        assert_eq!(decode::<RelayReply>(&resp.body).unwrap().accepted, 1);
        let lines = st.events.read_from(1, Duration::ZERO).lines;
        let relayed = lines.last().unwrap();
        assert!(relayed.contains("\"type\":\"worker_event\""), "{relayed}");
        assert!(relayed.contains("\"tenant\":\"t1\""), "{relayed}");
        assert!(relayed.contains("\"worker\":\"w\\\"1\""), "{relayed}");
        assert!(
            relayed.ends_with("\"event\":{\"type\":\"scavenge\",\"at\":42}}"),
            "{relayed}"
        );

        // Unknown sweeps and oversized batches are refused.
        let resp = relay(
            &mut st,
            &RelayRequest {
                sweep: 99,
                cell: 0,
                worker: "w".into(),
                lines: vec![],
            },
        );
        assert_eq!(resp.status, 404);
        let resp = relay(
            &mut st,
            &RelayRequest {
                sweep: 1,
                cell: 0,
                worker: "w".into(),
                lines: vec!["{}".to_string(); MAX_RELAY_LINES + 1],
            },
        );
        assert_eq!(resp.status, 400);
    }
}
