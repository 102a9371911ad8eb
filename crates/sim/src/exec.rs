//! Parallel evaluation executor: the (program × policy) matrix as one job
//! pool.
//!
//! The paper's tables are embarrassingly parallel — every cell is one
//! independent `simulate` call — but the naive loop recompiles each preset
//! trace once per policy and uses one core. This module fixes both:
//!
//! * Preset columns resolve through [`Program::compiled`], so each
//!   preset is compiled **exactly once per process** and shared as an
//!   [`Arc<CompiledTrace>`].
//! * [`Evaluation`] is a builder that fans the matrix over a scoped
//!   worker pool with work-stealing (a shared atomic job cursor). A
//!   column's collector rows are **one job**: one engine pass whose lanes
//!   are the rows ([`Sim::run_lanes`]), so decode, the live index and the
//!   death drain run once per column instead of once per cell. Each
//!   baseline cell is a job of its own. Results land in index-addressed
//!   slots, so the returned [`Matrix`] is **deterministic regardless of
//!   completion order** and byte-identical to a serial run.
//!
//! Cells are **fault-isolated**, within a pass too: a policy that returns
//! a typed error, or even panics, turns its own cell into
//! [`CellOutcome::Failed`] while every other cell completes normally. The
//! matrix reports its failures ([`Matrix::failures`]) instead of taking
//! the process down.
//!
//! Columns need not be in-memory traces: [`Evaluation::source`] adds a
//! **streaming** column whose pass (and each baseline cell) builds a
//! fresh [`EventSource`] and simulates it block by block, so sharded
//! on-disk stores and unbounded generators evaluate without ever
//! materializing the trace (see `dtb_trace::source`).
//!
//! # Example
//!
//! ```
//! use dtb_core::policy::PolicyKind;
//! use dtb_sim::exec::Evaluation;
//! use dtb_trace::programs::Program;
//!
//! let matrix = Evaluation::new()
//!     .programs([Program::Cfrac])
//!     .policies([PolicyKind::Full, PolicyKind::DtbFm])
//!     .run();
//! let full = matrix.get(Program::Cfrac, PolicyKind::Full).unwrap();
//! let dtbfm = matrix.get(Program::Cfrac, PolicyKind::DtbFm).unwrap();
//! assert!(dtbfm.total_traced <= full.total_traced);
//! ```

use crate::baseline::baseline_report;
use crate::curve::MemoryCurve;
use crate::engine::{Sim, SimConfig, SimRun};
use crate::error::SimError;
use crate::journal::{
    journal_path, read_journal, JournalCell, JournalHeader, JournalWriter, JOURNAL_VERSION,
};
use crate::metrics::SimReport;
use dtb_core::error::PolicyError;
use dtb_core::policy::{PolicyConfig, PolicyKind, Row, ScavengeContext, TbPolicy};
use dtb_core::time::VirtualTime;
use dtb_trace::ckp::{checksum, CkpError};
use dtb_trace::ctc::CtcError;
use dtb_trace::event::{CompiledTrace, TraceMeta};
use dtb_trace::programs::Program;
use dtb_trace::stats::TraceStats;
use dtb_trace::{CompiledSource, EventBlock, EventSource, ObjectLife, SourceError};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A zero-sized handle over [`Program::compiled`]: `cache.preset(p)` is
/// `p.compiled()`. Stays only because `benchmark/src/workloads/` names
/// it, until those files call [`Program::compiled`] directly.
#[derive(Clone, Debug, Default)]
pub struct TraceCache;

impl TraceCache {
    /// Creates a cache handle.
    pub fn new() -> TraceCache {
        TraceCache
    }

    /// The compiled trace of a preset workload. Generated and compiled at
    /// most once per process; every call returns the same [`Arc`].
    pub fn preset(&self, program: Program) -> Arc<CompiledTrace> {
        program.compiled()
    }
}

/// A policy factory: builds a fresh policy instance inside a worker.
///
/// Boxed policies are stateful and not `Send`, so the pool ships factories
/// to workers and instantiates per cell.
type PolicyFactory = Arc<dyn Fn(&PolicyConfig) -> Box<dyn TbPolicy> + Send + Sync>;

/// One row of the evaluation: what to run for each trace.
#[derive(Clone)]
enum RowSpec {
    Kind(PolicyKind),
    NoGc,
    Live,
    Custom { row: Row, build: PolicyFactory },
}

impl RowSpec {
    fn row(&self) -> Row {
        match self {
            RowSpec::Kind(kind) => Row::Policy(*kind),
            RowSpec::NoGc => Row::NoGc,
            RowSpec::Live => Row::Live,
            RowSpec::Custom { row, .. } => row.clone(),
        }
    }

    /// The collector this row runs; `None` for the baseline rows, which
    /// run no collector and so are no lane of a column's pass.
    fn build(&self, cfg: &PolicyConfig) -> Option<Box<dyn TbPolicy>> {
        match self {
            RowSpec::Kind(kind) => Some(kind.build(cfg)),
            RowSpec::Custom { build, .. } => Some(build(cfg)),
            RowSpec::NoGc | RowSpec::Live => None,
        }
    }

    fn is_lane(&self) -> bool {
        matches!(self, RowSpec::Kind(_) | RowSpec::Custom { .. })
    }
}

/// One unit of dispatch: a column's baseline row, or the one pass that
/// runs every collector row of a column the journal did not reuse.
enum Job {
    Baseline { column: usize, row: usize },
    Pass { column: usize, rows: Vec<usize> },
}

/// A streaming-source factory: builds a fresh [`EventSource`] inside a
/// worker, once per cell. Each cell needs its own cursor (a source is
/// consumed by reading), so columns ship factories, not sources.
pub type SourceFactory = Arc<dyn Fn() -> Box<dyn EventSource + Send> + Send + Sync>;

/// One column target: a preset program, an ad-hoc trace, or a streaming
/// source.
#[derive(Clone)]
enum Target {
    Preset(Program),
    Trace(Arc<CompiledTrace>),
    Stream { name: String, make: SourceFactory },
}

impl Target {
    fn program(&self) -> Option<Program> {
        match self {
            Target::Preset(p) => Some(*p),
            Target::Trace(_) | Target::Stream { .. } => None,
        }
    }
}

/// Progress information delivered to [`Evaluation::on_cell`] as each cell
/// completes. Callbacks observe *completion* order, which under parallel
/// execution is nondeterministic; the [`Matrix`] itself is not.
#[derive(Clone, Debug)]
pub struct CellEvent<'a> {
    /// Workload name of the completed cell's column.
    pub program: &'a str,
    /// Row of the completed cell.
    pub row: &'a Row,
    /// Wall-clock time this one cell took: for a collector row, its share
    /// of the column's pass (see [`Cell::elapsed`]).
    pub elapsed: Duration,
    /// Whether the cell failed (typed error or contained panic).
    pub failed: bool,
    /// Cells completed so far, including this one.
    pub completed: usize,
    /// Total cells in the evaluation.
    pub total: usize,
}

type CellCallback = Arc<dyn Fn(&CellEvent<'_>) + Send + Sync>;

/// How the executor retries cells that fail *transiently* (a missed
/// deadline or a shard-store I/O error — see
/// [`FailureCause::is_transient`]).
///
/// Delays grow exponentially from [`base_delay`](RetryPolicy::base_delay)
/// and are capped at [`max_delay`](RetryPolicy::max_delay), with
/// **deterministic jitter**: the wait for a given (cell, attempt) pair is
/// a pure FNV hash of the two, so reruns sleep the same schedule and
/// tests stay reproducible, while different cells still desynchronize.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = never retry).
    pub max_retries: u32,
    /// Delay before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Upper bound on any one delay.
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// Never retry: every failure is final on the first attempt.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        base_delay: Duration::ZERO,
        max_delay: Duration::ZERO,
    };

    /// `n` retries with the default backoff (25 ms base, 2 s cap).
    pub fn retries(n: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries: n,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
        }
    }

    /// The wait before retry number `attempt` (0-based) of the cell
    /// salted `salt`: exponential backoff with deterministic jitter in
    /// the upper half of the capped window.
    pub fn delay(&self, salt: u64, attempt: u32) -> Duration {
        let base = self.base_delay.as_nanos().min(u64::MAX as u128) as u64;
        if base == 0 {
            return Duration::ZERO;
        }
        let max = self.max_delay.as_nanos().min(u64::MAX as u128) as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(63));
        let capped = exp.min(max).max(1);
        let mut seed = [0u8; 12];
        seed[..8].copy_from_slice(&salt.to_le_bytes());
        seed[8..].copy_from_slice(&attempt.to_le_bytes());
        let jitter = checksum(&seed);
        let half = capped / 2;
        Duration::from_nanos(half + jitter % (capped - half + 1))
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::NONE
    }
}

/// A one-shot wall-clock alarm: arms on construction, and if not
/// disarmed (dropped) within `limit`, stores `true` into the shared
/// cancel flag that the engine polls between events.
///
/// Dropping the watchdog hangs up the channel, which wakes the timer
/// thread immediately — a finished cell never waits out its deadline —
/// and joins it, so no timer thread outlives its cell. The executor arms
/// one per supervised cell and the service worker one per leased cell.
pub struct Watchdog {
    disarm: Option<mpsc::Sender<()>>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the alarm: `cancel` is set once `limit` elapses, unless
    /// the watchdog is dropped first.
    pub fn arm(limit: Duration, cancel: Arc<AtomicBool>) -> Watchdog {
        let (disarm, expired) = mpsc::channel::<()>();
        let thread = thread::spawn(move || {
            // Timeout = the deadline passed; Disconnected = the cell
            // finished and the watchdog was dropped.
            if let Err(mpsc::RecvTimeoutError::Timeout) = expired.recv_timeout(limit) {
                cancel.store(true, Ordering::Relaxed);
            }
        });
        Watchdog {
            disarm: Some(disarm),
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.disarm.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Why one cell failed while the rest of the matrix completed.
#[derive(Clone, Debug, PartialEq)]
pub enum FailureCause {
    /// The simulation returned a typed error.
    Sim(SimError),
    /// The cell's policy (or a custom factory) panicked; the panic was
    /// caught at the cell boundary and stringified.
    Panic(String),
    /// The cell overran its wall-clock deadline
    /// ([`Evaluation::cell_deadline`]) and was cancelled by the
    /// watchdog.
    Deadline {
        /// The configured per-cell limit.
        limit: Duration,
        /// Allocation clock when the cancellation was observed.
        at: VirtualTime,
    },
    /// The cell was evaluated by the distributed service and quarantined
    /// there; the string is the coordinator's recorded cause. The
    /// quarantine is final — the service spent its own retries before
    /// quarantining — but `transient` preserves the *class* of the
    /// underlying failure, so remote and local failures render with the
    /// same transient/permanent classification.
    Remote {
        /// The coordinator's recorded cause.
        cause: String,
        /// Whether the underlying failure was transient (the service
        /// exhausted its retries on it).
        transient: bool,
    },
}

impl FailureCause {
    /// True for failures worth retrying: a missed deadline (the machine
    /// may have been momentarily overloaded) or a shard-store I/O error
    /// (the file may reappear — network mounts do that). Policy errors,
    /// invariant violations, corruption, and panics are deterministic
    /// and permanent: retrying would fail identically.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            FailureCause::Deadline { .. }
                | FailureCause::Sim(SimError::Source {
                    source: SourceError::Shard(CtcError::Io { .. }),
                    ..
                })
                | FailureCause::Remote {
                    transient: true,
                    ..
                }
        )
    }
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Sim(e) => write!(f, "{e}"),
            FailureCause::Panic(msg) => write!(f, "panicked: {msg}"),
            FailureCause::Deadline { limit, at } => {
                write!(f, "deadline of {limit:?} exceeded at clock {}", at.as_u64())
            }
            FailureCause::Remote { cause, .. } => write!(f, "remote: {cause}"),
        }
    }
}

/// One failed matrix cell, with enough context to name it in a report.
#[derive(Clone, Debug, PartialEq)]
pub struct CellFailure {
    /// Workload name of the failed cell's column.
    pub program: String,
    /// Row of the failed cell.
    pub row: Row,
    /// What went wrong.
    pub cause: FailureCause,
}

impl CellFailure {
    /// True when the failure is worth retrying
    /// ([`FailureCause::is_transient`]).
    pub fn is_transient(&self) -> bool {
        self.cause.is_transient()
    }

    /// Renders the failure for a human report: cell, cause,
    /// transient/permanent class, and attempts consumed.
    ///
    /// This is the **one** formatter for failed cells — local runs and
    /// `--submit` runs served by the distributed service both go
    /// through it, so the two paths render identically (a served
    /// failure differs only by its `remote:` provenance prefix). The
    /// class tells the reader what a rerun would do: transient causes
    /// retry (these exhausted the retry budget), permanent and remote
    /// causes fail identically every time.
    pub fn render(&self, attempts: u32) -> String {
        let class = if self.is_transient() {
            "transient, retries exhausted"
        } else {
            "permanent"
        };
        format!(
            "{} × {}: {} [{class}; {attempts} attempt(s)]",
            self.program, self.row, self.cause
        )
    }
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} × {}: {}", self.program, self.row, self.cause)
    }
}

/// The outcome of one matrix cell: a completed simulation or an isolated
/// failure.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The simulation finished and produced a report.
    Completed(SimRun),
    /// The simulation failed; the failure was contained to this cell.
    Failed(CellFailure),
}

/// One matrix cell: a row's simulation over one column's trace.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Which table row this cell belongs to.
    pub row: Row,
    /// The simulation outcome (completed run or isolated failure).
    pub outcome: CellOutcome,
    /// Wall-clock time this cell took inside its worker (all attempts
    /// and backoff waits included; for a cell reused from a resumed
    /// journal, the time the *original* run recorded). A collector row
    /// runs as one lane of its column's pass, so its time is the pass's
    /// wall time divided by the pass's lane count, attempt by attempt: a
    /// column's cells sum to the worker time spent on them.
    pub elapsed: Duration,
    /// How many attempts the cell took: 1 on first-try success, more
    /// when transient failures were retried
    /// ([`Evaluation::retry`]).
    pub attempts: u32,
}

impl Cell {
    /// The simulation output, when the cell completed.
    pub fn run(&self) -> Option<&SimRun> {
        match &self.outcome {
            CellOutcome::Completed(run) => Some(run),
            CellOutcome::Failed(_) => None,
        }
    }

    /// The cell's table metrics, when the cell completed.
    pub fn report(&self) -> Option<&SimReport> {
        self.run().map(|r| &r.report)
    }

    /// The failure, when the cell did not complete.
    pub fn failure(&self) -> Option<&CellFailure> {
        match &self.outcome {
            CellOutcome::Completed(_) => None,
            CellOutcome::Failed(f) => Some(f),
        }
    }
}

/// Builder for a (program × policy) evaluation run.
///
/// Defaults reproduce the paper's full matrix: every preset in
/// [`Program::ALL`], all six collectors of [`PolicyKind::ALL`], plus the
/// `No GC` / `LIVE` baseline rows, under the paper's Section 5
/// configuration, on all available cores.
pub struct Evaluation {
    targets: Option<Vec<Target>>,
    policies: Vec<PolicyKind>,
    customs: Vec<(Row, PolicyFactory)>,
    baselines: bool,
    policy_cfg: PolicyConfig,
    sim_cfg: SimConfig,
    parallelism: usize,
    on_cell: Option<CellCallback>,
    deadline: Option<Duration>,
    retry: RetryPolicy,
    journal_dir: Option<PathBuf>,
    resume: bool,
}

impl Default for Evaluation {
    fn default() -> Self {
        Evaluation::new()
    }
}

impl Evaluation {
    /// An evaluation of the paper's full matrix (see the type docs).
    pub fn new() -> Evaluation {
        Evaluation {
            targets: None,
            policies: PolicyKind::ALL.to_vec(),
            customs: Vec::new(),
            baselines: true,
            policy_cfg: PolicyConfig::paper(),
            sim_cfg: SimConfig::paper(),
            parallelism: 0,
            on_cell: None,
            deadline: None,
            retry: RetryPolicy::NONE,
            journal_dir: None,
            resume: false,
        }
    }

    /// Restricts the columns to these preset workloads (replacing any
    /// previously selected targets).
    pub fn programs(mut self, programs: impl IntoIterator<Item = Program>) -> Evaluation {
        self.targets = Some(programs.into_iter().map(Target::Preset).collect());
        self
    }

    /// Adds an ad-hoc compiled trace as a column (keeps existing columns;
    /// call after [`programs`](Evaluation::programs) to mix presets and
    /// custom traces).
    pub fn trace(mut self, trace: Arc<CompiledTrace>) -> Evaluation {
        self.targets
            .get_or_insert_with(Vec::new)
            .push(Target::Trace(trace));
        self
    }

    /// Adds a streaming column: its collector rows run as the lanes of
    /// one engine pass ([`Sim::run_lanes`]) over a fresh [`EventSource`]
    /// built by `make` for each attempt, so the column's trace is never
    /// materialized in memory — sharded on-disk stores
    /// ([`dtb_trace::ShardReader`]) and unbounded generators
    /// ([`dtb_trace::SynthSource`]) both fit. Baseline rows stream too
    /// ([`TraceStats::compute_source`](dtb_trace::stats::TraceStats::compute_source)).
    ///
    /// `name` labels the column ([`Column::name`]); reports carry the
    /// source's own metadata name, exactly as an in-memory run would.
    pub fn source(
        mut self,
        name: impl Into<String>,
        make: impl Fn() -> Box<dyn EventSource + Send> + Send + Sync + 'static,
    ) -> Evaluation {
        self.targets
            .get_or_insert_with(Vec::new)
            .push(Target::Stream {
                name: name.into(),
                make: Arc::new(make),
            });
        self
    }

    /// Restricts the collector rows to these kinds, in this order
    /// (replacing the default six). Baselines are controlled separately by
    /// [`baselines`](Evaluation::baselines).
    pub fn policies(mut self, kinds: impl IntoIterator<Item = PolicyKind>) -> Evaluation {
        self.policies = kinds.into_iter().collect();
        self
    }

    /// Adds a row for a policy outside the paper's six. The factory runs
    /// inside worker threads, once per attempt of its column's pass.
    pub fn custom_policy(
        mut self,
        name: impl Into<String>,
        build: impl Fn(&PolicyConfig) -> Box<dyn TbPolicy> + Send + Sync + 'static,
    ) -> Evaluation {
        self.customs
            .push((Row::Custom(name.into()), Arc::new(build)));
        self
    }

    /// Whether to append the `No GC` / `LIVE` baseline rows (default
    /// `true`).
    pub fn baselines(mut self, include: bool) -> Evaluation {
        self.baselines = include;
        self
    }

    /// The constraint configuration handed to every policy factory.
    pub fn policy_config(mut self, cfg: PolicyConfig) -> Evaluation {
        self.policy_cfg = cfg;
        self
    }

    /// The simulation parameters (trigger, cost model, curve recording,
    /// and the per-cell work budget, [`SimConfig::budget`]).
    pub fn sim_config(mut self, cfg: SimConfig) -> Evaluation {
        self.sim_cfg = cfg;
        self
    }

    /// Worker-thread count. `0` (the default) means one worker per
    /// available core; `1` forces a serial run — which produces the same
    /// [`Matrix`] as any other setting, only slower.
    pub fn parallelism(mut self, workers: usize) -> Evaluation {
        self.parallelism = workers;
        self
    }

    /// Wall-clock deadline per cell: a cell still running after `limit`
    /// is cancelled by a watchdog thread and reported as
    /// [`FailureCause::Deadline`] — retried if a
    /// [`retry`](Evaluation::retry) policy allows, quarantined as a
    /// failed cell otherwise, while every other column completes
    /// normally. A column's collector rows run as one pass of `n` lanes,
    /// so the watchdog cancels the pass once its wall time passes
    /// `n × limit` (the engine polls the flag between events), failing
    /// the lanes still running. Baseline rows (`No GC` / `LIVE`) are
    /// bounded too: the stats kernel's source read stops at the next
    /// block once the watchdog trips.
    pub fn cell_deadline(mut self, limit: Duration) -> Evaluation {
        self.deadline = Some(limit);
        self
    }

    /// How transient cell failures are retried (default:
    /// [`RetryPolicy::NONE`]). Only failures
    /// [`is_transient`](FailureCause::is_transient) reports retryable
    /// are retried; deterministic failures fail on the first attempt no
    /// matter the policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Evaluation {
        self.retry = policy;
        self
    }

    /// Writes a durable journal to `dir/run.journal`: one fsync'd,
    /// checksummed record per completed cell (see [`crate::journal`]).
    /// Replaces any journal already in `dir`; use
    /// [`resume`](Evaluation::resume) to continue one instead.
    pub fn journal(mut self, dir: impl Into<PathBuf>) -> Evaluation {
        self.journal_dir = Some(dir.into());
        self.resume = false;
        self
    }

    /// Resumes from the journal in `dir`: cells the journal records as
    /// completed are reused verbatim (their [`SimRun`]s come from the
    /// journal, bit-identical to the original computation), failed cells
    /// are recomputed, and new outcomes append to the same journal. A
    /// journal with no intact record (missing, empty, or torn inside its
    /// header) simply starts fresh, so crash-in-a-loop scripts can pass
    /// the same directory unconditionally. The journal's header
    /// must match this evaluation's shape and configuration; a mismatch
    /// is a typed [`CkpError::Mismatch`] from
    /// [`try_run`](Evaluation::try_run).
    pub fn resume(mut self, dir: impl Into<PathBuf>) -> Evaluation {
        self.journal_dir = Some(dir.into());
        self.resume = true;
        self
    }

    /// Installs a progress callback invoked after every completed cell
    /// (from worker threads, in completion order). A callback that panics
    /// is contained: the panic is swallowed at the cell boundary.
    pub fn on_cell(mut self, f: impl Fn(&CellEvent<'_>) + Send + Sync + 'static) -> Evaluation {
        self.on_cell = Some(Arc::new(f));
        self
    }

    /// Runs every cell and assembles the matrix.
    ///
    /// Each preset trace is compiled at most once per process (shared
    /// through [`Program::compiled`]); each column's collector rows run as
    /// one pass and its baseline rows as a job each, fanned out over a
    /// scoped worker pool; results return in (column, row) table order no
    /// matter which worker finished first. Journal records and
    /// [`on_cell`](Evaluation::on_cell) callbacks stay per cell: a pass
    /// reports its cells in row order, one at a time.
    ///
    /// Failures never escape their cell: a policy error, watchdog trip,
    /// missed deadline, invariant violation, or panic becomes that
    /// cell's [`CellOutcome::Failed`] and every other cell still
    /// completes. An evaluation with no columns or no rows returns an
    /// empty matrix.
    ///
    /// # Panics
    ///
    /// Only when a [`journal`](Evaluation::journal) /
    /// [`resume`](Evaluation::resume) directory was configured and the
    /// journal itself fails (I/O, corruption, header mismatch) — use
    /// [`try_run`](Evaluation::try_run) to handle those as values. An
    /// evaluation without a journal cannot panic here.
    pub fn run(self) -> Matrix {
        self.try_run()
            .expect("evaluation journal failed; use try_run() to handle journal errors")
    }

    /// [`run`](Evaluation::run), with journal failures as typed errors.
    ///
    /// # Errors
    ///
    /// [`CkpError`] when the configured journal cannot be created,
    /// written, or (on resume) read back — including
    /// [`CkpError::Mismatch`] when the journal on disk belongs to a
    /// differently-shaped or differently-configured evaluation.
    pub fn try_run(self) -> Result<Matrix, CkpError> {
        let targets: Vec<Target> = match self.targets {
            Some(t) => t,
            None => Program::ALL.iter().copied().map(Target::Preset).collect(),
        };

        let mut rows: Vec<RowSpec> = self.policies.iter().copied().map(RowSpec::Kind).collect();
        rows.extend(
            self.customs
                .into_iter()
                .map(|(row, build)| RowSpec::Custom { row, build }),
        );
        if self.baselines {
            rows.push(RowSpec::NoGc);
            rows.push(RowSpec::Live);
        }
        if targets.is_empty() || rows.is_empty() {
            return Ok(Matrix {
                columns: Vec::new(),
            });
        }

        // Resolve every column's trace up front (cheap: presets are memoized
        // process-wide) so workers share, never compile. Streaming columns
        // stay unresolved — that is the point.
        let traces: Vec<Option<Arc<CompiledTrace>>> = targets
            .iter()
            .map(|t| match t {
                Target::Preset(p) => Some(p.compiled()),
                Target::Trace(arc) => Some(arc.clone()),
                Target::Stream { .. } => None,
            })
            .collect();
        let names: Vec<String> = targets
            .iter()
            .zip(&traces)
            .map(|(t, trace)| match t {
                Target::Stream { name, .. } => name.clone(),
                _ => trace.as_ref().expect("resolved above").meta.name.clone(),
            })
            .collect();
        let row_labels: Vec<String> = rows.iter().map(|spec| spec.row().to_string()).collect();

        // Journal / resume setup: cells the journal already records as
        // completed are reused verbatim and never re-run.
        let mut reused: HashMap<(usize, usize), (SimRun, Duration, u32)> = HashMap::new();
        let writer: Option<Mutex<JournalWriter>> = match &self.journal_dir {
            None => None,
            Some(dir) => {
                let header = JournalHeader {
                    version: JOURNAL_VERSION,
                    columns: names.clone(),
                    rows: row_labels.clone(),
                    policy: self.policy_cfg,
                    sim: self.sim_cfg,
                };
                // A resume against a journal with no intact record —
                // missing, empty, or torn inside its header append — is
                // a fresh start, not an error: the common case is "first
                // run with --resume in the launch script" (or a crash
                // before the header landed), and refusing it would make
                // resume-by-default unusable. Interior corruption still
                // errors: that journal *had* results and silently
                // discarding them would be data loss.
                let existing = if self.resume {
                    let existing = read_journal(dir)?;
                    if existing.is_none() {
                        eprintln!(
                            "evaluation: nothing to resume at {}; starting a fresh run",
                            journal_path(dir).display()
                        );
                    }
                    existing
                } else {
                    None
                };
                match existing {
                    Some(journal) => {
                        check_journal_compat(&journal.header, &header)?;
                        for (c, column) in names.iter().enumerate() {
                            for (r, row) in row_labels.iter().enumerate() {
                                if let Some(cell) = journal.cell(column, row) {
                                    if let Some(run) = &cell.run {
                                        reused.insert(
                                            (c, r),
                                            (
                                                run.clone(),
                                                Duration::from_nanos(cell.elapsed_ns),
                                                cell.attempts,
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                        Some(Mutex::new(JournalWriter::resume(dir, &journal)?))
                    }
                    None => Some(Mutex::new(JournalWriter::create(dir, &header)?)),
                }
            }
        };

        // A column's `No GC` and `LIVE` cells read one `TraceStats`,
        // computed once by whichever of them asks first (see
        // `column_stats`).
        let baseline_stats: Vec<Mutex<Option<TraceStats>>> =
            targets.iter().map(|_| Mutex::new(None)).collect();
        // A column's collector rows run as one pass; its baseline rows
        // are a job each. Each column dispatches as `[No GC, pass]`, and
        // every `LIVE` job comes after all of them, so `LIVE` almost
        // always finds its stats ready instead of waiting for them.
        // Columns dispatch largest pass first, so the longest pass never
        // starts last and leaves the other workers idle at the tail.
        // Results merge by key, so the table keeps its row order.
        let mut columns: Vec<(usize, Vec<usize>)> = (0..targets.len())
            .map(|column| {
                let lanes = (0..rows.len())
                    .filter(|&r| rows[r].is_lane() && !reused.contains_key(&(column, r)))
                    .collect();
                (column, lanes)
            })
            .collect();
        // A stream's length is unknown until read: assume it is large.
        columns.sort_by_key(|(column, lanes): &(usize, Vec<usize>)| {
            std::cmp::Reverse(
                traces[*column]
                    .as_ref()
                    .map_or(usize::MAX, |t| t.len().saturating_mul(lanes.len())),
            )
        });
        let (no_gc, live) = match self.baselines {
            true => (Some(rows.len() - 2), Some(rows.len() - 1)),
            false => (None, None),
        };
        let baseline = |column: usize, row: Option<usize>| {
            row.filter(|&row| !reused.contains_key(&(column, row)))
                .map(|row| Job::Baseline { column, row })
        };
        let mut jobs: Vec<Job> = Vec::new();
        let mut live_jobs: Vec<Job> = Vec::new();
        for (column, lanes) in columns {
            jobs.extend(baseline(column, no_gc));
            if !lanes.is_empty() {
                jobs.push(Job::Pass {
                    column,
                    rows: lanes,
                });
            }
            live_jobs.extend(baseline(column, live));
        }
        jobs.append(&mut live_jobs);
        let total: usize = jobs
            .iter()
            .map(|job| match job {
                Job::Baseline { .. } => 1,
                Job::Pass { rows, .. } => rows.len(),
            })
            .sum();
        dtb_obs::emit(|| dtb_obs::Event::EvalStarted {
            cells: total as u64,
        });
        // Progress callbacks fire from workers in completion order; a
        // dedicated counter keeps `completed` accurate even when the
        // finishing order is scrambled.
        let completed = AtomicUsize::new(0);
        // The first journal-write failure, surfaced after the pool drains
        // (cells keep computing; only durability is lost).
        let journal_err: Mutex<Option<CkpError>> = Mutex::new(None);
        // Journals and reports one finished cell: record, then telemetry,
        // then the callback.
        let finish =
            |c: usize, r: usize, outcome: &CellOutcome, elapsed: Duration, attempts: u32| {
                if let Some(writer) = &writer {
                    let line = JournalCell {
                        column: names[c].clone(),
                        row: row_labels[r].clone(),
                        attempts,
                        elapsed_ns: elapsed.as_nanos().min(u64::MAX as u128) as u64,
                        run: match outcome {
                            CellOutcome::Completed(run) => Some(run.clone()),
                            CellOutcome::Failed(_) => None,
                        },
                        failure: match outcome {
                            CellOutcome::Completed(_) => None,
                            CellOutcome::Failed(f) => Some(f.to_string()),
                        },
                        transient: Some(
                            matches!(outcome, CellOutcome::Failed(f) if f.is_transient()),
                        ),
                    };
                    let result = writer.lock().unwrap_or_else(|p| p.into_inner()).cell(&line);
                    if let Err(e) = result {
                        journal_err
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .get_or_insert(e);
                    }
                }
                let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                // The bus carries the canonical lifecycle record; the
                // `on_cell` callback below is a thin compatibility adapter
                // over the same moment (same counter, same ordering).
                dtb_obs::emit(|| dtb_obs::Event::CellFinished {
                    column: names[c].clone(),
                    row: row_labels[r].clone(),
                    attempts,
                    elapsed_ns: elapsed.as_nanos().min(u64::MAX as u128) as u64,
                    completed: done as u64,
                    total: total as u64,
                    outcome: match outcome {
                        CellOutcome::Completed(_) => dtb_obs::CellOutcome::Completed,
                        CellOutcome::Failed(_) => dtb_obs::CellOutcome::Failed,
                    },
                    cause: match outcome {
                        CellOutcome::Completed(_) => String::new(),
                        CellOutcome::Failed(f) => f.cause.to_string(),
                    },
                });
                if let Some(cb) = &self.on_cell {
                    let event = CellEvent {
                        program: &names[c],
                        row: &rows[r].row(),
                        elapsed,
                        failed: matches!(outcome, CellOutcome::Failed(_)),
                        completed: done,
                        total,
                    };
                    // A panicking observer must not take the cell down with it.
                    let _ = catch_unwind(AssertUnwindSafe(|| cb(&event)));
                }
            };
        let salt = |c: usize, r: usize| (c * rows.len() + r) as u64;
        let results = run_indexed(self.parallelism, jobs.len(), |job| {
            let (c, cells): (usize, Vec<usize>) = match &jobs[job] {
                Job::Baseline { column, row } => (*column, vec![*row]),
                Job::Pass { column, rows } => (*column, rows.clone()),
            };
            let labels: Vec<(Row, u64)> =
                cells.iter().map(|&r| (rows[r].row(), salt(c, r))).collect();
            let outcomes = supervise(
                &names[c],
                &labels,
                self.deadline,
                &self.retry,
                |todo, cancel| match &jobs[job] {
                    Job::Baseline { row, .. } => vec![run_baseline(
                        &targets[c],
                        traces[c].as_deref(),
                        &baseline_stats[c],
                        &names[c],
                        &rows[*row],
                        cancel,
                    )],
                    Job::Pass { rows: lanes, .. } => {
                        let specs: Vec<&RowSpec> = todo.iter().map(|&i| &rows[lanes[i]]).collect();
                        run_pass(
                            &targets[c],
                            traces[c].as_deref(),
                            &names[c],
                            &specs,
                            &self.policy_cfg,
                            &self.sim_cfg,
                            cancel,
                        )
                    }
                },
            );
            // Cells come out of a job in row order, one at a time.
            cells
                .into_iter()
                .zip(outcomes)
                .map(|(r, (outcome, elapsed, attempts))| {
                    finish(c, r, &outcome, elapsed, attempts);
                    ((c, r), (outcome, elapsed, attempts))
                })
                .collect::<Vec<_>>()
        });
        if let Some(e) = journal_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(e);
        }

        // Merge computed and journal-reused cells back into column-major
        // table order.
        let mut computed: HashMap<(usize, usize), (CellOutcome, Duration, u32)> =
            results.into_iter().flatten().collect();
        let cell_count = targets.len() * rows.len();
        let mut all = Vec::with_capacity(cell_count);
        for c in 0..targets.len() {
            for r in 0..rows.len() {
                let entry = match reused.remove(&(c, r)) {
                    Some((run, elapsed, attempts)) => {
                        (CellOutcome::Completed(run), elapsed, attempts)
                    }
                    None => computed
                        .remove(&(c, r))
                        .expect("every cell is computed or reused"),
                };
                all.push(entry);
            }
        }

        let matrix = assemble(targets, traces, names, &rows, all);
        debug_assert_eq!(matrix.cells().count(), cell_count);
        Ok(matrix)
    }
}

/// Refuses to resume a journal written by a differently-shaped or
/// differently-configured evaluation.
fn check_journal_compat(found: &JournalHeader, expected: &JournalHeader) -> Result<(), CkpError> {
    fn field(what: &'static str, expected: String, found: String) -> Result<(), CkpError> {
        if expected == found {
            Ok(())
        } else {
            Err(CkpError::Mismatch {
                what,
                expected,
                found,
            })
        }
    }
    field(
        "journal version",
        expected.version.to_string(),
        found.version.to_string(),
    )?;
    field(
        "journal columns",
        format!("{:?}", expected.columns),
        format!("{:?}", found.columns),
    )?;
    field(
        "journal rows",
        format!("{:?}", expected.rows),
        format!("{:?}", found.rows),
    )?;
    field(
        "policy config",
        format!("{:?}", expected.policy),
        format!("{:?}", found.policy),
    )?;
    field(
        "sim config",
        format!("{:?}", expected.sim),
        format!("{:?}", found.sim),
    )
}

/// Runs a job's cells under supervision: a deadline watchdog per
/// attempt and bounded retry of the cells that failed transiently.
///
/// `cells` names each cell (its row and retry salt); `attempt(todo,
/// cancel)` computes the cells listed in `todo` (indices into `cells`)
/// and returns their outcomes in that order. An attempt over `n` cells
/// gets `n` deadlines of wall time, since its cells share one pass. A
/// retry reruns only the cells that failed transiently, after one
/// backoff wait salted by the first of them. Each attempt's wall time,
/// its backoff wait included, is split evenly over the cells it ran, so
/// a job's cells sum to the worker time spent on them. Returns each
/// cell's outcome, elapsed time and attempt count, in `cells` order.
fn supervise(
    name: &str,
    cells: &[(Row, u64)],
    deadline: Option<Duration>,
    retry: &RetryPolicy,
    mut attempt: impl FnMut(&[usize], Option<&AtomicBool>) -> Vec<CellOutcome>,
) -> Vec<(CellOutcome, Duration, u32)> {
    let mut attempts = vec![0u32; cells.len()];
    let mut elapsed = vec![Duration::ZERO; cells.len()];
    let mut outcomes: Vec<Option<CellOutcome>> = vec![None; cells.len()];
    let mut todo: Vec<usize> = (0..cells.len()).collect();
    while !todo.is_empty() {
        let started = Instant::now();
        for &i in &todo {
            attempts[i] += 1;
            dtb_obs::emit(|| dtb_obs::Event::CellStarted {
                column: name.to_string(),
                row: cells[i].0.to_string(),
                attempt: attempts[i],
            });
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let results = {
            let lanes = u32::try_from(todo.len()).unwrap_or(u32::MAX);
            let _watchdog = deadline
                .map(|limit| Watchdog::arm(limit.saturating_mul(lanes), Arc::clone(&cancel)));
            attempt(&todo, deadline.map(|_| &*cancel))
            // Watchdog drops here: the timer thread wakes and joins
            // before the next attempt re-arms.
        };
        debug_assert_eq!(results.len(), todo.len());
        let mut again = Vec::new();
        for (&i, outcome) in todo.iter().zip(results) {
            // The watchdog is this flag's only writer, so a cancelled
            // run is by construction a missed deadline.
            let outcome = match (outcome, deadline) {
                (
                    CellOutcome::Failed(CellFailure {
                        program,
                        row,
                        cause: FailureCause::Sim(SimError::Cancelled { at }),
                    }),
                    Some(limit),
                ) => CellOutcome::Failed(CellFailure {
                    program,
                    row,
                    cause: FailureCause::Deadline { limit, at },
                }),
                (outcome, _) => outcome,
            };
            match &outcome {
                CellOutcome::Failed(f) if f.is_transient() && attempts[i] <= retry.max_retries => {
                    again.push((i, f.cause.to_string()));
                }
                _ => outcomes[i] = Some(outcome),
            }
        }
        if let Some(&(first, _)) = again.first() {
            let delay = retry.delay(cells[first].1, attempts[first] - 1);
            for (i, cause) in &again {
                dtb_obs::emit(|| dtb_obs::Event::CellRetried {
                    column: name.to_string(),
                    row: cells[*i].0.to_string(),
                    attempt: attempts[*i],
                    delay_ns: delay.as_nanos().min(u64::MAX as u128) as u64,
                    cause: cause.clone(),
                });
            }
            thread::sleep(delay);
        }
        let share = started.elapsed() / u32::try_from(todo.len()).unwrap_or(u32::MAX);
        for &i in &todo {
            elapsed[i] += share;
        }
        todo = again.into_iter().map(|(i, _)| i).collect();
    }
    outcomes
        .into_iter()
        .zip(elapsed)
        .zip(attempts)
        .map(|((outcome, elapsed), attempts)| {
            (
                outcome.expect("every cell ends completed or failed"),
                elapsed,
                attempts,
            )
        })
        .collect()
}

/// A lane's policy with its panics contained: a panic in
/// `select_boundary` becomes a typed policy error, which fails this lane
/// only, and its message is kept for the cell's [`FailureCause::Panic`].
struct Contained {
    policy: Box<dyn TbPolicy>,
    panic: Option<String>,
}

impl TbPolicy for Contained {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn select_boundary(&mut self, ctx: &ScavengeContext<'_>) -> Result<VirtualTime, PolicyError> {
        match catch_unwind(AssertUnwindSafe(|| self.policy.select_boundary(ctx))) {
            Ok(result) => result,
            Err(payload) => {
                let reason = panic_message(payload.as_ref());
                self.panic = Some(reason.clone());
                Err(PolicyError::Internal {
                    policy: self.policy.name().to_string(),
                    reason,
                })
            }
        }
    }

    fn constraint(&self) -> Option<dtb_core::constraint::Constraint> {
        self.policy.constraint()
    }
}

/// Runs one attempt of a column's pass: every row of `specs` as a lane
/// of one [`Sim::run_lanes`] over the column's trace or a fresh source.
/// Failures stay in their cell: a factory or policy panic and a lane's
/// typed error fail that lane only; a panic outside any policy (the
/// engine, the source) fails every lane of the attempt. When `cancel` is
/// set the pass polls it between events (the deadline watchdog's hook).
fn run_pass(
    target: &Target,
    trace: Option<&CompiledTrace>,
    name: &str,
    specs: &[&RowSpec],
    policy_cfg: &PolicyConfig,
    sim_cfg: &SimConfig,
    cancel: Option<&AtomicBool>,
) -> Vec<CellOutcome> {
    let failed = |spec: &RowSpec, cause| {
        CellOutcome::Failed(CellFailure {
            program: name.to_string(),
            row: spec.row(),
            cause,
        })
    };
    let mut outcomes: Vec<Option<CellOutcome>> = Vec::with_capacity(specs.len());
    let mut policies: Vec<Contained> = Vec::with_capacity(specs.len());
    let mut lane_spec: Vec<usize> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| spec.build(policy_cfg))) {
            Ok(Some(policy)) => {
                policies.push(Contained {
                    policy,
                    panic: None,
                });
                lane_spec.push(i);
                outcomes.push(None);
            }
            Ok(None) => unreachable!("baseline rows are not lanes"),
            Err(payload) => outcomes.push(Some(failed(
                spec,
                FailureCause::Panic(panic_message(payload.as_ref())),
            ))),
        }
    }
    let runs = catch_unwind(AssertUnwindSafe(|| {
        let sim = match cancel {
            Some(flag) => Sim::new(*sim_cfg).cancel(flag),
            None => Sim::new(*sim_cfg),
        };
        match target {
            // Each pass consumes its own cursor: sources are stateful.
            Target::Stream { make, .. } if !policies.is_empty() => {
                sim.run_lanes(&mut *make(), &mut policies)
            }
            Target::Stream { .. } => Vec::new(),
            _ => sim.run_trace_lanes(
                trace.expect("non-stream targets resolve a trace"),
                &mut policies,
            ),
        }
    }));
    match runs {
        Ok(runs) => {
            for ((&i, run), policy) in lane_spec.iter().zip(runs).zip(&policies) {
                let spec = specs[i];
                outcomes[i] = Some(match (run, &policy.panic) {
                    (_, Some(msg)) => failed(spec, FailureCause::Panic(msg.clone())),
                    (Ok(mut run), None) => {
                        // The evaluation row names the report, not the
                        // policy's own `name()` — a factory may wrap a
                        // stock collector.
                        if let RowSpec::Custom { row, .. } = spec {
                            run.report.policy = row.clone();
                        }
                        CellOutcome::Completed(run)
                    }
                    (Err(e), None) => failed(spec, FailureCause::Sim(e)),
                });
            }
        }
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            for &i in &lane_spec {
                outcomes[i] = Some(failed(specs[i], FailureCause::Panic(msg.clone())));
            }
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every lane has an outcome"))
        .collect()
}

/// Runs one baseline cell with full fault isolation, reading the
/// column's shared `stats` (computing them if no sibling cell has yet).
/// When `cancel` is set, the stats kernel's source read stops at the
/// next block once it trips, and the cell fails as
/// [`SimError::Cancelled`] — the deadline watchdog's hook.
fn run_baseline(
    target: &Target,
    trace: Option<&CompiledTrace>,
    stats: &Mutex<Option<TraceStats>>,
    name: &str,
    spec: &RowSpec,
    cancel: Option<&AtomicBool>,
) -> CellOutcome {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        column_stats(stats, || {
            let computed = match target {
                Target::Stream { make, .. } => {
                    TraceStats::compute_source(&mut Watched::new(&mut *make(), cancel))
                }
                _ => TraceStats::compute_source(&mut Watched::new(
                    &mut CompiledSource::new(trace.expect("non-stream targets resolve a trace")),
                    cancel,
                )),
            };
            // Stats failures carry no allocation clock; report them at
            // zero rather than inventing one.
            let stats = computed.map_err(|source| SimError::Source {
                at: VirtualTime::ZERO,
                source,
            })?;
            if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                return Err(SimError::Cancelled {
                    at: VirtualTime::ZERO,
                });
            }
            Ok(stats)
        })
        .map(|stats| baseline_run(baseline_report(spec.row(), &stats)))
    }));
    let cause = match attempt {
        Ok(Ok(run)) => return CellOutcome::Completed(run),
        Ok(Err(e)) => FailureCause::Sim(e),
        Err(payload) => FailureCause::Panic(panic_message(payload.as_ref())),
    };
    CellOutcome::Failed(CellFailure {
        program: name.to_string(),
        row: spec.row(),
        cause,
    })
}

/// An [`EventSource`] that ends early once `cancel` trips: the stats
/// kernel reads through it, so a baseline cell stops at the next block
/// boundary after its deadline instead of reading to the end.
struct Watched<'a, S: ?Sized> {
    inner: &'a mut S,
    cancel: Option<&'a AtomicBool>,
}

impl<'a, S: EventSource + ?Sized> Watched<'a, S> {
    fn new(inner: &'a mut S, cancel: Option<&'a AtomicBool>) -> Watched<'a, S> {
        Watched { inner, cancel }
    }

    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

impl<S: EventSource + ?Sized> EventSource for Watched<'_, S> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
        if self.cancelled() {
            return Ok(None);
        }
        self.inner.next_record()
    }

    fn next_block(&mut self, block: &mut EventBlock) -> usize {
        if self.cancelled() {
            block.clear();
            return 0;
        }
        self.inner.next_block(block)
    }

    fn end(&self) -> VirtualTime {
        self.inner.end()
    }
}

/// The column's baseline statistics, computed on first use. The lock is
/// held across the computation, so a sibling cell that asks meanwhile
/// waits and reads the result instead of reading the source again. Only
/// a success is kept: a failed (or panicked) computation leaves `slot`
/// empty, so a retry (or the sibling baseline cell) computes afresh
/// instead of inheriting a transient failure.
fn column_stats(
    slot: &Mutex<Option<TraceStats>>,
    compute: impl FnOnce() -> Result<TraceStats, SimError>,
) -> Result<TraceStats, SimError> {
    let mut memo = slot.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(stats) = &*memo {
        return Ok(stats.clone());
    }
    let stats = compute()?;
    *memo = Some(stats.clone());
    Ok(stats)
}

/// Stringifies a caught panic payload (the common `&str` / `String` cases;
/// anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes `total` jobs over a scoped work-stealing pool and returns the
/// results **in job-index order**, independent of completion order.
///
/// The pool is a shared atomic cursor: idle workers steal the next index.
/// With `parallelism == 1` this degenerates to the serial loop, so parallel
/// and serial runs produce identical output for deterministic `f`.
///
/// The pool itself is panic-tolerant: a job that panics kills only its
/// worker thread; surviving workers drain the remaining jobs, and any job
/// lost to a dead worker is re-run serially afterwards (so a panic in `f`
/// surfaces on the caller's thread only if re-running it panics again).
///
/// Used by [`Evaluation::run`] and the budget sweeps in [`crate::sweep`].
pub(crate) fn run_indexed<R, F>(parallelism: usize, total: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if total == 0 {
        return Vec::new();
    }
    let workers = effective_workers(parallelism, total);
    if workers <= 1 {
        return (0..total).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let (cursor_ref, slots_ref, f_ref) = (&cursor, &slots, &f);
    // The scope result is deliberately ignored: a panicking worker must
    // not abort the evaluation. Its unfinished job is recomputed below.
    let _ = crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(move || loop {
                let job = cursor_ref.fetch_add(1, Ordering::Relaxed);
                if job >= total {
                    break;
                }
                let result = f_ref(job);
                *slots_ref[job].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(job, slot)| {
            match slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
                Some(result) => result,
                // The worker holding this job died before storing a
                // result; run it here instead.
                None => f(job),
            }
        })
        .collect()
}

fn effective_workers(parallelism: usize, total: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let requested = if parallelism == 0 { auto } else { parallelism };
    requested.max(1).min(total)
}

fn baseline_run(report: SimReport) -> SimRun {
    SimRun {
        report,
        curve: MemoryCurve::new(),
    }
}

fn assemble(
    targets: Vec<Target>,
    traces: Vec<Option<Arc<CompiledTrace>>>,
    names: Vec<String>,
    rows: &[RowSpec],
    mut results: Vec<(CellOutcome, Duration, u32)>,
) -> Matrix {
    let mut columns = Vec::with_capacity(targets.len());
    // Drain column-major: jobs were flattened column-by-column.
    let mut rest = results.drain(..);
    for ((target, trace), name) in targets.into_iter().zip(traces).zip(names) {
        let cells = rows
            .iter()
            .map(|spec| {
                let (outcome, elapsed, attempts) = match rest.next() {
                    Some(entry) => entry,
                    // Unreachable by construction (one result per job);
                    // degrade to a reported failure rather than panic.
                    None => (
                        CellOutcome::Failed(CellFailure {
                            program: name.clone(),
                            row: spec.row(),
                            cause: FailureCause::Panic("missing cell result".into()),
                        }),
                        Duration::ZERO,
                        0,
                    ),
                };
                Cell {
                    row: spec.row(),
                    outcome,
                    elapsed,
                    attempts,
                }
            })
            .collect();
        columns.push(Column {
            program: target.program(),
            trace,
            name,
            cells,
        });
    }
    Matrix { columns }
}

/// One column of the matrix: every requested row over one workload.
#[derive(Clone, Debug)]
pub struct Column {
    /// The preset this column measures, if it came from one.
    pub program: Option<Program>,
    /// The (shared) compiled trace the column ran against; `None` for
    /// streaming columns, whose events never materialize in memory.
    pub trace: Option<Arc<CompiledTrace>>,
    /// The workload name (preset label, custom trace name, or streaming
    /// column label).
    pub name: String,
    /// Cells in row order.
    pub cells: Vec<Cell>,
}

impl Column {
    /// The workload name (preset label, custom trace name, or streaming
    /// column label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This column's completed reports, in row order (failed cells are
    /// skipped; see [`Column::failures`]).
    pub fn reports(&self) -> impl Iterator<Item = &SimReport> {
        self.cells.iter().filter_map(Cell::report)
    }

    /// This column's failed cells, in row order.
    pub fn failures(&self) -> impl Iterator<Item = &CellFailure> {
        self.cells.iter().filter_map(Cell::failure)
    }
}

/// The assembled evaluation results, in table order: columns in the order
/// requested (presets default to [`Program::ALL`] order), cells in row
/// order. Identical for serial and parallel runs.
#[derive(Clone, Debug)]
pub struct Matrix {
    columns: Vec<Column>,
}

impl Matrix {
    /// Assembles a matrix from externally computed columns — how the
    /// distributed service's client rebuilds the executor's result shape
    /// from served cells, so downstream rendering and comparison code
    /// cannot tell a served matrix from a local one.
    pub fn from_columns(columns: Vec<Column>) -> Matrix {
        Matrix { columns }
    }

    /// Columns in evaluation order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// All cells in table order (column-major).
    pub fn cells(&self) -> impl Iterator<Item = (&Column, &Cell)> {
        self.columns
            .iter()
            .flat_map(|col| col.cells.iter().map(move |cell| (col, cell)))
    }

    /// Every failed cell, in table order.
    pub fn failures(&self) -> impl Iterator<Item = &CellFailure> {
        self.cells().filter_map(|(_, cell)| cell.failure())
    }

    /// True when every cell completed.
    pub fn is_complete(&self) -> bool {
        self.failures().next().is_none()
    }

    /// The report of one (program, collector) cell. `None` when the cell
    /// is absent **or failed** (inspect [`Matrix::failures`] to tell the
    /// two apart).
    pub fn get(&self, program: Program, kind: PolicyKind) -> Option<&SimReport> {
        self.get_row(program, &Row::Policy(kind))
    }

    /// The report of one (program, row) cell — rows include the baselines.
    pub fn get_row(&self, program: Program, row: &Row) -> Option<&SimReport> {
        self.cell(program, row).and_then(Cell::report)
    }

    /// The cell of one (program, row) pair, completed or failed.
    pub fn cell(&self, program: Program, row: &Row) -> Option<&Cell> {
        self.columns
            .iter()
            .find(|c| c.program == Some(program))
            .and_then(|c| c.cells.iter().find(|cell| &cell.row == row))
    }

    /// The column for a preset workload.
    pub fn column(&self, program: Program) -> Option<&Column> {
        self.columns.iter().find(|c| c.program == Some(program))
    }

    /// The column with this workload name (the only handle for streaming
    /// columns, which have no [`Program`]).
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, simulate_source};
    use dtb_core::policy::Full;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn trace_cache_presets_are_pointer_equal() {
        let a = TraceCache::new();
        let b = TraceCache::new();
        let first = a.preset(Program::Cfrac);
        assert!(Arc::ptr_eq(&first, &a.preset(Program::Cfrac)));
        // Even across cache instances: presets are process-wide.
        assert!(Arc::ptr_eq(&first, &b.preset(Program::Cfrac)));
    }

    #[test]
    fn run_indexed_orders_results_by_job_index() {
        let out = run_indexed(4, 100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(run_indexed(1, 5, |i| i), vec![0, 1, 2, 3, 4]);
        assert!(run_indexed(3, 0, |i| i).is_empty());
    }

    #[test]
    fn column_contains_all_rows_in_table_order() {
        // Use the smallest program to keep debug-build time down.
        let matrix = Evaluation::new()
            .programs([Program::Cfrac])
            .policy_config(PolicyConfig::paper())
            .sim_config(SimConfig::paper())
            .run();
        let reports: Vec<&SimReport> = matrix.columns()[0].reports().collect();
        let labels: Vec<&str> = reports.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(
            labels,
            ["FULL", "FIXED1", "FIXED4", "DTBMEM", "FEEDMED", "DTBFM", "No GC", "LIVE"]
        );
        // Sanity: every collector's memory sits between LIVE and No GC.
        let nogc = reports[6];
        let live = reports[7];
        for r in &reports[..6] {
            assert!(r.mem_max <= nogc.mem_max, "{} exceeds No GC", r.policy);
            assert!(r.mem_mean >= live.mem_mean, "{} beats LIVE", r.policy);
        }
    }

    #[test]
    fn single_cell_matrix_matches_direct_simulation() {
        let matrix = Evaluation::new()
            .programs([Program::Cfrac])
            .policies([PolicyKind::Full])
            .baselines(false)
            .parallelism(1)
            .run();
        let direct = simulate(
            &Program::Cfrac.compiled(),
            &mut Full::new(),
            &SimConfig::paper(),
        )
        .unwrap();
        assert_eq!(
            matrix.get(Program::Cfrac, PolicyKind::Full),
            Some(&direct.report)
        );
        assert!(matrix.get(Program::Cfrac, PolicyKind::DtbFm).is_none());
        assert!(matrix.is_complete());
    }

    #[test]
    fn baselines_and_custom_rows_appear_in_order() {
        let matrix = Evaluation::new()
            .programs([Program::Cfrac])
            .policies([PolicyKind::Full])
            .custom_policy("MINE", |_| Box::new(Full::new()))
            .run();
        let rows: Vec<String> = matrix.columns()[0]
            .cells
            .iter()
            .map(|c| c.row.to_string())
            .collect();
        assert_eq!(rows, ["FULL", "MINE", "No GC", "LIVE"]);
        // The custom row is FULL in disguise; identical metrics, its own
        // label.
        let col = matrix.column(Program::Cfrac).unwrap();
        let full = col.cells[0].report().unwrap();
        let mine = col.cells[1].report().unwrap();
        assert_eq!(mine.policy, Row::Custom("MINE".into()));
        assert_eq!(mine.mem_max, full.mem_max);
        assert_eq!(mine.total_traced, full.total_traced);
    }

    #[test]
    fn progress_callback_sees_every_cell() {
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = seen.clone();
        let matrix = Evaluation::new()
            .programs([Program::Cfrac])
            .policies([PolicyKind::Full, PolicyKind::Fixed1])
            .baselines(false)
            .on_cell(move |ev| {
                assert_eq!(ev.total, 2);
                assert!(ev.completed >= 1 && ev.completed <= 2);
                assert!(!ev.failed);
                seen2.fetch_add(1, Ordering::Relaxed);
            })
            .run();
        assert_eq!(seen.load(Ordering::Relaxed), 2);
        assert_eq!(matrix.cells().count(), 2);
    }

    #[test]
    fn streaming_column_matches_in_memory_column() {
        use dtb_trace::CompiledSource;

        // A source factory that replays the Cfrac preset record-at-a-time
        // must produce the same reports as the in-memory preset column,
        // for every row including the baselines.
        let matrix = Evaluation::new()
            .programs([Program::Cfrac])
            .source("cfrac-stream", || {
                /// Owns its trace so the boxed source is 'static.
                struct Owned {
                    trace: Arc<CompiledTrace>,
                    pos: usize,
                }
                impl EventSource for Owned {
                    fn meta(&self) -> &dtb_trace::TraceMeta {
                        &self.trace.meta
                    }
                    fn len_hint(&self) -> Option<usize> {
                        Some(self.trace.len())
                    }
                    fn next_record(
                        &mut self,
                    ) -> Result<Option<dtb_trace::ObjectLife>, dtb_trace::SourceError>
                    {
                        if self.pos >= self.trace.len() {
                            return Ok(None);
                        }
                        let life = self.trace.life(self.pos);
                        self.pos += 1;
                        Ok(Some(life))
                    }
                    fn end(&self) -> VirtualTime {
                        self.trace.end
                    }
                }
                Box::new(Owned {
                    trace: Program::Cfrac.compiled(),
                    pos: 0,
                })
            })
            .policies([PolicyKind::Full, PolicyKind::DtbFm])
            .run();
        assert!(matrix.is_complete(), "{:?}", matrix.failures().count());
        let resident = matrix.column(Program::Cfrac).unwrap();
        let streamed = matrix.column_by_name("cfrac-stream").unwrap();
        assert!(streamed.trace.is_none());
        assert_eq!(streamed.name(), "cfrac-stream");
        for (a, b) in resident.cells.iter().zip(&streamed.cells) {
            assert_eq!(a.row, b.row);
            assert_eq!(a.report(), b.report(), "row {}", a.row);
        }
        // CompiledSource over a borrowed trace drives the same engine
        // path; sanity-check one row against it directly.
        let trace = Program::Cfrac.compiled();
        let mut src = CompiledSource::new(&trace);
        let direct = simulate_source(
            &mut src,
            &mut PolicyKind::Full.build(&PolicyConfig::paper()),
            &SimConfig::paper(),
        )
        .unwrap();
        assert_eq!(
            streamed.cells[0].report().unwrap().mem_max,
            direct.report.mem_max
        );
    }

    #[test]
    fn failing_source_is_isolated_per_cell() {
        use dtb_trace::{SourceError, TraceMeta};
        /// Fails immediately on the first record.
        struct Broken(TraceMeta);
        impl EventSource for Broken {
            fn meta(&self) -> &TraceMeta {
                &self.0
            }
            fn next_record(&mut self) -> Result<Option<dtb_trace::ObjectLife>, SourceError> {
                Err(SourceError::Synth("no disk".into()))
            }
            fn end(&self) -> VirtualTime {
                VirtualTime::ZERO
            }
        }
        let matrix = Evaluation::new()
            .programs([Program::Cfrac])
            .source("broken", || Box::new(Broken(TraceMeta::named("broken"))))
            .policies([PolicyKind::Full])
            .run();
        // The healthy preset column is untouched...
        assert!(matrix
            .column(Program::Cfrac)
            .unwrap()
            .failures()
            .next()
            .is_none());
        // ...while every cell of the broken column reports a typed failure.
        let broken = matrix.column_by_name("broken").unwrap();
        assert_eq!(broken.failures().count(), broken.cells.len());
        for f in broken.failures() {
            assert_eq!(f.program, "broken");
            assert!(matches!(
                &f.cause,
                FailureCause::Sim(SimError::Source { .. })
            ));
        }
    }

    #[test]
    fn empty_evaluation_returns_an_empty_matrix() {
        let matrix = Evaluation::new()
            .programs([])
            .policies([PolicyKind::Full])
            .run();
        assert!(matrix.columns().is_empty());
        assert!(matrix.is_complete());
        let matrix = Evaluation::new()
            .programs([Program::Cfrac])
            .policies([])
            .baselines(false)
            .run();
        assert!(matrix.columns().is_empty());
    }

    #[test]
    fn panicking_cell_is_isolated_from_the_rest() {
        let matrix = Evaluation::new()
            .programs([Program::Cfrac])
            .policies([PolicyKind::Full])
            .custom_policy("BOOM", |_| panic!("factory exploded"))
            .baselines(false)
            .run();
        let col = matrix.column(Program::Cfrac).unwrap();
        // FULL completed normally.
        assert!(col.cells[0].report().is_some());
        // BOOM failed with the panic message, typed.
        let failure = col.cells[1].failure().unwrap();
        assert_eq!(failure.row, Row::Custom("BOOM".into()));
        assert_eq!(
            failure.cause,
            FailureCause::Panic("factory exploded".into())
        );
        assert!(!matrix.is_complete());
        assert_eq!(matrix.failures().count(), 1);
    }
}
