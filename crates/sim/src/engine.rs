//! The trace-driven scavenge engine.
//!
//! Replays a compiled trace against a [`SimHeap`] (the incremental
//! [`OracleHeap`] by default), invoking the boundary policy every time
//! the paper's GC trigger fires (1 MB of allocation by default,
//! Section 5) and accumulating the table metrics.
//!
//! The engine is panic-free on its error paths: malformed traces, failing
//! policies, exhausted watchdog budgets, and broken accounting identities
//! all surface as typed [`SimError`]s.
//!
//! # Entry points
//!
//! One builder, [`Sim`], configures and launches every kind of run;
//! [`simulate`] and [`simulate_source`] remain as one-line conveniences
//! for the two everyday cases. Every run executes on one thread through
//! one drive loop: a cell is a sequential replay (each boundary depends
//! on the scavenges before it), and the cores are spread across cells by
//! the [`Evaluation`](crate::exec::Evaluation) pool and the service
//! workers.

use crate::ckp::{save_checkpoint, CkpError, SimCheckpoint};
use crate::curve::{CurvePoint, MemoryCurve};
use crate::error::{BudgetKind, InvariantViolation, SimError};
use crate::heap::{CheckpointHeap, OracleHeap, SimHeap, SimObject};
use crate::metrics::{MetricsCollector, SimReport};
use crate::trigger::Trigger;
use dtb_core::cost::CostModel;
use dtb_core::history::ScavengeRecord;
use dtb_core::policy::{ScavengeContext, TbPolicy};
use dtb_core::time::{Bytes, VirtualTime};
use dtb_trace::event::{CompiledTrace, TraceMeta};
use dtb_trace::{CompiledSource, EventBlock, EventSource, DEFAULT_BLOCK_EVENTS};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// Heap index preallocation cap for streaming sources: an unbounded
/// source must not translate its length hint into an unbounded upfront
/// allocation.
const MAX_PREALLOC_SLOTS: usize = 1 << 20;

/// A per-run watchdog: hard caps that turn a runaway simulation into a
/// typed [`SimError::BudgetExceeded`] instead of a hang.
///
/// The default is unlimited — the caps exist for evaluations over
/// untrusted traces or policies, where a single cell must not be able to
/// stall the whole matrix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimBudget {
    /// Maximum allocation events to process (`None` = unlimited).
    pub max_events: Option<u64>,
    /// Maximum scavenges to perform (`None` = unlimited).
    pub max_scavenges: Option<u64>,
}

impl SimBudget {
    /// No limits: the watchdog never fires.
    pub const UNLIMITED: SimBudget = SimBudget {
        max_events: None,
        max_scavenges: None,
    };

    /// Caps processed allocation events.
    pub fn events(n: u64) -> SimBudget {
        SimBudget {
            max_events: Some(n),
            ..SimBudget::UNLIMITED
        }
    }

    /// Caps performed scavenges.
    pub fn scavenges(n: u64) -> SimBudget {
        SimBudget {
            max_scavenges: Some(n),
            ..SimBudget::UNLIMITED
        }
    }
}

/// Simulation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// When to scavenge (paper: every 1 million bytes of allocation).
    pub trigger: Trigger,
    /// The machine cost model (paper: 10 MIPS, 500 KB/s tracing).
    pub cost: CostModel,
    /// When true, the run also records a memory-over-time curve
    /// (Figure 2); costs one point per scavenge plus one per sample
    /// interval.
    pub record_curve: bool,
    /// Watchdog caps on events and scavenges (default: unlimited).
    pub budget: SimBudget,
    /// When true, the engine re-derives its accounting identities after
    /// every scavenge (storage conservation, scavenge bookkeeping, the
    /// boundary range) and fails with [`SimError::Invariant`] on any
    /// mismatch. Defaults to on in debug builds, off in release; set it
    /// explicitly to opt in under release.
    pub check_invariants: bool,
}

fn default_check_invariants() -> bool {
    cfg!(debug_assertions)
}

impl SimConfig {
    /// The paper's Section 5 configuration.
    pub fn paper() -> SimConfig {
        SimConfig {
            trigger: Trigger::paper(),
            cost: CostModel::paper(),
            record_curve: false,
            budget: SimBudget::UNLIMITED,
            check_invariants: default_check_invariants(),
        }
    }

    /// Enables curve recording.
    pub fn with_curve(mut self) -> SimConfig {
        self.record_curve = true;
        self
    }

    /// Sets the watchdog budget.
    pub fn with_budget(mut self, budget: SimBudget) -> SimConfig {
        self.budget = budget;
        self
    }

    /// Forces invariant checking on or off (overriding the build-profile
    /// default).
    pub fn with_invariant_checks(mut self, on: bool) -> SimConfig {
        self.check_invariants = on;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper()
    }
}

/// The result of simulating one collector over one trace: the table
/// metrics plus (optionally) the Figure 2 memory curve.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimRun {
    /// Table metrics.
    pub report: SimReport,
    /// Memory-over-time curve; empty unless requested in [`SimConfig`].
    pub curve: MemoryCurve,
}

/// How often a checkpointing run writes by default: every 10k events is
/// a few checkpoints per second on the paper workloads, cheap next to
/// the simulation itself.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 10_000;

/// Out-of-band controls for one engine run: cooperative cancellation,
/// periodic checkpointing, and resuming from a prior checkpoint.
///
/// [`RunControl::default`] is a plain uninterruptible run — the classic
/// entry points ([`simulate`], [`simulate_source`], …) all use it, and
/// with it the engine's hot loop does no extra work beyond one relaxed
/// atomic load per event.
#[derive(Clone, Debug, Default)]
pub struct RunControl<'a> {
    /// When set, the engine polls this flag between events and returns
    /// [`SimError::Cancelled`] once it reads `true`. The executor's
    /// deadline watchdog flips it from another thread.
    pub cancel: Option<&'a AtomicBool>,
    /// When set, the engine atomically rewrites this file with a
    /// [`SimCheckpoint`] every [`RunControl::checkpoint_every`] events.
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint cadence in events; `0` disables periodic checkpoints
    /// even when a path is set.
    pub checkpoint_every: u64,
    /// When set, the engine restores this state (and seeks the source
    /// past it) instead of starting from scratch.
    pub resume_from: Option<SimCheckpoint>,
    /// Events per [`dtb_trace::EventBlock`] chunk in the serial drive
    /// loop: `0` uses [`dtb_trace::DEFAULT_BLOCK_EVENTS`]; `1` forces the
    /// exact per-event reference path (every event runs the full
    /// per-event body, no segment batching). Any value produces
    /// bit-identical results — this is a throughput knob and a
    /// differential-testing handle, which is why it lives here and not in
    /// the checkpoint-compared [`SimConfig`].
    pub block_events: usize,
}

impl<'a> RunControl<'a> {
    /// A plain run: no cancellation, no checkpoints, no resume.
    pub fn new() -> RunControl<'a> {
        RunControl::default()
    }

    /// Polls `flag` between events, cancelling the run once it is set.
    pub fn with_cancel(mut self, flag: &'a AtomicBool) -> RunControl<'a> {
        self.cancel = Some(flag);
        self
    }

    /// Writes a checkpoint to `path` every `every` events.
    pub fn with_checkpoints(mut self, path: impl Into<PathBuf>, every: u64) -> RunControl<'a> {
        self.checkpoint_path = Some(path.into());
        self.checkpoint_every = every;
        self
    }

    /// Resumes from a previously loaded checkpoint.
    pub fn resuming(mut self, ckp: SimCheckpoint) -> RunControl<'a> {
        self.resume_from = Some(ckp);
        self
    }

    /// Sets the serial drive loop's chunk size in events (see
    /// [`RunControl::block_events`]).
    pub fn with_block_events(mut self, n: usize) -> RunControl<'a> {
        self.block_events = n;
        self
    }
}

/// Refuses to resume a checkpoint that belongs to a different run.
///
/// The *physics* must match — trace, policy, trigger, cost model, curve
/// recording — because they shape every number the resumed half
/// produces. The budget and invariant-checking knobs are deliberately
/// not compared: interrupting a budgeted run and resuming it with a
/// different (or no) budget is a supported workflow and cannot change
/// any simulated value.
fn check_resume_compat(
    ckp: &SimCheckpoint,
    config: &SimConfig,
    meta: &TraceMeta,
    policy: &str,
) -> Result<(), CkpError> {
    let mismatch = |what: &'static str, expected: String, found: String| {
        Err(CkpError::Mismatch {
            what,
            expected,
            found,
        })
    };
    if ckp.trace != meta.name {
        return mismatch("trace", meta.name.clone(), ckp.trace.clone());
    }
    if ckp.policy != policy {
        return mismatch("policy", policy.to_string(), ckp.policy.clone());
    }
    if ckp.config.trigger != config.trigger {
        return mismatch(
            "trigger",
            format!("{:?}", config.trigger),
            format!("{:?}", ckp.config.trigger),
        );
    }
    if ckp.config.cost != config.cost {
        return mismatch(
            "cost model",
            format!("{:?}", config.cost),
            format!("{:?}", ckp.config.cost),
        );
    }
    if ckp.config.record_curve != config.record_curve {
        return mismatch(
            "curve recording",
            config.record_curve.to_string(),
            ckp.config.record_curve.to_string(),
        );
    }
    Ok(())
}

/// Simulates `policy` over `trace`.
///
/// Mirrors the paper's methodology: allocation events drive the clock; a
/// scavenge fires whenever [`SimConfig::trigger`] says so (the paper's
/// default: every 1 MB of allocation); the policy picks the threatening
/// boundary; the oracle heap
/// traces live threatened storage and reclaims the dead threatened
/// storage. Pause times and CPU overhead follow from the cost model.
///
/// # Errors
///
/// * [`SimError::Invariant`] when the trace is malformed (births out of
///   order, deaths before births — checked on every event, so a corrupted
///   trace can never panic the heap) or, with
///   [`SimConfig::check_invariants`] on, when a post-scavenge accounting
///   identity fails.
/// * [`SimError::Policy`] when the boundary policy returns an error.
/// * [`SimError::BudgetExceeded`] when a [`SimBudget`] cap is hit.
///
/// # Example
///
/// ```
/// use dtb_core::policy::Full;
/// use dtb_sim::engine::{simulate, SimConfig};
/// use dtb_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new("tiny");
/// for _ in 0..40 {
///     let id = b.alloc(50_000);
///     b.free(id);
/// }
/// let trace = b.finish().compile()?;
/// let run = simulate(&trace, &mut Full::new(), &SimConfig::paper()).unwrap();
/// assert_eq!(run.report.collections, 2); // 2 MB allocated, 1 MB trigger
/// # Ok::<(), dtb_trace::event::TraceError>(())
/// ```
pub fn simulate(
    trace: &CompiledTrace,
    policy: &mut dyn TbPolicy,
    config: &SimConfig,
) -> Result<SimRun, SimError> {
    Sim::new(*config).run_trace(trace, policy)
}

/// Simulates `policy` over a streaming [`EventSource`].
///
/// Identical semantics to [`simulate`] — the in-memory entry points
/// delegate here through [`CompiledSource`] — but the engine only ever
/// holds the current record plus the heap's index of still-resident
/// objects, so a sharded on-disk trace ([`dtb_trace::ShardReader`]) or an
/// unbounded generator ([`dtb_trace::SynthSource`]) simulates in
/// O(live set) memory.
///
/// # Errors
///
/// Everything [`simulate`] reports, plus [`SimError::Source`] when the
/// source itself fails mid-stream (I/O, shard corruption, generator
/// fault).
pub fn simulate_source(
    source: &mut (impl EventSource + ?Sized),
    policy: &mut dyn TbPolicy,
    config: &SimConfig,
) -> Result<SimRun, SimError> {
    Sim::new(*config).run(source, policy)
}

/// One configured simulation, ready to launch: the single entry point
/// behind every way of running the engine.
///
/// A `Sim` owns its [`SimConfig`], an optional [`RunControl`] (cooperative
/// cancellation, periodic checkpointing, resume) and a heap
/// implementation chosen by type parameter (the incremental
/// [`OracleHeap`] unless [`Sim::heap`] overrides it — the differential
/// suites substitute the scan-based [`crate::heap::naive::NaiveHeap`]).
/// Launch with [`Sim::run`] (streaming source) or [`Sim::run_trace`]
/// (compiled in-memory trace).
///
/// Heaps must be [`CheckpointHeap`]s so every run, whichever heap it
/// picks, can execute under a checkpointing control.
///
/// # Example
///
/// ```
/// use dtb_core::policy::Full;
/// use dtb_sim::engine::{Sim, SimConfig};
/// use dtb_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new("tiny");
/// for _ in 0..40 {
///     let id = b.alloc(50_000);
///     b.free(id);
/// }
/// let trace = b.finish().compile()?;
/// let run = Sim::new(SimConfig::paper())
///     .run_trace(&trace, &mut Full::new())
///     .unwrap();
/// assert_eq!(run.report.collections, 2);
/// # Ok::<(), dtb_trace::event::TraceError>(())
/// ```
#[derive(Debug)]
pub struct Sim<'c, H: CheckpointHeap = OracleHeap> {
    config: SimConfig,
    control: RunControl<'c>,
    _heap: std::marker::PhantomData<H>,
}

impl<'c> Sim<'c, OracleHeap> {
    /// A simulation of `config` physics over the incremental
    /// [`OracleHeap`], uncontrolled until the other builder methods say
    /// otherwise.
    pub fn new(config: SimConfig) -> Sim<'c, OracleHeap> {
        Sim {
            config,
            control: RunControl::new(),
            _heap: std::marker::PhantomData,
        }
    }
}

impl<'c, H: CheckpointHeap> Sim<'c, H> {
    /// Attaches out-of-band controls: cooperative cancellation between
    /// events, periodic checkpoints, and resuming from a prior
    /// checkpoint.
    ///
    /// Resuming is **bit-identical**: a run interrupted at any point and
    /// resumed from its last checkpoint produces exactly the [`SimRun`] —
    /// report, history, and curve — of a run that never stopped, for
    /// every policy and for in-memory, synthetic, and sharded sources
    /// alike (the checkpoint replays the engine's complete state, and the
    /// source seeks to the recorded clock).
    pub fn control(mut self, control: RunControl<'c>) -> Sim<'c, H> {
        self.control = control;
        self
    }

    /// Selects the heap implementation by type parameter.
    ///
    /// The engine always constructs the heap itself — sized from the
    /// source's length hint, or rebuilt from a resume snapshot — so the
    /// builder takes a type, not a value.
    pub fn heap<H2: CheckpointHeap>(self) -> Sim<'c, H2> {
        Sim {
            config: self.config,
            control: self.control,
            _heap: std::marker::PhantomData,
        }
    }

    /// Sets the serial drive loop's chunk size in events: `0` keeps the
    /// default ([`dtb_trace::DEFAULT_BLOCK_EVENTS`]), `1` forces the
    /// per-event reference path. Results are bit-identical at every
    /// setting; only throughput changes.
    pub fn block_events(mut self, n: usize) -> Sim<'c, H> {
        self.control.block_events = n;
        self
    }

    /// Accepted for source compatibility and ignored: every run executes
    /// on the calling thread. A cell is a sequential replay, so cores are
    /// spent across cells instead (see
    /// [`Evaluation::parallelism`](crate::exec::Evaluation::parallelism)).
    pub fn threads(self, _n: usize) -> Sim<'c, H> {
        self
    }

    /// Simulates `policy` over a streaming [`EventSource`].
    ///
    /// # Errors
    ///
    /// * [`SimError::Invariant`] when the trace is malformed (births out
    ///   of order, deaths before births — checked on every event, so a
    ///   corrupted trace can never panic the heap) or, with
    ///   [`SimConfig::check_invariants`] on, when a post-scavenge
    ///   accounting identity fails.
    /// * [`SimError::Policy`] when the boundary policy returns an error.
    /// * [`SimError::BudgetExceeded`] when a [`SimBudget`] cap is hit.
    /// * [`SimError::Source`] when the source fails mid-stream.
    /// * [`SimError::Cancelled`] when the control's cancel flag is
    ///   observed.
    /// * [`SimError::Checkpoint`] when a checkpoint cannot be written or
    ///   the resume state belongs to a different run.
    pub fn run<S: EventSource + ?Sized>(
        self,
        source: &mut S,
        policy: &mut dyn TbPolicy,
    ) -> Result<SimRun, SimError> {
        // The drive loop executes on this thread, so one span guard
        // covers every scavenge event of the run.
        let span = ObsRunSpan::begin(
            policy.name(),
            &source.meta().name,
            self.control.block_events,
        );
        let result = run_serial::<H, S>(source, policy, &self.config, self.control);
        span.finish(&result);
        result
    }

    /// Simulates `policy` over a compiled in-memory trace.
    pub fn run_trace(
        self,
        trace: &CompiledTrace,
        policy: &mut dyn TbPolicy,
    ) -> Result<SimRun, SimError> {
        self.run(&mut CompiledSource::new(trace), policy)
    }
}

/// The drive loop: one thread, blocks of events split into safe
/// segments, with the per-event body (`block_events(1)`) as the
/// reference every block size must reproduce bit-identically.
fn run_serial<H: CheckpointHeap, S: EventSource + ?Sized>(
    source: &mut S,
    policy: &mut dyn TbPolicy,
    config: &SimConfig,
    control: RunControl<'_>,
) -> Result<SimRun, SimError> {
    if let Err(e) = config.trigger.validate() {
        return Err(SimError::Invariant {
            at: VirtualTime::ZERO,
            violation: InvariantViolation::InvalidTrigger { factor: e.factor },
        });
    }
    // Curve sampling between scavenges, if requested: every trigger/8.
    let sample_every = Bytes::new((config.trigger.allocation_scale().as_u64() / 8).max(1));
    // Hoisted out of the hot loop: an unlimited budget becomes a cap the
    // u64 event counter can never reach.
    let max_events = config.budget.max_events.unwrap_or(u64::MAX);

    let mut heap;
    let mut metrics;
    let mut curve;
    let mut since_gc;
    let mut since_sample;
    let mut clock;
    let mut ledger;
    match control.resume_from {
        Some(ckp) => {
            check_resume_compat(&ckp, config, source.meta(), policy.name()).map_err(|source| {
                SimError::Checkpoint {
                    at: ckp.clock,
                    source,
                }
            })?;
            policy
                .restore_state(&ckp.policy_state)
                .map_err(|source| SimError::Policy {
                    at: ckp.clock,
                    collection: ckp.metrics.history.len(),
                    source,
                })?;
            source.seek(ckp.clock).map_err(|source| SimError::Source {
                at: ckp.clock,
                source,
            })?;
            heap = H::restore(&ckp.heap);
            metrics = MetricsCollector::restore(config.cost, ckp.metrics);
            curve = ckp.curve;
            since_gc = ckp.since_gc;
            since_sample = ckp.since_sample;
            clock = ckp.clock;
            ledger = Ledger {
                events: ckp.events,
                allocated: ckp.allocated,
                reclaimed: ckp.reclaimed,
                prev_birth: ckp.prev_birth,
            };
        }
        None => {
            // A known-length source sizes the heap index exactly; an
            // unbounded one starts from a capped guess and grows (the
            // dead-prefix compaction in `OracleHeap` keeps the index
            // proportional to the resident set).
            heap = H::with_capacity(source.len_hint().unwrap_or(0).min(MAX_PREALLOC_SLOTS));
            metrics = MetricsCollector::new(config.cost);
            curve = MemoryCurve::new();
            since_gc = Bytes::ZERO;
            since_sample = Bytes::ZERO;
            clock = VirtualTime::ZERO;
            ledger = Ledger::default();
        }
    }

    // The drive loop pulls events in blocks and processes each block in
    // *segments*: a safe prefix — events that provably fire no trigger,
    // curve sample, budget error, shape error, or checkpoint — batches
    // straight into the heap's columnar bulk-insert path, and the one
    // event at the segment boundary replays the exact per-event body.
    // Every boundary condition is monotone in the byte prefix sum, so the
    // safe prefix length is found by binary search / partition point over
    // one precomputed prefix-sum array per block. Results are
    // bit-identical to the per-event path at every block size; `1` keeps
    // every event on the per-event body (the differential reference).
    let block_cap = if control.block_events == 0 {
        DEFAULT_BLOCK_EVENTS
    } else {
        control.block_events
    };
    let per_event_reference = block_cap <= 1;
    let mut block = EventBlock::new(block_cap);
    // Byte prefix sums over the current block: pb[i] = bytes of the first
    // i records. Reused across blocks.
    let mut pb: Vec<u64> = Vec::with_capacity(block_cap + 1);

    'drive: loop {
        if let Some(flag) = control.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(SimError::Cancelled { at: clock });
            }
        }
        let n = source.next_block(&mut block);
        if n == 0 {
            match block.take_error() {
                Some(source) => return Err(SimError::Source { at: clock, source }),
                None => break 'drive,
            }
        }
        let births = block.births();
        let sizes = block.sizes();
        let deaths = block.deaths();
        pb.clear();
        pb.push(0);
        let mut acc = 0u64;
        for &sz in sizes {
            acc += sz as u64;
            pb.push(acc);
        }

        let mut idx = 0usize;
        while idx < n {
            let remaining = n - idx;
            let s = if per_event_reference {
                0
            } else {
                // Cap the safe prefix at the first event that would hit
                // the budget, land on a checkpoint boundary, or cross the
                // curve sample interval.
                let base = pb[idx];
                let s_budget =
                    usize::try_from(max_events.saturating_sub(ledger.events)).unwrap_or(usize::MAX);
                let s_ckpt = if control.checkpoint_path.is_some() && control.checkpoint_every > 0 {
                    let every = control.checkpoint_every;
                    let next_mult = (ledger.events / every + 1) * every;
                    usize::try_from(next_mult - ledger.events - 1).unwrap_or(usize::MAX)
                } else {
                    usize::MAX
                };
                let s_curve = if config.record_curve {
                    let ss = since_sample.as_u64();
                    let lim = sample_every.as_u64();
                    pb[idx + 1..=idx + remaining].partition_point(|&p| ss + (p - base) < lim)
                } else {
                    usize::MAX
                };
                let upper = remaining.min(s_budget).min(s_ckpt).min(s_curve);
                // Largest prefix the trigger provably stays quiet for:
                // `should_collect` is monotone non-decreasing in
                // (since_gc, mem) for a fixed last-surviving value, and
                // both arguments grow with the byte prefix sum, so the
                // predicate flips at most once over the segment.
                let mem0 = heap.mem_in_use();
                let last_surviving = metrics.history().last().map(|r| r.surviving);
                let (mut lo, mut hi) = (0usize, upper);
                while lo < hi {
                    let mid = lo + (hi - lo).div_ceil(2);
                    let added = Bytes::new(pb[idx + mid] - base);
                    if config
                        .trigger
                        .should_collect(since_gc + added, mem0 + added, last_surviving)
                    {
                        hi = mid - 1;
                    } else {
                        lo = mid;
                    }
                }
                // Trace-shape screening: the batch path requires strictly
                // increasing births and death ≥ birth (the no-death
                // sentinel `u64::MAX` passes trivially); the first
                // violating event falls to the per-event body, which
                // raises the exact typed error.
                let mut s = lo;
                let mut prev_u = ledger.prev_birth.map(|b| b.as_u64());
                for (k, (&b, &d)) in births[idx..idx + lo].iter().zip(&deaths[idx..]).enumerate() {
                    if prev_u.is_some_and(|p| b <= p) || d < b {
                        s = k;
                        break;
                    }
                    prev_u = Some(b);
                }
                s
            };

            if s > 0 {
                let end = idx + s;
                // Memory held its previous level while each object was
                // being allocated: replay the per-event record_memory
                // sequence (same f64 operation order) with a running
                // level — within a safe segment memory only moves by
                // inserts, because deaths shift bytes between the live
                // and dead ledgers without changing their sum.
                let mut mem = heap.mem_in_use();
                for &sz in &sizes[idx..end] {
                    let size = Bytes::new(sz as u64);
                    metrics.record_memory(mem, size);
                    mem += size;
                }
                clock = VirtualTime::from_bytes(births[end - 1]);
                heap.insert_block(&births[idx..end], &sizes[idx..end], &deaths[idx..end]);
                let added = Bytes::new(pb[end] - pb[idx]);
                ledger.events += s as u64;
                ledger.prev_birth = Some(clock);
                ledger.allocated += added;
                since_gc += added;
                since_sample += added;
                idx = end;
                continue;
            }

            // Segment boundary (or per-event reference mode): the exact
            // per-event body, bit for bit.
            if let Some(flag) = control.cancel {
                if flag.load(Ordering::Relaxed) {
                    return Err(SimError::Cancelled { at: clock });
                }
            }
            let birth = VirtualTime::from_bytes(births[idx]);
            let obj_size = sizes[idx];
            let death =
                (deaths[idx] != EventBlock::NO_DEATH).then(|| VirtualTime::from_bytes(deaths[idx]));
            ledger.events += 1;
            if ledger.events > max_events {
                return Err(SimError::BudgetExceeded {
                    kind: BudgetKind::Events,
                    limit: max_events,
                    at: clock,
                });
            }
            // Trace-shape checks run on every event regardless of
            // `check_invariants`: they are O(1) and they stand between a
            // corrupted trace and the heap's birth-order panic.
            if let Some(prev) = ledger.prev_birth {
                if birth <= prev {
                    return Err(SimError::Invariant {
                        at: birth,
                        violation: InvariantViolation::NonMonotoneTime { prev, next: birth },
                    });
                }
            }
            if let Some(death) = death {
                if death < birth {
                    return Err(SimError::Invariant {
                        at: birth,
                        violation: InvariantViolation::DeathBeforeBirth { birth, death },
                    });
                }
            }
            ledger.prev_birth = Some(birth);

            let size = Bytes::new(obj_size as u64);
            // Memory held its previous level while this object was being
            // allocated (the clock span equals the object's size).
            metrics.record_memory(heap.mem_in_use(), size);
            clock = birth;
            heap.insert(SimObject {
                birth,
                size: obj_size,
                death,
            });
            ledger.allocated += size;
            since_gc += size;
            since_sample += size;

            if config.record_curve && since_sample >= sample_every {
                since_sample = Bytes::ZERO;
                curve.push(CurvePoint {
                    at: clock,
                    mem: heap.mem_in_use(),
                    live: heap.live_bytes_at(clock),
                    boundary: None,
                });
            }

            let last_surviving = metrics.history().last().map(|r| r.surviving);
            if config
                .trigger
                .should_collect(since_gc, heap.mem_in_use(), last_surviving)
            {
                since_gc = Bytes::ZERO;
                // A scavenge records its own curve points; restart the
                // sample interval so the next between-scavenge sample
                // measures from here instead of firing immediately after
                // the collection.
                since_sample = Bytes::ZERO;
                scavenge_now(
                    &mut heap,
                    policy,
                    &mut metrics,
                    config,
                    &mut curve,
                    clock,
                    &mut ledger,
                )?;
            }

            // Checkpoint after the event is fully processed (including
            // any scavenge it triggered), so the saved state is always at
            // an event boundary. The modulus runs on the global event
            // count, so a resumed run keeps the original cadence.
            if let Some(path) = &control.checkpoint_path {
                if control.checkpoint_every > 0 && ledger.events % control.checkpoint_every == 0 {
                    let ckp = SimCheckpoint {
                        trace: source.meta().name.clone(),
                        policy: policy.name().to_string(),
                        config: *config,
                        events: ledger.events,
                        clock,
                        since_gc,
                        since_sample,
                        allocated: ledger.allocated,
                        reclaimed: ledger.reclaimed,
                        prev_birth: ledger.prev_birth,
                        heap: heap.snapshot(),
                        metrics: metrics.state(),
                        curve: curve.clone(),
                        policy_state: policy.save_state(),
                    };
                    save_checkpoint(path, &ckp)
                        .map_err(|source| SimError::Checkpoint { at: clock, source })?;
                }
            }
            idx += 1;
        }

        // A source failure is deferred behind the block's good records:
        // they are processed (advancing the clock) first, so the typed
        // error carries the same clock the per-record path would report.
        if let Some(source) = block.take_error() {
            return Err(SimError::Source { at: clock, source });
        }
    }

    // Account for the final memory level: it holds for whatever clock span
    // remains, and must register in the maximum even when none does
    // (zero-weight records update only the max). A corrupt store could
    // report an end before the last birth; treat that as a zero span
    // rather than tripping the clock's ordering assertion.
    let end = source.end();
    let tail = if end > clock {
        end.elapsed_since(clock)
    } else {
        Bytes::ZERO
    };
    metrics.record_memory(heap.mem_in_use(), tail);

    let meta = source.meta();
    Ok(SimRun {
        report: metrics.finish(policy.name(), meta.name.clone(), meta.exec_seconds),
        curve,
    })
}

/// Telemetry span covering one engine run: enters a run scope (so every
/// scavenge event is tagged with this run's id), emits
/// `RunStarted`/`RunFinished`, and resets the estimator counters so a
/// previous run on this thread cannot leak probes into ours. Does
/// nothing — not even an allocation — when no sink is installed.
struct ObsRunSpan {
    scope: Option<dtb_obs::RunScope>,
}

impl ObsRunSpan {
    fn begin(policy: &str, source: &str, block_events: usize) -> ObsRunSpan {
        if !dtb_obs::enabled() {
            return ObsRunSpan { scope: None };
        }
        let scope = dtb_obs::RunScope::enter(dtb_obs::next_run_id());
        let _ = dtb_core::obs::take_inverse_queries();
        dtb_obs::emit(|| dtb_obs::Event::RunStarted {
            policy: policy.to_string(),
            source: source.to_string(),
            // Kept in the event formats; every run is single-threaded.
            threads: 1,
            block_events: block_events as u64,
        });
        ObsRunSpan { scope: Some(scope) }
    }

    fn finish(self, result: &Result<SimRun, SimError>) {
        if self.scope.is_some() {
            dtb_obs::emit(|| dtb_obs::Event::RunFinished {
                collections: result
                    .as_ref()
                    .map(|run| run.report.collections as u64)
                    .unwrap_or(0),
                ok: result.is_ok(),
                inverse_probes: dtb_obs::run_probes(),
            });
        }
    }
}

/// Running totals the invariant checker reconciles against the heap.
#[derive(Default)]
struct Ledger {
    events: u64,
    allocated: Bytes,
    reclaimed: Bytes,
    prev_birth: Option<VirtualTime>,
}

/// One scavenge, policy decision included: the policy picks the
/// boundary from a survival view, the heap scavenges, and the metrics,
/// curve, invariant checks and telemetry record the outcome.
fn scavenge_now<H: SimHeap>(
    heap: &mut H,
    policy: &mut dyn TbPolicy,
    metrics: &mut MetricsCollector,
    config: &SimConfig,
    curve: &mut MemoryCurve,
    now: VirtualTime,
    ledger: &mut Ledger,
) -> Result<(), SimError> {
    let collection = metrics.history().len();
    if let Some(max) = config.budget.max_scavenges {
        if collection as u64 >= max {
            return Err(SimError::BudgetExceeded {
                kind: BudgetKind::Scavenges,
                limit: max,
                at: now,
            });
        }
    }
    let mem_before = heap.mem_in_use();
    // The survival view borrows the heap's indices, so it is scoped to
    // the policy call; afterwards the heap is free again for curve
    // queries and the scavenge itself. Constructing the view allocates
    // nothing (see `crates/sim/tests/zero_alloc.rs`).
    let tb = {
        let snapshot = heap.survival_view(now);
        let ctx = ScavengeContext {
            now,
            mem_before,
            history: metrics.history(),
            survival: &snapshot,
        };
        policy
            .select_boundary(&ctx)
            .map_err(|source| SimError::Policy {
                at: now,
                collection,
                source,
            })?
    };
    // Policies promise boundaries ≤ now (TB ∈ [0, t_{n-1}]). With checks
    // on, a future boundary is an invariant violation; otherwise clamp
    // defensively and carry on.
    if tb > now && config.check_invariants {
        return Err(SimError::Invariant {
            at: now,
            violation: InvariantViolation::BoundaryBeyondNow { boundary: tb, now },
        });
    }
    let tb = tb.min(now);
    if config.record_curve {
        curve.push(CurvePoint {
            at: now,
            mem: mem_before,
            live: heap.live_bytes_at(now),
            boundary: Some(tb),
        });
    }
    let outcome = heap.scavenge(tb, now);
    ledger.reclaimed += outcome.reclaimed;
    if config.check_invariants {
        if outcome.surviving + outcome.reclaimed != mem_before {
            return Err(SimError::Invariant {
                at: now,
                violation: InvariantViolation::ScavengeAccounting {
                    surviving: outcome.surviving,
                    reclaimed: outcome.reclaimed,
                    mem_before,
                },
            });
        }
        // Conservation: live + tenured garbage (= in use) + everything
        // reclaimed so far must equal everything allocated so far.
        if heap.mem_in_use() + ledger.reclaimed != ledger.allocated {
            return Err(SimError::Invariant {
                at: now,
                violation: InvariantViolation::ConservationBroken {
                    in_use: heap.mem_in_use(),
                    reclaimed: ledger.reclaimed,
                    allocated: ledger.allocated,
                },
            });
        }
    }
    metrics.record_scavenge(ScavengeRecord {
        at: now,
        boundary: tb,
        traced: outcome.traced,
        surviving: outcome.surviving,
        reclaimed: outcome.reclaimed,
        mem_before,
    });
    if dtb_core::obs::enabled() {
        // The scavenge span payload is engine-invariant: `collection`,
        // the trigger clock/event position, the outcome bytes, and the
        // inverse-query *call* count are all identical across the
        // per-event path and every block size (`obs_events.rs` pins
        // this). The probe count is not — Fenwick descent vs candidate
        // scan — so it only feeds the run-level diagnostic.
        let (inverse_calls, inverse_probes) = dtb_core::obs::take_inverse_queries();
        dtb_obs::add_run_probes(inverse_probes);
        dtb_obs::emit(|| dtb_obs::Event::Scavenge {
            collection: collection as u64,
            at: now.as_u64(),
            boundary: tb.as_u64(),
            traced: outcome.traced.as_u64(),
            surviving: outcome.surviving.as_u64(),
            reclaimed: outcome.reclaimed.as_u64(),
            tenured: outcome.tenured_garbage.as_u64(),
            mem_before: mem_before.as_u64(),
            events: ledger.events,
            inverse_queries: inverse_calls,
        });
    }
    if config.record_curve {
        curve.push(CurvePoint {
            at: now,
            mem: heap.mem_in_use(),
            live: heap.live_bytes_at(now),
            boundary: Some(tb),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtb_core::error::PolicyError;
    use dtb_core::policy::{Fixed, Full, PolicyConfig, PolicyKind};
    use dtb_trace::TraceBuilder;

    /// 3 MB of 10 KB objects; even-indexed die immediately, odd live on.
    fn churn_trace() -> CompiledTrace {
        let mut b = TraceBuilder::new("churn");
        b.exec_seconds(1.0);
        for i in 0..300 {
            let id = b.alloc(10_000);
            if i % 2 == 0 {
                b.free(id);
            }
        }
        b.finish().compile().unwrap()
    }

    #[test]
    fn full_policy_reclaims_everything_each_scavenge() {
        let trace = churn_trace();
        let run = simulate(&trace, &mut Full::new(), &SimConfig::paper()).unwrap();
        assert_eq!(run.report.collections, 3);
        // After each full scavenge memory equals exactly the live bytes.
        for rec in run.report.history.iter() {
            assert_eq!(rec.boundary, VirtualTime::ZERO);
            let live = trace.live_bytes_at(rec.at);
            assert_eq!(rec.surviving, live, "at {:?}", rec.at);
        }
    }

    #[test]
    fn fixed1_leaves_tenured_garbage() {
        let trace = {
            // Objects that die *after* surviving one scavenge: lifetime
            // ~1.5 MB with 1 MB trigger.
            let mut b = TraceBuilder::new("tenure");
            b.exec_seconds(1.0);
            let mut pending: Vec<(usize, dtb_trace::ObjectId)> = Vec::new();
            for i in 0..300 {
                let id = b.alloc(10_000);
                pending.push((i, id));
                // Free objects allocated 150 steps (1.5 MB) ago.
                if let Some(pos) = pending.iter().position(|(j, _)| i >= j + 150) {
                    let (_, old) = pending.remove(pos);
                    b.free(old);
                }
            }
            b.finish().compile().unwrap()
        };
        let full = simulate(&trace, &mut Full::new(), &SimConfig::paper()).unwrap();
        let fixed1 = simulate(&trace, &mut Fixed::new(1), &SimConfig::paper()).unwrap();
        assert!(
            fixed1.report.mem_max > full.report.mem_max,
            "FIXED1 {:?} should exceed FULL {:?}",
            fixed1.report.mem_max,
            full.report.mem_max
        );
        // And FULL must trace more than FIXED1 overall.
        assert!(fixed1.report.total_traced < full.report.total_traced);
    }

    #[test]
    fn accounting_invariant_holds_for_every_policy() {
        let trace = churn_trace();
        let cfg = PolicyConfig::new(Bytes::new(30_000), Bytes::new(800_000));
        // Force the invariant checker on: every scavenge of every policy
        // must reconcile, whatever the build profile.
        let sim = SimConfig::paper().with_invariant_checks(true);
        for kind in PolicyKind::ALL {
            let mut policy = kind.build(&cfg);
            let run = simulate(&trace, &mut policy, &sim).unwrap();
            let mut reclaimed_total = Bytes::ZERO;
            for rec in run.report.history.iter() {
                assert!(rec.is_consistent(), "{kind}: inconsistent record");
                reclaimed_total += rec.reclaimed;
            }
            // Everything allocated is either reclaimed or still in memory
            // at the last scavenge... memory after last scavenge plus
            // allocation since then equals total.
            assert!(reclaimed_total <= trace.total_allocated());
        }
    }

    #[test]
    fn pause_times_proportional_to_traced() {
        let trace = churn_trace();
        let run = simulate(&trace, &mut Full::new(), &SimConfig::paper()).unwrap();
        for rec in run.report.history.iter() {
            let expect = rec.traced.as_u64() as f64 / 500_000.0 * 1000.0;
            let _ = expect; // median check below uses the same conversion
        }
        // Total traced at 500 KB/s over exec 1 s gives the overhead.
        let expect_overhead = run.report.total_traced.as_u64() as f64 / 500_000.0 / 1.0 * 100.0;
        assert!((run.report.overhead_pct - expect_overhead).abs() < 1e-9);
    }

    #[test]
    fn curve_recording_captures_scavenges() {
        let trace = churn_trace();
        let run = simulate(&trace, &mut Full::new(), &SimConfig::paper().with_curve()).unwrap();
        assert!(!run.curve.is_empty());
        // Each scavenge contributes a before and an after point.
        let scavenge_points = run
            .curve
            .points()
            .iter()
            .filter(|p| p.boundary.is_some())
            .count();
        assert_eq!(scavenge_points, run.report.collections * 2);
        // The drop at a scavenge shows memory being reclaimed.
        let before_after: Vec<_> = run
            .curve
            .points()
            .iter()
            .filter(|p| p.boundary.is_some())
            .collect();
        assert!(before_after[1].mem <= before_after[0].mem);
    }

    #[test]
    fn no_scavenge_under_trigger() {
        let mut b = TraceBuilder::new("small");
        b.alloc(500_000);
        let trace = b.finish().compile().unwrap();
        let run = simulate(&trace, &mut Full::new(), &SimConfig::paper()).unwrap();
        assert_eq!(run.report.collections, 0);
        assert_eq!(run.report.mem_max, Bytes::new(500_000));
    }

    #[test]
    fn corrupted_trace_is_a_typed_error_not_a_panic() {
        use dtb_trace::corrupt::{death_before_birth, reversed_births};
        let trace = churn_trace();

        let err = simulate(
            &reversed_births(&trace),
            &mut Full::new(),
            &SimConfig::paper(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::Invariant {
                violation: InvariantViolation::NonMonotoneTime { .. },
                ..
            }
        ));

        let err = simulate(
            &death_before_birth(&trace, 0),
            &mut Full::new(),
            &SimConfig::paper(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::Invariant {
                violation: InvariantViolation::DeathBeforeBirth { .. },
                ..
            }
        ));
    }

    #[test]
    fn event_budget_stops_a_run() {
        let trace = churn_trace();
        let sim = SimConfig::paper().with_budget(SimBudget::events(10));
        let err = simulate(&trace, &mut Full::new(), &sim).unwrap_err();
        assert_eq!(
            err,
            SimError::BudgetExceeded {
                kind: BudgetKind::Events,
                limit: 10,
                at: trace.life(9).birth,
            }
        );
    }

    #[test]
    fn scavenge_budget_stops_a_run() {
        let trace = churn_trace(); // 3 scavenges normally
        let sim = SimConfig::paper().with_budget(SimBudget::scavenges(1));
        let err = simulate(&trace, &mut Full::new(), &sim).unwrap_err();
        assert!(matches!(
            err,
            SimError::BudgetExceeded {
                kind: BudgetKind::Scavenges,
                limit: 1,
                ..
            }
        ));
        // A generous cap never fires.
        let sim = SimConfig::paper().with_budget(SimBudget::scavenges(100));
        assert!(simulate(&trace, &mut Full::new(), &sim).is_ok());
    }

    #[test]
    fn streaming_source_matches_in_memory_run() {
        use dtb_trace::CompiledSource;
        let trace = churn_trace();
        let cfg = SimConfig::paper().with_curve().with_invariant_checks(true);
        for kind in PolicyKind::ALL {
            let pc = PolicyConfig::new(Bytes::new(30_000), Bytes::new(800_000));
            let resident = simulate(&trace, &mut kind.build(&pc), &cfg).unwrap();
            let mut source = CompiledSource::new(&trace);
            let streamed = simulate_source(&mut source, &mut kind.build(&pc), &cfg).unwrap();
            assert_eq!(resident, streamed, "{kind}: streamed run diverged");
        }
    }

    #[test]
    fn invalid_trigger_is_a_typed_error() {
        let trace = churn_trace();
        let sim = SimConfig {
            trigger: Trigger::MemoryGrowth {
                factor: 0.5,
                min_allocation: Bytes::new(100),
            },
            ..SimConfig::paper()
        };
        let err = simulate(&trace, &mut Full::new(), &sim).unwrap_err();
        assert_eq!(
            err,
            SimError::Invariant {
                at: VirtualTime::ZERO,
                violation: InvariantViolation::InvalidTrigger { factor: 0.5 },
            }
        );
    }

    #[test]
    fn source_failure_is_reported_with_the_clock() {
        use dtb_trace::event::TraceMeta;
        use dtb_trace::{EventSource, ObjectLife, SourceError};

        /// Emits one good record, then fails.
        struct Flaky {
            meta: TraceMeta,
            emitted: bool,
        }
        impl EventSource for Flaky {
            fn meta(&self) -> &TraceMeta {
                &self.meta
            }
            fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
                if self.emitted {
                    return Err(SourceError::Synth("disk fell off".into()));
                }
                self.emitted = true;
                Ok(Some(ObjectLife {
                    id: dtb_trace::ObjectId(0),
                    birth: VirtualTime::from_bytes(64),
                    size: 64,
                    death: None,
                }))
            }
            fn end(&self) -> VirtualTime {
                VirtualTime::from_bytes(64)
            }
        }

        let mut source = Flaky {
            meta: TraceMeta::named("flaky"),
            emitted: false,
        };
        let err = simulate_source(&mut source, &mut Full::new(), &SimConfig::paper()).unwrap_err();
        match err {
            SimError::Source { at, source } => {
                assert_eq!(at, VirtualTime::from_bytes(64));
                assert_eq!(source, SourceError::Synth("disk fell off".into()));
            }
            other => panic!("expected source error, got {other:?}"),
        }
    }

    #[test]
    fn failing_policy_is_reported_with_its_scavenge_index() {
        struct Sabotaged;
        impl TbPolicy for Sabotaged {
            fn select_boundary(
                &mut self,
                _ctx: &ScavengeContext<'_>,
            ) -> Result<VirtualTime, PolicyError> {
                Err(PolicyError::Internal {
                    policy: "SABOTAGED".into(),
                    reason: "always fails".into(),
                })
            }
            fn name(&self) -> &str {
                "SABOTAGED"
            }
        }
        let trace = churn_trace();
        let err = simulate(&trace, &mut Sabotaged, &SimConfig::paper()).unwrap_err();
        match err {
            SimError::Policy {
                collection, source, ..
            } => {
                assert_eq!(collection, 0);
                assert_eq!(source.policy(), "SABOTAGED");
            }
            other => panic!("expected policy error, got {other:?}"),
        }
    }

    #[test]
    fn future_boundary_is_an_invariant_violation_when_checked() {
        struct Clairvoyant;
        impl TbPolicy for Clairvoyant {
            fn select_boundary(
                &mut self,
                ctx: &ScavengeContext<'_>,
            ) -> Result<VirtualTime, PolicyError> {
                Ok(ctx.now.advance(Bytes::new(1_000_000)))
            }
            fn name(&self) -> &str {
                "CLAIRVOYANT"
            }
        }
        let trace = churn_trace();
        let checked = SimConfig::paper().with_invariant_checks(true);
        let err = simulate(&trace, &mut Clairvoyant, &checked).unwrap_err();
        assert!(matches!(
            err,
            SimError::Invariant {
                violation: InvariantViolation::BoundaryBeyondNow { .. },
                ..
            }
        ));
        // Unchecked builds clamp defensively instead and complete.
        let unchecked = SimConfig::paper().with_invariant_checks(false);
        let run = simulate(&trace, &mut Clairvoyant, &unchecked).unwrap();
        assert!(run.report.collections > 0);
    }
}
