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
//! on the scavenges before it), and the cores are spread across columns
//! by the [`Evaluation`](crate::exec::Evaluation) pool and across cells
//! by the service workers.
//!
//! The drive loop runs a *pass*: one read of the source shared by one or
//! more collectors, its *lanes* ([`Sim::run_lanes`]). Decode, the
//! trigger search, the live index and the death drain run once per pass;
//! each lane keeps only what depends on its boundaries. [`Sim::run`] is
//! the one-lane pass.

use crate::curve::{CurvePoint, MemoryCurve};
use crate::error::{BudgetKind, InvariantViolation, SimError};
use crate::heap::{OracleHeap, ScavengeOutcome, SimHeap, SimObject};
use crate::metrics::{MetricsCollector, SimReport};
use crate::trigger::Trigger;
use dtb_core::cost::CostModel;
use dtb_core::history::ScavengeRecord;
use dtb_core::policy::{ScavengeContext, SurvivalLender, TbPolicy};
use dtb_core::stats::Ramp;
use dtb_core::time::{Bytes, VirtualTime};
use dtb_trace::event::CompiledTrace;
use dtb_trace::{CompiledSource, EventBlock, EventSource, DEFAULT_BLOCK_EVENTS};
use serde::{Deserialize, Serialize};
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
/// A `Sim` owns its [`SimConfig`], an optional cancel flag
/// ([`Sim::cancel`]), the drive loop's block size ([`Sim::block_events`])
/// and a heap implementation chosen by type parameter (the incremental
/// [`OracleHeap`] unless [`Sim::heap`] overrides it — the differential
/// suites substitute the scan-based [`crate::heap::naive::NaiveHeap`]).
/// Launch with [`Sim::run`] (streaming source) or [`Sim::run_trace`]
/// (compiled in-memory trace), or run several policies over one pass with
/// [`Sim::run_lanes`] / [`Sim::run_trace_lanes`].
///
/// A run is all or nothing: it either reaches the end of its source or
/// fails, and a failed or cancelled cell is rerun from its start.
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
pub struct Sim<'c, H: SimHeap = OracleHeap> {
    config: SimConfig,
    cancel: Option<&'c AtomicBool>,
    block_events: usize,
    _heap: std::marker::PhantomData<H>,
}

impl<'c> Sim<'c, OracleHeap> {
    /// A simulation of `config` physics over the incremental
    /// [`OracleHeap`], uncancellable and at the default block size until
    /// the other builder methods say otherwise.
    pub fn new(config: SimConfig) -> Sim<'c, OracleHeap> {
        Sim {
            config,
            cancel: None,
            block_events: 0,
            _heap: std::marker::PhantomData,
        }
    }
}

impl<'c, H: SimHeap> Sim<'c, H> {
    /// Polls `flag` between events and fails the run with
    /// [`SimError::Cancelled`] once it reads `true`. The executor's
    /// deadline watchdog flips it from another thread.
    pub fn cancel(mut self, flag: &'c AtomicBool) -> Sim<'c, H> {
        self.cancel = Some(flag);
        self
    }

    /// Selects the heap implementation by type parameter.
    ///
    /// The engine always constructs the heap itself, sized from the
    /// source's length hint, so the builder takes a type, not a value.
    pub fn heap<H2: SimHeap>(self) -> Sim<'c, H2> {
        Sim {
            config: self.config,
            cancel: self.cancel,
            block_events: self.block_events,
            _heap: std::marker::PhantomData,
        }
    }

    /// Sets the drive loop's chunk size in events: `0` keeps the default
    /// ([`dtb_trace::DEFAULT_BLOCK_EVENTS`]), `1` forces the per-event
    /// reference path. Results are bit-identical at every setting; only
    /// throughput changes.
    pub fn block_events(mut self, n: usize) -> Sim<'c, H> {
        self.block_events = n;
        self
    }

    /// Accepted for source compatibility and ignored: every run executes
    /// on the calling thread. A cell is a sequential replay, so cores are
    /// spent across cells instead (see
    /// [`Evaluation::parallelism`](crate::exec::Evaluation::parallelism)).
    pub fn threads(self, _n: usize) -> Sim<'c, H> {
        self
    }

    /// Simulates `policy` over a streaming [`EventSource`]: the one-lane
    /// pass of the same drive loop [`Sim::run_lanes`] runs.
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
    /// * [`SimError::Cancelled`] when the [`Sim::cancel`] flag is
    ///   observed.
    pub fn run<S: EventSource + ?Sized>(
        self,
        source: &mut S,
        policy: &mut dyn TbPolicy,
    ) -> Result<SimRun, SimError> {
        let mut heap = OneLane(H::with_capacity(prealloc_slots(source)));
        let mut runs = run_pass(&self, &mut heap, source, vec![policy]);
        runs.pop().expect("a one-lane pass returns one run")
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

impl<'c> Sim<'c, OracleHeap> {
    /// Simulates every policy in `policies` over **one pass** of `source`
    /// and returns one result per policy, in order.
    ///
    /// Each policy is a *lane*. Decode, the trigger search, the live
    /// index and the death drain run once for the pass; each lane keeps
    /// only its policy, metrics, curve, trigger and budget state and its
    /// own tenured garbage (see [`crate::heap`]). Every lane's result is
    /// bit-identical to [`Sim::run`] of that policy alone, telemetry
    /// included: each lane emits its own `RunStarted`, `Scavenge` and
    /// `RunFinished` events under its own run scope.
    ///
    /// A lane's policy error, invariant violation or scavenge-budget
    /// overrun fails that lane only; the others run on. What every lane
    /// shares — a source failure, a malformed event, the event budget, a
    /// cancellation — fails the lanes still running. An empty `policies`
    /// reads nothing and returns nothing.
    ///
    /// # Example
    ///
    /// ```
    /// use dtb_core::policy::{PolicyConfig, PolicyKind};
    /// use dtb_sim::engine::{Sim, SimConfig};
    /// use dtb_trace::TraceBuilder;
    ///
    /// let mut b = TraceBuilder::new("tiny");
    /// for _ in 0..40 {
    ///     let id = b.alloc(50_000);
    ///     b.free(id);
    /// }
    /// let trace = b.finish().compile()?;
    /// let cfg = PolicyConfig::paper();
    /// let mut policies: Vec<_> = PolicyKind::ALL.iter().map(|k| k.build(&cfg)).collect();
    /// let runs = Sim::new(SimConfig::paper()).run_trace_lanes(&trace, &mut policies);
    /// assert_eq!(runs.len(), 6);
    /// assert!(runs.iter().all(|r| r.as_ref().unwrap().report.collections == 2));
    /// # Ok::<(), dtb_trace::event::TraceError>(())
    /// ```
    pub fn run_lanes<S: EventSource + ?Sized, P: TbPolicy>(
        self,
        source: &mut S,
        policies: &mut [P],
    ) -> Vec<Result<SimRun, SimError>> {
        if policies.is_empty() {
            return Vec::new();
        }
        let mut heap = OracleHeap::with_lanes(policies.len(), prealloc_slots(source));
        let lanes = policies
            .iter_mut()
            .map(|p| p as &mut dyn TbPolicy)
            .collect();
        run_pass(&self, &mut heap, source, lanes)
    }

    /// [`Sim::run_lanes`] over a compiled in-memory trace.
    pub fn run_trace_lanes<P: TbPolicy>(
        self,
        trace: &CompiledTrace,
        policies: &mut [P],
    ) -> Vec<Result<SimRun, SimError>> {
        self.run_lanes(&mut CompiledSource::new(trace), policies)
    }
}

/// The heap's index capacity for `source`: a known-length source sizes
/// it exactly; an unbounded one starts from a capped guess and grows (the
/// dead-slot compaction in `OracleHeap` keeps the index proportional to
/// the live set).
fn prealloc_slots<S: EventSource + ?Sized>(source: &S) -> usize {
    source.len_hint().unwrap_or(0).min(MAX_PREALLOC_SLOTS)
}

/// The heap side of a pass: one shared live index, scavenged per lane.
/// The multi-lane [`OracleHeap`] implements it directly; any [`SimHeap`]
/// is the one-lane case through [`OneLane`].
trait LaneHeap: SurvivalLender {
    fn insert(&mut self, obj: SimObject);
    fn insert_block(&mut self, births: &[u64], sizes: &[u32], deaths: &[u64]);
    fn live_bytes_at(&mut self, at: VirtualTime) -> Bytes;
    /// Bytes lane `lane` holds in memory.
    fn lane_mem(&self, lane: usize) -> Bytes;
    fn lane_scavenge(&mut self, lane: usize, tb: VirtualTime, now: VirtualTime) -> ScavengeOutcome;
    /// Lane `lane` failed and is never scavenged again.
    fn retire(&mut self, lane: usize);
}

/// A [`SimHeap`] as the one lane of a pass.
struct OneLane<H>(H);

impl<H: SimHeap> SurvivalLender for OneLane<H> {
    type Survival<'a>
        = H::Survival<'a>
    where
        Self: 'a;

    fn survival_view(&mut self, now: VirtualTime) -> H::Survival<'_> {
        self.0.survival_view(now)
    }
}

impl<H: SimHeap> LaneHeap for OneLane<H> {
    fn insert(&mut self, obj: SimObject) {
        self.0.insert(obj);
    }

    fn insert_block(&mut self, births: &[u64], sizes: &[u32], deaths: &[u64]) {
        self.0.insert_block(births, sizes, deaths);
    }

    fn live_bytes_at(&mut self, at: VirtualTime) -> Bytes {
        self.0.live_bytes_at(at)
    }

    fn lane_mem(&self, _lane: usize) -> Bytes {
        self.0.mem_in_use()
    }

    fn lane_scavenge(
        &mut self,
        _lane: usize,
        tb: VirtualTime,
        now: VirtualTime,
    ) -> ScavengeOutcome {
        self.0.scavenge(tb, now)
    }

    fn retire(&mut self, _lane: usize) {}
}

impl LaneHeap for OracleHeap {
    fn insert(&mut self, obj: SimObject) {
        OracleHeap::insert(self, obj);
    }

    fn insert_block(&mut self, births: &[u64], sizes: &[u32], deaths: &[u64]) {
        OracleHeap::insert_block(self, births, sizes, deaths);
    }

    fn live_bytes_at(&mut self, at: VirtualTime) -> Bytes {
        OracleHeap::live_bytes_at(self, at)
    }

    fn lane_mem(&self, lane: usize) -> Bytes {
        self.lane_mem_in_use(lane)
    }

    fn lane_scavenge(&mut self, lane: usize, tb: VirtualTime, now: VirtualTime) -> ScavengeOutcome {
        self.scavenge_lane(lane, tb, now)
    }

    fn retire(&mut self, lane: usize) {
        self.retire_lane(lane);
    }
}

/// One collector of a pass: its policy and everything that depends on
/// its boundaries.
struct Lane<'p> {
    policy: &'p mut dyn TbPolicy,
    metrics: MetricsCollector,
    curve: MemoryCurve,
    since_gc: Bytes,
    since_sample: Bytes,
    /// Bytes reclaimed so far, for the conservation check.
    reclaimed: Bytes,
    obs: LaneObs,
    /// Why the lane stopped early; a failed lane is never touched again.
    failed: Option<SimError>,
}

impl Lane<'_> {
    fn running(&self) -> bool {
        self.failed.is_none()
    }
}

/// Runs one pass: every lane's result, in lane order.
fn run_pass<H: LaneHeap, S: EventSource + ?Sized>(
    sim: &Sim<'_, impl SimHeap>,
    heap: &mut H,
    source: &mut S,
    policies: Vec<&mut dyn TbPolicy>,
) -> Vec<Result<SimRun, SimError>> {
    let config = &sim.config;
    if dtb_obs::enabled() {
        // A previous run on this thread must not leak probes into ours.
        let _ = dtb_core::obs::take_inverse_queries();
    }
    let mut lanes: Vec<Lane<'_>> = policies
        .into_iter()
        .map(|policy| Lane {
            obs: LaneObs::begin(policy.name(), &source.meta().name, sim.block_events),
            policy,
            metrics: MetricsCollector::new(config.cost),
            curve: MemoryCurve::new(),
            since_gc: Bytes::ZERO,
            since_sample: Bytes::ZERO,
            reclaimed: Bytes::ZERO,
            failed: None,
        })
        .collect();
    let clock = match config.trigger.validate() {
        Ok(()) => drive(sim, heap, source, &mut lanes),
        Err(e) => {
            let err = SimError::Invariant {
                at: VirtualTime::ZERO,
                violation: InvariantViolation::InvalidTrigger { factor: e.factor },
            };
            fail_running(&mut lanes, heap, &err);
            VirtualTime::ZERO
        }
    };

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
    let meta = source.meta();
    lanes
        .into_iter()
        .enumerate()
        .map(|(k, mut lane)| {
            if let Some(err) = lane.failed {
                return Err(err);
            }
            lane.metrics.record_memory(heap.lane_mem(k), tail);
            let report =
                lane.metrics
                    .finish(lane.policy.name(), meta.name.clone(), meta.exec_seconds);
            lane.obs.finish(report.collections, true);
            Ok(SimRun {
                report,
                curve: lane.curve,
            })
        })
        .collect()
}

/// Fails lane `k` with `err`: its last telemetry, and its heap lane
/// retired.
fn fail_lane<H: LaneHeap>(lane: &mut Lane<'_>, heap: &mut H, k: usize, err: SimError) {
    lane.obs.finish(0, false);
    heap.retire(k);
    lane.failed = Some(err);
}

/// Fails every lane still running with `err`: a failure every lane
/// shares (source, trace shape, event budget, cancellation).
fn fail_running<H: LaneHeap>(lanes: &mut [Lane<'_>], heap: &mut H, err: &SimError) {
    for (k, lane) in lanes.iter_mut().enumerate() {
        if lane.running() {
            fail_lane(lane, heap, k, err.clone());
        }
    }
}

fn cancelled(cancel: Option<&AtomicBool>) -> bool {
    cancel.is_some_and(|flag| flag.load(Ordering::Relaxed))
}

/// The drive loop: one thread, blocks of events split into safe
/// segments, with the per-event body (`block_events(1)`) as the
/// reference every block size must reproduce bit-identically. Returns
/// the clock of the last event processed.
fn drive<H: LaneHeap, S: EventSource + ?Sized>(
    sim: &Sim<'_, impl SimHeap>,
    heap: &mut H,
    source: &mut S,
    lanes: &mut [Lane<'_>],
) -> VirtualTime {
    let (config, cancel) = (&sim.config, sim.cancel);
    // Curve sampling between scavenges, if requested: every trigger/8.
    let sample_every = Bytes::new((config.trigger.allocation_scale().as_u64() / 8).max(1));
    // Hoisted out of the hot loop: an unlimited budget becomes a cap the
    // u64 event counter can never reach.
    let max_events = config.budget.max_events.unwrap_or(u64::MAX);
    let mut clock = VirtualTime::ZERO;
    let mut ledger = Ledger::default();

    // The drive loop pulls events in blocks and processes each block in
    // *segments*: a safe prefix — events that provably fire no trigger,
    // curve sample, budget error or shape error in any lane — batches
    // straight into the heap's columnar bulk-insert path, and the one
    // event at the segment boundary replays the exact per-event body.
    // Every boundary condition is monotone in the byte prefix sum, so the
    // safe prefix length is found by binary search / partition point over
    // one precomputed prefix-sum array per block, once per lane. Results
    // are bit-identical to the per-event path at every block size; `1`
    // keeps every event on the per-event body (the differential
    // reference).
    let block_cap = if sim.block_events == 0 {
        DEFAULT_BLOCK_EVENTS
    } else {
        sim.block_events
    };
    let per_event_reference = block_cap <= 1;
    let mut block = EventBlock::new(block_cap);
    // Prefix sums over the current block: pb[i] = bytes of the first i
    // records, pq[i] = the sum of their squared sizes (the metrics fold's
    // second moment). Reused across blocks.
    let mut pb: Vec<u64> = Vec::with_capacity(block_cap + 1);
    let mut pq: Vec<u128> = Vec::with_capacity(block_cap + 1);

    'drive: loop {
        if cancelled(cancel) {
            fail_running(lanes, heap, &SimError::Cancelled { at: clock });
            break 'drive;
        }
        let n = source.next_block(&mut block);
        if n == 0 {
            if let Some(source) = block.take_error() {
                fail_running(lanes, heap, &SimError::Source { at: clock, source });
            }
            break 'drive;
        }
        let births = block.births();
        let sizes = block.sizes();
        let deaths = block.deaths();
        pb.clear();
        pb.push(0);
        pq.clear();
        pq.push(0);
        let (mut acc, mut acc_sq) = (0u64, 0u128);
        for &sz in sizes {
            acc += sz as u64;
            acc_sq += (sz as u64 * sz as u64) as u128;
            pb.push(acc);
            pq.push(acc_sq);
        }

        let mut idx = 0usize;
        while idx < n {
            let remaining = n - idx;
            let s = if per_event_reference {
                0
            } else {
                // Cap the safe prefix at the first event that would hit
                // the budget, then at each lane's first curve sample and
                // trigger.
                let base = pb[idx];
                let s_budget =
                    usize::try_from(max_events.saturating_sub(ledger.events)).unwrap_or(usize::MAX);
                let mut upper = remaining.min(s_budget);
                for (k, lane) in lanes.iter().enumerate() {
                    if !lane.running() {
                        continue;
                    }
                    if config.record_curve {
                        let ss = lane.since_sample.as_u64();
                        let lim = sample_every.as_u64();
                        upper = upper.min(
                            pb[idx + 1..=idx + upper].partition_point(|&p| ss + (p - base) < lim),
                        );
                    }
                    // Largest prefix the trigger provably stays quiet for:
                    // `should_collect` is monotone non-decreasing in
                    // (since_gc, mem) for a fixed last-surviving value, and
                    // both arguments grow with the byte prefix sum, so the
                    // predicate flips at most once over the segment.
                    let mem0 = heap.lane_mem(k);
                    let last_surviving = lane.metrics.history().last().map(|r| r.surviving);
                    let (mut lo, mut hi) = (0usize, upper);
                    while lo < hi {
                        let mid = lo + (hi - lo).div_ceil(2);
                        let added = Bytes::new(pb[idx + mid] - base);
                        if config.trigger.should_collect(
                            lane.since_gc + added,
                            mem0 + added,
                            last_surviving,
                        ) {
                            hi = mid - 1;
                        } else {
                            lo = mid;
                        }
                    }
                    upper = lo;
                }
                // Trace-shape screening: the batch path requires strictly
                // increasing births and death ≥ birth (the no-death
                // sentinel `u64::MAX` passes trivially); the first
                // violating event falls to the per-event body, which
                // raises the exact typed error.
                let mut s = upper;
                let mut prev_u = ledger.prev_birth.map(|b| b.as_u64());
                for (k, (&b, &d)) in births[idx..idx + upper]
                    .iter()
                    .zip(&deaths[idx..])
                    .enumerate()
                {
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
                // being allocated, and within a safe segment it moves only
                // by inserts, because deaths change no lane's memory: each
                // lane folds the segment as one ramp from its own level,
                // bit-identical to its per-event record_memory sequence.
                let ramp = Ramp::from_sums(&sizes[idx..end], pb[end] - pb[idx], pq[end] - pq[idx]);
                for (k, lane) in lanes.iter_mut().enumerate() {
                    if lane.running() {
                        lane.metrics.record_ramp(heap.lane_mem(k), ramp);
                    }
                }
                clock = VirtualTime::from_bytes(births[end - 1]);
                heap.insert_block(&births[idx..end], &sizes[idx..end], &deaths[idx..end]);
                let added = Bytes::new(pb[end] - pb[idx]);
                ledger.events += s as u64;
                ledger.prev_birth = Some(clock);
                ledger.allocated += added;
                for lane in lanes.iter_mut() {
                    lane.since_gc += added;
                    lane.since_sample += added;
                }
                idx = end;
                continue;
            }

            // Segment boundary (or per-event reference mode): the exact
            // per-event body, bit for bit.
            if cancelled(cancel) {
                fail_running(lanes, heap, &SimError::Cancelled { at: clock });
                break 'drive;
            }
            let birth = VirtualTime::from_bytes(births[idx]);
            let obj_size = sizes[idx];
            let death =
                (deaths[idx] != EventBlock::NO_DEATH).then(|| VirtualTime::from_bytes(deaths[idx]));
            ledger.events += 1;
            if ledger.events > max_events {
                let err = SimError::BudgetExceeded {
                    kind: BudgetKind::Events,
                    limit: max_events,
                    at: clock,
                };
                fail_running(lanes, heap, &err);
                break 'drive;
            }
            // Trace-shape checks run on every event regardless of
            // `check_invariants`: they are O(1) and they stand between a
            // corrupted trace and the heap's birth-order panic.
            let shape = match (ledger.prev_birth, death) {
                (Some(prev), _) if birth <= prev => {
                    Some(InvariantViolation::NonMonotoneTime { prev, next: birth })
                }
                (_, Some(death)) if death < birth => {
                    Some(InvariantViolation::DeathBeforeBirth { birth, death })
                }
                _ => None,
            };
            if let Some(violation) = shape {
                let err = SimError::Invariant {
                    at: birth,
                    violation,
                };
                fail_running(lanes, heap, &err);
                break 'drive;
            }
            ledger.prev_birth = Some(birth);

            let size = Bytes::new(obj_size as u64);
            // Memory held its previous level while this object was being
            // allocated (the clock span equals the object's size).
            for (k, lane) in lanes.iter_mut().enumerate() {
                if lane.running() {
                    lane.metrics.record_memory(heap.lane_mem(k), size);
                }
            }
            clock = birth;
            heap.insert(SimObject {
                birth,
                size: obj_size,
                death,
            });
            ledger.allocated += size;

            for (k, lane) in lanes.iter_mut().enumerate() {
                if !lane.running() {
                    continue;
                }
                lane.since_gc += size;
                lane.since_sample += size;
                if config.record_curve && lane.since_sample >= sample_every {
                    lane.since_sample = Bytes::ZERO;
                    let mem = heap.lane_mem(k);
                    lane.curve.push(CurvePoint {
                        at: clock,
                        mem,
                        live: heap.live_bytes_at(clock),
                        boundary: None,
                    });
                }
                let last_surviving = lane.metrics.history().last().map(|r| r.surviving);
                if config
                    .trigger
                    .should_collect(lane.since_gc, heap.lane_mem(k), last_surviving)
                {
                    lane.since_gc = Bytes::ZERO;
                    // A scavenge records its own curve points; restart the
                    // sample interval so the next between-scavenge sample
                    // measures from here instead of firing immediately
                    // after the collection.
                    lane.since_sample = Bytes::ZERO;
                    if let Err(err) = scavenge_now(heap, k, lane, config, clock, &ledger) {
                        fail_lane(lane, heap, k, err);
                    }
                }
            }
            if !lanes.iter().any(Lane::running) {
                break 'drive;
            }

            idx += 1;
        }

        // A source failure is deferred behind the block's good records:
        // they are processed (advancing the clock) first, so the typed
        // error carries the same clock the per-record path would report.
        if let Some(source) = block.take_error() {
            fail_running(lanes, heap, &SimError::Source { at: clock, source });
            break 'drive;
        }
    }
    clock
}

/// One lane's telemetry: its run scope, entered around each of its
/// events so lanes sharing a thread stay apart, and its estimator probe
/// total for `RunFinished`. Does nothing — not even an allocation — when
/// no sink is installed.
struct LaneObs {
    /// The lane's run id; 0 when no sink was installed at its start.
    run: u64,
    probes: u64,
}

impl LaneObs {
    fn begin(policy: &str, source: &str, block_events: usize) -> LaneObs {
        if !dtb_obs::enabled() {
            return LaneObs { run: 0, probes: 0 };
        }
        let obs = LaneObs {
            run: dtb_obs::next_run_id(),
            probes: 0,
        };
        obs.emit(|| dtb_obs::Event::RunStarted {
            policy: policy.to_string(),
            source: source.to_string(),
            // Kept in the event formats; every run is single-threaded.
            threads: 1,
            block_events: block_events as u64,
        });
        obs
    }

    /// Emits `event` under the lane's run scope.
    fn emit(&self, event: impl FnOnce() -> dtb_obs::Event) {
        let _scope = (self.run != 0).then(|| dtb_obs::RunScope::enter(self.run));
        dtb_obs::emit(event);
    }

    fn finish(&self, collections: usize, ok: bool) {
        if self.run != 0 {
            self.emit(|| dtb_obs::Event::RunFinished {
                collections: collections as u64,
                ok,
                inverse_probes: self.probes,
            });
        }
    }
}

/// Running totals every lane shares, which the invariant checker
/// reconciles against each lane's heap accounting.
#[derive(Default)]
struct Ledger {
    events: u64,
    allocated: Bytes,
    prev_birth: Option<VirtualTime>,
}

/// One scavenge of lane `k`, policy decision included: the policy picks
/// the boundary from a survival view, the heap scavenges the lane, and
/// the lane's metrics, curve, invariant checks and telemetry record the
/// outcome.
fn scavenge_now<H: LaneHeap>(
    heap: &mut H,
    k: usize,
    lane: &mut Lane<'_>,
    config: &SimConfig,
    now: VirtualTime,
    ledger: &Ledger,
) -> Result<(), SimError> {
    let collection = lane.metrics.history().len();
    if let Some(max) = config.budget.max_scavenges {
        if collection as u64 >= max {
            return Err(SimError::BudgetExceeded {
                kind: BudgetKind::Scavenges,
                limit: max,
                at: now,
            });
        }
    }
    let mem_before = heap.lane_mem(k);
    // The survival view borrows the heap's indices, so it is scoped to
    // the policy call; afterwards the heap is free again for curve
    // queries and the scavenge itself. Constructing the view allocates
    // nothing (see `crates/sim/tests/zero_alloc.rs`).
    let tb = {
        let snapshot = heap.survival_view(now);
        let ctx = ScavengeContext {
            now,
            mem_before,
            history: lane.metrics.history(),
            survival: &snapshot,
        };
        lane.policy
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
        let live = heap.live_bytes_at(now);
        lane.curve.push(CurvePoint {
            at: now,
            mem: mem_before,
            live,
            boundary: Some(tb),
        });
    }
    let outcome = heap.lane_scavenge(k, tb, now);
    lane.reclaimed += outcome.reclaimed;
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
        let in_use = heap.lane_mem(k);
        if in_use + lane.reclaimed != ledger.allocated {
            return Err(SimError::Invariant {
                at: now,
                violation: InvariantViolation::ConservationBroken {
                    in_use,
                    reclaimed: lane.reclaimed,
                    allocated: ledger.allocated,
                },
            });
        }
    }
    lane.metrics.record_scavenge(ScavengeRecord {
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
        // per-event path, every block size and every lane of a pass
        // (`obs_events.rs` pins this). The probe count is not — Fenwick
        // descent vs candidate scan — so it only feeds the run-level
        // diagnostic.
        let (inverse_calls, inverse_probes) = dtb_core::obs::take_inverse_queries();
        lane.obs.probes += inverse_probes;
        lane.obs.emit(|| dtb_obs::Event::Scavenge {
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
        let mem = heap.lane_mem(k);
        lane.curve.push(CurvePoint {
            at: now,
            mem,
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
