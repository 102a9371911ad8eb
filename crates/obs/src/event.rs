//! The typed event taxonomy.
//!
//! One flat enum covers every layer: engine scavenge spans, executor
//! cell lifecycle, trace tooling progress, and the distributed
//! service's sweep/lease lifecycle. The variants are deliberately
//! plain-old-data — integers and short strings — so that encoding is
//! allocation-light and payload equality is meaningful across engine
//! configurations (the determinism suite compares `Event` values
//! directly).
//!
//! Two fields are worth calling out on [`Event::Scavenge`]:
//!
//! * `events` — the absolute event-stream position at the trigger, i.e.
//!   the block-segment boundary the drive loop cut at. Identical for
//!   the per-event path and every block size (they cut at the same
//!   triggers by construction).
//! * `inverse_queries` — how many times the policy invoked the
//!   estimator's inverse survival query while selecting this boundary.
//!   The *call* count is engine-invariant; the per-call probe count is
//!   not (Fenwick descent vs. candidate scan) and is therefore reported
//!   only as a run-level total on [`Event::RunFinished`].

/// How a simulation cell ended, from the executor's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell produced a run.
    Completed,
    /// The cell failed permanently (or exhausted its retries).
    Failed,
}

impl CellOutcome {
    /// Stable lowercase label written by the JSON encoder.
    pub fn label(self) -> &'static str {
        match self {
            CellOutcome::Completed => "completed",
            CellOutcome::Failed => "failed",
        }
    }
}

/// A structured telemetry event. See the module docs for the taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    // ── engine ──────────────────────────────────────────────────────
    /// A simulation run began (`Sim::run`, per-event or block).
    RunStarted {
        /// Policy name (`TbPolicy::name`).
        policy: String,
        /// Trace/source name from the trace metadata.
        source: String,
        /// Drive threads; every run is single-threaded, so always 1.
        /// Kept so the JSON format does not change.
        threads: u32,
        /// Block size in events (1 = per-event engine).
        block_events: u64,
    },
    /// One scavenge span: boundary placement and its outcome.
    Scavenge {
        /// 0-based scavenge index within the run.
        collection: u64,
        /// Allocation clock at the trigger (bytes allocated).
        at: u64,
        /// Selected threatening boundary (virtual time).
        boundary: u64,
        /// Bytes traced (threatened survivors).
        traced: u64,
        /// Bytes surviving the scavenge (post-scavenge occupancy).
        surviving: u64,
        /// Bytes reclaimed.
        reclaimed: u64,
        /// Garbage left uncollected behind the boundary (tenured).
        tenured: u64,
        /// Heap occupancy before the scavenge.
        mem_before: u64,
        /// Event-stream position at the trigger (block-segment boundary).
        events: u64,
        /// Estimator inverse-query calls made while placing the boundary.
        inverse_queries: u64,
    },
    /// A simulation run finished (successfully or not).
    RunFinished {
        /// Scavenges performed (0 when the run failed early).
        collections: u64,
        /// Whether the run succeeded.
        ok: bool,
        /// Total estimator probe count (candidate scans / Fenwick
        /// descents). Engine-strategy-dependent; diagnostic only.
        inverse_probes: u64,
    },

    // ── executor ────────────────────────────────────────────────────
    /// A matrix evaluation began.
    EvalStarted {
        /// Cells to run.
        cells: u64,
    },
    /// One attempt at a cell began.
    CellStarted {
        /// Column label (program / trace name).
        column: String,
        /// Row label (policy name).
        row: String,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A transient failure triggered a retry with backoff.
    CellRetried {
        /// Column label.
        column: String,
        /// Row label.
        row: String,
        /// Attempt that just failed (1-based).
        attempt: u32,
        /// Backoff delay before the next attempt, in nanoseconds.
        delay_ns: u64,
        /// Rendered failure cause.
        cause: String,
    },
    /// A cell reached a final state.
    CellFinished {
        /// Column label.
        column: String,
        /// Row label.
        row: String,
        /// Attempts consumed.
        attempts: u32,
        /// Wall-clock time in nanoseconds.
        elapsed_ns: u64,
        /// Cells finished so far (monotone progress counter).
        completed: u64,
        /// Total cells in the evaluation.
        total: u64,
        /// Final disposition.
        outcome: CellOutcome,
        /// Rendered failure cause (empty for completed cells).
        cause: String,
    },

    // ── trace tooling ───────────────────────────────────────────────
    /// `tracegen` (or another tool) finished synthesizing a trace.
    TraceSynthesized {
        /// Trace name.
        name: String,
        /// Events in the trace.
        events: u64,
        /// Total bytes allocated over the trace.
        allocated: u64,
    },

    // ── distributed service (coordinator side) ──────────────────────
    /// A sweep was accepted by the coordinator.
    SweepSubmitted {
        /// Sweep id.
        sweep: u64,
        /// Tenant name.
        tenant: String,
        /// Cells in the sweep.
        cells: u64,
    },
    /// A cell was leased to a worker.
    CellLeased {
        /// Sweep id.
        sweep: u64,
        /// Cell index within the sweep.
        cell: u64,
        /// Lease token.
        lease: u64,
        /// Worker name.
        worker: String,
        /// Tenant name.
        tenant: String,
        /// 1-based attempt number this lease represents.
        attempt: u32,
    },
    /// A cell completion was recorded (journal-finalized).
    CellRecorded {
        /// Sweep id.
        sweep: u64,
        /// Cell index.
        cell: u64,
        /// Lease token that completed it.
        lease: u64,
        /// Worker name.
        worker: String,
        /// Tenant name.
        tenant: String,
        /// Whether the cell produced a run (false = quarantined).
        ok: bool,
    },
    /// A transient failure was requeued for another lease.
    CellRequeued {
        /// Sweep id.
        sweep: u64,
        /// Cell index.
        cell: u64,
        /// Lease token that failed (0 when a lease expired).
        lease: u64,
        /// Worker name (empty when a lease expired).
        worker: String,
        /// Tenant name.
        tenant: String,
        /// Rendered failure cause.
        cause: String,
    },
    /// A sweep drained: every cell reached a final state.
    SweepDrained {
        /// Sweep id.
        sweep: u64,
        /// Tenant name.
        tenant: String,
        /// Cells that ended quarantined.
        failed: u64,
    },
    /// A coordinator rebuilt its state from durable storage (sweep log
    /// and finalization journals) after a restart.
    CoordinatorRecovered {
        /// The incarnation number this coordinator now runs under.
        epoch: u64,
        /// Sweeps replayed from the sweep log.
        sweeps: u64,
        /// Cells already finalized by earlier incarnations.
        finalized: u64,
        /// Cells still open (re-leasable) after recovery.
        open: u64,
    },
}

impl Event {
    /// Stable snake_case type tag (the JSON `type` field).
    pub fn tag(&self) -> &'static str {
        match self {
            Event::RunStarted { .. } => "run_started",
            Event::Scavenge { .. } => "scavenge",
            Event::RunFinished { .. } => "run_finished",
            Event::EvalStarted { .. } => "eval_started",
            Event::CellStarted { .. } => "cell_started",
            Event::CellRetried { .. } => "cell_retried",
            Event::CellFinished { .. } => "cell_finished",
            Event::TraceSynthesized { .. } => "trace_synthesized",
            Event::SweepSubmitted { .. } => "sweep_submitted",
            Event::CellLeased { .. } => "cell_leased",
            Event::CellRecorded { .. } => "cell_recorded",
            Event::CellRequeued { .. } => "cell_requeued",
            Event::SweepDrained { .. } => "sweep_drained",
            Event::CoordinatorRecovered { .. } => "coordinator_recovered",
        }
    }
}

/// A bus-stamped event: the event plus its global sequence number and
/// the run scope it was emitted under (0 outside any run).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Monotonic bus-global sequence number (1-based; gaps mean drops).
    pub seq: u64,
    /// Run scope: the engine run id this event belongs to, or 0.
    pub scope: u64,
    /// The event payload.
    pub event: Event,
}
