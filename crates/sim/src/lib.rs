//! Trace-driven garbage-collection simulator.
//!
//! Reproduces the methodology of Barrett & Zorn's evaluation (Section 5 of
//! the paper): allocation and deallocation events drive a simulation of
//! the collectors; the output is memory and CPU usage plus pause-time
//! distributions.
//!
//! * [`heap`] — the oracle heap: birth-ordered objects with exact death
//!   times; scavenges trace live threatened storage and reclaim dead
//!   threatened storage, leaving *tenured garbage* (dead immune storage)
//!   behind. Maintained incrementally (Fenwick indices + a lazy death
//!   queue) so a scavenge costs O(threatened tail + log n); the original
//!   scan-based heap survives as [`heap::naive::NaiveHeap`] for
//!   differential testing.
//! * [`engine`] — replays a compiled trace or a streaming
//!   [`EventSource`](dtb_trace::EventSource) ([`simulate_source`]),
//!   firing a scavenge after every 1 MB of allocation and consulting a
//!   [`TbPolicy`](dtb_core::policy::TbPolicy) for the boundary. Streaming
//!   runs are bit-identical to in-memory runs and hold O(live set)
//!   memory (the heap compacts reclaimed index slots), so traces larger
//!   than RAM simulate fine.
//! * [`metrics`] — Table 2/3/4 measurements (mean/max memory, median/90th
//!   percentile pauses, traced bytes, CPU overhead).
//! * [`baseline`] — the `No GC` and `LIVE` reference rows.
//! * [`curve`] — Figure 2 memory-over-time series.
//! * [`exec`] — the parallel evaluation executor: a shared
//!   [`TraceCache`](exec::TraceCache) (each preset compiled once per
//!   process) and the [`Evaluation`](exec::Evaluation) builder that fans
//!   the (program × policy) matrix over a work-stealing pool with
//!   deterministic result ordering. Streaming columns
//!   ([`Evaluation::source`](exec::Evaluation::source)) evaluate without
//!   materializing their trace.
//! * [`error`] — the typed failure taxonomy ([`error::SimError`]): policy
//!   failures, watchdog budget trips, and engine invariant violations.
//! * [`fault`] — adversarial policies and sources for fault-injection
//!   tests (NaN / infinite / future boundaries, fail-after-N,
//!   panic-after-N, slow and transiently-failing sources).
//! * [`ckp`] — mid-run simulation checkpoints ([`SimCheckpoint`]): the
//!   engine's complete resumable state in a checksummed `DTBCKP01`
//!   container, with bit-identical resume via
//!   [`RunControl::resuming`](engine::RunControl::resuming).
//! * [`journal`] — the durable evaluation journal: one fsync'd,
//!   checksummed record per completed matrix cell, so
//!   [`Evaluation::resume`](exec::Evaluation::resume) survives crashes
//!   (even `SIGKILL`) losing at most the cell in flight.
//! * [`trigger`] — pluggable when-to-collect policies (the orthogonal
//!   dimension the paper fixes at 1 MB of allocation).
//! * [`sweep`] — budget sweeps producing constraint/behaviour frontiers
//!   (parallelized over the same pool).
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
//!     .policies([PolicyKind::DtbFm])
//!     .run();
//! let report = matrix.get(Program::Cfrac, PolicyKind::DtbFm).unwrap();
//! assert!(report.collections >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod ckp;
pub mod curve;
pub mod engine;
pub mod error;
pub mod exec;
pub mod fault;
pub mod heap;
pub mod journal;
pub mod metrics;
pub mod sweep;
pub mod trigger;

pub use ckp::{load_checkpoint, save_checkpoint, CkpError, SimCheckpoint};
pub use engine::{simulate, simulate_source, RunControl, Sim, SimBudget, SimConfig, SimRun};
pub use error::{BudgetKind, InvariantViolation, SimError};
pub use exec::{
    Cell, CellEvent, CellFailure, CellOutcome, Column, Evaluation, FailureCause, Matrix,
    RetryPolicy, SourceFactory, TraceCache,
};
pub use heap::naive::NaiveHeap;
pub use heap::{
    CheckpointHeap, HeapSnapshot, OracleHeap, ScavengeOutcome, SimHeap, SimObject, SurvivalSnapshot,
};
pub use journal::{read_journal, Journal, JournalCell, JournalHeader, JournalWriter};
pub use metrics::{MetricsState, SimReport};
