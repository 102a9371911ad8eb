//! Distributed evaluation service for the DTB matrix.
//!
//! The in-process executor (`dtb_sim::exec::Evaluation`) runs the
//! paper's (program × policy) matrix on one machine. This crate spreads
//! the same matrix across processes and machines without changing what a
//! cell *is*: a **coordinator** ([`Coordinator`]) shards each submitted
//! sweep into cells and leases them out; **workers**
//! ([`worker::run_worker`], the `dtb-worker` binary) lease, simulate,
//! and report back; completions land in the executor's own fsync'd
//! journal format, giving **exactly-once** recording — worker crashes,
//! duplicate completions, and expired-lease stragglers all converge to
//! the matrix a single-process run would have produced, cell for cell.
//!
//! The stack, bottom up:
//!
//! * [`http`] — bounded, never-panicking HTTP/1.1 framing over
//!   `std::net` (no external dependencies);
//! * [`proto`] — the JSON message vocabulary both sides speak;
//! * [`coordinator`] — lease/complete state machine, tenant-fair
//!   scheduling, per-tenant [`SimBudget`](dtb_sim::SimBudget) quotas,
//!   journal-backed finality;
//! * [`worker`] — the lease → run → complete loop with the executor's
//!   deadline and failure taxonomy;
//! * [`client`] — retrying protocol client and reassembly of a served
//!   sweep into the executor's `Matrix` ([`matrix_from_sweep`]);
//! * [`events`] — the `/events` server-push channel: a bounded event
//!   log streamed to followers over chunked transfer, with
//!   [`follow_events`] as the tailing client;
//! * [`fault`] — deterministic network fault injection for the chaos
//!   suites;
//! * [`sweeplog`] — the sweep-intake record log that makes
//!   submissions durable: [`Coordinator::bind`] over a journal
//!   directory replays it (plus the journals) to rebuild state after a
//!   crash, with lease **epochs** fencing out stale pre-crash workers;
//! * [`chaos`] — seeded, replayable whole-system fault plans
//!   ([`ChaosPlan`]) and the continuity/exactly-once verifiers the
//!   `dtb-chaos` driver and the crash suites share.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod coordinator;
pub mod events;
pub mod fault;
pub mod http;
pub mod proto;
pub mod sweeplog;
pub mod worker;

pub use chaos::{journal_exactly_once, stream_continuity, ChaosPlan, FaultFuse, SplitMix64};
pub use client::{matrix_from_cells, matrix_from_sweep, Client, SvcError, TcpTransport, Transport};
pub use coordinator::{Coordinator, CoordinatorConfig, RecoveryReport};
pub use events::{follow_events, follow_events_resilient, line_cursor, EventCursor, EventLog};
pub use fault::{FaultPlan, NetFault};
pub use proto::{SweepSpec, TenantStatus, PROTO_VERSION};
pub use sweeplog::SweepLog;
pub use worker::{idle_backoff, run_worker, serve_healthz, WorkerConfig, WorkerExit, WorkerHealth};
