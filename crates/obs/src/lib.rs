//! `dtb-obs` — the unified observability layer.
//!
//! One structured telemetry bus spans every layer of the system: the
//! simulation engine emits per-scavenge spans, the executor emits cell
//! lifecycle events, the trace tools report synthesis progress, and the
//! distributed coordinator publishes sweep/lease lifecycle — all as one
//! typed [`Event`] enum flowing through one global bounded channel to
//! pluggable [`Sink`]s, and written out as JSON lines.
//!
//! # Usage
//!
//! Instrumented code calls [`emit`] with a closure; the closure only
//! runs when a sink is installed:
//!
//! ```
//! use dtb_obs::{emit, install, flush, Event, CaptureSink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(CaptureSink::default());
//! let guard = install(sink.clone());
//! emit(|| Event::EvalStarted { cells: 54 });
//! flush();
//! assert_eq!(sink.take().len(), 1);
//! drop(guard); // uninstalls and disables instrumentation
//! ```
//!
//! # Zero cost when disabled
//!
//! With no sink installed, [`emit`] is a single relaxed atomic load and
//! a branch — no allocation, no event construction, no drainer thread.
//! The engine's zero-allocation regression test and the `bench_dtb`
//! throughput floors both cover the disabled path.
//!
//! # Ordering
//!
//! Every envelope carries a bus-global monotonic `seq` (gaps = drops)
//! and a `scope` tying engine events to the run that emitted them (see
//! [`scope`]). Delivery to sinks is in queue order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod encode;
pub mod event;
pub mod scope;
pub mod sink;

pub use bus::{emit, enabled, flush, install, stats, BusStats, SinkGuard};
pub use encode::{encode_json, json_string};
pub use event::{CellOutcome, Envelope, Event};
pub use scope::{add_run_probes, next_run_id, run_probes, RunScope};
pub use sink::{CaptureSink, FileSink, FnSink, Sink};
