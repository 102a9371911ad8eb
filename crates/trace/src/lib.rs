//! Allocation traces and synthetic workload generation.
//!
//! Barrett & Zorn drove their garbage-collection simulations with memory
//! allocation and deallocation event traces captured from four
//! allocation-intensive C programs (GhostScript, Espresso, SIS, and Cfrac)
//! using Larus' QPT trace generator. Those 1993 traces are unobtainable, so
//! this crate provides:
//!
//! * the trace **event model** ([`event`]) — allocation / free event
//!   streams on the allocation clock, plus compilation into per-object
//!   lifetime records ([`event::CompiledTrace`]);
//! * **synthetic workload generators** ([`synth`]) driven by per-class
//!   object size and lifetime distributions ([`lifetime`]);
//! * **presets** ([`programs`]) calibrated so each generated workload
//!   matches its program's published statistics (Tables 2, 5 and 6 of the
//!   paper): total allocation, number of collections, execution time, and
//!   the live-storage profile (mean and maximum);
//! * trace **serialization** ([`format`](mod@format)), **statistics** ([`stats`]),
//!   and lifetime **analysis** ([`analysis`]: survival curves and age
//!   demographics);
//! * **streaming** ([`source`]: the [`EventSource`] abstraction over
//!   record streams; [`ctc`]: the sharded on-disk `DTBCTC02`
//!   compiled-trace store) so traces larger than RAM simulate in
//!   O(live set) memory;
//! * the **record log** ([`record_log`]: the append-only `DTBLOG01`
//!   frame log under every crash-durable store) with its FNV-1a
//!   checksum and error type ([`ckp`]).
//!
//! # Example
//!
//! ```
//! use dtb_trace::programs::Program;
//!
//! // Compile the CFRAC-like workload (the smallest preset) and summarize it.
//! let trace = Program::Cfrac.compiled();
//! let stats = dtb_trace::stats::TraceStats::compute_compiled(&trace);
//! assert!(stats.total_allocated.as_u64() > 3_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod ckp;
pub mod corrupt;
pub mod ctc;
pub mod event;
pub mod format;
pub mod io;
pub mod lifetime;
pub mod programs;
mod read_ahead;
pub mod record_log;
pub mod source;
pub mod stats;
pub mod synth;

pub use builder::TraceBuilder;
pub use ckp::CkpError;
pub use ctc::{verify_store, ShardCursor, ShardReader, ShardStatus, StoreReport};
pub use event::{CompiledTrace, Event, ObjectId, ObjectLife, Trace, TraceMeta};
pub use programs::Program;
pub use source::{
    collect_source, CompiledSource, EventBlock, EventSource, SourceError, SynthSource,
    DEFAULT_BLOCK_EVENTS,
};
pub use synth::{ClassSpec, WorkloadSpec};
