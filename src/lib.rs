//! **dtb** — Garbage Collection Using a Dynamic Threatening Boundary.
//!
//! A Rust reproduction of Barrett & Zorn's PLDI 1995 paper (technical
//! report CU-CS-659-93). This facade crate re-exports the workspace:
//!
//! * [`core`] — the boundary-policy framework: virtual time,
//!   the cost model, scavenge history, and the six collector policies of
//!   Table 1 (`FULL`, `FIXED1`, `FIXED4`, `FEEDMED`, `DTBFM`, `DTBMEM`).
//! * [`trace`] — allocation traces: the event model, synthetic
//!   workload generators calibrated to the paper's four programs, and
//!   trace serialization.
//! * [`sim`] — the trace-driven simulator reproducing the
//!   paper's methodology and its Tables 2–4 metrics.
//! * [`heap`] — a real single-threaded mark–sweep collector
//!   with per-object birth times, a write barrier, a single remembered
//!   set, and dynamic-boundary scavenges.
//!
//! # Which crate do I want?
//!
//! *Evaluating GC policies on workloads* → [`dtb_sim`] +
//! [`dtb_trace`]. *Embedding a garbage-collected heap with a pause or
//! memory budget* → [`dtb_heap`]. *Implementing a new boundary policy* →
//! implement [`dtb_core::policy::TbPolicy`] and plug it into either.
//!
//! # Example
//!
//! ```
//! use dtb::core::policy::PolicyKind;
//! use dtb::sim::exec::Evaluation;
//! use dtb::trace::programs::Program;
//!
//! let matrix = Evaluation::new()
//!     .programs([Program::Cfrac])
//!     .policies([PolicyKind::DtbMem])
//!     .run();
//! let report = matrix.get(Program::Cfrac, PolicyKind::DtbMem).unwrap();
//! // The memory-constrained collector stayed within its 3000 KB budget.
//! assert!(report.mem_max.as_u64() <= 3000 * 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dtb_core as core;
pub use dtb_heap as heap;
pub use dtb_sim as sim;
pub use dtb_trace as trace;

pub use dtb_core::policy::{PolicyConfig, PolicyKind, Row};
pub use dtb_sim::{Evaluation, Matrix, SimConfig, SimReport, TraceCache};
pub use dtb_trace::programs::Program;
