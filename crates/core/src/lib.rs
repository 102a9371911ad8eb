//! Dynamic Threatening Boundary (DTB) garbage-collection policy framework.
//!
//! This crate implements the policy layer of Barrett & Zorn's *Garbage
//! Collection Using a Dynamic Threatening Boundary* (CU-CS-659-93 / PLDI
//! 1995). It is deliberately independent of any particular heap: both the
//! trace-driven simulator (`dtb-sim`) and the real mark–sweep collector
//! (`dtb-heap`) drive their scavenges through the same
//! [`TbPolicy`] trait.
//!
//! # Model
//!
//! Following Demers et al., a collection partitions the heap into a
//! *threatened* set (objects that will be traced, and reclaimed if
//! unreachable) and an *immune* set (objects that survive this collection
//! unexamined). A **threatening boundary** is a point on the allocation
//! clock: objects born strictly after the boundary are threatened, objects
//! born at or before it are immune. Classic collectors are special cases of
//! boundary selection (see [`policy`]):
//!
//! | Collector | Boundary before scavenge *n* |
//! |-----------|------------------------------|
//! | `FULL`    | `0` |
//! | `FIXED1`  | `t_{n-1}` |
//! | `FIXED4`  | `t_{n-4}` |
//! | `FEEDMED` | Ungar–Jackson Feedback Mediation |
//! | `DTBFM`   | pause-constrained dynamic boundary |
//! | `DTBMEM`  | memory-constrained dynamic boundary |
//!
//! # Example
//!
//! ```
//! use dtb_core::policy::{DtbFm, TbPolicy, ScavengeContext, NoSurvivalInfo};
//! use dtb_core::history::ScavengeHistory;
//! use dtb_core::time::{Bytes, VirtualTime};
//!
//! // A pause-constrained policy with a 50 KB trace budget (100 ms at the
//! // paper's 500 KB/s tracing rate).
//! let mut policy = DtbFm::new(Bytes::from_kb(50));
//! let history = ScavengeHistory::new();
//! let ctx = ScavengeContext {
//!     now: VirtualTime::from_bytes(1_000_000),
//!     mem_before: Bytes::new(400_000),
//!     history: &history,
//!     survival: &NoSurvivalInfo,
//! };
//! // The first scavenge is always a full collection.
//! assert_eq!(policy.select_boundary(&ctx), Ok(VirtualTime::ZERO));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraint;
pub mod cost;
pub mod error;
pub mod fenwick;
pub mod framework;
pub mod history;
pub mod obs;
pub mod policy;
pub mod soa;
pub mod stats;
pub mod time;

pub use constraint::Constraint;
pub use cost::CostModel;
pub use error::PolicyError;
pub use history::{ScavengeHistory, ScavengeRecord};
pub use policy::{ScavengeContext, SurvivalEstimator, TbPolicy};
pub use time::{Bytes, VirtualTime};
