//! A real single-threaded mark–sweep garbage collector with a **dynamic
//! threatening boundary**.
//!
//! This crate demonstrates that the implementation requirements Barrett &
//! Zorn describe in Section 4.2 of the paper are realizable in a working
//! collector:
//!
//! * every object records its **birth time** on the allocation clock
//!   (bytes allocated so far), so the threatened set for any boundary is
//!   decidable at scavenge time;
//! * a **single remembered set** records every object that may hold a
//!   forward-in-time pointer (old → young), installed by the write
//!   barrier in [`GcCell`]; with a movable boundary, any such pointer may
//!   cross a future boundary, so all of them are remembered — not just the
//!   ones crossing the current boundary;
//! * before each scavenge the configured
//!   [`TbPolicy`](dtb_core::policy::TbPolicy) picks the boundary: objects
//!   born after it are traced and reclaimable, older objects are immune.
//!   Boundaries may move **backward**, untenuring garbage that an eager
//!   earlier boundary stranded — the move generational promotion cannot
//!   make.
//!
//! The pointer API follows the `rust-gc` design so that it stays entirely
//! safe: [`Gc`] handles on the stack are roots (maintained by
//! `Clone`/`Drop`), handles inside the heap are found by tracing
//! ([`Trace`]), and all mutation goes through [`GcCell`], whose methods
//! take the owning object's handle to feed the write barrier (validated:
//! the cell must lie inside the owner's allocation).
//!
//! # Quick start
//!
//! ```
//! use dtb_heap::{collect_now, configure, Gc, GcCell, HeapConfig, Trace, Tracer};
//!
//! struct Node {
//!     label: u32,
//!     next: GcCell<Option<Gc<Node>>>,
//! }
//! // SAFETY: `next` is the only field containing Gc edges.
//! unsafe impl Trace for Node {
//!     fn trace(&self, t: &mut Tracer) { self.next.trace(t) }
//!     fn root(&self) { self.next.root() }
//!     fn unroot(&self) { self.next.unroot() }
//! }
//!
//! configure(HeapConfig::manual_full());
//! let head = Gc::new(Node { label: 0, next: GcCell::new(None) });
//! let tail = Gc::new(Node { label: 1, next: GcCell::new(None) });
//! head.next.set(&head, Some(tail)); // write barrier: head is remembered
//! let outcome = collect_now();
//! assert_eq!(outcome.reclaimed.as_u64(), 0); // everything reachable
//! assert_eq!(head.next.borrow().as_ref().unwrap().label, 1);
//! ```
//!
//! # Limitations
//!
//! * Single-threaded: each thread owns an independent heap; [`Gc`] is
//!   neither `Send` nor `Sync`.
//! * `Drop` impls of collected objects must not dereference their `Gc`
//!   fields (the targets may already be gone: garbage is dropped in birth
//!   order) and must not allocate. Either panics; the scavenge's
//!   accounting is complete before any destructor runs, so the heap stays
//!   usable; the garbage left to drop after the panic leaks.
//! * A [`GcCell`] must be stored directly inside its owner's allocation
//!   (not behind a `Vec`/`Box` indirection) for the write-barrier owner
//!   check to pass.

#![warn(missing_docs)]
// This crate is the one place in the workspace where `unsafe` is earned:
// a garbage collector must manage object lifetimes itself.

mod api;
mod cell;
mod config;
mod gc;
mod state;
mod trace_trait;

pub use api::{collect_now, configure, heap_stats, history, pause_stats};
pub use cell::{GcCell, GcCellRefMut};
pub use config::HeapConfig;
pub use gc::Gc;
pub use state::{CollectionOutcome, HeapStats};
pub use trace_trait::{Trace, Tracer};
