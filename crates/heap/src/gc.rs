//! `Gc<T>`: the garbage-collected pointer, and the heap object layout.
//!
//! Every heap object is a [`GcBox`]: a header (birth time on the
//! allocation clock, root count, mark bit) followed by the value. A
//! [`Gc<T>`] handle on the stack counts as a *root* for its target; a
//! `Gc` stored inside another heap object does not (the collector finds it
//! by tracing). The transition between the two states happens through
//! [`Trace::root`]/[`Trace::unroot`] as values move in and out of the
//! heap — the same design as the `rust-gc` crate, which keeps the public
//! API safe: an object can only be collected when no stack handle and no
//! heap path can reach it.

use crate::state::with_state;
use crate::trace_trait::{Trace, Tracer};
use dtb_core::time::VirtualTime;
use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::ptr::NonNull;

/// Per-object collector metadata.
pub(crate) struct Header {
    /// Allocation-clock birth time: the coordinate the threatening
    /// boundary is compared against.
    pub(crate) birth: VirtualTime,
    /// Total allocation size of the box (header + value), in bytes.
    pub(crate) size: u32,
    /// Number of stack handles rooting this object.
    pub(crate) roots: Cell<u32>,
    /// Mark bit for the current scavenge.
    pub(crate) marked: Cell<bool>,
    /// Set when this object has been registered in the remembered set.
    pub(crate) remembered: Cell<bool>,
}

/// A heap object: header + value, `repr(C)` so the header can be read
/// through a type-erased pointer.
#[repr(C)]
pub(crate) struct GcBox<T: Trace + ?Sized + 'static> {
    pub(crate) header: Header,
    pub(crate) value: T,
}

/// The type-erased form of [`GcBox`] the collector works with.
pub(crate) type ErasedGcBox = GcBox<dyn Trace>;

thread_local! {
    /// Set while the collector drops this thread's garbage, in birth
    /// order: a `Drop` impl reaching through a `Gc` then could read an
    /// object freed earlier in the same sweep (rust-gc's `GC_DROPPING`).
    static DROPPING: Cell<bool> = const { Cell::new(false) };
}

/// rust-gc's `finalizer_safe`: refuse every `Gc` access while dropping.
fn assert_not_dropping() {
    if DROPPING.with(Cell::get) {
        panic!("Gc dereferenced while the collector drops garbage");
    }
}

/// Drops a scavenge's garbage with the dropping flag set; the flag
/// clears even when a `Drop` impl panics. The objects after a panicking
/// one are leaked, as in rust-gc: dropping them during the unwind would
/// abort the process at the next destructor that panics too.
pub(crate) fn drop_garbage(garbage: Vec<Box<ErasedGcBox>>) {
    struct Dropping(std::vec::IntoIter<Box<ErasedGcBox>>);
    impl Drop for Dropping {
        fn drop(&mut self) {
            // Objects are left only when a destructor panicked.
            self.0.by_ref().for_each(std::mem::forget);
            DROPPING.with(|d| d.set(false));
        }
    }
    DROPPING.with(|d| d.set(true));
    let mut garbage = Dropping(garbage.into_iter());
    garbage.0.by_ref().for_each(drop);
}

impl Header {
    /// Counts one more root. Panics instead of wrapping: a wrapped count
    /// reads as unrooted, and the next scavenge would free a reachable
    /// object (2³² `mem::forget(g.clone())` calls reach it).
    fn add_root(&self) {
        let Some(roots) = self.roots.get().checked_add(1) else {
            panic!("Gc root count overflow");
        };
        self.roots.set(roots);
    }
}

impl ErasedGcBox {
    pub(crate) fn is_threatened(&self, tb: VirtualTime) -> bool {
        self.header.birth > tb
    }
}

/// A pointer to a garbage-collected `T`.
///
/// `Gc` is `Clone` (cheap pointer copy) but deliberately not `Copy`: the
/// handle tracks whether it is currently a root, and clone/drop maintain
/// the target's root count. It dereferences to `&T`; interior mutability
/// (and the write barrier) comes from [`GcCell`](crate::GcCell).
///
/// `Gc` is not `Send`/`Sync`: each thread has its own heap.
///
/// # Example
///
/// ```
/// use dtb_heap::Gc;
///
/// let answer = Gc::new(42u64);
/// assert_eq!(*answer, 42);
/// let alias = answer.clone();
/// assert!(Gc::ptr_eq(&answer, &alias));
/// ```
pub struct Gc<T: Trace + 'static> {
    pub(crate) ptr: NonNull<GcBox<T>>,
    /// Whether *this handle* currently contributes to the target's root
    /// count (true on the stack, false once moved into the heap).
    pub(crate) rooted: Cell<bool>,
}

impl<T: Trace + 'static> Gc<T> {
    /// Allocates `value` in this thread's garbage-collected heap.
    ///
    /// May trigger a scavenge first (if the allocation trigger has been
    /// reached); the new object is born *after* that scavenge and cannot
    /// be collected by it.
    pub fn new(value: T) -> Gc<T> {
        with_state(|s| s.allocate(value))
    }
}

impl<T: Trace + 'static> Gc<T> {
    fn header(&self) -> &Header {
        assert_not_dropping();
        // SAFETY: a rooted or heap-reachable handle always points at a
        // live box; the collector never frees rooted or reachable objects,
        // and while it drops garbage the check above refuses every access.
        unsafe { &self.ptr.as_ref().header }
    }

    /// The object's birth time on the allocation clock.
    pub fn birth(&self) -> VirtualTime {
        self.header().birth
    }

    /// Pointer identity: true when both handles address the same object.
    pub fn ptr_eq(a: &Gc<T>, b: &Gc<T>) -> bool {
        std::ptr::eq(a.ptr.as_ptr() as *const u8, b.ptr.as_ptr() as *const u8)
    }

    pub(crate) fn erased(&self) -> NonNull<ErasedGcBox> {
        // SAFETY: the pointer is valid; this only unsizes it.
        unsafe { NonNull::new_unchecked(self.ptr.as_ptr() as *mut ErasedGcBox) }
    }
}

impl<T: Trace + 'static> Deref for Gc<T> {
    type Target = T;
    fn deref(&self) -> &T {
        assert_not_dropping();
        // SAFETY: see `header` — reachable objects are never freed.
        unsafe { &self.ptr.as_ref().value }
    }
}

impl<T: Trace + 'static> Clone for Gc<T> {
    fn clone(&self) -> Gc<T> {
        // A fresh handle lives on the stack, so it roots the target.
        self.header().add_root();
        Gc {
            ptr: self.ptr,
            rooted: Cell::new(true),
        }
    }
}

impl<T: Trace + 'static> Drop for Gc<T> {
    fn drop(&mut self) {
        if self.rooted.get() {
            let header = self.header();
            header.roots.set(header.roots.get() - 1);
        }
        // Unrooted handles live inside heap objects; they are dropped by
        // the collector after their target may already be gone, so they
        // must not touch the target. No-op is exactly right.
    }
}

// SAFETY: `trace` reports the single edge; root/unroot maintain the
// handle-state ↔ root-count invariant.
unsafe impl<T: Trace + 'static> Trace for Gc<T> {
    fn trace(&self, tracer: &mut Tracer) {
        tracer.edge(self.erased());
    }

    fn root(&self) {
        if !self.rooted.get() {
            self.header().add_root();
            self.rooted.set(true);
        }
    }

    fn unroot(&self) {
        if self.rooted.get() {
            self.rooted.set(false);
            let header = self.header();
            header.roots.set(header.roots.get() - 1);
        }
    }
}

impl<T: Trace + fmt::Debug + 'static> fmt::Debug for Gc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Gc").field(&&**self).finish()
    }
}

impl<T: Trace + fmt::Display + 'static> fmt::Display for Gc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: Trace + PartialEq + 'static> PartialEq for Gc<T> {
    fn eq(&self, other: &Gc<T>) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deref_reads_value() {
        let g = Gc::new(123u64);
        assert_eq!(*g, 123);
    }

    #[test]
    fn clone_is_pointer_identity() {
        let a = Gc::new(String::from("hello"));
        let b = a.clone();
        assert!(Gc::ptr_eq(&a, &b));
        assert_eq!(*a, *b);
        let c = Gc::new(String::from("hello"));
        assert!(!Gc::ptr_eq(&a, &c));
        assert_eq!(a, c); // value equality
    }

    #[test]
    fn birth_times_increase_with_allocation() {
        let a = Gc::new(1u8);
        let b = Gc::new(2u8);
        assert!(a.birth() < b.birth());
    }

    #[test]
    fn root_count_overflow_panics_instead_of_wrapping() {
        let g = Gc::new(5u8);
        g.header().roots.set(u32::MAX);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.clone()))
            .expect_err("a clone at u32::MAX roots must panic");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"Gc root count overflow"));
        assert_eq!(g.header().roots.get(), u32::MAX);
        g.header().roots.set(1);
    }

    #[test]
    fn debug_and_display_format() {
        let g = Gc::new(7u32);
        assert_eq!(format!("{g:?}"), "Gc(7)");
        assert_eq!(format!("{g}"), "7");
    }
}
