//! The per-thread collector state: allocation, the remembered set, and the
//! dynamic-threatening-boundary mark–sweep scavenge.

use crate::config::HeapConfig;
use crate::gc::{drop_garbage, ErasedGcBox, Gc, GcBox, Header};
use crate::trace_trait::{Trace, Tracer};
use dtb_core::history::{ScavengeHistory, ScavengeRecord};
use dtb_core::policy::{ScavengeContext, SurvivalEstimator, TbPolicy};
use dtb_core::stats::SampleStats;
use dtb_core::time::{Bytes, VirtualTime};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::ptr::NonNull;

thread_local! {
    static STATE: RefCell<GcState> = RefCell::new(GcState::new(HeapConfig::default()));
}

/// Runs `f` with this thread's collector state.
///
/// # Panics
///
/// Panics on re-entrant use: allocating or mutating cells from inside a
/// `Drop` impl that runs during collection is not supported.
pub(crate) fn with_state<R>(f: impl FnOnce(&mut GcState) -> R) -> R {
    STATE.with(|s| {
        f(&mut s
            .try_borrow_mut()
            .expect("re-entrant heap use (allocation inside Drop during collection?)"))
    })
}

/// The outcome of one scavenge of the real heap.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CollectionOutcome {
    /// Allocation-clock time of the scavenge.
    pub at: VirtualTime,
    /// The threatening boundary the policy selected.
    pub boundary: VirtualTime,
    /// Bytes of threatened storage traced (marked live).
    pub traced: Bytes,
    /// Bytes reclaimed.
    pub reclaimed: Bytes,
    /// Bytes surviving.
    pub surviving: Bytes,
    /// Pause attributed under the configured cost model, milliseconds.
    pub pause_ms: f64,
}

/// A point-in-time summary of the heap.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HeapStats {
    /// Total bytes ever allocated (the allocation clock).
    pub allocated_total: Bytes,
    /// Bytes currently in use (live + uncollected garbage).
    pub mem_in_use: Bytes,
    /// Objects currently in the heap.
    pub object_count: usize,
    /// Scavenges performed so far.
    pub collections: usize,
    /// Objects registered in the remembered set.
    pub remembered_count: usize,
    /// Boundary-policy failures degraded to full collections: when the
    /// policy errors, the collector falls back to `TB = 0` (collect
    /// everything) rather than leak or crash, and counts the incident
    /// here.
    pub policy_failures: usize,
}

pub(crate) struct GcState {
    config: HeapConfig,
    policy: Box<dyn TbPolicy>,
    /// All heap objects, in birth order.
    objects: Vec<NonNull<ErasedGcBox>>,
    /// Objects that have performed a barriered store (candidate sources of
    /// forward-in-time pointers). One entry per object.
    remembered: Vec<NonNull<ErasedGcBox>>,
    clock: u64,
    since_gc: u64,
    mem_in_use: u64,
    history: ScavengeHistory,
    pauses: SampleStats,
    collecting: bool,
    policy_failures: usize,
}

impl GcState {
    fn new(config: HeapConfig) -> GcState {
        let policy = config.policy.build(&config.budgets);
        GcState {
            config,
            policy,
            objects: Vec::new(),
            remembered: Vec::new(),
            clock: 0,
            since_gc: 0,
            mem_in_use: 0,
            history: ScavengeHistory::new(),
            pauses: SampleStats::new(),
            collecting: false,
            policy_failures: 0,
        }
    }

    pub(crate) fn reconfigure(&mut self, config: HeapConfig) {
        self.policy = config.policy.build(&config.budgets);
        self.config = config;
    }

    pub(crate) fn allocate<T: Trace + 'static>(&mut self, value: T) -> Gc<T> {
        let size = std::mem::size_of::<GcBox<T>>();
        assert!(size < u32::MAX as usize, "object too large for this heap");

        if self.config.auto_collect
            && !self.collecting
            && self.since_gc >= self.config.gc_trigger.as_u64()
        {
            self.collect();
        }

        // The value moves into the heap: its handles stop being roots.
        value.unroot();
        self.clock += size as u64;
        self.since_gc += size as u64;
        self.mem_in_use += size as u64;
        let boxed = Box::new(GcBox {
            header: Header {
                birth: VirtualTime::from_bytes(self.clock),
                size: size as u32,
                roots: Cell::new(1), // the handle we are about to return
                marked: Cell::new(false),
                remembered: Cell::new(false),
            },
            value,
        });
        let raw: *mut GcBox<T> = Box::into_raw(boxed);
        // SAFETY: Box::into_raw never returns null.
        let ptr = unsafe { NonNull::new_unchecked(raw) };
        self.objects
            .push(unsafe { NonNull::new_unchecked(raw as *mut ErasedGcBox) });
        Gc {
            ptr,
            rooted: Cell::new(true),
        }
    }

    /// Registers `src` as a possible source of forward-in-time pointers.
    pub(crate) fn remember(&mut self, src: NonNull<ErasedGcBox>) {
        // SAFETY: the caller holds a live handle to `src`.
        let header = unsafe { &src.as_ref().header };
        if !header.remembered.get() {
            header.remembered.set(true);
            self.remembered.push(src);
        }
    }

    pub(crate) fn stats(&self) -> HeapStats {
        HeapStats {
            allocated_total: Bytes::new(self.clock),
            mem_in_use: Bytes::new(self.mem_in_use),
            object_count: self.objects.len(),
            collections: self.history.len(),
            remembered_count: self.remembered.len(),
            policy_failures: self.policy_failures,
        }
    }

    pub(crate) fn history(&self) -> ScavengeHistory {
        self.history.clone()
    }

    pub(crate) fn pause_stats(&self) -> SampleStats {
        self.pauses.clone()
    }

    /// Performs one scavenge with the configured boundary policy.
    pub(crate) fn collect(&mut self) -> CollectionOutcome {
        assert!(!self.collecting, "re-entrant collection");
        self.collecting = true;

        let now = VirtualTime::from_bytes(self.clock);
        let mem_before = Bytes::new(self.mem_in_use);
        let snapshot = HeapSnapshot::capture(&self.objects);
        let ctx = ScavengeContext {
            now,
            mem_before,
            history: &self.history,
            survival: &snapshot,
        };
        // A failing policy must not leak memory or crash the mutator: fall
        // back to a full collection (TB = 0 threatens everything) and
        // count the incident in the stats.
        let tb = match self.policy.select_boundary(&ctx) {
            Ok(tb) => tb.min(now),
            Err(_) => {
                self.policy_failures += 1;
                VirtualTime::ZERO
            }
        };

        let traced = self.mark(tb);
        let garbage = self.unlink_garbage(tb);
        let reclaimed = Bytes::new(garbage.iter().map(|b| b.header.size as u64).sum());

        self.mem_in_use -= reclaimed.as_u64();
        let surviving = Bytes::new(self.mem_in_use);
        let record = ScavengeRecord {
            at: now,
            boundary: tb,
            traced,
            surviving,
            reclaimed,
            mem_before,
        };
        debug_assert!(record.is_consistent());
        let pause_ms = self.config.cost.pause_ms(traced);
        self.pauses.record(pause_ms);
        self.history.push(record);
        self.since_gc = 0;
        self.collecting = false;

        // Destructors run last, on a heap that is already consistent, so a
        // panicking `Drop` impl cannot leave it mid-scavenge.
        drop_garbage(garbage);
        CollectionOutcome {
            at: now,
            boundary: tb,
            traced,
            reclaimed,
            surviving,
            pause_ms,
        }
    }

    /// Mark phase: from the root set (stack-rooted objects) and the
    /// remembered set (immune objects that may hold forward-in-time
    /// pointers), mark every reachable *threatened* object. Immune objects
    /// are never traversed transitively: their outgoing forward edges are
    /// covered by the remembered set, because a forward-in-time pointer
    /// can only be created by a barriered mutation (at construction time
    /// an object can only point at objects older than itself).
    fn mark(&mut self, tb: VirtualTime) -> Bytes {
        let mut traced = 0u64;
        let mut tracer = Tracer::new();
        let mut grey: Vec<NonNull<ErasedGcBox>> = Vec::new();

        let shade =
            |ptr: NonNull<ErasedGcBox>, grey: &mut Vec<NonNull<ErasedGcBox>>, traced: &mut u64| {
                // SAFETY: objects in the registry are live allocations.
                let b = unsafe { ptr.as_ref() };
                if b.is_threatened(tb) && !b.header.marked.get() {
                    b.header.marked.set(true);
                    *traced += b.header.size as u64;
                    grey.push(ptr);
                }
            };

        for &ptr in &self.objects {
            // SAFETY: registry objects are live.
            let b = unsafe { ptr.as_ref() };
            b.header.marked.set(false);
            if b.header.roots.get() > 0 {
                if b.is_threatened(tb) {
                    // Re-set below in shade (cleared just above).
                    shade(ptr, &mut grey, &mut traced);
                } else {
                    // Rooted immune object: its children are roots.
                    b.value.trace(&mut tracer);
                }
            }
        }
        for &src in &self.remembered {
            // SAFETY: remembered entries are purged at sweep, so live.
            let b = unsafe { src.as_ref() };
            if !b.is_threatened(tb) {
                b.value.trace(&mut tracer);
            }
        }

        loop {
            for edge in std::mem::take(&mut tracer.reached) {
                shade(edge, &mut grey, &mut traced);
            }
            let Some(ptr) = grey.pop() else {
                if tracer.reached.is_empty() {
                    break;
                }
                continue;
            };
            // SAFETY: marked objects are live.
            unsafe { ptr.as_ref() }.value.trace(&mut tracer);
        }
        Bytes::new(traced)
    }

    /// Sweep phase: moves every unmarked threatened object out of the
    /// registry and purges it from the remembered set. The caller owns the
    /// returned boxes and drops them once the heap is consistent again.
    fn unlink_garbage(&mut self, tb: VirtualTime) -> Vec<Box<ErasedGcBox>> {
        let doomed = |ptr: &NonNull<ErasedGcBox>| {
            // SAFETY: registry and remembered entries are live: garbage
            // leaves both lists below before any of it is dropped.
            let b = unsafe { ptr.as_ref() };
            b.is_threatened(tb) && !b.header.marked.get()
        };
        self.remembered.retain(|src| !doomed(src));
        let mut garbage = Vec::new();
        self.objects.retain(|ptr| {
            if !doomed(ptr) {
                return true;
            }
            // SAFETY: unreachable — no rooted handle exists and no
            // reachable object points at it — and the registry holds the
            // one owning pointer, which it gives up here.
            garbage.push(unsafe { Box::from_raw(ptr.as_ptr()) });
            false
        });
        garbage
    }
}

/// The policy estimator over the real heap: **all** bytes born after the
/// boundary, live or not — a real collector cannot consult a death oracle,
/// so it over-estimates (and therefore never under-mediates).
struct HeapSnapshot {
    births: Vec<VirtualTime>,
    size_suffix: Vec<u64>,
}

impl HeapSnapshot {
    fn capture(objects: &[NonNull<ErasedGcBox>]) -> HeapSnapshot {
        let mut births = Vec::with_capacity(objects.len());
        let mut sizes = Vec::with_capacity(objects.len());
        for &ptr in objects {
            // SAFETY: registry objects are live.
            let b = unsafe { ptr.as_ref() };
            births.push(b.header.birth);
            sizes.push(b.header.size as u64);
        }
        let mut size_suffix = vec![0u64; sizes.len() + 1];
        for i in (0..sizes.len()).rev() {
            size_suffix[i] = size_suffix[i + 1] + sizes[i];
        }
        HeapSnapshot {
            births,
            size_suffix,
        }
    }
}

impl SurvivalEstimator for HeapSnapshot {
    fn surviving_born_after(&self, tb: VirtualTime) -> Bytes {
        let idx = self.births.partition_point(|b| *b <= tb);
        Bytes::new(self.size_suffix[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{collect_now, configure, heap_stats};
    use crate::cell::GcCell;

    struct Node {
        next: GcCell<Option<Gc<Node>>>,
        _payload: [u8; 64],
    }
    // SAFETY: `next` is the only Gc-bearing field.
    unsafe impl Trace for Node {
        fn trace(&self, t: &mut Tracer) {
            self.next.trace(t);
        }
        fn root(&self) {
            self.next.root();
        }
        fn unroot(&self) {
            self.next.unroot();
        }
    }

    fn node() -> Gc<Node> {
        Gc::new(Node {
            next: GcCell::new(None),
            _payload: [0; 64],
        })
    }

    #[test]
    fn unreachable_objects_are_reclaimed_by_full_collection() {
        configure(HeapConfig::manual_full());
        let keep = node();
        let before = heap_stats().mem_in_use;
        {
            let _drop_me = node();
            let _and_me = node();
        }
        let out = collect_now();
        assert!(
            out.reclaimed >= Bytes::new(128),
            "reclaimed {:?}",
            out.reclaimed
        );
        assert!(heap_stats().mem_in_use < before + Bytes::new(200));
        // The rooted object survived.
        assert!(keep.next.borrow().is_none());
    }

    #[test]
    fn reachable_chain_survives_collection() {
        configure(HeapConfig::manual_full());
        let head = node();
        let mid = node();
        let tail = node();
        head.next.set(&head, Some(mid.clone()));
        mid.next.set(&mid, Some(tail.clone()));
        drop(mid);
        drop(tail);
        collect_now();
        // Walk the chain through the only root.
        let mid_ref = head.next.borrow().clone().unwrap();
        let tail_ref = mid_ref.next.borrow().clone().unwrap();
        assert!(tail_ref.next.borrow().is_none());
    }

    #[test]
    fn forward_pointer_across_boundary_is_kept_by_remembered_set() {
        // FIXED1-style boundary: the old object is immune, the young one
        // threatened; only the remembered set can keep the young one.
        configure(HeapConfig::manual_fixed1());
        let old = node();
        collect_now(); // old becomes "previous scavenge" material
        collect_now(); // boundary now ≥ old's birth ⇒ old immune
        let young = node();
        old.next.set(&old, Some(young.clone()));
        let young_birth = young.birth();
        drop(young); // no stack root: only the heap edge keeps it
        let out = collect_now();
        assert!(out.boundary < young_birth, "young must be threatened");
        assert!(out.boundary >= old.birth(), "old must be immune");
        // The young object survived via the remembered set.
        assert!(old.next.borrow().is_some());
        let again = old.next.borrow().clone().unwrap();
        assert_eq!(again.birth(), young_birth);
    }

    /// Holds a handle to an older object, dropped first in the same sweep,
    /// and reads it when dropped.
    struct Peeker {
        older: Gc<u64>,
    }
    crate::impl_trace_fields!(Peeker { older });
    impl Drop for Peeker {
        fn drop(&mut self) {
            std::hint::black_box(*self.older);
        }
    }

    #[test]
    fn drop_that_dereferences_garbage_panics_and_heap_stays_usable() {
        configure(HeapConfig::manual_full());
        {
            let older = Gc::new(7u64);
            let _first = Gc::new(Peeker {
                older: older.clone(),
            });
            // Leaked after the first panic: dropping it during the unwind
            // would abort the process.
            let _second = Gc::new(Peeker { older });
        }
        let err = std::panic::catch_unwind(collect_now)
            .expect_err("a Drop impl reading freed garbage must panic");
        assert_eq!(
            err.downcast_ref::<&str>(),
            Some(&"Gc dereferenced while the collector drops garbage")
        );
        assert_eq!(heap_stats().object_count, 0);
        assert_eq!(heap_stats().mem_in_use, Bytes::new(0));
        collect_now();
    }

    #[test]
    fn heap_snapshot_suffix_sums_match_naive() {
        configure(HeapConfig::manual_full());
        let _a = node();
        let _b = node();
        let _c = node();
        with_state(|s| {
            let snap = HeapSnapshot::capture(&s.objects);
            for tb in [0u64, 1, 10_000_000] {
                let tb = VirtualTime::from_bytes(tb);
                let naive: u64 = s
                    .objects
                    .iter()
                    .map(|&p| unsafe { p.as_ref() })
                    .filter(|b| b.header.birth > tb)
                    .map(|b| b.header.size as u64)
                    .sum();
                assert_eq!(snap.surviving_born_after(tb), Bytes::new(naive));
            }
        });
    }
}
