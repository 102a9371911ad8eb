//! Regression test: the steady-state scavenge path allocates nothing.
//!
//! The pre-incremental heap built two heap-sized vectors per survival
//! snapshot, so every scavenge paid an O(heap) allocation toll. The
//! incremental `OracleHeap` answers boundary decisions from borrowed
//! views of its live index and reclaims by walking dead objects in place;
//! this test pins that property with a counting global allocator: after
//! warm-up, snapshot + queries + scavenge must perform **zero**
//! allocations — for one lane, and for every lane of a multi-collector
//! pass.
//!
//! The observability layer rides on the same guarantee: with no sink
//! installed, [`dtb_obs::emit`] is one relaxed atomic load and a branch
//! — the event-building closure (which allocates strings) must never
//! run. The measured region exercises that disabled path too, so
//! instrumenting a hot loop can never quietly tax the uninstrumented
//! build.
//!
//! The single-lane test reads a process-global counter, so a sibling
//! test allocating on another thread would pollute it. The lane test
//! therefore counts on its own thread only: a thread that opts into
//! local counting is left out of the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use dtb_core::policy::{SurvivalEstimator, SurvivalLender};
use dtb_core::time::{Bytes, VirtualTime};
use dtb_sim::heap::{OracleHeap, SimObject};

/// Counts every allocation (and growth reallocation) routed through the
/// global allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's allocations once it opted into local counting
    /// (`None`: counted globally). Const-initialized with no destructor,
    /// so the allocator can read it without allocating.
    static LOCAL: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    let local = LOCAL
        .try_with(|c| c.get().map(|n| c.set(Some(n + 1))).is_some())
        .unwrap_or(false);
    if !local {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn t(v: u64) -> VirtualTime {
    VirtualTime::from_bytes(v)
}

#[test]
fn steady_state_scavenge_path_is_allocation_free() {
    // A 20k-object heap: one third dies young, one third dies later, one
    // third is immortal — so scavenges see survivors, reclaimable dead,
    // and tenured garbage all at once.
    let n = 20_000u64;
    let mut heap = OracleHeap::with_capacity(n as usize);
    for i in 0..n {
        let birth = (i + 1) * 100;
        heap.insert(SimObject {
            birth: t(birth),
            size: (i % 512 + 8) as u32,
            death: match i % 3 {
                0 => Some(t(birth + 5_000)),
                1 => Some(t(birth + 900_000)),
                _ => None,
            },
        });
    }

    // Warm up: advance the lazy clock partway and run one scavenge so the
    // measured region exercises the steady state, not first-touch paths.
    let warm_now = t(n * 50);
    heap.live_bytes_at(warm_now);
    heap.scavenge(t(n * 25), warm_now);

    let before = ALLOCATIONS.load(Ordering::Relaxed);

    // Measured region: two full scavenge decision points — borrow the
    // survival view, probe candidate boundaries (as a policy would), read
    // live bytes for the curve, scavenge. The clock advance between them
    // drains thousands of pending deaths.
    let mut observed = Bytes::ZERO;
    for round in 0..2u64 {
        let now = t(n * 60 + round * n * 30);
        let tb = t(n * 40 + round * n * 20);
        {
            let snap = heap.survival_view(now);
            for probe in 0..16u64 {
                observed += snap.surviving_born_after(t(probe * n * 8));
            }
        }
        observed += heap.live_bytes_at(now);
        let outcome = heap.scavenge(tb, now);
        observed += outcome.traced + outcome.reclaimed + outcome.tenured_garbage;

        // The disabled observability path: no sink is installed in this
        // process, so the closure — which would allocate two strings
        // and an event — must never run, and `emit` must not allocate
        // on its own behalf either.
        assert!(!dtb_obs::enabled(), "this test never installs a sink");
        for probe in 0..64u64 {
            dtb_obs::emit(|| dtb_obs::Event::CellStarted {
                column: format!("probe-{probe}"),
                row: "zero-alloc".to_string(),
                attempt: 1,
            });
        }
    }

    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(observed > Bytes::ZERO, "queries must do real work");
    assert_eq!(
        allocations, 0,
        "steady-state snapshot/query/scavenge path must not allocate"
    );
}

#[test]
fn steady_state_lane_scavenges_are_allocation_free() {
    LOCAL.with(|c| c.set(Some(0)));
    let local = || LOCAL.with(|c| c.get().expect("counting locally"));
    // The same heap shape as above, shared by four lanes whose boundaries
    // differ: FULL (tenures nothing), FIXED1-like (tenures and keeps),
    // one that moves back (untenures), and one that scavenges only every
    // other round (its log segment spans two rounds).
    let lanes = 4;
    let n = 20_000u64;
    let mut heap = OracleHeap::with_lanes(lanes, n as usize);
    for i in 0..n {
        let birth = (i + 1) * 100;
        heap.insert(SimObject {
            birth: t(birth),
            size: (i % 512 + 8) as u32,
            death: match i % 3 {
                0 => Some(t(birth + 5_000)),
                1 => Some(t(birth + 900_000)),
                _ => None,
            },
        });
    }
    let boundary = |lane: usize, round: u64| match lane {
        0 => VirtualTime::ZERO,
        2 if round == 1 => t(n * 10),
        _ => t(n * 25 + round * n * 15),
    };

    let warm_now = t(n * 50);
    heap.live_bytes_at(warm_now);
    for lane in 0..lanes {
        heap.scavenge_lane(lane, t(n * 25), warm_now);
    }

    let before = local();
    let mut observed = Bytes::ZERO;
    for round in 0..2u64 {
        let now = t(n * 60 + round * n * 30);
        {
            let snap = heap.survival_view(now);
            for probe in 0..16u64 {
                observed += snap.surviving_born_after(t(probe * n * 8));
            }
        }
        observed += heap.live_bytes_at(now);
        for lane in 0..lanes {
            if lane == 3 && round == 0 {
                continue;
            }
            let outcome = heap.scavenge_lane(lane, boundary(lane, round), now);
            observed += outcome.traced + outcome.reclaimed + outcome.tenured_garbage;
            observed += heap.lane_mem_in_use(lane);
        }
    }

    let allocations = local() - before;
    assert!(observed > Bytes::ZERO, "queries must do real work");
    assert_eq!(
        allocations, 0,
        "steady-state lane scavenges must not allocate"
    );
}
