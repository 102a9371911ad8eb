//! The oracle heap: the simulated collector's view of storage.
//!
//! The heap holds every object that has been allocated and not yet
//! *reclaimed*. Because this is a garbage-collected world, a `Free` event
//! in the trace does not release memory — it only records the moment the
//! object became unreachable (the lifetime oracle). Memory in use only
//! drops when a scavenge reclaims unreachable threatened objects.
//!
//! # One live index, many lanes
//!
//! Under the lifetime oracle, which bytes are live at a clock does not
//! depend on the collector: only which *dead* bytes are still in memory
//! does. [`OracleHeap`] is built on that split. One shared index answers
//! everything about live storage, and each **lane** (one collector of a
//! pass, see [`Sim::run_lanes`](crate::engine::Sim::run_lanes)) keeps
//! only its own dead-but-unreclaimed bytes. A single-collector heap is
//! the one-lane case.
//!
//! - Every object ever born gets a **global slot** — its position in
//!   birth order, never reused until compaction. `births` maps slots to
//!   birth times and is append-only, so any boundary `tb` resolves to a
//!   slot split point with one binary search.
//! - One [Fenwick tree](dtb_core::fenwick) over global slots holds the
//!   **live** bytes. Traced bytes at `(tb, now)` and every survival query
//!   a policy makes are prefix/suffix sums or one descent, O(log n) each.
//! - Deaths are applied **lazily**, and in two stages. Inserts do no
//!   death bookkeeping at all: the struct-of-arrays slot columns already
//!   hold each new object's death time, so the rows appended since the
//!   last clock advance form a *staged suffix* marked by one watermark.
//!   The next clock advance (a scavenge or an oracle query) scans that
//!   suffix once: deaths already in the past are applied directly, and
//!   only the stragglers whose deaths still lie in the future enter a
//!   small unordered pending set, drained by a linear sweep (guarded by
//!   its cached minimum death) when their time comes.
//! - Applying a death removes the object's bytes from the live tree and
//!   appends its birth and size to the **death log**, exactly once. Each
//!   lane keeps a cursor into the log.
//!
//! A lane's scavenge at `(tb, now)` reads the live tree for its traced
//! bytes and walks only dead objects: the log entries past its cursor
//! (born after `tb`: reclaimed; born at or before `tb`: tenured garbage,
//! which joins the lane's **tenured index**), then the tenured entries
//! born after `tb` (reclaimed — the DTB untenuring move). A lane's memory
//! in use is everything allocated minus everything it reclaimed. The log
//! is trimmed up to the smallest cursor, so a collector whose boundary
//! never tenures (`FULL`) keeps an empty tenured index, and reclaiming
//! young garbage is one branch-free scan of a log segment
//! ([`dtb_core::soa::born_after_stats`]) instead of a walk over the
//! residents. Nothing on the scavenge path allocates once the log and
//! tenured columns have their capacity (see
//! `crates/sim/tests/zero_alloc.rs`); survival snapshots are borrowed
//! views into the live index.
//!
//! Slots are nominally never reused, but a long-running trace would then
//! grow the index with every object ever born even though almost all of
//! them are long dead. After a scavenge, once dead slots are at least half
//! the index (and the index tops a 1024-slot floor), the heap **rebases**
//! the slot space onto the live slots in place. Dead slots hold zero
//! bytes in the live tree, and the log and tenured entries carry birth
//! times rather than slots, so every aggregate is preserved bit-for-bit
//! while index memory stays proportional to the live set. This is what
//! keeps a streaming [`EventSource`](dtb_trace::EventSource) run in
//! O(live set) memory.
//!
//! The original scan-based implementation survives as
//! [`naive::NaiveHeap`], the executable specification the differential
//! suite checks this heap against.

pub mod naive;

use dtb_core::fenwick::Fenwick;
use dtb_core::history::BoundaryCandidates;
use dtb_core::policy::{SurvivalEstimator, SurvivalLender};
use dtb_core::soa::born_after_stats;
use dtb_core::time::{Bytes, VirtualTime};

/// One object in the oracle heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimObject {
    /// Birth time on the allocation clock.
    pub birth: VirtualTime,
    /// Size in bytes.
    pub size: u32,
    /// Oracle death time; `None` = lives to the end of the trace.
    pub death: Option<VirtualTime>,
}

impl SimObject {
    /// True when the object is reachable at time `at`.
    pub fn is_live_at(&self, at: VirtualTime) -> bool {
        self.death.is_none_or(|d| d > at)
    }
}

/// The outcome of one scavenge over the oracle heap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScavengeOutcome {
    /// Bytes of reachable threatened storage traced.
    pub traced: Bytes,
    /// Bytes of unreachable threatened storage reclaimed.
    pub reclaimed: Bytes,
    /// Bytes surviving (everything immune + live threatened).
    pub surviving: Bytes,
    /// Bytes of *tenured garbage* left behind: dead objects protected by
    /// immunity (born at or before the boundary).
    pub tenured_garbage: Bytes,
}

/// The heap interface the simulation engine drives.
///
/// Implemented by the incremental [`OracleHeap`] (production) and the
/// scan-based [`naive::NaiveHeap`] (executable specification); the
/// differential suite runs the engine over both and asserts identical
/// results. Queries take `&mut self` because the incremental heap applies
/// pending deaths lazily — callers must present monotonically
/// non-decreasing times, which the trace's event order guarantees.
pub trait SimHeap: SurvivalLender {
    /// An empty heap with room for `n` objects.
    fn with_capacity(n: usize) -> Self;

    /// Inserts a newly allocated object; births arrive strictly
    /// increasing.
    fn insert(&mut self, obj: SimObject);

    /// Inserts a whole validated block of objects from struct-of-arrays
    /// columns (`u64::MAX` death = immortal, the `DTBCTC01` sentinel).
    ///
    /// Must be observably identical to inserting the objects one at a
    /// time; the default does exactly that, and the incremental
    /// [`OracleHeap`] overrides it with bulk index builds.
    fn insert_block(&mut self, births: &[u64], sizes: &[u32], deaths: &[u64]) {
        debug_assert_eq!(births.len(), sizes.len());
        debug_assert_eq!(births.len(), deaths.len());
        for i in 0..births.len() {
            self.insert(SimObject {
                birth: VirtualTime::from_bytes(births[i]),
                size: sizes[i],
                death: (deaths[i] != u64::MAX).then(|| VirtualTime::from_bytes(deaths[i])),
            });
        }
    }

    /// Bytes currently occupying memory (live + unreclaimed garbage).
    fn mem_in_use(&self) -> Bytes;

    /// Number of objects currently in the heap.
    fn len(&self) -> usize;

    /// True when the heap holds no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact live bytes at time `at` (oracle knowledge).
    fn live_bytes_at(&mut self, at: VirtualTime) -> Bytes;

    /// Performs a scavenge at time `now` with threatening boundary `tb`.
    fn scavenge(&mut self, tb: VirtualTime, now: VirtualTime) -> ScavengeOutcome;
}

/// An empty heap image. Stays only because `benchmark/src/layers.rs`
/// names it, until that file drops its [`CheckpointHeap`] forwards.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HeapSnapshot;

/// An inert extension of [`SimHeap`] with default bodies. Stays only
/// because `benchmark/src/layers.rs` implements it, until that file
/// drops its forwards.
pub trait CheckpointHeap: SimHeap {
    /// Returns an empty [`HeapSnapshot`].
    fn snapshot(&self) -> HeapSnapshot {
        HeapSnapshot
    }

    /// Returns an empty heap.
    fn restore(_snapshot: &HeapSnapshot) -> Self
    where
        Self: Sized,
    {
        Self::with_capacity(0)
    }
}

/// Sentinel death time for "lives to the end of the trace" in the heap's
/// struct-of-arrays death column — the same convention as the on-disk
/// `DTBCTC01` record format. No real allocation clock reaches it, so the
/// branch-free `death <= now` comparison treats immortals as never dead.
const NO_DEATH: u64 = u64::MAX;

/// Slot-count floor below which the heap never compacts: rebasing a tiny
/// index saves nothing, and the floor keeps short runs on the exact
/// append-only fast path.
const COMPACT_MIN_SLOTS: usize = 1024;

/// Dead objects as two parallel columns, births and sizes: the heap's
/// death log and each lane's tenured index. Birth times, not slots, key
/// them, so the slot space can be rebased under them.
#[derive(Clone, Debug, Default)]
struct DeadColumns {
    births: Vec<u64>,
    sizes: Vec<u32>,
}

impl DeadColumns {
    fn with_capacity(n: usize) -> DeadColumns {
        DeadColumns {
            births: Vec::with_capacity(n),
            sizes: Vec::with_capacity(n),
        }
    }

    fn len(&self) -> usize {
        self.births.len()
    }

    fn push(&mut self, birth: u64, size: u32) {
        self.births.push(birth);
        self.sizes.push(size);
    }
}

/// One collector's share of the heap: everything that depends on its
/// boundaries, which is only the dead bytes it has not reclaimed.
#[derive(Clone, Debug)]
struct Lane {
    /// Absolute death-log position up to which this lane has classified
    /// deaths; `usize::MAX` once the lane is retired.
    cursor: usize,
    /// Dead objects born at or before the boundary of the scavenge that
    /// first saw them dead, and not reclaimed since: tenured garbage.
    /// Unordered.
    tenured: DeadColumns,
    /// Bytes in `tenured`.
    tenured_bytes: u64,
    /// Latest birth in `tenured` (0 when empty): a boundary at or past it
    /// untenures nothing, so the scavenge skips the tenured walk.
    tenured_latest: u64,
    /// Bytes this lane has reclaimed over the whole run.
    reclaimed: u64,
    /// Objects this lane has reclaimed over the whole run.
    reclaimed_objects: usize,
}

impl Lane {
    fn new(capacity: usize) -> Lane {
        Lane {
            cursor: 0,
            tenured: DeadColumns::with_capacity(capacity),
            tenured_bytes: 0,
            tenured_latest: 0,
            reclaimed: 0,
            reclaimed_objects: 0,
        }
    }
}

/// Birth-ordered heap with an exact lifetime oracle, maintained
/// incrementally: one shared live index and one or more collector lanes
/// (see the module docs for the design).
///
/// [`OracleHeap::with_capacity`] builds the one-lane heap the
/// [`SimHeap`] interface drives; [`OracleHeap::with_lanes`] builds the
/// heap of a multi-collector pass, whose lanes are addressed by index.
#[derive(Clone, Debug)]
pub struct OracleHeap {
    /// Birth time per global slot (allocation-clock bytes), append-only
    /// between compactions. Stored as raw `u64` so block inserts append
    /// with one `memcpy` straight from the event source's birth column.
    births: Vec<u64>,
    /// Size in bytes per global slot (parallel to `births`).
    sizes: Vec<u32>,
    /// Oracle death time per global slot ([`NO_DEATH`] = immortal;
    /// parallel to `births`).
    deaths: Vec<u64>,
    /// Live bytes per global slot.
    live: Fenwick,
    /// Slots whose death has been applied since the last compaction.
    dead_slots: usize,
    /// Future deaths awaiting application: `(death, slot, size)`,
    /// unordered. Only populated from the staged suffix at clock
    /// advances, and only with deaths that are still in the future then —
    /// which keeps the set small (objects outliving the scavenge after
    /// their birth), so draining it is one linear sweep instead of
    /// per-entry priority-queue traffic.
    pending: Vec<(u64, u32, u32)>,
    /// Smallest death time in `pending` (`NO_DEATH` when empty): lets an
    /// advance skip the sweep entirely while no pending death has come
    /// due.
    pending_min: u64,
    /// Watermark into the slot columns: slots at or above it were
    /// appended since the last clock advance and have not had their death
    /// examined yet (the staged suffix of the module docs).
    staged_lo: usize,
    /// Reusable slot batch for the batched [`Fenwick::sub_many`] death
    /// application. Warm-up sizes it; steady state never reallocates.
    scratch_slots: Vec<u32>,
    /// Byte deltas paired with `scratch_slots`.
    scratch_deltas: Vec<u64>,
    /// Every applied death not yet classified by every lane, in
    /// application order.
    log: DeadColumns,
    /// Absolute log position of `log`'s first entry.
    log_base: usize,
    /// Bytes allocated over the whole run.
    allocated: u64,
    /// Objects allocated over the whole run.
    objects: usize,
    /// Per-collector state. The log and every lane's tenured index
    /// reserve the heap's capacity hint up front (address space only
    /// until used), so on a source of known length the scavenge path
    /// never grows them.
    lanes: Vec<Lane>,
    /// High-water mark of query time: every death `<= clock` has been
    /// removed from the live index and logged.
    clock: VirtualTime,
}

impl Default for OracleHeap {
    fn default() -> OracleHeap {
        OracleHeap::with_capacity(0)
    }
}

impl OracleHeap {
    /// Creates an empty one-lane heap.
    pub fn new() -> OracleHeap {
        OracleHeap::default()
    }

    /// Creates an empty one-lane heap with index capacity for `n` objects.
    pub fn with_capacity(n: usize) -> OracleHeap {
        OracleHeap::with_lanes(1, n)
    }

    /// Creates an empty heap shared by `lanes` collectors, with index
    /// capacity for `n` objects.
    pub fn with_lanes(lanes: usize, n: usize) -> OracleHeap {
        OracleHeap {
            births: Vec::with_capacity(n),
            sizes: Vec::with_capacity(n),
            deaths: Vec::with_capacity(n),
            live: Fenwick::with_capacity(n),
            dead_slots: 0,
            pending: Vec::new(),
            pending_min: NO_DEATH,
            staged_lo: 0,
            scratch_slots: Vec::new(),
            scratch_deltas: Vec::new(),
            log: DeadColumns::with_capacity(n),
            log_base: 0,
            allocated: 0,
            objects: 0,
            lanes: (0..lanes).map(|_| Lane::new(n)).collect(),
            clock: VirtualTime::ZERO,
        }
    }

    /// Inserts a newly allocated object.
    ///
    /// Births must arrive strictly increasing (the trace drives
    /// insertions in allocation order), and sizes must be nonzero (the
    /// trace layer rejects zero-sized allocations as
    /// [`TraceError::ZeroSizedAlloc`](dtb_trace::event::TraceError::ZeroSizedAlloc)).
    /// Violations panic in debug builds.
    pub fn insert(&mut self, obj: SimObject) {
        if let Some(&last) = self.births.last() {
            debug_assert!(
                obj.birth.as_u64() > last,
                "births must be strictly increasing: {:?} after {last}",
                obj.birth,
            );
        }
        debug_assert!(obj.size > 0, "zero-sized objects are rejected upstream");
        debug_assert!(
            self.births.len() < u32::MAX as usize,
            "slot index exceeds u32"
        );
        self.births.push(obj.birth.as_u64());
        self.sizes.push(obj.size);
        self.deaths
            .push(obj.death.map_or(NO_DEATH, VirtualTime::as_u64));
        self.live.push(obj.size as u64);
        self.allocated += obj.size as u64;
        self.objects += 1;
        // No death bookkeeping here: the row just appended sits in the
        // staged suffix above `staged_lo`, and the next clock advance
        // examines it — including an object already past its death on the
        // lazy clock (one can die the instant it is born), which the
        // staged scan applies before answering any query.
    }

    /// Inserts a whole block of objects from struct-of-arrays columns
    /// (death times use the `u64::MAX` sentinel for immortals, as in
    /// the `DTBCTC01` record format and
    /// [`EventBlock::NO_DEATH`](dtb_trace::EventBlock::NO_DEATH)).
    ///
    /// Observably identical to inserting the objects one at a time —
    /// the Fenwick tree shape is a pure function of the slot values — but
    /// the index append is one bulk [`Fenwick::extend`] build. The block
    /// engine's fast path feeds validated columns straight from the event
    /// source.
    pub fn insert_block(&mut self, births: &[u64], sizes: &[u32], deaths: &[u64]) {
        debug_assert_eq!(births.len(), sizes.len());
        debug_assert_eq!(births.len(), deaths.len());
        #[cfg(debug_assertions)]
        for (i, &b) in births.iter().enumerate() {
            let prev = if i == 0 {
                self.births.last().copied()
            } else {
                Some(births[i - 1])
            };
            debug_assert!(
                prev.is_none_or(|p| b > p),
                "births must be strictly increasing"
            );
            debug_assert!(sizes[i] > 0, "zero-sized objects are rejected upstream");
        }
        debug_assert!(
            self.births.len() + births.len() <= u32::MAX as usize + 1,
            "slot index exceeds u32"
        );
        self.births.extend_from_slice(births);
        self.sizes.extend_from_slice(sizes);
        self.deaths.extend_from_slice(deaths);
        let before = self.live.total();
        self.live.extend(sizes.iter().map(|&s| s as u64));
        self.allocated += self.live.total() - before;
        self.objects += births.len();
        // Death bookkeeping is deferred wholesale: the appended rows are
        // the staged suffix, examined once by the next clock advance.
    }

    /// Applies every death at or before `now`: removes the bytes from the
    /// live index and appends the object to the death log. Amortized
    /// O(log n) per object over the whole run — and no pending-set
    /// traffic for the (typical) object whose death has already passed
    /// by the first clock advance after its birth.
    fn advance_clock(&mut self, now: VirtualTime) {
        let n = self.deaths.len();
        let advanced = now > self.clock;
        if !advanced && self.staged_lo >= n {
            return;
        }
        if advanced {
            self.clock = now;
        }
        let now_u = self.clock.as_u64();
        // Scan the staged suffix first — one pass over the slot columns
        // appended since the last drain. Deaths already at or before
        // `now` apply directly (removals at distinct slots commute, so
        // the unordered batch is equivalent to sorted application); only
        // future deaths enter the pending set. Both drains accumulate
        // into one slot/delta batch so the tree walks run back to back.
        // The scan runs even when the clock does not move: a freshly
        // inserted object may already be past its death on the lazy
        // clock and must leave the live index before any query.
        self.scratch_slots.clear();
        self.scratch_deltas.clear();
        for i in self.staged_lo..n {
            let d = self.deaths[i];
            if d == NO_DEATH {
                continue;
            }
            let size = self.sizes[i];
            if d <= now_u {
                self.scratch_slots.push(i as u32);
                self.scratch_deltas.push(size as u64);
            } else {
                self.pending.push((d, i as u32, size));
                self.pending_min = self.pending_min.min(d);
            }
        }
        self.staged_lo = n;
        if self.pending_min <= now_u {
            // Sweep the due deaths out in place (swap-remove keeps the
            // sweep linear); recompute the minimum from the survivors.
            let mut min = NO_DEATH;
            let mut i = 0;
            while i < self.pending.len() {
                let (d, slot, size) = self.pending[i];
                if d <= now_u {
                    self.scratch_slots.push(slot);
                    self.scratch_deltas.push(size as u64);
                    self.pending.swap_remove(i);
                } else {
                    min = min.min(d);
                    i += 1;
                }
            }
            self.pending_min = min;
        }
        if !self.scratch_slots.is_empty() {
            self.live
                .sub_many(&self.scratch_slots, &self.scratch_deltas);
            self.dead_slots += self.scratch_slots.len();
            for &slot in &self.scratch_slots {
                let slot = slot as usize;
                self.log.push(self.births[slot], self.sizes[slot]);
            }
        }
    }

    /// Bytes lane 0 currently holds in memory (live + its unreclaimed
    /// garbage).
    pub fn mem_in_use(&self) -> Bytes {
        self.lane_mem_in_use(0)
    }

    /// Bytes lane `lane` currently holds in memory: everything allocated
    /// minus everything the lane reclaimed. Exact regardless of how far
    /// the lazy clock has advanced, since deaths do not change it.
    pub fn lane_mem_in_use(&self, lane: usize) -> Bytes {
        Bytes::new(self.allocated - self.lanes[lane].reclaimed)
    }

    /// Number of objects lane 0 currently holds.
    pub fn len(&self) -> usize {
        self.lane_len(0)
    }

    /// Number of objects lane `lane` currently holds.
    pub fn lane_len(&self, lane: usize) -> usize {
        self.objects - self.lanes[lane].reclaimed_objects
    }

    /// True when lane 0 holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact live bytes at time `at` (oracle knowledge), O(deaths since
    /// the last query).
    ///
    /// Query times must be monotonically non-decreasing across
    /// [`OracleHeap::live_bytes_at`], the scavenges, and
    /// [`OracleHeap::survival_snapshot`].
    pub fn live_bytes_at(&mut self, at: VirtualTime) -> Bytes {
        self.advance_clock(at);
        Bytes::new(self.live.total())
    }

    /// First global slot born strictly after `tb`.
    fn boundary_slot(&self, tb: VirtualTime) -> usize {
        let tb = tb.as_u64();
        self.births.partition_point(|&b| b <= tb)
    }

    /// Scavenges lane 0; see [`OracleHeap::scavenge_lane`].
    pub fn scavenge(&mut self, tb: VirtualTime, now: VirtualTime) -> ScavengeOutcome {
        self.scavenge_lane(0, tb, now)
    }

    /// Performs lane `lane`'s scavenge at time `now` with threatening
    /// boundary `tb`: traces live threatened objects, reclaims the lane's
    /// dead threatened objects, and leaves immune objects untouched.
    ///
    /// Traced bytes are one suffix sum of the live index. The reclaimed
    /// and tenured bytes come from a walk over dead objects only: the
    /// death-log segment this lane has not seen yet, and — only when the
    /// boundary moved back past some of it — the lane's tenured garbage.
    /// Performs no heap allocation while the log and tenured columns fit
    /// their reserved capacity. Afterwards
    /// [`OracleHeap::lane_mem_in_use`] reflects the surviving storage.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or retired.
    pub fn scavenge_lane(
        &mut self,
        lane: usize,
        tb: VirtualTime,
        now: VirtualTime,
    ) -> ScavengeOutcome {
        self.advance_clock(now);
        let split = self.boundary_slot(tb);
        let traced = Bytes::new(self.live.suffix(split));
        let tb_u = tb.as_u64();
        let log_lo = self.lanes[lane].cursor - self.log_base;
        let l = &mut self.lanes[lane];
        let mut reclaimed = 0u64;
        let mut reclaimed_objects = 0usize;
        // Untenure: tenured garbage born after a boundary that moved back
        // is reclaimed; the rest compacts in place.
        if l.tenured_latest > tb_u {
            let mut write = 0;
            let mut latest = 0;
            for read in 0..l.tenured.len() {
                let (birth, size) = (l.tenured.births[read], l.tenured.sizes[read]);
                if birth > tb_u {
                    reclaimed += size as u64;
                    reclaimed_objects += 1;
                } else {
                    l.tenured.births[write] = birth;
                    l.tenured.sizes[write] = size;
                    latest = latest.max(birth);
                    write += 1;
                }
            }
            l.tenured.births.truncate(write);
            l.tenured.sizes.truncate(write);
            // Nothing else has been reclaimed yet: these are all untenured.
            l.tenured_bytes -= reclaimed;
            l.tenured_latest = latest;
        }
        // Deaths this lane has not seen: threatened ones are reclaimed,
        // immune ones become tenured garbage.
        let births = &self.log.births[log_lo..];
        let sizes = &self.log.sizes[log_lo..];
        let (bytes, count) = born_after_stats(births, sizes, tb_u);
        reclaimed += bytes;
        reclaimed_objects += count;
        if count < births.len() {
            for (&birth, &size) in births.iter().zip(sizes) {
                if birth <= tb_u {
                    l.tenured.push(birth, size);
                    l.tenured_bytes += size as u64;
                    l.tenured_latest = l.tenured_latest.max(birth);
                }
            }
        }
        l.cursor = self.log_base + self.log.len();
        l.reclaimed += reclaimed;
        l.reclaimed_objects += reclaimed_objects;
        debug_assert!(l.tenured_latest <= tb_u || l.tenured.len() == 0);
        let outcome = ScavengeOutcome {
            traced,
            reclaimed: Bytes::new(reclaimed),
            surviving: Bytes::new(self.allocated - l.reclaimed),
            tenured_garbage: Bytes::new(l.tenured_bytes),
        };
        self.trim_log();
        // Dead-slot compaction: once dead slots dominate the index,
        // rebase it onto the live slots so index memory tracks the *live*
        // set instead of every object ever born — the property that lets
        // a streaming source run in O(live set) memory.
        let slots = self.births.len();
        if slots >= COMPACT_MIN_SLOTS && 2 * self.dead_slots >= slots {
            self.compact();
        }
        outcome
    }

    /// Retires lane `lane` (its collector failed): it is never scavenged
    /// again, and its cursor no longer holds back the log trim.
    pub fn retire_lane(&mut self, lane: usize) {
        let l = &mut self.lanes[lane];
        l.cursor = usize::MAX;
        l.tenured = DeadColumns::default();
        l.tenured_bytes = 0;
        l.tenured_latest = 0;
        self.trim_log();
    }

    /// Drops the log entries every lane has classified.
    fn trim_log(&mut self) {
        let end = self.log_base + self.log.len();
        let upto = self
            .lanes
            .iter()
            .map(|l| l.cursor)
            .min()
            .unwrap_or(end)
            .min(end);
        let k = upto - self.log_base;
        if k > 0 {
            self.log.births.drain(..k);
            self.log.sizes.drain(..k);
            self.log_base = upto;
        }
    }

    /// Rebases the slot space onto the live slots, discarding dead ones.
    ///
    /// Every observable is preserved bit-for-bit: dead slots hold zero
    /// bytes in the live tree, so dropping their births shifts every
    /// `partition_point` split without changing any prefix/suffix sum, and
    /// the log and tenured columns hold births, not slots. The rebuild
    /// reuses the existing buffers, so the scavenge path stays
    /// allocation-free (see `crates/sim/tests/zero_alloc.rs`).
    fn compact(&mut self) {
        let n = self.births.len();
        // Scavenge advanced the clock, which drained the staged suffix.
        debug_assert_eq!(self.staged_lo, n, "compaction with staged deaths");
        self.pending.clear();
        self.pending_min = NO_DEATH;
        let clock = self.clock.as_u64();
        let mut write = 0;
        for read in 0..n {
            let death = self.deaths[read];
            // Every death at or before the clock has been applied; the
            // rest (immortals included) are live.
            if death <= clock {
                continue;
            }
            let size = self.sizes[read];
            // `write <= read`, so the in-place copy never reads an
            // already-overwritten entry.
            self.births[write] = self.births[read];
            self.sizes[write] = size;
            self.deaths[write] = death;
            if death != NO_DEATH {
                self.pending.push((death, write as u32, size));
                self.pending_min = self.pending_min.min(death);
            }
            write += 1;
        }
        self.births.truncate(write);
        self.sizes.truncate(write);
        self.deaths.truncate(write);
        self.staged_lo = write;
        self.dead_slots = 0;
        // One bulk bottom-up build replaces a per-slot push descent.
        self.live.rebuild(self.sizes.iter().map(|&s| s as u64));
    }

    /// Number of slots in the heap's index (bounded by compaction, see
    /// [`OracleHeap::scavenge_lane`]).
    pub fn index_len(&self) -> usize {
        self.births.len()
    }

    /// Borrows a survival snapshot for policy boundary decisions at time
    /// `now`: answers "how much live storage was born after `tb`" in
    /// O(log n) per query, without allocating. Shared by every lane.
    pub fn survival_snapshot(&mut self, now: VirtualTime) -> SurvivalSnapshot<'_> {
        self.advance_clock(now);
        SurvivalSnapshot {
            births: &self.births,
            index: &self.live,
        }
    }
}

/// An O(log n) oracle for "live bytes born after `tb`", borrowed from the
/// heap's live index at one scavenge decision point. Construction is
/// allocation-free — the view reads the incrementally maintained index
/// directly.
#[derive(Clone, Copy, Debug)]
pub struct SurvivalSnapshot<'a> {
    births: &'a [u64],
    index: &'a Fenwick,
}

impl SurvivalEstimator for SurvivalSnapshot<'_> {
    fn surviving_born_after(&self, tb: VirtualTime) -> Bytes {
        let tb = tb.as_u64();
        let idx = self.births.partition_point(|&b| b <= tb);
        Bytes::new(self.index.suffix(idx))
    }

    /// The inverse query as a single descent of the live-bytes Fenwick
    /// tree: O(log n) total, instead of the default's one O(log n)
    /// survival probe per candidate.
    ///
    /// A boundary `t` fits iff `live.suffix(slots born ≤ t) <= trace_max`,
    /// i.e. iff at least `K = live.total() - trace_max` live bytes were
    /// born at or before `t`. One [`Fenwick::lower_bound`] descent finds
    /// `s*`, the smallest slot count covering `K` live bytes; a boundary
    /// admits `s*` slots exactly when it is at or past the birth of slot
    /// `s* - 1`, so the answer is the first candidate at or after that
    /// birth time — the same suffix of fitting candidates the default scan
    /// walks to, located by binary search instead.
    fn oldest_boundary_within(
        &self,
        trace_max: Bytes,
        candidates: BoundaryCandidates<'_>,
    ) -> Option<VirtualTime> {
        // One call, one descent: the probe count is what distinguishes
        // this implementation from the default scan in telemetry.
        dtb_core::obs::note_inverse_query(1);
        let total = self.index.total();
        let budget = trace_max.as_u64();
        if total <= budget {
            // Every boundary fits, even one before the first birth.
            return candidates.first();
        }
        // Smallest count with prefix ≥ K, via largest count with
        // prefix ≤ K - 1 (K ≥ 1 here, and the count is ≤ len because
        // K ≤ total).
        let s_star = self.index.lower_bound(total - budget - 1) + 1;
        candidates.first_at_or_after(VirtualTime::from_bytes(self.births[s_star - 1]))
    }
}

impl SurvivalLender for OracleHeap {
    type Survival<'a> = SurvivalSnapshot<'a>;

    fn survival_view(&mut self, now: VirtualTime) -> SurvivalSnapshot<'_> {
        self.survival_snapshot(now)
    }
}

impl CheckpointHeap for OracleHeap {}

impl SimHeap for OracleHeap {
    fn with_capacity(n: usize) -> OracleHeap {
        OracleHeap::with_capacity(n)
    }

    fn insert(&mut self, obj: SimObject) {
        OracleHeap::insert(self, obj);
    }

    fn insert_block(&mut self, births: &[u64], sizes: &[u32], deaths: &[u64]) {
        OracleHeap::insert_block(self, births, sizes, deaths);
    }

    fn mem_in_use(&self) -> Bytes {
        OracleHeap::mem_in_use(self)
    }

    fn len(&self) -> usize {
        OracleHeap::len(self)
    }

    fn live_bytes_at(&mut self, at: VirtualTime) -> Bytes {
        OracleHeap::live_bytes_at(self, at)
    }

    fn scavenge(&mut self, tb: VirtualTime, now: VirtualTime) -> ScavengeOutcome {
        OracleHeap::scavenge(self, tb, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(birth: u64, size: u32, death: Option<u64>) -> SimObject {
        SimObject {
            birth: VirtualTime::from_bytes(birth),
            size,
            death: death.map(VirtualTime::from_bytes),
        }
    }

    fn t(v: u64) -> VirtualTime {
        VirtualTime::from_bytes(v)
    }

    #[test]
    fn insert_tracks_memory() {
        let mut h = OracleHeap::new();
        h.insert(obj(10, 100, None));
        h.insert(obj(20, 50, Some(30)));
        assert_eq!(h.mem_in_use(), Bytes::new(150));
        assert_eq!(h.len(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_insert_rejected() {
        let mut h = OracleHeap::new();
        h.insert(obj(20, 1, None));
        h.insert(obj(10, 1, None));
    }

    #[test]
    fn full_scavenge_reclaims_all_dead() {
        let mut h = OracleHeap::new();
        h.insert(obj(10, 100, None)); // live forever
        h.insert(obj(20, 50, Some(30))); // dead at 40
        h.insert(obj(35, 25, Some(100))); // still live at 40
        let out = h.scavenge(VirtualTime::ZERO, t(40));
        assert_eq!(out.traced, Bytes::new(125));
        assert_eq!(out.reclaimed, Bytes::new(50));
        assert_eq!(out.surviving, Bytes::new(125));
        assert_eq!(out.tenured_garbage, Bytes::ZERO);
        assert_eq!(h.mem_in_use(), Bytes::new(125));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn boundary_protects_dead_immune_objects() {
        let mut h = OracleHeap::new();
        h.insert(obj(10, 100, Some(15))); // dead, immune at tb=20
        h.insert(obj(20, 50, Some(25))); // dead, immune (birth == tb ⇒ immune)
        h.insert(obj(30, 25, Some(35))); // dead, threatened
        h.insert(obj(40, 10, None)); // live, threatened
        let out = h.scavenge(t(20), t(50));
        assert_eq!(out.traced, Bytes::new(10));
        assert_eq!(out.reclaimed, Bytes::new(25));
        // Dead-but-immune objects survive as tenured garbage.
        assert_eq!(out.tenured_garbage, Bytes::new(150));
        assert_eq!(out.surviving, Bytes::new(160));
        assert_eq!(h.mem_in_use(), Bytes::new(160));
    }

    #[test]
    fn untenuring_reclaims_previously_immune_garbage() {
        let mut h = OracleHeap::new();
        h.insert(obj(10, 100, Some(15)));
        h.insert(obj(20, 50, None));
        // First scavenge with a young-protecting boundary leaves garbage.
        let first = h.scavenge(t(15), t(25));
        assert_eq!(first.tenured_garbage, Bytes::new(100));
        assert_eq!(h.mem_in_use(), Bytes::new(150));
        // Second scavenge moves the boundary back — the DTB untenuring move.
        let second = h.scavenge(VirtualTime::ZERO, t(30));
        assert_eq!(second.reclaimed, Bytes::new(100));
        assert_eq!(second.tenured_garbage, Bytes::ZERO);
        assert_eq!(h.mem_in_use(), Bytes::new(50));
    }

    #[test]
    fn scavenge_accounting_invariant() {
        let mut h = OracleHeap::new();
        for i in 0..100u64 {
            h.insert(obj(
                (i + 1) * 10,
                8,
                if i % 3 == 0 { Some((i + 2) * 10) } else { None },
            ));
        }
        let before = h.mem_in_use();
        let out = h.scavenge(t(300), t(1000));
        assert_eq!(out.surviving + out.reclaimed, before);
    }

    #[test]
    fn survival_snapshot_matches_naive_query() {
        let mut h = OracleHeap::new();
        for i in 0..50u64 {
            h.insert(obj(
                (i + 1) * 7,
                (i % 13 + 1) as u32,
                if i % 2 == 0 {
                    Some((i + 1) * 7 + 40)
                } else {
                    None
                },
            ));
        }
        let now = t(200);
        // Expected answers from a plain filter over the inserted objects.
        let objects: Vec<SimObject> = (0..50u64)
            .map(|i| {
                obj(
                    (i + 1) * 7,
                    (i % 13 + 1) as u32,
                    (i % 2 == 0).then_some((i + 1) * 7 + 40),
                )
            })
            .collect();
        let queries = [0u64, 6, 7, 50, 111, 200, 350, 1000];
        let expected: Vec<u64> = queries
            .iter()
            .map(|&tb| {
                objects
                    .iter()
                    .filter(|o| o.birth > t(tb) && o.is_live_at(now))
                    .map(|o| o.size as u64)
                    .sum()
            })
            .collect();
        let snap = h.survival_snapshot(now);
        for (&tb, &want) in queries.iter().zip(&expected) {
            assert_eq!(
                snap.surviving_born_after(t(tb)),
                Bytes::new(want),
                "tb={tb}"
            );
        }
    }

    #[test]
    fn inverse_query_matches_default_scan() {
        use dtb_core::history::{ScavengeHistory, ScavengeRecord};

        let mut h = OracleHeap::new();
        for i in 0..60u64 {
            h.insert(obj(
                (i + 1) * 11,
                (i % 17 + 1) as u32,
                if i % 3 == 0 {
                    Some((i + 1) * 11 + 90)
                } else {
                    None
                },
            ));
        }
        let now = t(700);
        let history: ScavengeHistory = (1..=6)
            .map(|k| ScavengeRecord {
                at: t(k * 100),
                boundary: VirtualTime::ZERO,
                traced: Bytes::ZERO,
                surviving: Bytes::ZERO,
                reclaimed: Bytes::ZERO,
                mem_before: Bytes::ZERO,
            })
            .collect();
        let snap = h.survival_snapshot(now);
        for budget in [0u64, 1, 5, 17, 60, 150, 300, 100_000] {
            for from in [0u64, 150, 250, 450, 650, 900] {
                let candidates = history.candidates_at_or_after(t(from));
                // The default scan, evaluated against the same snapshot.
                let want = candidates
                    .times()
                    .find(|&c| snap.surviving_born_after(c) <= Bytes::new(budget));
                let got = snap.oldest_boundary_within(Bytes::new(budget), candidates);
                assert_eq!(got, want, "budget={budget} from={from}");
            }
        }
    }

    #[test]
    fn empty_heap_scavenge_is_noop() {
        let mut h = OracleHeap::new();
        let out = h.scavenge(VirtualTime::ZERO, t(10));
        assert_eq!(out, ScavengeOutcome::default());
        assert!(h.is_empty());
    }

    #[test]
    fn live_bytes_at_uses_oracle() {
        let mut h = OracleHeap::new();
        h.insert(obj(10, 100, Some(50)));
        h.insert(obj(20, 30, None));
        assert_eq!(h.live_bytes_at(t(40)), Bytes::new(130));
        assert_eq!(h.live_bytes_at(t(50)), Bytes::new(30));
    }

    #[test]
    fn insert_after_clock_advance_applies_past_death_immediately() {
        let mut h = OracleHeap::new();
        h.insert(obj(10, 100, None));
        assert_eq!(h.live_bytes_at(t(40)), Bytes::new(100));
        // Born at 40 and dead the same instant the clock already reached.
        h.insert(obj(40, 7, Some(40)));
        assert_eq!(h.live_bytes_at(t(40)), Bytes::new(100));
        assert_eq!(h.mem_in_use(), Bytes::new(107));
        let out = h.scavenge(VirtualTime::ZERO, t(40));
        assert_eq!(out.reclaimed, Bytes::new(7));
        assert_eq!(h.mem_in_use(), Bytes::new(100));
    }

    #[test]
    fn compaction_bounds_the_index_under_churn() {
        let mut h = OracleHeap::new();
        let mut clock = 0u64;
        let mut max_index = 0usize;
        // 8k short-lived objects, scavenged every 256 births: without
        // compaction the index would end at 8_000 slots.
        for i in 0..8_000u64 {
            clock += 16;
            h.insert(obj(clock, 16, Some(clock + 64)));
            if i % 256 == 255 {
                h.scavenge(VirtualTime::ZERO, t(clock));
                max_index = max_index.max(h.index_len());
            }
        }
        assert!(
            max_index <= 2 * COMPACT_MIN_SLOTS,
            "index grew to {max_index} slots under pure churn"
        );
        assert!(h.index_len() >= h.len());
    }

    #[test]
    fn compaction_preserves_every_observable() {
        // Mirror a churn-heavy run against a never-compacting twin and a
        // NaiveHeap; every query must agree bit-for-bit even though the
        // compacting heap rebases its slot space many times over.
        let mut fast = OracleHeap::new();
        let mut slow = naive::NaiveHeap::new();
        let mut clock = 0u64;
        let mut compactions = 0usize;
        for i in 0..6_000u64 {
            clock += i % 29 + 1;
            let o = obj(
                clock,
                (i % 61 + 1) as u32,
                // Mix: quick deaths, slow deaths, immortals.
                match i % 5 {
                    0 | 1 => Some(clock + i % 97 + 1),
                    2 | 3 => Some(clock + 3_000),
                    _ => None,
                },
            );
            fast.insert(o);
            slow.insert(o);
            if i % 100 == 99 {
                let now = t(clock);
                // Alternate deep and shallow boundaries to exercise both
                // tenuring and untenuring over the rebased slot space.
                let tb = if i % 200 == 99 {
                    t(clock.saturating_sub(2_000))
                } else {
                    VirtualTime::ZERO
                };
                assert_eq!(fast.live_bytes_at(now), slow.live_bytes_at(now), "i={i}");
                let before = fast.index_len();
                assert_eq!(fast.scavenge(tb, now), slow.scavenge(tb, now), "i={i}");
                if fast.index_len() < before {
                    compactions += 1;
                }
                assert_eq!(fast.mem_in_use(), slow.mem_in_use(), "i={i}");
                assert_eq!(fast.len(), slow.len(), "i={i}");
                let queries = [0u64, clock / 2, clock.saturating_sub(500), clock];
                let expect: Vec<Bytes> = {
                    let snap_slow = slow.survival_view(now);
                    queries
                        .iter()
                        .map(|&q| snap_slow.surviving_born_after(t(q)))
                        .collect()
                };
                let snap_fast = fast.survival_snapshot(now);
                for (&q, &want) in queries.iter().zip(&expect) {
                    assert_eq!(snap_fast.surviving_born_after(t(q)), want, "i={i} q={q}");
                }
            }
        }
        assert!(compactions > 0, "churn run never triggered a compaction");
    }

    #[test]
    fn insert_block_matches_per_object_inserts() {
        // Block inserts interleaved with clock advances and scavenges
        // must leave the heap observably identical to per-object inserts,
        // including already-past deaths inside a block and immortals.
        let mut block_heap = OracleHeap::new();
        let mut one_heap = OracleHeap::new();
        let mut clock = 0u64;
        for round in 0..40u64 {
            let mut births = Vec::new();
            let mut sizes = Vec::new();
            let mut deaths = Vec::new();
            for i in 0..(round % 7 + 1) * 9 {
                clock += i % 23 + 1;
                births.push(clock);
                sizes.push((i % 57 + 1) as u32);
                deaths.push(match i % 4 {
                    // Dies before the next query point (often before the
                    // heap clock even reaches it).
                    0 => clock + i % 5,
                    1 => clock + 2_000,
                    2 => clock.saturating_sub(0) + 1, // dies immediately after birth
                    _ => u64::MAX,
                });
            }
            block_heap.insert_block(&births, &sizes, &deaths);
            for i in 0..births.len() {
                one_heap.insert(SimObject {
                    birth: t(births[i]),
                    size: sizes[i],
                    death: (deaths[i] != u64::MAX).then(|| t(deaths[i])),
                });
            }
            let now = t(clock);
            assert_eq!(block_heap.mem_in_use(), one_heap.mem_in_use());
            assert_eq!(block_heap.live_bytes_at(now), one_heap.live_bytes_at(now));
            if round % 5 == 4 {
                let tb = t(clock.saturating_sub(1_500));
                assert_eq!(
                    block_heap.scavenge(tb, now),
                    one_heap.scavenge(tb, now),
                    "round={round}"
                );
                assert_eq!(block_heap.len(), one_heap.len());
                for q in [0, clock / 3, clock / 2, clock.saturating_sub(700), clock] {
                    let a = block_heap.survival_snapshot(now).surviving_born_after(t(q));
                    let b = one_heap.survival_snapshot(now).surviving_born_after(t(q));
                    assert_eq!(a, b, "round={round} q={q}");
                }
            }
        }
    }

    #[test]
    fn matches_naive_heap_on_interleaved_operations() {
        let mut fast = OracleHeap::new();
        let mut slow = naive::NaiveHeap::new();
        let mut clock = 0u64;
        for i in 0..400u64 {
            clock += i % 17 + 1;
            let o = obj(
                clock,
                (i % 97 + 1) as u32,
                if i % 3 != 2 {
                    Some(clock + (i % 13) * 50)
                } else {
                    None
                },
            );
            fast.insert(o);
            slow.insert(o);
            if i % 40 == 39 {
                let now = t(clock);
                let tb = t(clock.saturating_sub(300));
                assert_eq!(fast.live_bytes_at(now), slow.live_bytes_at(now), "i={i}");
                assert_eq!(fast.scavenge(tb, now), slow.scavenge(tb, now), "i={i}");
                assert_eq!(fast.mem_in_use(), slow.mem_in_use(), "i={i}");
                assert_eq!(fast.len(), slow.len(), "i={i}");
            }
        }
    }

    /// A boundary schedule per lane, as a function of the lane's own
    /// scavenge count and clock: FULL, FIXED1-like, and one that swings
    /// back and forth (tenuring, then untenuring).
    fn lane_boundary(lane: usize, k: u64, clock: u64, prev: u64) -> VirtualTime {
        match lane {
            0 => VirtualTime::ZERO,
            1 => t(prev),
            _ if k % 3 == 2 => t(clock / 4),
            _ => t(clock.saturating_sub(1_500)),
        }
    }

    #[test]
    fn lanes_match_independent_naive_heaps() {
        // Three lanes over one shared index, each scavenging on its own
        // schedule (so cursors, tenured sets and the log trim diverge),
        // against one NaiveHeap per lane. Churn forces compactions.
        let lanes = 3;
        let mut shared = OracleHeap::with_lanes(lanes, 0);
        let mut naive: Vec<naive::NaiveHeap> =
            (0..lanes).map(|_| naive::NaiveHeap::new()).collect();
        let mut prev = vec![0u64; lanes];
        let mut count = vec![0u64; lanes];
        let mut clock = 0u64;
        let mut compactions = 0usize;
        for i in 0..9_000u64 {
            clock += i % 31 + 1;
            let o = obj(
                clock,
                (i % 53 + 1) as u32,
                match i % 6 {
                    0..=2 => Some(clock + i % 89 + 1),
                    3 | 4 => Some(clock + 2_500),
                    _ => None,
                },
            );
            shared.insert(o);
            for h in &mut naive {
                h.insert(o);
            }
            for lane in 0..lanes {
                if i % (60 + 25 * lane as u64) != 59 {
                    continue;
                }
                let now = t(clock);
                let tb = lane_boundary(lane, count[lane], clock, prev[lane]);
                let before = shared.index_len();
                let got = shared.scavenge_lane(lane, tb, now);
                if shared.index_len() < before {
                    compactions += 1;
                }
                let want = naive[lane].scavenge(tb, now);
                assert_eq!(got, want, "lane={lane} i={i}");
                prev[lane] = clock;
                count[lane] += 1;
                for (k, h) in naive.iter().enumerate() {
                    assert_eq!(shared.lane_mem_in_use(k), h.mem_in_use(), "lane={k} i={i}");
                    assert_eq!(shared.lane_len(k), h.len(), "lane={k} i={i}");
                }
                let q = [0, clock / 2, clock.saturating_sub(900)];
                let want: Vec<Bytes> = {
                    let view = naive[lane].survival_view(now);
                    q.iter().map(|&q| view.surviving_born_after(t(q))).collect()
                };
                let view = shared.survival_snapshot(now);
                for (&q, &w) in q.iter().zip(&want) {
                    assert_eq!(view.surviving_born_after(t(q)), w, "q={q} i={i}");
                }
            }
        }
        assert!(compactions > 0, "churn run never triggered a compaction");
        assert!(count.iter().all(|&c| c > 10));
    }

    #[test]
    fn a_retired_lane_stops_holding_the_log() {
        let mut h = OracleHeap::with_lanes(2, 0);
        for i in 0..100u64 {
            h.insert(obj((i + 1) * 10, 8, Some((i + 1) * 10 + 5)));
        }
        h.scavenge_lane(0, VirtualTime::ZERO, t(2_000));
        // Lane 1 has not classified the deaths yet, so they stay logged.
        assert_eq!(h.log.len(), 100);
        h.retire_lane(1);
        assert_eq!(h.log.len(), 0);
        h.insert(obj(2_010, 8, Some(2_011)));
        h.scavenge_lane(0, VirtualTime::ZERO, t(2_020));
        assert_eq!(h.log.len(), 0);
        assert_eq!(h.lane_mem_in_use(0), Bytes::ZERO);
    }
}
