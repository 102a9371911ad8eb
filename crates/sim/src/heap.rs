//! The oracle heap: the simulated collector's view of storage.
//!
//! The heap holds every object that has been allocated and not yet
//! *reclaimed*. Because this is a garbage-collected world, a `Free` event
//! in the trace does not release memory — it only records the moment the
//! object became unreachable (the lifetime oracle). Memory in use only
//! drops when a scavenge reclaims unreachable threatened objects.
//!
//! # Incremental indices
//!
//! [`OracleHeap`] maintains its aggregates incrementally instead of
//! rescanning the object vector per query:
//!
//! - Every object ever born gets a **global slot** — its position in
//!   birth order over the whole run, never reused. `births` maps slots to
//!   birth times and is append-only, so any boundary `tb` resolves to a
//!   slot split point with one binary search.
//! - One **paired** [Fenwick tree](dtb_core::fenwick) over global
//!   slots partitions the bytes still occupying memory into
//!   `[live, dead]` components per node: live bytes belong to objects
//!   whose oracle death lies in the future, dead bytes are
//!   dead-but-unreclaimed. A death moves bytes from live to dead in a
//!   *single* tree walk ([`PairedFenwick::move_to_dead_many`] — one
//!   16-byte node pair per level instead of two disjoint trees); a
//!   reclaim removes them from the dead component. Boundary aggregates
//!   (traced, reclaimed, tenured garbage, survival) are prefix/suffix
//!   sums, O(log n) each, and one paired descent answers both
//!   components.
//! - Deaths are applied **lazily**, and in two stages. Inserts do no
//!   death bookkeeping at all: the struct-of-arrays resident columns
//!   already hold each new object's death time, so the rows appended
//!   since the last clock advance form a *staged suffix* marked by one
//!   watermark. The next clock advance (a scavenge or an oracle query)
//!   scans that suffix once: deaths already in the past are applied
//!   directly — the live→dead moves commute, so order within a batch is
//!   irrelevant — and only the stragglers whose deaths still lie in the
//!   future enter a small unordered pending set, drained by a linear
//!   sweep (guarded by its cached minimum death) when their time comes.
//!   Since most objects die before the scavenge after their birth, the
//!   common case never touches the pending set at all, and each object
//!   is examined exactly once.
//!
//! A scavenge therefore costs O(dead tail + log n): the Fenwick sums
//! answer the byte accounting, and the compaction walk is *narrowed* to
//! the slot range that actually holds dead bytes — two descents of the
//! dead component ([`PairedFenwick::lower_bound_dead`]) bracket the
//! first and last unreclaimed dead slots, the walk filters only
//! residents between them, and the all-live tail beyond the last dead
//! slot moves left with one `memmove`. A deep boundary (`FULL`, `DTBMEM`) no longer pays to
//! re-inspect thousands of live survivors that merely sit above the
//! split. Nothing on the scavenge path allocates; survival snapshots are
//! borrowed views into the live index rather than freshly built vectors
//! (see `crates/sim/tests/zero_alloc.rs`).
//!
//! Slots are nominally never reused, but a long-running trace would then
//! grow the index with every object ever born even though almost all of
//! them are long reclaimed. After a scavenge, once reclaimed slots
//! outnumber residents 2:1 (and the index tops a 1024-slot floor), the
//! heap **rebases** the slot space onto the residents in place —
//! reclaimed slots hold zero bytes in both trees, so every aggregate is
//! preserved bit-for-bit while index memory stays proportional to the
//! resident set. This is what keeps a streaming
//! [`EventSource`](dtb_trace::EventSource) run in O(live set) memory.
//!
//! The original scan-based implementation survives as
//! [`naive::NaiveHeap`], the executable specification the differential
//! suite checks this heap against.

pub mod naive;

use dtb_core::fenwick::PairedFenwick;
use dtb_core::history::BoundaryCandidates;
use dtb_core::policy::{SurvivalEstimator, SurvivalLender};
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

/// Birth-ordered heap with an exact lifetime oracle, maintained
/// incrementally (see the module docs for the index design).
#[derive(Clone, Debug)]
pub struct OracleHeap {
    /// Birth time per global slot (allocation-clock bytes), append-only.
    /// Stored as raw `u64` so block inserts append with one `memcpy`
    /// straight from the event source's birth column.
    births: Vec<u64>,
    /// Live and dead-but-unreclaimed bytes per global slot, as one paired
    /// index: a death moves bytes live→dead in a single tree walk, and a
    /// scavenge's full byte accounting is one paired prefix descent.
    index: PairedFenwick,
    /// Future deaths awaiting application: `(death, slot, size)`,
    /// unordered. Only populated from the staged suffix at clock
    /// advances, and only with deaths that are still in the future then —
    /// which keeps the set small (objects outliving the scavenge after
    /// their birth), so draining it is one linear sweep instead of
    /// per-entry priority-queue traffic. Live→dead moves commute, so the
    /// sweep's arbitrary order leaves every aggregate bit-identical.
    pending: Vec<(u64, u32, u32)>,
    /// Smallest death time in `pending` (`NO_DEATH` when empty): lets an
    /// advance skip the sweep entirely while no pending death has come
    /// due.
    pending_min: u64,
    /// Watermark into the `present_*` columns: rows at or above it were
    /// appended since the last clock advance and have not had their death
    /// examined yet (the staged suffix of the module docs' two-stage
    /// lazy-death design). Rows below it are immortal, already moved to
    /// the dead component, or sitting in `pending`.
    staged_lo: usize,
    /// Global slot per object still occupying memory, ordered by slot.
    /// The three `present_*` vectors are parallel struct-of-arrays
    /// columns: keeping sizes and deaths in their own flat arrays is what
    /// lets the scavenge walk's dead-byte pass autovectorize
    /// ([`dtb_core::soa::dead_tail_stats`]).
    present_slots: Vec<u32>,
    /// Size in bytes per present object (parallel to `present_slots`).
    present_sizes: Vec<u32>,
    /// Oracle death time per present object ([`NO_DEATH`] = immortal;
    /// parallel to `present_slots`).
    present_deaths: Vec<u64>,
    /// Reusable slot batch for the batched
    /// [`PairedFenwick::move_to_dead_many`] /
    /// [`PairedFenwick::sub_dead_many`] updates (death application,
    /// scavenge removals). Warm-up sizes it; steady state never
    /// reallocates.
    scratch_slots: Vec<u32>,
    /// Byte deltas paired with `scratch_slots`.
    scratch_deltas: Vec<u64>,
    /// High-water mark of query time: every death `<= clock` has been
    /// moved from `live` to `dead`.
    clock: VirtualTime,
}

impl Default for OracleHeap {
    fn default() -> OracleHeap {
        OracleHeap::with_capacity(0)
    }
}

impl OracleHeap {
    /// Creates an empty heap.
    pub fn new() -> OracleHeap {
        OracleHeap::default()
    }

    /// Creates an empty heap with index capacity for `n` objects.
    pub fn with_capacity(n: usize) -> OracleHeap {
        OracleHeap {
            births: Vec::with_capacity(n),
            index: PairedFenwick::with_capacity(n),
            pending: Vec::new(),
            pending_min: NO_DEATH,
            staged_lo: 0,
            present_slots: Vec::with_capacity(n),
            present_sizes: Vec::with_capacity(n),
            present_deaths: Vec::with_capacity(n),
            scratch_slots: Vec::new(),
            scratch_deltas: Vec::new(),
            clock: VirtualTime::ZERO,
        }
    }

    /// Inserts a newly allocated object.
    ///
    /// Births must arrive strictly increasing (the trace drives
    /// insertions in allocation order), and sizes must be nonzero (the
    /// trace layer rejects zero-sized allocations as
    /// [`TraceError::ZeroSizedAlloc`](dtb_trace::event::TraceError::ZeroSizedAlloc);
    /// the scavenge walk relies on every dead resident being visible to
    /// the byte indices). Violations panic in debug builds.
    pub fn insert(&mut self, obj: SimObject) {
        if let Some(&last) = self.births.last() {
            debug_assert!(
                obj.birth.as_u64() > last,
                "births must be strictly increasing: {:?} after {last}",
                obj.birth,
            );
        }
        debug_assert!(obj.size > 0, "zero-sized objects are rejected upstream");
        let slot = self.births.len();
        debug_assert!(slot <= u32::MAX as usize, "slot index exceeds u32");
        let slot = slot as u32;
        self.births.push(obj.birth.as_u64());
        self.index.push(obj.size as u64, 0);
        self.present_slots.push(slot);
        self.present_sizes.push(obj.size);
        self.present_deaths
            .push(obj.death.map_or(NO_DEATH, VirtualTime::as_u64));
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
    /// the index appends become bulk [`PairedFenwick::extend_live`]
    /// builds and any already-past deaths apply as one batched update.
    /// The block engine's fast path feeds validated columns straight
    /// from the event source.
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
        let base = self.births.len();
        debug_assert!(
            base + births.len() <= u32::MAX as usize + 1,
            "slot index exceeds u32"
        );
        self.births.extend_from_slice(births);
        self.index.extend_live(sizes.iter().map(|&s| s as u64));
        self.present_slots
            .extend((base..base + births.len()).map(|s| s as u32));
        self.present_sizes.extend_from_slice(sizes);
        self.present_deaths.extend_from_slice(deaths);
        // Death bookkeeping is deferred wholesale: the appended rows are
        // the staged suffix, examined once by the next clock advance.
    }

    /// Moves every death at or before `now` from the live index to the
    /// dead index. Amortized O(log n) per object over the whole run —
    /// and O(1) heap traffic for the (typical) object whose death has
    /// already passed by the first clock advance after its birth.
    fn advance_clock(&mut self, now: VirtualTime) {
        let n = self.present_deaths.len();
        let advanced = now > self.clock;
        if !advanced && self.staged_lo >= n {
            return;
        }
        if advanced {
            self.clock = now;
        }
        let now_u = self.clock.as_u64();
        // Scan the staged suffix first — one pass over the resident
        // columns appended since the last drain. Deaths already at or
        // before `now` apply directly (live→dead moves on distinct slots
        // commute, so the unordered batch is equivalent to sorted
        // application); only future deaths enter the priority queue. Both
        // drains accumulate into one slot/delta batch so the paired tree
        // walks run back to back over hot cache lines instead of
        // interleaving with heap pops. Note the scan runs even when the
        // clock does not move: a freshly inserted object may already be
        // past its death on the lazy clock (one can die the instant it is
        // born) and must reach the dead component before any query.
        self.scratch_slots.clear();
        self.scratch_deltas.clear();
        for i in self.staged_lo..n {
            let d = self.present_deaths[i];
            if d == NO_DEATH {
                continue;
            }
            let slot = self.present_slots[i];
            let size = self.present_sizes[i];
            if d <= now_u {
                self.scratch_slots.push(slot);
                self.scratch_deltas.push(size as u64);
            } else {
                self.pending.push((d, slot, size));
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
            self.index
                .move_to_dead_many(&self.scratch_slots, &self.scratch_deltas);
        }
    }

    /// Bytes currently occupying memory (live + unreclaimed garbage).
    pub fn mem_in_use(&self) -> Bytes {
        // Deaths only move bytes between the two components, so the sum
        // is exact regardless of how far the lazy clock has advanced.
        Bytes::new(self.index.live_total() + self.index.dead_total())
    }

    /// Number of objects currently in the heap.
    pub fn len(&self) -> usize {
        self.present_slots.len()
    }

    /// True when the heap holds no objects.
    pub fn is_empty(&self) -> bool {
        self.present_slots.is_empty()
    }

    /// Exact live bytes at time `at` (oracle knowledge), O(deaths since
    /// the last query).
    ///
    /// Query times must be monotonically non-decreasing across
    /// [`OracleHeap::live_bytes_at`], [`OracleHeap::scavenge`], and
    /// [`OracleHeap::survival_snapshot`].
    pub fn live_bytes_at(&mut self, at: VirtualTime) -> Bytes {
        self.advance_clock(at);
        Bytes::new(self.index.live_total())
    }

    /// First global slot born strictly after `tb`.
    fn boundary_slot(&self, tb: VirtualTime) -> usize {
        let tb = tb.as_u64();
        self.births.partition_point(|&b| b <= tb)
    }

    /// Performs a scavenge at time `now` with threatening boundary `tb`:
    /// traces live threatened objects, reclaims dead threatened objects,
    /// and leaves immune objects untouched.
    ///
    /// Byte accounting is answered by the Fenwick indices in O(log n);
    /// only the compaction of the dead threatened residents walks
    /// objects, so the whole call is O(dead tail + log n) and performs no
    /// heap allocation. Returns the outcome; afterwards
    /// [`OracleHeap::mem_in_use`] reflects the surviving storage.
    pub fn scavenge(&mut self, tb: VirtualTime, now: VirtualTime) -> ScavengeOutcome {
        self.advance_clock(now);
        let split = self.boundary_slot(tb);
        // One paired descent answers the whole byte accounting: the
        // threatened live suffix (traced), the threatened dead suffix
        // (reclaimed), and the immune dead prefix (tenured garbage).
        let immune = self.index.prefix_pair(split);
        let traced = Bytes::new(self.index.live_total() - immune[0]);
        let reclaimed = Bytes::new(self.index.dead_total() - immune[1]);
        let tenured_garbage = Bytes::new(immune[1]);

        // Compact the threatened residents in place: survivors stay (in
        // slot order), dead objects leave the dead index and the heap.
        // The walk is narrowed to the slot range that actually holds
        // threatened dead bytes — every resident (sizes are nonzero)
        // outside it is live or immune and keeps its position, except the
        // all-live tail beyond the last dead slot, which shifts left in
        // one move. With nothing to reclaim the walk vanishes entirely,
        // which is what lets a deep boundary (`FULL`, `DTBMEM`) scavenge
        // without re-inspecting its thousands of live survivors.
        if !reclaimed.is_zero() {
            // First threatened slot holding dead bytes: descend to the
            // largest count whose dead-prefix is still ≤ the immune
            // prefix. Likewise the last dead slot overall (it is ≥ split
            // because `dead.suffix(split) > 0`).
            let first_dead = self.index.lower_bound_dead(immune[1]);
            let last_dead = self.index.lower_bound_dead(self.index.dead_total() - 1);
            debug_assert!(first_dead >= split);
            let lo = self
                .present_slots
                .partition_point(|&s| (s as usize) < first_dead);
            let hi = self
                .present_slots
                .partition_point(|&s| (s as usize) <= last_dead);
            let now_u = now.as_u64();
            // Pass 1: one branch-free sweep over the death/size columns
            // answers how much of the narrowed range is dead — it must be
            // exactly the reclaimed suffix — and whether the whole range
            // can be removed wholesale.
            let (walk_dead, dead_count) = dtb_core::soa::dead_tail_stats(
                &self.present_deaths[lo..hi],
                &self.present_sizes[lo..hi],
                now_u,
            );
            debug_assert_eq!(walk_dead, reclaimed.as_u64());
            // Pass 2: collect the dead slots (for one batched dead-index
            // update) and compact the survivors in place.
            self.scratch_slots.clear();
            self.scratch_deltas.clear();
            if dead_count == hi - lo {
                // The whole range is dead — no per-resident filtering.
                self.scratch_slots
                    .extend_from_slice(&self.present_slots[lo..hi]);
                self.scratch_deltas
                    .extend(self.present_sizes[lo..hi].iter().map(|&s| s as u64));
                self.present_slots.drain(lo..hi);
                self.present_sizes.drain(lo..hi);
                self.present_deaths.drain(lo..hi);
            } else {
                let mut write = lo;
                for read in lo..hi {
                    let d = self.present_deaths[read];
                    if d <= now_u {
                        self.scratch_slots.push(self.present_slots[read]);
                        self.scratch_deltas.push(self.present_sizes[read] as u64);
                    } else {
                        self.present_slots[write] = self.present_slots[read];
                        self.present_sizes[write] = self.present_sizes[read];
                        self.present_deaths[write] = d;
                        write += 1;
                    }
                }
                if write < hi {
                    let removed = hi - write;
                    let len = self.present_slots.len() - removed;
                    self.present_slots.copy_within(hi.., write);
                    self.present_sizes.copy_within(hi.., write);
                    self.present_deaths.copy_within(hi.., write);
                    self.present_slots.truncate(len);
                    self.present_sizes.truncate(len);
                    self.present_deaths.truncate(len);
                }
            }
            self.index
                .sub_dead_many(&self.scratch_slots, &self.scratch_deltas);
            // The advance above examined every staged row; the removals
            // only shrank the columns, so the watermark follows the end.
            self.staged_lo = self.present_slots.len();
        }

        debug_assert_eq!(
            self.index.suffix_pair(split)[1],
            0,
            "all threatened dead reclaimed"
        );
        debug_assert!(
            self.present_slots
                .iter()
                .zip(&self.present_deaths)
                .all(|(&s, &d)| (s as usize) < split || d > now.as_u64()),
            "no dead threatened resident left behind"
        );
        let outcome = ScavengeOutcome {
            traced,
            reclaimed,
            surviving: self.mem_in_use(),
            tenured_garbage,
        };
        // Dead-prefix compaction: once reclaimed slots dominate the index,
        // rebase it onto the residents so index memory tracks the
        // *resident* set instead of every object ever born — the property
        // that lets a streaming source run in O(live set) memory.
        if self.births.len() >= COMPACT_MIN_SLOTS.max(2 * self.present_slots.len()) {
            self.compact();
        }
        outcome
    }

    /// Rebases the slot space onto the surviving residents, discarding
    /// slots of reclaimed objects.
    ///
    /// Every observable is preserved bit-for-bit: reclaimed slots hold
    /// zero bytes in both Fenwick trees, so dropping their births shifts
    /// every `partition_point` split without changing any prefix/suffix
    /// sum. The rebuild reuses the existing buffers (`clear` keeps
    /// capacity; the birth copy moves entries strictly forward), so the
    /// scavenge path stays allocation-free (see
    /// `crates/sim/tests/zero_alloc.rs`).
    fn compact(&mut self) {
        let n = self.present_slots.len();
        // Scavenge advanced the clock, which drained the staged suffix.
        debug_assert_eq!(self.staged_lo, n, "compaction with staged deaths");
        self.pending.clear();
        self.pending_min = NO_DEATH;
        let clock = self.clock.as_u64();
        for new_slot in 0..n {
            let old_slot = self.present_slots[new_slot];
            let size = self.present_sizes[new_slot];
            let death = self.present_deaths[new_slot];
            // Residents are slot-ordered, so `new_slot <= old_slot` and
            // the in-place copy never reads an already-overwritten entry.
            self.births[new_slot] = self.births[old_slot as usize];
            self.present_slots[new_slot] = new_slot as u32;
            // A resident past its death is dead-but-immune (tenured
            // garbage) and carries no pending entry; only future mortals
            // re-enter the pending set.
            if death > clock && death != NO_DEATH {
                self.pending.push((death, new_slot as u32, size));
                self.pending_min = self.pending_min.min(death);
            }
        }
        self.births.truncate(n);
        // One bulk bottom-up build replaces a per-resident push descent;
        // dead-but-immune bytes land in the dead component, everything
        // else in the live component, exactly as incremental maintenance
        // left them.
        let index = &mut self.index;
        let sizes = &self.present_sizes[..n];
        let deaths = &self.present_deaths[..n];
        index.rebuild_pairs(sizes.iter().zip(deaths).map(|(&size, &death)| {
            if death <= clock {
                [0, size as u64]
            } else {
                [size as u64, 0]
            }
        }));
    }

    /// Number of slots in the heap's index (≥ [`OracleHeap::len`];
    /// bounded by compaction, see [`OracleHeap::scavenge`]).
    pub fn index_len(&self) -> usize {
        self.births.len()
    }

    /// Borrows a survival snapshot for policy boundary decisions at time
    /// `now`: answers "how much live storage was born after `tb`" in
    /// O(log n) per query, without allocating.
    pub fn survival_snapshot(&mut self, now: VirtualTime) -> SurvivalSnapshot<'_> {
        self.advance_clock(now);
        SurvivalSnapshot {
            births: &self.births,
            index: &self.index,
        }
    }

    /// Iterates the objects still in the heap, in birth order (tests).
    pub fn iter_objects(&self) -> impl ExactSizeIterator<Item = SimObject> + '_ {
        self.present_slots
            .iter()
            .zip(&self.present_sizes)
            .zip(&self.present_deaths)
            .map(|((&slot, &size), &death)| SimObject {
                birth: VirtualTime::from_bytes(self.births[slot as usize]),
                size,
                death: (death != NO_DEATH).then(|| VirtualTime::from_bytes(death)),
            })
    }
}

/// An O(log n) oracle for "live bytes born after `tb`", borrowed from the
/// heap's live index at one scavenge decision point. Construction is
/// allocation-free — the view reads the incrementally maintained index
/// directly.
#[derive(Clone, Copy, Debug)]
pub struct SurvivalSnapshot<'a> {
    births: &'a [u64],
    index: &'a PairedFenwick,
}

impl SurvivalEstimator for SurvivalSnapshot<'_> {
    fn surviving_born_after(&self, tb: VirtualTime) -> Bytes {
        let tb = tb.as_u64();
        let idx = self.births.partition_point(|&b| b <= tb);
        Bytes::new(self.index.suffix_pair(idx)[0])
    }

    /// The inverse query as a single descent of the live-bytes Fenwick
    /// tree: O(log n) total, instead of the default's one O(log n)
    /// survival probe per candidate.
    ///
    /// A boundary `t` fits iff `live.suffix(slots born ≤ t) <= trace_max`,
    /// i.e. iff at least `K = live.total() - trace_max` live bytes were
    /// born at or before `t`. One [`PairedFenwick::lower_bound_live`]
    /// descent finds `s*`, the smallest slot count covering `K` live
    /// bytes; a boundary admits `s*` slots exactly when it is at or past
    /// the birth of slot `s* - 1`, so the answer is the first candidate
    /// at or after that birth time — the same suffix of fitting
    /// candidates the default scan walks to, located by binary search
    /// instead.
    fn oldest_boundary_within(
        &self,
        trace_max: Bytes,
        candidates: BoundaryCandidates<'_>,
    ) -> Option<VirtualTime> {
        // One call, one descent: the probe count is what distinguishes
        // this implementation from the default scan in telemetry.
        dtb_core::obs::note_inverse_query(1);
        let total = self.index.live_total();
        let budget = trace_max.as_u64();
        if total <= budget {
            // Every boundary fits, even one before the first birth.
            return candidates.first();
        }
        // Smallest count with prefix ≥ K, via largest count with
        // prefix ≤ K - 1 (K ≥ 1 here, and the count is ≤ len because
        // K ≤ total).
        let s_star = self.index.lower_bound_live(total - budget - 1) + 1;
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
        // Expected answers from a plain filter, computed before the
        // snapshot borrows the heap.
        let queries = [0u64, 6, 7, 50, 111, 200, 350, 1000];
        let expected: Vec<u64> = queries
            .iter()
            .map(|&tb| {
                h.iter_objects()
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
                let a: Vec<SimObject> = block_heap.iter_objects().collect();
                let b: Vec<SimObject> = one_heap.iter_objects().collect();
                assert_eq!(a, b, "round={round}");
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
}
