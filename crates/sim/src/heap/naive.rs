//! The scan-based reference heap: the pre-incremental `OracleHeap`.
//!
//! [`NaiveHeap`] is the original O(heap)-per-scavenge implementation,
//! kept verbatim as an executable specification. Every operation is a
//! plain filter or scan over the object vector, so its answers are easy
//! to audit; the differential property suite
//! (`crates/sim/tests/heap_differential.rs`) replays random traces
//! through both heaps and asserts scavenge-for-scavenge identical
//! outcomes, reports, and curves. It also serves as the "pre-PR engine"
//! baseline in the `bench_dtb` perf harness.

use super::{ScavengeOutcome, SimHeap, SimObject};
use dtb_core::policy::{SurvivalEstimator, SurvivalLender};
use dtb_core::time::{Bytes, VirtualTime};

/// Birth-ordered heap answering every query by scanning.
#[derive(Clone, Debug, Default)]
pub struct NaiveHeap {
    objects: Vec<SimObject>,
    mem_in_use: Bytes,
}

impl NaiveHeap {
    /// Creates an empty heap.
    pub fn new() -> NaiveHeap {
        NaiveHeap::default()
    }

    /// Inserts a newly allocated object.
    pub fn insert(&mut self, obj: SimObject) {
        if let Some(last) = self.objects.last() {
            debug_assert!(
                obj.birth > last.birth,
                "births must be strictly increasing: {:?} after {:?}",
                obj.birth,
                last.birth
            );
        }
        self.mem_in_use += Bytes::new(obj.size as u64);
        self.objects.push(obj);
    }

    /// Bytes currently occupying memory (live + unreclaimed garbage).
    pub fn mem_in_use(&self) -> Bytes {
        self.mem_in_use
    }

    /// Number of objects currently in the heap.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the heap holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Exact live bytes at time `at`, by full scan (O(n)).
    pub fn live_bytes_at(&self, at: VirtualTime) -> Bytes {
        self.objects
            .iter()
            .filter(|o| o.is_live_at(at))
            .map(|o| Bytes::new(o.size as u64))
            .sum()
    }

    /// Index of the first object born strictly after `tb`.
    fn boundary_index(&self, tb: VirtualTime) -> usize {
        self.objects.partition_point(|o| o.birth <= tb)
    }

    /// Performs a scavenge by partitioning the threatened tail and
    /// rescanning the immune prefix for tenured garbage (O(heap)).
    pub fn scavenge(&mut self, tb: VirtualTime, now: VirtualTime) -> ScavengeOutcome {
        let split = self.boundary_index(tb);
        let mut traced = Bytes::ZERO;
        let mut reclaimed = Bytes::ZERO;

        // Partition the threatened tail in place: survivors stay, dead are
        // dropped. Objects keep their birth order.
        let mut write = split;
        for read in split..self.objects.len() {
            let obj = self.objects[read];
            if obj.is_live_at(now) {
                traced += Bytes::new(obj.size as u64);
                self.objects[write] = obj;
                write += 1;
            } else {
                reclaimed += Bytes::new(obj.size as u64);
            }
        }
        self.objects.truncate(write);

        let tenured_garbage: Bytes = self.objects[..split]
            .iter()
            .filter(|o| !o.is_live_at(now))
            .map(|o| Bytes::new(o.size as u64))
            .sum();

        self.mem_in_use = self.mem_in_use.saturating_sub(reclaimed);
        ScavengeOutcome {
            traced,
            reclaimed,
            surviving: self.mem_in_use,
            tenured_garbage,
        }
    }

    /// Builds an owned survival snapshot at time `now`: two freshly
    /// allocated heap-sized vectors (the cost the incremental heap's
    /// borrowed snapshot eliminates).
    pub fn survival_snapshot(&self, now: VirtualTime) -> NaiveSnapshot {
        // Suffix sums of live sizes, aligned with `objects`.
        let mut suffix = vec![0u64; self.objects.len() + 1];
        for (i, o) in self.objects.iter().enumerate().rev() {
            suffix[i] = suffix[i + 1] + if o.is_live_at(now) { o.size as u64 } else { 0 };
        }
        NaiveSnapshot {
            births: self.objects.iter().map(|o| o.birth).collect(),
            live_suffix: suffix,
        }
    }

    /// Read-only view of the heap contents (tests).
    pub fn objects(&self) -> &[SimObject] {
        &self.objects
    }
}

/// An owned "live bytes born after `tb`" oracle, materialized by copying
/// the heap at one scavenge decision point.
#[derive(Clone, Debug)]
pub struct NaiveSnapshot {
    births: Vec<VirtualTime>,
    live_suffix: Vec<u64>,
}

impl SurvivalEstimator for NaiveSnapshot {
    fn surviving_born_after(&self, tb: VirtualTime) -> Bytes {
        let idx = self.births.partition_point(|b| *b <= tb);
        Bytes::new(self.live_suffix[idx])
    }
}

impl SurvivalLender for NaiveHeap {
    type Survival<'a> = NaiveSnapshot;

    fn survival_view(&mut self, now: VirtualTime) -> NaiveSnapshot {
        self.survival_snapshot(now)
    }
}

impl SimHeap for NaiveHeap {
    fn with_capacity(n: usize) -> NaiveHeap {
        NaiveHeap {
            objects: Vec::with_capacity(n),
            mem_in_use: Bytes::ZERO,
        }
    }

    fn insert(&mut self, obj: SimObject) {
        NaiveHeap::insert(self, obj);
    }

    fn mem_in_use(&self) -> Bytes {
        NaiveHeap::mem_in_use(self)
    }

    fn len(&self) -> usize {
        NaiveHeap::len(self)
    }

    fn live_bytes_at(&mut self, at: VirtualTime) -> Bytes {
        NaiveHeap::live_bytes_at(self, at)
    }

    fn scavenge(&mut self, tb: VirtualTime, now: VirtualTime) -> ScavengeOutcome {
        NaiveHeap::scavenge(self, tb, now)
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
    fn boundary_protects_dead_immune_objects() {
        let mut h = NaiveHeap::new();
        h.insert(obj(10, 100, Some(15))); // dead, immune at tb=20
        h.insert(obj(20, 50, Some(25))); // dead, immune (birth == tb ⇒ immune)
        h.insert(obj(30, 25, Some(35))); // dead, threatened
        h.insert(obj(40, 10, None)); // live, threatened
        let out = h.scavenge(t(20), t(50));
        assert_eq!(out.traced, Bytes::new(10));
        assert_eq!(out.reclaimed, Bytes::new(25));
        assert_eq!(out.tenured_garbage, Bytes::new(150));
        assert_eq!(out.surviving, Bytes::new(160));
        assert_eq!(h.mem_in_use(), Bytes::new(160));
    }

    #[test]
    fn snapshot_matches_filter() {
        let mut h = NaiveHeap::new();
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
        let snap = h.survival_snapshot(now);
        for tb in [0u64, 6, 7, 50, 111, 200, 350, 1000] {
            let naive: u64 = h
                .objects()
                .iter()
                .filter(|o| o.birth > t(tb) && o.is_live_at(now))
                .map(|o| o.size as u64)
                .sum();
            assert_eq!(
                snap.surviving_born_after(t(tb)),
                Bytes::new(naive),
                "tb={tb}"
            );
        }
    }
}
