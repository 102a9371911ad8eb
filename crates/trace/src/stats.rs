//! Workload statistics: the data behind Tables 5 and 6 and the `LIVE` /
//! `No GC` rows of Table 2.

use crate::event::CompiledTrace;
use crate::source::{CompiledSource, EventBlock, EventSource, SourceError, DEFAULT_BLOCK_EVENTS};
use dtb_core::stats::WeightedStats;
use dtb_core::time::Bytes;
use serde::{Deserialize, Serialize};

/// Summary statistics of one workload trace.
///
/// * `live_*` corresponds to Table 2's `LIVE` row: the exact number of
///   reachable bytes over time (allocation-weighted mean, and max);
/// * `nogc_*` corresponds to Table 2's `No GC` row: memory used when
///   nothing is ever reclaimed, which is simply the allocation clock
///   itself (mean = total/2 exactly for a linear ramp);
/// * the allocation rate and collection count reproduce Table 6's columns
///   under the paper's 1 MB collection trigger.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Workload name.
    pub name: String,
    /// Total bytes allocated.
    pub total_allocated: Bytes,
    /// Number of objects allocated.
    pub object_count: usize,
    /// Mean object size in bytes.
    pub mean_object_size: f64,
    /// Allocation-weighted mean of live (reachable) bytes.
    pub live_mean: Bytes,
    /// Maximum live bytes at any point.
    pub live_max: Bytes,
    /// Mean memory with no collector (allocation ramp average).
    pub nogc_mean: Bytes,
    /// Maximum memory with no collector (= total allocated).
    pub nogc_max: Bytes,
    /// Mutator execution time in seconds (from trace metadata).
    pub exec_seconds: f64,
    /// Allocation rate in bytes per second.
    pub alloc_rate: f64,
    /// Collections a 1 MB-trigger collector would run.
    pub collections_at_1mb: u64,
}

impl TraceStats {
    /// Computes statistics for an already-compiled trace: the streaming
    /// kernel ([`TraceStats::compute_source`]) over a [`CompiledSource`].
    pub fn compute_compiled(c: &CompiledTrace) -> TraceStats {
        TraceStats::compute_source(&mut CompiledSource::new(c))
            .expect("an in-memory source never fails")
    }

    /// Computes statistics from a streaming [`EventSource`] in O(live set
    /// + one block) memory.
    ///
    /// The live curve is a sweep over every birth (+size) and death
    /// (−size) in clock order, births before deaths at an equal clock
    /// (a zero-lifetime object must not drive the level negative); each
    /// level is weighted by how long it holds. Births arrive sorted, a
    /// block at a time ([`EventSource::next_block`]). Pending deaths wait
    /// in a radix heap; per block, only the deaths due by the block's
    /// last birth are taken out, sorted, and merged with the block's
    /// births. The weighted means accumulate in clock order whatever the
    /// block size, so the result is bit-identical for every source and
    /// block size.
    ///
    /// # Errors
    ///
    /// Propagates the source's [`SourceError`].
    pub fn compute_source(
        source: &mut (impl EventSource + ?Sized),
    ) -> Result<TraceStats, SourceError> {
        let meta = source.meta().clone();
        let mut block = EventBlock::new(DEFAULT_BLOCK_EVENTS);
        let mut sweep = LevelSweep::default();
        let mut pending = DeathQueue::default();
        let mut due: Vec<(u64, u32)> = Vec::new();
        let mut object_count: usize = 0;
        while source.next_block(&mut block) > 0 {
            if let Some(e) = block.take_error() {
                return Err(e);
            }
            let (births, sizes, deaths) = (block.births(), block.sizes(), block.deaths());
            for (&death, &size) in deaths.iter().zip(sizes) {
                if death != EventBlock::NO_DEATH {
                    pending.push(death, size);
                }
            }
            let last = *births.last().expect("a filled block is non-empty");
            pending.drain_through(last, &mut due);
            due.sort_unstable_by_key(|&(death, _)| death);
            sweep.merge(births, sizes, &due);
            due.clear();
            object_count += births.len();
        }
        if let Some(e) = block.take_error() {
            return Err(e);
        }
        pending.drain_all(&mut due);
        due.sort_unstable_by_key(|&(death, _)| death);
        sweep.merge(&[], &[], &due);
        let total = Bytes::new(source.end().as_u64());
        sweep.advance(total.as_u64());

        Ok(TraceStats {
            name: meta.name,
            total_allocated: total,
            object_count,
            mean_object_size: if object_count == 0 {
                0.0
            } else {
                total.as_u64() as f64 / object_count as f64
            },
            live_mean: Bytes::new(sweep.live.mean().unwrap_or(0.0) as u64),
            live_max: Bytes::new(sweep.peak as u64),
            nogc_mean: Bytes::new(sweep.nogc.mean().unwrap_or(0.0) as u64),
            nogc_max: total,
            exec_seconds: meta.exec_seconds,
            alloc_rate: if meta.exec_seconds > 0.0 {
                total.as_u64() as f64 / meta.exec_seconds
            } else {
                0.0
            },
            collections_at_1mb: total.as_u64() / 1_000_000,
        })
    }
}

/// The live and no-GC level sweep: folds births and deaths in clock
/// order into the two weighted means and the peak live level.
#[derive(Default)]
struct LevelSweep {
    live: WeightedStats,
    nogc: WeightedStats,
    level: i64,
    /// Highest level reached, spikes included: a level that holds for
    /// zero clock units counts toward the max but not the mean.
    peak: i64,
    prev_t: u64,
}

impl LevelSweep {
    /// Closes the segment `[prev_t, t)`, weighting its level by its
    /// length. "No GC" memory at clock `t` is `t` itself (everything ever
    /// allocated), so its segment value is the ramp's midpoint.
    #[inline]
    fn advance(&mut self, t: u64) {
        if t > self.prev_t {
            let weight = (t - self.prev_t) as f64;
            self.live.record(self.level as f64, weight);
            self.nogc.record((self.prev_t + t) as f64 / 2.0, weight);
            self.prev_t = t;
        }
    }

    /// Folds one block's births with the deaths due by its last birth
    /// (`due`, sorted by clock; every one at or before that birth):
    /// deaths strictly before a birth go first, deaths at its clock
    /// after it.
    fn merge(&mut self, births: &[u64], sizes: &[u32], due: &[(u64, u32)]) {
        let mut next = 0;
        for (&birth, &size) in births.iter().zip(sizes) {
            while let Some(&(death, freed)) = due.get(next).filter(|d| d.0 < birth) {
                self.die(death, freed);
                next += 1;
            }
            self.advance(birth);
            self.level += i64::from(size);
            self.peak = self.peak.max(self.level);
        }
        for &(death, freed) in &due[next..] {
            self.die(death, freed);
        }
    }

    #[inline]
    fn die(&mut self, t: u64, size: u32) {
        self.advance(t);
        self.level -= i64::from(size);
        debug_assert!(self.level >= 0, "live bytes went negative");
    }
}

/// Pending deaths as a monotone radix heap keyed by death clock.
///
/// Every queued clock is compared with `last`, the clock the queue was
/// last drained through: bucket 0 holds clocks `<= last`, bucket `b > 0`
/// those whose highest bit differing from `last` is bit `b - 1`. Births
/// are strictly increasing, so a new death is never earlier than the
/// last drain, which keeps the layout valid (a stream out of birth order
/// gets wrong statistics, never a panic). Draining through `limit`
/// empties every bucket below `limit`'s own, and splits that one bucket:
/// due clocks go out, the rest move to strictly lower buckets. Buckets
/// above it are untouched, so a drain costs its output plus moves that
/// each lower an entry's bucket — at most 64 per entry over its life —
/// never a scan of the whole pending set.
struct DeathQueue {
    last: u64,
    buckets: [Vec<(u64, u32)>; 65],
}

impl Default for DeathQueue {
    fn default() -> DeathQueue {
        DeathQueue {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl DeathQueue {
    #[inline]
    fn bucket(last: u64, clock: u64) -> usize {
        if clock <= last {
            0
        } else {
            (u64::BITS - (clock ^ last).leading_zeros()) as usize
        }
    }

    #[inline]
    fn push(&mut self, clock: u64, size: u32) {
        self.buckets[Self::bucket(self.last, clock)].push((clock, size));
    }

    /// Moves every queued death with clock `<= limit` into `out`, in no
    /// particular order.
    fn drain_through(&mut self, limit: u64, out: &mut Vec<(u64, u32)>) {
        let split = Self::bucket(self.last, limit);
        for bucket in &mut self.buckets[..split] {
            out.append(bucket);
        }
        self.last = limit;
        let mut straddling = std::mem::take(&mut self.buckets[split]);
        for &(clock, size) in &straddling {
            if clock <= limit {
                out.push((clock, size));
            } else {
                self.buckets[Self::bucket(limit, clock)].push((clock, size));
            }
        }
        straddling.clear();
        self.buckets[split] = straddling;
    }

    /// Moves every queued death into `out`.
    fn drain_all(&mut self, out: &mut Vec<(u64, u32)>) {
        for bucket in &mut self.buckets {
            out.append(bucket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    #[test]
    fn live_stats_for_simple_trace() {
        // clock: 0 → 100 (a live) → 200 (a,b live) → free a → 300 (b,c live)
        let mut b = TraceBuilder::new("s");
        b.exec_seconds(2.0);
        let a = b.alloc(100);
        b.alloc(100);
        b.free(a);
        b.alloc(100);
        let stats = TraceStats::compute_compiled(&b.finish().compile().unwrap());
        assert_eq!(stats.total_allocated, Bytes::new(300));
        assert_eq!(stats.object_count, 3);
        assert_eq!(stats.mean_object_size, 100.0);
        // live: [0,100)=0? births at 100/200/300. Levels: 100 for [100,200),
        // 200 then free → 100 for [200,300), then 200 at the very end.
        assert_eq!(stats.live_max, Bytes::new(200));
        // Weighted mean over [0,300): (0·100 + 100·100 + 100·100)/300 = 66.
        assert_eq!(stats.live_mean, Bytes::new(66));
        assert_eq!(stats.nogc_max, Bytes::new(300));
        // No-GC ramp mean = 150.
        assert_eq!(stats.nogc_mean, Bytes::new(150));
        assert_eq!(stats.alloc_rate, 150.0);
    }

    #[test]
    fn empty_trace_stats() {
        let t = TraceBuilder::new("e").finish().compile().unwrap();
        let s = TraceStats::compute_compiled(&t);
        assert_eq!(s.total_allocated, Bytes::ZERO);
        assert_eq!(s.object_count, 0);
        assert_eq!(s.live_max, Bytes::ZERO);
        assert_eq!(s.collections_at_1mb, 0);
    }

    #[test]
    fn collections_counts_megabytes() {
        let mut b = TraceBuilder::new("m");
        for _ in 0..2500 {
            let id = b.alloc(1000);
            b.free(id);
        }
        let s = TraceStats::compute_compiled(&b.finish().compile().unwrap());
        assert_eq!(s.collections_at_1mb, 2);
    }

    #[test]
    fn immortal_ramp_has_mean_half_of_max() {
        let mut b = TraceBuilder::new("ramp");
        for _ in 0..1000 {
            b.alloc(100); // never freed
        }
        let s = TraceStats::compute_compiled(&b.finish().compile().unwrap());
        assert_eq!(s.live_max, Bytes::new(100_000));
        // Ramp mean ≈ max/2 (off by half an object granularity).
        let mean = s.live_mean.as_u64() as f64;
        assert!((mean - 50_000.0).abs() < 100.0, "mean {mean}");
    }
}
