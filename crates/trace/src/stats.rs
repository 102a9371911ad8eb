//! Workload statistics: the data behind Tables 5 and 6 and the `LIVE` /
//! `No GC` rows of Table 2.

use crate::event::{CompiledTrace, TraceError};
use crate::source::{CompiledSource, EventBlock, EventSource, SourceError, DEFAULT_BLOCK_EVENTS};
use dtb_core::time::Bytes;
use serde::{Deserialize, Serialize};
use std::hint::select_unpredictable;

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
    ///
    /// # Panics
    ///
    /// Panics if the trace breaks the record order that
    /// [`CompiledTrace::validate`] checks; a trace from
    /// [`Trace::compile`](crate::event::Trace::compile) never does.
    pub fn compute_compiled(c: &CompiledTrace) -> TraceStats {
        TraceStats::compute_source(&mut CompiledSource::new(c))
            .unwrap_or_else(|e| panic!("an in-memory source fails only out of order: {e}"))
    }

    /// Computes statistics from a streaming [`EventSource`] in O(live set
    /// + one block) memory.
    ///
    /// The live curve is a sweep over every birth (+size) and death
    /// (−size) in clock order, births before deaths at an equal clock
    /// (a zero-lifetime object must not drive the level negative); each
    /// level is weighted by how long it holds. Births arrive sorted, a
    /// block at a time ([`EventSource::next_block`]), and each record is
    /// checked against that order as it is read. A death due by the
    /// block's last birth goes straight to the block's due list; a later
    /// one waits in a radix heap until a block's last birth reaches it.
    /// Every due death lies after the previous block's last birth, so the
    /// due list is radix-sorted on its offset from that clock, then
    /// merged with the block's births and folded one event at a time.
    /// The weighted means accumulate in clock order whatever the block
    /// size, so the result is bit-identical for every source and block
    /// size.
    ///
    /// # Errors
    ///
    /// Propagates the source's [`SourceError`], and returns
    /// [`SourceError::Order`] for the first record whose birth does not
    /// follow the previous record's or whose death precedes its birth.
    pub fn compute_source(
        source: &mut (impl EventSource + ?Sized),
    ) -> Result<TraceStats, SourceError> {
        let meta = source.meta().clone();
        let mut block = EventBlock::new(DEFAULT_BLOCK_EVENTS);
        let mut sweep = LevelSweep::default();
        let mut pending = DeathQueue::default();
        let mut due = DueList::with_capacity(DEFAULT_BLOCK_EVENTS);
        let mut object_count: usize = 0;
        while source.next_block(&mut block) > 0 {
            check_order(block.births(), block.deaths(), object_count, pending.last)?;
            if let Some(e) = block.take_error() {
                return Err(e);
            }
            let (births, sizes, deaths) = (block.births(), block.sizes(), block.deaths());
            let base = pending.last;
            let last = *births.last().expect("a filled block is non-empty");
            due.route(deaths, sizes.iter().copied(), last, &mut pending);
            pending.drain_through(last, &mut due.list);
            due.sort(base);
            sweep.merge(births, sizes, &mut due.list);
            object_count += births.len();
        }
        if let Some(e) = block.take_error() {
            return Err(e);
        }
        let base = pending.last;
        pending.drain_all(&mut due.list);
        due.sort(base);
        sweep.merge(&[], &[], &mut due.list);
        let total = Bytes::new(source.end().as_u64());
        sweep.finish(total.as_u64());

        let mean = |sum: f64| {
            if sweep.weight > 0.0 {
                sum / sweep.weight
            } else {
                0.0
            }
        };
        Ok(TraceStats {
            name: meta.name,
            total_allocated: total,
            object_count,
            mean_object_size: if object_count == 0 {
                0.0
            } else {
                total.as_u64() as f64 / object_count as f64
            },
            live_mean: Bytes::new(mean(sweep.live) as u64),
            live_max: Bytes::new(sweep.peak as u64),
            nogc_mean: Bytes::new(mean(sweep.nogc) as u64),
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

/// Checks one block against the stream's order contract: births strictly
/// increasing, within the block and after `prev_birth` (the previous
/// block's last birth, when `first_pos > 0`), and no death before its
/// birth. `first_pos` is the stream position of the block's first record.
/// The fast path is one compare per record and condition, folded without
/// branches; only a violation pays for finding its position.
fn check_order(
    births: &[u64],
    deaths: &[u64],
    first_pos: usize,
    prev_birth: u64,
) -> Result<(), SourceError> {
    let backwards = |pos: usize, birth: u64, prev: u64| (pos > 0) & (birth <= prev);
    let mut bad = backwards(first_pos, births[0], prev_birth);
    bad |= births[1..]
        .iter()
        .zip(births)
        .fold(false, |bad, (&birth, &prev)| bad | (birth <= prev));
    bad |= deaths
        .iter()
        .zip(births)
        .fold(false, |bad, (&death, &birth)| bad | (death < birth));
    if !bad {
        return Ok(());
    }
    let mut prev = prev_birth;
    for (i, (&birth, &death)) in births.iter().zip(deaths).enumerate() {
        let pos = first_pos + i;
        if backwards(pos, birth, prev) {
            return Err(SourceError::Order(TraceError::NonMonotoneBirth { pos }));
        }
        if death < birth {
            return Err(SourceError::Order(TraceError::DeathBeforeBirth { pos }));
        }
        prev = birth;
    }
    unreachable!("the fast path found a violation")
}

/// The live and no-GC level sweep: folds births and deaths in clock
/// order into the two weighted sums, their shared weight and the peak
/// live level.
///
/// Every event is one [`LevelSweep::step`]. A step at the previous
/// event's clock has weight `0.0`, and adding `+0.0` leaves a sum of
/// non-negative terms unchanged, so the sums are bit-identical to
/// recording only the segments of positive length. The live and no-GC
/// means share their weight total: both weight every segment by its
/// length.
#[derive(Clone, Copy, Default)]
struct LevelSweep {
    /// Σ live level × segment length.
    live: f64,
    /// Σ no-GC level × segment length. "No GC" memory at clock `t` is `t`
    /// itself (everything ever allocated), so a segment's value is the
    /// ramp's midpoint.
    nogc: f64,
    /// Σ segment length.
    weight: f64,
    level: i64,
    /// Highest level reached, spikes included: a level that holds for
    /// zero clock units counts toward the max but not the mean.
    peak: i64,
    prev_t: u64,
}

impl LevelSweep {
    /// Closes the segment `[prev_t, t)` at the current level, then
    /// applies `delta` at `t`. `t` is never before `prev_t`.
    #[inline(always)]
    fn step(&mut self, t: u64, delta: i64) {
        let weight = (t - self.prev_t) as f64;
        self.live += self.level as f64 * weight;
        self.nogc += (self.prev_t + t) as f64 / 2.0 * weight;
        self.weight += weight;
        self.prev_t = t;
        self.level += delta;
        self.peak = self.peak.max(self.level);
    }

    /// Folds one block's births with the deaths due by its last birth
    /// (`due`, sorted by clock; every one at or before that birth, and
    /// none before `prev_t`), births first at an equal clock, and leaves
    /// `due` empty.
    ///
    /// A sentinel death at `u64::MAX` ends `due`, so each step takes the
    /// earlier of the next birth and the next death by a select, not a
    /// branch (which birth-death interleavings would mispredict); once the
    /// births run out, the rest of `due` folds alone. The fold runs on a
    /// local copy, so its state stays in registers.
    fn merge(&mut self, births: &[u64], sizes: &[u32], due: &mut Vec<(u64, u32)>) {
        let deaths = due.len();
        due.push((u64::MAX, 0));
        let mut sweep = *self;
        let (mut born, mut next) = (0, 0);
        while born < births.len() {
            let (birth, size) = (births[born], sizes[born]);
            let (death, freed) = due[next];
            let birth_first = birth <= death;
            sweep.step(
                select_unpredictable(birth_first, birth, death),
                select_unpredictable(birth_first, i64::from(size), -i64::from(freed)),
            );
            born += usize::from(birth_first);
            next += usize::from(!birth_first);
        }
        for &(death, freed) in &due[next..deaths] {
            sweep.step(death, -i64::from(freed));
        }
        *self = sweep;
        due.clear();
    }

    /// Closes the last segment at the end-of-trace clock `end`. A
    /// streamed death can lie past `end`, so this step alone is guarded.
    fn finish(&mut self, end: u64) {
        if end > self.prev_t {
            self.step(end, 0);
        }
    }
}

/// One block's due deaths, each a clock with a payload (the stats
/// kernel's size, the preset snap's record id), with the two scratch
/// buffers that fill and sort them: `later` holds a block's deaths on
/// their way to the pending queue, and `spare` is where the radix sort
/// scatters. All three are sized once per kernel call, before the first
/// block.
pub(crate) struct DueList<T> {
    pub(crate) list: Vec<(u64, T)>,
    later: Vec<(u64, T)>,
    spare: Vec<(u64, T)>,
}

impl<T: Copy + Default> DueList<T> {
    /// Below this many deaths a comparison sort beats the radix passes'
    /// fixed cost.
    const RADIX_MIN: usize = 64;

    /// Scratch for blocks of `block` records: the due list holds a block
    /// plus the pending deaths falling due with it, so it gets twice that.
    pub(crate) fn with_capacity(block: usize) -> DueList<T> {
        DueList {
            list: Vec::with_capacity(2 * block),
            later: Vec::with_capacity(block),
            spare: Vec::with_capacity(2 * block),
        }
    }

    /// Routes a block's deaths, paired with `payloads`, into the empty
    /// list: those due by `last`, the block's last birth, stay in it; the
    /// other mortal ones go to `pending`. Whether a death is due is a
    /// coin toss on a churn stream, so each is written to both buffers
    /// and only the right cursor advances.
    pub(crate) fn route(
        &mut self,
        deaths: &[u64],
        payloads: impl Iterator<Item = T>,
        last: u64,
        pending: &mut DeathQueue<T>,
    ) {
        self.list.resize(deaths.len(), (0, T::default()));
        self.later.resize(deaths.len(), (0, T::default()));
        let (mut due, mut later) = (0, 0);
        for (&death, payload) in deaths.iter().zip(payloads) {
            self.list[due] = (death, payload);
            self.later[later] = (death, payload);
            let now = death <= last;
            due += usize::from(now);
            later += usize::from(!now & (death != EventBlock::NO_DEATH));
        }
        self.list.truncate(due);
        for &(death, payload) in &self.later[..later] {
            pending.push(death, payload);
        }
    }

    /// Sorts the list by clock; the order among equal clocks is
    /// unspecified. Every clock is at least `base`, the previous drain
    /// point, so the sort key is the offset from `base`: an LSD radix
    /// sort, one pass per significant byte of the largest offset,
    /// skipping a byte every offset shares. A comparison sort takes a
    /// tiny list, one whose offsets need more than four bytes (only the
    /// end-of-trace batch can), and a nearly sorted one, with under one
    /// descent per 16 deaths: the queue's buckets drain in clock order,
    /// so a block whose due deaths all come from earlier blocks is close
    /// to sorted, and the comparison sort finishes it in near-linear
    /// time.
    pub(crate) fn sort(&mut self, base: u64) {
        let n = self.list.len();
        let widest = self
            .list
            .iter()
            .fold(0, |widest, &(clock, _)| widest | (clock - base));
        let bytes = (u64::BITS - widest.leading_zeros()).div_ceil(8) as usize;
        let descents = self.list[n.min(1)..]
            .iter()
            .zip(&self.list)
            .fold(0, |descents, (next, prev)| {
                descents + usize::from(next.0 < prev.0)
            });
        if n < Self::RADIX_MIN || bytes > 4 || descents < n / 16 {
            self.list.sort_unstable_by_key(|&(clock, _)| clock);
            return;
        }
        let mut counts = [[0u32; 256]; 4];
        for &(clock, _) in &self.list {
            let key = clock - base;
            for (byte, count) in counts[..bytes].iter_mut().enumerate() {
                count[(key >> (8 * byte)) as u8 as usize] += 1;
            }
        }
        self.spare.resize(n, (0, T::default()));
        for (byte, count) in counts[..bytes].iter().enumerate() {
            let shift = 8 * byte;
            let digit = |clock: u64| ((clock - base) >> shift) as u8 as usize;
            if count[digit(self.list[0].0)] as usize == n {
                continue;
            }
            let mut at = [0u32; 256];
            let mut sum = 0;
            for (at, &c) in at.iter_mut().zip(count) {
                *at = sum;
                sum += c;
            }
            for &entry in &self.list {
                let d = digit(entry.0);
                self.spare[at[d] as usize] = entry;
                at[d] += 1;
            }
            std::mem::swap(&mut self.list, &mut self.spare);
        }
    }
}

/// Pending deaths as a monotone radix heap keyed by death clock, each
/// with a payload.
///
/// Every queued clock is compared with `last`, the clock the queue was
/// last drained through: bucket 0 holds clocks `<= last`, bucket `b > 0`
/// those whose highest bit differing from `last` is bit `b - 1`. A
/// death is queued only when it falls after its block's last birth, so
/// (with births strictly increasing, which the kernel checks before
/// anything reaches the queue) a new death is never earlier than the
/// last drain, which keeps the layout valid. Draining through `limit`
/// empties every bucket below `limit`'s own, and splits that one bucket:
/// due clocks go out, the rest move to strictly lower buckets. Buckets
/// above it are untouched, so a drain costs its output plus moves that
/// each lower an entry's bucket — at most 64 per entry over its life —
/// never a scan of the whole pending set.
pub(crate) struct DeathQueue<T> {
    pub(crate) last: u64,
    buckets: [Vec<(u64, T)>; 65],
}

impl<T> Default for DeathQueue<T> {
    fn default() -> DeathQueue<T> {
        DeathQueue {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl<T: Copy> DeathQueue<T> {
    #[inline]
    fn bucket(last: u64, clock: u64) -> usize {
        if clock <= last {
            0
        } else {
            (u64::BITS - (clock ^ last).leading_zeros()) as usize
        }
    }

    #[inline]
    fn push(&mut self, clock: u64, payload: T) {
        self.buckets[Self::bucket(self.last, clock)].push((clock, payload));
    }

    /// Moves every queued death with clock `<= limit` into `out`, in no
    /// particular order.
    pub(crate) fn drain_through(&mut self, limit: u64, out: &mut Vec<(u64, T)>) {
        let split = Self::bucket(self.last, limit);
        for bucket in &mut self.buckets[..split] {
            out.append(bucket);
        }
        self.last = limit;
        let mut straddling = std::mem::take(&mut self.buckets[split]);
        for &(clock, payload) in &straddling {
            if clock <= limit {
                out.push((clock, payload));
            } else {
                self.buckets[Self::bucket(limit, clock)].push((clock, payload));
            }
        }
        straddling.clear();
        self.buckets[split] = straddling;
    }

    /// Moves every queued death into `out`.
    fn drain_all(&mut self, out: &mut Vec<(u64, T)>) {
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
