//! Deterministic workload builders shared by the hot-path kernel
//! microbenches (`benches/fenwick.rs`, `benches/block_decode.rs`,
//! `benches/dead_walk.rs`, `benches/trace_stats.rs`,
//! `benches/memory_fold.rs`). The crate's one other bench,
//! `benches/heap_ops.rs`, times the real collector (`dtb-heap`) and
//! builds its own heap.
//!
//! The benches exist to keep the block-structured fast paths honest: the
//! branchless Fenwick kernels of the oracle heap's live index
//! ([`dtb_core::fenwick::Fenwick`]), the chunked
//! [`EventSource::next_block`](dtb_trace::EventSource::next_block)
//! decoders, the autovectorizable dead-object reductions in
//! [`dtb_core::soa`], the streaming `No GC` / `LIVE` kernel in
//! [`dtb_trace::stats`] (on compiled traces and on a raw generator
//! stream), and the per-segment memory fold
//! ([`WeightedStats::record_ramp`]). The smoke tests below pin each
//! kernel's results on the same large inputs the benches time, so a
//! bench can never drift into measuring a wrong kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dtb_core::fenwick::Fenwick;
use dtb_core::stats::{Ramp, WeightedStats};
use dtb_trace::lifetime::{LifetimeDist, SizeDist};
use dtb_trace::programs::Program;
use dtb_trace::synth::{ClassSpec, WorkloadSpec};
use dtb_trace::{collect_source, CompiledTrace, ObjectId, SynthSource, TraceBuilder};

/// A tiny deterministic generator (SplitMix64) so workloads are
/// reproducible without pulling the `rand` stand-in into the benches.
#[derive(Clone, Debug)]
pub struct Mix(u64);

impl Mix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Mix {
        Mix(seed)
    }

    /// The next 64 pseudo-random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `n` pseudo-random object sizes in `[16, 16 + 4096)`.
pub fn sizes(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = Mix::new(seed);
    (0..n).map(|_| 16 + (rng.next() % 4096) as u32).collect()
}

/// Strictly increasing births on the allocation clock implied by
/// `sizes` (each birth is the clock after its own allocation).
pub fn births(sizes: &[u32]) -> Vec<u64> {
    let mut clock = 0u64;
    sizes
        .iter()
        .map(|&s| {
            clock += s as u64;
            clock
        })
        .collect()
}

/// A Fenwick tree over `n` pseudo-random slot values.
pub fn build_fenwick(n: usize, seed: u64) -> Fenwick {
    let mut rng = Mix::new(seed);
    let mut tree = Fenwick::with_capacity(n);
    tree.extend((0..n).map(|_| 16 + rng.next() % 4096));
    tree
}

/// A churn trace of `n` objects: each dies within 64 allocations of its
/// birth, except roughly one in eight, which is immortal.
pub fn churn_trace(n: usize, seed: u64) -> CompiledTrace {
    let mut rng = Mix::new(seed);
    let mut b = TraceBuilder::new("churn");
    let mut due: Vec<Vec<ObjectId>> = vec![Vec::new(); 64];
    for (i, size) in sizes(n, seed).into_iter().enumerate() {
        let id = b.alloc(size);
        let r = rng.next();
        if !r.is_multiple_of(8) {
            due[(i + (r >> 8) as usize % 64) % 64].push(id);
        }
        for dead in std::mem::take(&mut due[i % 64]) {
            b.free(dead);
        }
    }
    b.finish().compile().expect("builder traces are valid")
}

/// The adversarial shape for a pending-death queue: `n` objects, none of
/// which dies before the second half of the trace. Each allocation of
/// the second half frees one first-half object, so those deaths land at
/// distinct late clocks; the second half dies together at the end.
pub fn die_at_end_trace(n: usize, seed: u64) -> CompiledTrace {
    let mut b = TraceBuilder::new("die-at-end");
    let sizes = sizes(n, seed);
    let (early, late) = sizes.split_at(n / 2);
    let early: Vec<ObjectId> = early.iter().map(|&s| b.alloc(s)).collect();
    let mut doomed = early.into_iter();
    let late: Vec<ObjectId> = late
        .iter()
        .map(|&s| {
            let id = b.alloc(s);
            if let Some(dead) = doomed.next() {
                b.free(dead);
            }
            id
        })
        .collect();
    for id in doomed.chain(late) {
        b.free(id);
    }
    b.finish().compile().expect("builder traces are valid")
}

/// About `n` objects of the `stream-shards` benchmark's mixture, straight
/// from `SynthSource`: 95% die within ~50 KB of allocation, 4% live
/// 1.1–2.2 MB and 1% never die, all with power-of-two sizes of 16–512
/// bytes (56 B on average). Its deaths are not snapped to births, so they
/// fall between births and, near the end, past the end of the trace.
pub fn stream_trace(n: usize, seed: u64) -> CompiledTrace {
    let small = SizeDist::PowerOfTwo { min: 16, max: 512 };
    let spec = WorkloadSpec {
        name: "stream".into(),
        description: "churn-dominated stream, small live set".into(),
        exec_seconds: 10.0,
        total_alloc: n as u64 * 56,
        initial_permanent: 0,
        initial_object_size: 64,
        classes: vec![
            ClassSpec::new(
                "short",
                0.95,
                small,
                LifetimeDist::Exponential { mean: 50_000.0 },
            ),
            ClassSpec::new(
                "medium",
                0.04,
                small,
                LifetimeDist::Uniform {
                    min: 1_100_000,
                    max: 2_200_000,
                },
            ),
            ClassSpec::new("immortal-ramp", 0.01, small, LifetimeDist::Immortal),
        ],
        phase_period: None,
        seed,
    };
    let mut source = SynthSource::new(spec).expect("the stream spec validates");
    collect_source(&mut source).expect("a validated generator never fails")
}

/// Bytes of allocation per segment of [`size_segments`]: the
/// allocation between two scavenges of the paper's 1 MB trigger.
pub const SEGMENT_BYTES: u64 = 1_000_000;

/// The memory level each segment of a fold starts from, as after a
/// scavenge.
pub const SEGMENT_BASE: u64 = 2 << 20;

/// GHOST(1)'s object sizes over `bytes` of allocation, cut into segments
/// of [`SEGMENT_BYTES`]: a segment ends with the object that brings it
/// to that size.
pub fn size_segments(bytes: u64) -> Vec<Vec<u32>> {
    let spec = WorkloadSpec {
        total_alloc: bytes,
        ..Program::Ghost1.spec()
    };
    let trace = spec.compile().expect("a preset spec validates");
    let mut segments = vec![Vec::new()];
    let mut filled = 0u64;
    for &size in trace.sizes() {
        segments.last_mut().expect("never empty").push(size);
        filled += size as u64;
        if filled >= SEGMENT_BYTES {
            segments.push(Vec::new());
            filled = 0;
        }
    }
    segments.retain(|s| !s.is_empty());
    segments
}

/// Folds each segment's memory ramp from [`SEGMENT_BASE`] into `stats`
/// with one `record` per object: the drive loop's fold before
/// [`WeightedStats::record_ramp`].
pub fn fold_per_sample(stats: &mut WeightedStats, segments: &[Vec<u32>]) {
    for segment in segments {
        let mut level = SEGMENT_BASE;
        for &size in segment {
            stats.record(level as f64, size as f64);
            level += size as u64;
        }
    }
}

/// Folds the same ramps with one [`WeightedStats::record_ramp`] per
/// segment, their moments computed beforehand, as the drive loop's block
/// prelude computes them once for every lane.
pub fn fold_ramps(stats: &mut WeightedStats, ramps: &[Ramp<'_>]) {
    for &ramp in ramps {
        stats.record_ramp(SEGMENT_BASE, ramp);
    }
}

/// Allocation the memory-fold bench folds: 32 segments.
pub const MEMORY_FOLD_BYTES: u64 = 32 * SEGMENT_BYTES;

/// An accumulator whose weighted sum is already past 2^53, so every
/// later fold runs per sample.
pub fn past_2_pow_53() -> WeightedStats {
    let mut stats = WeightedStats::new();
    stats.record((1u64 << 54) as f64, 1.0);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtb_core::soa::{born_after_stats, sum_sizes};

    const N: usize = 100_000;

    /// The bench workloads are deterministic and well-formed.
    #[test]
    fn workloads_are_deterministic_and_well_formed() {
        let s1 = sizes(N, 7);
        let s2 = sizes(N, 7);
        assert_eq!(s1, s2);
        let b = births(&s1);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    /// Pins the Fenwick kernels against a scalar reference on the exact
    /// bench workload size: prefix sums, the descent, and single-slot
    /// removals.
    #[test]
    fn fenwick_kernels_match_scalar_reference_at_bench_size() {
        let mut vals: Vec<u64> = sizes(N, 3).iter().map(|&s| s as u64).collect();
        let mut tree = build_fenwick(N, 3);
        for i in (0..vals.len()).step_by(997) {
            let prefix: u64 = vals[..i].iter().sum();
            assert_eq!(tree.prefix(i), prefix, "prefix({i})");
        }
        assert_eq!(tree.total(), vals.iter().sum::<u64>());
        // lower_bound: first slot taking the cumulative past the target.
        let target = tree.total() / 2;
        let pos = tree.lower_bound(target);
        assert!(tree.prefix(pos) <= target);
        assert!(tree.prefix(pos + 1) > target);
        // Removals take exactly their bytes, slot by slot.
        for s in (0..N).step_by(7) {
            let d = vals[s] / 2;
            tree.sub(s, d);
            vals[s] -= d;
        }
        for i in (0..N).step_by(991) {
            let prefix: u64 = vals[..i].iter().sum();
            assert_eq!(tree.prefix(i), prefix, "prefix({i}) after removals");
        }
    }

    /// Pins the dead-object reduction against a branchy scalar walk on
    /// the exact bench workload.
    #[test]
    fn dead_walk_matches_branchy_reference_at_bench_size() {
        let s = sizes(N, 5);
        let b = births(&s);
        let tb = b[N / 2];
        let (bytes, count) = born_after_stats(&b, &s, tb);
        let mut ref_bytes = 0u64;
        let mut ref_count = 0usize;
        for (&birth, &size) in b.iter().zip(&s) {
            if birth > tb {
                ref_bytes += size as u64;
                ref_count += 1;
            }
        }
        assert_eq!((bytes, count), (ref_bytes, ref_count));
        assert_eq!(sum_sizes(&s), s.iter().map(|&x| x as u64).sum::<u64>());
    }

    /// Pins the streaming stats kernel against a scalar reference — every
    /// birth and death as a delta, all of them sorted, folded in order —
    /// on all three bench shapes, the stream's deaths between births and
    /// past the end included.
    #[test]
    fn trace_stats_match_scalar_reference_at_bench_size() {
        use dtb_core::stats::WeightedStats;
        use dtb_trace::stats::TraceStats;
        let stream = stream_trace(N, 19);
        let end = stream.end.as_u64();
        assert!(stream.deaths().iter().any(|&d| d != u64::MAX && d > end));
        for trace in [churn_trace(N, 13), die_at_end_trace(N, 17), stream] {
            let mut deltas: Vec<(u64, i64)> = Vec::new();
            for l in trace.lives() {
                deltas.push((l.birth.as_u64(), l.size as i64));
                if let Some(d) = l.death {
                    deltas.push((d.as_u64(), -(l.size as i64)));
                }
            }
            deltas.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
            let (mut live, mut nogc) = (WeightedStats::new(), WeightedStats::new());
            let (mut level, mut prev) = (0i64, 0u64);
            let end = trace.end.as_u64();
            for (t, delta) in deltas.into_iter().chain([(end, 0)]) {
                if t > prev {
                    live.record(level as f64, (t - prev) as f64);
                    nogc.record((prev + t) as f64 / 2.0, (t - prev) as f64);
                    prev = t;
                }
                level += delta;
                live.record(level as f64, 0.0);
            }
            let stats = TraceStats::compute_compiled(&trace);
            assert_eq!(stats.live_mean.as_u64(), live.mean().unwrap() as u64);
            assert_eq!(stats.live_max.as_u64(), live.max().unwrap() as u64);
            assert_eq!(stats.nogc_mean.as_u64(), nogc.mean().unwrap() as u64);
            assert_eq!(stats.object_count, trace.len());
        }
    }

    /// Pins the per-segment memory fold against one `record` per object
    /// on the exact bench workload, bit for bit, in both regimes the
    /// bench times, and checks that the exact regime stays below 2^53.
    #[test]
    fn memory_fold_matches_per_sample_records_at_bench_size() {
        let segments = size_segments(MEMORY_FOLD_BYTES);
        assert!(segments.len() >= 30);
        let ramps: Vec<Ramp<'_>> = segments.iter().map(|s| Ramp::new(s)).collect();
        let weighted: u128 = segments
            .iter()
            .map(|segment| {
                let mut level = SEGMENT_BASE as u128;
                segment
                    .iter()
                    .map(|&s| {
                        let w = level * s as u128;
                        level += s as u128;
                        w
                    })
                    .sum::<u128>()
            })
            .sum();
        assert!(weighted < 1 << 53, "the exact regime stays exact");
        for prior in [WeightedStats::new(), past_2_pow_53()] {
            let (mut each, mut folded) = (prior, prior);
            fold_per_sample(&mut each, &segments);
            fold_ramps(&mut folded, &ramps);
            let bits = |w: &WeightedStats| {
                (
                    w.mean().map(f64::to_bits),
                    w.max().map(f64::to_bits),
                    w.total_weight().to_bits(),
                )
            };
            assert_eq!(bits(&each), bits(&folded));
        }
    }
}
