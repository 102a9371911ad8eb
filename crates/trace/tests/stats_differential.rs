//! Differential test of the `TraceStats` kernel against its executable
//! specification: the original sort-all-deltas fold.
//!
//! The specification materialises every birth (+size) and death (−size)
//! as a delta, sorts all of them by clock (births before deaths at an
//! equal clock, smaller deaths first), and folds them into the weighted
//! live and no-GC means. The streaming kernel must agree with it to the
//! last bit on every shape that stresses the block merge — and fail with
//! the same typed `SourceError` when the source fails.

use dtb_core::stats::WeightedStats;
use dtb_core::time::{Bytes, VirtualTime};
use dtb_trace::stats::TraceStats;
use dtb_trace::{
    ctc, CompiledSource, CompiledTrace, EventBlock, EventSource, ObjectId, ObjectLife, ShardReader,
    SourceError, TraceBuilder, TraceMeta,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The specification: reads the source record by record, sorts all 2n
/// deltas, and folds them in order.
fn reference(source: &mut dyn EventSource) -> Result<TraceStats, SourceError> {
    let meta = source.meta().clone();
    let mut deltas: Vec<(u64, i64)> = Vec::new();
    let mut object_count = 0usize;
    while let Some(l) = source.next_record()? {
        deltas.push((l.birth.as_u64(), l.size as i64));
        if let Some(d) = l.death {
            deltas.push((d.as_u64(), -(l.size as i64)));
        }
        object_count += 1;
    }
    deltas.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));

    let mut live = WeightedStats::new();
    let mut nogc = WeightedStats::new();
    let mut level: i64 = 0;
    let mut prev_t: u64 = 0;
    for (t, delta) in deltas {
        if t > prev_t {
            live.record(level as f64, (t - prev_t) as f64);
            nogc.record((prev_t + t) as f64 / 2.0, (t - prev_t) as f64);
            prev_t = t;
        }
        level += delta;
        debug_assert!(level >= 0, "live bytes went negative");
        live.record(level as f64, 0.0);
    }
    let end = source.end().as_u64();
    if end > prev_t {
        live.record(level as f64, (end - prev_t) as f64);
        nogc.record((prev_t + end) as f64 / 2.0, (end - prev_t) as f64);
    }

    let total = Bytes::new(end);
    Ok(TraceStats {
        name: meta.name,
        total_allocated: total,
        object_count,
        mean_object_size: if object_count == 0 {
            0.0
        } else {
            end as f64 / object_count as f64
        },
        live_mean: Bytes::new(live.mean().unwrap_or(0.0) as u64),
        live_max: Bytes::new(live.max().unwrap_or(0.0) as u64),
        nogc_mean: Bytes::new(nogc.mean().unwrap_or(0.0) as u64),
        nogc_max: total,
        exec_seconds: meta.exec_seconds,
        alloc_rate: if meta.exec_seconds > 0.0 {
            end as f64 / meta.exec_seconds
        } else {
            0.0
        },
        collections_at_1mb: end / 1_000_000,
    })
}

/// A compiled-trace cursor that hands out at most `chunk` records per
/// block, so block boundaries land wherever a test wants them.
struct Chunked<'a> {
    inner: CompiledSource<'a>,
    chunk: usize,
}

impl EventSource for Chunked<'_> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
        self.inner.next_record()
    }

    fn next_block(&mut self, block: &mut EventBlock) -> usize {
        block.clear();
        while block.len() < self.chunk.min(block.capacity()) {
            match self.inner.next_record() {
                Ok(Some(life)) => block.push(life),
                _ => break,
            }
        }
        block.len()
    }

    fn end(&self) -> VirtualTime {
        self.inner.end()
    }
}

/// One allocation step: object size plus an optional death, scheduled
/// `die_after` allocations later (0 = dies at its own birth clock).
type Op = (u32, Option<u16>);

/// Builds a valid compiled trace from an op list. Every death lands on
/// the clock of some birth (a free follows the allocation that made it
/// due), several deaths often share one clock, and `None` is immortal.
fn compile_ops(ops: &[Op]) -> CompiledTrace {
    let mut b = TraceBuilder::new("stats-differential");
    b.exec_seconds(1.5);
    let mut due: Vec<(usize, ObjectId)> = Vec::new();
    for (i, &(size, die_after)) in ops.iter().enumerate() {
        let id = b.alloc(size);
        if let Some(k) = die_after {
            due.push((i + k as usize, id));
        }
        let mut j = 0;
        while j < due.len() {
            if due[j].0 <= i {
                let (_, dead) = due.swap_remove(j);
                b.free(dead);
            } else {
                j += 1;
            }
        }
    }
    b.finish().compile().expect("builder traces are valid")
}

/// `n` objects that all die at the very end: at one clock when
/// `spread` is false, or one per trailing 1-byte allocation otherwise.
fn die_at_end(n: usize, spread: bool) -> CompiledTrace {
    let mut b = TraceBuilder::new("die-at-end");
    let ids: Vec<ObjectId> = (0..n).map(|i| b.alloc(8 + (i % 97) as u32)).collect();
    for id in ids {
        if spread {
            b.alloc(1);
        }
        b.free(id);
    }
    b.finish().compile().expect("builder traces are valid")
}

/// The kernel, through the default block size and through `chunk`-record
/// blocks, against the specification.
fn assert_matches(trace: &CompiledTrace, chunk: usize) -> Result<(), TestCaseError> {
    let expected = reference(&mut CompiledSource::new(trace)).expect("in-memory source");
    prop_assert_eq!(&TraceStats::compute_compiled(trace), &expected);
    let chunked = TraceStats::compute_source(&mut Chunked {
        inner: CompiledSource::new(trace),
        chunk,
    })
    .expect("in-memory source");
    prop_assert_eq!(&chunked, &expected, "chunk {}", chunk);
    Ok(())
}

fn ops(max_len: usize, max_die_after: u16) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (1u32..=400, prop::option::of(0u16..=max_die_after)),
        0..max_len,
    )
}

fn temp_dir() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dtb-stats-diff-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Short traces, tiny blocks: zero-lifetime objects, same-clock deaths
    /// of different sizes, deaths on a block's last birth, immortals.
    #[test]
    fn small_traces_match_the_specification(ops in ops(120, 6), chunk in 1usize..=9) {
        assert_matches(&compile_ops(&ops), chunk)?;
    }

    /// Traces spanning many blocks, with lifetimes reaching far past a
    /// block.
    #[test]
    fn multi_block_traces_match_the_specification(
        ops in ops(3_000, 2_500),
        chunk in 1usize..=300,
    ) {
        assert_matches(&compile_ops(&ops), chunk)?;
    }

    /// The adversarial shape: every object stays pending until the end.
    #[test]
    fn die_at_end_matches_the_specification(
        n in 0usize..=3_000,
        spread in any::<bool>(),
        chunk in 1usize..=1_500,
    ) {
        assert_matches(&die_at_end(n, spread), chunk)?;
    }

    /// A corrupted shard store fails both folds with the same typed error
    /// (or, where the damage is caught at open, fails both the same way).
    #[test]
    fn corrupt_shard_store_fails_like_the_specification(
        ops in ops(400, 40),
        stride in 1u64..=64,
        file_pick in 0usize..=1_000,
        offset in 0usize..=1_000_000,
        mask in 1u8..=255,
    ) {
        let trace = compile_ops(&ops);
        let dir = temp_dir();
        ctc::write_shards(&dir, &trace, stride).expect("write store");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("store dir exists")
            .map(|e| e.expect("dir entry").path())
            .collect();
        files.sort();
        let victim = &files[file_pick % files.len()];
        let mut bytes = std::fs::read(victim).expect("read victim");
        prop_assume!(!bytes.is_empty());
        let i = offset % bytes.len();
        bytes[i] ^= mask;
        std::fs::write(victim, &bytes).expect("write corrupted");
        let open = || ShardReader::open(&dir).map_err(SourceError::from);
        let expected = open().and_then(|mut r| reference(&mut r));
        let streamed = open().and_then(|mut r| TraceStats::compute_source(&mut r));
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(streamed, expected);
    }
}

/// Fails its `fail_at`-th record: a mid-block error the block path must
/// surface exactly as the record path does.
struct FailAt<'a> {
    inner: CompiledSource<'a>,
    served: usize,
    fail_at: usize,
}

impl EventSource for FailAt<'_> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
        if self.served == self.fail_at {
            return Err(SourceError::Synth(format!("record {} lost", self.fail_at)));
        }
        self.served += 1;
        self.inner.next_record()
    }

    fn end(&self) -> VirtualTime {
        self.inner.end()
    }
}

#[test]
fn mid_stream_failure_is_the_specifications_error() {
    let ops: Vec<Op> = (0..5_000u32)
        .map(|i| (1 + i % 50, Some((i % 7) as u16)))
        .collect();
    let trace = compile_ops(&ops);
    for fail_at in [0, 1, 1_023, 1_024, 3_000, 4_999] {
        let source = || FailAt {
            inner: CompiledSource::new(&trace),
            served: 0,
            fail_at,
        };
        let expected = reference(&mut source());
        assert!(expected.is_err());
        assert_eq!(TraceStats::compute_source(&mut source()), expected);
    }
    // Failing past the last record is no failure at all.
    let mut whole = FailAt {
        inner: CompiledSource::new(&trace),
        served: 0,
        fail_at: usize::MAX,
    };
    assert_eq!(
        TraceStats::compute_source(&mut whole),
        reference(&mut CompiledSource::new(&trace))
    );
}

#[test]
fn empty_and_single_object_traces_match() {
    for ops in [
        vec![],
        vec![(5, Some(0))],
        vec![(5, None)],
        vec![(7, Some(3))],
    ] {
        let trace = compile_ops(&ops);
        assert_eq!(
            TraceStats::compute_compiled(&trace),
            reference(&mut CompiledSource::new(&trace)).unwrap()
        );
    }
}
