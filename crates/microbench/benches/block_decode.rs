//! Block-vs-record streaming microbenches: `next_block` against the
//! per-record `next_record` loop for every source kind — the in-memory
//! borrowed-column copy, the synthetic generator, and the sharded
//! on-disk decoder, on the calling thread and read ahead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dtb_trace::lifetime::{LifetimeDist, SizeDist};
use dtb_trace::{
    collect_source, ctc, ClassSpec, CompiledSource, CompiledTrace, EventBlock, EventSource,
    ShardCursor, ShardReader, SynthSource, WorkloadSpec, DEFAULT_BLOCK_EVENTS,
};
use std::path::PathBuf;

/// Total allocation volume for the bench workload; with the size mix
/// below this compiles to roughly 150k records.
const TOTAL_ALLOC: u64 = 100_000_000;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "microbench-decode".into(),
        description: String::new(),
        exec_seconds: 1.0,
        total_alloc: TOTAL_ALLOC,
        phase_period: None,
        seed: 0xD7B_BE1C,
        initial_permanent: 50_000,
        initial_object_size: 512,
        classes: vec![
            ClassSpec::new(
                "short",
                0.7,
                SizeDist::Uniform {
                    min: 16,
                    max: 4_096,
                },
                LifetimeDist::Exponential { mean: 200_000.0 },
            ),
            ClassSpec::new(
                "immortal",
                0.3,
                SizeDist::Fixed(256),
                LifetimeDist::Immortal,
            ),
        ],
    }
}

/// Drains the source one record at a time; returns (records, byte sum).
fn drain_records(source: &mut (impl EventSource + ?Sized)) -> (usize, u64) {
    let mut n = 0usize;
    let mut bytes = 0u64;
    while let Some(life) = source.next_record().expect("bench sources are clean") {
        n += 1;
        bytes += life.size as u64;
    }
    (n, bytes)
}

/// Drains the source block-at-a-time; returns (records, byte sum).
fn drain_blocks(source: &mut (impl EventSource + ?Sized), block: &mut EventBlock) -> (usize, u64) {
    let mut n = 0usize;
    let mut bytes = 0u64;
    loop {
        let got = source.next_block(block);
        if got == 0 {
            assert!(block.error().is_none(), "bench sources are clean");
            break;
        }
        n += got;
        bytes += block.sizes().iter().map(|&s| s as u64).sum::<u64>();
    }
    (n, bytes)
}

fn temp_store(trace: &CompiledTrace) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtb-microbench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ctc::write_shards(&dir, trace, 1 << 15).expect("write bench store");
    dir
}

fn bench_decode(c: &mut Criterion) {
    let trace = collect_source(&mut SynthSource::new(spec()).expect("valid spec"))
        .expect("synth streams are clean");
    let records = trace.len();
    assert!(records > 50_000, "bench workload too small: {records}");
    let dir = temp_store(&trace);
    let mut block = EventBlock::new(DEFAULT_BLOCK_EVENTS);

    let mut group = c.benchmark_group("decode/compiled");
    group.bench_function("per_record", |b| {
        b.iter(|| black_box(drain_records(&mut CompiledSource::new(&trace))))
    });
    group.bench_function("blocks_1024", |b| {
        b.iter(|| black_box(drain_blocks(&mut CompiledSource::new(&trace), &mut block)))
    });
    group.finish();

    let mut group = c.benchmark_group("decode/synth");
    group.bench_function("per_record", |b| {
        b.iter(|| {
            let mut source = SynthSource::new(spec()).expect("valid spec");
            black_box(drain_records(&mut source))
        })
    });
    group.bench_function("blocks_1024", |b| {
        b.iter(|| {
            let mut source = SynthSource::new(spec()).expect("valid spec");
            black_box(drain_blocks(&mut source, &mut block))
        })
    });
    group.finish();

    // The first full read verifies every shard checksum; later reads hit
    // the process-wide memo, so the loops below time pure decode: on the
    // calling thread (`ShardCursor`), and handed over by the read-ahead
    // helper (`ShardReader`), where a drain with no work of its own
    // waits on the helper's decode.
    drain_records(&mut ShardCursor::open(&dir).expect("open bench store"));
    let mut group = c.benchmark_group("decode/sharded");
    group.bench_function("per_record", |b| {
        b.iter(|| {
            let mut source = ShardCursor::open(&dir).expect("open bench store");
            black_box(drain_records(&mut source))
        })
    });
    group.bench_function("blocks_1024", |b| {
        b.iter(|| {
            let mut source = ShardCursor::open(&dir).expect("open bench store");
            black_box(drain_blocks(&mut source, &mut block))
        })
    });
    group.bench_function("read_ahead_1024", |b| {
        b.iter(|| {
            let mut source = ShardReader::open(&dir).expect("open bench store");
            black_box(drain_blocks(&mut source, &mut block))
        })
    });
    group.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_decode
}
criterion_main!(benches);
