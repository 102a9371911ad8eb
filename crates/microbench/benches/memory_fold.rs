//! The memory fold of a drive-loop segment: one `record` per object
//! against one `record_ramp` per segment, over GHOST(1)'s sizes cut into
//! 1 MB segments. In the exact regime every sum stays below 2^53 and a
//! segment folds in one integer step; with a prior sum past 2^53 the
//! ramp falls back to per-sample additions, which must not be slower
//! than the loop they replaced.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dtb_core::stats::{Ramp, WeightedStats};
use dtb_microbench::{
    fold_per_sample, fold_ramps, past_2_pow_53, size_segments, MEMORY_FOLD_BYTES,
};

fn bench_memory_fold(c: &mut Criterion) {
    let segments = size_segments(MEMORY_FOLD_BYTES);
    let ramps: Vec<Ramp<'_>> = segments.iter().map(|s| Ramp::new(s)).collect();
    for (regime, prior) in [
        ("exact", WeightedStats::new()),
        ("per_sample", past_2_pow_53()),
    ] {
        let mut group = c.benchmark_group(&format!("memory_fold/{regime}"));
        group.bench_function("record", |b| {
            b.iter(|| {
                let mut stats = prior;
                fold_per_sample(&mut stats, black_box(&segments));
                black_box(stats)
            })
        });
        group.bench_function("record_ramp", |b| {
            b.iter(|| {
                let mut stats = prior;
                fold_ramps(&mut stats, black_box(&ramps));
                black_box(stats)
            })
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_memory_fold
}
criterion_main!(benches);
