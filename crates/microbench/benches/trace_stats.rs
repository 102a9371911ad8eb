//! The `No GC` / `LIVE` stats kernel on a churn trace and on the
//! die-at-end shape, where the whole trace is pending at once. The two
//! should cost about the same per object: a drain must not rescan the
//! pending set.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dtb_microbench::{churn_trace, die_at_end_trace};
use dtb_trace::stats::TraceStats;

/// Objects per trace.
const N: usize = 500_000;

fn bench_trace_stats(c: &mut Criterion) {
    let churn = churn_trace(N, 13);
    let die_at_end = die_at_end_trace(N, 17);
    let mut group = c.benchmark_group("trace_stats");
    group.bench_function("churn", |b| {
        b.iter(|| black_box(TraceStats::compute_compiled(black_box(&churn))))
    });
    group.bench_function("die_at_end", |b| {
        b.iter(|| black_box(TraceStats::compute_compiled(black_box(&die_at_end))))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_trace_stats
}
criterion_main!(benches);
