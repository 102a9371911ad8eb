//! Dead-object walk microbenches: the branch-free `born_after_stats`
//! masked accumulate a lane scavenge runs over its death-log segment,
//! against a branchy scalar walk, plus the widened size-column sum.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dtb_core::soa::{born_after_stats, sum_sizes};
use dtb_microbench::{births, sizes};

const N: usize = 1_000_000;

/// The branchy reference the kernel replaces, kept here so regressions
/// in the masked form show up as a shrinking gap.
fn branchy_walk(births: &[u64], sizes: &[u32], tb: u64) -> (u64, usize) {
    let mut bytes = 0u64;
    let mut count = 0usize;
    for (&birth, &size) in births.iter().zip(sizes) {
        if birth > tb {
            bytes += size as u64;
            count += 1;
        }
    }
    (bytes, count)
}

fn bench_dead_walk(c: &mut Criterion) {
    let s = sizes(N, 5);
    let b = births(&s);
    // A mid-run boundary: half the entries are threatened, the worst
    // case for branch prediction in the branchy form once the births
    // are shuffled the way a death log orders them.
    let mut shuffled = b.clone();
    let mut rng = dtb_microbench::Mix::new(9);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.next() as usize % (i + 1));
    }
    let tb = b[N / 2];
    assert_eq!(
        born_after_stats(&shuffled, &s, tb),
        branchy_walk(&shuffled, &s, tb)
    );

    let mut group = c.benchmark_group("dead_walk/born_after_1m");
    group.bench_function("masked", |bench| {
        bench.iter(|| {
            black_box(born_after_stats(
                black_box(&shuffled),
                black_box(&s),
                black_box(tb),
            ))
        })
    });
    group.bench_function("branchy", |bench| {
        bench.iter(|| {
            black_box(branchy_walk(
                black_box(&shuffled),
                black_box(&s),
                black_box(tb),
            ))
        })
    });
    group.finish();

    c.bench_function("dead_walk/sum_sizes_1m", |bench| {
        bench.iter(|| black_box(sum_sizes(black_box(&s))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_dead_walk
}
criterion_main!(benches);
