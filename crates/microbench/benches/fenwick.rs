//! Fenwick kernel microbenches — the live index the oracle heap runs:
//! append (per-slot `push` vs block `extend`), the `prefix` walk, the
//! branchless `lower_bound` descent, and a batched death drain
//! (`sub_many`) vs repeated single `sub` calls.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use dtb_core::fenwick::Fenwick;
use dtb_microbench::{build_fenwick, Mix};

const N: usize = 100_000;
const BATCH: usize = 4_096;

fn bench_fenwick(c: &mut Criterion) {
    let values: Vec<u64> = {
        let mut rng = Mix::new(3);
        (0..N).map(|_| 16 + rng.next() % 4096).collect()
    };

    let mut group = c.benchmark_group("fenwick/build_100k");
    group.bench_function("push", |b| {
        b.iter(|| {
            let mut tree = Fenwick::with_capacity(N);
            for &v in &values {
                tree.push(v);
            }
            black_box(tree.total())
        })
    });
    group.bench_function("extend_blocks_1024", |b| {
        b.iter(|| {
            let mut tree = Fenwick::with_capacity(N);
            for chunk in values.chunks(1024) {
                tree.extend(chunk.iter().copied());
            }
            black_box(tree.total())
        })
    });
    group.finish();

    let tree = build_fenwick(N, 3);
    let counts: Vec<usize> = {
        let mut rng = Mix::new(17);
        (0..BATCH).map(|_| rng.next() as usize % (N + 1)).collect()
    };
    c.bench_function("fenwick/prefix_4096_queries", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &count in &counts {
                acc = acc.wrapping_add(tree.prefix(count));
            }
            black_box(acc)
        })
    });

    let targets: Vec<u64> = {
        let mut rng = Mix::new(23);
        let total = tree.total();
        (0..BATCH).map(|_| rng.next() % (total + 1)).collect()
    };
    c.bench_function("fenwick/lower_bound_4096_descents", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &target in &targets {
                acc = acc.wrapping_add(tree.lower_bound(target));
            }
            black_box(acc)
        })
    });

    // Every slot holds at least 16 bytes, and a removal takes at most 4,
    // so a slot drawn up to four times never underflows.
    let (slots, deltas): (Vec<u32>, Vec<u64>) = {
        let mut rng = Mix::new(29);
        (0..BATCH)
            .map(|_| ((rng.next() as u32) % N as u32, 1 + rng.next() % 4))
            .unzip()
    };
    let mut group = c.benchmark_group("fenwick/deaths_4096");
    group.bench_function("sub_many", |b| {
        b.iter_batched(
            || build_fenwick(N, 3),
            |mut tree| {
                tree.sub_many(&slots, &deltas);
                black_box(tree.total())
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("repeated_sub", |b| {
        b.iter_batched(
            || build_fenwick(N, 3),
            |mut tree| {
                for (&slot, &delta) in slots.iter().zip(&deltas) {
                    tree.sub(slot as usize, delta);
                }
                black_box(tree.total())
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_fenwick
}
criterion_main!(benches);
