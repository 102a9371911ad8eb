//! What the `No GC` and `LIVE` rows of Table 2 mean, checked from the
//! definition rather than against another kernel.
//!
//! On small traces the rows are compared with a brute-force walk over
//! every allocation clock in exact integers: at clock `x` an object is
//! live when `birth <= x < death`, and the peak also counts the instant
//! an object is born, before the deaths at that clock. On generated
//! traces the two rows must bracket each other: nothing can be live that
//! was never allocated.

use dtb::sim::baseline::{live_report, no_gc_report};
use dtb::trace::event::CompiledTrace;
use dtb::trace::lifetime::{LifetimeDist, SizeDist};
use dtb::trace::synth::{ClassSpec, WorkloadSpec};
use dtb::trace::{ObjectId, TraceBuilder};
use proptest::prelude::*;

/// `(peak live bytes, sum over clocks 0..end of live bytes)`, by brute
/// force over every clock.
fn brute_force(trace: &CompiledTrace) -> (u64, u128) {
    let lives: Vec<(u64, u64, u64)> = trace
        .lives()
        .map(|l| {
            let death = l.death.map_or(u64::MAX, |d| d.as_u64());
            (l.birth.as_u64(), death, u64::from(l.size))
        })
        .collect();
    let end = trace.end.as_u64();
    let mut peak = 0u64;
    let mut sum = 0u128;
    for x in 0..=end {
        let at_instant: u64 = lives
            .iter()
            .filter(|&&(birth, death, _)| birth <= x && x <= death)
            .map(|&(_, _, size)| size)
            .sum();
        peak = peak.max(at_instant);
        if x < end {
            let held: u64 = lives
                .iter()
                .filter(|&&(birth, death, _)| birth <= x && x < death)
                .map(|&(_, _, size)| size)
                .sum();
            sum += u128::from(held);
        }
    }
    (peak, sum)
}

/// A small trace: each op allocates `size` bytes and, optionally, frees
/// the object `die_after` allocations later (0 = at its own birth).
fn small_trace(ops: &[(u32, Option<u8>)]) -> CompiledTrace {
    let mut b = TraceBuilder::new("brute");
    let mut due: Vec<(usize, ObjectId)> = Vec::new();
    for (i, &(size, die_after)) in ops.iter().enumerate() {
        let id = b.alloc(size);
        if let Some(k) = die_after {
            due.push((i + usize::from(k), id));
        }
        due.retain(|&(at, id)| {
            if at <= i {
                b.free(id);
            }
            at > i
        });
    }
    b.finish().compile().expect("builder traces are valid")
}

fn spec(total_kb: u64, immortal: f64, mean_life: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: "bracket".into(),
        description: String::new(),
        exec_seconds: 1.0,
        total_alloc: total_kb * 1_000,
        initial_permanent: 20_000,
        initial_object_size: 400,
        classes: vec![
            ClassSpec::new(
                "imm",
                immortal,
                SizeDist::Uniform { min: 16, max: 512 },
                LifetimeDist::Immortal,
            ),
            ClassSpec::new(
                "short",
                1.0 - immortal,
                SizeDist::PowerOfTwo { min: 16, max: 256 },
                LifetimeDist::Exponential { mean: mean_life },
            ),
        ],
        phase_period: None,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rows_match_a_brute_force_walk_over_every_clock(
        ops in prop::collection::vec((1u32..=64, prop::option::of(0u8..=5)), 0..40),
    ) {
        let trace = small_trace(&ops);
        let end = trace.end.as_u64();
        let (peak, sum) = brute_force(&trace);
        let live = live_report(&trace);
        let nogc = no_gc_report(&trace);

        prop_assert_eq!(live.mem_max.as_u64(), peak);
        prop_assert_eq!(nogc.mem_max.as_u64(), end);
        if end > 0 {
            let exact_live = (sum / u128::from(end)) as u64;
            prop_assert!(live.mem_mean.as_u64().abs_diff(exact_live) <= 1,
                "live mean {} vs exact {}", live.mem_mean.as_u64(), exact_live);
            // No GC holds `x` bytes over `[x, x + 1)`: the ramp averages
            // to half the total.
            prop_assert!(nogc.mem_mean.as_u64().abs_diff(end / 2) <= 1,
                "no-gc mean {} vs {}", nogc.mem_mean.as_u64(), end / 2);
        } else {
            prop_assert_eq!(live.mem_mean.as_u64(), 0);
            prop_assert_eq!(nogc.mem_mean.as_u64(), 0);
        }
    }

    #[test]
    fn live_never_exceeds_no_gc_on_generated_traces(
        total_kb in 100u64..=600,
        immortal in 0.0f64..=0.4,
        mean_life in 500.0f64..=50_000.0,
        seed in any::<u64>(),
    ) {
        let trace = spec(total_kb, immortal, mean_life, seed)
            .compile()
            .expect("valid spec");
        let live = live_report(&trace);
        let nogc = no_gc_report(&trace);
        prop_assert!(live.mem_max <= nogc.mem_max);
        prop_assert!(live.mem_mean <= nogc.mem_mean);
        prop_assert!(live.mem_mean <= live.mem_max);
    }
}
