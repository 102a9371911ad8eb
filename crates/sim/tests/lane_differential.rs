//! Differential testing for multi-collector passes: every lane of
//! [`Sim::run_lanes`] must be **bit-identical** to [`Sim::run`] of its
//! policy alone — report, scavenge history, curve, and typed error
//! alike — and, for the stock policies, to the per-event run over the
//! scan-based [`NaiveHeap`], the executable specification.
//!
//! Coverage, drawn at random per case:
//!
//! * any multiset of the six stock policies plus a `FailAfter` lane
//!   (so lanes drop out mid-pass while the others run on);
//! * allocation, growth and ceiling triggers (the memory triggers fire
//!   each lane at its own clocks);
//! * curve recording on and off, event and scavenge budgets;
//! * block sizes 1, 7 and the default;
//! * compiled, shard-store and synthetic sources.

use dtb_core::policy::{PolicyConfig, PolicyKind, TbPolicy};
use dtb_core::time::Bytes;
use dtb_sim::engine::{Sim, SimBudget, SimConfig};
use dtb_sim::fault::FailAfter;
use dtb_sim::trigger::Trigger;
use dtb_sim::NaiveHeap;
use dtb_trace::event::CompiledTrace;
use dtb_trace::lifetime::{LifetimeDist, SizeDist};
use dtb_trace::{
    ctc, ClassSpec, CompiledSource, EventSource, ObjectId, ShardReader, SynthSource, TraceBuilder,
    WorkloadSpec,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One allocation step: object size plus an optional death, scheduled
/// `die_after` allocation events later (0 = dies immediately).
type Op = (u32, Option<u8>);

fn compile_ops(ops: &[Op]) -> CompiledTrace {
    let mut b = TraceBuilder::new("lane-differential");
    b.exec_seconds(1.0);
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

fn synth_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: "lane-diff-synth".into(),
        description: String::new(),
        exec_seconds: 1.0,
        total_alloc: 3_000_000,
        initial_permanent: 50_000,
        initial_object_size: 512,
        classes: vec![
            ClassSpec::new(
                "short",
                0.6,
                SizeDist::Uniform {
                    min: 16,
                    max: 4_096,
                },
                LifetimeDist::Exponential { mean: 200_000.0 },
            ),
            ClassSpec::new(
                "medium",
                0.2,
                SizeDist::Uniform {
                    min: 16,
                    max: 4_096,
                },
                LifetimeDist::Exponential { mean: 1_500_000.0 },
            ),
            ClassSpec::new(
                "immortal",
                0.2,
                SizeDist::Fixed(256),
                LifetimeDist::Immortal,
            ),
        ],
        phase_period: None,
        seed,
    }
}

fn temp_dir() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dtb-lane-diff-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Lane code `0..=5` is a stock policy; anything else a `FULL` that
/// fails on its `fail_after + 1`-th decision.
fn build(lane: u8, fail_after: u64) -> Box<dyn TbPolicy> {
    match PolicyKind::ALL.get(lane as usize) {
        Some(kind) => kind.build(&PolicyConfig::paper()),
        None => Box::new(FailAfter::new(fail_after)),
    }
}

fn trigger(code: u8) -> Trigger {
    match code % 3 {
        0 => Trigger::paper(),
        1 => Trigger::MemoryGrowth {
            factor: 1.5,
            min_allocation: Bytes::new(250_000),
        },
        _ => Trigger::MemoryCeiling(Bytes::new(1_500_000)),
    }
}

fn budget(code: u8, n: u64) -> SimBudget {
    match code % 3 {
        0 => SimBudget::UNLIMITED,
        1 => SimBudget::events(n * 40),
        _ => SimBudget::scavenges(n % 12),
    }
}

/// A pass's knobs, drawn per case.
#[derive(Clone, Copy, Debug)]
struct Knobs {
    trigger: u8,
    curve: bool,
    budget: u8,
    budget_n: u64,
    block: usize,
    fail_after: u64,
}

impl Knobs {
    fn config(&self) -> SimConfig {
        let mut config = SimConfig {
            trigger: trigger(self.trigger),
            ..SimConfig::paper()
        }
        .with_budget(budget(self.budget, self.budget_n))
        .with_invariant_checks(true);
        if self.curve {
            config = config.with_curve();
        }
        config
    }
}

/// Runs `lanes` as one pass over `make()`, then each lane alone and, for
/// stock policies, per event over the naive heap; all must agree.
fn assert_lanes_match<'a>(
    lanes: &[u8],
    knobs: Knobs,
    make: &dyn Fn() -> Box<dyn EventSource + 'a>,
) -> Result<(), TestCaseError> {
    let config = knobs.config();
    let mut policies: Vec<Box<dyn TbPolicy>> =
        lanes.iter().map(|&l| build(l, knobs.fail_after)).collect();
    let pass = Sim::new(config)
        .block_events(knobs.block)
        .run_lanes(&mut *make(), &mut policies);
    prop_assert_eq!(pass.len(), lanes.len());
    for (i, (&lane, got)) in lanes.iter().zip(&pass).enumerate() {
        let alone = Sim::new(config)
            .block_events(knobs.block)
            .run(&mut *make(), &mut build(lane, knobs.fail_after));
        prop_assert_eq!(got, &alone, "lane {} ({}) vs its run alone", i, lane);
        if (lane as usize) < PolicyKind::ALL.len() {
            let naive = Sim::new(config)
                .heap::<NaiveHeap>()
                .block_events(1)
                .run(&mut *make(), &mut build(lane, knobs.fail_after));
            prop_assert_eq!(got, &naive, "lane {} ({}) vs the naive heap", i, lane);
        }
    }
    Ok(())
}

fn lanes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=6, 1..=8)
}

fn knobs() -> impl Strategy<Value = Knobs> {
    (
        0u8..3,
        any::<bool>(),
        0u8..3,
        1u64..=60,
        0usize..3,
        0u64..=6,
    )
        .prop_map(
            |(trigger, curve, budget, budget_n, block, fail_after)| Knobs {
                trigger,
                curve,
                budget,
                budget_n,
                block: [1, 7, 0][block],
                fail_after,
            },
        )
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((1u32..=60_000, prop::option::of(0u8..=30)), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn lanes_match_single_runs_over_compiled_traces(
        ops in ops(),
        lanes in lanes(),
        knobs in knobs(),
    ) {
        let trace = compile_ops(&ops);
        assert_lanes_match(&lanes, knobs, &|| Box::new(CompiledSource::new(&trace)))?;
    }

    #[test]
    fn lanes_match_single_runs_over_shard_stores(
        ops in ops(),
        lanes in lanes(),
        knobs in knobs(),
        stride in 1u64..=64,
    ) {
        let trace = compile_ops(&ops);
        let dir = temp_dir();
        ctc::write_shards(&dir, &trace, stride).expect("write store");
        let result = assert_lanes_match(&lanes, knobs, &|| {
            Box::new(ShardReader::open(&dir).expect("open store"))
        });
        std::fs::remove_dir_all(&dir).ok();
        result?;
    }

    #[test]
    fn lanes_match_single_runs_over_synth_sources(
        seed in 0u64..1_000,
        lanes in lanes(),
        knobs in knobs(),
    ) {
        let spec = synth_spec(seed);
        assert_lanes_match(&lanes, knobs, &|| {
            Box::new(SynthSource::new(spec.clone()).expect("valid spec"))
        })?;
    }
}
