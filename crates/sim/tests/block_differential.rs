//! Differential testing for the block-structured drive loop: a run at
//! *any* block size must be **bit-identical** to the per-event reference
//! (`block_events(1)`, which routes every event through the exact
//! per-event body) — reports, scavenge histories, memory curves, and
//! typed error paths alike.
//!
//! Coverage:
//!
//! * all six policies over in-memory, sharded on-disk, and synthetic
//!   sources, at block sizes chosen to straddle scavenge triggers (a
//!   trigger firing mid-block forces the segmented fast path to stop
//!   exactly where the per-event path scavenges);
//! * a trigger dense enough to fire many times inside one block;
//! * typed errors — watchdog budgets, malformed trace shapes, and shard
//!   corruption — which must surface with identical payloads and clocks.

use dtb_core::policy::{PolicyConfig, PolicyKind};
use dtb_core::time::Bytes;
use dtb_sim::engine::{Sim, SimBudget, SimConfig, SimRun};
use dtb_sim::metrics::exact_memory_means;
use dtb_sim::trigger::Trigger;
use dtb_sim::SimError;
use dtb_trace::event::CompiledTrace;
use dtb_trace::lifetime::{LifetimeDist, SizeDist};
use dtb_trace::{
    ctc, ClassSpec, CompiledSource, EventSource, ObjectId, ShardReader, SynthSource, TraceBuilder,
    WorkloadSpec,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Block sizes that deliberately misalign with everything: odd sizes
/// smaller than the events-per-trigger period, and one larger than most
/// whole traces.
const BLOCKS: &[usize] = &[3, 17, 1024];

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dtb-block-diff-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One allocation step: object size plus an optional death, scheduled
/// `die_after` allocation events later (0 = dies immediately).
type Op = (u32, Option<u8>);

fn compile_ops(ops: &[Op]) -> CompiledTrace {
    let mut b = TraceBuilder::new("block-differential");
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

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((1u32..=60_000, prop::option::of(0u8..=30)), 1..400)
}

fn run_at(
    source: &mut (impl EventSource + ?Sized),
    kind: PolicyKind,
    config: &SimConfig,
    block: usize,
) -> Result<SimRun, SimError> {
    let mut policy = kind.build(&PolicyConfig::paper());
    Sim::new(*config)
        .block_events(block)
        .run(source, &mut policy)
}

/// Both runs succeeded identically, or both failed identically.
fn assert_same(
    kind: PolicyKind,
    block: usize,
    reference: &Result<SimRun, SimError>,
    blocked: &Result<SimRun, SimError>,
) -> Result<(), TestCaseError> {
    match (reference, blocked) {
        (Ok(r), Ok(b)) => {
            prop_assert_eq!(
                &r.report.history,
                &b.report.history,
                "{} block {}: scavenge histories diverge",
                kind,
                block
            );
            prop_assert_eq!(
                &r.report,
                &b.report,
                "{} block {}: reports diverge",
                kind,
                block
            );
            prop_assert_eq!(
                &r.curve,
                &b.curve,
                "{} block {}: curves diverge",
                kind,
                block
            );
        }
        (Err(r), Err(b)) => {
            prop_assert_eq!(
                format!("{r:?}"),
                format!("{b:?}"),
                "{} block {}: errors diverge",
                kind,
                block
            );
        }
        (r, b) => prop_assert!(
            false,
            "{} block {}: outcomes diverge: reference={:?} blocked={:?}",
            kind,
            block,
            r.as_ref().err(),
            b.as_ref().err()
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// In-memory and sharded sources: every block size reproduces the
    /// per-event reference for all six policies.
    #[test]
    fn blocked_runs_match_per_event_reference(ops in ops()) {
        let trace = compile_ops(&ops);
        let config = SimConfig::paper().with_curve().with_invariant_checks(true);
        let dir = temp_dir("prop");
        ctc::write_shards(&dir, &trace, 16).expect("write store");
        for kind in PolicyKind::ALL {
            let reference = run_at(&mut CompiledSource::new(&trace), kind, &config, 1);
            for &block in BLOCKS {
                let resident = run_at(&mut CompiledSource::new(&trace), kind, &config, block);
                assert_same(kind, block, &reference, &resident)?;
                let mut sharded = ShardReader::open(&dir).expect("open store");
                let streamed = run_at(&mut sharded, kind, &config, block);
                assert_same(kind, block, &reference, &streamed)?;
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Synthetic sources: the generator read through the default
    /// block path reproduces the reference too.
    #[test]
    fn blocked_synth_runs_match_per_event_reference(seed in 0u64..1_000) {
        let spec = WorkloadSpec {
            name: "block-diff-synth".into(),
            description: String::new(),
            exec_seconds: 1.0,
            total_alloc: 3_000_000,
            initial_permanent: 50_000,
            initial_object_size: 512,
            classes: vec![
                ClassSpec::new(
                    "short",
                    0.7,
                    SizeDist::Uniform { min: 16, max: 4_096 },
                    LifetimeDist::Exponential { mean: 200_000.0 },
                ),
                ClassSpec::new("immortal", 0.3, SizeDist::Fixed(256), LifetimeDist::Immortal),
            ],
            phase_period: None,
            seed,
        };
        let config = SimConfig::paper().with_curve().with_invariant_checks(true);
        for kind in PolicyKind::ALL {
            let reference = run_at(
                &mut SynthSource::new(spec.clone()).unwrap(),
                kind,
                &config,
                1,
            );
            for &block in BLOCKS {
                let blocked = run_at(
                    &mut SynthSource::new(spec.clone()).unwrap(),
                    kind,
                    &config,
                    block,
                );
                assert_same(kind, block, &reference, &blocked)?;
            }
        }
    }
}

/// A trigger dense enough to fire every ~5 events: blocks of every size
/// straddle many scavenges, so nearly every segment ends on a trigger.
#[test]
fn trigger_denser_than_any_block_still_matches() {
    let mut b = TraceBuilder::new("dense-trigger");
    b.exec_seconds(1.0);
    let mut ids = Vec::new();
    for i in 0..2_000 {
        ids.push(b.alloc(10_000));
        if i % 3 == 0 {
            if let Some(id) = ids.pop() {
                b.free(id);
            }
        }
    }
    let trace = b.finish().compile().unwrap();
    let config = SimConfig {
        trigger: Trigger::Allocation(Bytes::new(50_000)),
        ..SimConfig::paper()
    }
    .with_curve()
    .with_invariant_checks(true);
    for kind in PolicyKind::ALL {
        let reference = run_at(&mut CompiledSource::new(&trace), kind, &config, 1)
            .expect("reference run succeeds");
        assert!(
            reference.report.collections > 300,
            "the trigger must fire many times per block"
        );
        for &block in BLOCKS {
            let blocked = run_at(&mut CompiledSource::new(&trace), kind, &config, block)
                .expect("blocked run succeeds");
            assert_eq!(reference, blocked, "{kind} block {block}");
        }
    }
}

/// Typed error paths surface identically at every block size: watchdog
/// budgets, malformed trace shapes, and shard corruption.
#[test]
fn typed_errors_match_the_reference_at_every_block_size() {
    let trace = {
        let mut b = TraceBuilder::new("errors");
        b.exec_seconds(1.0);
        for _ in 0..600 {
            let id = b.alloc(10_000);
            b.free(id);
        }
        b.finish().compile().unwrap()
    };
    let config = SimConfig::paper().with_invariant_checks(true);
    let kind = PolicyKind::Full;

    // Event budget trips mid-stream with the same clock.
    let budgeted = config.with_budget(SimBudget::events(137));
    let reference = run_at(&mut CompiledSource::new(&trace), kind, &budgeted, 1).unwrap_err();
    for &block in BLOCKS {
        let blocked = run_at(&mut CompiledSource::new(&trace), kind, &budgeted, block).unwrap_err();
        assert_eq!(reference, blocked, "budget error at block {block}");
    }

    // Malformed shapes: reversed births and death-before-birth.
    for bad in [
        dtb_trace::corrupt::reversed_births(&trace),
        dtb_trace::corrupt::death_before_birth(&trace, 41),
    ] {
        let reference = run_at(&mut CompiledSource::new(&bad), kind, &config, 1).unwrap_err();
        for &block in BLOCKS {
            let blocked = run_at(&mut CompiledSource::new(&bad), kind, &config, block).unwrap_err();
            assert_eq!(reference, blocked, "shape error at block {block}");
        }
    }

    // Shard corruption: the same typed source error at the same clock.
    let dir = temp_dir("corrupt");
    ctc::write_shards(&dir, &trace, 64).unwrap();
    let shard = dir.join("shard-00001.dtbctc");
    let mut raw = std::fs::read(&shard).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x20;
    std::fs::write(&shard, raw).unwrap();
    let reference = run_at(&mut ShardReader::open(&dir).unwrap(), kind, &config, 1).unwrap_err();
    assert!(matches!(reference, SimError::Source { .. }));
    for &block in BLOCKS {
        let blocked =
            run_at(&mut ShardReader::open(&dir).unwrap(), kind, &config, block).unwrap_err();
        assert_eq!(
            format!("{reference:?}"),
            format!("{blocked:?}"),
            "corruption error at block {block}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// 2^53: below it a lane's f64 memory sums are exact integers, and the
/// drive loop folds a segment in one step; past it, per sample.
const EXACT: u128 = 1 << 53;

/// Builds a trace on the allocation clock: objects with lifetimes in
/// bytes, freed once the clock passes their death.
struct ClockedTrace {
    builder: TraceBuilder,
    clock: u64,
    /// (death clock, id) of every object not yet freed.
    pending: Vec<(u64, ObjectId)>,
    rng: u64,
}

impl ClockedTrace {
    /// SplitMix64.
    fn next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn alloc(&mut self, size: u32, life: Option<u64>) {
        let (clock, builder) = (self.clock, &mut self.builder);
        self.pending.retain(|&(death, id)| {
            if death <= clock {
                builder.free(id);
            }
            death > clock
        });
        let id = self.builder.alloc(size);
        self.clock += size as u64;
        if let Some(life) = life {
            self.pending.push((self.clock + life, id));
        }
    }

    /// `bytes` of churn in objects of 16 bytes up to `max_size`: three in
    /// five die within 50 KB, one in five lives 1–3 MB, past a scavenge,
    /// and one in five 4–12 MB, past four.
    fn churn(&mut self, bytes: u64, max_size: u64) {
        let until = self.clock + bytes;
        while self.clock < until {
            let size = 16 + (self.next() % (max_size - 15)) as u32;
            let life = match self.next() % 5 {
                0 => 1_000_000 + self.next() % 2_000_000,
                1 => 4_000_000 + self.next() % 8_000_000,
                _ => self.next() % 50_000,
            };
            self.alloc(size, Some(life));
        }
    }
}

/// A trace whose lanes leave the exact range mid-run, each at its own
/// point. Four 16 MiB immortals start it. Then come 150 MiB of churn in
/// objects under 16 KiB, so most events fall inside segments, and
/// collectors that tenure keep garbage the others reclaim; the lanes'
/// sums end it between 2^53 and 2^54, where a fold that rounds
/// differently from the per-sample order still shows in the mean's
/// bits. With `past_products`, three immortals near `u32::MAX` bytes and
/// churn in objects up to 1 MiB follow: from there on, `memory × size`
/// products pass 2^53.
fn exact_range_exit_trace(past_products: bool) -> CompiledTrace {
    let mut t = ClockedTrace {
        builder: TraceBuilder::new("exact-range-exit"),
        clock: 0,
        pending: Vec::new(),
        rng: 0x5eed,
    };
    t.builder.exec_seconds(1.0);
    for _ in 0..4 {
        t.alloc(16 << 20, None);
    }
    t.churn(150 << 20, 16 << 10);
    if past_products {
        for k in 0..3 {
            t.alloc(u32::MAX - 4_096 * k, None);
        }
        t.churn(8 << 20, 1 << 20);
    }
    t.builder
        .finish()
        .compile()
        .expect("builder traces are valid")
}

/// Each allocation's memory sample `(memory, size)` in a run, memory
/// recomputed from the run's scavenge history: everything allocated
/// before it, less what the scavenges before it reclaimed.
fn memory_samples(trace: &CompiledTrace, run: &SimRun) -> Vec<(u64, u64)> {
    let mut scavenges = run.report.history.iter().peekable();
    let mut reclaimed = 0u64;
    trace
        .births()
        .iter()
        .zip(trace.sizes())
        .map(|(&birth, &size)| {
            let before = birth - size as u64;
            while let Some(r) = scavenges.next_if(|r| r.at.as_u64() <= before) {
                reclaimed += r.reclaimed.as_u64();
            }
            (before - reclaimed, size as u64)
        })
        .collect()
}

/// Lanes leave the exact range mid-run, inside a segment, at different
/// segments, and end either just past it or after products past 2^53;
/// every block size and the six-lane pass still equal the per-event
/// reference, down to the bits of each unrounded memory mean.
#[test]
fn lanes_leaving_the_exact_range_mid_run_match_the_reference() {
    for past_products in [false, true] {
        lanes_match_the_reference(&exact_range_exit_trace(past_products), past_products);
    }
}

fn lanes_match_the_reference(trace: &CompiledTrace, past_products: bool) {
    let config = SimConfig::paper().with_curve().with_invariant_checks(true);
    let mut crossings = Vec::new();
    let mut references = Vec::new();
    let mut reference_means = Vec::new();
    for kind in PolicyKind::ALL {
        let (reference, means) =
            exact_memory_means(|| run_at(&mut CompiledSource::new(trace), kind, &config, 1));
        let reference = reference.unwrap_or_else(|e| panic!("{kind}: {e}"));
        let samples = memory_samples(trace, &reference);
        let mut sum = 0u128;
        let crossing = samples
            .iter()
            .position(|&(mem, size)| {
                sum += mem as u128 * size as u128;
                sum >= EXACT
            })
            .expect("the lane leaves the exact range");
        // Every curve sample and scavenge ends a segment on the
        // per-event body; the crossing is neither, so a segment folds it.
        let at = trace.births()[crossing];
        assert!(
            reference.curve.points().iter().all(|p| p.at.as_u64() != at),
            "{kind} leaves the exact range at a segment boundary"
        );
        let scavenges = reference
            .report
            .history
            .iter()
            .filter(|r| r.at.as_u64() < at)
            .count();
        assert!(
            scavenges > 10,
            "{kind} leaves the exact range after {scavenges} scavenges"
        );
        let total: u128 = samples.iter().map(|&(m, s)| m as u128 * s as u128).sum();
        assert_eq!(
            total >= 2 * EXACT,
            past_products,
            "{kind}: the sum ends at {total}, against 2^54"
        );
        assert_eq!(
            samples
                .iter()
                .any(|&(mem, size)| mem as u128 * size as u128 >= EXACT),
            past_products,
            "{kind}: products against 2^53"
        );
        crossings.push(scavenges);
        for &block in BLOCKS {
            let (blocked, blocked_means) = exact_memory_means(|| {
                run_at(&mut CompiledSource::new(trace), kind, &config, block)
            });
            assert_eq!(Ok(&reference), blocked.as_ref(), "{kind} block {block}");
            assert_eq!(blocked_means, means, "{kind} block {block}: mean bits");
        }
        references.push(reference);
        reference_means.extend(means);
    }
    // Scavenges end segments, so lanes with different counts before
    // their crossing leave the exact range at different segments.
    crossings.sort_unstable();
    crossings.dedup();
    assert!(
        crossings.len() >= 3,
        "lanes leave the exact range together: {crossings:?}"
    );

    let mut policies: Vec<_> = PolicyKind::ALL
        .iter()
        .map(|k| k.build(&PolicyConfig::paper()))
        .collect();
    let (lanes, lane_means) =
        exact_memory_means(|| Sim::new(config).run_trace_lanes(trace, &mut policies));
    for ((kind, lane), reference) in PolicyKind::ALL.into_iter().zip(lanes).zip(&references) {
        assert_eq!(Ok(reference), lane.as_ref(), "{kind} lane");
    }
    assert_eq!(lane_means, reference_means, "lane mean bits");
}
