//! Differential testing: streaming event sources against in-memory
//! replay, driven through the full engine (the PR-3 heap differential's
//! companion at the source layer).
//!
//! Two source families are exercised:
//!
//! * [`ShardReader`] — random compiled traces are written to an on-disk
//!   `DTBCTC02` store, then replayed record-at-a-time; and
//! * [`SynthSource`] — an unbounded generator, materialized once via
//!   [`collect_source`] to obtain its in-memory twin.
//!
//! For **all six policies** the streamed run must be identical to the
//! in-memory run — every scavenge record, report metric, and curve point
//! — and the streaming baselines must match the resident ones. Invariant
//! checks stay on, so a divergence inside the engine (not just at the
//! output) also fails the property.

use dtb_core::policy::{PolicyConfig, PolicyKind};
use dtb_sim::baseline::{live_report, live_report_source, no_gc_report, no_gc_report_source};
use dtb_sim::engine::{simulate, simulate_source, SimConfig};
use dtb_trace::event::CompiledTrace;
use dtb_trace::{collect_source, ctc, ObjectId, ShardReader, SynthSource, TraceBuilder};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One allocation step: object size plus an optional death, scheduled
/// `die_after` allocation events later (0 = dies immediately).
type Op = (u32, Option<u8>);

/// Builds a valid compiled trace from a random op list (the same shape as
/// `heap_differential.rs`: multi-megabyte traces with survivors, tenured
/// garbage, and untenuring opportunities).
fn compile_ops(ops: &[Op]) -> CompiledTrace {
    let mut b = TraceBuilder::new("source-differential");
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

/// A fresh store directory per case; cases run concurrently across tests.
fn temp_dir() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dtb-source-diff-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts a streamed run equals its in-memory twin for all six policies
/// plus both baselines. `make_source` builds a fresh cursor per policy
/// (sources are consumed by reading).
fn assert_source_matches_trace(
    trace: &CompiledTrace,
    mut make_source: impl FnMut() -> Box<dyn dtb_trace::EventSource>,
) -> Result<(), TestCaseError> {
    let config = SimConfig::paper().with_curve().with_invariant_checks(true);
    let policy_cfg = PolicyConfig::paper();
    for kind in PolicyKind::ALL {
        let resident = {
            let mut policy = kind.build(&policy_cfg);
            simulate(trace, &mut policy, &config)
        };
        let streamed = {
            let mut policy = kind.build(&policy_cfg);
            simulate_source(&mut *make_source(), &mut policy, &config)
        };
        match (resident, streamed) {
            (Ok(resident), Ok(streamed)) => {
                prop_assert_eq!(
                    &resident.report.history,
                    &streamed.report.history,
                    "{}: scavenge histories diverge",
                    kind
                );
                prop_assert_eq!(
                    &resident.report,
                    &streamed.report,
                    "{}: reports diverge",
                    kind
                );
                prop_assert_eq!(
                    &resident.curve,
                    &streamed.curve,
                    "{}: memory curves diverge",
                    kind
                );
            }
            (resident, streamed) => prop_assert!(
                false,
                "{}: run outcomes diverge: resident={:?} streamed={:?}",
                kind,
                resident.err(),
                streamed.err()
            ),
        }
    }
    prop_assert_eq!(
        no_gc_report_source(&mut *make_source()).expect("stream stats"),
        no_gc_report(trace),
        "No GC baselines diverge"
    );
    prop_assert_eq!(
        live_report_source(&mut *make_source()).expect("stream stats"),
        live_report(trace),
        "LIVE baselines diverge"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replaying an on-disk shard store is bit-identical to simulating
    /// the in-memory trace it was written from, for every policy, every
    /// baseline, and any stride.
    #[test]
    fn shard_store_replay_matches_in_memory(
        ops in ops(),
        stride in 1u64..=101,
    ) {
        let trace = compile_ops(&ops);
        let dir = temp_dir();
        ctc::write_shards(&dir, &trace, stride).expect("write store");
        assert_source_matches_trace(&trace, || {
            Box::new(ShardReader::open(&dir).expect("open store"))
        })?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Simulating a synthetic generator on the fly is bit-identical to
    /// materializing its records first and simulating those.
    #[test]
    fn synth_source_replay_matches_materialized_trace(
        seed in 0u64..=u64::MAX - 1,
        total_kb in 2_000u64..=6_000,
    ) {
        let spec = dtb_trace::WorkloadSpec {
            seed,
            total_alloc: total_kb * 1_000,
            ..dtb_trace::programs::Program::Cfrac.spec()
        };
        // The source's own record stream, materialized once, is the
        // in-memory twin (SynthSource deliberately differs from
        // `WorkloadSpec::generate`, which snaps deaths to Free-flush
        // clocks — see its docs).
        let trace = collect_source(
            &mut SynthSource::new(spec.clone()).expect("valid spec")
        ).expect("synth never fails");
        assert_source_matches_trace(&trace, || {
            Box::new(SynthSource::new(spec.clone()).expect("valid spec"))
        })?;
    }
}
