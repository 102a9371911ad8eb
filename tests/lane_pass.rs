//! One pass per column: the six collectors run as lanes of one engine
//! pass produce exactly what six separate runs produce, an evaluation
//! column (which runs its collector rows as one pass) equals its cells
//! computed one at a time, and lanes whose memory sums leave the range
//! where a segment folds in one step equal the per-event engine.

use dtb::core::policy::{PolicyConfig, PolicyKind, Row};
use dtb::sim::baseline::{live_report, no_gc_report};
use dtb::sim::engine::{simulate, Sim, SimConfig};
use dtb::sim::exec::Evaluation;
use dtb::trace::event::CompiledTrace;
use dtb::trace::programs::Program;
use dtb::trace::synth::WorkloadSpec;
use dtb::trace::TraceBuilder;
use std::collections::VecDeque;
use std::sync::Arc;

/// A small CFRAC-shaped trace: 3 MB of allocation, three scavenges.
fn small_trace() -> CompiledTrace {
    WorkloadSpec {
        total_alloc: 3_000_000,
        ..Program::Cfrac.spec()
    }
    .compile()
    .expect("valid spec")
}

#[test]
fn six_lanes_equal_six_single_runs() {
    let trace = small_trace();
    let cfg = PolicyConfig::paper();
    // Curves on and invariant checks on: every lane must reproduce its
    // single run's report, history and curve bit for bit.
    let sim = SimConfig::paper().with_curve().with_invariant_checks(true);
    let mut policies: Vec<_> = PolicyKind::ALL.iter().map(|k| k.build(&cfg)).collect();
    let lanes = Sim::new(sim).run_trace_lanes(&trace, &mut policies);
    assert_eq!(lanes.len(), PolicyKind::ALL.len());
    for (kind, lane) in PolicyKind::ALL.into_iter().zip(lanes) {
        let lane = lane.unwrap_or_else(|e| panic!("{kind}: {e}"));
        let single = simulate(&trace, &mut kind.build(&cfg), &sim).expect("single run");
        assert!(lane.report.collections > 0, "{kind}: no scavenge");
        assert_eq!(lane.report.history, single.report.history, "{kind}");
        assert_eq!(lane, single, "{kind}");
    }
}

#[test]
fn an_evaluation_column_equals_its_cells_run_one_at_a_time() {
    let trace = Arc::new(small_trace());
    let matrix = Evaluation::new().trace(trace.clone()).parallelism(1).run();
    assert!(matrix.is_complete());
    let column = &matrix.columns()[0];
    assert_eq!(column.cells.len(), PolicyKind::ALL.len() + 2);
    for cell in &column.cells {
        let report = cell.report().expect("completed");
        let want = match &cell.row {
            Row::Policy(kind) => {
                simulate(
                    &trace,
                    &mut kind.build(&PolicyConfig::paper()),
                    &SimConfig::paper(),
                )
                .expect("single run")
                .report
            }
            Row::NoGc => no_gc_report(&trace),
            Row::Live => live_report(&trace),
            Row::Custom(name) => panic!("no custom row was asked for: {name}"),
        };
        assert_eq!(report, &want, "{}", cell.row);
    }
}

/// A trace whose memory sums cross 2^53 mid-run: a 1 GiB immortal, then
/// about 12 MB of 1–7 KiB objects, half of them dying a few allocations
/// later. Memory stays just over 2^30 bytes, so the sums cross 2^53
/// after about 8 MB of churn, eight scavenges in.
fn exact_range_exit_trace() -> CompiledTrace {
    let mut b = TraceBuilder::new("exact-range-exit");
    b.exec_seconds(1.0);
    b.alloc(1 << 30);
    let mut young = VecDeque::new();
    for i in 0..3_000u32 {
        let id = b.alloc(1_024 + i * 7_919 % 6_144);
        if i % 2 == 0 {
            young.push_back(id);
        }
        if young.len() > 4 {
            b.free(young.pop_front().expect("not empty"));
        }
    }
    b.finish().compile().expect("builder traces are valid")
}

#[test]
fn lanes_past_2_pow_53_equal_per_event_single_runs() {
    let trace = exact_range_exit_trace();
    // Memory is at least 2^30 bytes after the immortal and at most
    // 2^30 bytes plus the churn, which bounds the sums either side.
    let churn = |n: usize| -> u128 { trace.sizes()[1..n].iter().map(|&s| s as u128).sum() };
    let all = trace.len();
    assert!((1u128 << 30) * churn(all) >= 1 << 53, "the sums cross 2^53");
    let half = churn(all / 2);
    assert!(
        ((1u128 << 30) + half) * half < 1 << 53,
        "the first half is exact"
    );

    let cfg = PolicyConfig::paper();
    let sim = SimConfig::paper().with_curve().with_invariant_checks(true);
    let mut policies: Vec<_> = PolicyKind::ALL.iter().map(|k| k.build(&cfg)).collect();
    let lanes = Sim::new(sim).run_trace_lanes(&trace, &mut policies);
    for (kind, lane) in PolicyKind::ALL.into_iter().zip(lanes) {
        let lane = lane.unwrap_or_else(|e| panic!("{kind}: {e}"));
        let reference = Sim::new(sim)
            .block_events(1)
            .run_trace(&trace, &mut kind.build(&cfg))
            .expect("per-event run");
        assert!(lane.report.collections > 8, "{kind}: too few scavenges");
        assert_eq!(lane, reference, "{kind}");
    }
}
