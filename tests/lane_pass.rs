//! One pass per column: the six collectors run as lanes of one engine
//! pass produce exactly what six separate runs produce, and an
//! evaluation column (which runs its collector rows as one pass) equals
//! its cells computed one at a time.

use dtb::core::policy::{PolicyConfig, PolicyKind, Row};
use dtb::sim::baseline::{live_report, no_gc_report};
use dtb::sim::engine::{simulate, Sim, SimConfig};
use dtb::sim::exec::Evaluation;
use dtb::trace::event::CompiledTrace;
use dtb::trace::programs::Program;
use dtb::trace::synth::WorkloadSpec;
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
