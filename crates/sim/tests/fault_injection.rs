//! Fault-injection harness: inject every failure class the taxonomy
//! names — panicking policies, typed policy errors, out-of-range
//! boundaries, watchdog budget trips, corrupted traces — and assert the
//! framework contains each one: the offending cell fails with the right
//! typed cause, every healthy cell matches a fault-free run cell-for-cell,
//! and no panic ever escapes `Evaluation::run`.

use dtb_core::policy::{PolicyKind, Row};
use dtb_sim::engine::{SimBudget, SimConfig};
use dtb_sim::error::{BudgetKind, InvariantViolation, SimError};
use dtb_sim::exec::{Evaluation, FailureCause, Matrix};
use dtb_sim::fault::{FailAfter, FutureBoundary, InfiniteBoundary, NanBoundary, PanicAfter};
use dtb_trace::corrupt;
use dtb_trace::programs::Program;
use dtb_trace::TraceBuilder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const HEALTHY: [PolicyKind; 3] = [PolicyKind::Full, PolicyKind::Fixed1, PolicyKind::DtbFm];

/// The fault-free control: the same healthy rows every faulted run below
/// carries alongside its injected fault.
fn control() -> Matrix {
    Evaluation::new()
        .programs([Program::Cfrac])
        .policies(HEALTHY)
        .baselines(false)
        .run()
}

fn faulted(
    name: &'static str,
    factory: impl Fn() -> Box<dyn dtb_core::policy::TbPolicy> + Send + Sync + 'static,
) -> Matrix {
    Evaluation::new()
        .programs([Program::Cfrac])
        .policies(HEALTHY)
        .custom_policy(name, move |_| factory())
        .baselines(false)
        .run()
}

/// Asserts the matrix has exactly one failure, in the named custom row,
/// and returns its cause.
fn single_failure(matrix: &Matrix, name: &str) -> FailureCause {
    let failures: Vec<_> = matrix.failures().collect();
    assert_eq!(failures.len(), 1, "exactly one cell fails: {failures:?}");
    assert_eq!(failures[0].row, Row::Custom(name.into()));
    assert!(!matrix.is_complete());
    failures[0].cause.clone()
}

/// Asserts every healthy cell of `matrix` equals the fault-free control
/// cell-for-cell.
fn healthy_cells_match(matrix: &Matrix, control: &Matrix) {
    for kind in HEALTHY {
        assert_eq!(
            matrix.get(Program::Cfrac, kind).expect("healthy cell"),
            control.get(Program::Cfrac, kind).expect("control cell"),
            "{kind:?} diverged from the fault-free run"
        );
    }
}

#[test]
fn panicking_policy_is_contained_to_its_cell() {
    let control = control();
    let matrix = catch_unwind(AssertUnwindSafe(|| {
        faulted("FAULT-PANIC", || Box::new(PanicAfter::new(1)))
    }))
    .expect("no panic escapes Evaluation::run");

    let cause = single_failure(&matrix, "FAULT-PANIC");
    match cause {
        FailureCause::Panic(msg) => assert!(msg.contains("injected policy panic"), "{msg}"),
        other => panic!("expected a caught panic, got {other:?}"),
    }
    healthy_cells_match(&matrix, &control);
}

#[test]
fn panicking_factory_is_contained_to_its_cell() {
    let control = control();
    let matrix = catch_unwind(AssertUnwindSafe(|| {
        faulted("FAULT-FACTORY", || panic!("factory exploded"))
    }))
    .expect("no panic escapes Evaluation::run");

    let cause = single_failure(&matrix, "FAULT-FACTORY");
    match cause {
        FailureCause::Panic(msg) => assert!(msg.contains("factory exploded"), "{msg}"),
        other => panic!("expected a caught panic, got {other:?}"),
    }
    healthy_cells_match(&matrix, &control);
}

#[test]
fn non_finite_boundaries_fail_as_typed_policy_errors() {
    let control = control();
    for (name, matrix) in [
        ("FAULT-NAN", faulted("FAULT-NAN", || Box::new(NanBoundary))),
        (
            "FAULT-INF",
            faulted("FAULT-INF", || Box::new(InfiniteBoundary)),
        ),
    ] {
        match single_failure(&matrix, name) {
            FailureCause::Sim(SimError::Policy { collection, .. }) => {
                assert_eq!(collection, 0, "the very first decision is rejected");
            }
            other => panic!("expected a typed policy error, got {other:?}"),
        }
        healthy_cells_match(&matrix, &control);
    }
}

#[test]
fn policy_failure_reports_its_scavenge_index() {
    let matrix = faulted("FAULT-FAIL", || Box::new(FailAfter::new(2)));
    match single_failure(&matrix, "FAULT-FAIL") {
        FailureCause::Sim(SimError::Policy { collection, .. }) => assert_eq!(collection, 2),
        other => panic!("expected a typed policy error, got {other:?}"),
    }
}

#[test]
fn future_boundary_is_an_invariant_violation_when_checked() {
    let matrix = Evaluation::new()
        .programs([Program::Cfrac])
        .policies([PolicyKind::Full])
        .custom_policy("FAULT-FUTURE", |_| Box::new(FutureBoundary))
        .baselines(false)
        .sim_config(SimConfig::paper().with_invariant_checks(true))
        .run();
    match single_failure(&matrix, "FAULT-FUTURE") {
        FailureCause::Sim(SimError::Invariant {
            violation: InvariantViolation::BoundaryBeyondNow { boundary, now },
            ..
        }) => assert!(boundary > now),
        other => panic!("expected BoundaryBeyondNow, got {other:?}"),
    }

    // With checks off the framework clamps defensively and the cell
    // completes.
    let lenient = Evaluation::new()
        .programs([Program::Cfrac])
        .policies([PolicyKind::Full])
        .custom_policy("FAULT-FUTURE", |_| Box::new(FutureBoundary))
        .baselines(false)
        .sim_config(SimConfig::paper().with_invariant_checks(false))
        .run();
    assert!(lenient.is_complete());
}

#[test]
fn watchdog_budget_stops_runaway_cells() {
    let matrix = Evaluation::new()
        .programs([Program::Cfrac])
        .policies(HEALTHY)
        .baselines(false)
        .sim_config(SimConfig::paper().with_budget(SimBudget::events(10)))
        .run();
    let failures: Vec<_> = matrix.failures().collect();
    assert_eq!(failures.len(), HEALTHY.len(), "every cell trips the budget");
    for f in failures {
        match &f.cause {
            FailureCause::Sim(SimError::BudgetExceeded { kind, limit, .. }) => {
                assert_eq!(*kind, BudgetKind::Events);
                assert_eq!(*limit, 10);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_trace_fails_only_its_column() {
    let mut b = TraceBuilder::new("victim");
    for i in 0..200 {
        let id = b.alloc(20_000);
        if i % 2 == 0 {
            b.free(id);
        }
    }
    let clean = b.finish().compile().expect("well-formed");

    for (label, corrupted, check) in [
        (
            "death-before-birth",
            corrupt::death_before_birth(&clean, 5),
            (|v: &InvariantViolation| matches!(v, InvariantViolation::DeathBeforeBirth { .. }))
                as fn(&InvariantViolation) -> bool,
        ),
        (
            "reversed-births",
            corrupt::reversed_births(&clean),
            (|v: &InvariantViolation| matches!(v, InvariantViolation::NonMonotoneTime { .. }))
                as fn(&InvariantViolation) -> bool,
        ),
    ] {
        let matrix = Evaluation::new()
            .programs([Program::Cfrac])
            .trace(Arc::new(corrupted))
            .policies([PolicyKind::Full])
            .baselines(false)
            .run();
        // The healthy preset column completed; only the corrupted column
        // failed, with the matching shape violation.
        assert!(
            matrix.get(Program::Cfrac, PolicyKind::Full).is_some(),
            "{label}: healthy column must complete"
        );
        let failures: Vec<_> = matrix.failures().collect();
        assert_eq!(failures.len(), 1, "{label}: one failure: {failures:?}");
        assert_eq!(failures[0].program, "victim");
        match &failures[0].cause {
            FailureCause::Sim(SimError::Invariant { violation, .. }) => {
                assert!(check(violation), "{label}: wrong violation: {violation:?}")
            }
            other => panic!("{label}: expected an invariant violation, got {other:?}"),
        }
    }
}

#[test]
fn flaky_store_fails_the_stats_kernel_with_its_own_typed_error() {
    use dtb_sim::fault::FlakyStore;
    use dtb_trace::stats::TraceStats;
    use dtb_trace::{CompiledSource, EventSource};
    let trace = Program::Cfrac.compiled();
    // The block path must surface exactly the error a record-by-record
    // read meets first.
    let expected = FlakyStore::new(CompiledSource::new(&trace), FlakyStore::<()>::fuse(1))
        .next_record()
        .expect_err("a charged fuse fails the first read");
    let mut flaky = FlakyStore::new(CompiledSource::new(&trace), FlakyStore::<()>::fuse(1));
    assert_eq!(TraceStats::compute_source(&mut flaky), Err(expected));
    // The spent fuse lets the very same source stream normally.
    assert_eq!(
        TraceStats::compute_source(&mut flaky),
        Ok(TraceStats::compute_compiled(&trace))
    );
}
