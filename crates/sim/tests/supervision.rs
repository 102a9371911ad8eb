//! Supervised execution: wall-clock deadlines, retry with backoff, and
//! quarantine.
//!
//! A cell that stalls (its source gone slow) is cancelled by the
//! watchdog at the deadline, retried if the retry policy covers
//! transient failures, and finally quarantined as a failed cell — while
//! every healthy cell of the same matrix completes with exactly the
//! reports a clean run produces. Deterministic failures (a broken
//! policy) are never retried: the attempt count stays at 1 no matter
//! how generous the retry policy.

use dtb_core::policy::PolicyKind;
use dtb_sim::exec::{Evaluation, FailureCause, RetryPolicy};
use dtb_sim::fault::{FailAfter, FlakyStore, SlowAfter};
use dtb_trace::programs::Program;
use dtb_trace::{SynthSource, WorkloadSpec};
use std::time::{Duration, Instant};

/// A small, fast workload for cells that must run to completion.
fn small_spec() -> WorkloadSpec {
    WorkloadSpec {
        total_alloc: 3_000_000,
        ..Program::Cfrac.spec()
    }
}

/// A retry policy with waits measured in microseconds, so tests that
/// exhaust it stay fast.
fn fast_retries(n: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries: n,
        base_delay: Duration::from_micros(100),
        max_delay: Duration::from_millis(2),
    }
}

#[test]
fn deadline_quarantines_a_stalled_cell_while_healthy_cells_complete() {
    // The deadline applies to every cell, so the healthy column must
    // clear it even on a loaded machine: a tiny synth workload (tens of
    // milliseconds) against a 3 s limit, while the stalled column sleeps
    // 50 ms per record and can never finish in time.
    let deadline = Duration::from_secs(3);
    let matrix = Evaluation::new()
        .source("healthy", || {
            Box::new(SynthSource::new(small_spec()).expect("valid spec"))
        })
        .source("stalled", || {
            Box::new(SlowAfter::new(
                SynthSource::new(small_spec()).expect("valid spec"),
                0,
                Duration::from_millis(50),
            ))
        })
        .policies([PolicyKind::Full])
        .baselines(false)
        .cell_deadline(deadline)
        .run();

    // The stalled cell was cancelled, classified as a missed deadline,
    // and not retried (default policy: none).
    let stalled = matrix.column_by_name("stalled").unwrap();
    let cell = &stalled.cells[0];
    assert_eq!(cell.attempts, 1);
    let failure = cell.failure().expect("stalled cell must fail");
    match &failure.cause {
        FailureCause::Deadline { limit, .. } => {
            assert_eq!(*limit, deadline);
        }
        other => panic!("expected a deadline failure, got {other}"),
    }
    assert!(failure.is_transient());
    assert!(failure.to_string().contains("deadline"), "{failure}");

    // The healthy column is untouched and identical to a clean,
    // unsupervised run.
    let clean = Evaluation::new()
        .source("healthy", || {
            Box::new(SynthSource::new(small_spec()).expect("valid spec"))
        })
        .policies([PolicyKind::Full])
        .baselines(false)
        .run();
    let healthy = matrix.column_by_name("healthy").unwrap();
    assert_eq!(healthy.cells[0].attempts, 1);
    assert_eq!(
        healthy.cells[0].report().expect("healthy cell completes"),
        clean.column_by_name("healthy").unwrap().cells[0]
            .report()
            .expect("clean run completes")
    );
}

#[test]
fn deadline_bounds_the_baseline_rows() {
    // A stalled stream column with only its baseline rows: the stats
    // kernel's read stops once the watchdog trips, so each row fails as a
    // transient missed deadline instead of reading the whole stream.
    let deadline = Duration::from_millis(500);
    let matrix = Evaluation::new()
        .source("stalled", || {
            Box::new(SlowAfter::new(
                SynthSource::new(small_spec()).expect("valid spec"),
                0,
                Duration::from_micros(20),
            ))
        })
        .policies([])
        .baselines(true)
        .cell_deadline(deadline)
        .parallelism(1)
        .run();

    let column = matrix.column_by_name("stalled").unwrap();
    assert_eq!(column.cells.len(), 2);
    for cell in &column.cells {
        let failure = cell.failure().expect("a stalled baseline cell must fail");
        match &failure.cause {
            FailureCause::Deadline { limit, .. } => assert_eq!(*limit, deadline),
            other => panic!("{}: expected a deadline failure, got {other}", cell.row),
        }
        assert!(failure.is_transient());
        assert_eq!(cell.attempts, 1);
    }
}

#[test]
fn deadline_failures_are_retried_then_quarantined() {
    let started = Instant::now();
    let matrix = Evaluation::new()
        .source("stalled", || {
            Box::new(SlowAfter::new(
                SynthSource::new(small_spec()).expect("valid spec"),
                0,
                Duration::from_millis(20),
            ))
        })
        .policies([PolicyKind::Full])
        .baselines(false)
        .cell_deadline(Duration::from_millis(80))
        .retry(fast_retries(2))
        .run();

    let cell = &matrix.column_by_name("stalled").unwrap().cells[0];
    // First attempt + two retries, all three past the deadline.
    assert_eq!(cell.attempts, 3);
    assert!(matches!(
        cell.failure().expect("still failing").cause,
        FailureCause::Deadline { .. }
    ));
    // Each attempt stops one slow record after its 80 ms deadline, not
    // one block of slow records (about 20 s) after it.
    let took = started.elapsed();
    assert!(took < Duration::from_secs(15), "took {took:?}");
}

#[test]
fn transient_source_failures_are_retried_to_success() {
    // One injected I/O failure shared across the whole cell: the first
    // attempt dies on it, the retry finds the fuse spent and completes.
    let fuse = FlakyStore::<SynthSource>::fuse(1);
    let matrix = Evaluation::new()
        .source("flaky", move || {
            Box::new(FlakyStore::new(
                SynthSource::new(small_spec()).expect("valid spec"),
                fuse.clone(),
            ))
        })
        .policies([PolicyKind::Full])
        .baselines(false)
        .retry(fast_retries(3))
        .run();

    let cell = &matrix.column_by_name("flaky").unwrap().cells[0];
    assert_eq!(cell.attempts, 2);
    let run = cell.run().expect("retry must recover the cell");

    // And bit-identically: the recovered run equals a never-faulted one.
    let clean = Evaluation::new()
        .source("flaky", || {
            Box::new(SynthSource::new(small_spec()).expect("valid spec"))
        })
        .policies([PolicyKind::Full])
        .baselines(false)
        .run();
    let clean_cell = &clean.column_by_name("flaky").unwrap().cells[0];
    assert_eq!(run.report, clean_cell.run().unwrap().report);
}

#[test]
fn deterministic_failures_are_never_retried() {
    let matrix = Evaluation::new()
        .programs([Program::Cfrac])
        .policies([])
        .custom_policy("BROKEN", |_| Box::new(FailAfter::new(0)))
        .baselines(false)
        .retry(fast_retries(5))
        .run();

    let cell = &matrix.column(Program::Cfrac).unwrap().cells[0];
    // A typed policy error is permanent: one attempt, however generous
    // the retry policy.
    assert_eq!(cell.attempts, 1);
    let failure = cell.failure().expect("broken policy fails its cell");
    assert!(!failure.is_transient());
}

#[test]
fn retry_delays_are_deterministic_and_bounded() {
    let policy = RetryPolicy::retries(4);
    for salt in [0u64, 7, 8_191] {
        for attempt in 0..4u32 {
            let a = policy.delay(salt, attempt);
            let b = policy.delay(salt, attempt);
            assert_eq!(a, b, "same (salt, attempt) must wait the same");
            // Exponential window: [capped/2, capped], capped at max_delay.
            let capped = std::cmp::min(policy.base_delay * 2u32.pow(attempt), policy.max_delay);
            assert!(
                a >= capped / 2 && a <= capped,
                "{a:?} outside {capped:?} window"
            );
        }
    }
    // Different cells desynchronize (not a hard guarantee for every
    // pair, but these two differ).
    assert_ne!(
        RetryPolicy::retries(1).delay(1, 0),
        RetryPolicy::retries(1).delay(2, 0)
    );
    assert_eq!(RetryPolicy::NONE.delay(5, 3), Duration::ZERO);
}
