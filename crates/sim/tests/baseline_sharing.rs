//! The executor computes a column's `TraceStats` once and shares it
//! between the column's `No GC` and `LIVE` cells. Sharing must not change
//! a single report: the matrix is the same at any worker count, after a
//! journal resume that reuses one baseline cell and recomputes the
//! other, and after a transient source failure, which is retried rather
//! than remembered.

use dtb_core::policy::{PolicyKind, Row};
use dtb_sim::baseline::{live_report, no_gc_report};
use dtb_sim::exec::{Evaluation, Matrix, RetryPolicy};
use dtb_sim::fault::FlakyStore;
use dtb_sim::journal::journal_path;
use dtb_trace::programs::Program;
use dtb_trace::{collect_source, SynthSource, TraceBuilder, WorkloadSpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A small synthetic workload for the streaming column.
fn small_spec() -> WorkloadSpec {
    WorkloadSpec {
        total_alloc: 3_000_000,
        ..Program::Cfrac.spec()
    }
}

fn tiny_trace() -> Arc<dtb_trace::CompiledTrace> {
    let mut b = TraceBuilder::new("tiny");
    for i in 0..300u32 {
        let id = b.alloc(1_000 + i * 7);
        if i % 4 != 0 {
            b.free(id);
        }
    }
    Arc::new(b.finish().compile().expect("well-formed"))
}

/// A preset, an in-memory trace and a streaming column, with baselines.
fn evaluation() -> Evaluation {
    Evaluation::new()
        .programs([Program::Cfrac])
        .trace(tiny_trace())
        .source("stream", || {
            Box::new(SynthSource::new(small_spec()).expect("valid spec"))
        })
        .policies([PolicyKind::Full, PolicyKind::DtbFm])
}

fn assert_same_matrix(a: &Matrix, b: &Matrix) {
    let (a, b): (Vec<_>, Vec<_>) = (a.cells().collect(), b.cells().collect());
    assert_eq!(a.len(), b.len());
    for ((acol, acell), (bcol, bcell)) in a.iter().zip(&b) {
        assert_eq!(acol.name(), bcol.name());
        assert_eq!(acell.row, bcell.row);
        assert_eq!(
            acell.run().expect("cell completed"),
            bcell.run().expect("cell completed"),
            "{}/{} diverged",
            acol.name(),
            acell.row
        );
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dtb-baseline-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn shared_baselines_are_identical_at_any_worker_count() {
    let serial = evaluation().parallelism(1).run();
    for workers in [2, 4] {
        assert_same_matrix(&serial, &evaluation().parallelism(workers).run());
    }
    // The table keeps its row order although `No GC` is dispatched first.
    let rows: Vec<Row> = serial.columns()[0]
        .cells
        .iter()
        .map(|c| c.row.clone())
        .collect();
    assert_eq!(
        rows,
        [
            Row::Policy(PolicyKind::Full),
            Row::Policy(PolicyKind::DtbFm),
            Row::NoGc,
            Row::Live
        ]
    );
    // And the shared stats are the ones each row computes on its own.
    let stream = collect_source(&mut SynthSource::new(small_spec()).expect("valid spec"))
        .expect("synth never fails");
    for (column, trace) in
        serial
            .columns()
            .iter()
            .zip([Program::Cfrac.compiled(), tiny_trace(), Arc::new(stream)])
    {
        assert_eq!(column.cells[2].report(), Some(&no_gc_report(&trace)));
        assert_eq!(column.cells[3].report(), Some(&live_report(&trace)));
    }
}

#[test]
fn resume_reusing_no_gc_and_recomputing_live_gives_the_same_matrix() {
    let dir = temp_dir("resume");
    let first = evaluation().parallelism(2).journal(&dir).run();
    assert!(first.is_complete());

    // Drop every `LIVE` line: the resumed run reuses `No GC` from the
    // journal, so the `LIVE` cell must compute the stats itself.
    let path = journal_path(&dir);
    let journal = std::fs::read_to_string(&path).expect("read journal");
    let kept: String = journal
        .lines()
        .filter(|line| !line.contains(r#""row":"LIVE""#))
        .map(|line| format!("{line}\n"))
        .collect();
    assert!(kept.len() < journal.len(), "journal names its LIVE rows");
    std::fs::write(&path, kept).expect("rewrite journal");

    let recomputed = Arc::new(Mutex::new(Vec::new()));
    let seen = recomputed.clone();
    let resumed = evaluation()
        .parallelism(2)
        .resume(&dir)
        .on_cell(move |ev| seen.lock().unwrap().push(ev.row.clone()))
        .run();
    assert_eq!(*recomputed.lock().unwrap(), vec![Row::Live; 3]);
    assert_same_matrix(&first, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_stats_failure_is_retried_not_memoised() {
    // The column's first read fails once. `No GC` is dispatched first,
    // so it takes the fault; its retry must recompute the stats, and
    // `LIVE` must not inherit the failure.
    let fuse = FlakyStore::<SynthSource>::fuse(1);
    let flaky = Evaluation::new()
        .source("flaky", move || {
            Box::new(FlakyStore::new(
                SynthSource::new(small_spec()).expect("valid spec"),
                fuse.clone(),
            ))
        })
        .policies([PolicyKind::Full])
        .parallelism(1)
        .retry(RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(2),
        })
        .run();
    assert!(flaky.is_complete());
    let cells = &flaky.column_by_name("flaky").expect("column").cells;
    let attempts: Vec<(Row, u32)> = cells.iter().map(|c| (c.row.clone(), c.attempts)).collect();
    assert_eq!(
        attempts,
        [
            (Row::Policy(PolicyKind::Full), 1),
            (Row::NoGc, 2),
            (Row::Live, 1)
        ]
    );

    let clean = Evaluation::new()
        .source("flaky", || {
            Box::new(SynthSource::new(small_spec()).expect("valid spec"))
        })
        .policies([PolicyKind::Full])
        .parallelism(1)
        .run();
    assert_same_matrix(&clean, &flaky);
}
