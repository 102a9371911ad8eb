//! An interactive-application scenario: keep GC pauses under a budget.
//!
//! The paper's motivation for `DTBFM`: an interactive program (here, an
//! editor-like workload with bursts of allocation as documents open and
//! close) must not freeze noticeably. The user states one number — the
//! longest acceptable pause — and the collector holds its *median* pause
//! there, trading as little memory as possible for it.
//!
//! ```sh
//! cargo run --release --example interactive_editor
//! ```

use dtb::core::policy::{PolicyConfig, PolicyKind};
use dtb::sim::engine::{simulate, SimConfig};
use dtb::sim::sweep::sweep_pause_budget;
use dtb::trace::lifetime::{LifetimeDist, SizeDist};
use dtb::trace::synth::{ClassSpec, WorkloadSpec};

/// An editor: a resident buffer set (immortal ramp), per-document data
/// that dies when the document closes (phase-local), and undo/redo churn.
fn editor_workload() -> WorkloadSpec {
    WorkloadSpec {
        name: "EDITOR".into(),
        description: "interactive editor: documents open/close, undo churn".into(),
        exec_seconds: 120.0,
        total_alloc: 60_000_000,
        initial_permanent: 300_000,
        initial_object_size: 1024,
        classes: vec![
            ClassSpec::new(
                "resident-buffers",
                0.01,
                SizeDist::PowerOfTwo { min: 64, max: 4096 },
                LifetimeDist::Immortal,
            ),
            ClassSpec::new(
                "document-local",
                0.02,
                SizeDist::PowerOfTwo { min: 32, max: 1024 },
                LifetimeDist::PhaseLocal, // dies when the document closes
            ),
            ClassSpec::new(
                "undo-churn",
                0.97,
                SizeDist::PowerOfTwo { min: 16, max: 256 },
                LifetimeDist::Exponential { mean: 4_000.0 },
            ),
        ],
        phase_period: Some(4_000_000), // a "document session"
        seed: 2024,
    }
}

fn main() {
    let trace = editor_workload().compile().expect("valid spec");
    let sim = SimConfig::paper();

    println!("Editor workload: 60 MB allocated over a 2-minute session\n");
    println!(
        "{:>10}  {:>12}  {:>10}  {:>10}  {:>9}",
        "budget", "median pause", "p90 pause", "mem mean", "overhead"
    );
    // The sweep leaves memory effectively unconstrained: only the pause
    // knob moves. Points run in parallel.
    let pause_budgets_ms = [25.0, 50.0, 100.0, 200.0];
    let frontier = sweep_pause_budget(&trace, &pause_budgets_ms, &sim).expect("sweep completes");
    for (pause_budget_ms, point) in pause_budgets_ms.iter().zip(&frontier.points) {
        println!(
            "{:>7} ms  {:>9.1} ms  {:>7.1} ms  {:>7.0} KB  {:>8.1}%",
            pause_budget_ms,
            point.report.pause_median_ms,
            point.report.pause_p90_ms,
            point.report.mem_kb().0,
            point.report.overhead_pct,
        );
    }

    // The unconstrained baseline for contrast.
    let mut full_policy = PolicyKind::Full.build(&PolicyConfig::paper());
    let full = simulate(&trace, &mut full_policy, &sim).expect("baseline completes");
    println!(
        "\nFULL baseline: median pause {:.0} ms — a visible freeze; DTBFM holds \
         the budget\nand its memory cost shrinks as the budget loosens.",
        full.report.pause_median_ms
    );
}
