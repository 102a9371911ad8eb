//! Quickstart: run one collector over one workload and read the numbers
//! the paper's tables report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dtb::core::policy::{PolicyConfig, PolicyKind};
use dtb::sim::engine::SimConfig;
use dtb::sim::exec::Evaluation;
use dtb::trace::programs::Program;

fn main() {
    // The paper's configuration: scavenge every 1 MB of allocation,
    // 100 ms pause budget (50 000 bytes traced at 500 KB/s), 3000 KB
    // memory budget.
    let budgets = PolicyConfig::paper();
    let sim = SimConfig::paper();
    let program = Program::Cfrac;

    println!("workload: {}", program.label());
    let stats = program.stats();
    println!(
        "  {} objects, {:.1} MB allocated, live mean/max {:.0}/{:.0} KB\n",
        stats.object_count,
        stats.total_allocated.as_u64() as f64 / 1e6,
        stats.live_mean.as_kb(),
        stats.live_max.as_kb(),
    );

    let kinds = [
        PolicyKind::Full,
        PolicyKind::Fixed1,
        PolicyKind::DtbFm,
        PolicyKind::DtbMem,
    ];
    let matrix = Evaluation::new()
        .programs([program])
        .policies(kinds)
        .baselines(false)
        .policy_config(budgets)
        .sim_config(sim)
        .run();
    for kind in kinds {
        let report = matrix.get(program, kind).expect("requested cell");
        let (mem_mean, mem_max) = report.mem_kb();
        println!(
            "{:8}  mem {:>5.0}/{:>5.0} KB   median pause {:>6.1} ms   \
             traced {:>6.0} KB   overhead {:>4.1}%",
            report.policy,
            mem_mean,
            mem_max,
            report.pause_median_ms,
            report.traced_kb(),
            report.overhead_pct,
        );
    }

    println!(
        "\nFULL pays CPU for minimum memory; FIXED1 is cheap but leaks tenured \
         garbage;\nDTBFM holds pauses at the budget; DTBMEM spends memory up to \
         its budget to save CPU."
    );
}
