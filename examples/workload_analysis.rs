//! Workload analysis: survival curves and demographics of the six presets.
//!
//! Characterizes each workload the way a collector designer would before
//! picking constraints: what fraction of allocation dies young (the
//! generational hypothesis), how much is medium-lived (the tenured-garbage
//! population the DTB policies exist to manage), and how much is immortal.
//!
//! ```sh
//! cargo run --release --example workload_analysis
//! ```

use dtb::trace::analysis::{Demographics, SurvivalCurve};
use dtb::trace::programs::Program;

fn main() {
    println!(
        "{:12}  {:>8}  {:>8}  {:>8}   survival at 1 MB / 4 MB",
        "program", "young%", "medium%", "immortal%"
    );
    println!("{}", "-".repeat(78));
    for p in Program::ALL {
        let trace = p.compiled();
        let demo = Demographics::compute(&trace);
        let curve = SurvivalCurve::at_paper_checkpoints(&trace);
        let total = demo.total.as_u64() as f64;
        println!(
            "{:12}  {:>7.1}%  {:>7.1}%  {:>8.1}%   {:>5.1}% / {:>4.1}%",
            p.label(),
            demo.young_death_fraction() * 100.0,
            demo.medium_lived.as_u64() as f64 / total * 100.0,
            demo.immortal.as_u64() as f64 / total * 100.0,
            curve.at(1_000_000).unwrap_or(0.0) * 100.0,
            curve.at(4_000_000).unwrap_or(0.0) * 100.0,
        );
    }

    println!("\nfull survival curve, GHOST(1):");
    let trace = Program::Ghost1.compiled();
    let curve = SurvivalCurve::at_paper_checkpoints(&trace);
    for (age, s) in curve.ages.iter().zip(&curve.survival) {
        let bar = "#".repeat((s * 60.0).round() as usize);
        println!("  age {:>9} B  {:>6.2}%  {}", age, s * 100.0, bar);
    }
    println!(
        "\nReading: the steep drop before 1 MB is what makes generational\n\
         collection work at all; the mass between 1 MB and 4 MB is what the\n\
         dynamic threatening boundary manages better than fixed promotion."
    );
}
