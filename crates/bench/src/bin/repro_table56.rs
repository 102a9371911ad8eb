//! Regenerates Tables 5 and 6: workload descriptions and allocation
//! behaviour of the programs measured. Published values in brackets.

use dtb_bench::table::{vs_paper, TextTable};
use dtb_trace::programs::Program;
use dtb_trace::stats::TraceStats;

fn main() {
    println!("Table 5: General information about the test programs\n");
    for p in Program::ALL {
        let spec = p.spec();
        println!("{:12} {}", p.label(), spec.description);
    }

    // One stats pass per program, shared by both tables.
    let stats: Vec<&TraceStats> = Program::ALL.iter().map(|p| p.stats()).collect();

    println!("\nTable 6: Allocation Behavior of Programs Measured");
    println!("measured [paper]\n");
    let mut t = TextTable::new([
        "Program",
        "Lines of Source",
        "Exec Time (s)",
        "Total Alloc (MB)",
        "Alloc Rate (KB/s)",
        "Collections",
    ]);
    for (p, stats) in Program::ALL.iter().zip(&stats) {
        let prof = p.paper_profile();
        t.row([
            p.label().to_string(),
            format!("{}", prof.source_lines),
            format!("{}", stats.exec_seconds),
            vs_paper(
                stats.total_allocated.as_u64() as f64 / (1024.0 * 1024.0),
                prof.total_alloc as f64 / (1024.0 * 1024.0),
            ),
            format!("{:.0}", stats.alloc_rate / 1024.0),
            vs_paper(stats.collections_at_1mb as f64, prof.collections as f64),
        ]);
    }
    println!("{}", t.render());
    println!("(object count / mean size, synthetic traces)");
    for (p, stats) in Program::ALL.iter().zip(&stats) {
        println!(
            "{:12} {:>9} objects, mean {:>5.1} bytes",
            p.label(),
            stats.object_count,
            stats.mean_object_size
        );
    }
}
