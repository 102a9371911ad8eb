//! Checks the paper's Section 6.1 / 6.2 qualitative claims against the
//! regenerated evaluation matrix and prints PASS/FAIL for each. Exits
//! nonzero when any claim fails or any cell failed to simulate.

use dtb_bench::{exit_reporting_failures, full_matrix_cli};
use dtb_core::policy::PolicyKind;
use dtb_sim::exec::Matrix;
use dtb_sim::metrics::SimReport;
use dtb_trace::programs::Program;
use std::process::ExitCode;

fn report(matrix: &Matrix, p: Program, k: PolicyKind) -> Option<&SimReport> {
    matrix.get(p, k)
}

fn main() -> ExitCode {
    let matrix = full_matrix_cli();
    // Prints one claim's verdict and counts the failures.
    let mut failed = 0usize;
    let mut check = |name: &str, ok: bool, detail: String| {
        println!(
            "[{}] {name}\n       {detail}",
            if ok { "PASS" } else { "FAIL" }
        );
        failed += usize::from(!ok);
    };
    let mem_budget_kb = 3000.0;
    println!("Section 6.1/6.2 claims, re-checked on the synthetic traces\n");

    // §6.1: DTBMEM respects the 3000 KB constraint when feasible.
    for p in [
        Program::Ghost1,
        Program::Espresso1,
        Program::Espresso2,
        Program::Cfrac,
    ] {
        let name = format!("DTBMEM max memory <= 3000 KB on {p} (feasible case)");
        let Some(r) = report(&matrix, p, PolicyKind::DtbMem) else {
            check(&name, false, "cell failed to simulate".to_string());
            continue;
        };
        let (_, max_kb) = r.mem_kb();
        check(
            &name,
            max_kb <= mem_budget_kb * 1.01,
            format!("max = {max_kb:.0} KB"),
        );
    }

    // §6.1: over-constrained cases come within ~7% of FULL.
    for p in [Program::Ghost2, Program::Sis] {
        let name = format!("over-constrained DTBMEM within 10% of FULL on {p}");
        let (Some(mem_r), Some(full_r)) = (
            report(&matrix, p, PolicyKind::DtbMem),
            report(&matrix, p, PolicyKind::Full),
        ) else {
            check(&name, false, "cell failed to simulate".to_string());
            continue;
        };
        let (mem, full) = (mem_r.mem_kb().1, full_r.mem_kb().1);
        check(
            &name,
            mem <= full * 1.10,
            format!("DTBMEM {mem:.0} KB vs FULL {full:.0} KB"),
        );
    }

    // §6.1: when feasible, DTBMEM CPU overhead ≈ FIXED1 (the cheap end).
    for p in [Program::Ghost1, Program::Espresso1] {
        // CFRAC is excluded: with only 4 collections the mandatory
        // initial full scavenge dominates every policy's overhead.
        let name = format!("feasible DTBMEM overhead near FIXED1, well under FULL on {p}");
        let (Some(dtb_r), Some(f1_r), Some(full_r)) = (
            report(&matrix, p, PolicyKind::DtbMem),
            report(&matrix, p, PolicyKind::Fixed1),
            report(&matrix, p, PolicyKind::Full),
        ) else {
            check(&name, false, "cell failed to simulate".to_string());
            continue;
        };
        let (dtb, fixed1, full) = (dtb_r.overhead_pct, f1_r.overhead_pct, full_r.overhead_pct);
        check(
            &name,
            dtb <= fixed1 * 2.0 && dtb < full * 0.5,
            format!("DTBMEM {dtb:.1}% vs FIXED1 {fixed1:.1}% vs FULL {full:.1}%"),
        );
    }

    // §6.1: much over-constrained DTBMEM degrades to FULL (SIS).
    {
        let name = "over-constrained DTBMEM degrades to FULL-like overhead on SIS";
        match (
            report(&matrix, Program::Sis, PolicyKind::DtbMem),
            report(&matrix, Program::Sis, PolicyKind::Full),
        ) {
            (Some(dtb_r), Some(full_r)) => {
                let (dtb, full) = (dtb_r.overhead_pct, full_r.overhead_pct);
                check(
                    name,
                    dtb >= full * 0.8,
                    format!("DTBMEM {dtb:.1}% vs FULL {full:.1}%"),
                );
            }
            _ => check(name, false, "cell failed to simulate".to_string()),
        }
    }

    // §6.2: DTBFM median pause is near the 100 ms budget on the
    // allocation-heavy programs.
    for p in [Program::Ghost1, Program::Ghost2, Program::Espresso2] {
        let name = format!("DTBFM median pause within 25% of the 100 ms budget on {p}");
        let Some(r) = report(&matrix, p, PolicyKind::DtbFm) else {
            check(&name, false, "cell failed to simulate".to_string());
            continue;
        };
        let med = r.pause_median_ms;
        check(
            &name,
            (75.0..=125.0).contains(&med),
            format!("median = {med:.1} ms"),
        );
    }

    // §6.2: DTBFM uses no more memory than FEEDMED (it reclaims the
    // tenured garbage FEEDMED strands); ESPRESSO is the paper's showcase.
    for p in [Program::Espresso2, Program::Espresso1] {
        let name = format!("DTBFM mean memory <= FEEDMED on {p}");
        let (Some(dtb_r), Some(fm_r)) = (
            report(&matrix, p, PolicyKind::DtbFm),
            report(&matrix, p, PolicyKind::FeedMed),
        ) else {
            check(&name, false, "cell failed to simulate".to_string());
            continue;
        };
        let (dtb, fm) = (dtb_r.mem_kb().0, fm_r.mem_kb().0);
        check(
            &name,
            dtb <= fm * 1.02,
            format!("DTBFM {dtb:.0} KB vs FEEDMED {fm:.0} KB"),
        );
    }

    // §6.2: DTBFM's 90th percentile is not catastrophically worse than
    // FEEDMED's (interactive response stays comparable).
    for p in [Program::Ghost1, Program::Espresso2] {
        let name = format!("DTBFM p90 pause within 4x of FEEDMED on {p}");
        let (Some(dtb_r), Some(fm_r)) = (
            report(&matrix, p, PolicyKind::DtbFm),
            report(&matrix, p, PolicyKind::FeedMed),
        ) else {
            check(&name, false, "cell failed to simulate".to_string());
            continue;
        };
        let (dtb, fm) = (dtb_r.pause_p90_ms, fm_r.pause_p90_ms);
        check(
            &name,
            dtb <= fm * 4.0,
            format!("DTBFM {dtb:.0} ms vs FEEDMED {fm:.0} ms"),
        );
    }

    let cells = exit_reporting_failures(&matrix);
    if failed > 0 {
        eprintln!("\n{failed} claim(s) failed");
        return ExitCode::FAILURE;
    }
    cells
}
