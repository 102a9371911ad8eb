//! Calibration of the synthetic workloads against the paper's published
//! per-program statistics (Table 2's LIVE / No GC rows, Table 6).
//!
//! Run with `--nocapture` to see the measured-vs-paper comparison for
//! every preset.

use dtb_trace::programs::Program;

fn pct_err(measured: u64, target: u64) -> f64 {
    if target == 0 {
        return 0.0;
    }
    (measured as f64 - target as f64).abs() / target as f64 * 100.0
}

#[test]
fn live_profiles_match_paper_within_tolerance() {
    // GHOST/ESPRESSO/SIS profiles must land close to the paper's LIVE row;
    // CFRAC is tiny (10–21 KB) so granularity noise is proportionally
    // larger and the paper itself calls it "less interesting".
    for p in Program::ALL {
        let prof = p.paper_profile();
        let stats = p.stats();
        let mean_err = pct_err(stats.live_mean.as_u64(), prof.live_mean);
        let max_err = pct_err(stats.live_max.as_u64(), prof.live_max);
        println!(
            "{:12} live mean {:>9} vs paper {:>9} ({:5.1}%)  max {:>9} vs {:>9} ({:5.1}%)",
            p.label(),
            stats.live_mean.as_u64(),
            prof.live_mean,
            mean_err,
            stats.live_max.as_u64(),
            prof.live_max,
            max_err,
        );
        let tolerance = if p == Program::Cfrac { 45.0 } else { 15.0 };
        assert!(
            mean_err < tolerance,
            "{}: live mean off by {mean_err:.1}%",
            p.label()
        );
        assert!(
            max_err < tolerance,
            "{}: live max off by {max_err:.1}%",
            p.label()
        );
    }
}

#[test]
fn totals_and_collections_match_table6() {
    for p in Program::ALL {
        let prof = p.paper_profile();
        let stats = p.stats();
        // Total allocation within one object of the spec target.
        assert!(
            stats.total_allocated.as_u64() >= prof.total_alloc
                && stats.total_allocated.as_u64() < prof.total_alloc + 4096,
            "{}: total {}",
            p.label(),
            stats.total_allocated.as_u64()
        );
        // Collection count at the 1 MB trigger within rounding of Table 6.
        assert!(
            stats.collections_at_1mb.abs_diff(prof.collections) <= 3,
            "{}: {} collections vs paper {}",
            p.label(),
            stats.collections_at_1mb,
            prof.collections
        );
        assert_eq!(stats.exec_seconds, prof.exec_seconds);
    }
}

#[test]
fn generation_is_reproducible_across_runs() {
    let a = Program::Espresso1.generate();
    let b = Program::Espresso1.generate();
    assert_eq!(a, b);
}

#[test]
fn nogc_mean_is_about_half_total() {
    // No-GC memory is the allocation ramp; its time-average is ~total/2.
    for p in [Program::Cfrac, Program::Espresso1] {
        let stats = p.stats();
        let ratio = stats.nogc_mean.as_u64() as f64 / stats.total_allocated.as_u64() as f64;
        assert!(
            (0.45..0.55).contains(&ratio),
            "{}: nogc mean ratio {ratio:.3}",
            p.label()
        );
    }
}
