//! Calibration of the synthetic workloads against the paper's published
//! per-program statistics (Table 2's LIVE / No GC rows, Table 6).
//!
//! Run with `--nocapture` to see the measured-vs-paper comparison for
//! every preset.

use dtb_core::time::Bytes;
use dtb_trace::programs::Program;
use dtb_trace::stats::TraceStats;

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

/// Every preset's `TraceStats`, bit for bit. The tolerance tests above
/// let the kernel drift; this one does not: a change to the stats kernel
/// must leave every `No GC` and `LIVE` number of the six presets, and so
/// every published table, as it is.
#[test]
fn preset_stats_are_pinned_bit_for_bit() {
    #[allow(clippy::too_many_arguments)]
    fn stats(
        name: &str,
        total: u64,
        objects: usize,
        mean_object_size: f64,
        live_mean: u64,
        live_max: u64,
        nogc_mean: u64,
        exec_seconds: f64,
        alloc_rate: f64,
    ) -> TraceStats {
        TraceStats {
            name: name.into(),
            total_allocated: Bytes::new(total),
            object_count: objects,
            mean_object_size,
            live_mean: Bytes::new(live_mean),
            live_max: Bytes::new(live_max),
            nogc_mean: Bytes::new(nogc_mean),
            nogc_max: Bytes::new(total),
            exec_seconds,
            alloc_rate,
            collections_at_1mb: total / 1_000_000,
        }
    }
    let pinned = [
        (
            Program::Ghost1,
            stats(
                "GHOST(1)",
                51_380_224,
                897_556,
                57.244588638480494,
                781_461,
                1_142_144,
                25_690_112,
                31.0,
                1657426.5806451612,
            ),
        ),
        (
            Program::Ghost2,
            stats(
                "GHOST(2)",
                92_275_120,
                1_618_407,
                57.01601636671122,
                1_334_815,
                2_109_216,
                46_137_560,
                71.0,
                1299649.5774647887,
            ),
        ),
        (
            Program::Espresso1,
            stats(
                "ESPRESSO(1)",
                15_728_672,
                276_700,
                56.84377303939284,
                99_412,
                178_672,
                7_864_336,
                62.0,
                253688.25806451612,
            ),
        ),
        (
            Program::Espresso2,
            stats(
                "ESPRESSO(2)",
                109_051_904,
                1_928_785,
                56.539170514080105,
                151_444,
                273_808,
                54_525_952,
                240.0,
                454382.93333333335,
            ),
        ),
        (
            Program::Sis,
            stats(
                "SIS",
                15_728_656,
                197_053,
                79.81941914104327,
                3_981_407,
                6_493_088,
                7_864_328,
                30.0,
                524288.5333333333,
            ),
        ),
        (
            Program::Cfrac,
            stats(
                "CFRAC",
                4_200_120,
                104_893,
                40.04194750841334,
                11_840,
                20_568,
                2_100_060,
                8.0,
                525015.0,
            ),
        ),
    ];
    for (p, want) in pinned {
        assert_eq!(p.stats(), &want, "{}", p.label());
    }
}
