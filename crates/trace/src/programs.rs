//! The six evaluation workloads, calibrated to the paper's programs.
//!
//! The paper traces four C programs (two with two inputs each): GhostScript
//! (`GHOST(1)`, `GHOST(2)`), Espresso (`ESPRESSO(1)`, `ESPRESSO(2)`), SIS,
//! and Cfrac. The original QPT traces are unobtainable, so each
//! [`Program`] is a synthetic [`WorkloadSpec`] whose parameters are derived
//! from the published statistics:
//!
//! * **total allocation** and **execution time** from Table 6 (the paper's
//!   "megabytes" are binary MiB: `49 MiB / 1 MB trigger ≈ 51 collections`,
//!   matching Table 6's collection counts);
//! * the **live-storage profile** from Table 2's `LIVE` row, decomposed
//!   into an initial permanent structure, an immortal ramp (`ramp_end =
//!   2·(max − mean)` for a linear ramp), and steady churn;
//! * the **medium-lived fraction** (objects that survive a scavenge and
//!   then die — the tenured-garbage population) from the `FIXED1` −
//!   `FULL` memory gaps in Table 2;
//! * Espresso's pass structure as **phase-local** classes, matching the
//!   paper's description of it as a multi-pass logic optimizer.
//!
//! Calibration is verified by `tests/calibration.rs`, which compiles
//! every preset and checks the `LIVE` profile against the paper's row.

use crate::event::{CompiledTrace, Trace};
use crate::lifetime::{LifetimeDist, SizeDist};
use crate::stats::TraceStats;
use crate::synth::{ClassSpec, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

/// One of the paper's six workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Program {
    /// GhostScript interpreting a large reference manual.
    Ghost1,
    /// GhostScript interpreting a masters thesis.
    Ghost2,
    /// Espresso optimizing a small release example.
    Espresso1,
    /// Espresso optimizing a large release example.
    Espresso2,
    /// SIS verifying a synthesized circuit with 1024 random vectors.
    Sis,
    /// Cfrac factoring a 25-digit product of two primes.
    Cfrac,
}

/// The paper's published expectations for a workload, used by calibration
/// tests and the experiment reports (all byte values; Table 2 prints KiB).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PaperProfile {
    /// Total allocation (Table 6, MiB → bytes).
    pub total_alloc: u64,
    /// `LIVE` mean (Table 2, KiB → bytes).
    pub live_mean: u64,
    /// `LIVE` max (Table 2, KiB → bytes).
    pub live_max: u64,
    /// Execution time in seconds (Table 6).
    pub exec_seconds: f64,
    /// Number of collections (Table 6).
    pub collections: u64,
    /// Lines of C source (Table 6).
    pub source_lines: u64,
}

impl Program {
    /// All six workloads in the paper's column order.
    pub const ALL: [Program; 6] = [
        Program::Ghost1,
        Program::Ghost2,
        Program::Espresso1,
        Program::Espresso2,
        Program::Sis,
        Program::Cfrac,
    ];

    /// The column label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Program::Ghost1 => "GHOST(1)",
            Program::Ghost2 => "GHOST(2)",
            Program::Espresso1 => "ESPRESSO(1)",
            Program::Espresso2 => "ESPRESSO(2)",
            Program::Sis => "SIS",
            Program::Cfrac => "CFRAC",
        }
    }

    /// The paper's published profile for this workload.
    pub fn paper_profile(self) -> PaperProfile {
        match self {
            Program::Ghost1 => PaperProfile {
                total_alloc: 49 * MIB,
                live_mean: 777 * KIB,
                live_max: 1118 * KIB,
                exec_seconds: 31.0,
                collections: 51,
                source_lines: 29_500,
            },
            Program::Ghost2 => PaperProfile {
                total_alloc: 88 * MIB,
                live_mean: 1323 * KIB,
                live_max: 2080 * KIB,
                exec_seconds: 71.0,
                collections: 90,
                source_lines: 29_500,
            },
            Program::Espresso1 => PaperProfile {
                total_alloc: 15 * MIB,
                live_mean: 89 * KIB,
                live_max: 173 * KIB,
                exec_seconds: 62.0,
                collections: 16,
                source_lines: 15_500,
            },
            Program::Espresso2 => PaperProfile {
                total_alloc: 104 * MIB,
                live_mean: 160 * KIB,
                live_max: 269 * KIB,
                exec_seconds: 240.0,
                collections: 107,
                source_lines: 15_500,
            },
            Program::Sis => PaperProfile {
                total_alloc: 15 * MIB,
                live_mean: 4197 * KIB,
                live_max: 6423 * KIB,
                exec_seconds: 30.0,
                collections: 15,
                source_lines: 172_000,
            },
            Program::Cfrac => PaperProfile {
                // The paper reports 3 MB total and 4 collections; we use
                // 4.2 MB so a 1 MB trigger indeed fires 4 times.
                total_alloc: 4_200_000,
                live_mean: 10 * KIB,
                live_max: 21 * KIB,
                exec_seconds: 8.0,
                collections: 4,
                source_lines: 6_000,
            },
        }
    }

    /// The calibrated synthetic workload for this program.
    pub fn spec(self) -> WorkloadSpec {
        let p = self.paper_profile();
        // Shorthand for the recurring "dies before the first scavenge"
        // churn class; most C allocations are small and die fast.
        let short = |fraction: f64| {
            ClassSpec::new(
                "short",
                fraction,
                SizeDist::PowerOfTwo { min: 16, max: 512 },
                LifetimeDist::Exponential { mean: 3_000.0 },
            )
        };
        // Medium-lived objects survive one or more 1 MB scavenge intervals
        // and then die: the tenured-garbage population. Lifetimes of
        // 1.1–2.2 MB die before the fourth scavenge (FIXED4 reclaims what
        // FIXED1 strands — the GHOST / SIS pattern) and within reach of
        // DTBFM's budget-capped backward sweep, which is what lets the
        // paper's DTBFM hold GHOST memory near the FULL level while
        // FEEDMED's monotone boundary strands the same objects.
        let medium = |fraction: f64| {
            ClassSpec::new(
                "medium",
                fraction,
                SizeDist::PowerOfTwo { min: 32, max: 1024 },
                LifetimeDist::Uniform {
                    min: 1_100_000,
                    max: 2_200_000,
                },
            )
        };
        let ramp = |fraction: f64| {
            ClassSpec::new(
                "immortal-ramp",
                fraction,
                SizeDist::PowerOfTwo { min: 32, max: 2048 },
                LifetimeDist::Immortal,
            )
        };
        match self {
            Program::Ghost1 => WorkloadSpec {
                name: self.label().into(),
                description: "PostScript interpretation, NODISPLAY (synthetic)".into(),
                exec_seconds: p.exec_seconds,
                total_alloc: p.total_alloc,
                initial_permanent: 420_000,
                initial_object_size: 512,
                classes: vec![
                    ramp(0.0137),
                    // Page-local interpreter data: dies in bulk when the
                    // interpreter finishes a page. The bursty deaths are
                    // what DTBFM's backward sweeps reclaim right after
                    // each burst, holding memory near the FULL level.
                    ClassSpec::new(
                        "page-local",
                        0.008,
                        SizeDist::PowerOfTwo { min: 32, max: 1024 },
                        LifetimeDist::PhaseLocal,
                    ),
                    short(0.9783),
                ],
                phase_period: Some(2_500_000),
                seed: 0x61,
            },
            Program::Ghost2 => WorkloadSpec {
                name: self.label().into(),
                description: "PostScript interpretation, NODISPLAY (synthetic)".into(),
                exec_seconds: p.exec_seconds,
                total_alloc: p.total_alloc,
                initial_permanent: 560_000,
                initial_object_size: 512,
                classes: vec![
                    ramp(0.0169),
                    ClassSpec::new(
                        "page-local",
                        0.0066,
                        SizeDist::PowerOfTwo { min: 32, max: 1024 },
                        LifetimeDist::PhaseLocal,
                    ),
                    short(0.9765),
                ],
                phase_period: Some(2_500_000),
                seed: 0x62,
            },
            Program::Espresso1 => WorkloadSpec {
                name: self.label().into(),
                description: "two-level logic optimization passes (synthetic)".into(),
                exec_seconds: p.exec_seconds,
                total_alloc: p.total_alloc,
                initial_permanent: 0,
                initial_object_size: 256,
                classes: vec![
                    ramp(0.0100),
                    ClassSpec::new(
                        "pass-local",
                        0.0190,
                        SizeDist::PowerOfTwo { min: 32, max: 1024 },
                        LifetimeDist::PhaseLocal,
                    ),
                    short(0.9710),
                ],
                phase_period: Some(1_500_000),
                seed: 0xe1,
            },
            Program::Espresso2 => WorkloadSpec {
                name: self.label().into(),
                description: "two-level logic optimization passes (synthetic)".into(),
                exec_seconds: p.exec_seconds,
                total_alloc: p.total_alloc,
                initial_permanent: 18_000,
                initial_object_size: 256,
                classes: vec![
                    ramp(0.0017),
                    // Espresso's optimization passes allocate pass-local
                    // data that dies in bulk at pass boundaries. The
                    // bursty death pattern is what makes FEEDMED strand
                    // tenured garbage that DTBFM untenures (Section 6.2).
                    ClassSpec::new(
                        "pass-local",
                        0.0165,
                        SizeDist::PowerOfTwo { min: 32, max: 1024 },
                        LifetimeDist::PhaseLocal,
                    ),
                    short(0.9818),
                ],
                phase_period: Some(5_000_000),
                seed: 0xe2,
            },
            Program::Sis => WorkloadSpec {
                name: self.label().into(),
                description: "circuit synthesis + verification, 1024 vectors (synthetic)".into(),
                exec_seconds: p.exec_seconds,
                total_alloc: p.total_alloc,
                initial_permanent: 2_450_000,
                initial_object_size: 2048,
                classes: vec![ramp(0.310), medium(0.012), short(0.678)],
                phase_period: None,
                seed: 0x515,
            },
            Program::Cfrac => WorkloadSpec {
                name: self.label().into(),
                description: "continued-fraction factoring of a 25-digit number (synthetic)".into(),
                exec_seconds: p.exec_seconds,
                total_alloc: p.total_alloc,
                initial_permanent: 1_000,
                initial_object_size: 64,
                classes: vec![
                    ramp(0.001),
                    ClassSpec::new(
                        "medium",
                        0.001,
                        SizeDist::PowerOfTwo { min: 16, max: 128 },
                        LifetimeDist::Exponential { mean: 800_000.0 },
                    ),
                    // Cfrac's live data pulses as each candidate factor
                    // base is built and discarded; a phase-local class
                    // reproduces the 2:1 max-to-mean live ratio.
                    ClassSpec::new(
                        "pulse",
                        0.006,
                        SizeDist::PowerOfTwo { min: 16, max: 128 },
                        LifetimeDist::PhaseLocal,
                    ),
                    ClassSpec::new(
                        "short",
                        0.992,
                        SizeDist::PowerOfTwo { min: 16, max: 128 },
                        LifetimeDist::Exponential { mean: 2_500.0 },
                    ),
                ],
                phase_period: Some(2_100_000),
                seed: 0xcf,
            },
        }
    }

    /// Generates the workload's event trace ([`WorkloadSpec::generate`]),
    /// for callers that want the events themselves, e.g. to write a trace
    /// file. Simulations and statistics should use
    /// [`Program::compiled`] and [`Program::stats`].
    ///
    /// Presets always validate, so this cannot fail.
    pub fn generate(self) -> Trace {
        self.spec()
            .generate()
            .expect("preset workload specs are valid by construction")
    }

    /// The compiled preset trace, built by [`WorkloadSpec::compile`]
    /// **exactly once per process** and shared behind an [`Arc`]. It
    /// equals `self.generate().compile()`.
    ///
    /// Presets are pure functions of their seed, so the compiled trace is
    /// immutable and safe to share across threads; every caller (and
    /// every [`Arc::ptr_eq`] check) observes the same allocation.
    /// Harnesses that evaluate many policies over one program should use
    /// this instead of [`Program::generate`] to avoid re-synthesizing the
    /// workload per cell.
    pub fn compiled(self) -> Arc<CompiledTrace> {
        static COMPILED: [OnceLock<Arc<CompiledTrace>>; 6] = [const { OnceLock::new() }; 6];
        COMPILED[self as usize]
            .get_or_init(|| {
                Arc::new(
                    self.spec()
                        .compile()
                        .expect("preset workload specs are valid by construction"),
                )
            })
            .clone()
    }

    /// The compiled preset's [`TraceStats`] (the `No GC` and `LIVE`
    /// rows' input), computed **exactly once per process** beside
    /// [`Program::compiled`], so a service worker sweeping a program
    /// runs the stats kernel once for both baseline rows.
    pub fn stats(self) -> &'static TraceStats {
        static STATS: [OnceLock<TraceStats>; 6] = [const { OnceLock::new() }; 6];
        STATS[self as usize].get_or_init(|| TraceStats::compute_compiled(&self.compiled()))
    }
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_validate() {
        for p in Program::ALL {
            p.spec().validate().unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = Program::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn class_fractions_sum_to_one() {
        for p in Program::ALL {
            let s = p.spec();
            let sum: f64 = s.classes.iter().map(|c| c.byte_fraction).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{p}: fractions sum to {sum}");
        }
    }

    #[test]
    fn profiles_match_table6_collections() {
        // Collections = total allocation / 1 MB trigger, within rounding.
        for p in Program::ALL {
            let prof = p.paper_profile();
            let derived = prof.total_alloc / 1_000_000;
            let diff = derived.abs_diff(prof.collections);
            assert!(
                diff <= 3,
                "{p}: {derived} derived vs {} published",
                prof.collections
            );
        }
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(Program::Espresso2.to_string(), "ESPRESSO(2)");
    }

    #[test]
    fn compiled_is_memoized_per_process() {
        let a = Program::Cfrac.compiled();
        let b = Program::Cfrac.compiled();
        assert!(Arc::ptr_eq(&a, &b), "compiled() must hand out one Arc");
        assert_eq!(a.meta.name, "CFRAC");
        // And it matches a fresh generate+compile of the same preset.
        let fresh = Program::Cfrac.generate().compile().unwrap();
        assert_eq!(fresh, *a);
    }

    #[test]
    fn stats_are_computed_once_from_the_compiled_preset() {
        let p = Program::Cfrac;
        assert!(std::ptr::eq(p.stats(), p.stats()));
        assert_eq!(*p.stats(), TraceStats::compute_compiled(&p.compiled()));
    }
}
