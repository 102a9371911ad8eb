//! Workload lifetime analysis: survival curves and age demographics.
//!
//! Generational collection works exactly when "most dynamically allocated
//! objects cease to be used very shortly after their creation"; the
//! dynamic threatening boundary works when the *survival function* —
//! the fraction of allocated bytes still live at age `a` — drops steeply
//! and then flattens. This module computes that function and related
//! demographics from a compiled trace, so a workload can be characterized
//! before choosing constraints (see the `workload_analysis` example).

use crate::event::CompiledTrace;
use dtb_core::time::Bytes;
use serde::{Deserialize, Serialize};

/// The byte-weighted survival function of a trace, tabulated at fixed age
/// checkpoints.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SurvivalCurve {
    /// Ages (bytes of allocation after birth) at which survival is
    /// tabulated, ascending.
    pub ages: Vec<u64>,
    /// `survival[i]`: fraction of allocated bytes (0–1) that live at
    /// least `ages[i]` bytes of further allocation.
    ///
    /// Objects still live at trace end are treated as surviving any age
    /// up to their observed lifespan, and counted as survivors beyond it
    /// (right-censored data, resolved optimistically — matching how a
    /// collector experiences them).
    pub survival: Vec<f64>,
}

impl SurvivalCurve {
    /// Computes the survival function at the given age checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `ages` is empty or not strictly ascending.
    pub fn compute(trace: &CompiledTrace, ages: &[u64]) -> SurvivalCurve {
        assert!(!ages.is_empty(), "need at least one age checkpoint");
        assert!(
            ages.windows(2).all(|w| w[0] < w[1]),
            "age checkpoints must be strictly ascending"
        );
        let mut surviving_bytes = vec![0u64; ages.len()];
        let mut total: u64 = 0;
        for life in trace.lives() {
            total += life.size as u64;
            let lifespan = match life.death {
                Some(d) => d.as_u64() - life.birth.as_u64(),
                // Right-censored: survives everything we can observe.
                None => u64::MAX,
            };
            for (i, age) in ages.iter().enumerate() {
                if lifespan >= *age {
                    surviving_bytes[i] += life.size as u64;
                }
            }
        }
        SurvivalCurve {
            ages: ages.to_vec(),
            survival: surviving_bytes
                .into_iter()
                .map(|s| {
                    if total == 0 {
                        0.0
                    } else {
                        s as f64 / total as f64
                    }
                })
                .collect(),
        }
    }

    /// The paper-relevant checkpoints: fractions and multiples of the 1 MB
    /// scavenge interval.
    pub fn at_paper_checkpoints(trace: &CompiledTrace) -> SurvivalCurve {
        SurvivalCurve::compute(
            trace,
            &[
                10_000, 100_000, 500_000, 1_000_000, // one scavenge interval
                2_000_000, 4_000_000, // the FIXED4 horizon
                8_000_000, 16_000_000,
            ],
        )
    }

    /// Survival fraction at the first checkpoint ≥ `age`, if any.
    pub fn at(&self, age: u64) -> Option<f64> {
        self.ages
            .iter()
            .position(|a| *a >= age)
            .map(|i| self.survival[i])
    }

    /// True when survival never increases with age (a sanity invariant of
    /// any survival function).
    pub fn is_monotone_nonincreasing(&self) -> bool {
        self.survival.windows(2).all(|w| w[0] >= w[1] + -1e-12)
    }
}

/// Aggregate workload demographics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Demographics {
    /// Total allocated bytes.
    pub total: Bytes,
    /// Bytes whose objects die within one 1 MB scavenge interval.
    pub dies_young: Bytes,
    /// Bytes that survive at least one interval but die within the trace.
    pub medium_lived: Bytes,
    /// Bytes still live at the end of the trace.
    pub immortal: Bytes,
}

impl Demographics {
    /// Computes demographics with the paper's 1 MB interval.
    pub fn compute(trace: &CompiledTrace) -> Demographics {
        let mut dies_young = 0u64;
        let mut medium = 0u64;
        let mut immortal = 0u64;
        for life in trace.lives() {
            match life.death {
                None => immortal += life.size as u64,
                Some(d) => {
                    if d.as_u64() - life.birth.as_u64() < 1_000_000 {
                        dies_young += life.size as u64;
                    } else {
                        medium += life.size as u64;
                    }
                }
            }
        }
        Demographics {
            total: trace.total_allocated(),
            dies_young: Bytes::new(dies_young),
            medium_lived: Bytes::new(medium),
            immortal: Bytes::new(immortal),
        }
    }

    /// Fraction of bytes dying within one scavenge interval — the "weak
    /// generational hypothesis" number.
    pub fn young_death_fraction(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.dies_young.as_u64() as f64 / self.total.as_u64() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::programs::Program;

    fn small_trace() -> CompiledTrace {
        let mut b = TraceBuilder::new("a");
        let x = b.alloc(100); // dies at age 200
        b.alloc(100);
        b.alloc(100);
        b.free(x);
        b.alloc(100); // three survivors (immortal)
        b.finish().compile().unwrap()
    }

    #[test]
    fn survival_counts_censored_objects_as_survivors() {
        let c = small_trace();
        let curve = SurvivalCurve::compute(&c, &[1, 100, 200, 1_000]);
        // All 4 objects (400 bytes) survive age 1 and 100... object x dies
        // at age 200 exactly: lifespan 200 ≥ 200 counts as surviving 200.
        assert_eq!(curve.survival[0], 1.0);
        assert_eq!(curve.survival[2], 1.0);
        // At age 1000 only the 3 immortals remain.
        assert_eq!(curve.survival[3], 0.75);
        assert!(curve.is_monotone_nonincreasing());
    }

    #[test]
    fn at_finds_first_checkpoint() {
        let c = small_trace();
        let curve = SurvivalCurve::compute(&c, &[100, 1_000]);
        assert_eq!(curve.at(50), Some(1.0));
        assert_eq!(curve.at(500), Some(0.75));
        assert_eq!(curve.at(5_000), None);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_checkpoints_rejected() {
        let c = small_trace();
        let _ = SurvivalCurve::compute(&c, &[100, 100]);
    }

    #[test]
    fn demographics_partition_totals() {
        let d = Demographics::compute(&small_trace());
        assert_eq!(d.total, d.dies_young + d.medium_lived + d.immortal);
        assert_eq!(d.dies_young, Bytes::new(100));
        assert_eq!(d.immortal, Bytes::new(300));
    }

    #[test]
    fn presets_obey_the_generational_hypothesis() {
        // Every preset except SIS allocates mostly short-lived data.
        let d = Demographics::compute(&Program::Cfrac.compiled());
        assert!(
            d.young_death_fraction() > 0.9,
            "CFRAC young-death fraction {:.2}",
            d.young_death_fraction()
        );
        let curve = SurvivalCurve::at_paper_checkpoints(&Program::Cfrac.compiled());
        assert!(curve.is_monotone_nonincreasing());
        // Survival at one scavenge interval is small.
        assert!(curve.at(1_000_000).unwrap() < 0.1);
    }
}
