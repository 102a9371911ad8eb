//! Object size and lifetime distributions for synthetic workloads.
//!
//! Lifetimes are measured on the **allocation clock** (bytes of further
//! allocation until the object dies), the standard way GC workload studies
//! express lifetimes, because collector behaviour depends on how much
//! allocation — not wall-clock time — separates birth from death.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution over object sizes, in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SizeDist {
    /// Every object has the same size.
    Fixed(u32),
    /// Uniform over `[min, max]` inclusive.
    Uniform {
        /// Smallest size (≥ 1).
        min: u32,
        /// Largest size.
        max: u32,
    },
    /// A crude heavy-tail: geometric over powers of two between `min` and
    /// `max` (each doubling half as likely), modelling the mix of small
    /// cells and occasional big buffers typical of C allocators.
    PowerOfTwo {
        /// Smallest size (≥ 1).
        min: u32,
        /// Largest size (≥ min).
        max: u32,
    },
}

impl SizeDist {
    /// Draws one size.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is malformed (zero sizes or `min > max`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match *self {
            SizeDist::Fixed(s) => {
                assert!(s > 0, "zero-sized objects are not allocatable");
                s
            }
            SizeDist::Uniform { min, max } => {
                assert!(min >= 1 && min <= max, "bad uniform size bounds");
                rng.gen_range(min..=max)
            }
            SizeDist::PowerOfTwo { min, max } => {
                assert!(min >= 1 && min <= max, "bad power-of-two size bounds");
                let mut size = min;
                while size < max && rng.gen_bool(0.5) {
                    size = size.saturating_mul(2).min(max);
                }
                size
            }
        }
    }

    /// True when [`sample`](SizeDist::sample) cannot panic: no zero
    /// size, and `min <= max`.
    pub fn is_valid(&self) -> bool {
        match *self {
            SizeDist::Fixed(s) => s > 0,
            SizeDist::Uniform { min, max } | SizeDist::PowerOfTwo { min, max } => {
                min >= 1 && min <= max
            }
        }
    }

    /// The distribution's mean, used by generators to convert byte-weights
    /// into object-count weights.
    pub fn mean(&self) -> f64 {
        match *self {
            SizeDist::Fixed(s) => s as f64,
            SizeDist::Uniform { min, max } => (min as f64 + max as f64) / 2.0,
            SizeDist::PowerOfTwo { min, max } => {
                // E[size] for the doubling walk: sum over levels.
                let mut size = min as f64;
                let mut p = 1.0;
                let mut mean = 0.0;
                loop {
                    let stop_p = if (size as u32) >= max { p } else { p * 0.5 };
                    mean += stop_p * size.min(max as f64);
                    if (size as u32) >= max {
                        break;
                    }
                    p *= 0.5;
                    size *= 2.0;
                }
                mean
            }
        }
    }
}

/// A distribution over object lifetimes, in bytes of further allocation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LifetimeDist {
    /// The object never becomes unreachable (lives to program end).
    Immortal,
    /// Exponentially distributed with the given mean — the classic
    /// "most objects die young" survival curve.
    Exponential {
        /// Mean lifetime in allocation bytes.
        mean: f64,
    },
    /// Uniform over `[min, max]` bytes.
    Uniform {
        /// Shortest lifetime.
        min: u64,
        /// Longest lifetime.
        max: u64,
    },
    /// Exactly this many bytes of allocation after birth.
    Fixed(u64),
    /// The object dies at the end of the current program *phase*: the next
    /// multiple of the workload's phase period. Models pass-local data
    /// (e.g. Espresso's per-optimization-pass structures) that dies in
    /// bulk at phase boundaries.
    PhaseLocal,
}

impl LifetimeDist {
    /// Draws a lifetime in allocation bytes; `None` means immortal.
    /// [`LifetimeDist::PhaseLocal`] is resolved by the generator (it needs
    /// the phase clock), so this returns `Some(0)` as a placeholder there.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u64> {
        match *self {
            LifetimeDist::Immortal => None,
            LifetimeDist::Exponential { mean } => {
                assert!(mean > 0.0, "exponential mean must be positive");
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                Some((-mean * u.ln()).round() as u64)
            }
            LifetimeDist::Uniform { min, max } => {
                assert!(min <= max, "bad uniform lifetime bounds");
                Some(rng.gen_range(min..=max))
            }
            LifetimeDist::Fixed(l) => Some(l),
            LifetimeDist::PhaseLocal => Some(0),
        }
    }

    /// Expected lifetime in bytes; `None` for immortal. For
    /// [`LifetimeDist::PhaseLocal`] the mean is half the phase period,
    /// which the generator knows — this returns `None` here as well since
    /// the distribution alone cannot say.
    pub fn mean(&self) -> Option<f64> {
        match *self {
            LifetimeDist::Immortal | LifetimeDist::PhaseLocal => None,
            LifetimeDist::Exponential { mean } => Some(mean),
            LifetimeDist::Uniform { min, max } => Some((min + max) as f64 / 2.0),
            LifetimeDist::Fixed(l) => Some(l as f64),
        }
    }

    /// True for [`LifetimeDist::PhaseLocal`].
    pub fn is_phase_local(&self) -> bool {
        matches!(self, LifetimeDist::PhaseLocal)
    }

    /// True when [`sample`](LifetimeDist::sample) cannot panic: an
    /// exponential mean that is positive and finite, and uniform bounds
    /// with `min <= max`.
    pub fn is_valid(&self) -> bool {
        match *self {
            LifetimeDist::Exponential { mean } => mean > 0.0 && mean.is_finite(),
            LifetimeDist::Uniform { min, max } => min <= max,
            LifetimeDist::Immortal | LifetimeDist::Fixed(_) | LifetimeDist::PhaseLocal => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fixed_size_is_constant() {
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(SizeDist::Fixed(24).sample(&mut r), 24);
        }
        assert_eq!(SizeDist::Fixed(24).mean(), 24.0);
    }

    #[test]
    fn uniform_size_within_bounds() {
        let mut r = rng();
        let d = SizeDist::Uniform { min: 8, max: 64 };
        for _ in 0..1000 {
            let s = d.sample(&mut r);
            assert!((8..=64).contains(&s));
        }
        assert_eq!(d.mean(), 36.0);
    }

    #[test]
    fn power_of_two_sizes_are_doublings_of_min() {
        let mut r = rng();
        let d = SizeDist::PowerOfTwo { min: 16, max: 256 };
        for _ in 0..1000 {
            let s = d.sample(&mut r);
            assert!((16..=256).contains(&s));
            assert!(s.is_power_of_two());
        }
        // Mean: 16·½ + 32·¼ + 64·⅛ + 128·1/16 + 256·1/16 = 8+8+8+8+16 = 48.
        assert!((d.mean() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn power_of_two_doubling_stops_at_max_near_the_top_of_u32() {
        let mut r = rng();
        let d = SizeDist::PowerOfTwo {
            min: 3_000_000_000,
            max: u32::MAX,
        };
        assert!(d.is_valid());
        for _ in 0..100 {
            let s = d.sample(&mut r);
            assert!(s == 3_000_000_000 || s == u32::MAX, "size {s}");
        }
    }

    #[test]
    fn exponential_lifetime_mean_close_to_parameter() {
        let mut r = rng();
        let d = LifetimeDist::Exponential { mean: 10_000.0 };
        let n = 20_000;
        let total: u64 = (0..n).map(|_| d.sample(&mut r).unwrap()).sum();
        let empirical = total as f64 / n as f64;
        assert!(
            (empirical - 10_000.0).abs() < 300.0,
            "empirical mean {empirical}"
        );
        assert_eq!(d.mean(), Some(10_000.0));
    }

    #[test]
    fn immortal_never_dies() {
        let mut r = rng();
        assert_eq!(LifetimeDist::Immortal.sample(&mut r), None);
        assert_eq!(LifetimeDist::Immortal.mean(), None);
    }

    #[test]
    fn uniform_lifetime_within_bounds() {
        let mut r = rng();
        let d = LifetimeDist::Uniform { min: 100, max: 200 };
        for _ in 0..500 {
            let l = d.sample(&mut r).unwrap();
            assert!((100..=200).contains(&l));
        }
        assert_eq!(d.mean(), Some(150.0));
    }

    #[test]
    fn phase_local_is_marked() {
        assert!(LifetimeDist::PhaseLocal.is_phase_local());
        assert!(!LifetimeDist::Immortal.is_phase_local());
        let mut r = rng();
        assert_eq!(LifetimeDist::PhaseLocal.sample(&mut r), Some(0));
    }

    #[test]
    fn fixed_lifetime_exact() {
        let mut r = rng();
        assert_eq!(LifetimeDist::Fixed(777).sample(&mut r), Some(777));
        assert_eq!(LifetimeDist::Fixed(777).mean(), Some(777.0));
    }
}
