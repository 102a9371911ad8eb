//! Summary statistics used by the paper's tables.
//!
//! Table 2 reports mean/maximum memory, Table 3 median/90th-percentile
//! pause times, Table 4 total traced storage and CPU overhead. This module
//! provides the two accumulators those tables need: an exact
//! order-statistics summary over a recorded sample set ([`SampleStats`])
//! and a weighted running mean/max accumulator for memory-over-time curves
//! ([`WeightedStats`]).

use serde::{Deserialize, Serialize};

/// Exact order statistics over an explicit sample set.
///
/// Used for pause times: one sample per scavenge (a program has at most a
/// few hundred collections, so keeping all samples is cheap and exact).
///
/// # Example
///
/// ```
/// use dtb_core::stats::SampleStats;
///
/// let mut s = SampleStats::new();
/// for v in [10.0, 20.0, 30.0, 40.0] {
///     s.record(v);
/// }
/// assert_eq!(s.median(), Some(25.0));
/// assert_eq!(s.percentile(90.0), Some(37.0)); // interpolated rank
/// assert_eq!(s.max(), Some(40.0));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SampleStats {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleStats {
    /// Creates an empty sample set.
    pub fn new() -> SampleStats {
        SampleStats::default()
    }

    /// Records one sample. Non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
            self.sorted = false;
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn sorted_samples(&mut self) -> &[f64] {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = true;
        }
        &self.samples
    }

    /// The `p`-th percentile (0–100) by linear interpolation between
    /// closest ranks; `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        let s = self.sorted_samples();
        if s.is_empty() {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (s.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(s[lo] + (s[hi] - s[lo]) * frac)
    }

    /// The median (50th percentile); `None` when empty.
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The largest sample; `None` when empty.
    pub fn max(&mut self) -> Option<f64> {
        self.sorted_samples().last().copied()
    }

    /// The smallest sample; `None` when empty.
    pub fn min(&mut self) -> Option<f64> {
        self.sorted_samples().first().copied()
    }

    /// The arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// The sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// A read-only view of the raw samples, in insertion order is *not*
    /// guaranteed (they may have been sorted by a percentile query).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl FromIterator<f64> for SampleStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = SampleStats::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for SampleStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

/// Weight-averaged mean and maximum of a piecewise-constant signal.
///
/// Used for memory-in-use: the signal holds value `v` for a weight `w` (an
/// allocation-clock span), and Table 2's *mean memory* is the
/// weight-averaged value over the whole run. Recording with weight zero
/// still updates the maximum (a spike between allocations counts for the
/// max but not the mean).
///
/// # Example
///
/// ```
/// use dtb_core::stats::WeightedStats;
///
/// let mut m = WeightedStats::new();
/// m.record(100.0, 1.0);
/// m.record(300.0, 3.0);
/// assert_eq!(m.mean(), Some(250.0));
/// assert_eq!(m.max(), Some(300.0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WeightedStats {
    weighted_sum: f64,
    total_weight: f64,
    max: Option<f64>,
}

impl WeightedStats {
    /// Creates an empty accumulator.
    pub fn new() -> WeightedStats {
        WeightedStats::default()
    }

    /// Records that the signal held `value` for `weight` units.
    ///
    /// Non-finite values or negative weights are ignored.
    pub fn record(&mut self, value: f64, weight: f64) {
        if !value.is_finite() || !weight.is_finite() || weight < 0.0 {
            return;
        }
        self.weighted_sum += value * weight;
        self.total_weight += weight;
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Records a ramp: the signal starts at `start` and, for each size
    /// `s_i` in turn, holds its current level for weight `s_i` and then
    /// rises by `s_i` — memory in use over a run of allocations. The
    /// result is bit-identical to one [`record`](Self::record) per size:
    ///
    /// ```text
    /// let mut level = start;
    /// for &s in sizes {
    ///     stats.record(level as f64, s as f64);
    ///     level += s as u64;
    /// }
    /// ```
    ///
    /// While both running sums are integers below 2^53, every addition
    /// of an integer product is exact, so the order stops mattering:
    /// when the sums stay below 2^53 after the ramp's weighted total
    /// `W = start·S + Σ_{i<j} s_i·s_j` and total weight `S` are added,
    /// they are added in one integer step, and the last level is the
    /// ramp's maximum. Otherwise the same f64 additions run in
    /// per-sample order. The levels are `u64` byte counts, so
    /// `start + S` must fit in a `u64`.
    ///
    /// # Example
    ///
    /// ```
    /// use dtb_core::stats::{Ramp, WeightedStats};
    ///
    /// let sizes = [100, 200, 50];
    /// let (mut each, mut ramp) = (WeightedStats::new(), WeightedStats::new());
    /// let mut level = 1_000u64;
    /// for &s in &sizes {
    ///     each.record(level as f64, s as f64);
    ///     level += s as u64;
    /// }
    /// ramp.record_ramp(1_000, Ramp::new(&sizes));
    /// assert_eq!(each, ramp);
    /// assert_eq!(ramp.max(), Some(1_300.0));
    /// ```
    pub fn record_ramp(&mut self, start: u64, ramp: Ramp<'_>) {
        let Some(&last) = ramp.sizes.last() else {
            return;
        };
        // Levels only rise, and rounding a u64 to f64 is monotone, so the
        // last level is the largest sample either way.
        let top = (start + (ramp.sum - last as u64)) as f64;
        let weighted = start as u128 * ramp.sum as u128 + ramp.pairwise;
        match (
            exact_integer(self.weighted_sum),
            exact_integer(self.total_weight),
        ) {
            (Some(sum), Some(total))
                if weighted < (EXACT - sum) as u128 && ramp.sum < EXACT - total =>
            {
                self.weighted_sum = (sum + weighted as u64) as f64;
                self.total_weight = (total + ramp.sum) as f64;
            }
            _ => {
                let (mut sum, mut total, mut level) = (self.weighted_sum, self.total_weight, start);
                for &s in ramp.sizes {
                    sum += level as f64 * s as f64;
                    total += s as f64;
                    level += s as u64;
                }
                self.weighted_sum = sum;
                self.total_weight = total;
            }
        }
        self.max = Some(self.max.map_or(top, |m| m.max(top)));
    }

    /// The weight-averaged mean; `None` before any positive-weight sample.
    pub fn mean(&self) -> Option<f64> {
        if self.total_weight > 0.0 {
            Some(self.weighted_sum / self.total_weight)
        } else {
            None
        }
    }

    /// The maximum observed value; `None` before any sample.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Total weight recorded so far.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }
}

/// The first integer past the run of integers an f64 holds exactly:
/// below it, adding integers to an integer sum never rounds.
const EXACT: u64 = 1 << 53;

/// `x` as an integer, if it is one in `0..2^53`.
fn exact_integer(x: f64) -> Option<u64> {
    (x >= 0.0 && x < EXACT as f64 && x as u64 as f64 == x).then_some(x as u64)
}

/// A run of allocation sizes for [`WeightedStats::record_ramp`], with the
/// two moments the exact fold needs: the sum `S = Σ s_i` and the pairwise
/// moment `Σ_{i<j} s_i·s_j`. A caller folding one run into several
/// accumulators computes them once.
#[derive(Clone, Copy, Debug)]
pub struct Ramp<'a> {
    sizes: &'a [u32],
    sum: u64,
    pairwise: u128,
}

impl<'a> Ramp<'a> {
    /// The ramp of `sizes`, its moments computed here.
    pub fn new(sizes: &'a [u32]) -> Ramp<'a> {
        let sum = sizes.iter().map(|&s| s as u64).sum();
        let squares = sizes.iter().map(|&s| (s as u64 * s as u64) as u128).sum();
        Ramp::from_sums(sizes, sum, squares)
    }

    /// The ramp of `sizes` from its sum `Σ s_i` and sum of squares
    /// `Σ s_i²`, say as differences of prefix sums over a larger run:
    /// the pairwise moment is `(S² − Σ s_i²) / 2`.
    pub fn from_sums(sizes: &'a [u32], sum: u64, squares: u128) -> Ramp<'a> {
        debug_assert_eq!(sum, sizes.iter().map(|&s| s as u64).sum::<u64>());
        debug_assert_eq!(
            squares,
            sizes
                .iter()
                .map(|&s| (s as u64 * s as u64) as u128)
                .sum::<u128>()
        );
        Ramp {
            sizes,
            sum,
            pairwise: (sum as u128 * sum as u128 - squares) / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_answer_none() {
        let mut s = SampleStats::new();
        assert!(s.is_empty());
        assert_eq!(s.median(), None);
        assert_eq!(s.percentile(90.0), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s: SampleStats = [42.0].into_iter().collect();
        assert_eq!(s.median(), Some(42.0));
        assert_eq!(s.percentile(0.0), Some(42.0));
        assert_eq!(s.percentile(100.0), Some(42.0));
        assert_eq!(s.min(), Some(42.0));
    }

    #[test]
    fn median_interpolates_even_counts() {
        let mut s: SampleStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.median(), Some(2.5));
    }

    #[test]
    fn percentile_90_of_ten_samples() {
        let mut s: SampleStats = (1..=10).map(|v| v as f64).collect();
        // rank = 0.9 · 9 = 8.1 ⇒ 9 + 0.1·(10−9) = 9.1
        assert!((s.percentile(90.0).unwrap() - 9.1).abs() < 1e-12);
    }

    #[test]
    fn percentile_clamps_out_of_range() {
        let mut s: SampleStats = [1.0, 2.0].into_iter().collect();
        assert_eq!(s.percentile(-5.0), Some(1.0));
        assert_eq!(s.percentile(200.0), Some(2.0));
    }

    #[test]
    fn records_ignore_non_finite() {
        let mut s = SampleStats::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert!(s.is_empty());
    }

    #[test]
    fn interleaved_record_and_query() {
        let mut s = SampleStats::new();
        s.record(3.0);
        assert_eq!(s.median(), Some(3.0));
        s.record(1.0); // must re-sort
        assert_eq!(s.median(), Some(2.0));
        s.record(2.0);
        assert_eq!(s.median(), Some(2.0));
        assert_eq!(s.len(), 3);
        assert!((s.sum() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_weighs_by_duration() {
        let mut m = WeightedStats::new();
        m.record(10.0, 9.0);
        m.record(100.0, 1.0);
        assert_eq!(m.mean(), Some(19.0));
        assert_eq!(m.max(), Some(100.0));
        assert_eq!(m.total_weight(), 10.0);
    }

    #[test]
    fn zero_weight_updates_only_max() {
        let mut m = WeightedStats::new();
        m.record(500.0, 0.0);
        assert_eq!(m.mean(), None);
        assert_eq!(m.max(), Some(500.0));
        m.record(10.0, 2.0);
        assert_eq!(m.mean(), Some(10.0));
        assert_eq!(m.max(), Some(500.0));
    }

    #[test]
    fn negative_weight_ignored() {
        let mut m = WeightedStats::new();
        m.record(5.0, -1.0);
        assert_eq!(m.mean(), None);
        assert_eq!(m.max(), None);
    }
}
