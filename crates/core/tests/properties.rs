//! Property-based tests for the policy framework invariants.

use dtb_core::history::{ScavengeHistory, ScavengeRecord};
use dtb_core::policy::{
    DtbDual, DtbFm, DtbMem, FeedMed, Fixed, Full, LiveEstimate, NoSurvivalInfo, PolicyConfig,
    PolicyKind, ScavengeContext, SurvivalEstimator, TbPolicy,
};
use dtb_core::stats::{Ramp, SampleStats, WeightedStats};
use dtb_core::time::{Bytes, VirtualTime};
use proptest::prelude::*;

/// An estimator over a birth table, as the simulator would supply.
#[derive(Debug)]
struct TableEstimator {
    entries: Vec<(u64, u64)>, // (birth, surviving size)
}

impl SurvivalEstimator for TableEstimator {
    fn surviving_born_after(&self, tb: VirtualTime) -> Bytes {
        Bytes::new(
            self.entries
                .iter()
                .filter(|(b, _)| VirtualTime::from_bytes(*b) > tb)
                .map(|(_, s)| *s)
                .sum(),
        )
    }
}

/// Builds a plausible random scavenge history: times strictly increasing,
/// each record internally consistent (mem_before = surviving + reclaimed),
/// boundary no later than the scavenge time.
fn history_strategy() -> impl Strategy<Value = ScavengeHistory> {
    prop::collection::vec(
        (
            1u64..=1_000_000,
            0u64..=500_000,
            0u64..=500_000,
            0u64..=500_000,
        ),
        0..12,
    )
    .prop_map(|raw| {
        let mut t = 0u64;
        let mut h = ScavengeHistory::new();
        for (dt, traced, surviving, reclaimed) in raw {
            t += dt;
            h.push(ScavengeRecord {
                at: VirtualTime::from_bytes(t),
                boundary: VirtualTime::from_bytes(t.saturating_sub(dt)),
                traced: Bytes::new(traced),
                surviving: Bytes::new(surviving),
                reclaimed: Bytes::new(reclaimed),
                mem_before: Bytes::new(surviving + reclaimed),
            });
        }
        h
    })
}

fn estimator_strategy() -> impl Strategy<Value = TableEstimator> {
    prop::collection::vec((0u64..=2_000_000, 0u64..=100_000), 0..20)
        .prop_map(|entries| TableEstimator { entries })
}

/// Every policy, under every context, must return a boundary that is (a) no
/// later than `now` and (b) no later than the previous scavenge time — so
/// that every object is traced at least once.
fn assert_legal_boundary(policy: &mut dyn TbPolicy, ctx: &ScavengeContext<'_>) {
    let tb = policy
        .select_boundary(ctx)
        .unwrap_or_else(|e| panic!("{}: select_boundary failed: {e}", policy.name()));
    assert!(
        tb <= ctx.now,
        "{}: boundary {tb:?} later than now {:?}",
        policy.name(),
        ctx.now
    );
    if let Some(prev) = ctx.history.last() {
        assert!(
            tb <= prev.at,
            "{}: boundary {tb:?} later than previous scavenge {:?}",
            policy.name(),
            prev.at
        );
    }
}

proptest! {
    #[test]
    fn all_policies_return_legal_boundaries(
        h in history_strategy(),
        est in estimator_strategy(),
        extra in 1u64..=2_000_000,
        mem in 0u64..=5_000_000,
        trace_max in 0u64..=200_000,
        mem_max in 0u64..=5_000_000,
    ) {
        let now = h.last().map_or(VirtualTime::ZERO, |r| r.at).advance(Bytes::new(extra));
        let ctx = ScavengeContext {
            now,
            mem_before: Bytes::new(mem),
            history: &h,
            survival: &est,
        };
        let cfg = PolicyConfig::new(Bytes::new(trace_max), Bytes::new(mem_max));
        for kind in PolicyKind::ALL {
            let mut p = kind.build(&cfg);
            assert_legal_boundary(&mut p, &ctx);
        }
    }

    #[test]
    fn policies_are_deterministic(
        h in history_strategy(),
        est in estimator_strategy(),
        extra in 1u64..=2_000_000,
        mem in 0u64..=5_000_000,
    ) {
        let now = h.last().map_or(VirtualTime::ZERO, |r| r.at).advance(Bytes::new(extra));
        let ctx = ScavengeContext {
            now,
            mem_before: Bytes::new(mem),
            history: &h,
            survival: &est,
        };
        let cfg = PolicyConfig::paper();
        for kind in PolicyKind::ALL {
            let a = kind.build(&cfg).select_boundary(&ctx).unwrap();
            let b = kind.build(&cfg).select_boundary(&ctx).unwrap();
            prop_assert_eq!(a, b, "{} not deterministic", kind);
        }
    }

    #[test]
    fn feedmed_never_moves_boundary_backward(
        h in history_strategy(),
        est in estimator_strategy(),
        extra in 1u64..=2_000_000,
        trace_max in 0u64..=200_000,
    ) {
        prop_assume!(!h.is_empty());
        let now = h.last().unwrap().at.advance(Bytes::new(extra));
        let ctx = ScavengeContext {
            now,
            mem_before: Bytes::new(0),
            history: &h,
            survival: &est,
        };
        let prev_tb = h.last().unwrap().boundary;
        let tb = FeedMed::new(Bytes::new(trace_max))
            .select_boundary(&ctx)
            .unwrap();
        prop_assert!(tb >= prev_tb, "FEEDMED moved boundary backward: {tb:?} < {prev_tb:?}");
    }

    #[test]
    fn dtbmem_monotone_in_budget(
        h in history_strategy(),
        extra in 1u64..=2_000_000,
        mem in 1u64..=5_000_000,
        budgets in prop::collection::vec(0u64..=10_000_000, 2..6),
    ) {
        prop_assume!(!h.is_empty());
        let now = h.last().unwrap().at.advance(Bytes::new(extra));
        let est = NoSurvivalInfo;
        let ctx = ScavengeContext {
            now,
            mem_before: Bytes::new(mem),
            history: &h,
            survival: &est,
        };
        let mut sorted = budgets.clone();
        sorted.sort_unstable();
        let mut prev_tb = VirtualTime::ZERO;
        for b in sorted {
            let tb = DtbMem::new(Bytes::new(b)).select_boundary(&ctx).unwrap();
            prop_assert!(tb >= prev_tb, "larger budget produced older boundary");
            prev_tb = tb;
        }
    }

    #[test]
    fn fixed_k_boundary_is_a_recorded_time_or_zero(
        h in history_strategy(),
        extra in 1u64..=2_000_000,
        k in 1usize..=6,
    ) {
        let now = h.last().map_or(VirtualTime::ZERO, |r| r.at).advance(Bytes::new(extra));
        let est = NoSurvivalInfo;
        let ctx = ScavengeContext {
            now,
            mem_before: Bytes::ZERO,
            history: &h,
            survival: &est,
        };
        let tb = Fixed::new(k).select_boundary(&ctx).unwrap();
        let is_recorded = h.iter().any(|r| r.at == tb);
        prop_assert!(tb == VirtualTime::ZERO || is_recorded);
    }

    #[test]
    fn full_is_always_zero(
        h in history_strategy(),
        extra in 1u64..=2_000_000,
    ) {
        let now = h.last().map_or(VirtualTime::ZERO, |r| r.at).advance(Bytes::new(extra));
        let est = NoSurvivalInfo;
        let ctx = ScavengeContext {
            now,
            mem_before: Bytes::ZERO,
            history: &h,
            survival: &est,
        };
        prop_assert_eq!(Full::new().select_boundary(&ctx), Ok(VirtualTime::ZERO));
    }

    #[test]
    fn dtbfm_full_budget_slack_never_panics_and_stays_legal(
        h in history_strategy(),
        est in estimator_strategy(),
        extra in 1u64..=2_000_000,
        trace_max in 0u64..=1_000_000,
    ) {
        let now = h.last().map_or(VirtualTime::ZERO, |r| r.at).advance(Bytes::new(extra));
        let ctx = ScavengeContext {
            now,
            mem_before: Bytes::ZERO,
            history: &h,
            survival: &est,
        };
        let mut p = DtbFm::new(Bytes::new(trace_max));
        assert_legal_boundary(&mut p, &ctx);
    }

    #[test]
    fn sample_stats_percentiles_bounded_by_min_max(
        samples in prop::collection::vec(-1e12f64..1e12, 1..200),
        p in 0.0f64..=100.0,
    ) {
        let mut s: SampleStats = samples.iter().copied().collect();
        let v = s.percentile(p).unwrap();
        let min = s.min().unwrap();
        let max = s.max().unwrap();
        prop_assert!(v >= min && v <= max);
    }

    #[test]
    fn sample_stats_percentile_monotone(
        samples in prop::collection::vec(-1e12f64..1e12, 1..100),
        p1 in 0.0f64..=100.0,
        p2 in 0.0f64..=100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let mut s: SampleStats = samples.iter().copied().collect();
        prop_assert!(s.percentile(lo).unwrap() <= s.percentile(hi).unwrap());
    }

    #[test]
    fn weighted_mean_between_min_and_max_value(
        points in prop::collection::vec((0.0f64..1e9, 0.0f64..1e6), 1..100),
    ) {
        let mut w = WeightedStats::new();
        for (v, wt) in &points {
            w.record(*v, *wt);
        }
        if let Some(mean) = w.mean() {
            let max = points.iter().map(|(v, _)| *v).fold(f64::MIN, f64::max);
            let min = points
                .iter()
                .filter(|(_, wt)| *wt > 0.0)
                .map(|(v, _)| *v)
                .fold(f64::MAX, f64::min);
            prop_assert!(mean <= max * (1.0 + 1e-9));
            prop_assert!(mean >= min * (1.0 - 1e-9) - 1e-9);
        }
    }

    #[test]
    fn bytes_midpoint_between_operands(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX) {
        let m = Bytes::new(a).midpoint(Bytes::new(b));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(m.as_u64() >= lo && m.as_u64() <= hi);
    }
}

proptest! {
    #[test]
    fn dual_policy_returns_legal_boundaries(
        h in history_strategy(),
        est in estimator_strategy(),
        extra in 1u64..=2_000_000,
        mem in 0u64..=5_000_000,
        trace_max in 0u64..=200_000,
        mem_max in 0u64..=5_000_000,
    ) {
        let now = h.last().map_or(VirtualTime::ZERO, |r| r.at).advance(Bytes::new(extra));
        let ctx = ScavengeContext {
            now,
            mem_before: Bytes::new(mem),
            history: &h,
            survival: &est,
        };
        let mut p = DtbDual::new(Bytes::new(trace_max), Bytes::new(mem_max));
        assert_legal_boundary(&mut p, &ctx);
    }

    #[test]
    fn dual_boundary_never_older_than_dtbmem_alone(
        h in history_strategy(),
        est in estimator_strategy(),
        extra in 1u64..=2_000_000,
        mem in 0u64..=5_000_000,
        trace_max in 0u64..=200_000,
        mem_max in 0u64..=5_000_000,
    ) {
        // The pause budget can only advance (never deepen) the memory
        // policy's boundary.
        let now = h.last().map_or(VirtualTime::ZERO, |r| r.at).advance(Bytes::new(extra));
        let ctx = ScavengeContext {
            now,
            mem_before: Bytes::new(mem),
            history: &h,
            survival: &est,
        };
        let dual = DtbDual::new(Bytes::new(trace_max), Bytes::new(mem_max))
            .select_boundary(&ctx)
            .unwrap();
        let mem_only = DtbMem::new(Bytes::new(mem_max)).select_boundary(&ctx).unwrap();
        prop_assert!(dual >= mem_only);
    }

    #[test]
    fn estimator_variants_all_yield_legal_boundaries(
        h in history_strategy(),
        extra in 1u64..=2_000_000,
        mem in 0u64..=5_000_000,
        mem_max in 0u64..=5_000_000,
    ) {
        let now = h.last().map_or(VirtualTime::ZERO, |r| r.at).advance(Bytes::new(extra));
        let est = NoSurvivalInfo;
        let ctx = ScavengeContext {
            now,
            mem_before: Bytes::new(mem),
            history: &h,
            survival: &est,
        };
        for kind in [LiveEstimate::Traced, LiveEstimate::Midpoint, LiveEstimate::Surviving] {
            let mut p = DtbMem::with_estimate(Bytes::new(mem_max), kind);
            assert_legal_boundary(&mut p, &ctx);
        }
    }

    #[test]
    fn degenerate_contexts_never_error(
        h in history_strategy(),
        extra in 1u64..=2_000_000,
    ) {
        // Zero budgets, an empty heap, and (possibly) an empty history:
        // every division-by-zero hazard at once. Policies must degrade
        // (typically to a full collection), never fail or panic.
        let now = h.last().map_or(VirtualTime::ZERO, |r| r.at).advance(Bytes::new(extra));
        let est = NoSurvivalInfo;
        let ctx = ScavengeContext {
            now,
            mem_before: Bytes::ZERO,
            history: &h,
            survival: &est,
        };
        let cfg = PolicyConfig::new(Bytes::ZERO, Bytes::ZERO);
        for kind in PolicyKind::ALL {
            let mut p = kind.build(&cfg);
            assert_legal_boundary(&mut p, &ctx);
        }
        let mut dual = DtbDual::new(Bytes::ZERO, Bytes::ZERO);
        assert_legal_boundary(&mut dual, &ctx);
    }
}

/// A value on one of the scales the ramp fold tells apart: small, just
/// under 2^53, just over it, just under 2^63, or log-uniform anywhere in
/// `u64`.
fn scale(regime: u8, raw: u64) -> u64 {
    const TWO_53: u64 = 1 << 53;
    match regime {
        0 => raw >> 40,
        1 => TWO_53 - 1 - (raw >> 24),
        2 => TWO_53 + (raw >> 24),
        3 => (1 << 63) - (raw >> 26),
        _ => raw >> (raw % 64),
    }
}

/// An accumulator's state before a ramp: its weighted sum and total
/// weight each fresh or on one of [`scale`]'s scales, and, half the
/// time, a `record(0.5, 1.0)`, which leaves a weighted sum below 2^52 a
/// non-integer.
fn prior_strategy() -> impl Strategy<Value = WeightedStats> {
    (
        (0u8..=5, any::<u64>()),
        (0u8..=5, any::<u64>()),
        any::<bool>(),
    )
        .prop_map(|((wr, w), (tr, t), half)| {
            let mut stats = WeightedStats::new();
            if wr < 5 {
                stats.record(scale(wr, w) as f64, 1.0);
            }
            if tr < 5 {
                stats.record(0.0, scale(tr, t) as f64);
            }
            if half {
                stats.record(0.5, 1.0);
            }
            stats
        })
}

/// A ramp's start and sizes: sizes log-uniform in `1..=u32::MAX`, and a
/// start on one of [`scale`]'s scales, capped so the last level fits in
/// a `u64`.
fn ramp_strategy() -> impl Strategy<Value = (u64, Vec<u32>)> {
    (
        prop::collection::vec((0u32..32, any::<u32>()), 0..48),
        0u8..=4,
        any::<u64>(),
    )
        .prop_map(|(raw, regime, start)| {
            let sizes: Vec<u32> = raw.iter().map(|&(shift, s)| (s >> shift).max(1)).collect();
            let sum: u64 = sizes.iter().map(|&s| s as u64).sum();
            (scale(regime, start).min(u64::MAX - sum), sizes)
        })
}

/// The bits of everything an accumulator reports.
fn stats_bits(w: &WeightedStats) -> (Option<u64>, Option<u64>, u64) {
    (
        w.mean().map(f64::to_bits),
        w.max().map(f64::to_bits),
        w.total_weight().to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `record_ramp` is one `record` per size, bit for bit, whether the
    /// sums start below 2^53, cross it inside the ramp or start above
    /// it, and whether they start as integers or not.
    #[test]
    fn record_ramp_equals_a_record_per_sample(
        prior in prior_strategy(),
        ramp in ramp_strategy(),
    ) {
        let (start, sizes) = ramp;
        let mut each = prior;
        let mut level = start;
        for &s in &sizes {
            each.record(level as f64, s as f64);
            level += s as u64;
        }
        let mut folded = prior;
        folded.record_ramp(start, Ramp::new(&sizes));
        prop_assert_eq!(
            stats_bits(&each),
            stats_bits(&folded),
            "prior {:?}, start {}, sizes {:?}",
            prior,
            start,
            sizes
        );
    }
}
