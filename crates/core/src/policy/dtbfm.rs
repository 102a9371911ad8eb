//! The paper's pause-time-constrained dynamic boundary policy.

use super::feedmed::mediate;
use super::{clamp_boundary, PolicyError, ScavengeContext, TbPolicy};
use crate::constraint::Constraint;
use crate::time::{Bytes, VirtualTime};

/// `DTBFM`: Feedback Mediation extended with backward boundary motion.
///
/// Table 1's formulation:
///
/// ```text
/// if Trace_{n-1} > Trace_max:   use FEEDMED
/// else:                         TB_n ← t_n − (t_{n-1} − TB_{n-1}) · Trace_max / Trace_{n-1}
/// ```
///
/// When the previous pause exceeded the budget, react exactly like
/// [`FeedMed`](super::FeedMed). When it came in *under* budget, exploit the
/// slack: lengthen the distance between the boundary and the scavenge time
/// by the ratio `Trace_max / Trace_{n-1} ≥ 1`, threatening older objects
/// and reclaiming tenured garbage that `FEEDMED` would strand. The result
/// is a median pause that converges on the budget from both sides (half the
/// collections over, half under) while using less memory.
///
/// Edge cases:
///
/// * before any scavenge has completed the boundary is `0` (initial full
///   collection);
/// * `Trace_{n-1} = 0` (nothing was live in threatened space) makes the
///   ratio unbounded — we take the limit and do a full collection, the
///   cheapest moment there will ever be for one;
/// * the boundary is clamped to `[0, t_{n-1}]` so every object is traced at
///   least once, the same rule the paper states for `DTBMEM`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DtbFm {
    trace_max: Bytes,
}

impl DtbFm {
    /// Creates a pause-constrained policy with trace budget `Trace_max`.
    pub fn new(trace_max: Bytes) -> DtbFm {
        DtbFm { trace_max }
    }

    /// The pause budget expressed in bytes traced.
    pub fn trace_max(&self) -> Bytes {
        self.trace_max
    }
}

impl TbPolicy for DtbFm {
    fn name(&self) -> &str {
        "DTBFM"
    }

    fn select_boundary(&mut self, ctx: &ScavengeContext<'_>) -> Result<VirtualTime, PolicyError> {
        let Some(last) = ctx.history.last() else {
            return Ok(VirtualTime::ZERO); // initial full collection
        };
        if last.traced > self.trace_max {
            return Ok(mediate(ctx, self.trace_max, last.boundary, last.at));
        }
        // `ratio` is `None` when `Trace_{n-1} = 0`: unbounded slack, collect
        // everything rather than divide by zero.
        let Some(ratio) = self.trace_max.ratio(last.traced) else {
            return Ok(VirtualTime::ZERO);
        };
        let distance = last.at.elapsed_since(last.boundary).as_u64() as f64 * ratio;
        let candidate = if distance >= ctx.now.as_u64() as f64 {
            VirtualTime::ZERO
        } else {
            ctx.now.rewind(Bytes::new(distance as u64))
        };
        Ok(clamp_boundary(candidate, last.at))
    }

    fn constraint(&self) -> Option<Constraint> {
        Some(Constraint::trace(self.trace_max))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::NoSurvivalInfo;
    use super::*;
    use crate::history::ScavengeHistory;
    use crate::time::{Bytes, VirtualTime};

    #[test]
    fn first_scavenge_is_full() {
        let mut p = DtbFm::new(Bytes::new(50));
        let est = NoSurvivalInfo;
        let h = ScavengeHistory::new();
        assert_eq!(
            p.select_boundary(
                &ScavengeContext::at(VirtualTime::from_bytes(100))
                    .mem(Bytes::new(0))
                    .history(&h)
                    .survival(&est)
            ),
            Ok(VirtualTime::ZERO)
        );
    }

    #[test]
    fn under_budget_moves_boundary_backward_proportionally() {
        let mut p = DtbFm::new(Bytes::new(100));
        let est = NoSurvivalInfo;
        let mut h = ScavengeHistory::new();
        // Previous: t=1000, TB=900 (distance 100), traced 50 (half budget).
        h.push(rec(1000, 900, 50, 60, 120));
        let tb = p
            .select_boundary(
                &ScavengeContext::at(VirtualTime::from_bytes(2000))
                    .mem(Bytes::new(0))
                    .history(&h)
                    .survival(&est),
            )
            .unwrap();
        // New distance = 100 · (100/50) = 200 ⇒ TB = 2000 − 200 = 1800…
        // …clamped to t_{n-1} = 1000 so everything allocated since the last
        // scavenge is traced at least once.
        assert_eq!(tb, VirtualTime::from_bytes(1000));
    }

    #[test]
    fn under_budget_distance_growth_visible_when_unclamped() {
        let mut p = DtbFm::new(Bytes::new(100));
        let est = NoSurvivalInfo;
        let mut h = ScavengeHistory::new();
        // Previous: t=10_000, TB=2_000 (distance 8_000), traced 50.
        h.push(rec(10_000, 2_000, 50, 60, 120));
        let tb = p
            .select_boundary(
                &ScavengeContext::at(VirtualTime::from_bytes(11_000))
                    .mem(Bytes::new(0))
                    .history(&h)
                    .survival(&est),
            )
            .unwrap();
        // New distance = 8_000 · 2 = 16_000 > t_n ⇒ full collection.
        assert_eq!(tb, VirtualTime::ZERO);
    }

    #[test]
    fn exact_budget_keeps_distance() {
        let mut p = DtbFm::new(Bytes::new(100));
        let est = NoSurvivalInfo;
        let mut h = ScavengeHistory::new();
        // distance 5_000, traced exactly at budget ⇒ ratio 1.
        h.push(rec(10_000, 5_000, 100, 120, 200));
        let tb = p
            .select_boundary(
                &ScavengeContext::at(VirtualTime::from_bytes(11_000))
                    .mem(Bytes::new(0))
                    .history(&h)
                    .survival(&est),
            )
            .unwrap();
        // TB = 11_000 − 5_000 = 6_000, within [0, t_{n-1}].
        assert_eq!(tb, VirtualTime::from_bytes(6_000));
    }

    #[test]
    fn zero_trace_triggers_full_collection() {
        let mut p = DtbFm::new(Bytes::new(100));
        let est = NoSurvivalInfo;
        let mut h = ScavengeHistory::new();
        h.push(rec(1000, 900, 0, 10, 110));
        assert_eq!(
            p.select_boundary(
                &ScavengeContext::at(VirtualTime::from_bytes(2000))
                    .mem(Bytes::new(0))
                    .history(&h)
                    .survival(&est)
            ),
            Ok(VirtualTime::ZERO)
        );
    }

    #[test]
    fn over_budget_delegates_to_mediation() {
        let mut p = DtbFm::new(Bytes::new(50));
        let est = TableEstimator {
            entries: vec![(150, 35), (250, 45)],
        };
        let mut h = ScavengeHistory::new();
        h.push(rec(100, 0, 90, 90, 150));
        h.push(rec(200, 100, 90, 120, 200));
        let tb = p
            .select_boundary(
                &ScavengeContext::at(VirtualTime::from_bytes(300))
                    .mem(Bytes::new(0))
                    .history(&h)
                    .survival(&est),
            )
            .unwrap();
        assert_eq!(tb, VirtualTime::from_bytes(200)); // same as FEEDMED test
    }

    #[test]
    fn boundary_always_within_legal_range() {
        // Randomized sanity sweep (deterministic inputs).
        let mut p = DtbFm::new(Bytes::new(77));
        let est = NoSurvivalInfo;
        let mut h = ScavengeHistory::new();
        let mut t = 0u64;
        for i in 1..50u64 {
            t += 1000;
            let c = ScavengeContext::at(VirtualTime::from_bytes(t))
                .mem(Bytes::new(i * 13))
                .history(&h)
                .survival(&est);
            let tb = p.select_boundary(&c).unwrap();
            assert!(tb <= c.now);
            if let Some(prev) = h.last() {
                assert!(tb <= prev.at, "must trace everything at least once");
            }
            h.push(rec(t, tb.as_u64(), (i * 29) % 160, i * 7, i * 20));
        }
    }
}
