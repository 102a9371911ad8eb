//! The paper's memory-constrained dynamic boundary policy.

use super::{clamp_boundary, PolicyError, ScavengeContext, TbPolicy};
use crate::constraint::Constraint;
use crate::time::{Bytes, VirtualTime};

/// `DTBMEM`: place the boundary so tenured garbage keeps memory within
/// `Mem_max`.
///
/// Before scavenge *n* the policy budgets for tenured garbage: the memory
/// constraint `Mem_max` minus the live data `L_{n-1}`. Live data cannot be
/// known without a full collection, so it is estimated as
///
/// ```text
/// L_est = (S_{n-1} + Trace_{n-1}) / 2
/// ```
///
/// (the truth lies between the surviving storage, which over-counts by the
/// tenured garbage, and the traced storage, which under-counts by the live
/// immune data). Assuming garbage decays linearly as the boundary moves
/// back in time — with slope given by the garbage-to-memory ratio — the
/// boundary that leaves `Mem_max − L_est` of tenured garbage is
///
/// ```text
/// TB_n = min( t_n · (Mem_max − L_est) / Mem_n ,  t_{n-1} )
/// ```
///
/// clamped below at `0`. The `t_{n-1}` cap makes every object get traced at
/// least once. When the program is *over-constrained* (`L_est ≥ Mem_max` —
/// even perfect collection could not fit in the budget) the numerator
/// vanishes and the policy degrades to a full collection every scavenge,
/// exactly the behaviour Table 4 shows for SIS.
///
/// The first scavenge is full (`TB_0 = 0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DtbMem {
    mem_max: Bytes,
    estimate: LiveEstimate,
}

/// How `DTBMEM` estimates the live data `L_{n-1}` it cannot measure.
///
/// The paper observes that the truth "must lie somewhere between"
/// `Trace_{n-1}` (under-counts: misses live immune data) and `S_{n-1}`
/// (over-counts: includes tenured garbage) and takes the average. The
/// other two variants exist for the ablation study
/// (`repro_ablation`): how sensitive is constraint-tracking to this
/// design choice?
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LiveEstimate {
    /// `(S_{n-1} + Trace_{n-1}) / 2` — the paper's choice.
    #[default]
    Midpoint,
    /// `S_{n-1}` — pessimistic: assumes all survivors are live, so the
    /// garbage budget looks smaller and the boundary lands deeper
    /// (more tracing, safer memory margin).
    Surviving,
    /// `Trace_{n-1}` — optimistic: assumes only traced storage is live,
    /// so the boundary lands younger (less tracing, tighter margin).
    Traced,
}

impl DtbMem {
    /// Creates a memory-constrained policy with maximum memory `Mem_max`.
    pub fn new(mem_max: Bytes) -> DtbMem {
        DtbMem {
            mem_max,
            estimate: LiveEstimate::Midpoint,
        }
    }

    /// Creates the policy with an explicit live-data estimator (for the
    /// ablation study; the paper's collector uses
    /// [`LiveEstimate::Midpoint`]).
    pub fn with_estimate(mem_max: Bytes, estimate: LiveEstimate) -> DtbMem {
        DtbMem { mem_max, estimate }
    }

    /// The memory budget.
    pub fn mem_max(&self) -> Bytes {
        self.mem_max
    }

    /// The configured live-data estimator.
    pub fn estimate_kind(&self) -> LiveEstimate {
        self.estimate
    }

    fn estimate_live(&self, surviving_prev: Bytes, traced_prev: Bytes) -> Bytes {
        match self.estimate {
            LiveEstimate::Midpoint => surviving_prev.midpoint(traced_prev),
            LiveEstimate::Surviving => surviving_prev,
            LiveEstimate::Traced => traced_prev,
        }
    }
}

impl TbPolicy for DtbMem {
    fn name(&self) -> &str {
        "DTBMEM"
    }

    fn select_boundary(&mut self, ctx: &ScavengeContext<'_>) -> Result<VirtualTime, PolicyError> {
        let Some(last) = ctx.history.last() else {
            return Ok(VirtualTime::ZERO); // initial full collection
        };
        let l_est = self.estimate_live(last.surviving, last.traced);
        let Some(garbage_budget) = self.mem_max.checked_sub(l_est) else {
            return Ok(VirtualTime::ZERO); // over-constrained ⇒ degrade to FULL
        };
        // `ratio` is `None` when `Mem_n == 0` (empty heap): degrade to a
        // full collection rather than divide by zero.
        let Some(factor) = garbage_budget.ratio(ctx.mem_before) else {
            return Ok(VirtualTime::ZERO);
        };
        Ok(clamp_boundary(ctx.now.scale(factor), last.at))
    }

    fn constraint(&self) -> Option<Constraint> {
        Some(Constraint::memory(self.mem_max))
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
        let mut p = DtbMem::new(Bytes::new(3000));
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
    fn formula_matches_hand_computation() {
        let mut p = DtbMem::new(Bytes::new(3000));
        let est = NoSurvivalInfo;
        let mut h = ScavengeHistory::new();
        // S_{n-1} = 1200, Trace_{n-1} = 800 ⇒ L_est = 1000.
        h.push(rec(10_000, 0, 800, 1200, 2000));
        // Mem_n = 4000 ⇒ factor = (3000−1000)/4000 = 0.5 ⇒ TB = 20_000·0.5.
        let tb = p
            .select_boundary(
                &ScavengeContext::at(VirtualTime::from_bytes(20_000))
                    .mem(Bytes::new(4000))
                    .history(&h)
                    .survival(&est),
            )
            .unwrap();
        assert_eq!(tb, VirtualTime::from_bytes(10_000)); // == t_{n-1}, exactly at the cap
    }

    #[test]
    fn boundary_capped_at_previous_scavenge_time() {
        let mut p = DtbMem::new(Bytes::new(10_000));
        let est = NoSurvivalInfo;
        let mut h = ScavengeHistory::new();
        // Tiny live estimate and huge budget ⇒ raw factor near 1.
        h.push(rec(5_000, 0, 10, 10, 100));
        let tb = p
            .select_boundary(
                &ScavengeContext::at(VirtualTime::from_bytes(20_000))
                    .mem(Bytes::new(100))
                    .history(&h)
                    .survival(&est),
            )
            .unwrap();
        assert_eq!(tb, VirtualTime::from_bytes(5_000));
    }

    #[test]
    fn over_constrained_degrades_to_full() {
        let mut p = DtbMem::new(Bytes::new(500));
        let est = NoSurvivalInfo;
        let mut h = ScavengeHistory::new();
        // L_est = 1000 > Mem_max = 500.
        h.push(rec(10_000, 0, 800, 1200, 2000));
        assert_eq!(
            p.select_boundary(
                &ScavengeContext::at(VirtualTime::from_bytes(20_000))
                    .mem(Bytes::new(4000))
                    .history(&h)
                    .survival(&est)
            ),
            Ok(VirtualTime::ZERO)
        );
    }

    #[test]
    fn tight_budget_yields_young_boundary_when_below_cap() {
        let mut p = DtbMem::new(Bytes::new(1100));
        let est = NoSurvivalInfo;
        let mut h = ScavengeHistory::new();
        // L_est = 1000, budget = 100, Mem_n = 4000 ⇒ factor = 0.025.
        h.push(rec(10_000, 0, 800, 1200, 2000));
        let tb = p
            .select_boundary(
                &ScavengeContext::at(VirtualTime::from_bytes(20_000))
                    .mem(Bytes::new(4000))
                    .history(&h)
                    .survival(&est),
            )
            .unwrap();
        assert_eq!(tb, VirtualTime::from_bytes(500));
    }

    #[test]
    fn empty_heap_full_collects() {
        let mut p = DtbMem::new(Bytes::new(1000));
        let est = NoSurvivalInfo;
        let mut h = ScavengeHistory::new();
        h.push(rec(10_000, 0, 0, 0, 0));
        assert_eq!(
            p.select_boundary(
                &ScavengeContext::at(VirtualTime::from_bytes(20_000))
                    .mem(Bytes::new(0))
                    .history(&h)
                    .survival(&est)
            ),
            Ok(VirtualTime::ZERO)
        );
    }

    #[test]
    fn reports_memory_constraint() {
        let p = DtbMem::new(Bytes::from_kb(3000));
        match p.constraint() {
            Some(Constraint::Memory(b)) => assert_eq!(b, Bytes::from_kb(3000)),
            other => panic!("unexpected constraint {other:?}"),
        }
    }

    #[test]
    fn larger_budget_never_yields_older_boundary() {
        // Monotonicity: more memory budget ⇒ boundary at least as old… the
        // boundary moves *forward* (younger ⇒ less traced) as budget grows.
        let est = NoSurvivalInfo;
        let mut h = ScavengeHistory::new();
        h.push(rec(50_000, 0, 900, 1500, 3000));
        let mut prev = VirtualTime::ZERO;
        for budget in [1_000u64, 1_500, 2_000, 3_000, 5_000, 50_000] {
            let mut p = DtbMem::new(Bytes::new(budget));
            let tb = p
                .select_boundary(
                    &ScavengeContext::at(VirtualTime::from_bytes(60_000))
                        .mem(Bytes::new(5_000))
                        .history(&h)
                        .survival(&est),
                )
                .unwrap();
            assert!(tb >= prev, "budget {budget}: {tb:?} < {prev:?}");
            prev = tb;
        }
    }
}

#[cfg(test)]
mod estimate_tests {
    use super::super::testutil::*;
    use super::super::NoSurvivalInfo;
    use super::*;
    use crate::history::ScavengeHistory;
    use crate::time::{Bytes, VirtualTime};

    #[test]
    fn estimators_order_the_boundary() {
        // Surviving over-estimates live ⇒ smaller garbage budget ⇒ older
        // (smaller) boundary; Traced under-estimates ⇒ younger boundary;
        // Midpoint between.
        let est = NoSurvivalInfo;
        let mut h = ScavengeHistory::new();
        h.push(rec(10_000, 0, 400, 1600, 2400));
        let c = ScavengeContext::at(VirtualTime::from_bytes(20_000))
            .mem(Bytes::new(4_000))
            .history(&h)
            .survival(&est);
        let budget = Bytes::new(2_000);
        let tb_surv = DtbMem::with_estimate(budget, LiveEstimate::Surviving)
            .select_boundary(&c)
            .unwrap();
        let tb_mid = DtbMem::with_estimate(budget, LiveEstimate::Midpoint)
            .select_boundary(&c)
            .unwrap();
        let tb_traced = DtbMem::with_estimate(budget, LiveEstimate::Traced)
            .select_boundary(&c)
            .unwrap();
        assert!(tb_surv <= tb_mid, "{tb_surv:?} > {tb_mid:?}");
        assert!(tb_mid <= tb_traced, "{tb_mid:?} > {tb_traced:?}");
        assert!(tb_surv < tb_traced, "estimators should differ here");
    }

    #[test]
    fn default_is_midpoint() {
        assert_eq!(
            DtbMem::new(Bytes::new(1)).estimate_kind(),
            LiveEstimate::Midpoint
        );
        assert_eq!(LiveEstimate::default(), LiveEstimate::Midpoint);
    }
}
