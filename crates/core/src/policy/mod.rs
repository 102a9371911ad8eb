//! Threatening-boundary selection policies (Table 1 of the paper).
//!
//! A [`TbPolicy`] is consulted immediately before every scavenge. Given the
//! current allocation-clock time `t_n`, the memory in use `Mem_n`, the
//! [`ScavengeHistory`] of completed collections, and a
//! [`SurvivalEstimator`], it returns the threatening boundary `TB_n`:
//! objects born **strictly after** `TB_n` are threatened (traced, and
//! reclaimed if unreachable); objects born at or before it are immune.
//!
//! The six collectors the paper evaluates correspond to:
//!
//! * [`Full`] — `TB_n = 0`: a non-generational full collection every time.
//! * [`Fixed`]`(1)` / `Fixed(4)` — `TB_n = t_{n-1}` / `t_{n-4}`: classic
//!   generational promotion after a fixed number of survived scavenges.
//! * [`FeedMed`] — Ungar & Jackson's Feedback Mediation: advance the
//!   boundary only when the pause budget was exceeded.
//! * [`DtbFm`] — the paper's pause-time-constrained policy: Feedback
//!   Mediation on over-budget pauses, plus *backward* boundary motion on
//!   under-budget pauses to reclaim tenured garbage.
//! * [`DtbMem`] — the paper's memory-constrained policy: place the boundary
//!   so predicted tenured garbage keeps total memory within `Mem_max`.
//!
//! Beyond the paper, [`DtbDual`] composes both constraints (pause budget
//! wins on conflict), and [`LiveEstimate`] exposes `DTBMEM`'s live-data
//! estimator for ablation.

mod dtbfm;
mod dtbmem;
mod dual;
mod feedmed;
mod fixed;
mod full;
mod kind;

pub use dtbfm::DtbFm;
pub use dtbmem::{DtbMem, LiveEstimate};
pub use dual::DtbDual;
pub use feedmed::FeedMed;
pub use fixed::Fixed;
pub use full::Full;
pub use kind::{PolicyConfig, PolicyKind, Row};

pub use crate::error::PolicyError;

use crate::history::{BoundaryCandidates, ScavengeHistory};
use crate::time::{Bytes, VirtualTime};

/// The empty history the [`ScavengeContext`] builder starts from.
static EMPTY_HISTORY: ScavengeHistory = ScavengeHistory::new();

/// The no-information estimator the [`ScavengeContext`] builder starts
/// from.
static NO_SURVIVAL: NoSurvivalInfo = NoSurvivalInfo;

/// Everything a policy may consult when choosing `TB_n`.
///
/// Lifetimes tie the context to the collector's state for the duration of
/// one boundary decision; policies never retain it.
#[derive(Clone, Copy)]
pub struct ScavengeContext<'a> {
    /// `t_n`: the allocation-clock time of the imminent scavenge.
    pub now: VirtualTime,
    /// `Mem_n`: bytes of storage in use just before the scavenge.
    pub mem_before: Bytes,
    /// Records of scavenges `0 .. n-1`.
    pub history: &'a ScavengeHistory,
    /// Survival information for Feedback Mediation's `Born_j` sums.
    pub survival: &'a dyn SurvivalEstimator,
}

impl ScavengeContext<'static> {
    /// Starts building a context for a boundary decision at time `now`.
    ///
    /// The remaining fields default to "nothing known": zero memory in
    /// use, an empty history, and [`NoSurvivalInfo`]. Chain
    /// [`mem`](ScavengeContext::mem), [`history`](ScavengeContext::history)
    /// and [`survival`](ScavengeContext::survival) to fill them in:
    ///
    /// ```
    /// use dtb_core::history::ScavengeHistory;
    /// use dtb_core::policy::{NoSurvivalInfo, ScavengeContext};
    /// use dtb_core::time::{Bytes, VirtualTime};
    ///
    /// let h = ScavengeHistory::new();
    /// let s = NoSurvivalInfo;
    /// let ctx = ScavengeContext::at(VirtualTime::from_bytes(1_000_000))
    ///     .mem(Bytes::from_kb(512))
    ///     .history(&h)
    ///     .survival(&s);
    /// assert_eq!(ctx.prev_time(), None);
    /// ```
    pub fn at(now: VirtualTime) -> ScavengeContext<'static> {
        ScavengeContext {
            now,
            mem_before: Bytes::ZERO,
            history: &EMPTY_HISTORY,
            survival: &NO_SURVIVAL,
        }
    }
}

impl<'a> ScavengeContext<'a> {
    /// Sets `Mem_n`, the bytes in use just before the scavenge.
    pub fn mem(mut self, mem_before: Bytes) -> ScavengeContext<'a> {
        self.mem_before = mem_before;
        self
    }

    /// Sets the scavenge history the policy consults.
    ///
    /// The context's lifetime shrinks to the shorter of the current one
    /// and the borrow of `history` (the struct is covariant in `'a`).
    pub fn history<'b>(self, history: &'b ScavengeHistory) -> ScavengeContext<'b>
    where
        'a: 'b,
    {
        ScavengeContext { history, ..self }
    }

    /// Sets the survival estimator the policy consults.
    pub fn survival<'b>(self, survival: &'b dyn SurvivalEstimator) -> ScavengeContext<'b>
    where
        'a: 'b,
    {
        ScavengeContext { survival, ..self }
    }

    /// `t_{n-1}`, the time of the previous scavenge, if one has happened.
    pub fn prev_time(&self) -> Option<VirtualTime> {
        self.history.last().map(|r| r.at)
    }

    /// `TB_{n-1}`, the boundary used by the previous scavenge.
    pub fn prev_boundary(&self) -> Option<VirtualTime> {
        self.history.last().map(|r| r.boundary)
    }
}

impl core::fmt::Debug for ScavengeContext<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ScavengeContext")
            .field("now", &self.now)
            .field("mem_before", &self.mem_before)
            .field("completed_scavenges", &self.history.len())
            .finish_non_exhaustive()
    }
}

/// Supplies the survival estimates Feedback Mediation needs.
///
/// `Σ_{j=k}^{n-1} Born_j` in Table 1 — the storage allocated after `t_k`
/// that is still live at `t_n` — is exactly the storage a scavenge with
/// boundary `t_k` would trace. Implementors answer that question:
///
/// * the trace-driven simulator answers it exactly from its lifetime
///   oracle;
/// * a real collector answers it conservatively from the objects currently
///   registered in the heap (reachable or not), which over-estimates and
///   therefore never under-mediates.
pub trait SurvivalEstimator {
    /// Estimated bytes the collector would trace with boundary `tb` at the
    /// imminent scavenge: storage born strictly after `tb` and surviving.
    fn surviving_born_after(&self, tb: VirtualTime) -> Bytes;

    /// The inverse query: the **oldest** candidate boundary whose
    /// predicted trace fits `trace_max`, or `None` when no candidate
    /// fits (or there are none).
    ///
    /// This is the search at the heart of Feedback Mediation —
    /// `least { t_k | Trace_max ≥ surviving_born_after(t_k) }` — pulled
    /// into the estimator so an indexed implementation can answer it
    /// without probing candidates one at a time.
    ///
    /// # Contract
    ///
    /// `surviving_born_after` is monotone non-increasing in `tb` (moving
    /// the boundary later can only shrink the threatened region), and
    /// `candidates` ascend in time, so the fitting candidates form a
    /// suffix of the candidate list. Any implementation must return
    /// exactly what the default scan returns: the first candidate, in
    /// ascending order, with `surviving_born_after(t) <= trace_max`. The
    /// simulator's Fenwick-backed estimator overrides this with an
    /// `O(log n)` descent; the differential and property suites hold the
    /// two answers equal.
    fn oldest_boundary_within(
        &self,
        trace_max: Bytes,
        candidates: BoundaryCandidates<'_>,
    ) -> Option<VirtualTime> {
        if !crate::obs::enabled() {
            return candidates
                .times()
                .find(|&t| self.surviving_born_after(t) <= trace_max);
        }
        // Instrumented twin of the scan above: counts one inverse-query
        // call and one probe per candidate examined.
        let mut probes = 0u64;
        let found = candidates.times().find(|&t| {
            probes += 1;
            self.surviving_born_after(t) <= trace_max
        });
        crate::obs::note_inverse_query(probes);
        found
    }
}

/// Lends out borrowed, allocation-free [`SurvivalEstimator`] views frozen
/// at a scavenge decision point.
///
/// The simulator's oracle heap maintains incrementally-updated indices and
/// lends a view *into* them — no per-scavenge copying — so the estimator
/// type is a generic associated type carrying the lender's lifetime. A
/// lender that must materialize its answer (e.g. a naive reference
/// implementation) simply picks an owned type for `Survival`.
pub trait SurvivalLender {
    /// The estimator lent for one boundary decision; may borrow from
    /// `self`.
    type Survival<'a>: SurvivalEstimator
    where
        Self: 'a;

    /// Freezes a survival view at time `now`.
    ///
    /// Takes `&mut self` so lenders may bring lazily-maintained indices
    /// up to `now` before lending; `now` must not move backwards across
    /// calls on one lender.
    fn survival_view(&mut self, now: VirtualTime) -> Self::Survival<'_>;
}

/// A [`SurvivalEstimator`] for callers with no survival information.
///
/// Always answers zero, which makes Feedback Mediation keep the youngest
/// admissible boundary. Useful in tests and for policies that never consult
/// the estimator ([`Full`], [`Fixed`], [`DtbMem`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoSurvivalInfo;

impl SurvivalEstimator for NoSurvivalInfo {
    fn surviving_born_after(&self, _tb: VirtualTime) -> Bytes {
        Bytes::ZERO
    }
}

impl SurvivalLender for NoSurvivalInfo {
    type Survival<'a> = NoSurvivalInfo;

    fn survival_view(&mut self, _now: VirtualTime) -> NoSurvivalInfo {
        NoSurvivalInfo
    }
}

/// A boundary-selection policy: the single point of variation among all the
/// collectors in the paper.
///
/// Implementations must be deterministic functions of the context (plus any
/// internal state they carry), and must return a boundary no later than
/// `ctx.now`.
pub trait TbPolicy {
    /// A short stable identifier, e.g. `"DTBFM"`, used in reports.
    fn name(&self) -> &str;

    /// Chooses the threatening boundary `TB_n` for the imminent scavenge.
    ///
    /// Returning [`VirtualTime::ZERO`] requests a full collection. The
    /// returned boundary is clamped by callers to `[0, ctx.now]`.
    ///
    /// # Errors
    ///
    /// The paper's six collectors never fail; the `Result` exists for
    /// policies whose arithmetic can go wrong — float intermediates that
    /// turn NaN, infinite, or negative (convert them through
    /// [`boundary_from_f64`](crate::error::boundary_from_f64)), or any
    /// internal failure worth reporting as [`PolicyError::Internal`]. The
    /// evaluation framework reports an `Err` as a failed cell instead of
    /// simulating a garbage boundary.
    fn select_boundary(&mut self, ctx: &ScavengeContext<'_>) -> Result<VirtualTime, PolicyError>;

    /// The constraint this policy tracks, for reporting. `None` for
    /// unconstrained policies.
    fn constraint(&self) -> Option<crate::constraint::Constraint> {
        None
    }

    /// Serializes any internal state the policy carries *beyond* the
    /// scavenge history; the default returns an empty buffer, since the
    /// paper's six collectors are pure functions of the
    /// [`ScavengeContext`].
    ///
    /// The engine never calls it (a run is never resumed mid-cell). It
    /// stays only because `benchmark/src/layers.rs` forwards it, until
    /// that file drops the forward.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state previously produced by
    /// [`save_state`](TbPolicy::save_state). Inert like it, and kept for
    /// the same reason.
    ///
    /// # Errors
    ///
    /// The default implementation accepts only the empty buffer; handing
    /// saved state to a policy that never saves any is a configuration
    /// mismatch and fails with [`PolicyError::Internal`] rather than
    /// silently resuming with different behaviour.
    fn restore_state(&mut self, state: &[u8]) -> Result<(), PolicyError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(PolicyError::Internal {
                policy: self.name().to_string(),
                reason: format!(
                    "cannot restore {} bytes of saved state into a stateless policy",
                    state.len()
                ),
            })
        }
    }
}

impl<P: TbPolicy + ?Sized> TbPolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn select_boundary(&mut self, ctx: &ScavengeContext<'_>) -> Result<VirtualTime, PolicyError> {
        (**self).select_boundary(ctx)
    }
    fn constraint(&self) -> Option<crate::constraint::Constraint> {
        (**self).constraint()
    }
    fn save_state(&self) -> Vec<u8> {
        (**self).save_state()
    }
    fn restore_state(&mut self, state: &[u8]) -> Result<(), PolicyError> {
        (**self).restore_state(state)
    }
}

/// Clamps a candidate boundary into the legal range `[0, latest]`.
///
/// The paper's policies never threaten *less* than the storage allocated
/// since the previous scavenge ("we always want to trace an object at least
/// once"), so `latest` is normally `t_{n-1}`.
pub(crate) fn clamp_boundary(candidate: VirtualTime, latest: VirtualTime) -> VirtualTime {
    candidate.min(latest)
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for policy unit tests.
    use super::*;
    use crate::history::ScavengeRecord;

    /// An estimator backed by an explicit piecewise table:
    /// `surviving_born_after(tb)` is the sum of `sizes` of entries with
    /// `birth > tb`.
    pub struct TableEstimator {
        /// (birth, surviving bytes born at that instant)
        pub entries: Vec<(u64, u64)>,
    }

    impl SurvivalEstimator for TableEstimator {
        fn surviving_born_after(&self, tb: VirtualTime) -> Bytes {
            Bytes::new(
                self.entries
                    .iter()
                    .filter(|(birth, _)| VirtualTime::from_bytes(*birth) > tb)
                    .map(|(_, sz)| *sz)
                    .sum(),
            )
        }
    }

    /// Builds a record with the fields policies actually read.
    pub fn rec(
        at: u64,
        boundary: u64,
        traced: u64,
        surviving: u64,
        mem_before: u64,
    ) -> ScavengeRecord {
        ScavengeRecord {
            at: VirtualTime::from_bytes(at),
            boundary: VirtualTime::from_bytes(boundary),
            traced: Bytes::new(traced),
            surviving: Bytes::new(surviving),
            reclaimed: Bytes::new(mem_before.saturating_sub(surviving)),
            mem_before: Bytes::new(mem_before),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn context_prev_accessors() {
        let mut h = ScavengeHistory::new();
        let est = NoSurvivalInfo;
        {
            let c = ScavengeContext::at(VirtualTime::from_bytes(100))
                .mem(Bytes::new(50))
                .history(&h)
                .survival(&est);
            assert_eq!(c.prev_time(), None);
            assert_eq!(c.prev_boundary(), None);
        }
        h.push(rec(100, 40, 10, 10, 20));
        let c = ScavengeContext::at(VirtualTime::from_bytes(200))
            .mem(Bytes::new(50))
            .history(&h)
            .survival(&est);
        assert_eq!(c.prev_time(), Some(VirtualTime::from_bytes(100)));
        assert_eq!(c.prev_boundary(), Some(VirtualTime::from_bytes(40)));
    }

    #[test]
    fn no_survival_info_is_zero_everywhere() {
        assert_eq!(
            NoSurvivalInfo.surviving_born_after(VirtualTime::ZERO),
            Bytes::ZERO
        );
    }

    #[test]
    fn table_estimator_is_monotone_nonincreasing() {
        let est = TableEstimator {
            entries: vec![(10, 5), (20, 7), (30, 2)],
        };
        let mut prev = u64::MAX;
        for tb in [0u64, 10, 15, 20, 25, 30, 40] {
            let v = est
                .surviving_born_after(VirtualTime::from_bytes(tb))
                .as_u64();
            assert!(v <= prev, "estimator must be non-increasing in tb");
            prev = v;
        }
        assert_eq!(est.surviving_born_after(VirtualTime::ZERO), Bytes::new(14));
        assert_eq!(
            est.surviving_born_after(VirtualTime::from_bytes(10)),
            Bytes::new(9)
        );
    }

    #[test]
    fn boxed_policy_delegates() {
        let mut boxed: Box<dyn TbPolicy> = Box::new(Full::new());
        let h = ScavengeHistory::new();
        let est = NoSurvivalInfo;
        let c = ScavengeContext::at(VirtualTime::from_bytes(500))
            .mem(Bytes::new(100))
            .history(&h)
            .survival(&est);
        assert_eq!(boxed.name(), "FULL");
        assert_eq!(boxed.select_boundary(&c), Ok(VirtualTime::ZERO));
        assert!(boxed.constraint().is_none());
    }

    /// A deliberately stateful policy: alternates between full and
    /// no-op collections, so its behaviour depends on a bit of carried
    /// state that the save/restore seam must carry.
    struct Alternator {
        odd: bool,
    }

    impl TbPolicy for Alternator {
        fn name(&self) -> &str {
            "ALT"
        }
        fn select_boundary(
            &mut self,
            ctx: &ScavengeContext<'_>,
        ) -> Result<VirtualTime, PolicyError> {
            self.odd = !self.odd;
            Ok(if self.odd { VirtualTime::ZERO } else { ctx.now })
        }
        fn save_state(&self) -> Vec<u8> {
            vec![u8::from(self.odd)]
        }
        fn restore_state(&mut self, state: &[u8]) -> Result<(), PolicyError> {
            match state {
                [bit @ (0 | 1)] => {
                    self.odd = *bit == 1;
                    Ok(())
                }
                _ => Err(PolicyError::Internal {
                    policy: self.name().to_string(),
                    reason: "unrecognized saved state".into(),
                }),
            }
        }
    }

    #[test]
    fn stateless_policies_save_empty_state_and_accept_it_back() {
        let mut p = Full::new();
        assert!(p.save_state().is_empty());
        assert_eq!(p.restore_state(&[]), Ok(()));
    }

    #[test]
    fn stateless_policies_reject_foreign_state() {
        let mut p = Full::new();
        let err = p.restore_state(&[1, 2, 3]).unwrap_err();
        assert_eq!(err.policy(), "FULL");
        assert!(err.to_string().contains("stateless"));
    }

    #[test]
    fn stateful_policy_round_trips_through_save_restore() {
        let h = ScavengeHistory::new();
        let est = NoSurvivalInfo;
        let mut original = Alternator { odd: false };
        // Advance the original an odd number of steps so the carried bit
        // is set, then clone it via the save/restore seam.
        for now in [100u64, 200, 300] {
            let c = ScavengeContext::at(VirtualTime::from_bytes(now))
                .mem(Bytes::new(50))
                .history(&h)
                .survival(&est);
            original.select_boundary(&c).unwrap();
        }
        let mut resumed = Alternator { odd: false };
        resumed.restore_state(&original.save_state()).unwrap();
        for now in [400u64, 500, 600, 700] {
            let c = ScavengeContext::at(VirtualTime::from_bytes(now))
                .mem(Bytes::new(50))
                .history(&h)
                .survival(&est);
            assert_eq!(
                original.select_boundary(&c),
                resumed.select_boundary(&c),
                "resumed policy diverged at t={now}"
            );
        }
    }

    #[test]
    fn boxed_policy_delegates_state_seam() {
        let mut boxed: Box<dyn TbPolicy> = Box::new(Alternator { odd: true });
        assert_eq!(boxed.save_state(), vec![1]);
        boxed.restore_state(&[0]).unwrap();
        assert_eq!(boxed.save_state(), vec![0]);
        assert!(boxed.restore_state(&[7]).is_err());
    }

    #[test]
    fn clamp_boundary_caps_at_latest() {
        assert_eq!(
            clamp_boundary(VirtualTime::from_bytes(10), VirtualTime::from_bytes(5)),
            VirtualTime::from_bytes(5)
        );
        assert_eq!(
            clamp_boundary(VirtualTime::from_bytes(3), VirtualTime::from_bytes(5)),
            VirtualTime::from_bytes(3)
        );
    }
}
