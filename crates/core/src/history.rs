//! Scavenge history: the per-collection records policies consult.
//!
//! Every boundary policy in Table 1 of the paper is a function of previous
//! scavenge outcomes: `FIXED-k` needs `t_{n-k}`, Feedback Mediation needs
//! every `t_k` since the last boundary, and the DTB policies need the last
//! traced / surviving amounts. [`ScavengeHistory`] records each completed
//! scavenge as a [`ScavengeRecord`] and provides the lookups the policies
//! use.

use crate::time::{Bytes, VirtualTime};
use serde::{Deserialize, Serialize};

/// The outcome of one completed scavenge.
///
/// Field names follow the paper's notation for scavenge *n*:
/// `t_n` ([`ScavengeRecord::at`]), `TB_n` ([`ScavengeRecord::boundary`]),
/// `Trace_n` ([`ScavengeRecord::traced`]), `S_n`
/// ([`ScavengeRecord::surviving`]) and `Mem_n`
/// ([`ScavengeRecord::mem_before`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScavengeRecord {
    /// `t_n`: the allocation-clock time at which the scavenge ran.
    pub at: VirtualTime,
    /// `TB_n`: the threatening boundary the policy selected.
    pub boundary: VirtualTime,
    /// `Trace_n`: bytes of reachable threatened storage traced.
    pub traced: Bytes,
    /// `S_n`: bytes surviving the scavenge (live storage plus tenured
    /// garbage), i.e. memory in use immediately afterwards.
    pub surviving: Bytes,
    /// Bytes reclaimed by this scavenge.
    pub reclaimed: Bytes,
    /// `Mem_n`: memory in use immediately before the scavenge.
    pub mem_before: Bytes,
}

impl ScavengeRecord {
    /// Memory accounting invariant: what was in use beforehand either
    /// survived or was reclaimed.
    pub fn is_consistent(&self) -> bool {
        self.mem_before == self.surviving + self.reclaimed
    }
}

/// An append-only log of completed scavenges.
///
/// # Example
///
/// ```
/// use dtb_core::history::{ScavengeHistory, ScavengeRecord};
/// use dtb_core::time::{Bytes, VirtualTime};
///
/// let mut h = ScavengeHistory::new();
/// assert!(h.is_empty());
/// h.push(ScavengeRecord {
///     at: VirtualTime::from_bytes(1_000_000),
///     boundary: VirtualTime::ZERO,
///     traced: Bytes::new(120_000),
///     surviving: Bytes::new(120_000),
///     reclaimed: Bytes::new(880_000),
///     mem_before: Bytes::new(1_000_000),
/// });
/// assert_eq!(h.len(), 1);
/// assert_eq!(h.last().unwrap().traced, Bytes::new(120_000));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ScavengeHistory {
    records: Vec<ScavengeRecord>,
}

impl ScavengeHistory {
    /// Creates an empty history (const, so statics can hold one).
    pub const fn new() -> ScavengeHistory {
        ScavengeHistory {
            records: Vec::new(),
        }
    }

    /// Appends the record of a just-completed scavenge.
    ///
    /// # Panics
    ///
    /// Panics if `record.at` is earlier than the previous scavenge's time:
    /// scavenges happen in allocation order.
    pub fn push(&mut self, record: ScavengeRecord) {
        if let Some(last) = self.records.last() {
            assert!(
                record.at >= last.at,
                "scavenge times must be non-decreasing: {:?} after {:?}",
                record.at,
                last.at
            );
        }
        self.records.push(record);
    }

    /// Number of completed scavenges (the paper's `n`).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no scavenge has completed yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The most recent scavenge (`n-1`), if any.
    pub fn last(&self) -> Option<&ScavengeRecord> {
        self.records.last()
    }

    /// The record of the `k`-th most recent scavenge: `back(1)` is the last
    /// one, `back(4)` the fourth-last (used by `FIXED4`).
    ///
    /// Returns `None` when fewer than `k` scavenges have completed or
    /// `k == 0`.
    pub fn back(&self, k: usize) -> Option<&ScavengeRecord> {
        if k == 0 {
            return None;
        }
        self.records.len().checked_sub(k).map(|i| &self.records[i])
    }

    /// The record of scavenge `k` counting from the first (0-based).
    pub fn get(&self, k: usize) -> Option<&ScavengeRecord> {
        self.records.get(k)
    }

    /// Iterates over all completed scavenges, oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &ScavengeRecord> {
        self.records.iter()
    }

    /// Scavenge times `t_0 .. t_{n-1}` at or after `from`, oldest first,
    /// together with their indices.
    ///
    /// Feedback Mediation searches this list for the oldest admissible
    /// boundary.
    pub fn times_at_or_after(
        &self,
        from: VirtualTime,
    ) -> impl Iterator<Item = (usize, VirtualTime)> + '_ {
        let start = self.split_at_or_after(from);
        self.records[start..]
            .iter()
            .enumerate()
            .map(move |(i, r)| (start + i, r.at))
    }

    /// The candidate boundaries at or after `from`, as a sorted view the
    /// inverse survival query
    /// ([`SurvivalEstimator::oldest_boundary_within`](crate::policy::SurvivalEstimator::oldest_boundary_within))
    /// can both iterate and binary-search.
    pub fn candidates_at_or_after(&self, from: VirtualTime) -> BoundaryCandidates<'_> {
        BoundaryCandidates {
            records: &self.records[self.split_at_or_after(from)..],
        }
    }

    /// Index of the first record with `at >= from`. Records are pushed
    /// with non-decreasing `at` (enforced by [`ScavengeHistory::push`]),
    /// so one binary search replaces the old linear filter.
    fn split_at_or_after(&self, from: VirtualTime) -> usize {
        self.records.partition_point(|r| r.at < from)
    }

    /// Total bytes traced over the whole history.
    pub fn total_traced(&self) -> Bytes {
        self.records.iter().map(|r| r.traced).sum()
    }
}

/// A sorted run of candidate boundary times — the scavenge times a
/// mediating policy may move the boundary to.
///
/// Produced by [`ScavengeHistory::candidates_at_or_after`]; consumed by
/// [`SurvivalEstimator::oldest_boundary_within`](crate::policy::SurvivalEstimator::oldest_boundary_within).
/// Times ascend (scavenges complete in allocation order), which is what
/// lets an estimator answer the inverse query with a binary search
/// instead of probing candidates one by one.
#[derive(Clone, Copy, Debug)]
pub struct BoundaryCandidates<'a> {
    records: &'a [ScavengeRecord],
}

impl<'a> BoundaryCandidates<'a> {
    /// A view over explicit records (ascending `at`); mainly for tests —
    /// policies get their candidates from the history.
    pub fn over(records: &'a [ScavengeRecord]) -> BoundaryCandidates<'a> {
        debug_assert!(
            records.windows(2).all(|w| w[0].at <= w[1].at),
            "candidate times must ascend"
        );
        BoundaryCandidates { records }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Candidate times, oldest first.
    pub fn times(&self) -> impl Iterator<Item = VirtualTime> + 'a {
        self.records.iter().map(|r| r.at)
    }

    /// The oldest candidate, if any.
    pub fn first(&self) -> Option<VirtualTime> {
        self.records.first().map(|r| r.at)
    }

    /// The oldest candidate at or after `threshold`, by binary search.
    pub fn first_at_or_after(&self, threshold: VirtualTime) -> Option<VirtualTime> {
        let i = self.records.partition_point(|r| r.at < threshold);
        self.records.get(i).map(|r| r.at)
    }
}

impl<'a> IntoIterator for &'a ScavengeHistory {
    type Item = &'a ScavengeRecord;
    type IntoIter = std::slice::Iter<'a, ScavengeRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl FromIterator<ScavengeRecord> for ScavengeHistory {
    fn from_iter<I: IntoIterator<Item = ScavengeRecord>>(iter: I) -> Self {
        let mut h = ScavengeHistory::new();
        for r in iter {
            h.push(r);
        }
        h
    }
}

impl Extend<ScavengeRecord> for ScavengeHistory {
    fn extend<I: IntoIterator<Item = ScavengeRecord>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, traced: u64) -> ScavengeRecord {
        ScavengeRecord {
            at: VirtualTime::from_bytes(at),
            boundary: VirtualTime::ZERO,
            traced: Bytes::new(traced),
            surviving: Bytes::new(traced),
            reclaimed: Bytes::ZERO,
            mem_before: Bytes::new(traced),
        }
    }

    #[test]
    fn back_indexing_matches_paper_notation() {
        let h: ScavengeHistory = (1..=5).map(|i| rec(i * 100, i)).collect();
        // back(1) is t_{n-1}, the most recent.
        assert_eq!(h.back(1).unwrap().at, VirtualTime::from_bytes(500));
        assert_eq!(h.back(4).unwrap().at, VirtualTime::from_bytes(200));
        assert_eq!(h.back(5).unwrap().at, VirtualTime::from_bytes(100));
        assert!(h.back(6).is_none());
        assert!(h.back(0).is_none());
    }

    #[test]
    fn empty_history_has_no_last() {
        let h = ScavengeHistory::new();
        assert!(h.last().is_none());
        assert!(h.is_empty());
        assert_eq!(h.total_traced(), Bytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_push_rejected() {
        let mut h = ScavengeHistory::new();
        h.push(rec(200, 1));
        h.push(rec(100, 1));
    }

    #[test]
    fn times_at_or_after_filters_and_orders() {
        let h: ScavengeHistory = [rec(100, 1), rec(200, 2), rec(300, 3)]
            .into_iter()
            .collect();
        let times: Vec<_> = h.times_at_or_after(VirtualTime::from_bytes(150)).collect();
        assert_eq!(
            times,
            vec![
                (1, VirtualTime::from_bytes(200)),
                (2, VirtualTime::from_bytes(300))
            ]
        );
    }

    #[test]
    fn totals_accumulate() {
        let h: ScavengeHistory = [rec(100, 10), rec(200, 20)].into_iter().collect();
        assert_eq!(h.total_traced(), Bytes::new(30));
    }

    #[test]
    fn record_consistency_check() {
        let ok = ScavengeRecord {
            at: VirtualTime::from_bytes(10),
            boundary: VirtualTime::ZERO,
            traced: Bytes::new(4),
            surviving: Bytes::new(6),
            reclaimed: Bytes::new(4),
            mem_before: Bytes::new(10),
        };
        assert!(ok.is_consistent());
        let bad = ScavengeRecord {
            reclaimed: Bytes::new(5),
            ..ok
        };
        assert!(!bad.is_consistent());
    }
}
