//! Deterministic whole-system fault scripting.
//!
//! PR 2 gave single components injectable faults (`dtb_sim::fault`) and
//! PR 7 gave the wire them (`NetFault`); this module composes them into
//! a seeded, replayable **plan** for the whole service: kill the
//! coordinator at scripted progress points, tear journal appends,
//! partition the wire, skew the lease clock — and every run is
//! reproducible from its `u64` seed alone. The `dtb-chaos` binary
//! executes a plan against real processes; the in-process drill in
//! `tests/chaos.rs` executes one against library handles.
//!
//! Two verification helpers live here too, because "the drill passed"
//! means something precise: [`stream_continuity`] proves a resumed
//! event stream has no gaps or duplicates within any epoch, and
//! [`journal_exactly_once`] proves no cell was ever finalized twice.

pub use dtb_trace::record_log::FaultFuse;

// ───────────────────────── seeded plans ─────────────────────────

/// SplitMix64: the standard 64-bit mixer. Tiny, fully deterministic,
/// and good enough to spread one seed over many plan dimensions.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator over `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// One seeded chaos script. Every field is derived from the seed by
/// [`ChaosPlan::from_seed`], so a failing run is replayed by its seed
/// alone; trigger points are phrased in *finalized-cell counts* (not
/// wall clock), which makes them deterministic across machines.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// The seed this plan was derived from.
    pub seed: u64,
    /// Finalized-cell counts at which to SIGKILL + restart the
    /// coordinator (ascending, within `0..total_cells`).
    pub coordinator_kills: Vec<u64>,
    /// `(worker_index, finalized_count)`: SIGKILL this worker when the
    /// matrix reaches the count, then start a replacement.
    pub worker_kill: Option<(usize, u64)>,
    /// Per-worker wire fault plans (partitions/garbles/replays).
    pub net: Vec<crate::fault::FaultPlan>,
    /// Journal-append fault charges armed on the restarted coordinator.
    pub journal_faults: u32,
    /// Lease timeout multiplier `(num, den)` applied on restart — the
    /// "clock-skewed lease expiry" leg: the restarted coordinator
    /// measures lease windows on a faster or slower clock.
    pub lease_skew: (u64, u64),
}

impl ChaosPlan {
    /// Derives the full script for a drill over `total_cells` cells and
    /// `workers` workers from one seed.
    pub fn from_seed(seed: u64, total_cells: u64, workers: usize) -> ChaosPlan {
        let mut rng = SplitMix64::new(seed);
        let span = total_cells.max(2);
        // 1–2 coordinator kills, at distinct mid-matrix points.
        let mut kills = vec![rng.range(1, span / 2)];
        if rng.next_u64().is_multiple_of(2) {
            let later = rng.range(span / 2, span - 1);
            if later > kills[0] {
                kills.push(later);
            }
        }
        let worker_kill = if workers > 0 {
            Some(((rng.next_u64() as usize) % workers, rng.range(1, span - 1)))
        } else {
            None
        };
        let net = (0..workers)
            .map(|_| crate::fault::FaultPlan {
                drop_every: Some(rng.range(5, 11)),
                delay_every: None,
                garble_every: Some(rng.range(7, 13)),
                replay_every: Some(rng.range(9, 17)),
            })
            .collect();
        ChaosPlan {
            seed,
            coordinator_kills: kills,
            worker_kill,
            net,
            journal_faults: rng.range(1, 2) as u32,
            lease_skew: if rng.next_u64().is_multiple_of(2) {
                (1, 2)
            } else {
                (3, 2)
            },
        }
    }
}

// ───────────────────────── verification ─────────────────────────

/// Checks a followed event stream for continuity: within each epoch,
/// sequence numbers must be strictly increasing and contiguous from the
/// first one seen (a follower may legitimately join an epoch late, but
/// may never skip or repeat after that), and epochs themselves must be
/// non-decreasing. `Err` describes the first violation.
///
/// # Errors
///
/// A human-readable description of the first gap, duplicate, or epoch
/// regression.
pub fn stream_continuity(cursors: &[(u64, u64)]) -> Result<(), String> {
    let mut last: Option<(u64, u64)> = None;
    for &(epoch, seq) in cursors {
        match last {
            None => {}
            Some((le, ls)) => {
                if epoch < le {
                    return Err(format!("epoch regressed: {le} -> {epoch} (seq {seq})"));
                }
                if epoch == le && seq != ls + 1 {
                    return Err(format!(
                        "epoch {epoch}: seq {ls} followed by {seq} (expected {})",
                        ls + 1
                    ));
                }
            }
        }
        last = Some((epoch, seq));
    }
    Ok(())
}

/// Checks a set of journal directories for the exactly-once property:
/// within each sweep journal, no `(column, row)` cell may be finalized
/// twice. `keys` is the flattened list of finalized cell keys of one
/// journal.
///
/// # Errors
///
/// Names the first duplicated cell.
pub fn journal_exactly_once(keys: &[(String, String)]) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    for (column, row) in keys {
        if !seen.insert((column.as_str(), row.as_str())) {
            return Err(format!("cell {column}/{row} finalized more than once"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let a = ChaosPlan::from_seed(42, 8, 2);
        let b = ChaosPlan::from_seed(42, 8, 2);
        assert_eq!(a.coordinator_kills, b.coordinator_kills);
        assert_eq!(a.worker_kill, b.worker_kill);
        assert_eq!(a.lease_skew, b.lease_skew);
        assert_eq!(a.net.len(), 2);
        let c = ChaosPlan::from_seed(43, 8, 2);
        assert!(
            a.coordinator_kills != c.coordinator_kills
                || a.worker_kill != c.worker_kill
                || a.lease_skew != c.lease_skew,
            "different seeds vary the plan"
        );
        // Kill points stay inside the matrix.
        for plan in [&a, &c] {
            for k in &plan.coordinator_kills {
                assert!(*k >= 1 && *k < 8);
            }
        }
    }

    #[test]
    fn continuity_accepts_resumed_epochs_and_rejects_gaps() {
        // A follower that rode out a restart: epoch 1 then epoch 2.
        assert!(stream_continuity(&[(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]).is_ok());
        // Late join inside an epoch is fine...
        assert!(stream_continuity(&[(2, 5), (2, 6)]).is_ok());
        // ...but a gap after joining is not.
        assert!(stream_continuity(&[(1, 1), (1, 3)]).is_err());
        // Duplicates are not.
        assert!(stream_continuity(&[(1, 1), (1, 1)]).is_err());
        // Epoch regression is not.
        assert!(stream_continuity(&[(2, 1), (1, 1)]).is_err());
    }

    #[test]
    fn exactly_once_flags_double_finalization() {
        let ok = vec![
            ("CFRAC".to_string(), "FULL".to_string()),
            ("CFRAC".to_string(), "NOGC".to_string()),
        ];
        assert!(journal_exactly_once(&ok).is_ok());
        let dup = vec![
            ("CFRAC".to_string(), "FULL".to_string()),
            ("CFRAC".to_string(), "FULL".to_string()),
        ];
        assert!(journal_exactly_once(&dup).is_err());
    }
}
