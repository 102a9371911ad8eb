//! Run scoping: tags every envelope emitted on a thread with the
//! engine run it belongs to.
//!
//! `Sim::run` allocates a run id, enters a [`RunScope`] for the
//! duration of the drive loop, and every `emit` on that thread stamps
//! the id into `Envelope::scope`. The drive loop always executes on the
//! calling thread, so thread-locality is exactly run-locality. Threads
//! outside any run emit scope 0.
//!
//! The run-level probe accumulator lives here too: per-scavenge probe
//! counts are engine-strategy-dependent (Fenwick descent vs candidate
//! scan), so they are kept out of the `Scavenge` payload and summed
//! here for the `RunFinished` diagnostic total.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_RUN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SCOPE: Cell<u64> = const { Cell::new(0) };
    static RUN_PROBES: Cell<u64> = const { Cell::new(0) };
}

/// Allocates a fresh process-unique run id (never 0).
pub fn next_run_id() -> u64 {
    NEXT_RUN.fetch_add(1, Ordering::Relaxed)
}

/// The current thread's run scope (0 outside any run).
#[inline]
pub fn current() -> u64 {
    SCOPE.with(Cell::get)
}

/// RAII guard that sets the thread's run scope, restoring the previous
/// scope (and probe accumulator) on drop — nested runs behave sanely.
pub struct RunScope {
    prev_scope: u64,
    prev_probes: u64,
}

impl RunScope {
    /// Enters run `id` on this thread and zeroes the probe accumulator.
    pub fn enter(id: u64) -> RunScope {
        let prev_scope = SCOPE.with(|c| c.replace(id));
        let prev_probes = RUN_PROBES.with(|c| c.replace(0));
        RunScope {
            prev_scope,
            prev_probes,
        }
    }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        SCOPE.with(|c| c.set(self.prev_scope));
        RUN_PROBES.with(|c| c.set(self.prev_probes));
    }
}

/// Adds estimator probes to the current run's diagnostic total.
#[inline]
pub fn add_run_probes(n: u64) {
    RUN_PROBES.with(|c| c.set(c.get() + n));
}

/// Reads the current run's accumulated probe total.
pub fn run_probes() -> u64 {
    RUN_PROBES.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(current(), 0);
        let outer = next_run_id();
        let inner = next_run_id();
        assert_ne!(outer, inner);
        {
            let _a = RunScope::enter(outer);
            assert_eq!(current(), outer);
            add_run_probes(5);
            {
                let _b = RunScope::enter(inner);
                assert_eq!(current(), inner);
                assert_eq!(run_probes(), 0);
                add_run_probes(2);
                assert_eq!(run_probes(), 2);
            }
            assert_eq!(current(), outer);
            assert_eq!(run_probes(), 5);
        }
        assert_eq!(current(), 0);
    }
}
