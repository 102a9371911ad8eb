//! Run scoping: tags every envelope emitted on a thread with the
//! engine run it belongs to.
//!
//! Each collector of an engine pass allocates a run id, and the engine
//! enters that run's [`RunScope`] around every event the collector
//! emits, so `emit` stamps the id into `Envelope::scope`. One pass runs
//! several collectors on one thread, so the scope switches per event
//! rather than per thread. Threads outside any run emit scope 0.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_RUN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SCOPE: Cell<u64> = const { Cell::new(0) };
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
/// scope on drop — nested runs behave sanely.
pub struct RunScope {
    prev_scope: u64,
}

impl RunScope {
    /// Enters run `id` on this thread.
    pub fn enter(id: u64) -> RunScope {
        RunScope {
            prev_scope: SCOPE.with(|c| c.replace(id)),
        }
    }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        SCOPE.with(|c| c.set(self.prev_scope));
    }
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
            {
                let _b = RunScope::enter(inner);
                assert_eq!(current(), inner);
            }
            assert_eq!(current(), outer);
        }
        assert_eq!(current(), 0);
    }
}
