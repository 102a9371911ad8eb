//! The core-side observability facade: a runtime flag and a few
//! thread-local counters, nothing else.
//!
//! `dtb-core` stays dependency-free, so it cannot talk to the event bus
//! (`dtb-obs`) directly. Instead it exposes this facade: the bus flips
//! [`set_enabled`] when the first sink is installed, and the hot paths in
//! core (the survival estimator's inverse query) call the `note_*`
//! functions, which are `#[inline]` and collapse to a single relaxed
//! load-and-branch when observability is off. The engine drains the
//! counters at each scavenge ([`take_inverse_queries`]) and attaches them
//! to the scavenge span event.
//!
//! Counters are **thread-local** because one process runs many
//! simulation cells concurrently (the executor's worker pool): a global
//! counter would attribute one cell's estimator traffic to another. The
//! engine's drive loop runs each cell's boundary decisions on a single
//! thread, so thread-locality is exactly cell-locality.

use core::cell::Cell;
use core::sync::atomic::{AtomicBool, Ordering};

/// Whether any event sink is installed. Written by the bus
/// (`dtb-obs`), read by every instrumentation point.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when an event sink is installed and instrumentation should
/// count/emit. One relaxed load; the disabled path does nothing else.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flips the global instrumentation flag. Called by the event bus when
/// sinks are installed/removed; callers other than the bus should not
/// need this.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

thread_local! {
    /// (inverse-query calls, candidate/descent probes) since the last
    /// [`take_inverse_queries`] on this thread.
    static INVERSE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Records one `oldest_boundary_within` invocation that examined
/// `probes` candidates (the default scan) or performed `probes` index
/// descents (the Fenwick implementation, always 1).
///
/// No-op unless [`enabled`]. Implementations must call this exactly once
/// per invocation so the per-scavenge call count is an engine-invariant
/// (the probe count is allowed to differ between estimator
/// implementations).
#[inline]
pub fn note_inverse_query(probes: u64) {
    if enabled() {
        INVERSE.with(|c| {
            let (calls, p) = c.get();
            c.set((calls + 1, p + probes));
        });
    }
}

/// Drains this thread's inverse-query counters:
/// `(calls, probes)` since the previous take.
pub fn take_inverse_queries() -> (u64, u64) {
    INVERSE.with(|c| c.replace((0, 0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_notes_are_no_ops() {
        set_enabled(false);
        take_inverse_queries();
        note_inverse_query(5);
        assert_eq!(take_inverse_queries(), (0, 0));
    }

    #[test]
    fn enabled_notes_accumulate_and_drain() {
        set_enabled(true);
        take_inverse_queries();
        note_inverse_query(3);
        note_inverse_query(1);
        assert_eq!(take_inverse_queries(), (2, 4));
        assert_eq!(take_inverse_queries(), (0, 0));
        set_enabled(false);
    }
}
