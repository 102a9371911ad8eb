//! Adversarial boundary policies for fault-injection testing.
//!
//! Each policy here misbehaves in one specific, deterministic way —
//! returning a non-finite boundary, a boundary in the future, failing or
//! panicking after a set number of scavenges — so the harness can assert
//! that the framework contains exactly that fault: the offending cell
//! fails with the right typed error (or caught panic) and every healthy
//! cell is untouched.
//!
//! They pair with the trace corruptors in [`dtb_trace::corrupt`]: those
//! attack the engine's *input*, these attack its *policy* extension point.

use dtb_core::error::{boundary_from_f64, PolicyError};
use dtb_core::policy::{ScavengeContext, TbPolicy};
use dtb_core::time::{Bytes, VirtualTime};
use dtb_trace::ctc::CtcError;
use dtb_trace::record_log::FaultFuse;
use dtb_trace::{EventBlock, EventSource, ObjectLife, SourceError, TraceMeta};
use std::time::Duration;

/// Always proposes a NaN boundary. The framework's float→clock gate
/// ([`boundary_from_f64`]) rejects it as
/// [`PolicyError::NonFiniteBoundary`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NanBoundary;

impl TbPolicy for NanBoundary {
    fn select_boundary(&mut self, _ctx: &ScavengeContext<'_>) -> Result<VirtualTime, PolicyError> {
        boundary_from_f64(self.name(), f64::NAN)
    }

    fn name(&self) -> &str {
        "FAULT-NAN"
    }
}

/// Always proposes `+∞`, rejected the same way as NaN.
#[derive(Clone, Copy, Debug, Default)]
pub struct InfiniteBoundary;

impl TbPolicy for InfiniteBoundary {
    fn select_boundary(&mut self, _ctx: &ScavengeContext<'_>) -> Result<VirtualTime, PolicyError> {
        boundary_from_f64(self.name(), f64::INFINITY)
    }

    fn name(&self) -> &str {
        "FAULT-INF"
    }
}

/// Returns a boundary **past the allocation clock** — out of the legal
/// `[0, t_{n-1}]` range. With invariant checks on the engine reports
/// `BoundaryBeyondNow`; with checks off it clamps defensively.
#[derive(Clone, Copy, Debug, Default)]
pub struct FutureBoundary;

impl TbPolicy for FutureBoundary {
    fn select_boundary(&mut self, ctx: &ScavengeContext<'_>) -> Result<VirtualTime, PolicyError> {
        Ok(ctx.now.advance(Bytes::from_mb(1)))
    }

    fn name(&self) -> &str {
        "FAULT-FUTURE"
    }
}

/// Behaves like `FULL` for `n` scavenges, then panics.
///
/// Exercises the executor's per-cell `catch_unwind` isolation: the panic
/// must be contained to the cell and reported as a caught panic.
#[derive(Clone, Copy, Debug)]
pub struct PanicAfter {
    remaining: u64,
}

impl PanicAfter {
    /// Panics on the `n+1`-th scavenge decision (so `PanicAfter::new(0)`
    /// panics immediately).
    pub fn new(n: u64) -> PanicAfter {
        PanicAfter { remaining: n }
    }
}

impl TbPolicy for PanicAfter {
    fn select_boundary(&mut self, _ctx: &ScavengeContext<'_>) -> Result<VirtualTime, PolicyError> {
        if self.remaining == 0 {
            panic!("injected policy panic");
        }
        self.remaining -= 1;
        Ok(VirtualTime::ZERO)
    }

    fn name(&self) -> &str {
        "FAULT-PANIC"
    }
}

/// Behaves like `FULL` for `n` scavenges, then returns a typed
/// [`PolicyError::Internal`].
#[derive(Clone, Copy, Debug)]
pub struct FailAfter {
    remaining: u64,
}

impl FailAfter {
    /// Fails on the `n+1`-th scavenge decision.
    pub fn new(n: u64) -> FailAfter {
        FailAfter { remaining: n }
    }
}

impl TbPolicy for FailAfter {
    fn select_boundary(&mut self, _ctx: &ScavengeContext<'_>) -> Result<VirtualTime, PolicyError> {
        if self.remaining == 0 {
            return Err(PolicyError::Internal {
                policy: self.name().to_string(),
                reason: "injected failure".to_string(),
            });
        }
        self.remaining -= 1;
        Ok(VirtualTime::ZERO)
    }

    fn name(&self) -> &str {
        "FAULT-FAIL"
    }
}

/// Wraps an [`EventSource`], sleeping `delay` before every record past
/// the first `n` — a deterministic stand-in for a backing store gone
/// slow (cold cache, struggling network mount). Its blocks end before
/// the first delayed record that would join a non-empty block, and the
/// engine polls its cancel flag between blocks, so a cell stalled on a
/// `SlowAfter` source is cancelled by the executor's deadline watchdog
/// at the next record boundary.
#[derive(Debug)]
pub struct SlowAfter<S> {
    inner: S,
    after: u64,
    delay: Duration,
    served: u64,
}

impl<S> SlowAfter<S> {
    /// Delays every record after the first `after` by `delay`
    /// (`after == 0` slows the stream from the very first record).
    pub fn new(inner: S, after: u64, delay: Duration) -> SlowAfter<S> {
        SlowAfter {
            inner,
            after,
            delay,
            served: 0,
        }
    }

    /// Whether the next record read sleeps first.
    fn delays_next(&self) -> bool {
        self.served >= self.after && !self.delay.is_zero()
    }
}

impl<S: EventSource> EventSource for SlowAfter<S> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
        if self.delays_next() {
            std::thread::sleep(self.delay);
        }
        self.served += 1;
        self.inner.next_record()
    }

    /// Fills like the default, but returns a non-empty block as soon as
    /// its next record would be delayed: one slow record per block, so
    /// the engine sees a tripped cancel flag after one delay instead of
    /// after a whole block of them.
    fn next_block(&mut self, block: &mut EventBlock) -> usize {
        block.clear();
        while block.len() < block.capacity() && (block.is_empty() || !self.delays_next()) {
            match self.next_record() {
                Ok(Some(life)) => block.push(life),
                Ok(None) => break,
                Err(e) => {
                    block.set_error(e);
                    break;
                }
            }
        }
        block.len()
    }

    fn end(&self) -> VirtualTime {
        self.inner.end()
    }
}

/// Wraps an [`EventSource`], failing `next_record` with a **transient**
/// shard I/O error while the shared fuse holds charges.
///
/// The fuse ([`FlakyStore::fuse`]) is decremented across every source
/// built from it — clone it into a source factory and the first
/// `fuse` reads *of the whole cell*, retries included, fail; the retry
/// that finds the fuse empty streams normally. That is exactly the shape
/// of a store that recovers after a hiccup, and the executor's retry
/// classification treats it as such
/// ([`FailureCause::is_transient`](crate::exec::FailureCause::is_transient)).
#[derive(Debug)]
pub struct FlakyStore<S> {
    inner: S,
    fuse: FaultFuse,
}

impl<S> FlakyStore<S> {
    /// Wraps `inner`; each `next_record` consumes one charge from `fuse`
    /// and fails until it is empty.
    pub fn new(inner: S, fuse: FaultFuse) -> FlakyStore<S> {
        FlakyStore { inner, fuse }
    }

    /// A fuse holding `charges` failures, to share across a factory.
    pub fn fuse(charges: u32) -> FaultFuse {
        FaultFuse::charges(charges)
    }
}

impl<S: EventSource> EventSource for FlakyStore<S> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
        if self.fuse.trip() {
            return Err(SourceError::Shard(CtcError::Io {
                path: std::path::PathBuf::from(self.meta().name.clone()),
                message: "injected transient i/o fault".to_string(),
            }));
        }
        self.inner.next_record()
    }

    fn end(&self) -> VirtualTime {
        self.inner.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtb_core::history::ScavengeHistory;
    use dtb_core::policy::NoSurvivalInfo;

    fn ctx(history: &ScavengeHistory) -> ScavengeContext<'_> {
        ScavengeContext {
            now: VirtualTime::from_bytes(1_000),
            mem_before: Bytes::new(500),
            history,
            survival: &NoSurvivalInfo,
        }
    }

    #[test]
    fn float_faults_yield_typed_policy_errors() {
        let h = ScavengeHistory::new();
        let ctx = ctx(&h);
        assert!(matches!(
            NanBoundary.select_boundary(&ctx),
            Err(PolicyError::NonFiniteBoundary { .. })
        ));
        assert!(matches!(
            InfiniteBoundary.select_boundary(&ctx),
            Err(PolicyError::NonFiniteBoundary { .. })
        ));
    }

    #[test]
    fn future_boundary_exceeds_now() {
        let h = ScavengeHistory::new();
        let ctx = ctx(&h);
        let tb = FutureBoundary.select_boundary(&ctx).unwrap();
        assert!(tb > ctx.now);
    }

    #[test]
    fn countdown_policies_hold_then_fire() {
        let h = ScavengeHistory::new();
        let ctx = ctx(&h);
        let mut fail = FailAfter::new(2);
        assert!(fail.select_boundary(&ctx).is_ok());
        assert!(fail.select_boundary(&ctx).is_ok());
        assert!(matches!(
            fail.select_boundary(&ctx),
            Err(PolicyError::Internal { .. })
        ));

        let mut boom = PanicAfter::new(1);
        assert!(boom.select_boundary(&ctx).is_ok());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = boom.select_boundary(&ctx);
        }));
        assert!(caught.is_err());
    }

    fn tiny_source() -> dtb_trace::CompiledSource<'static> {
        use std::sync::OnceLock;
        static TRACE: OnceLock<dtb_trace::event::CompiledTrace> = OnceLock::new();
        let trace = TRACE.get_or_init(|| {
            let mut b = dtb_trace::TraceBuilder::new("tiny");
            b.alloc(64);
            b.alloc(32);
            b.alloc(16);
            b.finish().compile().unwrap()
        });
        dtb_trace::CompiledSource::new(trace)
    }

    #[test]
    fn slow_after_passes_records_through_unchanged() {
        let mut slow = SlowAfter::new(tiny_source(), 2, Duration::from_millis(1));
        let mut plain = tiny_source();
        assert_eq!(slow.meta().name, "tiny");
        assert_eq!(slow.len_hint(), plain.len_hint());
        assert_eq!(slow.end(), plain.end());
        loop {
            let a = slow.next_record().unwrap();
            let b = plain.next_record().unwrap();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn flaky_store_fails_transiently_then_recovers() {
        let fuse = FlakyStore::<dtb_trace::CompiledSource<'_>>::fuse(2);
        let mut flaky = FlakyStore::new(tiny_source(), fuse.clone());
        for _ in 0..2 {
            assert!(matches!(
                flaky.next_record(),
                Err(SourceError::Shard(CtcError::Io { .. }))
            ));
        }
        // Fuse spent: the stream recovers, and a *new* source on the
        // same fuse starts healthy (the charges are shared, not
        // per-instance).
        assert!(flaky.next_record().unwrap().is_some());
        let mut second = FlakyStore::new(tiny_source(), fuse);
        assert!(second.next_record().unwrap().is_some());
    }
}
