//! The `No GC` and `LIVE` baseline rows of Table 2.
//!
//! These are not collectors: `No GC` is the memory a program would use if
//! nothing were ever reclaimed (the allocation ramp itself), and `LIVE` is
//! the exact reachable storage over time — the floor no collector can beat.
//!
//! Both rows read one [`TraceStats`], computed by its single streaming
//! kernel whether the trace is in memory or streamed, so a column needs
//! it only once ([`baseline_report`]); the executor shares it between a
//! column's two baseline cells.

use crate::metrics::SimReport;
use dtb_core::history::ScavengeHistory;
use dtb_core::policy::Row;
use dtb_core::time::Bytes;
use dtb_trace::event::CompiledTrace;
use dtb_trace::stats::TraceStats;
use dtb_trace::{EventSource, SourceError};

/// Builds a baseline row (no pauses, no tracing, no collections) from
/// precomputed trace statistics. The two baseline rows differ only in
/// which memory profile they read off the stats: [`Row::NoGc`] reads the
/// allocation ramp, any other row the live curve.
pub fn baseline_report(row: Row, stats: &TraceStats) -> SimReport {
    let (mem_mean, mem_max) = match row {
        Row::NoGc => (stats.nogc_mean, stats.nogc_max),
        _ => (stats.live_mean, stats.live_max),
    };
    SimReport {
        policy: row,
        program: stats.name.clone(),
        mem_mean,
        mem_max,
        pause_median_ms: 0.0,
        pause_p90_ms: 0.0,
        total_traced: Bytes::ZERO,
        overhead_pct: 0.0,
        collections: 0,
        history: ScavengeHistory::new(),
    }
}

/// The `No GC` row: memory usage with the collector disabled.
///
/// Memory equals the allocation clock, so the mean is half the total (the
/// ramp average) and the max is the total allocation. There are no pauses
/// and no tracing.
pub fn no_gc_report(trace: &CompiledTrace) -> SimReport {
    baseline_report(Row::NoGc, &TraceStats::compute_compiled(trace))
}

/// The `LIVE` row: exact reachable bytes over time.
///
/// The unreachable floor: a collector with a perfect, free oracle would
/// hold memory at this curve.
pub fn live_report(trace: &CompiledTrace) -> SimReport {
    baseline_report(Row::Live, &TraceStats::compute_compiled(trace))
}

/// [`no_gc_report`] over a streaming [`EventSource`]: the same kernel
/// ([`TraceStats::compute_source`]), so bit-identical to the in-memory
/// row, without ever materializing the trace.
///
/// # Errors
///
/// Propagates the source's own failure (I/O, corruption, generator
/// fault).
pub fn no_gc_report_source(
    source: &mut (impl EventSource + ?Sized),
) -> Result<SimReport, SourceError> {
    Ok(baseline_report(
        Row::NoGc,
        &TraceStats::compute_source(source)?,
    ))
}

/// [`live_report`] over a streaming [`EventSource`]; see
/// [`no_gc_report_source`].
///
/// # Errors
///
/// Propagates the source's own failure (I/O, corruption, generator
/// fault).
pub fn live_report_source(
    source: &mut (impl EventSource + ?Sized),
) -> Result<SimReport, SourceError> {
    Ok(baseline_report(
        Row::Live,
        &TraceStats::compute_source(source)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtb_trace::TraceBuilder;

    #[test]
    fn baselines_bracket_collector_memory() {
        let mut b = TraceBuilder::new("base");
        for _ in 0..50 {
            let id = b.alloc(10_000);
            b.free(id);
        }
        b.alloc(10_000); // one object stays live
        let trace = b.finish().compile().unwrap();
        let nogc = no_gc_report(&trace);
        let live = live_report(&trace);
        assert_eq!(nogc.mem_max, Bytes::new(510_000));
        assert_eq!(nogc.mem_mean, Bytes::new(255_000));
        assert!(live.mem_max <= nogc.mem_max);
        assert!(live.mem_mean <= nogc.mem_mean);
        // Churn objects die at their own birth instant, so the live level
        // never stacks two of them; only the final survivor counts.
        assert_eq!(live.mem_max, Bytes::new(10_000));
        assert_eq!(nogc.collections, 0);
        assert_eq!(live.total_traced, Bytes::ZERO);
    }

    #[test]
    fn streaming_baselines_match_in_memory() {
        use dtb_trace::CompiledSource;
        let mut b = TraceBuilder::new("base-stream");
        for i in 0..200u32 {
            let id = b.alloc(1_000 + i);
            if i % 3 != 0 {
                b.free(id);
            }
        }
        let trace = b.finish().compile().unwrap();
        let mut s = CompiledSource::new(&trace);
        assert_eq!(no_gc_report_source(&mut s).unwrap(), no_gc_report(&trace));
        let mut s = CompiledSource::new(&trace);
        assert_eq!(live_report_source(&mut s).unwrap(), live_report(&trace));
    }
}
