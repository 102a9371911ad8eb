//! Per-run measurements: everything the paper's tables report.

use dtb_core::cost::CostModel;
use dtb_core::history::ScavengeHistory;
use dtb_core::policy::Row;
use dtb_core::stats::{Ramp, SampleStats, WeightedStats};
use dtb_core::time::Bytes;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

/// The measurements of one simulated collector run, in the units the
/// paper's tables use.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Which table row this run measures (a collector or a baseline);
    /// serialized as its printed label (`"FULL"`, `"DTBFM"`, `"No GC"`…).
    pub policy: Row,
    /// Workload label (`"GHOST(1)"`, …).
    pub program: String,
    /// Table 2: allocation-weighted mean memory in use, bytes.
    pub mem_mean: Bytes,
    /// Table 2: maximum memory in use, bytes.
    pub mem_max: Bytes,
    /// Table 3: median pause, milliseconds.
    pub pause_median_ms: f64,
    /// Table 3: 90th-percentile pause, milliseconds.
    pub pause_p90_ms: f64,
    /// Table 4: total bytes traced.
    pub total_traced: Bytes,
    /// Table 4: estimated CPU overhead, percent of execution time.
    pub overhead_pct: f64,
    /// Number of scavenges performed.
    pub collections: usize,
    /// Full per-scavenge history (for curves and diagnostics).
    pub history: ScavengeHistory,
}

impl SimReport {
    /// Table 2's (mean, max) in binary kilobytes, as printed.
    pub fn mem_kb(&self) -> (f64, f64) {
        (
            self.mem_mean.as_u64() as f64 / 1024.0,
            self.mem_max.as_u64() as f64 / 1024.0,
        )
    }

    /// Table 4's traced column in binary kilobytes.
    pub fn traced_kb(&self) -> f64 {
        self.total_traced.as_u64() as f64 / 1024.0
    }
}

/// The threads inside [`exact_memory_means`], innermost call last, each
/// with the unrounded memory means of the reports it finished so far.
static COLLECTING: Mutex<Vec<(ThreadId, Vec<u64>)>> = Mutex::new(Vec::new());

/// `COLLECTING`'s length: [`MetricsCollector::finish`] reads this one
/// atomic and touches nothing else while no test collects. (A
/// thread-local here, touched by every `finish`, made the benchmark's
/// `served-sweeps` sweeps 15% slower on a 2-vCPU VM, inline or not.)
static COLLECTORS: AtomicUsize = AtomicUsize::new(0);

/// Runs `f` and returns, beside its result, the bits of the unrounded
/// memory mean behind [`SimReport::mem_mean`] for every report `f`
/// finished on this thread, in finish order. `mem_mean` keeps whole
/// bytes, so a differential that compares only reports cannot see a
/// memory fold that drifts by less than a byte; these bits can. A test
/// hook: reports, their serialized form and the journal are unchanged.
#[doc(hidden)]
pub fn exact_memory_means<R>(f: impl FnOnce() -> R) -> (R, Vec<u64>) {
    let me = std::thread::current().id();
    COLLECTING
        .lock()
        .expect("collectors")
        .push((me, Vec::new()));
    COLLECTORS.fetch_add(1, Ordering::SeqCst);
    let result = f();
    COLLECTORS.fetch_sub(1, Ordering::SeqCst);
    let mut collecting = COLLECTING.lock().expect("collectors");
    let at = collecting.iter().rposition(|(id, _)| *id == me);
    let (_, means) = collecting.remove(at.expect("pushed above"));
    (result, means)
}

/// Records `mean` for the innermost [`exact_memory_means`] on this
/// thread, if any.
fn collect_exact_mean(mean: f64) {
    let me = std::thread::current().id();
    let mut collecting = COLLECTING.lock().expect("collectors");
    if let Some((_, means)) = collecting.iter_mut().rev().find(|(id, _)| *id == me) {
        means.push(mean.to_bits());
    }
}

/// Accumulates measurements during a run and finalizes a [`SimReport`].
#[derive(Clone, Debug)]
pub struct MetricsCollector {
    cost: CostModel,
    memory: WeightedStats,
    pauses: SampleStats,
    history: ScavengeHistory,
}

impl MetricsCollector {
    /// Creates a collector under a cost model.
    pub fn new(cost: CostModel) -> MetricsCollector {
        MetricsCollector {
            cost,
            memory: WeightedStats::new(),
            pauses: SampleStats::new(),
            history: ScavengeHistory::new(),
        }
    }

    /// Records that memory in use held `level` for `span` allocation bytes.
    pub fn record_memory(&mut self, level: Bytes, span: Bytes) {
        self.memory
            .record(level.as_u64() as f64, span.as_u64() as f64);
    }

    /// Records the memory ramp of a run of allocations starting at
    /// `level`: bit-identical to one [`record_memory`](Self::record_memory)
    /// per allocation, each at the level before it and for its size.
    pub fn record_ramp(&mut self, level: Bytes, ramp: Ramp<'_>) {
        self.memory.record_ramp(level.as_u64(), ramp);
    }

    /// Records a completed scavenge.
    pub fn record_scavenge(&mut self, record: dtb_core::history::ScavengeRecord) {
        self.pauses.record(self.cost.pause_ms(record.traced));
        self.history.push(record);
    }

    /// Read access to the history (the policy context borrows it).
    pub fn history(&self) -> &ScavengeHistory {
        &self.history
    }

    /// Finalizes the report for a program that ran `exec_seconds`.
    pub fn finish(
        mut self,
        policy: impl Into<Row>,
        program: impl Into<String>,
        exec_seconds: f64,
    ) -> SimReport {
        let total_traced = self.history.total_traced();
        let mem_mean = self.memory.mean().unwrap_or(0.0);
        if COLLECTORS.load(Ordering::Relaxed) > 0 {
            collect_exact_mean(mem_mean);
        }
        SimReport {
            policy: policy.into(),
            program: program.into(),
            mem_mean: Bytes::new(mem_mean as u64),
            mem_max: Bytes::new(self.memory.max().unwrap_or(0.0) as u64),
            pause_median_ms: self.pauses.median().unwrap_or(0.0),
            pause_p90_ms: self.pauses.percentile(90.0).unwrap_or(0.0),
            total_traced,
            overhead_pct: self.cost.overhead_percent(total_traced, exec_seconds),
            collections: self.history.len(),
            history: self.history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtb_core::history::ScavengeRecord;
    use dtb_core::time::VirtualTime;

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
    fn report_units_convert() {
        let mut m = MetricsCollector::new(CostModel::paper());
        m.record_memory(Bytes::new(2048), Bytes::new(100));
        m.record_scavenge(rec(100, 50_000)); // 100 ms
        m.record_scavenge(rec(200, 25_000)); // 50 ms
        let r = m.finish("FULL", "TEST", 10.0);
        assert_eq!(r.mem_kb(), (2.0, 2.0));
        assert_eq!(r.collections, 2);
        assert!((r.pause_median_ms - 75.0).abs() < 1e-9);
        // 75 000 bytes traced at 500 KB/s = 0.15 s over 10 s = 1.5 %.
        assert!((r.overhead_pct - 1.5).abs() < 1e-9);
        assert!((r.traced_kb() - 75_000.0 / 1024.0).abs() < 1e-9);
    }

    #[test]
    fn exact_means_are_the_unrounded_bits_of_each_finished_report() {
        let finish = |level: u64, span: u64| {
            let mut m = MetricsCollector::new(CostModel::paper());
            m.record_memory(Bytes::new(level), Bytes::new(span));
            m.record_memory(Bytes::new(level + 1), Bytes::new(span));
            m.finish("FULL", "TEST", 1.0)
        };
        let ((a, b), means) = exact_memory_means(|| (finish(10, 3), finish(7, 1)));
        assert_eq!((a.mem_mean, b.mem_mean), (Bytes::new(10), Bytes::new(7)));
        assert_eq!(means, [10.5f64.to_bits(), 7.5f64.to_bits()]);
        // Outside the hook nothing is collected.
        finish(1, 1);
        assert_eq!(exact_memory_means(|| ()).1, []);
        // Another thread's reports are not this thread's, and a nested
        // hook keeps its own.
        let spawned = || std::thread::spawn(move || finish(5, 1)).join().unwrap();
        assert_eq!(exact_memory_means(spawned).1, []);
        let ((_, inner), outer) = exact_memory_means(|| exact_memory_means(|| finish(3, 1)));
        assert_eq!((inner, outer), (vec![3.5f64.to_bits()], vec![]));
    }

    #[test]
    fn empty_run_report_is_zeroed() {
        let m = MetricsCollector::new(CostModel::paper());
        let r = m.finish("FULL", "EMPTY", 1.0);
        assert_eq!(r.mem_mean, Bytes::ZERO);
        assert_eq!(r.pause_median_ms, 0.0);
        assert_eq!(r.collections, 0);
    }
}
