//! Outside-in timers for the engine's layers, and the span buffer of a
//! traced run.
//!
//! No crate is instrumented: each layer is timed around calls into its
//! public interface. [`TimedSource`] wraps any [`EventSource`] (the
//! `trace` layer's decode), [`TimedHeap`] wraps the [`OracleHeap`] and is
//! handed to the engine with `Sim::heap::<TimedHeap>()` (the `heap`
//! layer), [`TimedSurvival`] wraps the survival view the heap lends to a
//! policy (inverse survival queries), and [`TimedPolicy`] wraps a
//! [`TbPolicy`] (the `policy` layer). The engine builds its heap itself,
//! so the wrappers add into a thread-local [`LayerTimes`] that the caller
//! drains with [`take`] after each run; runs are serial, so one thread's
//! totals are one run's totals.

use dtb_core::error::PolicyError;
use dtb_core::history::BoundaryCandidates;
use dtb_core::policy::{ScavengeContext, SurvivalEstimator, SurvivalLender, TbPolicy};
use dtb_core::time::{Bytes, VirtualTime};
use dtb_sim::{
    CheckpointHeap, HeapSnapshot, OracleHeap, ScavengeOutcome, SimHeap, SimObject, SurvivalSnapshot,
};
use dtb_trace::event::TraceMeta;
use dtb_trace::{EventBlock, EventSource, ObjectLife, SourceError};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Nanoseconds spent in each layer below the engine, plus call counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTimes {
    pub decode_ns: u64,
    pub decoded: u64,
    pub insert_ns: u64,
    pub survival_view_ns: u64,
    pub survival_query_ns: u64,
    pub scavenge_ns: u64,
    pub scavenges: u64,
    pub select_ns: u64,
    pub selects: u64,
}

impl LayerTimes {
    const ZERO: LayerTimes = LayerTimes {
        decode_ns: 0,
        decoded: 0,
        insert_ns: 0,
        survival_view_ns: 0,
        survival_query_ns: 0,
        scavenge_ns: 0,
        scavenges: 0,
        select_ns: 0,
        selects: 0,
    };

    /// Time attributed to layers below the engine. Policy selection
    /// includes the survival queries it makes, so those are not added
    /// twice.
    pub fn children_ns(&self) -> u64 {
        self.decode_ns + self.insert_ns + self.survival_view_ns + self.scavenge_ns + self.select_ns
    }

    pub fn add(&mut self, o: &LayerTimes) {
        self.decode_ns += o.decode_ns;
        self.decoded += o.decoded;
        self.insert_ns += o.insert_ns;
        self.survival_view_ns += o.survival_view_ns;
        self.survival_query_ns += o.survival_query_ns;
        self.scavenge_ns += o.scavenge_ns;
        self.scavenges += o.scavenges;
        self.select_ns += o.select_ns;
        self.selects += o.selects;
    }
}

thread_local! {
    static TIMES: Cell<LayerTimes> = const { Cell::new(LayerTimes::ZERO) };
}

fn record(since: Instant, f: impl FnOnce(&mut LayerTimes, u64)) {
    let ns = since.elapsed().as_nanos() as u64;
    TIMES.with(|c| {
        let mut t = c.get();
        f(&mut t, ns);
        c.set(t);
    });
}

/// Returns and resets this thread's layer totals.
pub fn take() -> LayerTimes {
    TIMES.with(|c| c.replace(LayerTimes::ZERO))
}

/// Times `EventSource::next_block` (the decode layer).
pub struct TimedSource<'a>(pub &'a mut dyn EventSource);

impl EventSource for TimedSource<'_> {
    fn meta(&self) -> &TraceMeta {
        self.0.meta()
    }

    fn len_hint(&self) -> Option<usize> {
        self.0.len_hint()
    }

    /// Not timed: two clock reads per record would cost as much as the
    /// decode itself. The engine reads blocks; record-at-a-time readers
    /// (the streaming baselines) are timed as a whole instead.
    fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
        self.0.next_record()
    }

    fn next_block(&mut self, block: &mut EventBlock) -> usize {
        let t = Instant::now();
        let n = self.0.next_block(block);
        record(t, |l, ns| {
            l.decode_ns += ns;
            l.decoded += n as u64;
        });
        n
    }

    fn end(&self) -> VirtualTime {
        self.0.end()
    }

    fn seek(&mut self, clock: VirtualTime) -> Result<(), SourceError> {
        self.0.seek(clock)
    }
}

/// The [`OracleHeap`] with its inserts, lazy death drains (survival
/// views) and scavenges timed.
pub struct TimedHeap(OracleHeap);

impl SimHeap for TimedHeap {
    fn with_capacity(n: usize) -> TimedHeap {
        TimedHeap(OracleHeap::with_capacity(n))
    }

    fn insert(&mut self, obj: SimObject) {
        let t = Instant::now();
        self.0.insert(obj);
        record(t, |l, ns| l.insert_ns += ns);
    }

    fn insert_block(&mut self, births: &[u64], sizes: &[u32], deaths: &[u64]) {
        let t = Instant::now();
        self.0.insert_block(births, sizes, deaths);
        record(t, |l, ns| l.insert_ns += ns);
    }

    fn mem_in_use(&self) -> Bytes {
        self.0.mem_in_use()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn live_bytes_at(&mut self, at: VirtualTime) -> Bytes {
        self.0.live_bytes_at(at)
    }

    fn scavenge(&mut self, tb: VirtualTime, now: VirtualTime) -> ScavengeOutcome {
        let t = Instant::now();
        let out = self.0.scavenge(tb, now);
        record(t, |l, ns| {
            l.scavenge_ns += ns;
            l.scavenges += 1;
        });
        out
    }
}

impl SurvivalLender for TimedHeap {
    type Survival<'a> = TimedSurvival<'a>;

    fn survival_view(&mut self, now: VirtualTime) -> TimedSurvival<'_> {
        let t = Instant::now();
        let view = self.0.survival_view(now);
        record(t, |l, ns| l.survival_view_ns += ns);
        TimedSurvival(view)
    }
}

impl CheckpointHeap for TimedHeap {
    fn snapshot(&self) -> HeapSnapshot {
        self.0.snapshot()
    }

    fn restore(snapshot: &HeapSnapshot) -> TimedHeap {
        TimedHeap(OracleHeap::restore(snapshot))
    }
}

/// The heap's survival view with both queries timed. Forwards the
/// inverse query to the view's own indexed answer, never to the trait's
/// default scan.
pub struct TimedSurvival<'a>(SurvivalSnapshot<'a>);

impl SurvivalEstimator for TimedSurvival<'_> {
    fn surviving_born_after(&self, tb: VirtualTime) -> Bytes {
        let t = Instant::now();
        let b = self.0.surviving_born_after(tb);
        record(t, |l, ns| l.survival_query_ns += ns);
        b
    }

    fn oldest_boundary_within(
        &self,
        trace_max: Bytes,
        candidates: BoundaryCandidates<'_>,
    ) -> Option<VirtualTime> {
        let t = Instant::now();
        let b = self.0.oldest_boundary_within(trace_max, candidates);
        record(t, |l, ns| l.survival_query_ns += ns);
        b
    }
}

/// A policy with `select_boundary` timed.
pub struct TimedPolicy(pub Box<dyn TbPolicy>);

impl TbPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn select_boundary(&mut self, ctx: &ScavengeContext<'_>) -> Result<VirtualTime, PolicyError> {
        let t = Instant::now();
        let r = self.0.select_boundary(ctx);
        record(t, |l, ns| {
            l.select_ns += ns;
            l.selects += 1;
        });
        r
    }

    fn constraint(&self) -> Option<dtb_core::constraint::Constraint> {
        self.0.constraint()
    }

    fn save_state(&self) -> Vec<u8> {
        self.0.save_state()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), PolicyError> {
        self.0.restore_state(state)
    }
}

/// One recorded span: a named interval with its parent and, for served
/// cells, the sweep and cell it belongs to.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    label: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    sweep: u64,
    cell: u64,
}

/// Spans of a traced run, kept in a buffer allocated up front and
/// written out once the run ends. Spans past the capacity are counted,
/// not stored, so the buffer never grows mid-run.
pub struct Spans {
    origin: Instant,
    buf: Mutex<Vec<Span>>,
    /// A statistic only, so relaxed ordering suffices.
    dropped: AtomicU64,
}

/// Where a span sits: its parent span and the served (sweep, cell).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanAt {
    pub parent: Option<usize>,
    pub sweep: u64,
    pub cell: u64,
}

impl Spans {
    pub const CAPACITY: usize = 1 << 16;

    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            buf: Mutex::new(Vec::with_capacity(Self::CAPACITY)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records a finished span and returns its index, so children can
    /// name it as their parent.
    pub fn record(
        &self,
        name: &'static str,
        label: impl Into<String>,
        start: Instant,
        end: Instant,
        at: SpanAt,
    ) -> Option<usize> {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut buf = self.buf.lock().expect("span buffer lock poisoned");
        if buf.len() == Self::CAPACITY {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        buf.push(Span {
            name,
            label: label.into(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent: at.parent,
            sweep: at.sweep,
            cell: at.cell,
        });
        Some(buf.len() - 1)
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let buf = self.buf.lock().expect("span buffer lock poisoned");
        let mut out = String::from("[");
        for (i, s) in buf.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n ");
            }
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"label\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"sweep\":{},\"cell\":{}}}",
                s.name,
                json_str(&s.label),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.sweep,
                s.cell,
            ));
        }
        out.push(']');
        out
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings always serialize")
}
