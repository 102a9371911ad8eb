//! The four workloads, and what they share: the run context, per-pass
//! records, the timed-pass loop, and the reduction of passes to
//! end-to-end and per-layer metrics.
//!
//! Every workload runs the same way. Set-up builds its inputs
//! [`SETUP_REPS`] times (the median is `setup_s`); a timed section
//! repeats the workload's unit of work — a *pass* — until `--seconds`
//! have been measured; every pass must reproduce the first one's cell
//! digests. A traced run (`--trace 1`) alternates untraced passes with
//! passes through the layer timers, so their difference is the tracing
//! overhead.

pub mod long_trace;
pub mod paper_matrix;
pub mod served_sweeps;
pub mod stream_shards;

use crate::digest::{digest, CellDigest};
use crate::layers::{self, LayerTimes, SpanAt, Spans, TimedHeap, TimedPolicy, TimedSource};
use crate::metrics::{mean, median, percentile, Values};
use dtb_core::policy::{PolicyConfig, PolicyKind};
use dtb_sim::engine::{Sim, SimConfig};
use dtb_sim::{SimError, SimReport};
use dtb_svc::SplitMix64;
use dtb_trace::EventSource;
use std::path::PathBuf;
use std::time::Instant;

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The fewest passes a timed section makes, however long they take.
const MIN_PASSES: usize = 3;

/// Worker threads of the executor and the service, fixed so numbers
/// compare across machines.
pub const WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperMatrix,
    LongTrace,
    StreamShards,
    ServedSweeps,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperMatrix,
        Workload::LongTrace,
        Workload::StreamShards,
        Workload::ServedSweeps,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::LongTrace => "long-trace",
            Workload::StreamShards => "stream-shards",
            Workload::ServedSweeps => "served-sweeps",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn run(self, ctx: &Ctx) -> Result<Outcome, String> {
        match self {
            Workload::PaperMatrix => paper_matrix::run(ctx),
            Workload::LongTrace => long_trace::run(ctx),
            Workload::StreamShards => stream_shards::run(ctx),
            Workload::ServedSweeps => served_sweeps::run(ctx),
        }
    }
}

/// Everything one run of one workload needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Scratch directory for stores and journals, removed after the run.
    pub scratch: PathBuf,
    pub spans: Spans,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: cells, plus RPCs on the service.
    pub attempted: u64,
    /// Operations that failed, including reports that failed a check.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub problems: Vec<String>,
    /// The first pass's cell digests, for the committed-digest check.
    pub digests: Vec<CellDigest>,
    /// End-to-end metrics (untraced run) or per-layer ones (traced).
    pub values: Values,
    /// Finer per-layer numbers of a traced run that only one workload
    /// has (the service's RPC split), for the layer table on disk.
    pub detail: Vec<(String, f64)>,
}

impl Outcome {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// A seed-dependent variant of a committed generator seed. Seed 0 keeps
/// the committed inputs, whose digests are under `expected/`.
pub fn reseed(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        base
    } else {
        SplitMix64::new(base ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
    }
}

/// One cell of a pass.
#[derive(Clone, Debug)]
pub struct CellRecord {
    pub label: String,
    pub start: Instant,
    pub ms: f64,
    /// `None` when the cell failed.
    pub digest: Option<u64>,
    /// Events simulated (0 for baseline rows).
    pub events: u64,
    pub baseline: bool,
    /// Layer totals of a traced policy cell.
    pub layers: LayerTimes,
}

impl CellRecord {
    pub fn new(
        label: String,
        start: Instant,
        ms: f64,
        report: Result<&SimReport, String>,
    ) -> CellRecord {
        CellRecord {
            label,
            start,
            ms,
            digest: report.ok().map(digest),
            events: 0,
            baseline: false,
            layers: LayerTimes::default(),
        }
    }
}

/// One pass: its wall time and its cells.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub cells: Vec<CellRecord>,
}

impl Pass {
    pub fn digests(&self) -> Vec<CellDigest> {
        self.cells
            .iter()
            .map(|c| (c.label.clone(), c.digest.unwrap_or(0)))
            .collect()
    }

    pub fn events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    pub fn busy_s(&self) -> f64 {
        self.cells.iter().map(|c| c.ms).sum::<f64>() / 1e3
    }

    pub fn baseline_s(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.baseline)
            .map(|c| c.ms)
            .sum::<f64>()
            / 1e3
    }
}

/// Repeats `pass` until `--seconds` of passes have run (at least
/// [`MIN_PASSES`]).
pub fn timed_passes(
    ctx: &Ctx,
    mut pass: impl FnMut() -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let mut passes = Vec::new();
    let mut total = 0.0;
    while passes.len() < min_passes(ctx) || total < ctx.seconds {
        let p = pass()?;
        total += p.wall_s;
        passes.push(p);
    }
    Ok(passes)
}

fn min_passes(ctx: &Ctx) -> usize {
    if ctx.smoke {
        2
    } else {
        MIN_PASSES
    }
}

/// The passes of a traced run. Untraced and traced passes alternate, so
/// a drift in the machine's speed during the run touches both alike and
/// their difference is the tracing overhead.
#[derive(Default)]
pub struct Traced {
    pub plain: Vec<Pass>,
    pub traced: Vec<Pass>,
    /// Telemetry events delivered during the traced passes.
    pub events: u64,
}

/// Alternates an untraced pass with a traced one — layer timers on and a
/// sink on the telemetry bus, so every instrumented layer emits — until
/// `--seconds` have run. Records each traced pass as a span, with its
/// cells when `with_cells`.
pub fn alternate(
    ctx: &Ctx,
    with_cells: bool,
    mut pass: impl FnMut(bool) -> Result<Pass, String>,
) -> Result<Traced, String> {
    let mut t = Traced::default();
    let mut total = 0.0;
    while t.traced.len() < min_passes(ctx) || total < ctx.seconds {
        let plain = pass(false)?;
        let (sink, events) = counting_sink();
        let start = Instant::now();
        let traced = pass(true)?;
        drop(sink);
        t.events += events.load(std::sync::atomic::Ordering::Relaxed);
        record_pass(&ctx.spans, "pass", start, &traced, with_cells);
        total += plain.wall_s + traced.wall_s;
        t.plain.push(plain);
        t.traced.push(traced);
    }
    Ok(t)
}

/// Runs a pass-shaped workload: untraced passes for the end-to-end
/// metrics, or alternating passes for a traced run. Checks every pass
/// against the first untraced one.
pub fn measure(
    ctx: &Ctx,
    setup: &[f64],
    with_cells: bool,
    mut pass: impl FnMut(bool) -> Result<Pass, String>,
) -> Result<(Outcome, Traced), String> {
    let mut out = Outcome::default();
    if !ctx.traced {
        let passes = timed_passes(ctx, || pass(false))?;
        out.digests = passes[0].digests();
        let reference = out.digests.clone();
        check_passes(&mut out, &reference, &passes, "untraced");
        out.values = pass_metrics(setup, &passes);
        return Ok((out, Traced::default()));
    }
    let t = alternate(ctx, with_cells, pass)?;
    out.digests = t.plain[0].digests();
    let reference = out.digests.clone();
    check_passes(&mut out, &reference, &t.plain, "untraced");
    check_passes(&mut out, &reference, &t.traced, "traced");
    Ok((out, t))
}

/// Counts every cell as attempted, failed cells as failed, and any cell
/// whose digest differs from the same cell of `reference` as failed.
pub fn check_passes(out: &mut Outcome, reference: &[CellDigest], passes: &[Pass], what: &str) {
    for (i, p) in passes.iter().enumerate() {
        out.attempted += p.cells.len() as u64;
        for c in &p.cells {
            match c.digest {
                None => out.fail(format!("{what} pass {i}: cell {} failed", c.label)),
                Some(d) => {
                    if !reference.iter().any(|(l, r)| *l == c.label && *r == d) {
                        out.fail(format!("{what} pass {i}: cell {} differs", c.label));
                    }
                }
            }
        }
    }
}

/// `VmHWM` in MB.
pub fn peak_rss_mb() -> f64 {
    dtb_bench::peak_rss_bytes().unwrap_or(0) as f64 / 1e6
}

/// The end-to-end metrics of a pass-shaped workload.
pub fn pass_metrics(setup: &[f64], passes: &[Pass]) -> Values {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cells: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cells.iter().map(|c| c.ms))
        .collect();
    let events: u64 = passes.iter().map(Pass::events).sum();
    let mut v = Values::new();
    v.insert("setup_s", median(setup));
    v.insert("result_s", median(&walls));
    v.insert(
        "mevents_per_s",
        events as f64 / walls.iter().sum::<f64>().max(1e-9) / 1e6,
    );
    v.insert("cell_ms_p50", percentile(&cells, 50.0));
    v.insert("cell_ms_p75", percentile(&cells, 75.0));
    v.insert("peak_rss_mb", peak_rss_mb());
    v
}

/// Per-layer totals of the engine's layers, averaged per pass, from
/// the collector cells of `passes` (which went through the layer timers).
pub fn engine_layers(v: &mut Values, passes: &[Pass]) {
    let n = passes.len().max(1) as f64;
    let mut engine = LayerTimes::default();
    let mut cell_ms = 0.0;
    let mut cells = 0usize;
    for c in passes.iter().flat_map(|p| &p.cells).filter(|c| !c.baseline) {
        engine.add(&c.layers);
        cell_ms += c.ms;
        cells += 1;
    }
    let s = |ns: u64| ns as f64 / 1e9 / n;
    let cell_s = cell_ms / 1e3 / n;
    v.insert("trace.decode_s", s(engine.decode_ns));
    v.insert(
        "trace.decode_ns_per_event",
        engine.decode_ns as f64 / engine.decoded.max(1) as f64,
    );
    v.insert("heap.insert_s", s(engine.insert_ns));
    v.insert("heap.survival_view_s", s(engine.survival_view_ns));
    v.insert("heap.survival_query_s", s(engine.survival_query_ns));
    v.insert("heap.scavenge_s", s(engine.scavenge_ns));
    v.insert(
        "heap.ns_per_scavenge",
        engine.scavenge_ns as f64 / engine.scavenges.max(1) as f64,
    );
    v.insert("heap.scavenges", engine.scavenges as f64 / n);
    v.insert(
        "policy.select_s",
        s(engine.select_ns.saturating_sub(engine.survival_query_ns)),
    );
    v.insert("policy.calls", engine.selects as f64 / n);
    v.insert("engine.cell_s", cell_s);
    v.insert("engine.self_s", cell_s - s(engine.children_ns()));
    v.insert("engine.cells", cells as f64 / n);
}

/// Runs one policy cell over `source`, through the layer timers when
/// `traced`.
pub fn policy_cell(
    label: String,
    source: &mut dyn EventSource,
    kind: PolicyKind,
    traced: bool,
) -> CellRecord {
    let (pcfg, sim) = (PolicyConfig::paper(), SimConfig::paper());
    let events = source.len_hint().unwrap_or(0) as u64;
    layers::take();
    let t = Instant::now();
    let run: Result<_, SimError> = if traced {
        Sim::new(sim).heap::<TimedHeap>().run(
            &mut TimedSource(source),
            &mut TimedPolicy(kind.build(&pcfg)),
        )
    } else {
        Sim::new(sim).run(source, &mut kind.build(&pcfg))
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let report = run.as_ref().map(|r| &r.report).map_err(|e| e.to_string());
    let mut cell = CellRecord::new(label, t, ms, report);
    cell.events = events;
    cell.layers = layers::take();
    cell
}

/// The side measurements of a traced run, over one cell (DTBFM on a
/// fresh source from `make`): the serial engine's time over the time of
/// the intra-cell parallel engine with two threads (`engine.par2_speedup`)
/// and the time with an in-memory `CaptureSink` on the telemetry bus over
/// the time with none (`obs.capture_slowdown`). The three runs alternate
/// three times and each ratio uses the fastest of each, so a drift in
/// the machine's speed does not pass for a difference.
pub fn side_ratios<'a>(
    make: &dyn Fn() -> Result<Box<dyn EventSource + 'a>, String>,
) -> Result<(f64, f64), String> {
    let (pcfg, sim) = (PolicyConfig::paper(), SimConfig::paper());
    let time = |threads: usize| -> Result<f64, String> {
        let mut source = make()?;
        let t = Instant::now();
        Sim::new(sim)
            .threads(threads)
            .run(&mut *source, &mut PolicyKind::DtbFm.build(&pcfg))
            .map_err(|e| e.to_string())?;
        Ok(t.elapsed().as_secs_f64())
    };
    let (mut serial, mut parallel, mut captured) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..3 {
        serial = serial.min(time(1)?);
        parallel = parallel.min(time(WORKERS)?);
        let sink = std::sync::Arc::new(dtb_obs::CaptureSink::default());
        let guard = dtb_obs::install(sink.clone());
        captured = captured.min(time(1)?);
        drop(guard);
        sink.take();
    }
    Ok((serial / parallel, captured / serial))
}

/// The per-layer metrics every pass-shaped workload shares: set-up's
/// trace layer (`split`: generate and encode seconds per repetition),
/// the engine's layers from `layer_passes`, the dispatching loop, the
/// side measurements and the tracing overhead.
pub fn pass_layers<'a>(
    v: &mut Values,
    split: &(Vec<f64>, Vec<f64>),
    layer_passes: &[Pass],
    t: &Traced,
    workers: usize,
    make: &dyn Fn() -> Result<Box<dyn EventSource + 'a>, String>,
) -> Result<(), String> {
    v.insert("trace.generate_s", median(&split.0));
    v.insert("trace.encode_s", median(&split.1));
    engine_layers(v, layer_passes);
    let baseline: Vec<f64> = t.traced.iter().map(Pass::baseline_s).collect();
    v.insert("baseline.s", mean(&baseline));
    dispatch(v, &t.traced, workers);
    v.insert("obs.events", t.events as f64 / t.traced.len().max(1) as f64);
    let (par2, capture) = side_ratios(make)?;
    v.insert("engine.par2_speedup", par2);
    v.insert("obs.capture_slowdown", capture);
    let overhead = overhead_pct(median_wall(&t.plain), median_wall(&t.traced));
    v.insert("trace_overhead_pct", overhead);
    Ok(())
}

/// Installs a counting sink on the telemetry bus for a traced loop, so
/// every instrumented layer emits; returns the guard and a counter of
/// delivered events.
pub fn counting_sink() -> (
    dtb_obs::SinkGuard,
    std::sync::Arc<std::sync::atomic::AtomicU64>,
) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let count = std::sync::Arc::new(AtomicU64::new(0));
    let c = count.clone();
    let guard = dtb_obs::install(std::sync::Arc::new(dtb_obs::FnSink(
        move |_: &dtb_obs::Envelope| {
            c.fetch_add(1, Ordering::Relaxed);
        },
    )));
    (guard, count)
}

/// Records a pass span and, when `with_cells`, a child span per cell.
pub fn record_pass(
    spans: &Spans,
    name: &'static str,
    start: Instant,
    pass: &Pass,
    with_cells: bool,
) {
    let secs = |s: f64| std::time::Duration::from_secs_f64(s);
    let parent = spans.record(
        name,
        "",
        start,
        start + secs(pass.wall_s),
        SpanAt::default(),
    );
    if !with_cells {
        return;
    }
    for c in &pass.cells {
        spans.record(
            if c.baseline {
                "baseline"
            } else {
                "engine.cell"
            },
            c.label.clone(),
            c.start,
            c.start + secs(c.ms / 1e3),
            SpanAt {
                parent,
                ..SpanAt::default()
            },
        );
    }
}

/// The percent by which the traced loop's result time exceeds the
/// untraced loop's.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    (traced / untraced.max(1e-12) - 1.0) * 100.0
}

/// Median pass wall time.
pub fn median_wall(passes: &[Pass]) -> f64 {
    median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>())
}

/// Mean of per-pass busy seconds and idle seconds (`workers` × wall −
/// busy) of the dispatching layer.
pub fn dispatch(v: &mut Values, passes: &[Pass], workers: usize) {
    let busy: Vec<f64> = passes.iter().map(Pass::busy_s).collect();
    let idle: Vec<f64> = passes
        .iter()
        .map(|p| workers as f64 * p.wall_s - p.busy_s())
        .collect();
    v.insert("dispatch.busy_s", mean(&busy));
    v.insert("dispatch.idle_s", mean(&idle));
}
