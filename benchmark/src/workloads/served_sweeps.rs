//! `served-sweeps`: the `repro_* --submit` path. An in-process
//! coordinator (journal and results store on disk, so fsync is real)
//! serves two worker threads that loop `Client::lease` →
//! `worker::run_cell` → `Client::complete` over one shared warm
//! `TraceCache`. A load thread runs a closed loop for two tenants, each
//! with one outstanding one-program sweep (eight cells), learns of each
//! drain by following the coordinator's event log, fetches the finished
//! sweep with `Client::sweep` and submits that tenant's next one.
//! Programs come in seeded shuffles of all presets (a *cycle*), and the
//! timed section ends on a whole cycle, so every run sees the same mix.

use super::paper_matrix::{compile, probe, probe_source, programs};
use super::{
    check_passes, counting_sink, engine_layers, overhead_pct, peak_rss_mb, record_pass, reseed,
    side_ratios, Ctx, Outcome, SETUP_REPS, WORKERS,
};
use crate::digest::{digest, CellDigest};
use crate::layers::{SpanAt, Spans};
use crate::metrics::{mean, median, percentile, Values};
use dtb_core::policy::{PolicyKind, Row};
use dtb_sim::exec::{Evaluation, TraceCache};
use dtb_svc::proto::{CompleteRequest, CompleteStatus, SweepSpec};
use dtb_svc::{idle_backoff, Client, Coordinator, CoordinatorConfig, SplitMix64};
use dtb_trace::programs::Program;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tenants in the closed loop, each with one sweep outstanding.
const TENANTS: usize = 2;

/// How long idle workers are told to wait before leasing again.
const IDLE_RETRY: Duration = Duration::from_millis(5);

/// Untraced and traced loops a traced run alternates, each.
const TRACED_ROUNDS: usize = 2;

/// A loop that sees no sweep drain for this long has hung.
const STALL: Duration = Duration::from_secs(60);

fn start_coordinator(dir: &Path) -> Result<Coordinator, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let config = CoordinatorConfig {
        journal_dir: Some(dir.join("journal")),
        results_path: Some(dir.join("results.dtbres")),
        idle_retry: IDLE_RETRY,
        ..CoordinatorConfig::default()
    };
    Coordinator::bind("127.0.0.1:0", config).map_err(|e| format!("coordinator: {e}"))
}

/// One cell as a worker handled it.
struct ServedCell {
    baseline: bool,
    lease_ms: f64,
    run_ms: f64,
    complete_ms: f64,
    /// Submit → lease reply.
    queue_wait_ms: f64,
    /// Submit → `Recorded` reply.
    latency_ms: f64,
    complete_bytes: usize,
}

#[derive(Default)]
struct WorkerLog {
    cells: Vec<ServedCell>,
    empty_leases: u64,
    rpcs: u64,
    busy_s: f64,
    problems: Vec<String>,
}

/// State the load thread shares with the workers.
struct Shared<'a> {
    addr: String,
    stop: AtomicBool,
    submitted: Mutex<HashMap<u64, Instant>>,
    traced: bool,
    spans: &'a Spans,
}

impl Shared<'_> {
    fn submitted_at(&self, sweep: u64) -> Option<Instant> {
        let map = self.submitted.lock().expect("submit map lock poisoned");
        map.get(&sweep).copied()
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn worker(name: &str, shared: &Shared) -> WorkerLog {
    let mut client = Client::connect(shared.addr.clone());
    let cache = TraceCache::new();
    let mut log = WorkerLog::default();
    let mut streak = 0;
    while !shared.stop.load(Ordering::SeqCst) {
        let t0 = Instant::now();
        log.rpcs += 1;
        let reply = match client.lease(name) {
            Ok(reply) => reply,
            Err(e) => {
                log.problems.push(format!("{name}: lease: {e}"));
                break;
            }
        };
        let t1 = Instant::now();
        let Some(task) = reply.task else {
            log.empty_leases += 1;
            std::thread::sleep(idle_backoff(name, reply.retry_ms, streak));
            streak += 1;
            continue;
        };
        streak = 0;
        let run = dtb_svc::worker::run_cell(&cache, &task, 1);
        let t2 = Instant::now();
        if let Some(failure) = &run.failure {
            log.problems.push(format!(
                "{name}: sweep {} cell {}: {failure}",
                task.sweep, task.cell
            ));
        }
        let req = CompleteRequest {
            sweep: task.sweep,
            cell: task.cell,
            lease: task.lease,
            worker: name.to_string(),
            run: run.run,
            failure: run.failure,
            transient: run.transient,
            elapsed_ns: run.elapsed_ns,
        };
        let complete_bytes = if shared.traced {
            dtb_svc::proto::encode(&req).len()
        } else {
            0
        };
        let t3 = Instant::now();
        log.rpcs += 1;
        let reply = client.complete(&req);
        let t4 = Instant::now();
        match reply {
            Ok(r) if r.status == CompleteStatus::Recorded => {}
            Ok(r) => log.problems.push(format!(
                "{name}: sweep {} cell {}: completion {:?}",
                task.sweep, task.cell, r.status
            )),
            Err(e) => log.problems.push(format!("{name}: complete: {e}")),
        }
        log.busy_s += (t4 - t0).as_secs_f64();
        let submitted = shared.submitted_at(task.sweep).unwrap_or(t0);
        log.cells.push(ServedCell {
            baseline: !matches!(task.row, Row::Policy(_)),
            lease_ms: ms(t0, t1),
            run_ms: run.elapsed_ns as f64 / 1e6,
            complete_ms: ms(t3, t4),
            queue_wait_ms: ms(submitted, t1),
            latency_ms: ms(submitted, t4),
            complete_bytes,
        });
        if shared.traced {
            let at = SpanAt {
                parent: None,
                sweep: task.sweep,
                cell: task.cell,
            };
            let label = format!("{}/{}", task.program, task.row);
            shared
                .spans
                .record("svc.lease", name.to_string(), t0, t1, at);
            shared.spans.record("worker.run_cell", label, t1, t2, at);
            shared
                .spans
                .record("svc.complete", name.to_string(), t3, t4, at);
        }
    }
    log
}

/// A seeded endless sequence of cycles, each a shuffle of `programs`.
struct Order {
    rng: SplitMix64,
    programs: Vec<Program>,
    cycle: Vec<Program>,
}

impl Order {
    fn new(programs: &[Program], seed: u64) -> Order {
        Order {
            rng: SplitMix64::new(reseed(0x5E7E_D5EE, seed)),
            programs: programs.to_vec(),
            cycle: Vec::new(),
        }
    }

    fn next(&mut self) -> Program {
        if self.cycle.is_empty() {
            self.cycle = self.programs.clone();
            for i in (1..self.cycle.len()).rev() {
                let j = self.rng.range(0, i as u64) as usize;
                self.cycle.swap(i, j);
            }
        }
        self.cycle.pop().expect("cycle refilled above")
    }
}

/// What the load thread and the workers saw, over one or more loops.
#[derive(Default)]
struct LoadLog {
    workers: Vec<WorkerLog>,
    /// Submit → `sweep_drained`, seconds, per sweep.
    latencies: Vec<f64>,
    submit_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    /// Per drained sweep: its program and its cells' digests.
    sweeps: Vec<(Program, Vec<Option<CellDigest>>)>,
    rpcs: u64,
    /// First submit → last drain.
    window_s: f64,
    problems: Vec<String>,
}

impl LoadLog {
    fn absorb(&mut self, load: LoadLog, workers: Vec<WorkerLog>) {
        self.latencies.extend(load.latencies);
        self.submit_ms.extend(load.submit_ms);
        self.fetch_ms.extend(load.fetch_ms);
        self.sweeps.extend(load.sweeps);
        self.rpcs += load.rpcs;
        self.window_s += load.window_s;
        self.problems.extend(load.problems);
        self.workers.extend(workers);
    }

    fn cells(&self) -> impl Iterator<Item = &ServedCell> {
        self.workers.iter().flat_map(|w| &w.cells)
    }
}

/// The sweep id of a `sweep_drained` event line.
fn drained_sweep(line: &str) -> Option<u64> {
    let rest = line.split_once("\"type\":\"sweep_drained\",\"sweep\":")?.1;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

struct Load<'a> {
    client: Client,
    shared: &'a Shared<'a>,
    order: &'a mut Order,
    outstanding: HashMap<u64, (usize, Program, Instant)>,
    submitted: usize,
    log: LoadLog,
}

impl Load<'_> {
    fn submit(&mut self, tenant: usize) -> Result<(), String> {
        let program = self.order.next();
        let spec = SweepSpec {
            programs: vec![program],
            ..SweepSpec::paper(format!("tenant-{tenant}"))
        };
        let t = Instant::now();
        self.log.rpcs += 1;
        let reply = self
            .client
            .submit(&spec)
            .map_err(|e| format!("submit: {e}"))?;
        self.log.submit_ms.push(ms(t, Instant::now()));
        let mut map = self
            .shared
            .submitted
            .lock()
            .expect("submit map lock poisoned");
        map.insert(reply.sweep, t);
        self.outstanding.insert(reply.sweep, (tenant, program, t));
        self.submitted += 1;
        Ok(())
    }

    fn drained(&mut self, sweep: u64, tenant: usize, program: Program, at: Instant) {
        let now = Instant::now();
        self.log.latencies.push((now - at).as_secs_f64());
        self.log.rpcs += 1;
        match self.client.sweep(sweep) {
            Ok(reply) => {
                self.log.fetch_ms.push(ms(now, Instant::now()));
                let cells = reply
                    .cells
                    .iter()
                    .map(|c| {
                        let run = c.run.as_ref()?;
                        Some((format!("{}/{}", c.column, c.row), digest(&run.report)))
                    })
                    .collect();
                self.log.sweeps.push((program, cells));
            }
            Err(e) => self.log.problems.push(format!("sweep {sweep}: fetch: {e}")),
        }
        if self.shared.traced {
            let at_span = SpanAt {
                parent: None,
                sweep,
                cell: 0,
            };
            let label = format!("tenant-{tenant}/{program}");
            self.shared
                .spans
                .record("svc.sweep", label, at, now, at_span);
        }
    }
}

/// Runs the closed loop until `budget` seconds have passed and the last
/// cycle is complete, then lets the outstanding sweeps drain.
fn serve(
    coord: &Coordinator,
    shared: &Shared,
    order: &mut Order,
    cycle: usize,
    budget: f64,
) -> (LoadLog, Vec<WorkerLog>) {
    let events = coord.events();
    let mut cursor = events.next_seq();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|i| s.spawn(move || worker(&format!("worker-{i}"), shared)))
            .collect();
        let mut load = Load {
            client: Client::connect(shared.addr.clone()),
            shared,
            order,
            outstanding: HashMap::new(),
            submitted: 0,
            log: LoadLog::default(),
        };
        let start = Instant::now();
        let mut last_drain = start;
        let mut result = (0..TENANTS).try_for_each(|t| load.submit(t));
        while result.is_ok() && !load.outstanding.is_empty() {
            let batch = events.read_from(cursor, Duration::from_millis(100));
            cursor = batch.next;
            for sweep in batch.lines.iter().filter_map(|l| drained_sweep(l)) {
                let Some((tenant, program, at)) = load.outstanding.remove(&sweep) else {
                    continue;
                };
                load.drained(sweep, tenant, program, at);
                last_drain = Instant::now();
                if start.elapsed().as_secs_f64() < budget || !load.submitted.is_multiple_of(cycle) {
                    result = load.submit(tenant);
                }
            }
            if last_drain.elapsed() > STALL {
                result = Err(format!("no sweep drained for {STALL:?}"));
            }
        }
        shared.stop.store(true, Ordering::SeqCst);
        if let Err(e) = result {
            load.log.problems.push(e);
        }
        load.log.window_s = (last_drain - start).as_secs_f64();
        let logs = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .collect();
        (load.log, logs)
    })
}

/// Cells per sweep: the six collectors and the two baseline rows.
const CELLS_PER_SWEEP: usize = 8;

/// The end-to-end metrics of the closed loop. `result_s` is the mean
/// sweep latency, not the median: one-program sweeps differ in cost by
/// two orders of magnitude, so the median falls between two programs'
/// clusters and moves with the seeded order, while the mean (by Little's
/// law, the outstanding sweeps over the sweep rate) does not.
fn served_metrics(v: &mut Values, load: &LoadLog, setup: &[f64], rss: f64) {
    let events: u64 = load
        .sweeps
        .iter()
        .map(|(p, _)| p.compiled().len() as u64 * PolicyKind::ALL.len() as u64)
        .sum();
    let run: Vec<f64> = load.cells().map(|c| c.run_ms).collect();
    v.insert("setup_s", median(setup));
    v.insert("result_s", mean(&load.latencies));
    v.insert(
        "mevents_per_s",
        events as f64 / load.window_s.max(1e-9) / 1e6,
    );
    v.insert("cell_ms_p50", percentile(&run, 50.0));
    v.insert("cell_ms_p75", percentile(&run, 75.0));
    v.insert("peak_rss_mb", rss);
}

/// The service's own breakdown, written to the traced run's layer table.
fn service_detail(load: &LoadLog) -> Vec<(String, f64)> {
    let col = |f: fn(&ServedCell) -> f64| load.cells().map(f).collect::<Vec<_>>();
    let (lease, complete, wait, latency, run) = (
        col(|c| c.lease_ms),
        col(|c| c.complete_ms),
        col(|c| c.queue_wait_ms),
        col(|c| c.latency_ms),
        col(|c| c.run_ms),
    );
    let busy: f64 = load.workers.iter().map(|w| w.busy_s).sum();
    vec![
        ("svc.submit_ms_p50".into(), median(&load.submit_ms)),
        ("svc.lease_ms_p50".into(), median(&lease)),
        ("svc.lease_ms_p90".into(), percentile(&lease, 90.0)),
        ("svc.complete_ms_p50".into(), median(&complete)),
        ("svc.complete_ms_p90".into(), percentile(&complete, 90.0)),
        ("svc.sweep_fetch_ms_p50".into(), median(&load.fetch_ms)),
        (
            "svc.empty_leases".into(),
            load.workers.iter().map(|w| w.empty_leases).sum::<u64>() as f64,
        ),
        ("svc.queue_wait_ms_p50".into(), median(&wait)),
        ("svc.queue_wait_ms_p90".into(), percentile(&wait, 90.0)),
        ("svc.cell_latency_ms_p50".into(), median(&latency)),
        ("svc.cell_latency_ms_p90".into(), percentile(&latency, 90.0)),
        (
            "svc.complete_bytes_mean".into(),
            mean(&col(|c| c.complete_bytes as f64)),
        ),
        ("worker.run_cell_ms_p50".into(), median(&run)),
        ("worker.run_cell_ms_p90".into(), percentile(&run, 90.0)),
        (
            "worker.busy_frac".into(),
            busy / (WORKERS as f64 * load.window_s).max(1e-9),
        ),
        ("svc.sweeps".into(), load.sweeps.len() as f64),
    ]
}

/// Checks every served sweep against the in-process evaluation of the
/// same presets, and counts operations.
fn check(out: &mut Outcome, load: &LoadLog, reference: &[CellDigest]) {
    out.attempted += load.rpcs + load.workers.iter().map(|w| w.rpcs).sum::<u64>();
    let worker_problems = load.workers.iter().flat_map(|w| &w.problems);
    for problem in load.problems.iter().chain(worker_problems) {
        out.fail(problem.clone());
    }
    for (program, cells) in &load.sweeps {
        out.attempted += cells.len() as u64;
        if cells.len() != CELLS_PER_SWEEP {
            out.fail(format!("{program}: {} cells served", cells.len()));
        }
        for cell in cells {
            match cell {
                None => out.fail(format!("{program}: a cell failed")),
                Some(d) if !reference.contains(d) => {
                    out.fail(format!("{program}: cell {} differs from in-process", d.0))
                }
                Some(_) => {}
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let programs = programs(ctx.smoke);
    let mut setup = Vec::new();
    let mut split = (Vec::new(), Vec::new());
    let mut coord: Option<Coordinator> = None;
    for rep in 0..SETUP_REPS {
        if let Some(c) = coord.take() {
            c.shutdown();
        }
        let t = Instant::now();
        coord = Some(start_coordinator(&ctx.scratch.join(format!("svc{rep}")))?);
        if rep + 1 < SETUP_REPS {
            let built = compile(&programs, 0)?;
            split.0.push(built.generate_s);
            split.1.push(built.compile_s);
        } else {
            // The last repetition warms the process-wide preset cache the
            // workers' `TraceCache` reads.
            let cache = TraceCache::new();
            programs.iter().for_each(|&p| drop(cache.preset(p)));
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    let coord = coord.expect("set-up ran");
    let shared = |traced| Shared {
        addr: coord.addr().to_string(),
        stop: AtomicBool::new(false),
        submitted: Mutex::new(HashMap::new()),
        traced,
        spans: &ctx.spans,
    };
    let mut order = Order::new(&programs, ctx.seed);
    let cycle = programs.len();
    let mut serve_for = |traced: bool, budget: f64, into: &mut LoadLog| {
        let (load, workers) = serve(&coord, &shared(traced), &mut order, cycle, budget);
        into.absorb(load, workers);
    };

    // A traced run alternates untraced and traced rounds, so a drift in
    // the machine's speed touches both alike.
    let (mut plain, mut traced) = (LoadLog::default(), LoadLog::default());
    let mut events = 0;
    let mut rss = 0.0;
    if ctx.traced {
        for _ in 0..TRACED_ROUNDS {
            serve_for(false, ctx.seconds / (2 * TRACED_ROUNDS) as f64, &mut plain);
            let (sink, count) = counting_sink();
            serve_for(true, ctx.seconds / (2 * TRACED_ROUNDS) as f64, &mut traced);
            drop(sink);
            events += count.load(Ordering::Relaxed);
        }
    } else {
        serve_for(false, ctx.seconds, &mut plain);
        // Peak memory of the served loop, before the in-process reference
        // evaluation below adds its own.
        rss = peak_rss_mb();
    }
    coord.shutdown();

    // The reference: the same sweeps evaluated in process, after the
    // timed sections.
    let matrix = Evaluation::new()
        .parallelism(WORKERS)
        .programs(programs.iter().copied())
        .run();
    let reference: Vec<CellDigest> = matrix
        .cells()
        .filter_map(|(col, cell)| {
            let label = format!("{}/{}", col.name(), cell.row);
            Some((label, digest(cell.report()?)))
        })
        .collect();

    let mut out = Outcome::default();
    check(&mut out, &plain, &reference);
    for p in &programs {
        if let Some((_, cells)) = plain.sweeps.iter().find(|(q, _)| q == p) {
            out.digests.extend(cells.iter().flatten().cloned());
        }
    }
    if !ctx.traced {
        served_metrics(&mut out.values, &plain, &setup, rss);
        return Ok(out);
    }
    check(&mut out, &traced, &reference);

    let traces: Vec<_> = programs.iter().map(|p| p.compiled()).collect();
    let probe_start = Instant::now();
    let probe = probe(&traces);
    record_pass(&ctx.spans, "probe", probe_start, &probe, true);
    check_passes(&mut out, &reference, std::slice::from_ref(&probe), "probe");

    let cycles = (traced.sweeps.len() / cycle).max(1) as f64;
    let busy: f64 = traced.workers.iter().map(|w| w.busy_s).sum::<f64>() / cycles;
    let baseline_ms: f64 = traced
        .cells()
        .filter(|c| c.baseline)
        .map(|c| c.run_ms)
        .sum();
    out.detail = service_detail(&traced);
    let v = &mut out.values;
    v.insert("trace.generate_s", median(&split.0));
    v.insert("trace.encode_s", median(&split.1));
    engine_layers(v, std::slice::from_ref(&probe));
    v.insert("baseline.s", baseline_ms / 1e3 / cycles);
    v.insert("dispatch.busy_s", busy);
    v.insert(
        "dispatch.idle_s",
        WORKERS as f64 * traced.window_s / cycles - busy,
    );
    v.insert("obs.events", events as f64 / cycles);
    let (par2, capture) = side_ratios(&probe_source(&traces))?;
    v.insert("engine.par2_speedup", par2);
    v.insert("obs.capture_slowdown", capture);
    let overhead = overhead_pct(mean(&plain.latencies), mean(&traced.latencies));
    v.insert("trace_overhead_pct", overhead);
    Ok(out)
}
