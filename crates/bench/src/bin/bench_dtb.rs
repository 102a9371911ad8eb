//! `bench_dtb`: the end-to-end simulator performance harness.
//!
//! Generates a paper-scale synthetic trace (heavy short-lived churn, a
//! medium-lived band, an immortal ramp and a permanent startup structure
//! — the mixture that keeps a large live set resident), then runs the
//! **six-policy matrix** through the engine up to four times:
//!
//! 1. on the incremental `OracleHeap` with the block-structured drive
//!    loop (the headline configuration);
//! 2. with `block_events(1)` — the per-event reference path — which must
//!    be report-identical to (1); the timing ratio is `block_speedup`
//!    (schema v5);
//! 3. streaming the same records back from an on-disk `DTBCTC01` shard
//!    store through `simulate_source` — must be report-identical to (1),
//!    and its events/second is the streaming-path column;
//! 4. on the scan-based `NaiveHeap` baseline (the pre-incremental
//!    implementation) unless `--skip-naive`.
//!
//! All passes must produce identical reports — the harness doubles as a
//! differential check at scale — and the naive/incremental timing ratio
//! is the headline speedup.
//!
//! Results are written as JSON (see `BENCH_dtb.json` at the repo root):
//! events/second and ns/scavenge per policy per engine, peak RSS, and the
//! overall speedup. `streaming_peak_rss_delta_bytes` records how much the
//! `VmHWM` high-water rose *during* the streaming pass — near zero by
//! design, since the streaming engine holds only live objects while the
//! in-memory pass already parked the whole trace in RAM (the absolute
//! bound is asserted by the dedicated `stream_smoke` binary, which never
//! materializes a trace). With `--baseline <file>`, the run fails
//! (exit 1) if incremental — or, when both sides recorded it, streaming
//! — events/second drops below 70% of the recorded baseline — the CI
//! `bench-smoke` job's regression gate.
//!
//! ```text
//! bench_dtb [--events N] [--out PATH] [--baseline PATH] [--skip-naive]
//!           [--events-out PATH]
//! ```
//!
//! `--events-out PATH` captures the run's telemetry stream (scavenge
//! spans, run summaries) to a file — `--events` being taken for the
//! trace event count. Capture perturbs the timings, so the regression
//! gate and the capture flag should not be combined.
//!
//! Schema v6 is v5 without the intra-cell parallel pass and its fields.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dtb_bench::peak_rss_bytes;
use dtb_core::policy::{PolicyConfig, PolicyKind};
use dtb_sim::engine::{simulate, simulate_source, Sim, SimConfig};
use dtb_sim::{NaiveHeap, SimReport};
use dtb_trace::event::CompiledTrace;
use dtb_trace::lifetime::{LifetimeDist, SizeDist};
use dtb_trace::synth::{ClassSpec, WorkloadSpec};
use dtb_trace::{ctc, ShardReader};
use serde::{Deserialize, Serialize};

/// Records per shard for the streaming pass's temporary store.
const STORE_STRIDE: u64 = 65_536;

/// Timing for one (policy × engine) cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PolicyTiming {
    policy: String,
    seconds: f64,
    scavenges: usize,
    events_per_sec: f64,
    ns_per_scavenge: f64,
}

/// One engine's pass over the whole policy matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct EngineTiming {
    heap: String,
    total_seconds: f64,
    events_per_sec: f64,
    policies: Vec<PolicyTiming>,
}

/// The harness output schema (`BENCH_dtb.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct BenchReport {
    schema: String,
    events: usize,
    total_alloc_bytes: u64,
    trace: String,
    incremental: EngineTiming,
    /// The incremental matrix re-run with `block_events(1)` — every event
    /// routed through the exact per-event engine body. The block-path
    /// reference column: reports must be bit-identical to `incremental`,
    /// and the timing ratio is `block_speedup` (absent in pre-v5
    /// reports).
    per_event: Option<EngineTiming>,
    /// per-event total seconds / incremental (blocked) total seconds —
    /// what the chunked drive loop buys end to end (absent in pre-v5
    /// reports).
    block_speedup: Option<f64>,
    /// The same matrix replayed from an on-disk `DTBCTC01` shard store
    /// (absent in pre-v2 reports; the vendored deserializer maps a
    /// missing field to `None`).
    streaming: Option<EngineTiming>,
    naive: Option<EngineTiming>,
    /// naive total seconds / incremental total seconds.
    speedup: Option<f64>,
    peak_rss_bytes: Option<u64>,
    /// How much `VmHWM` rose during the streaming pass. Near zero by
    /// design: the in-memory pass already set the high-water mark, and
    /// streaming replay stays under it (absent in pre-v2 reports).
    streaming_peak_rss_delta_bytes: Option<u64>,
}

/// The synthetic benchmark workload, scaled so the steady-state mixture
/// allocates roughly `events` objects (~1 KB mean object) and a 1 MB
/// trigger fires about once per thousand events. The mixture keeps a
/// large long-lived resident set, which is exactly what makes the
/// scan-based heap's O(heap) scavenges expensive.
fn workload(events: usize) -> WorkloadSpec {
    // ~1160 bytes of allocation per object across the mixture (steady
    // state averages ~1 KB objects; the permanent startup ramp uses 8 KB
    // ones), so `events` requested ≈ objects compiled, and the 1 MB
    // trigger fires a little more than once per thousand events.
    let total_alloc = (events as u64).max(1_000) * 1_160;
    WorkloadSpec {
        name: format!("BENCHSYN({}k)", events / 1_000),
        description: "perf-harness mixture: churn + medium band + immortal ramp".into(),
        exec_seconds: 10.0,
        total_alloc,
        initial_permanent: total_alloc / 10,
        initial_object_size: 8_192,
        classes: vec![
            ClassSpec::new(
                "short",
                0.55,
                SizeDist::Uniform { min: 64, max: 2048 },
                LifetimeDist::Exponential { mean: 200_000.0 },
            ),
            ClassSpec::new(
                "medium",
                0.25,
                SizeDist::Uniform { min: 64, max: 2048 },
                LifetimeDist::Exponential { mean: 3_000_000.0 },
            ),
            ClassSpec::new(
                "immortal-ramp",
                0.20,
                SizeDist::Uniform { min: 64, max: 2048 },
                LifetimeDist::Immortal,
            ),
        ],
        phase_period: None,
        seed: 0xD7B_BE1C,
    }
}

/// Runs the six-policy matrix through one engine configuration, timing
/// each policy's full simulation. `simulate_one` owns the choice of heap
/// and event source (in-memory slice or a fresh on-disk cursor per
/// policy).
fn run_matrix(
    label: &str,
    events: usize,
    mut simulate_one: impl FnMut(PolicyKind) -> Result<dtb_sim::SimRun, String>,
) -> Result<(EngineTiming, Vec<SimReport>), String> {
    let mut policies = Vec::new();
    let mut reports = Vec::new();
    let mut total = 0.0f64;
    for kind in PolicyKind::ALL {
        let start = Instant::now();
        let run = simulate_one(kind).map_err(|e| format!("{label}/{kind}: {e}"))?;
        let seconds = start.elapsed().as_secs_f64();
        total += seconds;
        let scavenges = run.report.collections;
        eprintln!(
            "[{label}] {:<7} {seconds:>8.3}s  {scavenges:>5} scavenges",
            kind.label()
        );
        let timing = PolicyTiming {
            policy: kind.label().to_string(),
            seconds,
            scavenges,
            events_per_sec: events as f64 / seconds.max(1e-9),
            ns_per_scavenge: seconds * 1e9 / (scavenges.max(1) as f64),
        };
        policies.push(timing);
        reports.push(run.report);
    }
    Ok((
        EngineTiming {
            heap: label.to_string(),
            total_seconds: total,
            events_per_sec: (events * PolicyKind::ALL.len()) as f64 / total.max(1e-9),
            policies,
        },
        reports,
    ))
}

/// Shards the benchmark trace into a temporary `DTBCTC01` store and
/// replays the whole matrix from it, opening a fresh [`ShardReader`]
/// cursor per policy (sources are consumed by reading).
fn run_matrix_streaming(
    trace: &CompiledTrace,
    policy_cfg: &PolicyConfig,
    sim_cfg: &SimConfig,
) -> Result<(EngineTiming, Vec<SimReport>), String> {
    let dir = std::env::temp_dir().join(format!("dtb-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ctc::write_shards(&dir, trace, STORE_STRIDE)
        .map_err(|e| format!("writing shard store: {e}"))?;
    let result = run_matrix("streaming", trace.len(), |kind| {
        let mut policy = kind.build(policy_cfg);
        let mut reader =
            ShardReader::open(&dir).map_err(|e| format!("opening shard store: {e}"))?;
        simulate_source(&mut reader, &mut policy, sim_cfg).map_err(|e| e.to_string())
    });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

struct Args {
    events: usize,
    out: String,
    baseline: Option<String>,
    skip_naive: bool,
    /// Capture the observability event stream to this file (`--events`
    /// is taken: it is the trace event *count*).
    events_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        events: 1_000_000,
        out: "BENCH_dtb.json".to_string(),
        baseline: None,
        skip_naive: false,
        events_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--events" => {
                let v = it.next().ok_or("--events needs a value")?;
                args.events = v.parse().map_err(|_| format!("bad --events: {v}"))?;
            }
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--baseline" => args.baseline = Some(it.next().ok_or("--baseline needs a value")?),
            "--skip-naive" => args.skip_naive = true,
            "--events-out" => {
                args.events_out = Some(PathBuf::from(
                    it.next().ok_or("--events-out needs a value")?,
                ));
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_dtb: {e}");
            eprintln!(
                "usage: bench_dtb [--events N] [--out PATH] [--baseline PATH] [--skip-naive] \
                 [--events-out PATH]"
            );
            return ExitCode::FAILURE;
        }
    };

    // `--events-out` opts the whole run into telemetry capture. Without
    // it no sink is installed and the instrumented hot paths stay a
    // single disabled-flag load — the throughput floors measure that.
    let _capture = args
        .events_out
        .as_deref()
        .map(|path| match dtb_obs::FileSink::create(path) {
            Ok(sink) => dtb_obs::install(std::sync::Arc::new(sink)),
            Err(e) => {
                eprintln!(
                    "bench_dtb: cannot capture events to {}: {e}",
                    path.display()
                );
                std::process::exit(1);
            }
        });

    let spec = workload(args.events);
    eprintln!(
        "generating {} (~{} events, {} MB total allocation)…",
        spec.name,
        args.events,
        spec.total_alloc / 1_000_000
    );
    let trace = match spec.compile() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_dtb: trace generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "compiled: {} objects, end clock {:?}",
        trace.len(),
        trace.end
    );

    let policy_cfg = PolicyConfig::paper();
    let sim_cfg = SimConfig::paper().with_invariant_checks(false);

    let (incremental, fast_reports) = match run_matrix("incremental", trace.len(), |kind| {
        let mut policy = kind.build(&policy_cfg);
        simulate(&trace, &mut policy, &sim_cfg).map_err(|e| e.to_string())
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_dtb: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Per-event reference pass: the same matrix with the block path
    // disabled (`block_events(1)` routes every event through the exact
    // per-event body). Reports must be bit-identical to the blocked
    // incremental pass — the block drive loop's determinism contract at
    // benchmark scale — and the timing ratio is the block speedup.
    let (per_event, ref_reports) = match run_matrix("per-event", trace.len(), |kind| {
        let mut policy = kind.build(&policy_cfg);
        Sim::new(sim_cfg)
            .block_events(1)
            .run_trace(&trace, &mut policy)
            .map_err(|e| e.to_string())
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_dtb: {e}");
            return ExitCode::FAILURE;
        }
    };
    if fast_reports != ref_reports {
        eprintln!("bench_dtb: blocked and per-event runs diverged — refusing to report");
        return ExitCode::FAILURE;
    }
    let block_speedup = per_event.total_seconds / incremental.total_seconds.max(1e-9);

    // Streaming pass: same matrix, records read back from an on-disk
    // shard store. VmHWM is already pinned at the in-memory pass's peak,
    // so the delta directly measures whether streaming replay ever
    // exceeded it (it must not — the engine holds only the live set).
    let rss_before_streaming = peak_rss_bytes();
    let (streaming, stream_reports) = match run_matrix_streaming(&trace, &policy_cfg, &sim_cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_dtb: {e}");
            return ExitCode::FAILURE;
        }
    };
    let streaming_peak_rss_delta_bytes = peak_rss_bytes()
        .zip(rss_before_streaming)
        .map(|(after, before)| after.saturating_sub(before));
    if fast_reports != stream_reports {
        eprintln!("bench_dtb: incremental and streaming runs diverged — refusing to report");
        return ExitCode::FAILURE;
    }

    let mut naive = None;
    let mut speedup = None;
    if !args.skip_naive {
        let (timing, slow_reports) = match run_matrix("naive", trace.len(), |kind| {
            let mut policy = kind.build(&policy_cfg);
            Sim::new(sim_cfg)
                .heap::<NaiveHeap>()
                .run_trace(&trace, &mut policy)
                .map_err(|e| e.to_string())
        }) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench_dtb: {e}");
                return ExitCode::FAILURE;
            }
        };
        // The harness doubles as a differential check at benchmark scale.
        if fast_reports != slow_reports {
            eprintln!("bench_dtb: incremental and naive heap runs diverged — refusing to report");
            return ExitCode::FAILURE;
        }
        speedup = Some(timing.total_seconds / incremental.total_seconds.max(1e-9));
        naive = Some(timing);
    }

    let report = BenchReport {
        schema: "bench_dtb/v6".to_string(),
        events: trace.len(),
        total_alloc_bytes: spec.total_alloc,
        trace: spec.name.clone(),
        incremental,
        per_event: Some(per_event),
        block_speedup: Some(block_speedup),
        streaming: Some(streaming),
        naive,
        speedup,
        peak_rss_bytes: peak_rss_bytes(),
        streaming_peak_rss_delta_bytes,
    };

    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("bench_dtb: serialization failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&args.out, json + "\n") {
        eprintln!("bench_dtb: writing {} failed: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!(
        "incremental: {:.0} events/s ({:.2}× over per-event), streaming: {:.0} events/s{}  → {}",
        report.incremental.events_per_sec,
        report.block_speedup.unwrap_or(0.0),
        report
            .streaming
            .as_ref()
            .map(|s| s.events_per_sec)
            .unwrap_or(0.0),
        report
            .speedup
            .map(|s| format!(", {s:.1}× over naive"))
            .unwrap_or_default(),
        args.out
    );

    // Regression gate: fail when incremental — or streaming, once the
    // baseline records it — throughput drops more than 30% below the
    // recorded baseline.
    if let Some(path) = &args.baseline {
        let baseline: BenchReport = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench_dtb: reading baseline {path} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut gates = vec![(
            "incremental",
            report.incremental.events_per_sec,
            baseline.incremental.events_per_sec,
        )];
        if let (Some(ours), Some(theirs)) = (&report.streaming, &baseline.streaming) {
            gates.push(("streaming", ours.events_per_sec, theirs.events_per_sec));
        }
        for (label, measured, recorded) in gates {
            if measured < recorded * 0.7 {
                eprintln!(
                    "bench_dtb: REGRESSION — {label} {measured:.0} events/s is below 70% of \
                     baseline {recorded:.0}"
                );
                return ExitCode::FAILURE;
            }
            eprintln!("baseline gate ok: {label} {measured:.0} events/s ≥ 70% of {recorded:.0}");
        }
    }
    ExitCode::SUCCESS
}
