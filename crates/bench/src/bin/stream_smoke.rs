//! `stream_smoke`: proves the streaming pipeline holds bounded memory.
//!
//! Two phases, one process, one `VmHWM` ceiling:
//!
//! 1. **Shard replay** — generates a synthetic event trace (default
//!    300 k events), writes it as a `.dtbtrc` file, runs the streaming
//!    two-pass converter to a `DTBCTC02` shard store, and replays the
//!    store through the engine (`FULL` and `DTBFM`) with fresh
//!    [`ShardReader`] cursors. The raw trace is dropped before replay, so
//!    replay itself runs record-at-a-time.
//! 2. **Unbounded generator** — replays a [`SynthSource`] whose total
//!    allocation (default 4 000 MB) is far more than 10× the largest
//!    in-memory preset (`GHOST(2)`, 104 MiB), with churn-only object
//!    classes so the live set stays small while the record stream is
//!    enormous. Nothing is ever materialized: if the engine or the
//!    oracle heap accumulated per-record state (at the default scale,
//!    roughly 90 MB of index for ~3.8 M objects), this phase would blow
//!    straight through the ceiling.
//!
//! The process then reads its own `VmHWM` high-water mark and **fails
//! (exit 1) if it exceeds `--max-rss-mb`** (default 96 MB — a healthy
//! run peaks near 22 MB). The ceiling is checked in as an explicit flag
//! in the CI `stream-smoke` job, so a regression that breaks the
//! O(live set) bound turns the build red.
//!
//! ```text
//! stream_smoke [--events N] [--synth-mb MB] [--max-rss-mb MB]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use dtb_bench::peak_rss_bytes;
use dtb_core::policy::{PolicyConfig, PolicyKind};
use dtb_sim::engine::{simulate_source, SimConfig};
use dtb_trace::ctc::convert_trace_file;
use dtb_trace::io::write_trace;
use dtb_trace::lifetime::{LifetimeDist, SizeDist};
use dtb_trace::synth::{ClassSpec, WorkloadSpec};
use dtb_trace::{EventSource, ShardReader, SynthSource};

/// Phase-1 policies: the cheapest boundary (everything threatened) and
/// the most complex one (pause-constrained DTB). The shard store has a
/// fixed size, so even a policy that accumulates tenured garbage stays
/// under the ceiling here.
const SHARD_POLICIES: [PolicyKind; 2] = [PolicyKind::Full, PolicyKind::DtbFm];

/// Phase-2 policies: the stream is arbitrarily long, so only policies
/// whose *simulated* resident set is bounded demonstrate the engine's
/// O(live set) memory — `FULL` reclaims all garbage every scavenge and
/// `DTBMEM` moves the boundary to bound memory. (`DTBFM` trades memory
/// for pauses and legitimately accrues tenured garbage proportional to
/// stream length on a pure-churn workload; the engine must track those
/// residents, so it would hide an engine regression behind policy
/// behaviour.)
const SYNTH_POLICIES: [PolicyKind; 2] = [PolicyKind::Full, PolicyKind::DtbMem];

/// Records per shard for the phase-1 store — small enough that the
/// default 300 k-event trace spans several shards.
const STORE_STRIDE: u64 = 65_536;

/// Phase-1 workload: the same shape as `bench_dtb`'s mixture (churn +
/// medium band + immortal ramp) so shard replay crosses a realistic
/// resident set.
fn shard_workload(events: usize) -> WorkloadSpec {
    let total_alloc = (events as u64).max(1_000) * 1_160;
    WorkloadSpec {
        name: format!("SMOKESYN({}k)", events / 1_000),
        description: "stream-smoke shard phase: churn + medium band + immortal ramp".into(),
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
        seed: 0x57EA_4B0A,
    }
}

/// Phase-2 workload: churn only — no immortal ramp, no permanent startup
/// structure — so the live set stays bounded no matter how much the
/// stream allocates in total. Memory growth here could only come from
/// the engine itself.
fn synth_workload(total_mb: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("STREAMSYN({total_mb}M)"),
        description: "stream-smoke generator phase: bounded live set, unbounded stream".into(),
        exec_seconds: 10.0,
        total_alloc: total_mb * 1_000_000,
        initial_permanent: 0,
        initial_object_size: 1_024,
        classes: vec![
            ClassSpec::new(
                "short",
                0.80,
                SizeDist::Uniform { min: 64, max: 2048 },
                LifetimeDist::Exponential { mean: 200_000.0 },
            ),
            ClassSpec::new(
                "medium",
                0.20,
                SizeDist::Uniform { min: 64, max: 2048 },
                LifetimeDist::Exponential { mean: 3_000_000.0 },
            ),
        ],
        phase_period: None,
        seed: 0x57EA_4B0B,
    }
}

/// Streams `make_source`'s records through the engine once per policy,
/// insisting each run actually collected (a run that never scavenges
/// would bound nothing).
fn replay(
    label: &str,
    policies: [PolicyKind; 2],
    mut make_source: impl FnMut() -> Result<Box<dyn EventSource>, String>,
) -> Result<(), String> {
    let policy_cfg = PolicyConfig::paper();
    let sim_cfg = SimConfig::paper().with_invariant_checks(false);
    for kind in policies {
        let mut policy = kind.build(&policy_cfg);
        let mut source = make_source()?;
        let start = Instant::now();
        let run = simulate_source(&mut *source, &mut policy, &sim_cfg)
            .map_err(|e| format!("{label}/{kind}: {e}"))?;
        if run.report.collections == 0 {
            return Err(format!(
                "{label}/{kind}: no scavenges — nothing was exercised"
            ));
        }
        eprintln!(
            "[{label}] {:<7} {:>8.3}s  {:>6} scavenges  live max {:.0} KB",
            kind.label(),
            start.elapsed().as_secs_f64(),
            run.report.collections,
            run.report.mem_max.as_kb(),
        );
    }
    Ok(())
}

struct Args {
    events: usize,
    synth_mb: u64,
    max_rss_mb: u64,
    /// Telemetry capture file (`--events` is taken: the event *count*).
    events_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        events: 300_000,
        synth_mb: 4_000,
        max_rss_mb: 96,
        events_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--events" => {
                let v = value("--events")?;
                args.events = v.parse().map_err(|_| format!("bad --events: {v}"))?;
            }
            "--synth-mb" => {
                let v = value("--synth-mb")?;
                args.synth_mb = v.parse().map_err(|_| format!("bad --synth-mb: {v}"))?;
            }
            "--max-rss-mb" => {
                let v = value("--max-rss-mb")?;
                args.max_rss_mb = v.parse().map_err(|_| format!("bad --max-rss-mb: {v}"))?;
            }
            "--events-out" => {
                args.events_out = Some(std::path::PathBuf::from(value("--events-out")?));
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let scratch = std::env::temp_dir().join(format!("dtb-stream-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("creating {scratch:?}: {e}"))?;

    // Phase 1: event file → two-pass converter → shard store → replay.
    let spec = shard_workload(args.events);
    eprintln!("phase 1: {} → shard store → streaming replay", spec.name);
    let src = scratch.join("smoke.dtbtrc");
    {
        let trace = spec.generate().map_err(|e| format!("generate: {e}"))?;
        write_trace(&src, &trace).map_err(|e| format!("write {src:?}: {e}"))?;
        // The raw trace drops here; replay below is record-at-a-time.
    }
    let store = scratch.join("store");
    let manifest =
        convert_trace_file(&src, &store, STORE_STRIDE).map_err(|e| format!("convert: {e}"))?;
    eprintln!(
        "store: {} records across {} shards",
        manifest.total_records,
        manifest.shards.len()
    );
    replay("shards", SHARD_POLICIES, || {
        Ok(Box::new(
            ShardReader::open(&store).map_err(|e| format!("open store: {e}"))?,
        ))
    })?;

    // Phase 2: unbounded generator, never materialized.
    let spec = synth_workload(args.synth_mb);
    eprintln!(
        "phase 2: {} on the fly ({} MB total allocation, churn only)",
        spec.name, args.synth_mb
    );
    replay("synth", SYNTH_POLICIES, || {
        Ok(Box::new(
            SynthSource::new(spec.clone()).map_err(|e| format!("synth spec: {e}"))?,
        ))
    })?;

    let _ = std::fs::remove_dir_all(&scratch);

    // The ceiling: the whole process — generation, conversion, and both
    // replay phases — must have stayed under the checked-in bound.
    match peak_rss_bytes() {
        Some(peak) => {
            let ceiling = args.max_rss_mb * 1_000_000;
            eprintln!(
                "peak RSS (VmHWM): {:.1} MB, ceiling {} MB",
                peak as f64 / 1e6,
                args.max_rss_mb
            );
            if peak > ceiling {
                return Err(format!(
                    "peak RSS {peak} bytes exceeds the {ceiling}-byte ceiling — \
                     the streaming pipeline is no longer O(live set)"
                ));
            }
        }
        None => eprintln!("VmHWM unavailable on this platform; ceiling not checked"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stream_smoke: {e}");
            eprintln!(
                "usage: stream_smoke [--events N] [--synth-mb MB] [--max-rss-mb MB] \
                 [--events-out PATH]"
            );
            return ExitCode::FAILURE;
        }
    };
    // Note: a capture sink buffers in the bus queue and the file
    // writer, so the RSS ceiling still holds only because the queue is
    // bounded.
    let _capture = args
        .events_out
        .as_deref()
        .map(|path| match dtb_obs::FileSink::create(path) {
            Ok(sink) => dtb_obs::install(std::sync::Arc::new(sink)),
            Err(e) => {
                eprintln!(
                    "stream_smoke: cannot capture events to {}: {e}",
                    path.display()
                );
                std::process::exit(1);
            }
        });
    match run(&args) {
        Ok(()) => {
            eprintln!("stream-smoke ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stream_smoke: {e}");
            ExitCode::FAILURE
        }
    }
}
