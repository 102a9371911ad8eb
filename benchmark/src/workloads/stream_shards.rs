//! `stream-shards`: a churn-dominated trace (small live set) generated
//! by `SynthSource` straight into a `DTBCTC01` shard store, never held in
//! memory. One pass replays the store with a fresh `ShardReader` for
//! each of the six collectors and the two streaming baseline rows.
//! Scavenges are cheap here, so shard decode and the baselines dominate,
//! and `peak_rss_mb` shows the streaming path's O(live set) bound.

use super::{
    measure, pass_layers, policy_cell, reseed, CellRecord, Ctx, Outcome, Pass, SETUP_REPS,
};
use dtb_core::policy::PolicyKind;
use dtb_sim::baseline::{live_report_source, no_gc_report_source};
use dtb_trace::ctc::ShardWriter;
use dtb_trace::lifetime::{LifetimeDist, SizeDist};
use dtb_trace::synth::{ClassSpec, WorkloadSpec};
use dtb_trace::{EventBlock, EventSource, ShardReader, SynthSource};
use std::path::Path;
use std::time::Instant;

/// Records per shard file.
const STRIDE: u64 = 65_536;

/// Objects in the stream (the smoke size is tiny).
fn events(smoke: bool) -> u64 {
    if smoke {
        50_000
    } else {
        1_000_000
    }
}

/// 95% of the bytes die within ~50 KB of allocation; a thin medium band
/// and a 1% immortal ramp keep a small, slowly growing live set.
fn spec(events: u64, seed: u64) -> WorkloadSpec {
    let small = SizeDist::PowerOfTwo { min: 16, max: 512 };
    WorkloadSpec {
        name: format!("CHURN({}k)", events / 1_000),
        description: "churn-dominated stream, small live set".into(),
        exec_seconds: 10.0,
        // ~170 bytes per object across the power-of-two sizes.
        total_alloc: events * 170,
        initial_permanent: 0,
        initial_object_size: 64,
        classes: vec![
            ClassSpec::new(
                "short",
                0.95,
                small,
                LifetimeDist::Exponential { mean: 50_000.0 },
            ),
            ClassSpec::new(
                "medium",
                0.04,
                small,
                LifetimeDist::Uniform {
                    min: 1_100_000,
                    max: 2_200_000,
                },
            ),
            ClassSpec::new("immortal-ramp", 0.01, small, LifetimeDist::Immortal),
        ],
        phase_period: None,
        seed: reseed(0x05EE_DC7C, seed),
    }
}

/// Streams the generator into a fresh store at `dir`; returns seconds in
/// the generator and in the shard writer.
fn write_store(spec: &WorkloadSpec, dir: &Path) -> Result<(f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut source = SynthSource::new(spec.clone()).map_err(|e| e.to_string())?;
    let mut writer =
        ShardWriter::create(dir, source.meta().clone(), STRIDE).map_err(|e| e.to_string())?;
    let mut block = EventBlock::new(dtb_trace::DEFAULT_BLOCK_EVENTS);
    let (mut generate, mut encode) = (0.0, 0.0);
    loop {
        let t = Instant::now();
        let n = source.next_block(&mut block);
        generate += t.elapsed().as_secs_f64();
        if let Some(e) = block.take_error() {
            return Err(e.to_string());
        }
        if n == 0 {
            break;
        }
        let t = Instant::now();
        for i in 0..n {
            writer.push(block.life(i)).map_err(|e| e.to_string())?;
        }
        encode += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    writer.finish(source.end()).map_err(|e| e.to_string())?;
    Ok((generate, encode + t.elapsed().as_secs_f64()))
}

fn open(dir: &Path) -> Result<ShardReader, String> {
    ShardReader::open(dir).map_err(|e| e.to_string())
}

fn pass(dir: &Path, name: &str, traced: bool) -> Result<Pass, String> {
    let start = Instant::now();
    let mut cells = Vec::new();
    for kind in PolicyKind::ALL {
        let label = format!("{name}/{kind}");
        cells.push(policy_cell(label, &mut open(dir)?, kind, traced));
    }
    type Baseline = fn(&mut ShardReader) -> Result<dtb_sim::SimReport, dtb_trace::SourceError>;
    let rows: [(&str, Baseline); 2] = [
        ("No GC", |s| no_gc_report_source(s)),
        ("LIVE", |s| live_report_source(s)),
    ];
    for (row, baseline) in rows {
        let mut reader = open(dir)?;
        let t = Instant::now();
        let report = baseline(&mut reader);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let label = format!("{name}/{row}");
        let mut cell = CellRecord::new(label, t, ms, report.as_ref().map_err(|e| e.to_string()));
        cell.baseline = true;
        cells.push(cell);
    }
    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64(),
        cells,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = spec(events(ctx.smoke), ctx.seed);
    let dir = ctx.scratch.join("store");
    let mut setup = Vec::new();
    let mut split = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (g, e) = write_store(&spec, &dir)?;
        setup.push(t.elapsed().as_secs_f64());
        split.0.push(g);
        split.1.push(e);
    }
    let name = spec.name.as_str();
    let (mut out, t) = measure(ctx, &setup, true, |traced| pass(&dir, name, traced))?;
    if !ctx.traced {
        return Ok(out);
    }
    let make = || open(&dir).map(|r| Box::new(r) as Box<dyn EventSource>);
    pass_layers(&mut out.values, &split, &t.traced, &t, 1, &make)?;
    Ok(out)
}
