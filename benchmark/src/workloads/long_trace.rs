//! `long-trace`: one long in-memory trace with a large resident set —
//! the `bench_dtb` mixture of churn, a medium-lived band and an immortal
//! ramp — simulated under all six collectors with `Sim::run_trace`, no
//! executor. One pass is the six cells. The heap and engine hot path do
//! nearly all of the work and the heap index outgrows the caches, so
//! executor, service and decode changes should not move it.

use super::{measure, pass_layers, policy_cell, reseed, Ctx, Outcome, Pass, SETUP_REPS};
use crate::layers::SpanAt;
use dtb_core::policy::PolicyKind;
use dtb_sim::baseline::{live_report, no_gc_report};
use dtb_trace::event::CompiledTrace;
use dtb_trace::lifetime::{LifetimeDist, SizeDist};
use dtb_trace::synth::{ClassSpec, WorkloadSpec};
use dtb_trace::{CompiledSource, EventSource};
use std::time::Instant;

/// Objects in the trace (the smoke size is tiny).
fn events(smoke: bool) -> u64 {
    if smoke {
        50_000
    } else {
        2_000_000
    }
}

/// The mixture `bench_dtb` measures: ~1160 allocated bytes per object,
/// so a 1 MB trigger fires about once per thousand objects, and a tenth
/// of the allocation is a permanent startup structure.
fn spec(events: u64, seed: u64) -> WorkloadSpec {
    let total_alloc = events * 1_160;
    let class = |name: &str, fraction, lifetime| {
        ClassSpec::new(
            name,
            fraction,
            SizeDist::Uniform { min: 64, max: 2048 },
            lifetime,
        )
    };
    WorkloadSpec {
        name: format!("LONG({}k)", events / 1_000),
        description: "churn + medium band + immortal ramp, large resident set".into(),
        exec_seconds: 10.0,
        total_alloc,
        initial_permanent: total_alloc / 10,
        initial_object_size: 8_192,
        classes: vec![
            class("short", 0.55, LifetimeDist::Exponential { mean: 200_000.0 }),
            class(
                "medium",
                0.25,
                LifetimeDist::Exponential { mean: 3_000_000.0 },
            ),
            class("immortal-ramp", 0.20, LifetimeDist::Immortal),
        ],
        phase_period: None,
        seed: reseed(0xD7B_BE1C, seed),
    }
}

fn pass(trace: &CompiledTrace, traced: bool) -> Pass {
    let start = Instant::now();
    let cells = PolicyKind::ALL
        .into_iter()
        .map(|kind| {
            let label = format!("{}/{}", trace.meta.name, kind);
            policy_cell(label, &mut CompiledSource::new(trace), kind, traced)
        })
        .collect();
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        cells,
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = spec(events(ctx.smoke), ctx.seed);
    let mut setup = Vec::new();
    let mut split = (Vec::new(), Vec::new());
    let mut trace = None;
    for _ in 0..SETUP_REPS {
        drop(trace.take());
        let t = Instant::now();
        let generated = spec.generate().map_err(|e| e.to_string())?;
        let g = t.elapsed().as_secs_f64();
        let compiled = generated.compile().map_err(|e| e.to_string())?;
        setup.push(t.elapsed().as_secs_f64());
        split.0.push(g);
        split.1.push(setup.last().copied().unwrap_or(0.0) - g);
        drop(generated);
        trace = Some(compiled);
    }
    let trace = trace.expect("set-up ran");
    let (mut out, t) = measure(ctx, &setup, true, |traced| Ok(pass(&trace, traced)))?;
    if !ctx.traced {
        return Ok(out);
    }
    let make = || Ok(Box::new(CompiledSource::new(&trace)) as Box<dyn EventSource + '_>);
    pass_layers(&mut out.values, &split, &t.traced, &t, 1, &make)?;
    // The pass runs no baseline rows; `baseline.s` here is what the two
    // rows would cost over this trace, measured once on the side.
    let start = Instant::now();
    std::hint::black_box([no_gc_report(&trace), live_report(&trace)]);
    let end = Instant::now();
    let label = trace.meta.name.clone();
    ctx.spans
        .record("baseline.side", label, start, end, SpanAt::default());
    out.values.insert("baseline.s", (end - start).as_secs_f64());
    Ok(out)
}
