//! `paper-matrix`: the paper's 48-cell table — six presets × (six
//! collectors + `No GC` + `LIVE`) — through `Evaluation::parallelism(2)`,
//! as `repro_table2` runs it. One pass is one table. Cells are small, so
//! the executor's pool, its tail and the baseline rows weigh heavily.

use super::{
    check_passes, measure, pass_layers, policy_cell, record_pass, reseed, CellRecord, Ctx, Outcome,
    Pass, SETUP_REPS, WORKERS,
};
use dtb_core::policy::{PolicyKind, Row};
use dtb_sim::exec::Evaluation;
use dtb_trace::event::CompiledTrace;
use dtb_trace::programs::Program;
use dtb_trace::CompiledSource;
use std::sync::Arc;
use std::time::Instant;

/// The presets of the table (two small ones at `--smoke` size).
pub fn programs(smoke: bool) -> Vec<Program> {
    if smoke {
        vec![Program::Cfrac, Program::Espresso1]
    } else {
        Program::ALL.to_vec()
    }
}

/// Seconds spent generating and compiling, per repetition.
#[derive(Default)]
pub struct Compiled {
    pub traces: Vec<Arc<CompiledTrace>>,
    pub generate_s: f64,
    pub compile_s: f64,
}

/// Generates and compiles the presets, reseeded by `seed`.
pub fn compile(programs: &[Program], seed: u64) -> Result<Compiled, String> {
    let mut out = Compiled::default();
    for p in programs {
        let mut spec = p.spec();
        spec.seed = reseed(spec.seed, seed);
        let t = Instant::now();
        let trace = spec.generate().map_err(|e| format!("{p}: {e}"))?;
        out.generate_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let compiled = trace.compile().map_err(|e| format!("{p}: {e}"))?;
        out.compile_s += t.elapsed().as_secs_f64();
        out.traces.push(Arc::new(compiled));
    }
    Ok(out)
}

fn table(traces: &[Arc<CompiledTrace>]) -> Pass {
    let eval = traces
        .iter()
        .fold(Evaluation::new().parallelism(WORKERS), |e, t| {
            e.trace(t.clone())
        });
    let start = Instant::now();
    let matrix = eval.run();
    let wall_s = start.elapsed().as_secs_f64();
    let mut cells = Vec::new();
    for (column, cell) in matrix.cells() {
        let report = cell.report().ok_or_else(|| "failed".to_string());
        let mut rec = CellRecord::new(
            format!("{}/{}", column.name(), cell.row),
            start,
            cell.elapsed.as_secs_f64() * 1e3,
            report,
        );
        rec.baseline = !matches!(cell.row, Row::Policy(_));
        if !rec.baseline {
            rec.events = column.trace.as_ref().map_or(0, |t| t.len() as u64);
        }
        cells.push(rec);
    }
    Pass { wall_s, cells }
}

/// Replays every collector cell of the table once, serially, through
/// the layer timers: the engine-level split of the table's cell work.
pub fn probe(traces: &[Arc<CompiledTrace>]) -> Pass {
    let start = Instant::now();
    let mut cells = Vec::new();
    for trace in traces {
        for kind in PolicyKind::ALL {
            let label = format!("{}/{}", trace.meta.name, kind);
            cells.push(policy_cell(
                label,
                &mut CompiledSource::new(trace),
                kind,
                true,
            ));
        }
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        cells,
    }
}

/// The largest trace, DTBFM: the cell the side measurements use.
pub fn probe_source<'a>(
    traces: &'a [Arc<CompiledTrace>],
) -> impl Fn() -> Result<Box<dyn dtb_trace::EventSource + 'a>, String> + 'a {
    let largest = traces
        .iter()
        .max_by_key(|t| t.len())
        .expect("at least one preset");
    move || Ok(Box::new(CompiledSource::new(largest)) as Box<dyn dtb_trace::EventSource + 'a>)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let programs = programs(ctx.smoke);
    let mut setup = Vec::new();
    let mut built = Compiled::default();
    let mut split = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut built));
        let t = Instant::now();
        built = compile(&programs, ctx.seed)?;
        setup.push(t.elapsed().as_secs_f64());
        split.0.push(built.generate_s);
        split.1.push(built.compile_s);
    }
    let traces = &built.traces;
    let (mut out, t) = measure(ctx, &setup, false, |_| Ok(table(traces)))?;
    if !ctx.traced {
        return Ok(out);
    }
    let probe_start = Instant::now();
    let probe = probe(traces);
    record_pass(&ctx.spans, "probe", probe_start, &probe, true);
    let reference = out.digests.clone();
    check_passes(&mut out, &reference, std::slice::from_ref(&probe), "probe");
    let make = probe_source(traces);
    pass_layers(&mut out.values, &split, &[probe], &t, WORKERS, &make)?;
    Ok(out)
}
