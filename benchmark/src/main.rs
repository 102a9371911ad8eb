//! `dtb-benchmark`: one command that measures the simulator, the matrix
//! executor and the evaluation service end to end and, in a traced run,
//! layer by layer — and checks every report it measures. See README.md
//! for the workloads, the metrics, and how to make a claim with them.
//!
//! ```text
//! dtb-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless]
//! dtb-benchmark [--workloads a,b] [--runs N] [--seed N] [--seconds S] [--trace 0|1]
//!               [--smoke] [--out FILE]
//! dtb-benchmark --compare PARENT.json CHANGE.json
//! ```
//!
//! With `--workload` the process measures one run of one workload and
//! prints `workload metric value unit` lines, then one JSON object as its
//! last line. Without it, the process re-executes itself once per
//! (workload, run), so set-up time and peak memory belong to one
//! workload alone, and reports medians and quartiles over the runs.

mod digest;
mod layers;
mod metrics;
mod summary;
mod workloads;

use metrics::{Metric, Values, END_TO_END, PER_LAYER};
use serde::{de, Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Ctx, Outcome, Workload};

/// Where runs keep scratch stores and traced runs write `spans.json`,
/// relative to the directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

/// Any JSON document, as the vendored parser's value tree.
pub struct Json(pub Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Json, de::Error> {
        Ok(Json(v.clone()))
    }
}

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: dtb-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless]
       dtb-benchmark [--workloads a,b] [--runs N] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
       dtb-benchmark --compare PARENT.json CHANGE.json
workloads: paper-matrix, long-trace, stream-shards, served-sweeps";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        workloads: Workload::ALL.to_vec(),
        seed: 0,
        seconds: 15.0,
        trace: false,
        smoke: false,
        bless: false,
        runs: 1,
        out: None,
        compare: None,
    };
    let workload = |name: &str| Workload::parse(name).ok_or(format!("unknown workload {name}"));
    let mut it = it.by_ref().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(workload(&value()?)?),
            "--workloads" => {
                args.workloads = value()?
                    .split(',')
                    .map(workload)
                    .collect::<Result<_, _>>()?
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--runs" => {
                args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        args.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("dtb-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((parent, change)) = &args.compare {
        return summary::compare(parent, change);
    }
    match args.workload {
        Some(w) => run_one(&args, w),
        None => orchestrate(&args),
    }
}

fn table(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Formats a measured value with all its digits.
fn num(v: f64) -> String {
    format!("{v}")
}

/// One run of one workload: the unit every measurement is made of.
fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let scratch = Path::new(OUT_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("dtb-benchmark: {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        smoke: args.smoke,
        scratch: scratch.clone(),
        spans: layers::Spans::new(),
    };
    let result = workload.run(&ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut out = result.unwrap_or_else(|e| {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.fail(format!("{}: {e}", workload.name()));
        o
    });

    if args.bless {
        if args.seed != 0 {
            out.fail("--bless records the default seed (0) only".into());
        } else if out.failed == 0 {
            match digest::bless(workload, args.smoke, &out.digests) {
                Ok(path) => eprintln!("dtb-benchmark: wrote {path}"),
                Err(e) => out.fail(e),
            }
        }
    } else if args.seed == 0 {
        for problem in digest::check(workload, args.smoke, &out.digests) {
            out.fail(format!("committed digests: {problem}"));
        }
    }

    let metrics = table(args.trace);
    for m in metrics {
        if !out.values.contains_key(m.name) && out.problems.is_empty() {
            out.fail(format!("metric {} was not measured", m.name));
        }
    }
    if args.trace {
        write_spans(&ctx, workload, &out);
    }
    for p in &out.problems {
        eprintln!("dtb-benchmark: {}: FAILED: {p}", workload.name());
    }
    for (name, v) in &out.detail {
        eprintln!("{} {name} {}", workload.name(), num(*v));
    }
    let mut fields = Vec::new();
    for m in metrics {
        if let Some(v) = out.values.get(m.name) {
            println!("{} {} {} {}", workload.name(), m.name, num(*v), m.unit);
            fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                layers::json_str(m.name),
                num(*v),
                layers::json_str(m.unit)
            ));
        }
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the traced run's spans and per-layer table to
/// `.bench_out/<workload>/spans.json`.
fn write_spans(ctx: &Ctx, workload: Workload, out: &Outcome) {
    let dir = Path::new(OUT_DIR).join(workload.name());
    let table = |vals: Vec<(&str, f64)>| {
        let rows: Vec<String> = vals
            .iter()
            .map(|(k, v)| format!("{}: {}", layers::json_str(k), num(*v)))
            .collect();
        format!("{{{}}}", rows.join(", "))
    };
    let text = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"layers\": {},\n \"detail\": {},\n \"dropped_spans\": {},\n \"spans\": {}}}\n",
        workload.name(),
        ctx.seed,
        num(ctx.seconds),
        table(out.values.iter().map(|(k, v)| (*k, *v)).collect()),
        table(out.detail.iter().map(|(k, v)| (k.as_str(), *v)).collect()),
        ctx.spans.dropped(),
        ctx.spans.to_json(),
    );
    let path = dir.join("spans.json");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("dtb-benchmark: {}: {e}", path.display());
    }
}

/// One child run's result line.
struct RunLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Values,
}

fn parse_line(line: &str) -> Option<RunLine> {
    let Json(v) = serde_json::from_str::<Json>(line).ok()?;
    let int = |k: &str| match v.field(k)? {
        Value::U64(n) => Some(*n),
        _ => None,
    };
    let mut values = Values::new();
    if let Some(Value::Map(entries)) = v.field("metrics") {
        for (name, m) in entries {
            let value = match m.field("value")? {
                Value::F64(x) => *x,
                Value::U64(x) => *x as f64,
                Value::I64(x) => *x as f64,
                _ => return None,
            };
            values.insert(metrics::find(name)?.name, value);
        }
    }
    Some(RunLine {
        correct: matches!(v.field("correct"), Some(Value::Bool(true))),
        attempted: int("attempted")?,
        failed: int("failed")?,
        values,
    })
}

/// Re-executes this binary once per (workload, run), then prints the
/// median and quartiles of every metric, appending the runs to `--out`.
fn orchestrate(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("dtb-benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let earlier = match &args.out {
        Some(path) if path.exists() => summary::Summary::load(path),
        _ => Ok(summary::Summary::default()),
    };
    let mut summary = match earlier {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dtb-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for &w in &args.workloads {
        for run in 1..=args.runs {
            eprintln!("dtb-benchmark: {} run {run}/{}", w.name(), args.runs);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &num(args.seconds)])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let line = cmd.output().ok().and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                let line = parse_line(text.lines().last()?)?;
                Some((o.status.success(), line))
            });
            let Some((true, line)) = line.filter(|(_, l)| l.correct) else {
                eprintln!("dtb-benchmark: {} run {run} failed", w.name());
                all_ok = false;
                continue;
            };
            let runs = summary.workload(w.name());
            runs.runs += 1;
            runs.attempted += line.attempted;
            runs.failed += line.failed;
            for m in table(args.trace) {
                if let Some(v) = line.values.get(m.name) {
                    runs.add(m.name, *v);
                }
            }
        }
    }
    for runs in &summary.workloads {
        for (name, s) in &runs.samples {
            let (q1, q3) = metrics::quartiles(s);
            let unit = metrics::find(name).map_or("", |m| m.unit);
            let med = num(metrics::median(s));
            let n = s.len();
            println!(
                "{} {name} {med} {unit}  (q1 {} q3 {} n {n})",
                runs.name,
                num(q1),
                num(q3)
            );
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = summary.save(path) {
            eprintln!("dtb-benchmark: {e}");
            all_ok = false;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_single_and_multi_run_command_lines() {
        let a = args("--workload long-trace --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::LongTrace));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = args("--workloads paper-matrix,served-sweeps --runs 5 --trace --smoke").unwrap();
        assert_eq!(a.workloads, [Workload::PaperMatrix, Workload::ServedSweeps]);
        assert!(a.trace && a.smoke && a.runs == 5);
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--runs").is_err());
    }

    #[test]
    fn result_lines_round_trip() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"result_s": {"value": 1.25, "unit": "s"}}}"#;
        let r = parse_line(line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(r.values.get("result_s"), Some(&1.25));
        assert!(parse_line("{\"metrics\": {}}").is_none());
    }
}
