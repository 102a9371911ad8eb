//! Runs every workload at `--smoke` size through the built benchmark,
//! untraced and traced, and checks its output contract: the last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and exactly the metrics `BENCHMARK.json` names, every report matched
//! its committed digest (`correct` with `failed` = 0), and every name
//! is well-formed.

use serde::{de, Deserialize, Value};
use std::process::Command;

struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Json, de::Error> {
        Ok(Json(v.clone()))
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str::<Json>(&text)
        .expect("BENCHMARK.json parses")
        .0
}

fn seq<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.field(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key}: expected a list, got {other:?}"),
    }
}

fn string<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.field(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The (name, unit) pairs of one metric table of `BENCHMARK.json`.
fn declared(table: &str) -> Vec<(String, String)> {
    seq(&benchmark_json(), table)
        .iter()
        .map(|m| (string(m, "name").to_string(), string(m, "unit").to_string()))
        .collect()
}

fn run(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_dtb-benchmark"))
        .args(["--workload", workload, "--smoke", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stderr}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let Json(doc) = serde_json::from_str(last).expect("the last line is JSON");
    let keys: Vec<&str> = match &doc {
        Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {last}"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.field("correct"), Some(&Value::Bool(true)), "{stderr}");
    assert_eq!(doc.field("failed"), Some(&Value::U64(0)));
    assert!(matches!(doc.field("attempted"), Some(Value::U64(n)) if *n >= 1));

    let Some(Value::Map(metrics)) = doc.field("metrics") else {
        panic!("no metrics: {last}");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.field("value"), Some(Value::F64(_) | Value::U64(_))),
                "{name} has no numeric value"
            );
            (name.clone(), string(m, "unit").to_string())
        })
        .collect();
    let table = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(
        got,
        declared(table),
        "{workload}: metrics differ from BENCHMARK.json {table}"
    );
}

#[test]
fn names_are_well_formed_and_within_limits() {
    let doc = benchmark_json();
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let workloads: Vec<&str> = seq(&doc, "workloads")
        .iter()
        .map(|w| string(w, "name"))
        .collect();
    let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|(n, _)| n.as_str()).collect();
    names.extend(&workloads);
    for name in &names {
        assert!(well_formed(name), "bad name {name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for (name, unit) in e2e.iter().chain(&layers) {
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{name}: bad unit {unit}"
        );
    }
    assert_eq!(
        workloads,
        [
            "paper-matrix",
            "long-trace",
            "stream-shards",
            "served-sweeps"
        ]
    );
}

#[test]
fn paper_matrix() {
    run("paper-matrix", false);
    run("paper-matrix", true);
}

#[test]
fn long_trace() {
    run("long-trace", false);
    run("long-trace", true);
}

#[test]
fn stream_shards() {
    run("stream-shards", false);
    run("stream-shards", true);
}

#[test]
fn served_sweeps() {
    run("served-sweeps", false);
    run("served-sweeps", true);
}
