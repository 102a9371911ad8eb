//! The correctness gate: a per-cell FNV digest of every `SimReport`, and
//! the digests committed for the default seed under `expected/`.

use crate::workloads::Workload;
use dtb_sim::SimReport;
use serde::Deserialize;

/// One cell's digest, labelled `COLUMN/ROW`.
pub type CellDigest = (String, u64);

/// FNV-1a of the report's JSON form: every table number, the full
/// scavenge history, the row and the program name.
pub fn digest(report: &SimReport) -> u64 {
    let json = serde_json::to_string(report).expect("reports always serialize");
    dtb_trace::ckp::checksum(json.as_bytes())
}

/// The committed digests of one workload at the default seed, for the
/// full size and the `--smoke` size.
#[derive(Clone, Debug, Default, Deserialize)]
struct Expected {
    workload: String,
    full: Vec<(String, String)>,
    smoke: Vec<(String, String)>,
}

fn embedded(workload: Workload) -> &'static str {
    match workload {
        Workload::PaperMatrix => include_str!("../expected/paper-matrix.json"),
        Workload::LongTrace => include_str!("../expected/long-trace.json"),
        Workload::StreamShards => include_str!("../expected/stream-shards.json"),
        Workload::ServedSweeps => include_str!("../expected/served-sweeps.json"),
    }
}

fn parse(text: &str) -> Result<Expected, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn to_hex(cells: &[CellDigest]) -> Vec<(String, String)> {
    cells
        .iter()
        .map(|(label, d)| (label.clone(), format!("{d:016x}")))
        .collect()
}

/// Compares `got` with the committed digests and describes every
/// difference: a missing, extra or changed cell.
pub fn check(workload: Workload, smoke: bool, got: &[CellDigest]) -> Vec<String> {
    let expected = match parse(embedded(workload)) {
        Ok(e) => e,
        Err(e) => return vec![format!("expected digests unreadable: {e}")],
    };
    let want = if smoke { expected.smoke } else { expected.full };
    let got = to_hex(got);
    let mut problems = Vec::new();
    for (label, digest) in &want {
        match got.iter().find(|(l, _)| l == label) {
            None => problems.push(format!("cell {label}: missing")),
            Some((_, d)) if d != digest => {
                problems.push(format!("cell {label}: digest {d}, expected {digest}"))
            }
            Some(_) => {}
        }
    }
    for (label, _) in &got {
        if !want.iter().any(|(l, _)| l == label) {
            problems.push(format!("cell {label}: not in the expected digests"));
        }
    }
    problems
}

/// Rewrites the committed digests of one size of `workload` in the
/// source tree (`--bless`); the other size is kept. Takes effect in the
/// next build, which embeds the file.
pub fn bless(workload: Workload, smoke: bool, got: &[CellDigest]) -> Result<String, String> {
    let path = format!(
        "{}/expected/{}.json",
        env!("CARGO_MANIFEST_DIR"),
        workload.name()
    );
    let mut expected = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| parse(&t).ok())
        .unwrap_or_default();
    expected.workload = workload.name().to_string();
    if smoke {
        expected.smoke = to_hex(got);
    } else {
        expected.full = to_hex(got);
    }
    std::fs::write(&path, render(&expected)).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}

/// The expected-digest file, one cell per line.
fn render(e: &Expected) -> String {
    let list = |cells: &[(String, String)]| {
        cells
            .iter()
            .map(|(label, d)| format!("    [{}, \"{d}\"]", crate::layers::json_str(label)))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"full\": [\n{}\n  ],\n  \"smoke\": [\n{}\n  ]\n}}\n",
        e.workload,
        list(&e.full),
        list(&e.smoke)
    )
}
