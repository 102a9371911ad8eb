//! The metric catalogue (mirrored by `BENCHMARK.json`, which a test
//! keeps in step with it) and the statistics every metric is reduced
//! with.

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of each workload sees, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("result_s", "s", Lower, 0.25),
    e2e("mevents_per_s", "Mevents/s", Higher, 0.25),
    e2e("cell_ms_p50", "ms", Lower, 0.25),
    e2e("cell_ms_p75", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Per-layer numbers from the traced run. Seconds and counts are per
/// pass (per cycle of six sweeps on `served-sweeps`), setup figures per
/// setup.
pub const PER_LAYER: &[Metric] = &[
    layer("trace.generate_s", "s", Lower),
    layer("trace.encode_s", "s", Lower),
    layer("trace.decode_s", "s", Lower),
    layer("trace.decode_ns_per_event", "ns", Lower),
    layer("heap.insert_s", "s", Lower),
    layer("heap.survival_view_s", "s", Lower),
    layer("heap.survival_query_s", "s", Lower),
    layer("heap.scavenge_s", "s", Lower),
    layer("heap.ns_per_scavenge", "ns", Lower),
    layer("heap.scavenges", "count", Lower),
    layer("policy.select_s", "s", Lower),
    layer("policy.calls", "count", Lower),
    layer("engine.cell_s", "s", Lower),
    layer("engine.self_s", "s", Lower),
    layer("engine.cells", "count", Lower),
    layer("engine.par2_speedup", "ratio", Higher),
    layer("baseline.s", "s", Lower),
    layer("dispatch.busy_s", "s", Lower),
    layer("dispatch.idle_s", "s", Lower),
    layer("obs.events", "count", Lower),
    layer("obs.capture_slowdown", "ratio", Lower),
    layer("trace_overhead_pct", "%", Lower),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The value at percentile `p` (0–100) by linear interpolation between
/// closest ranks; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (p / 100.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method),
/// so spreads read the same here and in any script checking them. With
/// fewer than two samples both quartiles are the sample itself.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Mean of the samples; 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// `BENCHMARK.json` declares exactly this catalogue: names, units,
    /// directions and bounds, in order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        use serde::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let crate::Json(doc) = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Seq(items)) = doc.field(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            assert_eq!(items.len(), table.len(), "{key}");
            for (item, m) in items.iter().zip(table) {
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                let mut want = vec![
                    ("name".to_string(), Value::Str(m.name.into())),
                    ("unit".to_string(), Value::Str(m.unit.into())),
                    ("better".to_string(), Value::Str(better.into())),
                ];
                if let Some(bound) = m.bound {
                    want.push(("bound".to_string(), Value::F64(bound)));
                }
                assert_eq!(item, &Value::Map(want), "{key} entry {}", m.name);
            }
        }
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 75.0), 40.0);
        assert_eq!(percentile(&v, 90.0), 46.0);
    }
}
