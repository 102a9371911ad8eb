//! The `--out` file: every run's metric values per workload, with their
//! medians and quartiles. A later invocation with the same `--out`
//! appends its runs, so alternating a parent and a change one run at a
//! time builds two files whose samples pair up by position.
//!
//! `--compare PARENT.json CHANGE.json` gives one verdict per (workload,
//! end-to-end metric):
//!
//! * `gain` — at least ten pairs, the change wins at least nine in ten
//!   of them (ties count for neither side), and its median is better
//!   than the parent's by more than the parent's interquartile range;
//! * `regression` — the change's median is worse than the parent's by
//!   more than the metric's bound;
//! * `unresolved` — either side's spread (IQR / median) exceeds the
//!   bound, unless every change run beats every parent run (`better`);
//! * `same` — none of the above.

use crate::metrics::{self, median, quartiles, Better, END_TO_END};
use crate::Json;
use serde::Value;
use std::path::Path;
use std::process::ExitCode;

/// The runs of one workload.
#[derive(Debug, Default, PartialEq)]
pub struct Runs {
    pub name: String,
    pub runs: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → one value per run, in run order.
    pub samples: Vec<(String, Vec<f64>)>,
}

impl Runs {
    pub fn add(&mut self, metric: &str, value: f64) {
        match self.samples.iter_mut().find(|(m, _)| m == metric) {
            Some((_, v)) => v.push(value),
            None => self.samples.push((metric.to_string(), vec![value])),
        }
    }
}

#[derive(Debug, Default, PartialEq)]
pub struct Summary {
    pub workloads: Vec<Runs>,
}

fn u64_field(v: &Value, key: &str) -> Option<u64> {
    match v.field(key)? {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

impl Summary {
    /// The runs of `name`, added if new.
    pub fn workload(&mut self, name: &str) -> &mut Runs {
        if let Some(i) = self.workloads.iter().position(|w| w.name == name) {
            return &mut self.workloads[i];
        }
        self.workloads.push(Runs {
            name: name.to_string(),
            ..Runs::default()
        });
        self.workloads.last_mut().expect("just pushed")
    }

    pub fn load(path: &Path) -> Result<Summary, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
        text.and_then(|t| Summary::parse(&t))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parse(text: &str) -> Result<Summary, String> {
        let Json(doc) = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let Some(Value::Seq(workloads)) = doc.field("workloads") else {
            return Err("no workloads".to_string());
        };
        let mut summary = Summary::default();
        for w in workloads {
            let (Some(Value::Str(name)), Some(Value::Seq(metrics))) =
                (w.field("name"), w.field("metrics"))
            else {
                return Err("malformed workload".to_string());
            };
            let runs = summary.workload(name);
            runs.runs = u64_field(w, "runs").ok_or("no run count")?;
            runs.attempted = u64_field(w, "attempted").ok_or("no attempted")?;
            runs.failed = u64_field(w, "failed").ok_or("no failed")?;
            for m in metrics {
                let (Some(Value::Str(metric)), Some(Value::Seq(vals))) =
                    (m.field("name"), m.field("samples"))
                else {
                    return Err("malformed metric".to_string());
                };
                for v in vals {
                    match v {
                        Value::F64(x) => runs.add(metric, *x),
                        Value::U64(x) => runs.add(metric, *x as f64),
                        _ => return Err("non-numeric sample".to_string()),
                    }
                }
            }
        }
        Ok(summary)
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn to_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let metrics = w
                    .samples
                    .iter()
                    .map(|(name, s)| {
                        let (q1, q3) = quartiles(s);
                        let unit = metrics::find(name).map_or("", |m| m.unit);
                        Value::Map(vec![
                            ("name".into(), Value::Str(name.clone())),
                            ("unit".into(), Value::Str(unit.into())),
                            ("median".into(), Value::F64(median(s))),
                            ("q1".into(), Value::F64(q1)),
                            ("q3".into(), Value::F64(q3)),
                            ("n".into(), Value::U64(s.len() as u64)),
                            (
                                "samples".into(),
                                Value::Seq(s.iter().copied().map(Value::F64).collect()),
                            ),
                        ])
                    })
                    .collect();
                Value::Map(vec![
                    ("name".into(), Value::Str(w.name.clone())),
                    ("runs".into(), Value::U64(w.runs)),
                    ("attempted".into(), Value::U64(w.attempted)),
                    ("failed".into(), Value::U64(w.failed)),
                    ("metrics".into(), Value::Seq(metrics)),
                ])
            })
            .collect();
        let doc = Json(Value::Map(vec![(
            "workloads".into(),
            Value::Seq(workloads),
        )]));
        serde_json::to_string_pretty(&doc).expect("values always serialize") + "\n"
    }
}

/// The verdict on one metric, with the pair tally it rests on.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
) -> (&'static str, usize, usize) {
    // Orient every value so that larger is better.
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| sign * (*c - *p) > 0.0)
        .count();
    let (mp, mc) = (median(parent), median(change));
    let spread = |s: &[f64]| {
        let (q1, q3) = quartiles(s);
        (q3 - q1) / median(s).abs().max(1e-12)
    };
    let (q1, q3) = quartiles(parent);
    let gap = sign * (mc - mp);
    let dominates = !parent.is_empty()
        && parent
            .iter()
            .all(|p| change.iter().all(|c| sign * (*c - *p) > 0.0));
    let v = if pairs >= 10 && wins * 10 >= pairs * 9 && gap > q3 - q1 {
        "gain"
    } else if spread(parent) > bound || spread(change) > bound {
        if dominates {
            "better"
        } else {
            "unresolved"
        }
    } else if -gap > bound * mp.abs() {
        "regression"
    } else {
        "same"
    };
    (v, wins, pairs)
}

pub fn compare(parent: &Path, change: &Path) -> ExitCode {
    let (p, c) = match (Summary::load(parent), Summary::load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dtb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    println!("workload metric parent_median change_median change_% wins/pairs verdict");
    for w in &p.workloads {
        for m in END_TO_END {
            let get = |s: &Summary| {
                let runs = s.workloads.iter().find(|x| x.name == w.name)?;
                runs.samples
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map(|(_, v)| v.clone())
            };
            let (Some(ps), Some(cs)) = (get(&p), get(&c)) else {
                println!("{} {} - - - - missing", w.name, m.name);
                continue;
            };
            let (v, wins, pairs) = verdict(&ps, &cs, m.better, m.bound.unwrap_or(0.0));
            regressed |= v == "regression";
            let (mp, mc) = (median(&ps), median(&cs));
            println!(
                "{} {} {mp} {mc} {:+.2} {wins}/{pairs} {v}",
                w.name,
                m.name,
                (mc / mp.abs().max(1e-12) - 1.0) * 100.0
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(verdict(&parent, &faster, Better::Lower, 0.1).0, "gain");
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1).0,
            "regression"
        );
        assert_eq!(verdict(&parent, &parent, Better::Lower, 0.1).0, "same");
        // Too few pairs for a gain, however large the difference.
        assert_eq!(
            verdict(&parent[..5], &faster[..5], Better::Lower, 0.1).0,
            "same"
        );
        let noisy = [5.0, 15.0, 10.0, 8.0, 12.0];
        assert_eq!(verdict(&noisy, &noisy, Better::Higher, 0.1).0, "unresolved");
    }

    #[test]
    fn summaries_round_trip_and_append() {
        let mut s = Summary::default();
        let runs = s.workload("long-trace");
        runs.runs = 2;
        runs.attempted = 12;
        runs.add("result_s", 1.5);
        runs.add("result_s", 1.25);
        let mut back = Summary::parse(&s.to_json()).unwrap();
        assert_eq!(back, s);
        back.workload("long-trace").add("result_s", 2.0);
        assert_eq!(back.workloads[0].samples[0].1, [1.5, 1.25, 2.0]);
    }
}
