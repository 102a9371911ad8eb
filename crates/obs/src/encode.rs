//! The serde-free wire encoder for [`Envelope`]: one single-line JSON
//! object per envelope. It is the one encoding: `--events PATH` capture
//! files, the worker's relayed event lines and the `/events`
//! server-push wire all carry it.

use crate::event::{Envelope, Event};

/// Encodes `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json_str(&mut out, s);
    out
}

/// Appends `s` as a JSON string literal (quotes + escapes) to `out`.
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn field_u64(out: &mut String, name: &str, v: u64) {
    out.push(',');
    json_str(out, name);
    out.push(':');
    out.push_str(&v.to_string());
}

fn field_bool(out: &mut String, name: &str, v: bool) {
    out.push(',');
    json_str(out, name);
    out.push(':');
    out.push_str(if v { "true" } else { "false" });
}

fn field_str(out: &mut String, name: &str, v: &str) {
    out.push(',');
    json_str(out, name);
    out.push(':');
    json_str(out, v);
}

/// Encodes one envelope as a single-line JSON object (no trailing
/// newline). The first three keys are always `seq`, `scope`, `type`.
pub fn encode_json(env: &Envelope) -> String {
    let mut out = String::with_capacity(160);
    out.push_str("{\"seq\":");
    out.push_str(&env.seq.to_string());
    out.push_str(",\"scope\":");
    out.push_str(&env.scope.to_string());
    out.push_str(",\"type\":");
    json_str(&mut out, env.event.tag());
    match &env.event {
        Event::RunStarted {
            policy,
            source,
            threads,
            block_events,
        } => {
            field_str(&mut out, "policy", policy);
            field_str(&mut out, "source", source);
            field_u64(&mut out, "threads", u64::from(*threads));
            field_u64(&mut out, "block_events", *block_events);
        }
        Event::Scavenge {
            collection,
            at,
            boundary,
            traced,
            surviving,
            reclaimed,
            tenured,
            mem_before,
            events,
            inverse_queries,
        } => {
            field_u64(&mut out, "collection", *collection);
            field_u64(&mut out, "at", *at);
            field_u64(&mut out, "boundary", *boundary);
            field_u64(&mut out, "traced", *traced);
            field_u64(&mut out, "surviving", *surviving);
            field_u64(&mut out, "reclaimed", *reclaimed);
            field_u64(&mut out, "tenured", *tenured);
            field_u64(&mut out, "mem_before", *mem_before);
            field_u64(&mut out, "events", *events);
            field_u64(&mut out, "inverse_queries", *inverse_queries);
        }
        Event::RunFinished {
            collections,
            ok,
            inverse_probes,
        } => {
            field_u64(&mut out, "collections", *collections);
            field_bool(&mut out, "ok", *ok);
            field_u64(&mut out, "inverse_probes", *inverse_probes);
        }
        Event::EvalStarted { cells } => {
            field_u64(&mut out, "cells", *cells);
        }
        Event::CellStarted {
            column,
            row,
            attempt,
        } => {
            field_str(&mut out, "column", column);
            field_str(&mut out, "row", row);
            field_u64(&mut out, "attempt", u64::from(*attempt));
        }
        Event::CellRetried {
            column,
            row,
            attempt,
            delay_ns,
            cause,
        } => {
            field_str(&mut out, "column", column);
            field_str(&mut out, "row", row);
            field_u64(&mut out, "attempt", u64::from(*attempt));
            field_u64(&mut out, "delay_ns", *delay_ns);
            field_str(&mut out, "cause", cause);
        }
        Event::CellFinished {
            column,
            row,
            attempts,
            elapsed_ns,
            completed,
            total,
            outcome,
            cause,
        } => {
            field_str(&mut out, "column", column);
            field_str(&mut out, "row", row);
            field_u64(&mut out, "attempts", u64::from(*attempts));
            field_u64(&mut out, "elapsed_ns", *elapsed_ns);
            field_u64(&mut out, "completed", *completed);
            field_u64(&mut out, "total", *total);
            field_str(&mut out, "outcome", outcome.label());
            field_str(&mut out, "cause", cause);
        }
        Event::TraceSynthesized {
            name,
            events,
            allocated,
        } => {
            field_str(&mut out, "name", name);
            field_u64(&mut out, "events", *events);
            field_u64(&mut out, "allocated", *allocated);
        }
        Event::SweepSubmitted {
            sweep,
            tenant,
            cells,
        } => {
            field_u64(&mut out, "sweep", *sweep);
            field_str(&mut out, "tenant", tenant);
            field_u64(&mut out, "cells", *cells);
        }
        Event::CellLeased {
            sweep,
            cell,
            lease,
            worker,
            tenant,
            attempt,
        } => {
            field_u64(&mut out, "sweep", *sweep);
            field_u64(&mut out, "cell", *cell);
            field_u64(&mut out, "lease", *lease);
            field_str(&mut out, "worker", worker);
            field_str(&mut out, "tenant", tenant);
            field_u64(&mut out, "attempt", u64::from(*attempt));
        }
        Event::CellRecorded {
            sweep,
            cell,
            lease,
            worker,
            tenant,
            ok,
        } => {
            field_u64(&mut out, "sweep", *sweep);
            field_u64(&mut out, "cell", *cell);
            field_u64(&mut out, "lease", *lease);
            field_str(&mut out, "worker", worker);
            field_str(&mut out, "tenant", tenant);
            field_bool(&mut out, "ok", *ok);
        }
        Event::CellRequeued {
            sweep,
            cell,
            lease,
            worker,
            tenant,
            cause,
        } => {
            field_u64(&mut out, "sweep", *sweep);
            field_u64(&mut out, "cell", *cell);
            field_u64(&mut out, "lease", *lease);
            field_str(&mut out, "worker", worker);
            field_str(&mut out, "tenant", tenant);
            field_str(&mut out, "cause", cause);
        }
        Event::SweepDrained {
            sweep,
            tenant,
            failed,
        } => {
            field_u64(&mut out, "sweep", *sweep);
            field_str(&mut out, "tenant", tenant);
            field_u64(&mut out, "failed", *failed);
        }
        Event::CoordinatorRecovered {
            epoch,
            sweeps,
            finalized,
            open,
        } => {
            field_u64(&mut out, "epoch", *epoch);
            field_u64(&mut out, "sweeps", *sweeps);
            field_u64(&mut out, "finalized", *finalized);
            field_u64(&mut out, "open", *open);
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CellOutcome;

    fn samples() -> Vec<Envelope> {
        let events = vec![
            Event::RunStarted {
                policy: "DTBFM".into(),
                source: "cfrac".into(),
                threads: 4,
                block_events: 4096,
            },
            Event::Scavenge {
                collection: 3,
                at: 4_194_304,
                boundary: 3_100_000,
                traced: 120_000,
                surviving: 90_000,
                reclaimed: 30_000,
                tenured: 1_024,
                mem_before: 210_000,
                events: 88_123,
                inverse_queries: 2,
            },
            Event::RunFinished {
                collections: 12,
                ok: true,
                inverse_probes: 37,
            },
            Event::EvalStarted { cells: 54 },
            Event::CellStarted {
                column: "espresso".into(),
                row: "FIXED(1)".into(),
                attempt: 1,
            },
            Event::CellRetried {
                column: "gs".into(),
                row: "DTBMEM".into(),
                attempt: 2,
                delay_ns: 1_500_000,
                cause: "deadline: exceeded 1s at 42".into(),
            },
            Event::CellFinished {
                column: "cfrac".into(),
                row: "FULL".into(),
                attempts: 1,
                elapsed_ns: 9_999,
                completed: 7,
                total: 54,
                outcome: CellOutcome::Completed,
                cause: String::new(),
            },
            Event::CellFinished {
                column: "perl".into(),
                row: "DUAL".into(),
                attempts: 3,
                elapsed_ns: 123,
                completed: 8,
                total: 54,
                outcome: CellOutcome::Failed,
                cause: "weird \"quoted\"\ncause".into(),
            },
            Event::TraceSynthesized {
                name: "synth-server".into(),
                events: 1_000_000,
                allocated: 1 << 32,
            },
            Event::SweepSubmitted {
                sweep: 1,
                tenant: "repro".into(),
                cells: 54,
            },
            Event::CellLeased {
                sweep: 1,
                cell: 9,
                lease: 17,
                worker: "w-1".into(),
                tenant: "repro".into(),
                attempt: 1,
            },
            Event::CellRecorded {
                sweep: 1,
                cell: 9,
                lease: 17,
                worker: "w-1".into(),
                tenant: "repro".into(),
                ok: true,
            },
            Event::CellRequeued {
                sweep: 1,
                cell: 10,
                lease: 0,
                worker: String::new(),
                tenant: "repro".into(),
                cause: "lease expired".into(),
            },
            Event::SweepDrained {
                sweep: 1,
                tenant: "repro".into(),
                failed: 0,
            },
            Event::CoordinatorRecovered {
                epoch: 3,
                sweeps: 2,
                finalized: 11,
                open: 5,
            },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| Envelope {
                seq: i as u64 + 1,
                scope: (i as u64) % 3,
                event,
            })
            .collect()
    }

    #[test]
    fn json_frames_every_variant_as_one_line() {
        for env in samples() {
            let json = encode_json(&env);
            let head = format!(
                "{{\"seq\":{},\"scope\":{},\"type\":\"{}\"",
                env.seq,
                env.scope,
                env.event.tag()
            );
            assert!(json.starts_with(&head), "{json}");
            assert!(json.ends_with('}'), "{json}");
            assert!(!json.bytes().any(|b| b < 0x20), "{json}");
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let env = Envelope {
            seq: 42,
            scope: 7,
            event: Event::Scavenge {
                collection: 0,
                at: 1_048_576,
                boundary: 0,
                traced: 10,
                surviving: 10,
                reclaimed: 5,
                tenured: 0,
                mem_before: 15,
                events: 99,
                inverse_queries: 1,
            },
        };
        assert_eq!(
            encode_json(&env),
            "{\"seq\":42,\"scope\":7,\"type\":\"scavenge\",\"collection\":0,\
             \"at\":1048576,\"boundary\":0,\"traced\":10,\"surviving\":10,\
             \"reclaimed\":5,\"tenured\":0,\"mem_before\":15,\"events\":99,\
             \"inverse_queries\":1}"
        );
    }

    #[test]
    fn json_escapes_strings() {
        let env = Envelope {
            seq: 1,
            scope: 0,
            event: Event::CellRetried {
                column: "a\"b".into(),
                row: "c\\d".into(),
                attempt: 1,
                delay_ns: 0,
                cause: "line1\nline2\ttab\u{1}ctl".into(),
            },
        };
        let json = encode_json(&env);
        assert!(json.contains("\"a\\\"b\""));
        assert!(json.contains("\"c\\\\d\""));
        assert!(json.contains("line1\\nline2\\ttab\\u0001ctl"));

        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
