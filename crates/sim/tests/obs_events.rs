//! Event-order determinism for the observability bus: the engine's
//! per-event reference path and its block-structured drive at any block
//! size must emit the **same scavenge event sequence**: same relative
//! sequence numbers, same payloads, in the same order.
//!
//! This is the telemetry face of the engine's bit-identical determinism
//! contract (`tests/block_differential.rs`): the scavenge span payload
//! carries only engine-invariant quantities (trigger clock, outcome
//! bytes, inverse-query *call* count), so a dashboard fed by a blocked
//! run is indistinguishable from one fed by the reference per-event run.
//!
//! The bus is process-global, so the tests in this file serialize on a
//! mutex and filter captured envelopes by run scope.

use dtb_core::policy::{PolicyConfig, PolicyKind};
use dtb_obs::{CaptureSink, Envelope, Event};
use dtb_sim::engine::{Sim, SimConfig};
use dtb_trace::programs::Program;
use std::sync::{Arc, Mutex, MutexGuard};

/// A named engine configuration under test.
type Variant = (&'static str, Box<dyn FnOnce(Sim) -> Sim>);

/// Serializes bus-touching tests within this binary.
fn bus_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One captured run: the envelopes of a single engine execution, in bus
/// order, filtered to the run's own scope.
struct CapturedRun {
    /// The run's scope id.
    scope: u64,
    /// Every envelope the run emitted, bus order.
    envelopes: Vec<Envelope>,
}

impl CapturedRun {
    /// The scavenge events with their sequence numbers *relative to the
    /// run's first envelope* — the shape that must be identical across
    /// execution strategies (absolute seqs are bus-global and depend on
    /// what ran before).
    fn scavenges(&self) -> Vec<(u64, Event)> {
        let first = self.envelopes.first().map(|e| e.seq).unwrap_or(0);
        self.envelopes
            .iter()
            .filter(|e| matches!(e.event, Event::Scavenge { .. }))
            .map(|e| (e.seq - first, e.event.clone()))
            .collect()
    }
}

/// Runs one engine configuration over `program`'s trace with a capture
/// sink installed and returns the run's own envelopes.
fn capture_run(
    program: Program,
    kind: PolicyKind,
    configure: impl FnOnce(Sim) -> Sim,
) -> CapturedRun {
    let trace = program.compiled();
    let sink = Arc::new(CaptureSink::default());
    let guard = dtb_obs::install(sink.clone());
    let mut policy = kind.build(&PolicyConfig::paper());
    configure(Sim::new(SimConfig::paper()))
        .run_trace(&trace, &mut policy)
        .expect("instrumented run");
    dtb_obs::flush();
    drop(guard);
    let all = sink.take();
    let scope = all
        .iter()
        .find(|e| matches!(e.event, Event::RunStarted { .. }))
        .map(|e| e.scope)
        .expect("run emitted a run_started span");
    let envelopes: Vec<Envelope> = all.into_iter().filter(|e| e.scope == scope).collect();
    CapturedRun { scope, envelopes }
}

/// Per-event and block (several block sizes) runs all emit the same
/// scavenge sequence — relative seq and full payload.
#[test]
fn engines_emit_identical_scavenge_sequences() {
    let _guard = bus_lock();
    for kind in [PolicyKind::DtbMem, PolicyKind::Fixed1] {
        let reference = capture_run(Program::Cfrac, kind, |sim| sim.block_events(1));
        let expected = reference.scavenges();
        assert!(
            !expected.is_empty(),
            "{kind}: the reference run must scavenge at least once"
        );
        let variants: [Variant; 3] = [
            ("block(default)", Box::new(|sim| sim)),
            ("block(7)", Box::new(|sim| sim.block_events(7))),
            ("block(4096)", Box::new(|sim| sim.block_events(4096))),
        ];
        for (label, configure) in variants {
            let run = capture_run(Program::Cfrac, kind, configure);
            assert_eq!(
                run.scavenges(),
                expected,
                "{kind}: {label} scavenge event sequence diverges from per-event"
            );
        }
    }
}

/// A run's envelopes are contiguous on the bus (no drops, no foreign
/// interleavings under the lock), all share the run's scope, and the
/// span brackets are in place: `run_started` first, `run_finished`
/// last, scavenges strictly ordered by `collection`.
#[test]
fn run_envelopes_are_contiguous_scoped_and_bracketed() {
    let _guard = bus_lock();
    let dropped_before = dtb_obs::stats().dropped;
    let run = capture_run(Program::Cfrac, PolicyKind::DtbMem, |sim| sim);
    assert_eq!(
        dtb_obs::stats().dropped,
        dropped_before,
        "the capture must not overflow the bus queue"
    );
    assert!(run.scope > 0, "run scopes are nonzero");
    let seqs: Vec<u64> = run.envelopes.iter().map(|e| e.seq).collect();
    for pair in seqs.windows(2) {
        assert_eq!(pair[1], pair[0] + 1, "gap in the run's envelope seqs");
    }
    assert!(
        matches!(
            run.envelopes.first().map(|e| &e.event),
            Some(Event::RunStarted { .. })
        ),
        "run_started opens the span"
    );
    assert!(
        matches!(
            run.envelopes.last().map(|e| &e.event),
            Some(Event::RunFinished { .. })
        ),
        "run_finished closes the span"
    );
    let collections: Vec<u64> = run
        .envelopes
        .iter()
        .filter_map(|e| match e.event {
            Event::Scavenge { collection, .. } => Some(collection),
            _ => None,
        })
        .collect();
    let expected: Vec<u64> = (0..collections.len() as u64).collect();
    assert_eq!(collections, expected, "collections number 0..n in order");
}

/// A pass runs its lanes on one thread, yet emits one bracketed scope
/// per lane: each scope opens with its own `run_started` and closes with
/// its own `run_finished`, and everything in between — the scavenge
/// payloads, the probe total — equals that policy's single run.
#[test]
fn a_pass_emits_one_bracketed_scope_per_lane() {
    let _guard = bus_lock();
    let trace = Program::Cfrac.compiled();
    let sink = Arc::new(CaptureSink::default());
    let guard = dtb_obs::install(sink.clone());
    let cfg = PolicyConfig::paper();
    let mut policies: Vec<_> = PolicyKind::ALL.iter().map(|k| k.build(&cfg)).collect();
    for run in Sim::new(SimConfig::paper()).run_trace_lanes(&trace, &mut policies) {
        run.expect("lane run");
    }
    dtb_obs::flush();
    drop(guard);
    let all = sink.take();
    let scopes: Vec<u64> = all
        .iter()
        .filter(|e| matches!(e.event, Event::RunStarted { .. }))
        .map(|e| e.scope)
        .collect();
    assert_eq!(scopes.len(), PolicyKind::ALL.len(), "one scope per lane");
    for (kind, scope) in PolicyKind::ALL.into_iter().zip(scopes) {
        let lane: Vec<&Event> = all
            .iter()
            .filter(|e| e.scope == scope)
            .map(|e| &e.event)
            .collect();
        let single = capture_run(Program::Cfrac, kind, |sim| sim);
        let single_events: Vec<&Event> = single.envelopes.iter().map(|e| &e.event).collect();
        assert!(matches!(lane.first(), Some(Event::RunStarted { .. })));
        assert!(matches!(
            lane.last(),
            Some(Event::RunFinished { ok: true, .. })
        ));
        let scavenges = |events: &[&Event]| -> Vec<Event> {
            events
                .iter()
                .filter(|e| matches!(e, Event::Scavenge { .. }))
                .map(|e| (*e).clone())
                .collect()
        };
        assert!(!scavenges(&lane).is_empty(), "{kind}: no scavenge");
        assert_eq!(scavenges(&lane), scavenges(&single_events), "{kind}");
        assert_eq!(lane.first(), single_events.first(), "{kind}: run_started");
        assert_eq!(lane.last(), single_events.last(), "{kind}: run_finished");
        assert_eq!(lane.len(), single_events.len(), "{kind}: foreign events");
    }
}
