//! The global event bus: a bounded std channel fanned out to registered
//! sinks by a single drainer thread.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** [`emit`] is a single relaxed load
//!    and branch when no sink is installed — the event-constructing
//!    closure never runs, no allocation, no atomics beyond the flag.
//!    The drainer thread does not exist until the first sink is
//!    installed.
//! 2. **Never block the engine.** Producers `try_send` into a bounded
//!    [`sync_channel`]. When the queue is full the event is *dropped
//!    and counted*, never waited on: telemetry must not perturb the
//!    simulation it observes.
//! 3. **Ordered delivery.** Sequence numbers are assigned from one
//!    global counter at emit time; the drainer delivers batches in queue
//!    order, so a single-threaded emitter observes its own events in
//!    order and gaps in `seq` are an explicit drop signal.
//!
//! The drainer polls: it takes what is queued, or sleeps 1 ms when
//! nothing is. A drainer blocked in `recv` would make every send wake
//! it, and engine runs emit a span about every 100 µs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::event::{Envelope, Event};
use crate::sink::Sink;

/// Queue capacity in envelopes; 64Ki envelopes absorb multi-millisecond
/// sink stalls at engine emit rates.
const QUEUE_CAPACITY: usize = 1 << 16;

/// Max envelopes handed to sinks per batch.
const DRAIN_BATCH: usize = 1024;

/// Bus-wide counters, exposed by [`stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusStats {
    /// Envelopes assigned a sequence number (emitted while enabled).
    pub emitted: u64,
    /// Envelopes handed to sinks by the drainer.
    pub delivered: u64,
    /// Envelopes dropped because the queue was full.
    pub dropped: u64,
}

struct Bus {
    queue: SyncSender<Envelope>,
    seq: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    sinks: Mutex<Vec<(u64, Arc<dyn Sink>)>>,
    sink_count: AtomicUsize,
    next_sink_id: AtomicU64,
}

static BUS: OnceLock<&'static Bus> = OnceLock::new();

fn bus() -> &'static Bus {
    BUS.get_or_init(|| {
        let (queue, rx) = sync_channel(QUEUE_CAPACITY);
        let bus: &'static Bus = Box::leak(Box::new(Bus {
            queue,
            seq: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            sinks: Mutex::new(Vec::new()),
            sink_count: AtomicUsize::new(0),
            next_sink_id: AtomicU64::new(1),
        }));
        std::thread::Builder::new()
            .name("dtb-obs-drain".into())
            .spawn(move || drain_loop(bus, rx))
            .expect("spawn obs drainer");
        bus
    })
}

fn drain_loop(bus: &'static Bus, rx: Receiver<Envelope>) {
    let mut batch: Vec<Envelope> = Vec::with_capacity(DRAIN_BATCH);
    loop {
        batch.clear();
        batch.extend(rx.try_iter().take(DRAIN_BATCH));
        if batch.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        // Snapshot the sinks so `accept` runs outside the lock: a slow
        // sink must not block install/uninstall.
        let sinks: Vec<Arc<dyn Sink>> = {
            let guard = bus.sinks.lock().unwrap_or_else(|e| e.into_inner());
            guard.iter().map(|(_, s)| Arc::clone(s)).collect()
        };
        for sink in &sinks {
            // A panicking sink loses this batch; the drainer and every
            // other sink carry on.
            let _ = catch_unwind(AssertUnwindSafe(|| sink.accept(&batch)));
        }
        bus.delivered
            .fetch_add(batch.len() as u64, Ordering::Release);
    }
}

/// True when at least one sink is installed (same flag the `note_*`
/// facade in `dtb-core` reads).
#[inline]
pub fn enabled() -> bool {
    dtb_core::obs::enabled()
}

/// Emits an event. When no sink is installed this is one relaxed load
/// and a branch: `make` never runs. When enabled, the event is stamped
/// with the next global sequence number and the current thread's run
/// scope and queued (never blocking; dropped and counted if the queue
/// is full).
#[inline]
pub fn emit<F: FnOnce() -> Event>(make: F) {
    if !dtb_core::obs::enabled() {
        return;
    }
    emit_always(make());
}

/// The enabled-path body of [`emit`], out of line so the disabled fast
/// path stays tiny.
#[cold]
fn emit_always(event: Event) {
    let bus = bus();
    let seq = bus.seq.fetch_add(1, Ordering::Relaxed) + 1;
    let env = Envelope {
        seq,
        scope: crate::scope::current(),
        event,
    };
    if bus.queue.try_send(env).is_err() {
        bus.dropped.fetch_add(1, Ordering::Release);
    }
}

/// Current bus counters.
pub fn stats() -> BusStats {
    let bus = bus();
    BusStats {
        emitted: bus.seq.load(Ordering::Acquire),
        delivered: bus.delivered.load(Ordering::Acquire),
        dropped: bus.dropped.load(Ordering::Acquire),
    }
}

/// Blocks until everything emitted before this call has been delivered
/// to sinks (or dropped), or until ~5 s have passed. Returns `true` if
/// fully drained.
pub fn flush() -> bool {
    let bus = bus();
    let target = bus.seq.load(Ordering::Acquire);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let done = bus.delivered.load(Ordering::Acquire) + bus.dropped.load(Ordering::Acquire);
        if done >= target {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Keeps a sink installed; uninstalls (after a flush) on drop.
#[must_use = "dropping the guard uninstalls the sink"]
pub struct SinkGuard {
    id: u64,
}

/// Installs a sink and enables instrumentation everywhere. The sink
/// stays installed until the returned guard is dropped; dropping the
/// last guard disables instrumentation again.
pub fn install(sink: Arc<dyn Sink>) -> SinkGuard {
    let bus = bus();
    let id = bus.next_sink_id.fetch_add(1, Ordering::Relaxed);
    bus.sinks
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((id, sink));
    if bus.sink_count.fetch_add(1, Ordering::SeqCst) == 0 {
        dtb_core::obs::set_enabled(true);
    }
    SinkGuard { id }
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let bus = bus();
        if bus.sink_count.fetch_sub(1, Ordering::SeqCst) == 1 {
            dtb_core::obs::set_enabled(false);
        }
        // Deliver everything emitted while we were installed. Events
        // racing with the disable flip above may still be queued; they
        // go to whatever sinks remain (best effort).
        flush();
        bus.sinks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|(id, _)| *id != self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CaptureSink;
    use std::sync::MutexGuard;

    /// The bus is process-global; tests that install sinks serialize
    /// through this.
    pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn ev(n: u64) -> Event {
        Event::EvalStarted { cells: n }
    }

    #[test]
    fn install_enables_emit_delivers_and_uninstall_disables() {
        let _serial = test_lock();
        assert!(!enabled());
        let mut ran = false;
        emit(|| {
            ran = true;
            ev(0)
        });
        assert!(!ran, "disabled emit must not build the event");

        let sink = Arc::new(CaptureSink::default());
        let before = stats().emitted;
        {
            let _guard = install(Arc::clone(&sink) as Arc<dyn Sink>);
            assert!(enabled());
            for i in 0..100 {
                emit(|| ev(i));
            }
            assert!(flush());
        }
        assert!(!enabled());
        let got = sink.take();
        assert_eq!(got.len(), 100);
        // Sequence numbers are contiguous for a single-threaded emitter.
        for (i, env) in got.iter().enumerate() {
            assert_eq!(env.seq, before + 1 + i as u64);
            assert_eq!(env.event, ev(i as u64));
        }
    }

    #[test]
    fn queue_preserves_each_scopes_order_under_concurrent_producers() {
        let _serial = test_lock();
        let sink = Arc::new(CaptureSink::default());
        let guard = install(Arc::clone(&sink) as Arc<dyn Sink>);
        let dropped = stats().dropped;
        let (producers, per) = (4u64, 5_000u64);
        let scopes: Vec<u64> = (0..producers)
            .map(|_| crate::scope::next_run_id())
            .collect();
        let handles: Vec<_> = scopes
            .iter()
            .map(|&scope| {
                std::thread::spawn(move || {
                    let _run = crate::scope::RunScope::enter(scope);
                    for i in 0..per {
                        emit(|| ev(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(flush());
        drop(guard);
        assert_eq!(stats().dropped, dropped, "nothing may drop below capacity");
        let got = sink.take();
        for scope in scopes {
            let mine: Vec<&Envelope> = got.iter().filter(|e| e.scope == scope).collect();
            assert_eq!(mine.len() as u64, per, "scope {scope} lost events");
            for (i, env) in mine.iter().enumerate() {
                assert_eq!(env.event, ev(i as u64), "scope {scope} reordered payloads");
            }
            assert!(
                mine.windows(2).all(|w| w[0].seq < w[1].seq),
                "scope {scope} reordered seqs"
            );
        }
    }

    #[test]
    fn full_queue_drops_instead_of_blocking() {
        let _serial = test_lock();
        // The first batch parks the drainer inside `accept` until the
        // test releases it (or 10 s pass, so a blocking emit fails the
        // test instead of hanging it).
        let (entered_tx, entered) = std::sync::mpsc::channel::<()>();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new(Some((entered_tx, release_rx)));
        let held = install(Arc::new(crate::sink::FnSink(move |_: &Envelope| {
            let first = gate.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some((entered_tx, release_rx)) = first {
                entered_tx.send(()).unwrap();
                let _ = release_rx.recv_timeout(Duration::from_secs(10));
            }
        })));
        let sink = Arc::new(CaptureSink::default());
        let guard = install(Arc::clone(&sink) as Arc<dyn Sink>);
        let dropped = stats().dropped;

        emit(|| ev(0));
        entered
            .recv_timeout(Duration::from_secs(5))
            .expect("drainer took the first event");
        let start = Instant::now();
        for i in 0..QUEUE_CAPACITY as u64 + 10 {
            emit(|| ev(i + 1));
        }
        assert!(start.elapsed() < Duration::from_secs(5), "emit blocked");
        assert_eq!(stats().dropped - dropped, 10);

        release.send(()).unwrap();
        assert!(flush());
        drop(guard);
        drop(held);
        let got = sink.take();
        assert_eq!(got.len(), QUEUE_CAPACITY + 1);
        for (i, env) in got.iter().enumerate() {
            assert_eq!(env.event, ev(i as u64));
        }
    }

    #[test]
    fn a_panicking_sink_does_not_stop_delivery() {
        let _serial = test_lock();
        let panicky = install(Arc::new(crate::sink::FnSink(|_: &Envelope| {
            panic!("sink failure");
        })));
        let sink = Arc::new(CaptureSink::default());
        let guard = install(Arc::clone(&sink) as Arc<dyn Sink>);
        emit(|| ev(1));
        assert!(flush(), "delivery stalled after the first panic");
        emit(|| ev(2));
        assert!(flush(), "delivery stalled after the second panic");
        drop(guard);
        drop(panicky);
        let got: Vec<Event> = sink.take().into_iter().map(|e| e.event).collect();
        assert_eq!(got, vec![ev(1), ev(2)]);
    }

    #[test]
    fn two_sinks_both_receive() {
        let _serial = test_lock();
        let a = Arc::new(CaptureSink::default());
        let b = Arc::new(CaptureSink::default());
        let _ga = install(Arc::clone(&a) as Arc<dyn Sink>);
        let _gb = install(Arc::clone(&b) as Arc<dyn Sink>);
        emit(|| ev(7));
        assert!(flush());
        assert_eq!(a.take().len(), 1);
        assert_eq!(b.take().len(), 1);
    }
}
