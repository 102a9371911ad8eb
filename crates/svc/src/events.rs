//! The coordinator's server-push event channel.
//!
//! [`EventLog`] is a bounded, in-memory sequence of JSON event lines.
//! The coordinator publishes one line per lifecycle transition (sweep
//! submitted, cell leased / recorded / requeued, sweep drained) plus
//! worker-relayed engine events; each `GET /events` connection streams
//! the log over chunked transfer from a caller-chosen sequence number,
//! waiting (with heartbeats) when it catches up. The log is a live
//! window, not a durable record — a follower that falls more than
//! [`EventLog::capacity`] events behind skips forward (the gap is
//! visible as a jump in `seq`); durable state lives in the sweep log
//! and the journals.
//!
//! [`follow_events`] is the matching client: it tails a coordinator's
//! stream and hands each event line to a callback, which is how the
//! CLIs implement `--follow` and how the smoke suites watch a run.
//!
//! # Epochs
//!
//! Sequence numbers restart at 1 with the process, so a bare `seq`
//! cursor is ambiguous across a coordinator restart. Every line is
//! therefore tagged with the log's **epoch** (the coordinator's
//! incarnation number, from the sweep log) ahead of its `seq`:
//! `{"epoch":3,"seq":17,...}`. A follower resumes from an
//! [`EventCursor`] — `(epoch, seq)` — and [`follow_events_resilient`]
//! rides out restarts: it reconnects with capped jittered backoff,
//! re-requests from its cursor, and drops any line it has already
//! delivered, so a restart produces neither duplicates nor silent gaps
//! in what the callback sees.

use crate::http::{read_chunked_head, write_request, ChunkedReader, Request};
use dtb_sim::RetryPolicy;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default number of event lines the log retains.
pub const DEFAULT_CAPACITY: usize = 8192;

/// The heartbeat line idle streams emit so dead followers are detected
/// (and so followers can distinguish "quiet" from "stuck").
pub const HEARTBEAT: &str = "{\"type\":\"heartbeat\"}";

/// A follower's resume position: which incarnation of the coordinator
/// it last heard from, and the first sequence number it still wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventCursor {
    /// Epoch of the last line delivered (0 = never connected).
    pub epoch: u64,
    /// First sequence number wanted within that epoch.
    pub seq: u64,
}

impl EventCursor {
    /// The cursor of a follower that has seen nothing yet: any epoch,
    /// from the start of the retained window.
    pub fn start() -> EventCursor {
        EventCursor { epoch: 0, seq: 1 }
    }
}

/// Parses the `{"epoch":E,"seq":S,` prefix the coordinator frames every
/// event line with. `None` for lines without one (heartbeats, relayed
/// payloads from older builds).
pub fn line_cursor(line: &str) -> Option<EventCursor> {
    let rest = line.strip_prefix("{\"epoch\":")?;
    let comma = rest.find(',')?;
    let epoch: u64 = rest[..comma].parse().ok()?;
    let rest = rest[comma + 1..].strip_prefix("\"seq\":")?;
    let comma = rest.find(',')?;
    let seq: u64 = rest[..comma].parse().ok()?;
    Some(EventCursor { epoch, seq })
}

/// A bounded, seq-numbered log of JSON event lines with blocking reads.
pub struct EventLog {
    inner: Mutex<LogInner>,
    wake: Condvar,
    capacity: usize,
    /// The coordinator incarnation this log belongs to. Immutable: a
    /// restart builds a new log under a new epoch.
    epoch: u64,
}

struct LogInner {
    /// Sequence number the *next* published event will get (1-based).
    next_seq: u64,
    buf: VecDeque<(u64, String)>,
    closed: bool,
}

/// One batch handed to a follower by [`EventLog::read_from`].
pub struct EventBatch {
    /// Where to resume: the first sequence number *not* in `lines`.
    pub next: u64,
    /// Event lines in sequence order (without trailing newlines).
    pub lines: Vec<String>,
    /// True once the log is closed and fully drained — the stream ends.
    pub closed: bool,
}

impl EventLog {
    /// An empty log retaining at most `capacity` lines, under epoch 1
    /// (a coordinator with no durable sweep log never restarts into the
    /// same history, so one epoch suffices).
    pub fn new(capacity: usize) -> EventLog {
        EventLog::with_epoch(capacity, 1)
    }

    /// An empty log under an explicit epoch — the coordinator's
    /// incarnation number from the sweep log.
    pub fn with_epoch(capacity: usize, epoch: u64) -> EventLog {
        EventLog {
            inner: Mutex::new(LogInner {
                next_seq: 1,
                buf: VecDeque::new(),
                closed: false,
            }),
            wake: Condvar::new(),
            capacity: capacity.max(1),
            epoch,
        }
    }

    /// The retention window, in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The epoch every line of this log is tagged with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sequence number the next published event will carry.
    pub fn next_seq(&self) -> u64 {
        self.lock().next_seq
    }

    /// Publishes one event line: assigns the next sequence number, hands
    /// `(epoch, seq)` to `make` (so the line can embed its own cursor),
    /// appends the line (dropping the oldest past capacity), and wakes
    /// all waiting followers. Returns the assigned sequence number.
    pub fn publish_with(&self, make: impl FnOnce(u64, u64) -> String) -> u64 {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let line = make(self.epoch, seq);
        inner.buf.push_back((seq, line));
        while inner.buf.len() > self.capacity {
            inner.buf.pop_front();
        }
        drop(inner);
        self.wake.notify_all();
        seq
    }

    /// Returns the event lines with sequence numbers `>= from`, waiting
    /// up to `wait` for one to appear when the follower is caught up. A
    /// `from` older than the retention window skips forward to the
    /// oldest retained line.
    pub fn read_from(&self, from: u64, wait: Duration) -> EventBatch {
        let mut inner = self.lock();
        if !inner.closed && !inner.buf.iter().any(|(seq, _)| *seq >= from) {
            let (guard, _timeout) = self
                .wake
                .wait_timeout(inner, wait)
                .unwrap_or_else(|p| p.into_inner());
            inner = guard;
        }
        let lines: Vec<String> = inner
            .buf
            .iter()
            .filter(|(seq, _)| *seq >= from)
            .map(|(_, line)| line.clone())
            .collect();
        let next = inner.next_seq.max(from);
        EventBatch {
            next,
            lines,
            closed: inner.closed,
        }
    }

    /// Closes the log: followers drain what is buffered and then see
    /// end-of-stream.
    pub fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// True when `line` is safe to splice verbatim into a framed JSON event:
/// a single-line `{...}` object with no control characters and a sane
/// length. This is a framing check, not a JSON parse — the coordinator
/// relays worker event lines opaquely.
pub(crate) fn is_clean_event_line(line: &str) -> bool {
    line.len() <= 4096
        && line.starts_with('{')
        && line.ends_with('}')
        && !line.bytes().any(|b| b < 0x20)
}

/// Tails a coordinator's `GET /events` stream, invoking `on_line` for
/// every event line (heartbeats are filtered out). Returns when the
/// stream ends, `stop` becomes true, or `on_line` returns `false`.
///
/// # Errors
///
/// Propagates connection and framing failures; a clean end-of-stream is
/// `Ok(())`.
pub fn follow_events(
    addr: &str,
    from: u64,
    stop: &AtomicBool,
    mut on_line: impl FnMut(&str) -> bool,
) -> std::io::Result<()> {
    tail_session(addr, &format!("/events?from={from}"), stop, |line| {
        if line == HEARTBEAT {
            true
        } else {
            on_line(line)
        }
    })
    .map(|_| ())
}

/// One `GET` streaming session: connects, requests `path`, and hands
/// every non-empty line (heartbeats included) to `on_raw`. `Ok(true)`
/// when `on_raw` asked to stop, `Ok(false)` on clean end-of-stream.
fn tail_session(
    addr: &str,
    path: &str,
    stop: &AtomicBool,
    mut on_raw: impl FnMut(&str) -> bool,
) -> std::io::Result<bool> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut stream = stream;
    let req = Request {
        method: "GET".to_string(),
        path: path.to_string(),
        body: Vec::new(),
    };
    write_request(&mut stream, &req).map_err(wire_to_io)?;
    let mut head_src = BufReader::new(stream);
    let status = read_chunked_head(&mut head_src).map_err(wire_to_io)?;
    if status != 200 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("coordinator answered {status} to /events"),
        ));
    }
    let mut lines = BufReader::new(ChunkedReader::new(head_src));
    let mut buf = String::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(true);
        }
        match lines.read_line(&mut buf) {
            Ok(0) => return Ok(false),
            Ok(_) => {
                let line = buf.trim_end_matches('\n');
                if !line.is_empty() && !on_raw(line) {
                    return Ok(true);
                }
                buf.clear();
            }
            // Socket read timeout: check the stop flag and keep tailing.
            // A partially-read line stays accumulated in `buf`.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
}

/// Tails `GET /events` across coordinator restarts. Where
/// [`follow_events`] gives up when its one connection dies, this
/// follower reconnects with capped jittered backoff and resumes from
/// its `(epoch, seq)` cursor; lines already delivered (same epoch,
/// older seq) are dropped, so the callback sees each event exactly
/// once even when the server replays its window.
///
/// End-of-stream is treated as a possible restart, not a reason to
/// return — the follower keeps trying until `stop` is set, `on_line`
/// returns `false`, or the coordinator stays unreachable (no line, not
/// even a heartbeat) for longer than `max_downtime` in a row.
///
/// # Errors
///
/// A continuous outage exceeding `max_downtime`.
pub fn follow_events_resilient(
    addr: &str,
    from: EventCursor,
    max_downtime: Duration,
    stop: &AtomicBool,
    mut on_line: impl FnMut(&str) -> bool,
) -> std::io::Result<()> {
    let mut cursor = from;
    let retry = RetryPolicy::retries(u32::MAX);
    let salt = dtb_trace::ckp::checksum(addr.as_bytes());
    let mut outage_start: Option<Instant> = None;
    let mut attempt: u32 = 0;
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let path = format!("/events?from={}&epoch={}", cursor.seq, cursor.epoch);
        let alive = std::cell::Cell::new(false);
        let session = tail_session(addr, &path, stop, |line| {
            alive.set(true);
            if line == HEARTBEAT {
                return true;
            }
            if let Some(at) = line_cursor(line) {
                if at.epoch == cursor.epoch && at.seq < cursor.seq {
                    return true; // already delivered before the reconnect
                }
                cursor = EventCursor {
                    epoch: at.epoch,
                    seq: at.seq + 1,
                };
            }
            on_line(line)
        });
        if alive.get() {
            outage_start = None;
            attempt = 0;
        }
        match session {
            Ok(true) => return Ok(()),
            // Clean end-of-stream or a dropped connection: either way,
            // the coordinator may be restarting — keep knocking.
            Ok(false) | Err(_) => {
                let since = *outage_start.get_or_insert_with(Instant::now);
                if since.elapsed() > max_downtime {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!(
                            "coordinator {addr} unreachable for {:?} (budget {max_downtime:?})",
                            since.elapsed()
                        ),
                    ));
                }
                std::thread::sleep(retry.delay(salt, attempt));
                attempt = attempt.saturating_add(1);
            }
        }
    }
}

fn wire_to_io(e: crate::http::WireError) -> std::io::Error {
    match e {
        crate::http::WireError::Io(e) => e,
        other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn publish_assigns_monotone_seqs_and_read_returns_them() {
        let log = EventLog::new(16);
        let frame = |epoch: u64, seq: u64| format!("{{\"epoch\":{epoch},\"seq\":{seq},\"x\":0}}");
        assert_eq!(log.publish_with(frame), 1);
        assert_eq!(log.publish_with(frame), 2);
        let batch = log.read_from(1, Duration::ZERO);
        assert_eq!(
            batch.lines,
            vec![
                "{\"epoch\":1,\"seq\":1,\"x\":0}",
                "{\"epoch\":1,\"seq\":2,\"x\":0}"
            ]
        );
        assert_eq!(batch.next, 3);
        assert!(!batch.closed);
        // Resuming from `next` sees nothing new.
        assert!(log.read_from(batch.next, Duration::ZERO).lines.is_empty());
    }

    #[test]
    fn capacity_drops_oldest_and_followers_skip_forward() {
        let log = EventLog::new(2);
        for _ in 0..5 {
            log.publish_with(|_, seq| format!("e{seq}"));
        }
        let batch = log.read_from(1, Duration::ZERO);
        assert_eq!(batch.lines, vec!["e4", "e5"]);
        assert_eq!(batch.next, 6);
    }

    #[test]
    fn epoch_tags_every_published_line() {
        let log = EventLog::with_epoch(4, 7);
        assert_eq!(log.epoch(), 7);
        log.publish_with(|epoch, seq| format!("{{\"epoch\":{epoch},\"seq\":{seq},\"x\":0}}"));
        let batch = log.read_from(1, Duration::ZERO);
        let cursor = line_cursor(&batch.lines[0]).expect("cursor parses");
        assert_eq!(cursor, EventCursor { epoch: 7, seq: 1 });
    }

    #[test]
    fn line_cursor_rejects_unframed_lines() {
        assert_eq!(line_cursor(HEARTBEAT), None);
        assert_eq!(line_cursor("{\"seq\":3,\"x\":0}"), None);
        assert_eq!(
            line_cursor("{\"epoch\":2,\"seq\":9,\"x\":0}"),
            Some(EventCursor { epoch: 2, seq: 9 })
        );
        assert_eq!(line_cursor("{\"epoch\":nope,\"seq\":9}"), None);
    }

    #[test]
    fn read_blocks_until_publish_or_close() {
        let log = Arc::new(EventLog::new(16));
        let publisher = {
            let log = Arc::clone(&log);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                log.publish_with(|_, seq| format!("late{seq}"));
            })
        };
        let batch = log.read_from(1, Duration::from_secs(5));
        assert_eq!(batch.lines, vec!["late1"]);
        publisher.join().unwrap();

        log.close();
        let batch = log.read_from(batch.next, Duration::from_secs(5));
        assert!(batch.lines.is_empty());
        assert!(batch.closed);
    }

    #[test]
    fn clean_event_line_gate() {
        assert!(is_clean_event_line("{\"type\":\"scavenge\"}"));
        assert!(!is_clean_event_line("not json"));
        assert!(!is_clean_event_line("{\"a\":\n1}"));
        assert!(!is_clean_event_line(&format!(
            "{{\"a\":\"{}\"}}",
            "x".repeat(5000)
        )));
    }
}
