//! Sinks: where delivered event batches go.
//!
//! The drainer thread calls [`Sink::accept`] with batches in bus
//! order. Sinks run off the hot path but should still be quick — a
//! stalled sink fills the bus queue until events start dropping
//! (counted, never blocking the emitters). A sink that panics loses
//! only the batch it panicked on.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::encode::encode_json;
use crate::event::Envelope;

/// A consumer of delivered event batches.
pub trait Sink: Send + Sync + 'static {
    /// Receives one batch in bus order.
    fn accept(&self, batch: &[Envelope]);
}

/// Buffers every envelope in memory; used by tests and by callers that
/// post-process a run's events (e.g. the worker's relay).
#[derive(Default)]
pub struct CaptureSink {
    buf: Mutex<Vec<Envelope>>,
}

impl CaptureSink {
    /// Drains and returns everything captured so far.
    pub fn take(&self) -> Vec<Envelope> {
        std::mem::take(&mut self.buf.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Number of envelopes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been captured (or everything was taken).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for CaptureSink {
    fn accept(&self, batch: &[Envelope]) {
        self.buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(batch);
    }
}

/// Calls a closure per envelope. The closure must be quick; it runs on
/// the drainer thread.
pub struct FnSink<F>(pub F);

impl<F: Fn(&Envelope) + Send + Sync + 'static> Sink for FnSink<F> {
    fn accept(&self, batch: &[Envelope]) {
        for env in batch {
            (self.0)(env);
        }
    }
}

/// Writes every envelope to a file as JSON lines.
pub struct FileSink {
    writer: Mutex<BufWriter<File>>,
}

impl FileSink {
    /// Creates (truncating) the capture file.
    pub fn create(path: &Path) -> io::Result<FileSink> {
        let file = File::create(path)?;
        Ok(FileSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Sink for FileSink {
    fn accept(&self, batch: &[Envelope]) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let result = (|| -> io::Result<()> {
            for env in batch {
                w.write_all(encode_json(env).as_bytes())?;
                w.write_all(b"\n")?;
            }
            // Flush per batch so `--events PATH` captures survive an
            // abrupt exit; batches are large enough to amortize this.
            w.flush()
        })();
        if let Err(err) = result {
            eprintln!("dtb-obs: capture write failed: {err}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn env(seq: u64) -> Envelope {
        Envelope {
            seq,
            scope: 0,
            event: Event::EvalStarted { cells: seq },
        }
    }

    #[test]
    fn capture_sink_accumulates_and_drains() {
        let sink = CaptureSink::default();
        sink.accept(&[env(1), env(2)]);
        sink.accept(&[env(3)]);
        assert_eq!(sink.len(), 3);
        let got = sink.take();
        assert_eq!(got.len(), 3);
        assert!(sink.is_empty());
    }

    #[test]
    fn file_sink_writes_json_lines() {
        let dir = std::env::temp_dir().join(format!("dtb-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Every capture path writes JSON lines, whatever its extension.
        for ext in ["jsonl", "bin"] {
            let path = dir.join("events").with_extension(ext);
            let sink = FileSink::create(&path).unwrap();
            sink.accept(&[env(1), env(2)]);
            let text = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 2, "{ext}");
            assert!(lines[0].starts_with("{\"seq\":1,"), "{ext}");
            assert!(lines[1].contains("\"type\":\"eval_started\""), "{ext}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
