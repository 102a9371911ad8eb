//! Read-ahead: a block source run on a helper thread.
//!
//! [`ReadAhead`] moves an [`EventSource`] onto one named helper thread
//! that fills [`EventBlock`]s of [`DEFAULT_BLOCK_EVENTS`] records and
//! hands them to the consumer in batches of [`BATCH_BLOCKS`], so the
//! source's decode overlaps whatever consumes its records. Batches
//! circulate: the consumer sends each drained batch back to be refilled,
//! and only [`BATCHES`] exist, so the read-ahead window is bounded and
//! allocated once, on the consumer's thread, when the helper starts.
//!
//! The consumer serves [`EventSource::next_block`] at any capacity and
//! [`EventSource::next_record`] from the prefetched blocks, and yields
//! exactly what the source would yield on the calling thread: the same
//! records, the same end, and a block's deferred error after its good
//! prefix. The helper stops after the stream's last block (a short one,
//! or one carrying an error); a helper that ends before handing that
//! block over is joined, and the stream ends with the error
//! [`ReadAhead::spawn`] builds from the helper's panic message. Dropping
//! the consumer closes both channels and joins the helper.

use crate::event::ObjectLife;
use crate::source::{EventBlock, EventSource, SourceError, DEFAULT_BLOCK_EVENTS};
use std::any::Any;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Blocks per hand-over: a batch costs the helper one wake-up per 4,096
/// records, where one block per hand-over cost one per 1,024.
pub(crate) const BATCH_BLOCKS: usize = 4;

/// Batches in circulation. While the consumer drains one, the other
/// three are full or being filled, so a helper that is slow to wake
/// still refills a batch before the consumer reaches it.
pub(crate) const BATCHES: usize = 4;

/// Name of every read-ahead helper thread.
pub(crate) const THREAD_NAME: &str = "dtb-read-ahead";

/// A batch of blocks and how far the helper got with it.
#[derive(Debug)]
struct Batch {
    blocks: Vec<EventBlock>,
    /// Blocks the helper filled, a prefix of `blocks`.
    filled: usize,
    /// The last filled block is the stream's last.
    last: bool,
    /// The source's tally (see [`ReadAhead::spawn`]) after the fill.
    tally: u64,
}

/// What the consumer reads next.
enum Next {
    /// The current block has records from `offset` on.
    Records,
    /// The stream has ended, with its error if it ended on one.
    End(Option<SourceError>),
}

/// Joins the helper when dropped.
#[derive(Debug)]
struct Helper(Option<JoinHandle<()>>);

impl Helper {
    /// Joins a helper that ended before the end of the stream, and says
    /// why it ended.
    fn join_stopped(&mut self) -> String {
        match self.0.take().map(JoinHandle::join) {
            Some(Err(payload)) => panic_message(&*payload),
            _ => "the helper returned before the end of the stream".into(),
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            // A helper that panicked here was never read up to its panic:
            // the consumer dropped first.
            let _ = handle.join();
        }
    }
}

/// The message of a panic payload: the `&str` or `String` that `panic!`
/// carries, or a placeholder.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Builds the error a stream ends with when its helper stops early, from
/// the helper's panic message.
struct Stopped(Box<dyn Fn(String) -> SourceError + Send>);

impl std::fmt::Debug for Stopped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Stopped")
    }
}

/// The consumer's end of a read-ahead helper.
#[derive(Debug)]
pub(crate) struct ReadAhead {
    full: Receiver<Batch>,
    empty: SyncSender<Batch>,
    /// The batch being drained, if any.
    batch: Option<Batch>,
    /// Index of the block being drained within `batch`.
    slot: usize,
    /// Records of that block already handed out.
    offset: usize,
    /// The stream's last block has been handed out.
    done: bool,
    /// The tally of the latest batch received.
    tally: u64,
    /// Reported when the helper ends without handing over the last block.
    stopped: Stopped,
    /// Declared last, so it drops after the channel ends above: the helper
    /// sees them closed and returns before the join.
    helper: Helper,
}

impl ReadAhead {
    /// Starts a helper thread that reads `source` ahead. After each batch
    /// the helper records `tally(&source)`, which [`ReadAhead::tally`]
    /// reports; if the helper ends early, the stream ends with
    /// `stopped` of the helper's panic message.
    ///
    /// # Errors
    ///
    /// The spawn failure; `source` is dropped with the thread's closure.
    pub(crate) fn spawn<S>(
        source: S,
        tally: fn(&S) -> u64,
        stopped: impl Fn(String) -> SourceError + Send + 'static,
    ) -> std::io::Result<ReadAhead>
    where
        S: EventSource + Send + 'static,
    {
        let (full_tx, full) = sync_channel(BATCHES);
        let (empty, empty_rx) = sync_channel(BATCHES);
        for _ in 0..BATCHES {
            let blocks = (0..BATCH_BLOCKS)
                .map(|_| EventBlock::new(DEFAULT_BLOCK_EVENTS))
                .collect();
            let batch = Batch {
                blocks,
                filled: 0,
                last: false,
                tally: 0,
            };
            empty.send(batch).expect("the channel holds every batch");
        }
        let handle = std::thread::Builder::new()
            .name(THREAD_NAME.into())
            .spawn(move || fill(source, tally, &empty_rx, &full_tx))?;
        Ok(ReadAhead {
            full,
            empty,
            batch: None,
            slot: 0,
            offset: 0,
            done: false,
            tally: 0,
            stopped: Stopped(Box::new(stopped)),
            helper: Helper(Some(handle)),
        })
    }

    /// The source's tally as of the latest batch received.
    pub(crate) fn tally(&self) -> u64 {
        self.tally
    }

    /// Moves past drained blocks, recycling drained batches and waiting
    /// for the helper's next one, until a block has records or the stream
    /// has ended.
    fn next(&mut self) -> Next {
        loop {
            if self.done {
                return Next::End(None);
            }
            if let Some(batch) = &mut self.batch {
                let block = &mut batch.blocks[self.slot];
                if self.offset < block.len() {
                    return Next::Records;
                }
                if self.slot + 1 < batch.filled {
                    self.slot += 1;
                    self.offset = 0;
                    continue;
                }
                if batch.last {
                    self.done = true;
                    return Next::End(block.take_error());
                }
            }
            if let Some(batch) = self.batch.take() {
                // Never blocks: the channel holds every batch there is.
                // A helper that has returned drops it.
                let _ = self.empty.send(batch);
            }
            match self.full.recv() {
                Ok(batch) => {
                    self.tally = batch.tally;
                    self.batch = Some(batch);
                    self.slot = 0;
                    self.offset = 0;
                }
                Err(_) => {
                    self.done = true;
                    let reason = self.helper.join_stopped();
                    return Next::End(Some((self.stopped.0)(reason)));
                }
            }
        }
    }

    /// The block being drained; only after [`ReadAhead::next`] returned
    /// [`Next::Records`].
    fn current(&self) -> &EventBlock {
        let batch = self.batch.as_ref().expect("a batch has records");
        &batch.blocks[self.slot]
    }

    /// The next record, as [`EventSource::next_record`].
    pub(crate) fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
        match self.next() {
            Next::Records => {
                let offset = self.offset;
                let life = self.current().life(offset);
                self.offset += 1;
                Ok(Some(life))
            }
            Next::End(None) => Ok(None),
            Next::End(Some(e)) => Err(e),
        }
    }

    /// Fills `out` as [`EventSource::next_block`] at `out`'s capacity.
    pub(crate) fn next_block(&mut self, out: &mut EventBlock) -> usize {
        out.clear();
        while out.len() < out.capacity() {
            if let Next::End(error) = self.next() {
                if let Some(e) = error {
                    out.set_error(e);
                }
                break;
            }
            let offset = self.offset;
            let room = out.capacity() - out.len();
            let block = self.current();
            let take = (block.len() - offset).min(room);
            let span = offset..offset + take;
            out.push_columns(
                &block.births()[span.clone()],
                &block.sizes()[span.clone()],
                &block.deaths()[span],
            );
            self.offset += take;
        }
        out.len()
    }
}

/// The helper's loop: fills each batch it is given, up to and including
/// the stream's last block, and returns once that block is handed over
/// or the consumer is gone.
fn fill<S: EventSource>(
    mut source: S,
    tally: fn(&S) -> u64,
    empty: &Receiver<Batch>,
    full: &SyncSender<Batch>,
) {
    while let Ok(mut batch) = empty.recv() {
        batch.filled = 0;
        batch.last = false;
        for block in &mut batch.blocks {
            let n = source.next_block(block);
            batch.filled += 1;
            // A source fills every block to capacity until its stream ends
            // or fails.
            if n < block.capacity() || block.error().is_some() {
                batch.last = true;
                break;
            }
        }
        batch.tally = tally(&source);
        let last = batch.last;
        if full.send(batch).is_err() || last {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::event::{CompiledTrace, TraceMeta};
    use dtb_core::time::VirtualTime;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn trace(objects: usize) -> CompiledTrace {
        let mut b = TraceBuilder::new("read-ahead");
        let mut open = Vec::new();
        for i in 0..objects {
            open.push(b.alloc(16 + (i % 29) as u32));
            if i % 4 == 1 {
                let id = open.swap_remove(i % open.len());
                b.free(id);
            }
        }
        b.finish().compile().unwrap()
    }

    /// An owned replay of a compiled trace, failing after `fail_at`
    /// records, and raising `dropped` when dropped.
    struct Owned {
        trace: CompiledTrace,
        pos: usize,
        fail_at: Option<usize>,
        dropped: Arc<AtomicBool>,
    }

    impl Owned {
        fn new(trace: CompiledTrace) -> Owned {
            Owned {
                trace,
                pos: 0,
                fail_at: None,
                dropped: Arc::default(),
            }
        }
    }

    impl Drop for Owned {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    impl EventSource for Owned {
        fn meta(&self) -> &TraceMeta {
            &self.trace.meta
        }
        fn next_record(&mut self) -> Result<Option<ObjectLife>, SourceError> {
            if self.fail_at == Some(self.pos) {
                return Err(SourceError::Synth(format!("failed at {}", self.pos)));
            }
            if self.pos == self.trace.len() {
                return Ok(None);
            }
            self.pos += 1;
            Ok(Some(self.trace.life(self.pos - 1)))
        }
        fn end(&self) -> VirtualTime {
            self.trace.end
        }
    }

    fn spawn(source: Owned) -> ReadAhead {
        ReadAhead::spawn(source, |s| s.pos as u64, SourceError::Synth).unwrap()
    }

    /// Drains `read` at capacity `cap`: every record and the error.
    fn drain(read: &mut ReadAhead, cap: usize) -> (Vec<ObjectLife>, Option<SourceError>) {
        let mut block = EventBlock::new(cap);
        let mut got = Vec::new();
        loop {
            let n = read.next_block(&mut block);
            assert!(n <= cap);
            got.extend((0..n).map(|i| block.life(i)));
            if let Some(e) = block.take_error() {
                return (got, Some(e));
            }
            if n == 0 {
                return (got, None);
            }
        }
    }

    #[test]
    fn blocks_and_records_equal_the_source_on_the_calling_thread() {
        // Around a batch boundary, a block boundary, and empty.
        let per_batch = BATCH_BLOCKS * DEFAULT_BLOCK_EVENTS;
        let window = BATCHES * per_batch;
        for objects in [0, 1, 1023, 1024, 1025, per_batch, per_batch + 1, window + 5] {
            let t = trace(objects);
            for cap in [1, 3, 7, 1024, 4096] {
                let (got, error) = drain(&mut spawn(Owned::new(t.clone())), cap);
                assert!(error.is_none());
                assert_eq!(got, t.lives().collect::<Vec<_>>(), "{objects} at {cap}");
            }
            let mut read = spawn(Owned::new(t.clone()));
            let mut via = Vec::new();
            while let Some(life) = read.next_record().unwrap() {
                via.push(life);
            }
            assert_eq!(via, t.lives().collect::<Vec<_>>(), "{objects} by record");
            assert_eq!(read.tally(), objects as u64, "the helper read to the end");
        }
    }

    #[test]
    fn a_source_error_follows_its_good_prefix() {
        let t = trace(3 * 1024);
        for fail_at in [0, 5, 1024, 2047, 2048, 3000] {
            for cap in [1, 7, 1024, 4096] {
                let mut source = Owned::new(t.clone());
                source.fail_at = Some(fail_at);
                let (got, error) = drain(&mut spawn(source), cap);
                assert_eq!(got.len(), fail_at, "fail at {fail_at}, capacity {cap}");
                let want = SourceError::Synth(format!("failed at {fail_at}"));
                assert_eq!(error, Some(want));
            }
        }
    }

    #[test]
    fn dropping_mid_stream_joins_the_helper() {
        let t = trace(40 * 1024);
        for taken in [0, 1, 5000] {
            let source = Owned::new(t.clone());
            let dropped = Arc::clone(&source.dropped);
            let mut read = spawn(source);
            for _ in 0..taken {
                read.next_record().unwrap().unwrap();
            }
            drop(read);
            // The helper drops its source as it returns: only a join
            // makes that happen before the consumer's drop returns.
            assert!(dropped.load(Ordering::SeqCst), "after {taken} records");
        }
    }
}
