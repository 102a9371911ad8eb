//! Property tests for the `DTBCTC02` sharded compiled-trace store: round
//! trips are exact for any stride, the two-pass converter agrees with the
//! in-memory compiler, and no byte-level corruption of a store may panic
//! the decoder — it either still round-trips or fails with a typed
//! [`CtcError`] (mirroring `corruption_proptest.rs` for the event
//! format). The decoder runs on the test's thread, in a [`ShardCursor`],
//! and the read-ahead [`ShardReader`] must yield exactly what it yields.

use dtb_trace::ctc::{self, CtcError};
use dtb_trace::{
    collect_source, io, EventBlock, EventSource, ObjectLife, ShardCursor, ShardReader, SourceError,
    Trace, TraceBuilder, DEFAULT_BLOCK_EVENTS,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A small well-formed trace driven by an op list: `0` allocates, `1`
/// frees the oldest live object (or allocates when none is live).
fn trace_strategy() -> impl Strategy<Value = Trace> {
    prop::collection::vec((1u32..=10_000, 0u8..=1), 1..80).prop_map(|ops| {
        let mut b = TraceBuilder::new("ctc-prop");
        b.exec_seconds(2.0);
        let mut live = Vec::new();
        for (size, op) in ops {
            if op == 0 || live.is_empty() {
                live.push(b.alloc(size));
            } else {
                b.free(live.remove(0));
            }
        }
        b.finish()
    })
}

/// A fresh store directory per proptest case: tests run concurrently, and
/// a reused directory would mix shards from different cases.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dtb-ctc-prop-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every regular file in the store, sorted for deterministic indexing.
fn store_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    files
}

/// Everything a stream yields: its records, then its error if it ends on
/// one.
type Drained = (Vec<ObjectLife>, Option<SourceError>);

fn drain_records(source: &mut impl EventSource) -> Drained {
    let mut lives = Vec::new();
    loop {
        match source.next_record() {
            Ok(Some(life)) => lives.push(life),
            Ok(None) => return (lives, None),
            Err(e) => return (lives, Some(e)),
        }
    }
}

fn drain_blocks(source: &mut impl EventSource, capacity: usize) -> Drained {
    let mut block = EventBlock::new(capacity);
    let mut lives = Vec::new();
    loop {
        let n = source.next_block(&mut block);
        lives.extend((0..n).map(|i| block.life(i)));
        if let Some(e) = block.take_error() {
            return (lives, Some(e));
        }
        if n == 0 {
            return (lives, None);
        }
    }
}

/// Drains a possibly corrupted store; any outcome is fine as long as it
/// is a value, not a panic. Reads record by record and in blocks (not
/// through `collect_source`) so even streams whose records would no
/// longer form a valid trace are fully exercised. Both reads run a
/// [`ShardCursor`] on this thread, so a decoder panic fails the property;
/// the [`ShardReader`], whose helper thread would turn a panic into a
/// typed error, must then yield the cursor's records and error.
fn drain_store(dir: &PathBuf) -> Result<usize, CtcError> {
    let by_record = drain_records(&mut ShardCursor::open(dir)?);
    let by_block = drain_blocks(&mut ShardCursor::open(dir)?, 7);
    assert_eq!(
        by_block, by_record,
        "the cursor's blocks differ from its records"
    );
    let ahead = drain_blocks(&mut ShardReader::open(dir)?, DEFAULT_BLOCK_EVENTS);
    assert_eq!(
        ahead, by_record,
        "the read-ahead reader differs from the cursor"
    );
    match by_record {
        (lives, None) => Ok(lives.len()),
        (_, Some(SourceError::Shard(e))) => Err(e),
        (_, Some(other)) => panic!("shard cursor raised a non-shard error: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shard + replay is the identity on compiled traces, whatever the
    /// stride — one giant shard, one record per shard, or anything odd in
    /// between.
    #[test]
    fn round_trip_is_exact_for_any_stride(
        t in trace_strategy(),
        // Edge strides: one record per shard, odd strides, one giant
        // shard (u64::MAX never rotates).
        stride in (0u64..=15).prop_map(|i| match i {
            0 => 1,
            1 => 64,
            2 => u64::MAX,
            odd => odd,
        }),
    ) {
        let trace = t.compile().expect("builder traces are valid");
        let dir = temp_dir("rt");
        ctc::write_shards(&dir, &trace, stride).expect("write store");
        let mut reader = ShardReader::open(&dir).expect("open store");
        let replayed = collect_source(&mut reader).expect("replay store");
        prop_assert_eq!(&replayed, &trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The streaming two-pass converter (raw `.dtbtrc` file → store)
    /// produces byte-identical shards to compiling in memory and sharding
    /// the result.
    #[test]
    fn converter_agrees_with_in_memory_compilation(
        t in trace_strategy(),
        stride in 1u64..=50,
    ) {
        let trace = t.compile().expect("builder traces are valid");
        let src = temp_dir("cv-src").with_extension("dtbtrc");
        io::write_trace(&src, &t).expect("write event file");
        let via_file = temp_dir("cv-a");
        let via_memory = temp_dir("cv-b");
        let m1 = ctc::convert_trace_file(&src, &via_file, stride).expect("convert");
        let m2 = ctc::write_shards(&via_memory, &trace, stride).expect("shard");
        prop_assert_eq!(m1, m2);
        for (a, b) in store_files(&via_file).iter().zip(store_files(&via_memory).iter()) {
            prop_assert_eq!(
                std::fs::read(a).expect("read converted"),
                std::fs::read(b).expect("read sharded"),
                "{} differs from {}", a.display(), b.display()
            );
        }
        let _ = std::fs::remove_file(&src);
        let _ = std::fs::remove_dir_all(&via_file);
        let _ = std::fs::remove_dir_all(&via_memory);
    }

    /// Single-byte flips anywhere in the store — manifest or shard —
    /// never panic the reader: replay yields records or a typed error.
    #[test]
    fn single_byte_flips_never_panic_the_reader(
        t in trace_strategy(),
        stride in 1u64..=64,
        file_pick in 0usize..=1_000,
        offset in 0usize..=1_000_000,
        mask in 1u8..=255,
    ) {
        let trace = t.compile().expect("builder traces are valid");
        let dir = temp_dir("flip");
        ctc::write_shards(&dir, &trace, stride).expect("write store");
        let files = store_files(&dir);
        let victim = &files[file_pick % files.len()];
        let mut bytes = std::fs::read(victim).expect("read victim");
        prop_assume!(!bytes.is_empty());
        let i = offset % bytes.len();
        bytes[i] ^= mask;
        std::fs::write(victim, &bytes).expect("write corrupted");
        // Either verdict is fine; reaching one without panicking is the
        // property.
        let _ = drain_store(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating any file of the store never panics the reader.
    #[test]
    fn truncations_never_panic_the_reader(
        t in trace_strategy(),
        stride in 1u64..=64,
        file_pick in 0usize..=1_000,
        cut in 0usize..=1_000_000,
    ) {
        let trace = t.compile().expect("builder traces are valid");
        let dir = temp_dir("cut");
        ctc::write_shards(&dir, &trace, stride).expect("write store");
        let files = store_files(&dir);
        let victim = &files[file_pick % files.len()];
        let bytes = std::fs::read(victim).expect("read victim");
        std::fs::write(victim, &bytes[..cut % (bytes.len() + 1)]).expect("truncate");
        let _ = drain_store(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Deleting a shard out from under the manifest is a typed error,
    /// not a panic (the manifest says how many records must exist).
    #[test]
    fn missing_shard_is_a_typed_error(
        t in trace_strategy(),
        stride in 1u64..=8,
    ) {
        let trace = t.compile().expect("builder traces are valid");
        let dir = temp_dir("gone");
        let manifest = ctc::write_shards(&dir, &trace, stride).expect("write store");
        prop_assume!(manifest.shards.len() > 1);
        std::fs::remove_file(ctc::shard_path(&dir, manifest.shards.len() - 1))
            .expect("remove last shard");
        prop_assert!(drain_store(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
