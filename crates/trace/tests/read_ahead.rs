//! The read-ahead [`ShardReader`] against its specification, the
//! synchronous [`ShardCursor`]: over stores at several strides, both
//! yield the same records, the same end and the same typed error at the
//! same record, at every block capacity and with `next_record` and
//! `next_block` interleaved, and both count the same checksum
//! verifications.

use dtb_trace::ctc::{self, CtcError};
use dtb_trace::{
    CompiledTrace, EventBlock, EventSource, ObjectLife, ShardCursor, ShardReader, SourceError,
    TraceBuilder,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const CAPACITIES: [usize; 5] = [1, 3, 7, 1024, 4096];

/// (objects, records per shard): one record per shard, many small
/// shards, shards around a read-ahead batch, and one shard for all.
const STORES: [(usize, u64); 5] = [
    (60, 1),
    (2_500, 7),
    (20_000, 1_000),
    (40_000, 16_384),
    (40_000, u64::MAX),
];

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dtb-read-ahead-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn trace(objects: usize) -> CompiledTrace {
    let mut b = TraceBuilder::new("read-ahead");
    b.exec_seconds(3.0).description("read-ahead differential");
    let mut open = Vec::new();
    for i in 0..objects {
        open.push(b.alloc(8 + (i % 61) as u32));
        if i % 3 != 0 {
            let id = open.swap_remove((i * 7) % open.len());
            b.free(id);
        }
    }
    b.finish().compile().unwrap()
}

fn store(tag: &str, objects: usize, stride: u64) -> (PathBuf, CompiledTrace) {
    let dir = temp_dir(tag);
    let trace = trace(objects);
    ctc::write_shards(&dir, &trace, stride).unwrap();
    (dir, trace)
}

/// Everything a stream yields: its records, then its error if it ends on
/// one.
#[derive(Debug, PartialEq)]
struct Stream {
    records: Vec<ObjectLife>,
    error: Option<SourceError>,
}

fn by_records(source: &mut impl EventSource) -> Stream {
    let mut records = Vec::new();
    let error = loop {
        match source.next_record() {
            Ok(Some(life)) => records.push(life),
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
    };
    Stream { records, error }
}

/// One block read: `true` when the stream ended with it.
fn read_block(source: &mut impl EventSource, block: &mut EventBlock, out: &mut Stream) -> bool {
    let n = source.next_block(block);
    assert!(n <= block.capacity());
    out.records.extend((0..n).map(|i| block.life(i)));
    out.error = block.take_error();
    out.error.is_some() || n == 0
}

fn by_blocks(source: &mut impl EventSource, capacity: usize) -> Stream {
    let mut block = EventBlock::new(capacity);
    let mut out = Stream {
        records: Vec::new(),
        error: None,
    };
    while !read_block(source, &mut block, &mut out) {}
    out
}

/// Alternates runs of 0, 1, 5 and 1,500 `next_record` calls with single
/// blocks at `capacity`.
fn interleaved(source: &mut impl EventSource, capacity: usize) -> Stream {
    let mut block = EventBlock::new(capacity);
    let mut out = Stream {
        records: Vec::new(),
        error: None,
    };
    for round in 0.. {
        for _ in 0..[0, 1, 5, 1_500][round % 4] {
            match source.next_record() {
                Ok(Some(life)) => out.records.push(life),
                Ok(None) => return out,
                Err(e) => {
                    out.error = Some(e);
                    return out;
                }
            }
        }
        if read_block(source, &mut block, &mut out) {
            return out;
        }
    }
    unreachable!()
}

/// Every way of reading the store through a fresh [`ShardReader`] equals
/// the same way through a fresh [`ShardCursor`], and the cursor's own
/// per-record stream.
fn assert_reader_matches_cursor(dir: &Path, what: &str) -> Stream {
    let reference = by_records(&mut ShardCursor::open(dir).unwrap());
    let mut reader = ShardReader::open(dir).unwrap();
    let cursor = ShardCursor::open(dir).unwrap();
    assert_eq!(reader.meta(), cursor.meta(), "{what}");
    assert_eq!(reader.len_hint(), cursor.len_hint(), "{what}");
    assert_eq!(reader.end(), cursor.end(), "{what}");
    assert_eq!(by_records(&mut reader), reference, "{what} by record");
    for capacity in CAPACITIES {
        let blocks = by_blocks(&mut ShardReader::open(dir).unwrap(), capacity);
        assert_eq!(blocks, reference, "{what} at capacity {capacity}");
        let spec = by_blocks(&mut ShardCursor::open(dir).unwrap(), capacity);
        assert_eq!(spec, reference, "{what}: the cursor at capacity {capacity}");
        let mixed = interleaved(&mut ShardReader::open(dir).unwrap(), capacity);
        assert_eq!(
            mixed, reference,
            "{what} interleaved at capacity {capacity}"
        );
    }
    reference
}

#[test]
fn the_reader_yields_the_cursors_stream_at_every_capacity_and_stride() {
    for (objects, stride) in STORES {
        let (dir, trace) = store("clean", objects, stride);
        let stream = assert_reader_matches_cursor(&dir, &format!("stride {stride}"));
        assert_eq!(stream.error, None);
        assert_eq!(stream.records, trace.lives().collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn an_empty_store_ends_at_once() {
    let dir = temp_dir("empty");
    let trace = TraceBuilder::new("empty").finish().compile().unwrap();
    ctc::write_shards(&dir, &trace, 16).unwrap();
    let stream = assert_reader_matches_cursor(&dir, "empty");
    assert_eq!(stream, by_records(&mut ShardReader::open(&dir).unwrap()));
    assert!(stream.records.is_empty() && stream.error.is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checksums_are_verified_once_per_shard_and_then_memoized() {
    for (objects, stride) in STORES {
        let (dir, _) = store("memo", objects, stride);
        let shards = ctc::read_manifest(&dir).unwrap().shards.len() as u64;
        let mut first = ShardReader::open(&dir).unwrap();
        assert_eq!(by_blocks(&mut first, 1024).error, None);
        assert_eq!(first.checksum_validations(), shards, "stride {stride}");
        for capacity in [1, 1024] {
            let mut again = ShardReader::open(&dir).unwrap();
            assert_eq!(by_blocks(&mut again, capacity).error, None);
            assert_eq!(
                again.checksum_validations(),
                0,
                "stride {stride}: a memo hit"
            );
        }
        let mut cursor = ShardCursor::open(&dir).unwrap();
        by_records(&mut cursor);
        assert_eq!(cursor.checksum_validations(), 0, "stride {stride}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// How a test damages one shard file.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Flips one bit of the byte at this fraction of the file.
    Flip(usize, usize),
    /// Keeps this fraction of the file.
    Truncate(usize, usize),
}

fn damage(path: &Path, how: Damage) {
    let mut raw = std::fs::read(path).unwrap();
    match how {
        Damage::Flip(num, den) => {
            let at = (raw.len() - 1) * num / den;
            raw[at] ^= 0x10;
        }
        Damage::Truncate(num, den) => raw.truncate(raw.len() * num / den),
    }
    std::fs::write(path, raw).unwrap();
}

#[test]
fn damage_in_the_first_a_middle_and_the_last_shard_fails_at_the_same_record() {
    let damages = [
        Damage::Flip(1, 2),
        Damage::Flip(1, 1),
        Damage::Flip(1, 100),
        Damage::Truncate(1, 2),
        Damage::Truncate(99, 100),
    ];
    for (objects, stride) in [(2_500usize, 7u64), (20_000, 1_000), (40_000, 16_384)] {
        let shards = objects.div_ceil(stride as usize);
        for shard in [0, shards / 2, shards - 1] {
            for how in damages {
                let (dir, trace) = store("damage", objects, stride);
                damage(&ctc::shard_path(&dir, shard), how);
                let what = format!("stride {stride}, shard {shard}, {how:?}");
                let stream = assert_reader_matches_cursor(&dir, &what);
                let error = stream.error.expect("the damage surfaces");
                assert!(
                    matches!(
                        error,
                        SourceError::Shard(
                            CtcError::ChecksumMismatch { .. }
                                | CtcError::BadRecord { .. }
                                | CtcError::Truncated { .. }
                                | CtcError::ShardMismatch { .. }
                                | CtcError::BadMagic { .. }
                        )
                    ),
                    "{what}: {error:?}"
                );
                // Every record before the damaged shard is intact.
                let before = shard * stride as usize;
                assert!(stream.records.len() >= before, "{what}");
                assert_eq!(
                    stream.records[..before],
                    trace.lives().take(before).collect::<Vec<_>>()[..],
                    "{what}"
                );
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}
