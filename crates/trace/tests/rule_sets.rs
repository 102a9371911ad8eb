//! One rule set per trace format, pinned across every path that applies
//! it: the event-stream rules (`Trace::compile`, `Trace::validate`, the
//! `DTBCTC01` converter) and the `DTBTRC01` decoder (`format::decode`, a
//! `TraceEventReader` over a file, `read_trace`).

use dtb_trace::ctc::{self, CtcError};
use dtb_trace::format::{self, FormatError};
use dtb_trace::io::{self, TraceEventReader, TraceIoError};
use dtb_trace::{Event, ObjectId, Trace, TraceBuilder, TraceMeta};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh temporary directory per case: tests run concurrently.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dtb-rules-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// An event stream from an op list that may break every rule: `op` 13–17
/// frees a live object, 12 reallocates an id already used, 18–19 frees
/// any id seen so far or the next unseen one (double and stray frees),
/// and every other op (13–17 too when nothing is live) allocates a fresh
/// id. A size of 0 is a zero-sized allocation.
fn events_strategy() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0u8..20, any::<u8>(), 0u32..64), 0..40).prop_map(|ops| {
        let mut events = Vec::new();
        let mut next = 0u64;
        let mut live: Vec<u64> = Vec::new();
        for (op, pick, size) in ops {
            let pick = u64::from(pick);
            let event = match op {
                12 => Event::Alloc {
                    id: ObjectId(pick % (next + 1)),
                    size,
                },
                13..=17 if !live.is_empty() => Event::Free {
                    id: ObjectId(live.remove(pick as usize % live.len())),
                },
                18..=19 => Event::Free {
                    id: ObjectId(pick % (next + 1)),
                },
                _ => {
                    next += 1;
                    live.push(next - 1);
                    Event::Alloc {
                        id: ObjectId(next - 1),
                        size,
                    }
                }
            };
            events.push(event);
        }
        events
    })
}

/// Decodes every event of the file at `path` through the streaming
/// reader, stopping at the first error.
fn read_file_events(path: &Path) -> Result<Vec<Event>, FormatError> {
    let format_error = |e| match e {
        TraceIoError::Format { error, .. } => error,
        other => panic!("the file reader raised a non-format error: {other}"),
    };
    let mut reader = TraceEventReader::open(path).map_err(format_error)?;
    let mut events = Vec::new();
    while let Some(event) = reader.next_event().map_err(format_error)? {
        events.push(event);
    }
    Ok(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `compile`, `validate` and the converter apply one rule set: they
    /// accept the same streams and report the same first error. That a
    /// well-formed stream converts to the compiled trace's store is
    /// `ctc_proptest.rs`'s `converter_agrees_with_in_memory_compilation`.
    #[test]
    fn compile_validate_and_converter_agree(events in events_strategy()) {
        let trace = Trace { meta: TraceMeta::named("rules"), events };
        let dir = temp_dir("agree");
        let src = dir.join("src.dtbtrc");
        io::write_trace(&src, &trace).expect("write source trace");
        let converter_verdict = match ctc::convert_trace_file(&src, dir.join("store"), 3) {
            Ok(_) => Ok(()),
            Err(CtcError::SourceTrace { error, .. }) => Err(error),
            Err(other) => panic!("converter failed outside the event rules: {other}"),
        };
        prop_assert_eq!(trace.compile().map(|_| ()), converter_verdict);
        prop_assert_eq!(trace.validate(), converter_verdict);
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}

/// Every prefix of an encoding — inside the magic, the metadata, the
/// event count, and every event's tag and varints — reads the same
/// through `decode` as through the file reader.
#[test]
fn decode_and_file_reader_agree_on_every_prefix() {
    let mut b = TraceBuilder::new("prefixes");
    b.exec_seconds(1.25).description("multi-byte varints ✓");
    let a = b.alloc(5);
    let big = b.alloc(300_000);
    b.free(a);
    b.alloc(128);
    b.free(big);
    let encoded = format::encode(&b.finish());
    let dir = temp_dir("prefix");
    let path = dir.join("prefix.dtbtrc");
    for cut in 0..=encoded.len() {
        std::fs::write(&path, &encoded[..cut]).expect("write prefix");
        assert_eq!(
            read_file_events(&path),
            format::decode(&encoded[..cut]).map(|t| t.events),
            "prefix of {cut} bytes"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// One 5-byte allocation whose size varint is replaced by the LEB128 of
/// 2³² + 5 is rejected with the value read — by `decode`, by
/// `read_trace` and the streaming reader over a file, and by the
/// converter — instead of decoding as `Alloc { size: 5 }`.
#[test]
fn size_above_u32_max_is_a_format_error() {
    let mut b = TraceBuilder::new("oversized");
    b.alloc(5);
    let mut data = format::encode(&b.finish()).to_vec();
    // The encoding ends with the lone allocation's one-byte size varint;
    // put the LEB128 of 2³² + 5 in its place.
    assert_eq!(data.pop(), Some(5));
    data.extend([0x85, 0x80, 0x80, 0x80, 0x10]);
    let expected = FormatError::SizeOverflow((1 << 32) + 5);

    assert_eq!(format::decode(&data), Err(expected.clone()));

    let dir = temp_dir("size");
    let path = dir.join("oversized.dtbtrc");
    std::fs::write(&path, &data).expect("write trace");
    assert!(matches!(
        io::read_trace(&path),
        Err(TraceIoError::Format { error, .. }) if error == expected
    ));
    assert_eq!(read_file_events(&path), Err(expected.clone()));
    assert!(matches!(
        ctc::convert_trace_file(&path, dir.join("store"), 4),
        Err(CtcError::SourceFormat { error, .. }) if error == expected
    ));
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
