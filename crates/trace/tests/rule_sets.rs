//! One rule set per trace format, pinned across every path that applies
//! it: the event-stream rules (`Trace::compile`, `Trace::validate`, the
//! `DTBCTC02` converter, all checked against a hash-map specification of
//! the rules) and the `DTBTRC01` decoder (`format::decode`, a
//! `TraceEventReader` over a file, `read_trace`).

use dtb_trace::ctc::{self, CtcError};
use dtb_trace::event::TraceError;
use dtb_trace::format::{self, FormatError};
use dtb_trace::io::{self, TraceEventReader, TraceIoError};
use dtb_trace::{Event, ObjectId, Trace, TraceBuilder, TraceMeta};
use proptest::prelude::*;
use std::collections::HashMap;
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

/// The specification of the event-stream rules: every id in one hash
/// map, each event checked in order, the first violation the error. On
/// success, each object's death clock in birth order (`u64::MAX` if never
/// freed) and the end clock.
fn reference(events: &[Event]) -> Result<(Vec<u64>, u64), TraceError> {
    let mut clock: u64 = 0;
    let mut deaths = Vec::new();
    let mut slots: HashMap<ObjectId, usize> = HashMap::new();
    for (pos, &event) in events.iter().enumerate() {
        match event {
            Event::Alloc { id, size } => {
                if size == 0 {
                    return Err(TraceError::ZeroSizedAlloc { pos });
                }
                clock = clock
                    .checked_add(u64::from(size))
                    .filter(|&c| c != u64::MAX)
                    .ok_or(TraceError::ClockOverflow { pos })?;
                if slots.insert(id, deaths.len()).is_some() {
                    return Err(TraceError::DuplicateAlloc { id, pos });
                }
                deaths.push(u64::MAX);
            }
            Event::Free { id } => {
                let Some(&slot) = slots.get(&id) else {
                    return Err(TraceError::FreeWithoutAlloc { id, pos });
                };
                if deaths[slot] != u64::MAX {
                    return Err(TraceError::DoubleFree { id, pos });
                }
                deaths[slot] = clock;
            }
        }
    }
    Ok((deaths, clock))
}

/// Ids far outside any id table: no trace here allocates that many
/// objects.
const FAR: [u64; 3] = [1 << 40, u64::MAX - 1, u64::MAX];

/// An id as the generator draws it, before the allocation count is
/// known.
enum Id {
    /// A concrete id.
    At(u64),
    /// The allocation count minus 2, plus `k` (0..4): ids just inside,
    /// at and beyond the edge of a table sized by the allocation count.
    Edge(u64),
}

/// An event stream from an op list that may break every rule: `op` 13–17
/// frees a live object, 12 reallocates an id already used, 18–19 frees
/// any id seen so far or the next unseen one (double and stray frees),
/// 20–21 allocate and 22 frees an id around the allocation count, 23
/// allocates and 24 frees an id from [`FAR`] (so those ids are freed,
/// freed twice, reallocated and freed without an allocation too), and
/// every other op (13–17 too when nothing is live) allocates a fresh id.
/// A size of 0 is a zero-sized allocation.
fn events_strategy() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0u8..25, any::<u8>(), 0u32..64), 0..40).prop_map(|ops| {
        let mut drawn = Vec::new();
        let mut next = 0u64;
        let mut live: Vec<u64> = Vec::new();
        for (op, pick, size) in ops {
            let pick = u64::from(pick);
            let alloc = |id| (Some(size), id);
            drawn.push(match op {
                12 => alloc(Id::At(pick % (next + 1))),
                13..=17 if !live.is_empty() => {
                    (None, Id::At(live.remove(pick as usize % live.len())))
                }
                18..=19 => (None, Id::At(pick % (next + 1))),
                20..=21 => alloc(Id::Edge(pick % 4)),
                22 => (None, Id::Edge(pick % 4)),
                23 => alloc(Id::At(FAR[pick as usize % FAR.len()])),
                24 => (None, Id::At(FAR[pick as usize % FAR.len()])),
                _ => {
                    next += 1;
                    live.push(next - 1);
                    alloc(Id::At(next - 1))
                }
            });
        }
        let count = drawn.iter().filter(|(size, _)| size.is_some()).count() as u64;
        drawn
            .into_iter()
            .map(|(size, id)| {
                let id = ObjectId(match id {
                    Id::At(id) => id,
                    Id::Edge(k) => (count + k).saturating_sub(2),
                });
                match size {
                    Some(size) => Event::Alloc { id, size },
                    None => Event::Free { id },
                }
            })
            .collect()
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

    /// `compile`, `validate` and the converter apply one rule set, the
    /// specification's: they accept the same streams and report the same
    /// first error, and `compile` resolves the same deaths. That a
    /// well-formed stream converts to the compiled trace's store is
    /// `ctc_proptest.rs`'s `converter_agrees_with_in_memory_compilation`.
    #[test]
    fn compile_validate_and_converter_agree(events in events_strategy()) {
        let expected = reference(&events);
        let trace = Trace { meta: TraceMeta::named("rules"), events };
        let compiled = trace.compile().map(|c| (c.deaths().to_vec(), c.end.as_u64()));
        prop_assert_eq!(&compiled, &expected);
        let dir = temp_dir("agree");
        let src = dir.join("src.dtbtrc");
        io::write_trace(&src, &trace).expect("write source trace");
        let converter_verdict = match ctc::convert_trace_file(&src, dir.join("store"), 3) {
            Ok(_) => Ok(()),
            Err(CtcError::SourceTrace { error, .. }) => Err(error),
            Err(other) => panic!("converter failed outside the event rules: {other}"),
        };
        prop_assert_eq!(expected.map(|_| ()), converter_verdict);
        prop_assert_eq!(trace.validate(), converter_verdict);
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}

/// Every event rule, fired at ids inside a table sized by the
/// allocation count, at its edge, beyond it and far beyond it: each
/// path reports the specification's error, and a well-formed stream over
/// the same ids resolves the specification's deaths.
#[test]
fn every_rule_fires_on_both_sides_of_the_id_table() {
    let alloc = |id, size| Event::Alloc {
        id: ObjectId(id),
        size,
    };
    let free = |id| Event::Free { id: ObjectId(id) };
    // The prefix allocates ids 0..3, and the probe id is allocated once
    // or twice, so a table sized by the allocation count covers 0..4 or
    // 0..5. Each rule then fires at an id inside it (3), at or beyond
    // its edge (4, 5) and far beyond it (FAR).
    let prefix = [alloc(0, 8), alloc(1, 8), alloc(2, 8)];
    let dir = temp_dir("edge");
    for (case, id) in [3, 4, 5].into_iter().chain(FAR).enumerate() {
        let streams: [Vec<Event>; 5] = [
            vec![alloc(id, 8), free(id)],
            vec![alloc(id, 8), free(id), alloc(id, 8)],
            vec![free(id), alloc(id, 8)],
            vec![alloc(id, 8), free(id), free(id)],
            vec![alloc(id, 8), free(1), free(id), free(0)],
        ];
        for (i, stream) in streams.into_iter().enumerate() {
            let events: Vec<Event> = prefix.iter().copied().chain(stream).collect();
            let expected = reference(&events);
            let trace = Trace {
                meta: TraceMeta::named("edge"),
                events,
            };
            let compiled = trace
                .compile()
                .map(|c| (c.deaths().to_vec(), c.end.as_u64()));
            assert_eq!(compiled, expected, "id {id}, stream {i}");
            assert_eq!(
                trace.validate(),
                expected.clone().map(|_| ()),
                "id {id}, stream {i}"
            );
            let src = dir.join(format!("edge-{case}-{i}.dtbtrc"));
            io::write_trace(&src, &trace).expect("write source trace");
            let store = dir.join(format!("store-{case}-{i}"));
            let converted = match ctc::convert_trace_file(&src, store, 3) {
                Ok(_) => Ok(()),
                Err(CtcError::SourceTrace { error, .. }) => Err(error),
                Err(other) => panic!("converter failed outside the event rules: {other}"),
            };
            assert_eq!(converted, expected.map(|_| ()), "id {id}, stream {i}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
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
