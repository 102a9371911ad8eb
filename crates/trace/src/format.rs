//! Compact binary trace serialization.
//!
//! Real QPT traces are large (GHOST(2) allocates ~92 MB across ~2 million
//! objects), so traces are stored in a simple varint-based binary format
//! rather than JSON: a magic header, the metadata, then one record per
//! event. Allocation ids are delta-encoded against a counter (generators
//! assign ids in order, making most deltas zero); free ids are encoded
//! absolutely.
//!
//! The format is self-describing enough for round-tripping but
//! deliberately minimal; it is a workspace-internal interchange format,
//! not an archival standard.
//!
//! [`encode`] writes it; the one decoder is [`TraceEventReader`], which
//! [`decode`] runs over a byte slice and the `DTBCTC02` converter streams
//! from a file.

use crate::event::{Event, Trace};
use crate::io::{TraceEventReader, TraceIoError};
use bytes::{BufMut, Bytes, BytesMut};

/// Magic bytes identifying a serialized trace (format version 1).
pub const MAGIC: &[u8; 8] = b"DTBTRC01";

pub(crate) const TAG_ALLOC: u8 = 0;
pub(crate) const TAG_FREE: u8 = 1;

/// A malformed serialized trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// Missing or wrong magic header.
    BadMagic,
    /// Input ended mid-record.
    Truncated,
    /// Unknown event tag byte.
    BadTag(u8),
    /// Metadata string is not UTF-8.
    BadString,
    /// An allocation size above `u32::MAX` (the value read).
    SizeOverflow(u64),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not a DTB trace (bad magic)"),
            FormatError::Truncated => write!(f, "trace data ends mid-record"),
            FormatError::BadTag(t) => write!(f, "unknown event tag {t}"),
            FormatError::BadString => write!(f, "metadata string is not valid UTF-8"),
            FormatError::SizeOverflow(size) => {
                write!(f, "allocation size {size} does not fit in 32 bits")
            }
        }
    }
}

impl std::error::Error for FormatError {}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Serializes a trace to the binary format.
///
/// # Example
///
/// ```
/// use dtb_trace::{TraceBuilder, format};
///
/// let mut b = TraceBuilder::new("demo");
/// let id = b.alloc(64);
/// b.free(id);
/// let trace = b.finish();
/// let encoded = format::encode(&trace);
/// let decoded = format::decode(&encoded)?;
/// assert_eq!(decoded, trace);
/// # Ok::<(), format::FormatError>(())
/// ```
pub fn encode(trace: &Trace) -> Bytes {
    let mut buf = BytesMut::with_capacity(trace.events.len() * 4 + 64);
    buf.put_slice(MAGIC);
    put_string(&mut buf, &trace.meta.name);
    put_string(&mut buf, &trace.meta.description);
    buf.put_f64(trace.meta.exec_seconds);
    put_varint(&mut buf, trace.events.len() as u64);
    let mut expected_id: u64 = 0;
    for event in &trace.events {
        match *event {
            Event::Alloc { id, size } => {
                buf.put_u8(TAG_ALLOC);
                // Delta against the sequential-id expectation: zero for
                // generator-produced traces.
                put_varint(&mut buf, id.0.wrapping_sub(expected_id));
                expected_id = id.0.wrapping_add(1);
                put_varint(&mut buf, size as u64);
            }
            Event::Free { id } => {
                buf.put_u8(TAG_FREE);
                put_varint(&mut buf, id.0);
            }
        }
    }
    buf.freeze()
}

/// Deserializes a trace from the binary format.
///
/// # Errors
///
/// Returns [`FormatError`] on malformed input. Well-formedness of the
/// *event stream* (no double frees, etc.) is checked separately by
/// [`Trace::compile`].
pub fn decode(data: &[u8]) -> Result<Trace, FormatError> {
    // A byte slice reports nothing but end of input, which the reader
    // already maps to `Truncated`; it never checks event semantics.
    let format_error = |e| match e {
        TraceIoError::Format { error, .. } => error,
        TraceIoError::Io { .. } | TraceIoError::Invalid { .. } => FormatError::Truncated,
    };
    let mut reader = TraceEventReader::new(data, "").map_err(format_error)?;
    // Every event takes at least two bytes, which bounds a corrupt count.
    let count = reader.remaining().min(data.len() as u64 / 2);
    let mut events = Vec::with_capacity(count as usize);
    while let Some(event) = reader.next_event().map_err(format_error)? {
        events.push(event);
    }
    Ok(Trace {
        meta: reader.meta().clone(),
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("fmt-test");
        b.exec_seconds(3.25).description("round trip");
        let a = b.alloc(100);
        let c = b.alloc(260); // size needing 2 varint bytes
        b.free(a);
        b.alloc(1);
        b.free(c);
        b.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let decoded = decode(&encode(&t)).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn round_trip_empty_trace() {
        let t = TraceBuilder::new("empty").finish();
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOTATRACE"), Err(FormatError::BadMagic));
        assert_eq!(decode(b""), Err(FormatError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let full = encode(&sample());
        for cut in [9, full.len() / 2, full.len() - 1] {
            let r = decode(&full[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_tag_detected() {
        let mut raw = encode(&sample()).to_vec();
        // Find the first event byte: after magic + name + desc + f64 + count.
        // The first event tag is TAG_ALLOC (0); corrupt it.
        let name_len = 1 + "fmt-test".len();
        let desc_len = 1 + "round trip".len();
        let pos = 8 + name_len + desc_len + 8 + 1;
        raw[pos] = 0xee;
        assert_eq!(decode(&raw), Err(FormatError::BadTag(0xee)));
    }

    #[test]
    fn sequential_ids_encode_compactly() {
        // 1000 sequential allocations of size < 128 should take ~3 bytes each.
        let mut b = TraceBuilder::new("z");
        for _ in 0..1000 {
            b.alloc(64);
        }
        let t = b.finish();
        let encoded = encode(&t);
        assert!(
            encoded.len() < 8 + 4 + 8 + 4 + 1000 * 3 + 16,
            "encoding too large: {}",
            encoded.len()
        );
    }

    #[test]
    fn generator_trace_round_trips() {
        use crate::lifetime::{LifetimeDist, SizeDist};
        use crate::synth::{ClassSpec, WorkloadSpec};
        let t = WorkloadSpec {
            name: "gen".into(),
            description: "generated".into(),
            exec_seconds: 1.5,
            total_alloc: 200_000,
            initial_permanent: 10_000,
            initial_object_size: 500,
            classes: vec![ClassSpec::new(
                "short",
                1.0,
                SizeDist::Uniform { min: 16, max: 256 },
                LifetimeDist::Exponential { mean: 2_000.0 },
            )],
            phase_period: None,
            seed: 3,
        }
        .generate()
        .unwrap();
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }
}
