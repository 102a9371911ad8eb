//! Property tests for the `DTBLOG01` record log — the one place the
//! crash semantics of the run journal, the sweep log and the results
//! store are tested:
//!
//! * a crash can only shorten the file, so truncation at *any* offset
//!   replays to a prefix of the records, and reopening appends cleanly
//!   after it;
//! * damage *before* the last frame is never mistaken for a torn tail:
//!   any single-byte flip there is a typed refusal;
//! * an over-cap frame length is refused without allocating it;
//! * a tripped fault fuse tears only the tail: the next append rolls it
//!   back, so the log never holds interior damage.

use dtb_trace::ckp::CkpError;
use dtb_trace::record_log::{replay, FaultFuse, RecordLog, MAGIC, MAX_RECORD};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks the largest single allocation made on the current thread, so
/// a test can prove a hostile length never became an allocation.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// A fresh file path per case: cases run concurrently.
fn temp_file(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dtb-record-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{tag}-{n}.log"))
}

/// Writes `records` through the log and returns the file's bytes plus
/// each frame's end offset.
fn build(path: &PathBuf, records: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut log = RecordLog::create(path).expect("create log");
    let mut ends = Vec::new();
    for record in records {
        log.append(record).expect("append");
        ends.push(std::fs::metadata(path).expect("stat log").len() as usize);
    }
    (std::fs::read(path).expect("read log"), ends)
}

fn records() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Truncating at every offset replays to exactly the records whose
    /// frames fit, and reopening truncates the torn tail so the next
    /// append lands right after them.
    #[test]
    fn every_truncation_replays_a_prefix(records in records()) {
        let path = temp_file("cut");
        let (raw, ends) = build(&path, &records);
        for cut in 0..=raw.len() {
            std::fs::write(&path, &raw[..cut]).expect("truncate");
            let kept = ends.iter().filter(|end| **end <= cut).count();
            let got = replay(&path).expect("a truncation is never corruption");
            prop_assert_eq!(&got.records[..], &records[..kept]);

            let (mut log, opened) = RecordLog::open(&path).expect("reopen");
            prop_assert_eq!(opened, got);
            log.append(b"after").expect("append after reopen");
            let again = replay(&path).expect("replay after reopen");
            prop_assert_eq!(again.records.len(), kept + 1);
            prop_assert_eq!(&again.records[kept][..], &b"after"[..]);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A flipped byte anywhere before the last frame is refused — a
    /// damaged magic as `BadMagic`, anything else as `Corrupt` — and
    /// `open` leaves the file exactly as it found it.
    #[test]
    fn flips_before_the_last_frame_are_refused(
        records in records(),
        extra in prop::collection::vec(any::<u8>(), 0..48),
        at in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let mut records = records;
        records.push(extra);
        let path = temp_file("flip");
        let (mut raw, ends) = build(&path, &records);
        let last_start = ends[ends.len() - 2];
        let i = at % last_start;
        raw[i] ^= mask;
        std::fs::write(&path, &raw).expect("write damaged log");
        let err = replay(&path).expect_err("damage must be refused");
        if i < MAGIC.len() {
            prop_assert!(matches!(err, CkpError::BadMagic { .. }), "{err}");
        } else {
            prop_assert!(matches!(err, CkpError::Corrupt { .. }), "{err}");
        }
        prop_assert!(RecordLog::open(&path).is_err());
        prop_assert_eq!(std::fs::read(&path).expect("reread"), raw);
        let _ = std::fs::remove_file(&path);
    }

    /// A frame claiming more than `MAX_RECORD` bytes is corruption, even
    /// as the final frame, and is refused without allocating its length.
    #[test]
    fn over_cap_lengths_are_refused_without_allocating(
        records in records(),
        len in (MAX_RECORD + 1)..=u32::MAX,
        tail in prop::collection::vec(any::<u8>(), 8..64),
    ) {
        let path = temp_file("cap");
        let (mut raw, _) = build(&path, &records);
        raw.extend_from_slice(&len.to_le_bytes());
        raw.extend_from_slice(&tail);
        std::fs::write(&path, &raw).expect("write hostile log");
        LARGEST.with(|largest| largest.set(0));
        let err = replay(&path).expect_err("over-cap length must be refused");
        let largest = LARGEST.with(Cell::get);
        prop_assert!(matches!(err, CkpError::Corrupt { .. }), "{err}");
        prop_assert!(largest < 64 << 10, "replay allocated {largest} bytes");
        let _ = std::fs::remove_file(&path);
    }

    /// Tripped appends fail and leave at most a torn tail; every later
    /// append rolls it back first, so a replay holds exactly the records
    /// whose appends returned `Ok`, in order.
    #[test]
    fn tripped_fuses_never_leave_interior_damage(
        records in records(),
        charges in 1u32..4,
        armed_at in 0usize..6,
    ) {
        let path = temp_file("fuse");
        let mut log = RecordLog::create(&path).expect("create log");
        let fuse = FaultFuse::charges(charges);
        let mut durable = Vec::new();
        for (i, record) in records.iter().enumerate() {
            if i == armed_at {
                log.inject_fault(fuse.clone());
            }
            if log.append(record).is_ok() {
                durable.push(record.clone());
            }
            // Readable at every step, torn tail or not.
            let got = replay(&path).expect("no interior damage");
            prop_assert_eq!(&got.records, &durable);
        }
        log.inject_fault(fuse.clone());
        while fuse.remaining() > 0 {
            prop_assert!(log.append(b"torn").is_err());
            prop_assert_eq!(&replay(&path).expect("torn tail only").records, &durable);
        }
        log.append(b"last").expect("spent fuse");
        durable.push(b"last".to_vec());
        prop_assert_eq!(replay(&path).expect("replay").records, durable);
        let _ = std::fs::remove_file(&path);
    }
}
