//! No read-ahead helper outlives its reader: opening and dropping
//! readers mid-stream leaves the process's thread count where it
//! started. The only test in its binary, so no other test's threads move
//! the count.

use dtb_trace::{ctc, EventBlock, EventSource, ShardReader, TraceBuilder};
use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Waits until the thread count reads `want`: a joined thread may linger
/// in the count for a moment after its join returns.
fn settles_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != want {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn readers_dropped_mid_stream_leave_no_helper_threads() {
    let mut b = TraceBuilder::new("threads");
    for i in 0..60_000u32 {
        let id = b.alloc(16 + i % 48);
        if i % 2 == 0 {
            b.free(id);
        }
    }
    let trace = b.finish().compile().unwrap();
    let dir = std::env::temp_dir().join(format!("dtb-read-ahead-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ctc::write_shards(&dir, &trace, 8_192).unwrap();

    let start = threads();
    let mut block = EventBlock::new(1024);
    for i in 0..200 {
        let mut reader = ShardReader::open(&dir).unwrap();
        for _ in 0..i % 7 {
            assert_eq!(reader.next_block(&mut block), 1024);
        }
        if i % 3 == 0 {
            reader.next_record().unwrap().expect("mid-stream");
        }
        assert_eq!(threads(), start + 1, "reader {i} runs one helper");
        drop(reader);
        assert!(settles_at(start), "reader {i} left a thread behind");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
