//! The durable sweep-intake log: what makes the coordinator restartable.
//!
//! The per-sweep journal records every cell *completion*, but the
//! journal header does not carry the full [`SweepSpec`] — tenant,
//! program set, policy list — so a journal alone cannot rebuild the
//! coordinator's `SweepState` after a crash. This log closes the gap: a
//! single [`record_log`](dtb_trace::record_log) file (`sweeps.log`) in
//! the journal directory that records every accepted sweep **before**
//! the submit is acked, plus one epoch record per coordinator
//! incarnation.
//!
//! Each record is a one-byte tag and a JSON payload:
//!
//! * `E` `{"epoch":N}` — an epoch bump. Every [`SweepLog::open`] appends
//!   one, so the highest recorded epoch is the incarnation number;
//!   leases are fenced by it ([lease-epoch fencing](crate::coordinator)).
//! * `S` `{"id":N,"spec":{...}}` — one accepted sweep.
//!
//! The record log owns the crash semantics: a torn final record is
//! dropped, interior damage is a typed [`CkpError`] — the coordinator
//! refuses to start on a log it cannot trust, but never on one that
//! merely lost its tail.

use crate::proto::{decode, encode, SweepSpec};
use dtb_sim::CkpError;
use dtb_trace::record_log::RecordLog;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// File name of the sweep log inside the coordinator's journal dir.
pub const SWEEP_LOG_FILE: &str = "sweeps.log";

const EPOCH_TAG: u8 = b'E';
const SWEEP_TAG: u8 = b'S';

#[derive(Serialize, Deserialize)]
struct EpochRecord {
    epoch: u64,
}

#[derive(Serialize, Deserialize)]
struct SweepRecord {
    id: u64,
    spec: SweepSpec,
}

/// What replaying an existing log recovered.
#[derive(Debug)]
pub struct SweepLogReplay {
    /// The epoch this incarnation runs under (highest recorded + 1; the
    /// bump record is already on disk when [`SweepLog::open`] returns).
    pub epoch: u64,
    /// Every accepted sweep, in intake order (first record wins on a
    /// duplicated id — appends are acked once, so duplicates can only
    /// come from corruption that happened to re-checksum).
    pub sweeps: Vec<(u64, SweepSpec)>,
}

/// The open, appendable sweep log.
#[derive(Debug)]
pub struct SweepLog {
    log: RecordLog,
}

impl SweepLog {
    /// Opens (or creates) `dir/sweeps.log`: replays existing records,
    /// truncates a torn tail, then appends — and fsyncs — an epoch-bump
    /// record. Every open is a new epoch.
    ///
    /// # Errors
    ///
    /// [`CkpError::Io`] on filesystem failure, the record log's typed
    /// errors on damage, and [`CkpError::BadPayload`] for a record that
    /// verifies but does not decode.
    pub fn open(dir: &Path) -> Result<(SweepLog, SweepLogReplay), CkpError> {
        let path = dir.join(SWEEP_LOG_FILE);
        let (log, logged) = RecordLog::open(&path)?;
        let mut replay = SweepLogReplay {
            epoch: 0,
            sweeps: Vec::new(),
        };
        let bad = |why: String| CkpError::BadPayload {
            path: path.clone(),
            reason: format!("sweep-log record: {why}"),
        };
        for record in &logged.records {
            match record.split_first() {
                Some((&EPOCH_TAG, json)) => {
                    let e: EpochRecord = decode(json).map_err(bad)?;
                    replay.epoch = replay.epoch.max(e.epoch);
                }
                Some((&SWEEP_TAG, json)) => {
                    let s: SweepRecord = decode(json).map_err(bad)?;
                    if !replay.sweeps.iter().any(|(id, _)| *id == s.id) {
                        replay.sweeps.push((s.id, s.spec));
                    }
                }
                _ => return Err(bad("unknown record tag".to_string())),
            }
        }
        let mut log = SweepLog { log };
        replay.epoch += 1;
        log.append(
            EPOCH_TAG,
            &EpochRecord {
                epoch: replay.epoch,
            },
        )?;
        Ok((log, replay))
    }

    /// Records one accepted sweep. Called **before** the submit is
    /// acked; an error here refuses the submit, so every acked sweep is
    /// durable by construction.
    ///
    /// # Errors
    ///
    /// [`CkpError::Io`] when the append or fsync fails.
    pub fn sweep(&mut self, id: u64, spec: &SweepSpec) -> Result<(), CkpError> {
        self.append(
            SWEEP_TAG,
            &SweepRecord {
                id,
                spec: spec.clone(),
            },
        )
    }

    fn append<T: Serialize>(&mut self, tag: u8, payload: &T) -> Result<(), CkpError> {
        let mut record = vec![tag];
        record.extend_from_slice(&encode(payload));
        self.log.append(&record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_and_epochs_round_trip_across_opens() {
        let dir = std::env::temp_dir().join(format!("dtb-sweeplog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut log, replay) = SweepLog::open(&dir).unwrap();
            assert_eq!(replay.epoch, 1, "first open is epoch 1");
            assert!(replay.sweeps.is_empty());
            log.sweep(1, &SweepSpec::paper("acme")).unwrap();
            log.sweep(2, &SweepSpec::paper("umbrella")).unwrap();
        }
        let (_log, replay) = SweepLog::open(&dir).unwrap();
        assert_eq!(replay.epoch, 2, "every open bumps the epoch");
        let tenants: Vec<_> = replay
            .sweeps
            .iter()
            .map(|(id, s)| (*id, &*s.tenant))
            .collect();
        assert_eq!(tenants, [(1, "acme"), (2, "umbrella")]);
        // The pre-record-log text format: refused by magic, untouched.
        let old = b"0123456789abcdef V {\"version\":1}\n";
        std::fs::write(dir.join(SWEEP_LOG_FILE), old).unwrap();
        let err = SweepLog::open(&dir).unwrap_err();
        assert!(matches!(err, CkpError::BadMagic { .. }), "{err}");
        assert_eq!(std::fs::read(dir.join(SWEEP_LOG_FILE)).unwrap(), old);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
