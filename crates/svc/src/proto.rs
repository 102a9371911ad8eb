//! The coordinator/worker message vocabulary.
//!
//! Every message is a plain JSON object carried in an HTTP body (see
//! [`crate::http`]). The types here are the single source of truth for
//! both sides; a message that does not decode into one of them is a
//! protocol error, answered with `400` by the coordinator and classified
//! as a garbled (transient) response by the worker.
//!
//! Cells are addressed the same way the durable journal addresses them —
//! by `(column, row)` label — so the coordinator's journal lines double
//! as the service's exactly-once completion record with no translation.

use dtb_core::policy::{PolicyConfig, PolicyKind, Row};
use dtb_sim::engine::{SimConfig, SimRun};
use dtb_trace::programs::Program;
use serde::{Deserialize, Serialize};

/// Protocol version spoken by this build. The coordinator refuses leases
/// to workers announcing a different version — mixed fleets fail loudly,
/// not subtly. Version 2 added epoch-fenced lease tokens, epoch-tagged
/// `/events` cursors, and the richer `/status` shape.
pub const PROTO_VERSION: u32 = 2;

/// One submitted sweep: a (programs × policies) matrix to evaluate, owned
/// by a tenant.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// The submitting tenant. Scheduling is round-robin across tenants
    /// with pending work, so no tenant can starve another by submitting
    /// more sweeps.
    pub tenant: String,
    /// Workload columns (presets only: the wire ships names, not bytes).
    pub programs: Vec<Program>,
    /// Collector rows.
    pub policies: Vec<PolicyKind>,
    /// Whether to append the `No GC` / `LIVE` baseline rows.
    pub baselines: bool,
    /// Constraint configuration for every policy in the sweep.
    pub policy: PolicyConfig,
    /// Simulation parameters for every cell in the sweep.
    pub sim: SimConfig,
}

impl SweepSpec {
    /// The paper's full matrix for one tenant.
    pub fn paper(tenant: impl Into<String>) -> SweepSpec {
        SweepSpec {
            tenant: tenant.into(),
            programs: Program::ALL.to_vec(),
            policies: PolicyKind::ALL.to_vec(),
            baselines: true,
            policy: PolicyConfig::paper(),
            sim: SimConfig::paper(),
        }
    }

    /// The row list this sweep evaluates, in table order.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = self.policies.iter().copied().map(Row::Policy).collect();
        if self.baselines {
            rows.push(Row::NoGc);
            rows.push(Row::Live);
        }
        rows
    }
}

/// `POST /submit` body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// The sweep to evaluate.
    pub spec: SweepSpec,
}

/// `POST /submit` reply.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubmitReply {
    /// Coordinator-assigned sweep id, used to poll and fetch results.
    pub sweep: u64,
    /// Cells in the sweep's matrix.
    pub cells: u64,
}

/// `POST /lease` body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LeaseRequest {
    /// Protocol version the worker speaks ([`PROTO_VERSION`]).
    pub proto: u32,
    /// Worker identity, for diagnostics and lease bookkeeping.
    pub worker: String,
}

/// One leased cell: everything a worker needs to run it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellTask {
    /// The sweep the cell belongs to.
    pub sweep: u64,
    /// The cell's index within the sweep (column-major, stable).
    pub cell: u64,
    /// Lease token; completions must echo it. A completion whose token
    /// does not match the cell's *current* lease is stale and discarded.
    pub lease: u64,
    /// Milliseconds the lease is valid for. A worker that cannot finish
    /// within this window should expect its completion to be refused.
    pub lease_ms: u64,
    /// The workload column.
    pub program: Program,
    /// The row to run (collector or baseline).
    pub row: Row,
    /// Constraint configuration.
    pub policy: PolicyConfig,
    /// Simulation parameters, with the tenant's
    /// [`SimBudget`](dtb_sim::engine::SimBudget) quota already merged in
    /// by the coordinator.
    pub sim: SimConfig,
    /// How many times this cell has been handed out (1 = first lease).
    pub attempt: u32,
}

/// `POST /lease` reply.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LeaseReply {
    /// The leased cell, when work was available.
    pub task: Option<CellTask>,
    /// When `task` is `None`: how long to wait before asking again.
    pub retry_ms: u64,
    /// True when every submitted sweep is finished and no more work will
    /// ever appear; workers started with `--exit-when-done` use it to
    /// terminate cleanly.
    pub drained: bool,
}

/// The worker's account of one finished cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompleteRequest {
    /// Sweep the cell belongs to.
    pub sweep: u64,
    /// Cell index within the sweep.
    pub cell: u64,
    /// The lease token the cell was leased under.
    pub lease: u64,
    /// Worker identity (diagnostics only).
    pub worker: String,
    /// The completed run, when the simulation succeeded.
    pub run: Option<SimRun>,
    /// The stringified failure, when it did not.
    pub failure: Option<String>,
    /// Whether the failure is worth retrying (worker-side
    /// classification: deadlines and shard I/O are transient; policy
    /// errors, invariant violations, and panics are permanent).
    pub transient: bool,
    /// Wall-clock nanoseconds the cell took on the worker.
    pub elapsed_ns: u64,
}

/// What the coordinator did with a completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompleteStatus {
    /// The outcome was journaled (fsync'd) and the cell is now final.
    Recorded,
    /// The cell was already final — a duplicate completion (worker
    /// retry, replayed request). Idempotent: nothing was re-journaled.
    Duplicate,
    /// The lease token is not the cell's current lease (the lease
    /// expired and the cell was re-leased, or the token is garbage).
    /// The result was discarded; the current leaseholder owns the cell.
    LeaseLost,
    /// The failure was transient and the cell has retries left: it went
    /// back to the pending queue.
    Requeued,
}

/// `POST /complete` reply.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompleteReply {
    /// What happened to the reported outcome.
    pub status: CompleteStatus,
}

/// One cell's final state, as served by `GET /sweep`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Workload column label.
    pub column: String,
    /// Row label.
    pub row: String,
    /// Attempts consumed (leases granted).
    pub attempts: u32,
    /// Wall-clock nanoseconds the successful attempt took on its worker.
    pub elapsed_ns: u64,
    /// The completed run, when the cell succeeded.
    pub run: Option<SimRun>,
    /// The quarantine cause, when the cell failed permanently (or
    /// exhausted its retries).
    pub failure: Option<String>,
    /// Whether the quarantining failure was transient-class (retries
    /// exhausted, lease expiries) rather than permanent. Preserved so a
    /// served failure renders with the same transient/permanent
    /// classification a local run would give it. `false` for completed
    /// cells.
    pub transient: bool,
}

/// `GET /sweep?id=N` reply.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepReply {
    /// The sweep id.
    pub sweep: u64,
    /// The sweep's spec, echoed back.
    pub spec: SweepSpec,
    /// Cells finalized so far (done or quarantined).
    pub finalized: u64,
    /// Total cells in the sweep.
    pub total: u64,
    /// True when every cell is finalized.
    pub done: bool,
    /// Final cells, in column-major table order, present only when
    /// `done` (partial results stay on the coordinator).
    pub cells: Vec<CellResult>,
}

/// `GET /status` reply: coordinator identity and recovery provenance,
/// one line per sweep, one queue-depth line per tenant.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatusReply {
    /// Protocol version the coordinator speaks.
    pub proto: u32,
    /// The coordinator's incarnation number (lease epochs are fenced by
    /// it; 1 = never restarted, or no durable sweep log).
    pub epoch: u64,
    /// Sweeps rebuilt from durable storage at startup.
    pub recovered_sweeps: u64,
    /// Cells already finalized by earlier incarnations.
    pub recovered_finalized: u64,
    /// Per-sweep progress.
    pub sweeps: Vec<SweepStatus>,
    /// Per-tenant queue depth, sorted by tenant name.
    pub tenants: Vec<TenantStatus>,
}

/// Progress of one sweep, as reported by `GET /status`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepStatus {
    /// The sweep id.
    pub sweep: u64,
    /// The owning tenant.
    pub tenant: String,
    /// Cells finalized (done or quarantined).
    pub finalized: u64,
    /// Cells waiting for a worker.
    pub pending: u64,
    /// Cells currently leased to workers.
    pub leased: u64,
    /// Cells quarantined (failed permanently or out of retries).
    pub quarantined: u64,
    /// Total cells.
    pub total: u64,
}

/// One tenant's queue depth, as reported by `GET /status`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantStatus {
    /// The tenant name.
    pub tenant: String,
    /// Sweeps the tenant has submitted (still held in memory).
    pub sweeps: u64,
    /// Cells waiting for a worker across those sweeps.
    pub pending: u64,
    /// Cells currently leased.
    pub leased: u64,
}

/// `POST /relay` body: a batch of worker-side observability event
/// lines for the coordinator to splice into its `/events` stream.
///
/// Each line must be a single-line JSON object (the worker sends
/// `dtb_obs::encode_json` output); the coordinator re-frames every
/// accepted line as a `worker_event` tagged with the sweep's tenant and
/// this worker, and drops lines that fail the framing check. Batches
/// are capped at [`MAX_RELAY_LINES`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RelayRequest {
    /// Sweep the events belong to.
    pub sweep: u64,
    /// Cell index the events were produced by.
    pub cell: u64,
    /// The relaying worker's identity.
    pub worker: String,
    /// Single-line JSON event objects, oldest first.
    pub lines: Vec<String>,
}

/// Most event lines one `POST /relay` may carry.
pub const MAX_RELAY_LINES: usize = 256;

/// `POST /relay` reply.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RelayReply {
    /// Lines accepted into the event stream (the rest failed the
    /// framing check and were dropped).
    pub accepted: u64,
}

/// `GET /results?sweep=N` reply: the sweep's finalized cells, read from
/// the coordinator's sweep state (each one durable in the sweep's
/// journal). Unlike `GET /sweep`, cells are served as soon as each is
/// final, so a sweep can be watched filling in.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResultsReply {
    /// The sweep id.
    pub sweep: u64,
    /// Cells finalized so far.
    pub stored: u64,
    /// Total cells in the sweep.
    pub total: u64,
    /// True when every cell of the sweep is final.
    pub complete: bool,
    /// Finalized cells in cell-index order.
    pub cells: Vec<CellResult>,
}

/// Encodes a message as its JSON wire bytes.
pub fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    serde_json::to_string(msg)
        .expect("wire messages serialize infallibly")
        .into_bytes()
}

/// Decodes JSON wire bytes into a message. Any failure — not UTF-8, not
/// JSON, wrong shape — is a `String` error, never a panic.
pub fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "body is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_spec_round_trips() {
        let spec = SweepSpec::paper("acme");
        let decoded: SweepSpec = decode(&encode(&spec)).unwrap();
        assert_eq!(decoded, spec);
        assert_eq!(decoded.rows().len(), PolicyKind::ALL.len() + 2);
    }

    #[test]
    fn lease_reply_round_trips_with_and_without_task() {
        let idle = LeaseReply {
            task: None,
            retry_ms: 50,
            drained: false,
        };
        assert_eq!(decode::<LeaseReply>(&encode(&idle)).unwrap(), idle);

        let task = LeaseReply {
            task: Some(CellTask {
                sweep: 3,
                cell: 7,
                lease: 0xABCD,
                lease_ms: 30_000,
                program: Program::Cfrac,
                row: Row::Policy(PolicyKind::DtbFm),
                policy: PolicyConfig::paper(),
                sim: SimConfig::paper(),
                attempt: 2,
            }),
            retry_ms: 0,
            drained: false,
        };
        assert_eq!(decode::<LeaseReply>(&encode(&task)).unwrap(), task);
    }

    #[test]
    fn complete_status_is_a_readable_label() {
        let reply = CompleteReply {
            status: CompleteStatus::Duplicate,
        };
        let json = String::from_utf8(encode(&reply)).unwrap();
        assert!(json.contains("Duplicate"), "{json}");
        assert_eq!(decode::<CompleteReply>(json.as_bytes()).unwrap(), reply);
    }

    #[test]
    fn garbage_decodes_to_errors_not_panics() {
        for raw in [
            &b""[..],
            b"{",
            b"[1,2,3]",
            b"\xff\xfe",
            b"{\"proto\":\"not a number\"}",
            b"null",
        ] {
            assert!(decode::<LeaseRequest>(raw).is_err());
            assert!(decode::<CompleteRequest>(raw).is_err());
            assert!(decode::<SweepReply>(raw).is_err());
        }
    }
}
