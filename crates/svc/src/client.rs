//! The client side of the protocol: a retrying HTTP/JSON caller plus
//! helpers to submit sweeps, poll them, and reassemble a served sweep
//! into the executor's [`Matrix`] shape.
//!
//! The [`Transport`] seam is where the network becomes swappable: the
//! real [`TcpTransport`] for production, and the fault-injecting
//! [`NetFault`](crate::fault::NetFault) wrapper for the chaos suites —
//! both the worker and this client retry **transient** wire failures
//! (socket errors, garbled frames, `5xx`) with the executor's
//! [`RetryPolicy`] backoff, and give up immediately on permanent ones
//! (`4xx`: the request itself is wrong and would fail identically again).

use crate::http::{read_response, write_request, Request, Response, WireError};
use crate::proto::{
    decode, encode, CellResult, CompleteReply, CompleteRequest, LeaseReply, LeaseRequest,
    RelayReply, RelayRequest, ResultsReply, StatusReply, SubmitReply, SubmitRequest, SweepReply,
    SweepSpec, PROTO_VERSION,
};
use dtb_core::policy::Row;
use dtb_sim::exec::{Cell, CellFailure, CellOutcome, Column, FailureCause, Matrix, RetryPolicy};
use dtb_trace::ckp::checksum;
use serde::Deserialize;
use std::fmt;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One request/response exchange with the coordinator. Implementations
/// own connection management; every call is independent (the protocol is
/// one exchange per connection).
pub trait Transport: Send {
    /// Sends `req` and returns the peer's response.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the exchange fails at the socket or framing
    /// layer.
    fn call(&mut self, req: &Request) -> Result<Response, WireError>;
}

/// The real transport: one TCP connection per exchange.
pub struct TcpTransport {
    addr: String,
    timeout: Duration,
}

impl TcpTransport {
    /// A transport for `addr` (`host:port`) with the default 30 s
    /// per-exchange socket timeouts.
    pub fn new(addr: impl Into<String>) -> TcpTransport {
        TcpTransport {
            addr: addr.into(),
            timeout: Duration::from_secs(30),
        }
    }

    /// Overrides the socket read/write timeout.
    pub fn timeout(mut self, timeout: Duration) -> TcpTransport {
        self.timeout = timeout;
        self
    }
}

impl Transport for TcpTransport {
    fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        write_request(&mut stream, req)?;
        read_response(&mut stream)
    }
}

/// Why a client call failed for good (after retries).
#[derive(Debug)]
pub enum SvcError {
    /// The transport kept failing (socket or framing) past the retry
    /// budget.
    Wire(WireError),
    /// The coordinator answered with a permanent protocol error (`4xx`),
    /// or kept answering `5xx` past the retry budget.
    Protocol {
        /// The HTTP status.
        status: u16,
        /// The coordinator's error text.
        message: String,
    },
    /// A `200` body did not decode as the expected message (and retrying
    /// — for the garbled-response case — did not produce one that did).
    Decode(String),
    /// A wait for sweep completion ran out of its deadline.
    Timeout {
        /// The sweep being waited for.
        sweep: u64,
        /// Cells finalized when the deadline expired.
        finalized: u64,
        /// Total cells in the sweep.
        total: u64,
    },
}

impl fmt::Display for SvcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvcError::Wire(e) => write!(f, "transport failed after retries: {e}"),
            SvcError::Protocol { status, message } => {
                write!(f, "coordinator answered {status}: {message}")
            }
            SvcError::Decode(why) => write!(f, "cannot decode coordinator reply: {why}"),
            SvcError::Timeout {
                sweep,
                finalized,
                total,
            } => write!(
                f,
                "sweep {sweep} still incomplete at deadline ({finalized}/{total} cells)"
            ),
        }
    }
}

impl std::error::Error for SvcError {}

/// A retrying protocol client over any [`Transport`].
pub struct Client {
    transport: Box<dyn Transport>,
    retry: RetryPolicy,
}

impl Client {
    /// A TCP client for the coordinator at `addr`, with a default retry
    /// budget of 4 (transient wire failures back off and retry; the
    /// schedule is the executor's deterministic-jitter one).
    pub fn connect(addr: impl Into<String>) -> Client {
        Client::with_transport(Box::new(TcpTransport::new(addr)), RetryPolicy::retries(4))
    }

    /// A client over an arbitrary transport (tests swap in
    /// [`NetFault`](crate::fault::NetFault) here).
    pub fn with_transport(transport: Box<dyn Transport>, retry: RetryPolicy) -> Client {
        Client { transport, retry }
    }

    /// Overrides the per-call retry budget. Repro clients that must ride
    /// out a coordinator restart widen this (more retries, longer cap)
    /// instead of wrapping every call in their own loop.
    pub fn retry(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    /// One retrying exchange: transient failures (socket, garbled frame
    /// or body, `5xx`) back off and retry; `4xx` returns immediately.
    fn exchange<Rep: Deserialize>(&mut self, req: &Request) -> Result<Rep, SvcError> {
        // Salt the deterministic backoff jitter by the route, so parallel
        // callers of different endpoints desynchronize.
        let salt = checksum(req.path.as_bytes());
        let mut last: Option<SvcError> = None;
        for attempt in 0..=self.retry.max_retries {
            if attempt > 0 {
                std::thread::sleep(self.retry.delay(salt, attempt - 1));
            }
            match self.transport.call(req) {
                // Socket and framing failures are transient: the peer (or
                // the network between) may be healthy next attempt.
                Err(e) => last = Some(SvcError::Wire(e)),
                Ok(resp) if resp.status == 200 => match decode::<Rep>(&resp.body) {
                    Ok(msg) => return Ok(msg),
                    // A 200 that does not decode is a garbled response:
                    // transient, retry.
                    Err(why) => last = Some(SvcError::Decode(why)),
                },
                Ok(resp) => {
                    let err = SvcError::Protocol {
                        status: resp.status,
                        message: String::from_utf8_lossy(&resp.body).into_owned(),
                    };
                    // 4xx means this request is wrong and will stay wrong.
                    if resp.status < 500 {
                        return Err(err);
                    }
                    last = Some(err);
                }
            }
        }
        Err(last.expect("loop ran at least once"))
    }

    fn post(path: &str, body: Vec<u8>) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            body,
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            body: Vec::new(),
        }
    }

    /// Submits a sweep.
    ///
    /// # Errors
    ///
    /// [`SvcError`] when the exchange fails past retries.
    pub fn submit(&mut self, spec: &SweepSpec) -> Result<SubmitReply, SvcError> {
        let body = encode(&SubmitRequest { spec: spec.clone() });
        self.exchange(&Self::post("/submit", body))
    }

    /// Asks for one cell of work.
    ///
    /// # Errors
    ///
    /// [`SvcError`] when the exchange fails past retries.
    pub fn lease(&mut self, worker: &str) -> Result<LeaseReply, SvcError> {
        let body = encode(&LeaseRequest {
            proto: PROTO_VERSION,
            worker: worker.to_string(),
        });
        self.exchange(&Self::post("/lease", body))
    }

    /// Reports one finished cell.
    ///
    /// # Errors
    ///
    /// [`SvcError`] when the exchange fails past retries.
    pub fn complete(&mut self, req: &CompleteRequest) -> Result<CompleteReply, SvcError> {
        self.exchange(&Self::post("/complete", encode(req)))
    }

    /// Fetches per-sweep progress.
    ///
    /// # Errors
    ///
    /// [`SvcError`] when the exchange fails past retries.
    pub fn status(&mut self) -> Result<StatusReply, SvcError> {
        self.exchange(&Self::get("/status"))
    }

    /// Fetches one sweep (with its cells once done).
    ///
    /// # Errors
    ///
    /// [`SvcError`] when the exchange fails past retries.
    pub fn sweep(&mut self, id: u64) -> Result<SweepReply, SvcError> {
        self.exchange(&Self::get(&format!("/sweep?id={id}")))
    }

    /// Queries the results store: cells finalized so far, served even
    /// while the sweep is still running.
    ///
    /// # Errors
    ///
    /// [`SvcError`] when the exchange fails past retries.
    pub fn results(&mut self, id: u64) -> Result<ResultsReply, SvcError> {
        self.exchange(&Self::get(&format!("/results?sweep={id}")))
    }

    /// Relays a batch of worker-side event lines into the coordinator's
    /// `/events` stream.
    ///
    /// # Errors
    ///
    /// [`SvcError`] when the exchange fails past retries.
    pub fn relay(&mut self, req: &RelayRequest) -> Result<RelayReply, SvcError> {
        self.exchange(&Self::post("/relay", encode(req)))
    }

    /// Asks the coordinator to stop serving. One shot, no retries — a
    /// dead peer is already shut down.
    ///
    /// # Errors
    ///
    /// [`SvcError`] when the exchange fails.
    pub fn shutdown(&mut self) -> Result<(), SvcError> {
        let req = Self::post("/shutdown", Vec::new());
        match self.transport.call(&req) {
            Ok(resp) if resp.status == 200 => Ok(()),
            Ok(resp) => Err(SvcError::Protocol {
                status: resp.status,
                message: String::from_utf8_lossy(&resp.body).into_owned(),
            }),
            Err(e) => Err(SvcError::Wire(e)),
        }
    }

    /// Polls `GET /sweep` until the sweep is done, then returns it.
    ///
    /// # Errors
    ///
    /// [`SvcError::Timeout`] when `deadline` elapses first; any
    /// [`SvcError`] a poll itself fails with.
    pub fn wait_sweep(
        &mut self,
        id: u64,
        poll: Duration,
        deadline: Option<Duration>,
    ) -> Result<SweepReply, SvcError> {
        let started = Instant::now();
        loop {
            let reply = self.sweep(id)?;
            if reply.done {
                return Ok(reply);
            }
            if let Some(limit) = deadline {
                if started.elapsed() >= limit {
                    return Err(SvcError::Timeout {
                        sweep: id,
                        finalized: reply.finalized,
                        total: reply.total,
                    });
                }
            }
            std::thread::sleep(poll);
        }
    }
}

/// Reassembles a finished sweep into the executor's [`Matrix`] shape —
/// column per program, cell per row, in spec order — so everything that
/// renders or compares an in-process `Evaluation::run` result consumes a
/// served sweep unchanged.
pub fn matrix_from_sweep(reply: &SweepReply) -> Matrix {
    matrix_from_cells(&reply.spec, &reply.cells)
}

/// Reassembles served cells into the executor's [`Matrix`] shape
/// against `spec`'s (programs × rows) grid — the shared core of
/// [`matrix_from_sweep`] (`GET /sweep`) and the `/results` store path,
/// so both serve bit-identical matrices.
pub fn matrix_from_cells(spec: &SweepSpec, served: &[CellResult]) -> Matrix {
    let rows = spec.rows();
    let columns = spec
        .programs
        .iter()
        .map(|&program| {
            let label = program.label();
            let cells = rows
                .iter()
                .map(|row| {
                    let cell = served
                        .iter()
                        .find(|c| c.column == label && c.row == row.to_string());
                    cell_from_result(label, row, cell)
                })
                .collect();
            Column {
                program: Some(program),
                // The client never materializes trace bytes; consumers
                // that need them recompile from the preset.
                trace: None,
                name: label.to_string(),
                cells,
            }
        })
        .collect();
    Matrix::from_columns(columns)
}

fn cell_from_result(column: &str, row: &Row, served: Option<&CellResult>) -> Cell {
    let (outcome, elapsed_ns, attempts) = match served {
        Some(result) => {
            let outcome = match (&result.run, &result.failure) {
                (Some(run), _) => CellOutcome::Completed(run.clone()),
                // The coordinator preserved the worker's verbatim cause
                // and transient class, so this renders exactly as the
                // equivalent local failure would.
                (None, Some(failure)) => failed(column, row, failure.clone(), result.transient),
                (None, None) => failed(column, row, "served cell carried no outcome", false),
            };
            (outcome, result.elapsed_ns, result.attempts)
        }
        None => (
            failed(column, row, "cell missing from served sweep", false),
            0,
            0,
        ),
    };
    Cell {
        row: row.clone(),
        outcome,
        elapsed: Duration::from_nanos(elapsed_ns),
        attempts: attempts.max(1),
    }
}

fn failed(column: &str, row: &Row, cause: impl Into<String>, transient: bool) -> CellOutcome {
    CellOutcome::Failed(CellFailure {
        program: column.to_string(),
        row: row.clone(),
        cause: FailureCause::Remote {
            cause: cause.into(),
            transient,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Satellite of the observability PR: a failure that travelled
    /// through the service (worker → quarantine → `CellResult` →
    /// reassembly) renders through the same [`CellFailure::render`]
    /// formatter as a local one, with the same cause text, the same
    /// transient/permanent class, and the same attempt count — the only
    /// difference is the `remote:` provenance prefix.
    #[test]
    fn served_failures_render_like_local_ones() {
        let row = Row::NoGc;
        let local = CellFailure {
            program: "SELF".to_string(),
            row: row.clone(),
            cause: FailureCause::Deadline {
                limit: Duration::from_secs(2),
                at: dtb_core::VirtualTime::from_bytes(500),
            },
        };
        // What the worker reports: the verbatim rendered cause plus the
        // transient class — exactly what the coordinator stores.
        let served = CellResult {
            column: local.program.clone(),
            row: row.to_string(),
            attempts: 3,
            elapsed_ns: 0,
            run: None,
            failure: Some(local.cause.to_string()),
            transient: local.cause.is_transient(),
        };
        let cell = cell_from_result(&local.program, &row, Some(&served));
        assert_eq!(cell.attempts, 3);
        let remote = cell.failure().expect("served failure survives reassembly");
        assert!(
            remote.is_transient(),
            "transient class must survive the wire"
        );
        let cause = local.cause.to_string();
        assert_eq!(
            remote.render(cell.attempts),
            local
                .render(3)
                .replacen(&cause, &format!("remote: {cause}"), 1)
        );
    }
}
