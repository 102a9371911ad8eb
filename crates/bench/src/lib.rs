//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation.
//!
//! * `repro_table2` — mean and maximum memory per collector per workload;
//! * `repro_table3` — median and 90th-percentile pause times;
//! * `repro_table4` — total bytes traced and estimated CPU overhead;
//! * `repro_table56` — workload descriptions and allocation behaviour;
//! * `repro_fig2` — the memory-over-time curves (CSV series);
//! * `repro_claims` — the §6.1/§6.2 qualitative claims, checked; it exits
//!   nonzero when one fails;
//! * `bench_dtb` and `stream_smoke` — the throughput and bounded-memory
//!   smoke gates.
//!
//! [`paper`] embeds the published numbers so every printer can show
//! paper-vs-measured side by side; [`table`] renders aligned text tables.
//!
//! All the `repro_*` binaries regenerate the matrix through
//! [`Evaluation`]: preset traces compile exactly once per process and the
//! (program × policy) cells fan out over a worker pool, with per-cell
//! progress on stderr. The matrix-driven binaries take
//! `--journal <dir>` / `--resume <dir>` ([`RunOpts`]) to survive
//! interruption: a journaled run that dies — even to `SIGKILL` — resumes
//! losing at most the cells in flight.

#![forbid(unsafe_code)]

pub mod paper;
pub mod table;

/// Peak resident set size (`VmHWM`) from `/proc/self/status`, in bytes
/// (Linux; `None` elsewhere).
///
/// `VmHWM` is the process-lifetime **high-water** mark: it only ever
/// rises. A phase that allocates less than an earlier phase therefore
/// reads a delta of zero — useful for asserting a later phase stayed
/// *under* an earlier peak (`bench_dtb`'s streaming column) or for
/// bounding a whole process (`stream_smoke`), but not for profiling an
/// individual phase in isolation.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

use dtb_core::policy::{PolicyConfig, Row};
use dtb_sim::engine::SimConfig;
use dtb_sim::exec::{Evaluation, Matrix};
use std::path::PathBuf;

/// Crash-safety and observability options shared by the `repro_*`
/// binaries, parsed from the command line:
///
/// * `--journal <dir>` — write a durable run journal while evaluating,
///   so a later `--resume <dir>` can pick up where a crash stopped;
/// * `--resume <dir>` — resume from that journal: cells it records as
///   completed are reused verbatim, only the missing ones are computed
///   (and journaled in turn);
/// * `--events <path>` — capture the run's full telemetry stream
///   (per-scavenge spans, cell lifecycle) to a file as JSON lines;
/// * `--follow <host:port>` — tail a coordinator's `GET /events`
///   server-push stream on stderr while the run proceeds (pairs with
///   `--submit` to watch the distributed workers fill the sweep in).
///
/// Unknown flags are rejected with a usage message on stderr and exit
/// code 2, so each binary stays a one-liner.
#[derive(Clone, Debug, Default)]
pub struct RunOpts {
    /// Journal directory, if any.
    pub journal: Option<PathBuf>,
    /// Whether to resume from (rather than overwrite) the journal.
    pub resume: bool,
    /// Submit the matrix to a running `dtb-coordinator` at this address
    /// instead of evaluating in-process (`--submit HOST:PORT`).
    pub submit: Option<String>,
    /// Capture the observability event stream to this file
    /// (`--events PATH`).
    pub events: Option<PathBuf>,
    /// Tail this coordinator's `/events` stream on stderr
    /// (`--follow HOST:PORT`).
    pub follow: Option<String>,
}

impl RunOpts {
    /// Parses the process arguments; exits with a usage message on
    /// unknown flags.
    pub fn from_args() -> RunOpts {
        let mut opts = RunOpts::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let dir = |it: &mut dyn Iterator<Item = String>| {
                it.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("{flag} needs a path");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--journal" => {
                    opts.journal = Some(dir(&mut it));
                    opts.resume = false;
                }
                "--resume" => {
                    opts.journal = Some(dir(&mut it));
                    opts.resume = true;
                }
                "--submit" => {
                    opts.submit = Some(it.next().unwrap_or_else(|| {
                        eprintln!("--submit needs a coordinator address (host:port)");
                        std::process::exit(2)
                    }));
                }
                "--events" => {
                    opts.events = Some(dir(&mut it));
                }
                "--follow" => {
                    opts.follow = Some(it.next().unwrap_or_else(|| {
                        eprintln!("--follow needs a coordinator address (host:port)");
                        std::process::exit(2)
                    }));
                }
                other => {
                    eprintln!("unknown flag: {other}");
                    eprintln!(
                        "usage: [--journal <dir> | --resume <dir> | --submit <host:port>] \
                         [--events <path>] [--follow <host:port>]"
                    );
                    std::process::exit(2);
                }
            }
        }
        opts
    }

    /// Applies these options to an evaluation builder.
    pub fn apply(&self, eval: Evaluation) -> Evaluation {
        match &self.journal {
            Some(dir) if self.resume => eval.resume(dir),
            Some(dir) => eval.journal(dir),
            None => eval,
        }
    }

    /// Installs the `--events <path>` capture sink, when asked for.
    ///
    /// The returned guard must outlive the run: dropping it uninstalls
    /// the sink (flushing what the bus still holds). An unwritable
    /// path is a hard error — same contract as a broken journal.
    pub fn capture(&self) -> Option<dtb_obs::SinkGuard> {
        let path = self.events.as_deref()?;
        match dtb_obs::FileSink::create(path) {
            Ok(sink) => Some(dtb_obs::install(std::sync::Arc::new(sink))),
            Err(e) => {
                eprintln!("cannot capture events to {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }

    /// Starts the `--follow <addr>` tail, when asked for: a background
    /// thread streaming the coordinator's `/events` push channel to
    /// stderr, one JSON event per line. The tail rides out coordinator
    /// restarts (it resumes from its epoch-tagged cursor, so a restart
    /// costs no events and repeats none) and gives up only after a
    /// minute of continuous unreachability — reported on stderr, never
    /// failing the run: the tail is a window, not a dependency.
    pub fn spawn_follow(&self) {
        let Some(addr) = self.follow.clone() else {
            return;
        };
        std::thread::spawn(move || {
            static STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
            let followed = dtb_svc::follow_events_resilient(
                &addr,
                dtb_svc::EventCursor::start(),
                std::time::Duration::from_secs(60),
                &STOP,
                |line| {
                    eprintln!("{line}");
                    true
                },
            );
            if let Err(e) = followed {
                eprintln!("--follow {addr}: stream ended: {e}");
            }
        });
    }
}

/// Runs the full evaluation matrix with the paper's parameters: every
/// collector (plus baselines) over every workload.
///
/// This is the data behind Tables 2, 3 and 4. Cells run in parallel;
/// progress goes to stderr.
pub fn full_matrix() -> Matrix {
    matrix_for(&PolicyConfig::paper(), &SimConfig::paper())
}

/// [`full_matrix`] honouring the `--journal`/`--resume` command-line
/// options — the entry point of the table-regenerating binaries.
pub fn full_matrix_cli() -> Matrix {
    matrix_for_opts(
        &PolicyConfig::paper(),
        &SimConfig::paper(),
        &RunOpts::from_args(),
    )
}

/// Runs the evaluation matrix with explicit parameters.
pub fn matrix_for(cfg: &PolicyConfig, sim: &SimConfig) -> Matrix {
    matrix_for_opts(cfg, sim, &RunOpts::default())
}

/// Runs the evaluation matrix with explicit parameters and crash-safety
/// options. A journal that cannot be written or refuses to resume
/// (version/shape mismatch, corruption) is a hard error: the message
/// goes to stderr and the process exits with code 2.
///
/// With `--submit <addr>` the matrix is not evaluated here at all: the
/// sweep goes to a running `dtb-coordinator`, workers do the computing,
/// and the served result is reassembled into the same [`Matrix`] shape —
/// the table printers cannot tell the difference.
pub fn matrix_for_opts(cfg: &PolicyConfig, sim: &SimConfig, opts: &RunOpts) -> Matrix {
    let _capture = opts.capture();
    opts.spawn_follow();
    if let Some(addr) = &opts.submit {
        return matrix_served(addr, cfg, sim);
    }
    // Per-cell progress renders from the observability bus — the same
    // `cell_finished` events a capture file or a coordinator follower
    // sees — rather than from a private callback, so every consumer of
    // the run watches one stream.
    let _progress = progress_sink();
    let eval = Evaluation::new().policy_config(*cfg).sim_config(*sim);
    let matrix = match opts.apply(eval).try_run() {
        Ok(matrix) => matrix,
        Err(e) => {
            eprintln!("run journal error: {e}");
            std::process::exit(2);
        }
    };
    // Drain the bus before the table prints so progress lines and the
    // `--events` capture are complete.
    dtb_obs::flush();
    matrix
}

/// Installs a bus sink that renders cell completions as the classic
/// stderr progress line. The guard keeps instrumentation enabled for
/// the evaluation's duration.
fn progress_sink() -> dtb_obs::SinkGuard {
    dtb_obs::install(std::sync::Arc::new(dtb_obs::FnSink(
        |env: &dtb_obs::Envelope| {
            if let dtb_obs::Event::CellFinished {
                column,
                row,
                elapsed_ns,
                completed,
                total,
                ..
            } = &env.event
            {
                eprintln!(
                    "[{:>2}/{}] {} × {} in {:.1?}",
                    completed,
                    total,
                    column,
                    row,
                    std::time::Duration::from_nanos(*elapsed_ns)
                );
            }
        },
    )))
}

/// Submits the paper matrix to the coordinator at `addr`, waits for the
/// distributed workers to finish it, and reassembles the served sweep.
///
/// The wait survives coordinator restarts: the sweep is durable in the
/// coordinator's sweep log, so after a crash the poll simply resumes
/// against the recovered incarnation. Only a permanent protocol refusal
/// (`4xx`) or a full minute of continuous unreachability exits with
/// code 2 — same contract as a broken journal.
fn matrix_served(addr: &str, cfg: &PolicyConfig, sim: &SimConfig) -> Matrix {
    use dtb_svc::proto::SweepSpec;
    use std::time::{Duration, Instant};
    let spec = SweepSpec {
        tenant: "repro".to_string(),
        programs: dtb_trace::programs::Program::ALL.to_vec(),
        policies: dtb_core::policy::PolicyKind::ALL.to_vec(),
        baselines: true,
        policy: *cfg,
        sim: *sim,
    };
    let mut client = dtb_svc::Client::connect(addr).retry(dtb_sim::exec::RetryPolicy::retries(8));
    let submitted = match client.submit(&spec) {
        Ok(reply) => reply,
        Err(e) => {
            eprintln!("submit to {addr} failed: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "submitted sweep {} ({} cells) to {addr}; waiting for workers",
        submitted.sweep, submitted.cells
    );
    // A restart-tolerant wait: each successful poll resets the outage
    // clock, so only *continuous* downtime counts against the budget.
    let outage_budget = Duration::from_secs(60);
    let mut outage_started: Option<Instant> = None;
    loop {
        match client.sweep(submitted.sweep) {
            Ok(reply) if reply.done => return dtb_svc::matrix_from_sweep(&reply),
            Ok(_) => outage_started = None,
            Err(e @ dtb_svc::SvcError::Protocol { status, .. }) if (400..500).contains(&status) => {
                eprintln!("sweep {} refused: {e}", submitted.sweep);
                std::process::exit(2);
            }
            Err(e) => {
                let started = *outage_started.get_or_insert_with(Instant::now);
                if started.elapsed() >= outage_budget {
                    eprintln!(
                        "sweep {}: coordinator unreachable for {:?}: {e}",
                        submitted.sweep, outage_budget
                    );
                    std::process::exit(2);
                }
                eprintln!(
                    "sweep {}: coordinator away ({e}); retrying until it recovers",
                    submitted.sweep
                );
            }
        }
        std::thread::sleep(Duration::from_millis(500));
    }
}

/// The rows of Tables 2–4, in order: six collectors, then the baselines
/// that appear only in Table 2.
pub fn collector_rows() -> [Row; 8] {
    Row::table_rows()
}

/// Lists every failed cell on stderr and turns the matrix's completeness
/// into a process exit code.
///
/// The `repro_*` binaries print their tables with failed cells marked
/// (the healthy cells are still useful), then finish through this so a
/// partial run is visible to scripts and CI as a nonzero exit.
pub fn exit_reporting_failures(matrix: &Matrix) -> std::process::ExitCode {
    let failed: Vec<_> = matrix
        .cells()
        .filter(|(_, cell)| cell.failure().is_some())
        .collect();
    if failed.is_empty() {
        return std::process::ExitCode::SUCCESS;
    }
    eprintln!("\n{} cell(s) failed:", failed.len());
    for (_, cell) in &failed {
        let failure = cell.failure().expect("filtered to failed cells");
        // One formatter for local and served failures
        // (`CellFailure::render`): a `--submit` run and an in-process
        // run report the same cell identically, provenance prefix
        // aside.
        eprintln!("  {}", failure.render(cell.attempts));
    }
    std::process::ExitCode::FAILURE
}
