//! `dtb-worker`: lease matrix cells from a coordinator and run them.
//!
//! ```text
//! dtb-worker --addr 127.0.0.1:7077 --name w1 --exit-when-done
//! ```
//!
//! The `--fault-*` flags wrap the transport in the deterministic
//! [`NetFault`] layer — the chaos suites run real workers over a
//! misbehaving wire and assert the matrix still converges.

use dtb_sim::exec::RetryPolicy;
use dtb_svc::client::TcpTransport;
use dtb_svc::fault::{FaultPlan, NetFault};
use dtb_svc::worker::{run_worker, serve_healthz, WorkerConfig, WorkerExit, WorkerHealth};
use dtb_svc::Client;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: dtb-worker --addr HOST:PORT [--name NAME] [--exit-when-done]\n\
         \x20                 [--cell-delay-ms N] [--net-retries N]\n\
         \x20                 [--reconnect-ms N] [--healthz HOST:PORT]\n\
         \x20                 [--fault-drop-every N] [--fault-garble-every N]\n\
         \x20                 [--fault-replay-every N] [--fault-delay-every N:MS]\n\
         \n\
         --addr HOST:PORT      coordinator address (required)\n\
         --name NAME           worker identity (default: worker-<pid>)\n\
         --exit-when-done      exit 0 once the coordinator reports all sweeps done\n\
         --cell-delay-ms N     pause before each cell (crash-test pacing)\n\
         --relay-events        relay per-scavenge telemetry into the coordinator's /events\n\
         --net-retries N       wire-failure retries per exchange (default 4)\n\
         --reconnect-ms N      ride out up to N ms of continuous coordinator outage\n\
         \x20                      (default: fail fast once --net-retries is spent)\n\
         --healthz HOST:PORT   serve GET /healthz liveness counters on this address\n\
         --fault-*             deterministic network fault injection (see docs)"
    );
    std::process::exit(2);
}

struct Args {
    addr: String,
    config: WorkerConfig,
    net_retries: u32,
    plan: FaultPlan,
    healthz: Option<String>,
}

fn parse_args() -> Args {
    let mut addr: Option<String> = None;
    let mut config = WorkerConfig::new(format!("worker-{}", std::process::id()));
    let mut net_retries = 4u32;
    let mut plan = FaultPlan::none();
    let mut healthz: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--name" => config.name = value("--name"),
            "--exit-when-done" => config.exit_when_done = true,
            "--cell-delay-ms" => {
                config.cell_delay = Duration::from_millis(parse_num(&value("--cell-delay-ms")))
            }
            "--relay-events" => config.relay_events = true,
            "--net-retries" => net_retries = parse_num(&value("--net-retries")) as u32,
            "--reconnect-ms" => {
                config.reconnect = Some(Duration::from_millis(parse_num(&value("--reconnect-ms"))))
            }
            "--healthz" => healthz = Some(value("--healthz")),
            "--fault-drop-every" => plan.drop_every = Some(parse_num(&value("--fault-drop-every"))),
            "--fault-garble-every" => {
                plan.garble_every = Some(parse_num(&value("--fault-garble-every")))
            }
            "--fault-replay-every" => {
                plan.replay_every = Some(parse_num(&value("--fault-replay-every")))
            }
            "--fault-delay-every" => {
                let spec = value("--fault-delay-every");
                let Some((every, ms)) = spec.split_once(':') else {
                    eprintln!("--fault-delay-every wants N:MS, got `{spec}`");
                    usage()
                };
                plan.delay_every = Some((parse_num(every), Duration::from_millis(parse_num(ms))));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("--addr is required");
        usage()
    };
    Args {
        addr,
        config,
        net_retries,
        plan,
        healthz,
    }
}

fn parse_num(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("`{s}` is not a number");
        usage()
    })
}

fn main() {
    let mut args = parse_args();
    if let Some(healthz) = &args.healthz {
        let health = Arc::new(WorkerHealth::default());
        match serve_healthz(healthz, &args.config.name, Arc::clone(&health)) {
            Ok(bound) => {
                args.config.health = Some(health);
                eprintln!("dtb-worker {}: healthz on {bound}", args.config.name);
            }
            Err(e) => {
                eprintln!("dtb-worker: cannot bind healthz {healthz}: {e}");
                std::process::exit(1);
            }
        }
    }
    let transport = NetFault::new(TcpTransport::new(args.addr.clone()), args.plan);
    let mut client =
        Client::with_transport(Box::new(transport), RetryPolicy::retries(args.net_retries));
    eprintln!(
        "dtb-worker {} polling {} (exit-when-done: {})",
        args.config.name, args.addr, args.config.exit_when_done
    );
    match run_worker(&mut client, &args.config) {
        WorkerExit::Drained => {
            eprintln!("dtb-worker {}: drained, exiting", args.config.name);
        }
        WorkerExit::Lost(e) => {
            eprintln!("dtb-worker {}: coordinator lost: {e}", args.config.name);
            std::process::exit(1);
        }
    }
}
