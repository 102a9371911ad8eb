//! `dtb-coordinator`: serve the distributed evaluation protocol.
//!
//! ```text
//! dtb-coordinator --addr 127.0.0.1:7077 --journal runs/served \
//!                 --lease-ms 60000 --retries 2
//! ```
//!
//! Runs until `POST /shutdown`. Sweeps arrive over `POST /submit` (e.g.
//! from `repro_full_matrix --submit`), workers over `POST /lease`.

use dtb_sim::exec::RetryPolicy;
use dtb_sim::SimBudget;
use dtb_svc::{Coordinator, CoordinatorConfig, FaultFuse};
use std::collections::HashMap;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: dtb-coordinator [--addr HOST:PORT] [--journal DIR] [--results FILE]\n\
         \x20                      [--lease-ms N] [--retries N] [--idle-ms N]\n\
         \x20                      [--quota TENANT=EVENTS]...\n\
         \x20                      [--fault-journal-writes N] [--fault-results-writes N]\n\
         \n\
         --addr HOST:PORT   listen address (default 127.0.0.1:7077; port 0 = ephemeral)\n\
         --journal DIR      durable per-sweep journals under DIR/sweep-<id>/\n\
         --lease-ms N       lease validity window in ms (default 60000)\n\
         --retries N        transient-failure retries per cell beyond the first attempt (default 2)\n\
         --idle-ms N        poll backoff handed to idle workers in ms (default 100)\n\
         --quota T=N        cap tenant T's cells at N simulation events (repeatable)\n\
         --results FILE     durable results store behind GET /results (a DTBLOG01 record log)\n\
         --fault-journal-writes N   chaos: fail the next N journal finalization writes\n\
         --fault-results-writes N   chaos: tear the next N results-store appends"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, CoordinatorConfig) {
    let mut addr = "127.0.0.1:7077".to_string();
    let mut config = CoordinatorConfig::default();
    let mut quotas = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--journal" => config.journal_dir = Some(value("--journal").into()),
            "--results" => config.results_path = Some(value("--results").into()),
            "--lease-ms" => {
                config.lease_timeout = Duration::from_millis(parse_num(&value("--lease-ms")))
            }
            "--retries" => {
                config.retry = RetryPolicy::retries(parse_num(&value("--retries")) as u32)
            }
            "--idle-ms" => {
                config.idle_retry = Duration::from_millis(parse_num(&value("--idle-ms")))
            }
            "--fault-journal-writes" => {
                config.disk_faults.journal =
                    FaultFuse::charges(parse_num(&value("--fault-journal-writes")) as u32)
            }
            "--fault-results-writes" => {
                config.disk_faults.results =
                    FaultFuse::charges(parse_num(&value("--fault-results-writes")) as u32)
            }
            "--quota" => {
                let spec = value("--quota");
                let Some((tenant, events)) = spec.split_once('=') else {
                    eprintln!("--quota wants TENANT=EVENTS, got `{spec}`");
                    usage()
                };
                quotas.insert(tenant.to_string(), SimBudget::events(parse_num(events)));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    config.quotas = quotas;
    (addr, config)
}

fn parse_num(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("`{s}` is not a number");
        usage()
    })
}

fn main() {
    let (addr, config) = parse_args();
    let coordinator = match Coordinator::bind(&addr, config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dtb-coordinator: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    // The test harnesses parse this line for the ephemeral port; flush
    // explicitly — stdout is block-buffered when piped.
    println!("dtb-coordinator listening on {}", coordinator.addr());
    let report = coordinator.recovery_report();
    println!(
        "dtb-coordinator epoch {} (recovered {} sweeps: {} finalized, {} open cells)",
        coordinator.epoch(),
        report.sweeps,
        report.finalized,
        report.open
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();
    // Serve until `POST /shutdown` stops the accept loop.
    coordinator.join();
}
