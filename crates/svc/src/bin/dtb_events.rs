//! `dtb-events`: watch and query a running coordinator.
//!
//! ```text
//! dtb-events tail --addr 127.0.0.1:7077 [--from N] [--reconnect-ms N]
//! dtb-events results --addr 127.0.0.1:7077 --sweep 1
//! dtb-events status --addr 127.0.0.1:7077
//! ```
//!
//! `tail` follows the coordinator's `GET /events` server-push stream and
//! prints one JSON event per line until the stream ends (coordinator
//! shutdown) — pipe it through `grep`/`jq` to watch a sweep fill in.
//! With `--reconnect-ms` the tail rides out coordinator restarts,
//! resuming from its epoch-tagged cursor with no gaps or duplicates.
//! `results` queries `GET /results` and prints the reply JSON.
//! `status` prints the coordinator's `GET /status` snapshot: recovery
//! epoch, per-sweep progress, and per-tenant queue depths.

use dtb_svc::events::{follow_events, follow_events_resilient, EventCursor};
use dtb_svc::proto::encode;
use dtb_svc::Client;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: dtb-events tail --addr HOST:PORT [--from N] [--reconnect-ms N]\n\
         \x20      dtb-events results --addr HOST:PORT --sweep N\n\
         \x20      dtb-events status --addr HOST:PORT\n\
         \n\
         tail     stream /events (one JSON event per line) until the coordinator stops\n\
         results  print the /results reply for one sweep\n\
         status   print the /status snapshot (epoch, sweeps, tenant queues)\n\
         --addr HOST:PORT  coordinator address (required)\n\
         --from N          first event sequence number to stream (default 1)\n\
         --reconnect-ms N  ride out up to N ms of continuous coordinator outage,\n\
         \x20                  resuming the stream from the epoch-tagged cursor\n\
         --sweep N         sweep id to query"
    );
    std::process::exit(2);
}

struct Args {
    command: String,
    addr: Option<String>,
    from: u64,
    reconnect: Option<Duration>,
    sweep: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage() };
    let mut parsed = Args {
        command,
        addr: None,
        from: 1,
        reconnect: None,
        sweep: None,
    };
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => parsed.addr = Some(value("--addr")),
            "--from" => parsed.from = parse_num(&value("--from")),
            "--reconnect-ms" => {
                parsed.reconnect = Some(Duration::from_millis(parse_num(&value("--reconnect-ms"))))
            }
            "--sweep" => parsed.sweep = Some(parse_num(&value("--sweep"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    parsed
}

fn parse_num(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("`{s}` is not a number");
        usage()
    })
}

fn main() {
    let args = parse_args();
    let Some(addr) = args.addr.clone() else {
        eprintln!("--addr is required");
        usage()
    };
    match args.command.as_str() {
        "tail" => {
            use std::io::Write;
            let stop = AtomicBool::new(false);
            let mut out = std::io::stdout();
            // A closed pipe downstream (e.g. `| head`) ends the tail.
            let followed = match args.reconnect {
                Some(window) => {
                    // Anchor `--from` in the coordinator's current epoch
                    // so it means "seq N of the stream as it is now";
                    // epoch 0 (coordinator unreachable) starts from the
                    // beginning of whatever epoch answers first.
                    let epoch = Client::connect(addr.clone())
                        .status()
                        .map(|s| s.epoch)
                        .unwrap_or(0);
                    let cursor = EventCursor {
                        epoch,
                        seq: args.from,
                    };
                    follow_events_resilient(&addr, cursor, window, &stop, |line| {
                        writeln!(out, "{line}").and_then(|()| out.flush()).is_ok()
                    })
                }
                None => follow_events(&addr, args.from, &stop, |line| {
                    writeln!(out, "{line}").and_then(|()| out.flush()).is_ok()
                }),
            };
            if let Err(e) = followed {
                eprintln!("dtb-events: stream from {addr} failed: {e}");
                std::process::exit(1);
            }
        }
        "status" => {
            let mut client = Client::connect(addr.clone());
            match client.status() {
                Ok(reply) => {
                    let json = String::from_utf8(encode(&reply)).expect("wire JSON is UTF-8");
                    println!("{json}");
                }
                Err(e) => {
                    eprintln!("dtb-events: /status from {addr} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "results" => {
            let Some(sweep) = args.sweep else {
                eprintln!("--sweep is required for `results`");
                usage()
            };
            let mut client = Client::connect(addr.clone());
            match client.results(sweep) {
                Ok(reply) => {
                    let json = String::from_utf8(encode(&reply)).expect("wire JSON is UTF-8");
                    println!("{json}");
                }
                Err(e) => {
                    eprintln!("dtb-events: /results from {addr} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    }
}
