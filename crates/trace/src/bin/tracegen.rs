//! `tracegen`: generate, inspect, and analyze workload trace files.
//!
//! ```text
//! tracegen gen <PROGRAM> <OUT.dtbtrc>            generate a preset workload trace
//! tracegen info <FILE.dtbtrc>                    print trace statistics
//! tracegen survival <FILE.dtbtrc>                print the survival curve
//! tracegen compile <IN.dtbtrc> <OUT_DIR>         compile to a one-shard DTBCTC02 store
//! tracegen shard <IN.dtbtrc> <OUT_DIR> <STRIDE>  compile to a store with STRIDE records/shard
//! tracegen verify <STORE_DIR>                    re-check a DTBCTC02 store's checksums
//! tracegen list                                  list the preset workloads
//! ```
//!
//! `compile` and `shard` run the streaming two-pass converter: the event
//! file is read record-at-a-time twice (deaths resolve on the first
//! pass), so event files larger than RAM convert in O(objects-index)
//! memory and the resulting store replays through the simulator in
//! O(live set) memory.

use dtb_trace::analysis::{Demographics, SurvivalCurve};
use dtb_trace::ctc::{convert_trace_file, verify_store};
use dtb_trace::io::{read_trace, write_trace};
use dtb_trace::programs::Program;
use dtb_trace::stats::TraceStats;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  tracegen gen <PROGRAM> <OUT.dtbtrc>\n  tracegen info <FILE.dtbtrc>\n  \
         tracegen survival <FILE.dtbtrc>\n  tracegen compile <IN.dtbtrc> <OUT_DIR>\n  \
         tracegen shard <IN.dtbtrc> <OUT_DIR> <RECORDS_PER_SHARD>\n  \
         tracegen verify <STORE_DIR>\n  tracegen list\n\
         \n  global: --events <PATH>  capture telemetry (JSON lines)"
    );
    ExitCode::from(2)
}

/// Runs the streaming converter and reports the resulting store shape.
fn convert(src: &str, dir: &str, records_per_shard: u64) -> ExitCode {
    match convert_trace_file(src, dir, records_per_shard) {
        Ok(manifest) => {
            println!(
                "wrote {dir} ({} records, {} shard{})",
                manifest.total_records,
                manifest.shards.len(),
                if manifest.shards.len() == 1 { "" } else { "s" },
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot convert {src}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn find_program(label: &str) -> Option<Program> {
    Program::ALL
        .into_iter()
        .find(|p| p.label().eq_ignore_ascii_case(label))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global `--events <path>`: install the observability capture sink
    // before the subcommand runs, so anything the tool emits (e.g.
    // `trace_synthesized` from `gen`) lands in the file.
    let mut capture = None;
    if let Some(at) = args.iter().position(|a| a == "--events") {
        if at + 1 >= args.len() {
            eprintln!("--events needs a path");
            return usage();
        }
        let path = std::path::PathBuf::from(args.remove(at + 1));
        args.remove(at);
        match dtb_obs::FileSink::create(&path) {
            Ok(sink) => capture = Some(dtb_obs::install(std::sync::Arc::new(sink))),
            Err(e) => {
                eprintln!("cannot capture events to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let _capture = capture;
    match args.first().map(String::as_str) {
        Some("list") => {
            for p in Program::ALL {
                let prof = p.paper_profile();
                println!(
                    "{:12} {:>6.1} MB total, {:>4} collections — {}",
                    p.label(),
                    prof.total_alloc as f64 / (1024.0 * 1024.0),
                    prof.collections,
                    p.spec().description,
                );
            }
            ExitCode::SUCCESS
        }
        Some("gen") if args.len() == 3 => {
            let Some(program) = find_program(&args[1]) else {
                eprintln!("unknown program {:?}; try `tracegen list`", args[1]);
                return ExitCode::FAILURE;
            };
            let trace = program.generate();
            if let Err(e) = write_trace(&args[2], &trace) {
                eprintln!("cannot write {}: {e}", args[2]);
                return ExitCode::FAILURE;
            }
            dtb_obs::emit(|| dtb_obs::Event::TraceSynthesized {
                name: program.label().to_string(),
                events: trace.events.len() as u64,
                allocated: trace.total_allocated().as_u64(),
            });
            dtb_obs::flush();
            println!(
                "wrote {} ({} events, {} objects)",
                args[2],
                trace.events.len(),
                trace.object_count()
            );
            ExitCode::SUCCESS
        }
        Some("info") if args.len() == 2 => {
            let trace = match read_trace(&args[1]) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let compiled = match trace.compile() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("trace file inconsistent: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stats = TraceStats::compute_compiled(&compiled);
            println!("name:            {}", stats.name);
            println!("total allocated: {} bytes", stats.total_allocated);
            println!("objects:         {}", stats.object_count);
            println!("mean size:       {:.1} bytes", stats.mean_object_size);
            println!(
                "live mean/max:   {:.0} / {:.0} KB",
                stats.live_mean.as_kb(),
                stats.live_max.as_kb()
            );
            println!("exec time:       {} s", stats.exec_seconds);
            println!("collections@1MB: {}", stats.collections_at_1mb);
            let demo = Demographics::compute(&compiled);
            println!(
                "demographics:    {:.1}% young, {:.1}% medium, {:.1}% immortal",
                demo.young_death_fraction() * 100.0,
                demo.medium_lived.as_u64() as f64 / demo.total.as_u64() as f64 * 100.0,
                demo.immortal.as_u64() as f64 / demo.total.as_u64() as f64 * 100.0,
            );
            ExitCode::SUCCESS
        }
        Some("compile") if args.len() == 3 => convert(&args[1], &args[2], u64::MAX),
        Some("shard") if args.len() == 4 => {
            let Ok(stride) = args[3].parse::<u64>() else {
                eprintln!("records-per-shard must be an integer, got {:?}", args[3]);
                return ExitCode::FAILURE;
            };
            if stride == 0 {
                eprintln!("records-per-shard must be at least 1");
                return ExitCode::FAILURE;
            }
            convert(&args[1], &args[2], stride)
        }
        Some("verify") if args.len() == 2 => {
            let report = match verify_store(&args[1]) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("cannot verify {}: {e}", args[1]);
                    return ExitCode::FAILURE;
                }
            };
            for shard in &report.shards {
                match &shard.error {
                    None => {
                        println!("{}: OK ({} records)", shard.path.display(), shard.records);
                    }
                    Some(e) => {
                        println!("{}: FAILED", shard.path.display());
                        eprintln!("{e}");
                    }
                }
            }
            if report.is_ok() {
                println!(
                    "store ok: {} records across {} shard{}",
                    report.manifest.total_records,
                    report.shards.len(),
                    if report.shards.len() == 1 { "" } else { "s" },
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "{} of {} shards failed verification",
                    report.bad_shards().count(),
                    report.shards.len()
                );
                ExitCode::FAILURE
            }
        }
        Some("survival") if args.len() == 2 => {
            let trace = match read_trace(&args[1]) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let compiled = match trace.compile() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("trace file inconsistent: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let curve = SurvivalCurve::at_paper_checkpoints(&compiled);
            println!("age(bytes),survival");
            for (age, s) in curve.ages.iter().zip(&curve.survival) {
                println!("{age},{s:.6}");
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
