//! End-to-end benchmark of dbTouch gesture serving over TCP.
//!
//! One process runs the server (`dbtouch_net::NetServer` over the workload's
//! catalog) and a closed-loop load generator of at most two client threads
//! that drive it through `TcpClient`. Every closed session's result digest
//! is checked against an in-process replay of the same seeded plans.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload survey_tcp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate run
//! that reports the per-layer metrics and writes a Chrome trace. The last
//! line of standard output is the JSON result; the lines before it print
//! every metric with its unit and sample support. See `WORKLOADS.md`.

mod cli;
mod load;
mod run;
mod setup;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    // Scratch space inside the working directory: persisted catalogs (removed
    // at the end of the run) and the traced run's Chrome trace.
    let root = PathBuf::from(".perfbench_work");
    let work = root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let outcome = if args.trace {
        let trace_file = root.join(format!("{}-{}.trace.json", args.workload, args.seed));
        run::traced(&args, &work, &trace_file)
    } else {
        run::untraced(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &outcome.info {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}:{{\"value\":{},\"unit\":{:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: digest mismatch — results differ from the in-process replay");
        ExitCode::from(1)
    }
}
