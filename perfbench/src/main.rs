//! `qdgnn-perfbench`: same-host serving and training benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cora-qd --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a host stamp, per-phase counts, the check summary and a metric
//! table, then one JSON result line. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ones (see README.md). Exits
//! nonzero when a correctness check fails or a request fails.

mod host;
mod loadgen;
mod probe;
mod report;
mod rng;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

struct Args {
    workload: &'static workload::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or(format!(
                    "unknown workload {value}; known: {}",
                    workload::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qdgnn-perfbench: {e}");
            eprintln!(
                "usage: qdgnn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "qdgnn-perfbench {} seed {} seconds {} trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = match workload::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qdgnn-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report.to_json() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("qdgnn-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
