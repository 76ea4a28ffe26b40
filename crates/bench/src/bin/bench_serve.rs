//! `qdgnn-bench` — serving-latency benchmark and regression gate.
//!
//! Subcommands:
//!
//! ```text
//! qdgnn-bench [serve] [--out OUT.json] [--metrics-out M.jsonl]
//!     Train a bench-scale AQD-GNN per Fast-profile dataset, serve every
//!     test query through qdgnn_core::OnlineStage under the obs layer,
//!     and write the BENCH_serve.json report (p50/p95 serve latency plus
//!     the encode / forward / BFS stage breakdown). The checked-in copy
//!     at the repo root is the serving-perf regression baseline.
//!
//! qdgnn-bench compare [--baseline-serve P] [--baseline-train P]
//!                     [--serve-rounds N] [--train-rounds N]
//!                     [--skip-train] [--metrics-out M.jsonl]
//!     Re-measure and gate against the checked-in baselines with the
//!     noise-tolerant best-round thresholds from qdgnn_bench::gate
//!     (warn > ×1.10, fail > ×1.25). Exits nonzero on FAIL.
//!
//! qdgnn-bench serve-throughput [--datasets a,b] [--metrics-out M.jsonl]
//!     Fast smoke: sequential vs batched serving QPS on a small dataset
//!     subset (default cornell,texas), with an inline bit-identity check
//!     of the batched scores. Exits nonzero on a degenerate measurement.
//! ```
//!
//! A bare positional argument is accepted as the serve output path for
//! backward compatibility (`qdgnn-bench out.json`).

use std::path::PathBuf;
use std::process::ExitCode;

use qdgnn_bench::gate::{self, Verdict};
use qdgnn_bench::measure::{measure_serve, measure_serve_on, measure_train, EventLog};
use qdgnn_bench::report::{ServeReport, TrainBenchReport};

fn fail(msg: &str) -> ExitCode {
    eprintln!("qdgnn-bench: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    assert!(
        qdgnn_obs::enabled(),
        "qdgnn-bench needs the obs layer; build with default features"
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare_main(&args[1..]),
        Some("serve") => serve_main(&args[1..]),
        Some("serve-throughput") => throughput_main(&args[1..]),
        _ => serve_main(&args),
    }
}

/// `serve-throughput` smoke: measure sequential vs batched serving QPS
/// on a small dataset subset (default `cornell,texas`) and exit nonzero
/// if the batched path produced no throughput. The measurement asserts
/// batched/sequential bit-identity inline before timing, so this also
/// smoke-tests correctness of the batched path at bench scale.
fn throughput_main(args: &[String]) -> ExitCode {
    let mut names = vec!["cornell".to_string(), "texas".to_string()];
    let mut metrics_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--datasets" => match it.next() {
                Some(v) => names = v.split(',').map(str::to_string).collect(),
                None => return fail("--datasets needs a comma-separated list"),
            },
            "--metrics-out" => match it.next() {
                Some(v) => metrics_out = Some(PathBuf::from(v)),
                None => return fail("--metrics-out needs a path"),
            },
            flag => return fail(&format!("unknown serve-throughput flag `{flag}`")),
        }
    }
    let mut datasets = Vec::new();
    for name in &names {
        match name.as_str() {
            "cornell" => datasets.push(qdgnn_data::presets::cornell()),
            "texas" => datasets.push(qdgnn_data::presets::texas()),
            "fb_414" => datasets.push(qdgnn_data::presets::fb_414()),
            "fb_686" => datasets.push(qdgnn_data::presets::fb_686()),
            other => return fail(&format!("unknown dataset `{other}`")),
        }
    }

    let mut log = EventLog::new(metrics_out);
    let report = match measure_serve_on(&datasets, 1, &mut log).into_iter().next() {
        Some(r) => r,
        None => return fail("measurement produced no report"),
    };
    let mut broken = false;
    for (name, d) in &report.datasets {
        let t = &d.throughput;
        println!(
            "{name}: sequential {:.0} qps, batched(batch={}) {:.0} qps, speedup x{:.2}",
            t.sequential_qps, t.batch_size, t.batched_qps, t.speedup()
        );
        if t.batched_qps <= 0.0 || t.sequential_qps <= 0.0 {
            eprintln!("qdgnn-bench: {name}: degenerate throughput measurement");
            broken = true;
        }
    }
    let log_ok = finish_log(log);
    if broken || !log_ok {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn serve_main(args: &[String]) -> ExitCode {
    let mut out = PathBuf::from("BENCH_serve.json");
    let mut metrics_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(v) => out = PathBuf::from(v),
                None => return fail("--out needs a path"),
            },
            "--metrics-out" => match it.next() {
                Some(v) => metrics_out = Some(PathBuf::from(v)),
                None => return fail("--metrics-out needs a path"),
            },
            flag if flag.starts_with('-') => {
                return fail(&format!("unknown serve flag `{flag}`"))
            }
            // Legacy positional output path.
            path => out = PathBuf::from(path),
        }
    }

    let mut log = EventLog::new(metrics_out);
    let report = measure_serve(1, &mut log)
        .into_iter()
        .next()
        .expect("one measurement round");
    let body = report.to_json();
    // Self-check: the report must stay machine-readable.
    qdgnn_obs::json::parse(&body).expect("generated report is valid JSON");
    std::fs::write(&out, &body).expect("write benchmark report");
    eprintln!("[qdgnn-bench] wrote {}", out.display());
    if finish_log(log) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut baseline_serve = PathBuf::from("BENCH_serve.json");
    let mut baseline_train = PathBuf::from("BENCH_train.json");
    let mut serve_rounds = 3usize;
    let mut train_rounds = 2usize;
    let mut skip_train = false;
    let mut metrics_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline-serve" => match it.next() {
                Some(v) => baseline_serve = PathBuf::from(v),
                None => return fail("--baseline-serve needs a path"),
            },
            "--baseline-train" => match it.next() {
                Some(v) => baseline_train = PathBuf::from(v),
                None => return fail("--baseline-train needs a path"),
            },
            "--serve-rounds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => serve_rounds = n,
                _ => return fail("--serve-rounds needs a positive integer"),
            },
            "--train-rounds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => train_rounds = n,
                _ => return fail("--train-rounds needs a positive integer"),
            },
            "--skip-train" => skip_train = true,
            "--metrics-out" => match it.next() {
                Some(v) => metrics_out = Some(PathBuf::from(v)),
                None => return fail("--metrics-out needs a path"),
            },
            flag => return fail(&format!("unknown compare flag `{flag}`")),
        }
    }

    let serve_base = match std::fs::read_to_string(&baseline_serve)
        .map_err(|e| e.to_string())
        .and_then(|t| ServeReport::from_json(&t))
    {
        Ok(b) => b,
        Err(e) => return fail(&format!("baseline {}: {e}", baseline_serve.display())),
    };
    let train_base = if skip_train {
        None
    } else {
        match std::fs::read_to_string(&baseline_train)
            .map_err(|e| e.to_string())
            .and_then(|t| TrainBenchReport::from_json(&t))
        {
            Ok(b) => Some(b),
            Err(e) => return fail(&format!("baseline {}: {e}", baseline_train.display())),
        }
    };

    let mut log = EventLog::new(metrics_out);
    let mut comparisons =
        gate::compare_serve(&serve_base, &measure_serve(serve_rounds, &mut log));
    if let Some(train_base) = &train_base {
        comparisons
            .extend(gate::compare_train(train_base, &measure_train(train_rounds, &mut log)));
    }

    println!("qdgnn-bench compare: {serve_rounds} serve round(s), {} train round(s)", if skip_train { 0 } else { train_rounds });
    for c in &comparisons {
        println!("  {}", c.line());
    }
    let verdict = gate::overall(&comparisons);
    println!(
        "overall: {} (warn > x{}, fail > x{})",
        verdict.tag(),
        gate::WARN_RATIO,
        gate::FAIL_RATIO
    );
    let log_ok = finish_log(log);
    match verdict {
        Verdict::Fail => ExitCode::FAILURE,
        _ if !log_ok => ExitCode::from(2),
        _ => ExitCode::SUCCESS,
    }
}

/// Flushes the `--metrics-out` log. Returns false on an IO error.
fn finish_log(log: EventLog) -> bool {
    match log.write() {
        Ok(Some(path)) => {
            eprintln!("[qdgnn-bench] wrote {}", path.display());
            true
        }
        Ok(None) => true,
        Err(e) => {
            eprintln!("qdgnn-bench: metrics write failed: {e}");
            false
        }
    }
}
