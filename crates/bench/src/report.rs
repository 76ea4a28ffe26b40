//! The checked-in benchmark report schema (`BENCH_serve.json`,
//! `BENCH_train.json`).
//!
//! Both reports are small hand-rolled JSON documents (the workspace has
//! no serialization dependency): the serve report carries per-dataset latency histograms
//! with the encode / forward / BFS stage breakdown, the train report
//! carries training throughput and the peak live tensor bytes observed
//! by the obs memory accounting. `qdgnn-bench compare` parses the
//! checked-in copies as regression baselines (see [`crate::gate`]).

use std::fmt::Write as _;

use qdgnn_obs::json::{self, Value};

/// p50/p95/mean of one latency histogram, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct HistStats {
    /// Median latency.
    pub p50_us: f64,
    /// 95th-percentile latency.
    pub p95_us: f64,
    /// Mean latency.
    pub mean_us: f64,
}

/// Sequential-vs-batched serving throughput for one dataset.
///
/// Both numbers come from the same workload on the same stage: the
/// sequential pass calls `try_query` once per query, the batched pass
/// calls `try_query_batch` in chunks of `batch_size` (bit-identical
/// scores — the measurement asserts it inline before timing).
#[derive(Clone, Copy, Debug, Default)]
pub struct ThroughputStats {
    /// Chunk size of the batched pass.
    pub batch_size: u64,
    /// One-query-at-a-time throughput, queries/second.
    pub sequential_qps: f64,
    /// Batched throughput, queries/second.
    pub batched_qps: f64,
}

impl ThroughputStats {
    /// Batched-over-sequential speedup (0 when sequential is degenerate).
    pub fn speedup(&self) -> f64 {
        if self.sequential_qps > 0.0 {
            self.batched_qps / self.sequential_qps
        } else {
            0.0
        }
    }
}

/// One dataset's serving measurement.
#[derive(Clone, Debug, Default)]
pub struct ServeDataset {
    /// Queries served (test queries × rounds per query).
    pub queries_served: u64,
    /// End-to-end `serve.query` latency.
    pub serve: HistStats,
    /// `serve.encode` stage latency.
    pub encode: HistStats,
    /// `serve.forward` stage latency.
    pub forward: HistStats,
    /// `serve.bfs` stage latency.
    pub bfs: HistStats,
    /// Mean returned community size.
    pub community_size_mean: f64,
    /// Sequential-vs-batched throughput.
    pub throughput: ThroughputStats,
}

/// The overload scenario: offered load beyond engine capacity with
/// per-request deadlines armed, measuring how gracefully the engine
/// degrades. Two gated metrics come out of it: the p99 latency of
/// *accepted* requests (overload must not wreck survivors) and the shed
/// rate (how much load the deadline tiers turned away).
#[derive(Clone, Debug, Default)]
pub struct OverloadStats {
    /// Dataset the scenario ran against.
    pub dataset: String,
    /// Per-request deadline budget armed during the scenario (µs).
    pub deadline_us: u64,
    /// Requests offered by the load generators.
    pub offered: u64,
    /// Requests answered with a community (accepted and served).
    pub accepted: u64,
    /// Requests shed with `DeadlineExceeded` (admission tier + dequeue
    /// tier) or rejected by queue backpressure.
    pub shed: u64,
    /// Engine-side admission-tier sheds (`EngineStats::shed_admission`);
    /// the tier breakdown must agree with the per-outcome labeled
    /// metrics the engine exports.
    pub shed_admission: u64,
    /// Engine-side dequeue-tier sheds (`EngineStats::shed_deadline`).
    pub shed_deadline: u64,
    /// Worker panics absorbed during the scenario
    /// (`EngineStats::worker_panics`) — expected 0; a nonzero count
    /// means accepted/shed arithmetic excludes panicked requests.
    pub worker_panics: u64,
    /// 99th-percentile latency of accepted requests, microseconds.
    pub p99_accepted_us: f64,
    /// `shed / offered` — fraction of offered load turned away.
    pub shed_rate: f64,
}

/// The `BENCH_serve.json` document.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Serve repetitions per query inside one measurement.
    pub rounds_per_query: u64,
    /// Per-dataset measurements, in measurement order.
    pub datasets: Vec<(String, ServeDataset)>,
    /// The overload-degradation scenario (one per report).
    pub overload: OverloadStats,
}

/// One dataset's training measurement.
#[derive(Clone, Debug, Default)]
pub struct TrainDataset {
    /// Epochs the trainer ran.
    pub epochs: u64,
    /// Training throughput (epochs per wall-clock second).
    pub epochs_per_sec: f64,
    /// Peak live tensor bytes during training (obs memory accounting).
    pub peak_live_bytes: u64,
}

/// The `BENCH_train.json` document.
#[derive(Clone, Debug, Default)]
pub struct TrainBenchReport {
    /// Per-dataset measurements, in measurement order.
    pub datasets: Vec<(String, TrainDataset)>,
}

fn hist_json(out: &mut String, h: &HistStats) {
    let _ = write!(
        out,
        "{{\"p50_us\":{},\"p95_us\":{},\"mean_us\":{}}}",
        json::num(h.p50_us),
        json::num(h.p95_us),
        json::num(h.mean_us)
    );
}

fn req_num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_num).ok_or_else(|| format!("missing numeric `{key}`"))
}

fn hist_from(v: &Value, key: &str) -> Result<HistStats, String> {
    let h = v.get(key).ok_or_else(|| format!("missing `{key}` histogram"))?;
    Ok(HistStats {
        p50_us: req_num(h, "p50_us")?,
        p95_us: req_num(h, "p95_us")?,
        mean_us: req_num(h, "mean_us")?,
    })
}

fn throughput_from(v: &Value) -> Result<ThroughputStats, String> {
    let t = v.get("throughput").ok_or("missing `throughput` object")?;
    Ok(ThroughputStats {
        batch_size: req_num(t, "batch_size")? as u64,
        sequential_qps: req_num(t, "sequential_qps")?,
        batched_qps: req_num(t, "batched_qps")?,
    })
}

fn overload_from(v: &Value) -> Result<OverloadStats, String> {
    // Required: a baseline without the overload scenario predates the
    // degradation gate and must be regenerated, not silently accepted.
    let o = v.get("overload").ok_or("missing `overload` object")?;
    Ok(OverloadStats {
        dataset: o
            .get("dataset")
            .and_then(Value::as_str)
            .ok_or("missing string `dataset` in `overload`")?
            .to_string(),
        deadline_us: req_num(o, "deadline_us")? as u64,
        offered: req_num(o, "offered")? as u64,
        accepted: req_num(o, "accepted")? as u64,
        shed: req_num(o, "shed")? as u64,
        shed_admission: req_num(o, "shed_admission")? as u64,
        shed_deadline: req_num(o, "shed_deadline")? as u64,
        worker_panics: req_num(o, "worker_panics")? as u64,
        p99_accepted_us: req_num(o, "p99_accepted_us")?,
        shed_rate: req_num(o, "shed_rate")?,
    })
}

fn check_bench_kind(v: &Value, expected: &str) -> Result<(), String> {
    match v.get("bench").and_then(Value::as_str) {
        Some(k) if k == expected => Ok(()),
        Some(k) => Err(format!("expected `\"bench\": \"{expected}\"`, found `{k}`")),
        None => Err("missing string `bench`".into()),
    }
}

impl ServeReport {
    /// Looks up one dataset's measurement by name.
    pub fn get(&self, name: &str) -> Option<&ServeDataset> {
        self.datasets.iter().find(|(n, _)| n == name).map(|(_, d)| d)
    }

    /// Serializes to the checked-in `BENCH_serve.json` format.
    pub fn to_json(&self) -> String {
        let mut body = String::from("{\n  \"bench\": \"serve\",\n  \"rounds_per_query\": ");
        let _ = writeln!(body, "{},\n  \"datasets\": {{", self.rounds_per_query);
        for (i, (name, d)) in self.datasets.iter().enumerate() {
            let _ = writeln!(body, "    {}: {{", json::escape(name));
            let _ = writeln!(body, "      \"queries_served\": {},", d.queries_served);
            for (key, h) in
                [("serve", &d.serve), ("encode", &d.encode), ("forward", &d.forward), ("bfs", &d.bfs)]
            {
                let _ = write!(body, "      \"{key}\": ");
                hist_json(&mut body, h);
                body.push_str(",\n");
            }
            let _ = writeln!(
                body,
                "      \"community_size_mean\": {},",
                json::num(d.community_size_mean)
            );
            let _ = write!(
                body,
                "      \"throughput\": {{\"batch_size\":{},\"sequential_qps\":{},\"batched_qps\":{}}}\n    }}{}\n",
                d.throughput.batch_size,
                json::num(d.throughput.sequential_qps),
                json::num(d.throughput.batched_qps),
                if i + 1 == self.datasets.len() { "" } else { "," }
            );
        }
        body.push_str("  },\n");
        let o = &self.overload;
        let _ = writeln!(
            body,
            "  \"overload\": {{\"dataset\":{},\"deadline_us\":{},\"offered\":{},\"accepted\":{},\"shed\":{},\"shed_admission\":{},\"shed_deadline\":{},\"worker_panics\":{},\"p99_accepted_us\":{},\"shed_rate\":{}}}",
            json::escape(&o.dataset),
            o.deadline_us,
            o.offered,
            o.accepted,
            o.shed,
            o.shed_admission,
            o.shed_deadline,
            o.worker_panics,
            json::num(o.p99_accepted_us),
            json::num(o.shed_rate),
        );
        body.push_str("}\n");
        body
    }

    /// Parses a `BENCH_serve.json` document. Dataset order is normalized
    /// to sorted (the underlying parser uses a sorted map).
    pub fn from_json(text: &str) -> Result<ServeReport, String> {
        let v = json::parse(text)?;
        check_bench_kind(&v, "serve")?;
        let mut report = ServeReport {
            rounds_per_query: req_num(&v, "rounds_per_query")? as u64,
            datasets: Vec::new(),
            overload: overload_from(&v)?,
        };
        let datasets =
            v.get("datasets").and_then(Value::as_obj).ok_or("missing `datasets` object")?;
        for (name, d) in datasets {
            report.datasets.push((
                name.clone(),
                ServeDataset {
                    queries_served: req_num(d, "queries_served")? as u64,
                    serve: hist_from(d, "serve")?,
                    encode: hist_from(d, "encode")?,
                    forward: hist_from(d, "forward")?,
                    bfs: hist_from(d, "bfs")?,
                    community_size_mean: req_num(d, "community_size_mean")?,
                    throughput: throughput_from(d)?,
                },
            ));
        }
        Ok(report)
    }
}

impl TrainBenchReport {
    /// Looks up one dataset's measurement by name.
    pub fn get(&self, name: &str) -> Option<&TrainDataset> {
        self.datasets.iter().find(|(n, _)| n == name).map(|(_, d)| d)
    }

    /// Serializes to the checked-in `BENCH_train.json` format.
    pub fn to_json(&self) -> String {
        let mut body = String::from("{\n  \"bench\": \"train\",\n  \"datasets\": {\n");
        for (i, (name, d)) in self.datasets.iter().enumerate() {
            let _ = writeln!(body, "    {}: {{", json::escape(name));
            let _ = writeln!(body, "      \"epochs\": {},", d.epochs);
            let _ = writeln!(body, "      \"epochs_per_sec\": {},", json::num(d.epochs_per_sec));
            let _ = write!(
                body,
                "      \"peak_live_bytes\": {}\n    }}{}\n",
                d.peak_live_bytes,
                if i + 1 == self.datasets.len() { "" } else { "," }
            );
        }
        body.push_str("  }\n}\n");
        body
    }

    /// Parses a `BENCH_train.json` document.
    pub fn from_json(text: &str) -> Result<TrainBenchReport, String> {
        let v = json::parse(text)?;
        check_bench_kind(&v, "train")?;
        let mut report = TrainBenchReport::default();
        let datasets =
            v.get("datasets").and_then(Value::as_obj).ok_or("missing `datasets` object")?;
        for (name, d) in datasets {
            report.datasets.push((
                name.clone(),
                TrainDataset {
                    epochs: req_num(d, "epochs")? as u64,
                    epochs_per_sec: req_num(d, "epochs_per_sec")?,
                    peak_live_bytes: req_num(d, "peak_live_bytes")? as u64,
                },
            ));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_serve() -> ServeReport {
        ServeReport {
            rounds_per_query: 5,
            datasets: vec![(
                "FB-414".to_string(),
                ServeDataset {
                    queries_served: 75,
                    serve: HistStats { p50_us: 771.5, p95_us: 1004.0, mean_us: 801.25 },
                    encode: HistStats { p50_us: 0.5, p95_us: 0.9, mean_us: 0.5 },
                    forward: HistStats { p50_us: 770.0, p95_us: 1000.0, mean_us: 790.0 },
                    bfs: HistStats { p50_us: 7.0, p95_us: 15.0, mean_us: 8.75 },
                    community_size_mean: 30.5,
                    throughput: ThroughputStats {
                        batch_size: 16,
                        sequential_qps: 1800.0,
                        batched_qps: 3600.0,
                    },
                },
            )],
            overload: OverloadStats {
                dataset: "FB-414".to_string(),
                deadline_us: 20_000,
                offered: 256,
                accepted: 131,
                shed: 125,
                shed_admission: 88,
                shed_deadline: 37,
                worker_panics: 0,
                p99_accepted_us: 9500.0,
                shed_rate: 0.488,
            },
        }
    }

    #[test]
    fn serve_report_round_trips() {
        let report = sample_serve();
        let text = report.to_json();
        json::parse(&text).expect("valid JSON");
        let back = ServeReport::from_json(&text).unwrap();
        assert_eq!(back.rounds_per_query, 5);
        let d = back.get("FB-414").expect("dataset survives");
        assert_eq!(d.queries_served, 75);
        assert!((d.serve.p95_us - 1004.0).abs() < 1e-9);
        assert!((d.bfs.mean_us - 8.75).abs() < 1e-9);
        assert_eq!(d.throughput.batch_size, 16);
        assert!((d.throughput.sequential_qps - 1800.0).abs() < 1e-9);
        assert!((d.throughput.batched_qps - 3600.0).abs() < 1e-9);
        assert!((d.throughput.speedup() - 2.0).abs() < 1e-12);
        assert!(back.get("nope").is_none());
        assert_eq!(back.overload.dataset, "FB-414");
        assert_eq!(back.overload.offered, 256);
        assert_eq!(back.overload.accepted, 131);
        assert_eq!(back.overload.shed, 125);
        assert_eq!(back.overload.shed_admission, 88);
        assert_eq!(back.overload.shed_deadline, 37);
        assert_eq!(back.overload.worker_panics, 0);
        assert!((back.overload.p99_accepted_us - 9500.0).abs() < 1e-9);
        assert!((back.overload.shed_rate - 0.488).abs() < 1e-9);
    }

    #[test]
    fn serve_parser_requires_the_shed_tier_breakdown() {
        // A baseline predating the per-outcome telemetry must be
        // regenerated, not silently accepted with a zeroed breakdown.
        let text = sample_serve().to_json();
        for field in ["\"shed_admission\":88,", "\"shed_deadline\":37,", "\"worker_panics\":0,"] {
            assert!(text.contains(field), "sanity: {field} emitted");
            assert!(ServeReport::from_json(&text.replace(field, "")).is_err());
        }
    }

    #[test]
    fn serve_parser_requires_the_overload_section() {
        // A pre-overload report (old schema) must be rejected, so the
        // checked-in baseline can never silently skip the shedding gate.
        let report = sample_serve();
        let text = report.to_json();
        let start = text.find("  \"overload\"").expect("overload section emitted");
        let end = text[start..].find('\n').map(|i| start + i + 1).expect("line-terminated");
        let stripped = format!("{}{}", text[..start].trim_end_matches(",\n"), "\n}\n");
        assert!(text[start..end].contains("shed_rate"), "sanity: stripping the right line");
        assert!(ServeReport::from_json(&stripped).is_err());
    }

    #[test]
    fn serve_parser_requires_the_throughput_section() {
        // A pre-throughput report (old schema) must be rejected, so the
        // checked-in baseline can never silently skip the QPS gate.
        let mut report = sample_serve();
        report.datasets[0].1.throughput = ThroughputStats::default();
        let text = report.to_json().replace(
            "\"throughput\": {\"batch_size\":0,\"sequential_qps\":0,\"batched_qps\":0}",
            "\"throughput\": {\"batch_size\":0}",
        );
        assert!(ServeReport::from_json(&text).is_err());
    }

    #[test]
    fn train_report_round_trips() {
        let report = TrainBenchReport {
            datasets: vec![(
                "Cornell".to_string(),
                TrainDataset { epochs: 12, epochs_per_sec: 3.75, peak_live_bytes: 123456 },
            )],
        };
        let text = report.to_json();
        json::parse(&text).expect("valid JSON");
        let back = TrainBenchReport::from_json(&text).unwrap();
        let d = back.get("Cornell").unwrap();
        assert_eq!(d.epochs, 12);
        assert!((d.epochs_per_sec - 3.75).abs() < 1e-12);
        assert_eq!(d.peak_live_bytes, 123456);
    }

    #[test]
    fn parser_rejects_wrong_kind_and_missing_fields() {
        let serve = sample_serve().to_json();
        assert!(TrainBenchReport::from_json(&serve).is_err(), "kind mismatch must fail");
        assert!(ServeReport::from_json("{}").is_err());
        assert!(ServeReport::from_json("{\"bench\":\"serve\"}").is_err());
        let no_hist = r#"{"bench":"serve","rounds_per_query":5,"datasets":{"X":{"queries_served":1}}}"#;
        assert!(ServeReport::from_json(no_hist).is_err());
    }
}
