//! The workloads, and one run of a workload: set-up, correctness checks,
//! the traced layer section, the timed phases and the metrics.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qdgnn_core::models::{predict_scores, predict_scores_batch, predict_scores_cached};
use qdgnn_core::{
    identify_community, AqdGnn, CsModel, GraphTensors, ModelConfig, OnlineStage, QdGnn, QueryBatch,
    QueryVectors, TrainConfig, TrainReport, Trainer,
};
use qdgnn_data::{presets, queries as qgen, AttrMode, Dataset, Query, QuerySplit};
use qdgnn_graph::{CommunityMetrics, VertexId};
use qdgnn_serve::{ServeConfig, ServeEngine};

use crate::host;
use crate::loadgen::{self, PhaseStats, Target};
use crate::probe;
use crate::report::{unit_of, Metric, Report};
use crate::stats::{median, percentile, supported_percentile};
use crate::trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    Qd,
    Aqd,
}

/// One workload: a graph, a model and how a run divides its seconds.
#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: fn() -> Dataset,
    pub model: ModelKind,
    pub mode: AttrMode,
    /// Training queries; the same split trains in set-up and in the
    /// training phase.
    pub train_queries: usize,
    /// Epochs of the training done in set-up.
    pub setup_epochs: usize,
    /// Epochs per `Trainer::train` call in the timed training phase
    /// (0: no training phase).
    pub phase_epochs: usize,
    /// Shares of `--seconds` for the training, closed and open phases.
    pub shares: [f64; 3],
    /// Open-phase arrival rate, fixed at about 30% of the closed-loop
    /// throughput measured when the benchmark was defined, so that the
    /// host's own speed swings do not push the engine into a backlog.
    pub open_qps: f64,
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "cora-qd",
        dataset: presets::cora,
        model: ModelKind::Qd,
        mode: AttrMode::Empty,
        train_queries: 8,
        setup_epochs: 2,
        phase_epochs: 0,
        shares: [0.0, 0.4, 0.6],
        open_qps: 36.0,
    },
    Spec {
        name: "cornell-aqd",
        dataset: presets::cornell,
        model: ModelKind::Aqd,
        mode: AttrMode::FromCommunity,
        train_queries: 16,
        setup_epochs: 6,
        phase_epochs: 0,
        shares: [0.0, 0.3, 0.7],
        open_qps: 100.0,
    },
    Spec {
        name: "train-cornell-aqd",
        dataset: presets::cornell,
        model: ModelKind::Aqd,
        mode: AttrMode::FromCommunity,
        train_queries: 16,
        setup_epochs: 6,
        phase_epochs: 3,
        shares: [0.5, 0.15, 0.35],
        open_qps: 100.0,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Seed of the training and validation queries. Fixed, so every
/// `--seed` serves the same model: after a few epochs a model's quality
/// still swings with its training queries, and `f1` would measure that
/// luck instead of the serving path.
const TRAIN_SEED: u64 = 0x7EA1;
/// Validation queries of every split.
const VAL_QUERIES: usize = 8;
/// Test queries: the pool every phase draws requests from, and the set
/// `f1` is computed on.
const POOL_QUERIES: usize = 64;
/// Engine worker threads; with the one generator thread they must fit
/// in `nproc`.
const ENGINE_WORKERS: usize = 1;
/// Requests the closed phase keeps outstanding (the engine's default
/// `max_batch`).
const CLOSED_OUTSTANDING: usize = 16;
/// Batch width of the batched layer probes.
const BATCH: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Largest |served score - reference score| accepted. Exact today; the
/// margin admits fast paths that reorder float sums.
const SCORE_TOLERANCE: f32 = 1e-4;
/// Rounds a run's timed phases are split into; `p50_ms` and `p95_ms`
/// are medians over the rounds' open phases.
const ROUNDS: usize = 3;
/// The percentile reported as `p95_ms`.
const TAIL: f64 = 0.95;

/// Adam learning rate: three times the paper's, so that set-up's few
/// epochs give the Cornell models a non-degenerate γ.
const LEARNING_RATE: f32 = 3e-3;

fn model_config() -> ModelConfig {
    ModelConfig {
        hidden: 32,
        ..ModelConfig::default()
    }
}

fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        threads: host::TRAIN_THREADS,
        validate_every: epochs,
        lr: LEARNING_RATE,
        gamma_grid: vec![0.3, 0.5, 0.7],
        ..TrainConfig::default()
    }
}

/// One `Trainer::train` call on a fresh model.
fn train(
    kind: ModelKind,
    tensors: &GraphTensors,
    split: &QuerySplit,
    epochs: usize,
) -> (Arc<dyn CsModel>, f32, TrainReport) {
    let trainer = Trainer::new(train_config(epochs));
    match kind {
        ModelKind::Qd => {
            let t = trainer.train(
                QdGnn::new(model_config(), tensors.d),
                tensors,
                &split.train,
                &split.val,
            );
            (Arc::new(t.model), t.gamma, t.report)
        }
        ModelKind::Aqd => {
            let t = trainer.train(
                AqdGnn::new(model_config(), tensors.d),
                tensors,
                &split.train,
                &split.val,
            );
            (Arc::new(t.model), t.gamma, t.report)
        }
    }
}

/// Everything set-up builds, up to the first timed request.
struct Served {
    model: Arc<dyn CsModel>,
    tensors: Arc<GraphTensors>,
    gamma: f32,
    split: QuerySplit,
    engine: ServeEngine,
    train_report: TrainReport,
    train_s: f64,
}

fn setup(spec: &Spec, seed: u64, tr: &mut Tracer) -> Result<Served, String> {
    tr.enter("setup", None);
    let dataset = tr.time("data.generate", None, spec.dataset);
    let split = tr.time("data.queries", None, || {
        let fit = qgen::generate(
            &dataset,
            spec.train_queries + VAL_QUERIES,
            1,
            3,
            spec.mode,
            TRAIN_SEED,
        );
        let mut split = QuerySplit::new(fit, spec.train_queries, VAL_QUERIES, 0);
        split.test = qgen::generate(&dataset, POOL_QUERIES, 1, 3, spec.mode, seed);
        split
    });
    let mc = model_config();
    let tensors = tr.time("inputs.tensors", None, || {
        GraphTensors::new(&dataset.graph, mc.adj_norm, mc.fusion_graph_attr_cap)
    });
    let t0 = Instant::now();
    let (model, gamma, train_report) = tr.time("train.setup", None, || {
        train(spec.model, &tensors, &split, spec.setup_epochs)
    });
    let train_s = t0.elapsed().as_secs_f64();
    let tensors = Arc::new(tensors);
    let stage = tr.time("stage.new", None, || {
        OnlineStage::new_shared(model.clone(), tensors.clone(), gamma)
    });
    let cfg = ServeConfig {
        workers: ENGINE_WORKERS,
        ..ServeConfig::default()
    };
    let engine = tr.time("engine.start", None, || ServeEngine::new(stage, cfg));
    tr.exit();
    let engine = engine.map_err(|e| format!("engine start: {e}"))?;
    Ok(Served {
        model,
        tensors,
        gamma,
        split,
        engine,
        train_report,
        train_s,
    })
}

/// The query as the engine receives it: no ground truth attached.
fn request_of(q: &Query) -> Query {
    Query {
        vertices: q.vertices.clone(),
        attrs: q.attrs.clone(),
        truth: Vec::new(),
    }
}

fn encode(model: &dyn CsModel, t: &GraphTensors, q: &Query) -> Result<QueryVectors, String> {
    let attrs: &[u32] = if model.uses_attributes() {
        &q.attrs
    } else {
        &[]
    };
    QueryVectors::try_encode(t.n, t.d, &q.vertices, attrs).map_err(|e| e.to_string())
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Direct answers for the pool, checked against the reference forward.
struct Checked {
    answers: Vec<Vec<VertexId>>,
    max_dscore: f32,
    f1: f64,
}

fn check(s: &Served, direct: &OnlineStage<'_>) -> Result<Checked, String> {
    let pool = &s.split.test;
    let mut answers = Vec::with_capacity(pool.len());
    let mut max_dscore = 0.0f32;
    let mut reference = Vec::with_capacity(pool.len());
    for q in pool {
        answers.push(
            direct
                .try_query(q)
                .map_err(|e| format!("direct query: {e}"))?,
        );
        let oracle = predict_scores(
            s.model.as_ref(),
            &s.tensors,
            &encode(s.model.as_ref(), &s.tensors, q)?,
        );
        let served = direct
            .try_scores(q)
            .map_err(|e| format!("direct scores: {e}"))?;
        max_dscore = max_dscore.max(max_abs_diff(&served, &oracle));
        reference.push(oracle);
    }
    for (chunk, oracle) in pool.chunks(BATCH).zip(reference.chunks(BATCH)) {
        for (got, want) in direct.try_scores_batch(chunk).into_iter().zip(oracle) {
            let got = got.map_err(|e| format!("batched scores: {e}"))?;
            max_dscore = max_dscore.max(max_abs_diff(&got, want));
        }
    }
    let truth: Vec<Vec<VertexId>> = pool.iter().map(|q| q.truth.clone()).collect();
    let f1 = CommunityMetrics::micro(&answers, &truth).f1;
    Ok(Checked {
        answers,
        max_dscore,
        f1,
    })
}

/// Per-layer timings from outside: each public entry point on the
/// served path, called directly over the pool.
fn layers(
    s: &Served,
    direct: &OnlineStage<'_>,
    tr: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let model = s.model.as_ref();
    let t = s.tensors.as_ref();
    let pool = &s.split.test;
    let mut cache = None;
    for _ in 0..SETUP_REPEATS {
        cache = tr.time("models.cache_build", None, || model.build_graph_cache(t));
    }
    let (mut candidates, mut kept) = (0usize, 0usize);
    let mut vectors = Vec::with_capacity(pool.len());
    for (i, q) in pool.iter().enumerate() {
        let request = Some(i as u64);
        tr.enter("direct.request", request);
        let qv = tr.time("inputs.encode", request, || encode(model, t, q))?;
        let scores = tr.time("models.cached_forward", request, || match &cache {
            Some(c) => predict_scores_cached(model, t, c, &qv),
            None => predict_scores(model, t, &qv),
        });
        let attributed = model.uses_attributes() && !q.attrs.is_empty();
        let community = tr.time("identify.bfs", request, || {
            identify_community(t, &q.vertices, &scores, s.gamma, attributed)
        });
        tr.exit();
        candidates += scores.iter().filter(|&&x| x >= s.gamma).count();
        kept += community.len();
        vectors.push(qv);
    }
    for qv in &vectors {
        tr.time("models.ref_forward", None, || predict_scores(model, t, qv));
    }
    for q in pool {
        tr.time("stage.query", None, || direct.try_query(q))
            .map_err(|e| e.to_string())?;
    }
    for chunk in vectors.chunks_exact(BATCH) {
        let batch = QueryBatch::try_stack(chunk).map_err(|e| e.to_string())?;
        tr.time("models.batch16_forward", None, || {
            predict_scores_batch(model, t, cache.as_ref(), &batch)
        });
    }
    for chunk in pool.chunks_exact(BATCH) {
        tr.time("stage.batch16_query", None, || {
            direct.try_query_batch(chunk)
        });
    }
    let med = |name: &str| median(&tr.durations_us(name)).unwrap_or(0.0);
    m.insert("models.cache_build_ms", med("models.cache_build") / 1e3);
    m.insert("inputs.encode_us", med("inputs.encode"));
    m.insert("models.cached_forward_us", med("models.cached_forward"));
    m.insert("identify.bfs_us", med("identify.bfs"));
    m.insert("models.ref_forward_us", med("models.ref_forward"));
    m.insert("stage.query_us", med("stage.query"));
    m.insert(
        "models.batch16_forward_us_per_query",
        med("models.batch16_forward") / BATCH as f64,
    );
    m.insert("stage.batch16_query_us", med("stage.batch16_query"));
    m.insert(
        "stage.batch_speedup",
        BATCH as f64 * med("stage.query") / med("stage.batch16_query").max(1e-9),
    );
    m.insert("identify.candidates", candidates as f64 / pool.len() as f64);
    m.insert("identify.community_size", kept as f64 / pool.len() as f64);
    m.insert(
        "identify.kept_ratio",
        kept as f64 / candidates.max(1) as f64,
    );
    for (name, value) in probe::run(
        model.config(),
        if model.uses_attributes() { 3 } else { 2 },
        t,
    ) {
        m.insert(name, value);
    }
    Ok(())
}

/// Runs one workload and prints its lines; the caller prints the result.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    if qdgnn_obs::enabled() {
        return Err("qdgnn-obs instrumentation is compiled in; timed runs need it off".into());
    }
    if 1 + ENGINE_WORKERS > host::nproc() {
        return Err(format!(
            "1 generator thread + {ENGINE_WORKERS} engine worker exceed nproc = {}",
            host::nproc()
        ));
    }
    println!("host {}", host::stamp());
    let mut tr = Tracer::new(traced);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    let mut setup_s = Vec::new();
    let mut epoch_rates = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up's engine shuts down before the next starts.
        drop(served.take());
        let t0 = Instant::now();
        let s = setup(spec, seed, &mut tr)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        epoch_rates.push(spec.setup_epochs as f64 / s.train_s);
        served = Some(s);
    }
    let s = served.ok_or("no set-up ran")?;
    let direct = OnlineStage::new(s.model.as_ref(), &s.tensors, s.gamma);
    let checked = check(&s, &direct)?;
    println!(
        "check: {} pool queries, max |dscore| {:e} (tolerance {SCORE_TOLERANCE:e}), f1 {:.6}, gamma {}",
        s.split.test.len(),
        checked.max_dscore,
        checked.f1,
        s.gamma
    );
    if traced {
        layers(&s, &direct, &mut tr, &mut m)?;
    }

    let requests: Vec<Query> = s.split.test.iter().map(request_of).collect();
    let target = Target {
        engine: &s.engine,
        requests: &requests,
        answers: &checked.answers,
    };
    let mut val_f1 = s.train_report.best_val_f1;
    let (mut train_attempts, mut train_failed) = (0u64, 0u64);
    if spec.phase_epochs > 0 {
        epoch_rates.clear();
    }
    // Every phase is split over the rounds, so that a slow spell of the
    // host lands in one round of each metric rather than in all of one.
    let round_s = seconds / ROUNDS as f64;
    let mut phases: Vec<(String, PhaseStats)> = Vec::new();
    let (mut closed, mut untraced) = (Vec::new(), Vec::new());
    let (mut p50s, mut p95s) = (Vec::new(), Vec::new());
    let mut open_spans = Vec::new();
    for round in 0..ROUNDS {
        let rseed = seed ^ ((round as u64 + 1) << 32);
        if spec.phase_epochs > 0 {
            let t0 = Instant::now();
            let before = train_attempts;
            while train_attempts == before || t0.elapsed().as_secs_f64() < spec.shares[0] * round_s
            {
                let c0 = Instant::now();
                let (_, _, report) = tr.time("train.phase", None, || {
                    train(spec.model, &s.tensors, &s.split, spec.phase_epochs)
                });
                epoch_rates.push(spec.phase_epochs as f64 / c0.elapsed().as_secs_f64());
                train_attempts += 1;
                if report.diverged || report.epochs_run != spec.phase_epochs {
                    train_failed += 1;
                }
                val_f1 = report.best_val_f1;
            }
            println!(
                "round {round} train: {} calls of {} epochs in {:.3} s",
                train_attempts - before,
                spec.phase_epochs,
                t0.elapsed().as_secs_f64()
            );
        }
        let closed_d = Duration::from_secs_f64(spec.shares[1] * round_s);
        if traced {
            // Same length untraced then traced: their qps ratio is the
            // tracing overhead.
            let plain = loadgen::closed(
                &target,
                CLOSED_OUTSTANDING,
                closed_d / 2,
                rseed ^ 1,
                &mut Tracer::new(false),
            );
            phases.push((format!("round {round} closed-untraced"), plain));
            untraced.push(phases.len() - 1);
            tr.enter("phase.closed", None);
            let with = loadgen::closed(
                &target,
                CLOSED_OUTSTANDING,
                closed_d / 2,
                rseed ^ 1,
                &mut tr,
            );
            tr.exit();
            phases.push((format!("round {round} closed"), with));
        } else {
            let c = loadgen::closed(&target, CLOSED_OUTSTANDING, closed_d, rseed ^ 1, &mut tr);
            phases.push((format!("round {round} closed"), c));
        }
        closed.push(phases.len() - 1);
        let arrivals = (spec.open_qps * spec.shares[2] * round_s).round().max(1.0) as usize;
        let schedule = loadgen::poisson_schedule(spec.open_qps, arrivals, rseed ^ 2);
        tr.enter("phase.open", None);
        open_spans.push(tr.current());
        let open = loadgen::open(&target, &schedule, rseed ^ 3, &mut tr);
        tr.exit();
        p50s.push(median(&open.latency_ms).unwrap_or(f64::INFINITY));
        p95s.push(
            supported_percentile(&open.latency_ms, TAIL)
                .map_err(|e| format!("round {round} open phase: {e}"))?,
        );
        phases.push((format!("round {round} open"), open));
    }
    let engine_stats = s.engine.stats();
    s.engine.shutdown();
    for (name, p) in &phases {
        println!("{}", p.line(name));
    }
    let pick = |idx: &[usize]| -> Vec<&PhaseStats> { idx.iter().map(|&i| &phases[i].1).collect() };
    let all = phases.iter().map(|(_, p)| p);
    let sent: u64 = all.clone().map(|p| p.sent).sum();
    let ok: u64 = all.clone().map(|p| p.ok).sum();
    let failed: u64 = all.clone().map(|p| p.failed).sum();
    let rejected: u64 = all.clone().map(|p| p.rejected).sum();
    let lags: Vec<f64> = all.flat_map(|p| p.lag_ms.iter().copied()).collect();

    m.insert("setup_s", median(&setup_s).unwrap_or(0.0));
    m.insert("rss_mb", host::peak_rss_mb().ok_or("VmHWM unavailable")?);
    m.insert("qps", loadgen::pooled_qps(&pick(&closed)));
    m.insert("p50_ms", median(&p50s).unwrap_or(f64::INFINITY));
    m.insert("p95_ms", median(&p95s).unwrap_or(f64::INFINITY));
    m.insert("f1", checked.f1);
    m.insert("ok_rate", ok as f64 / sent.max(1) as f64);
    m.insert("epochs_per_s", median(&epoch_rates).unwrap_or(0.0));
    if traced {
        let plain = loadgen::pooled_qps(&pick(&untraced));
        m.insert(
            "trace.overhead_pct",
            100.0 * (plain - m["qps"]) / plain.max(1e-9),
        );
    }

    if traced {
        let med = |name: &str| median(&tr.durations_us(name)).unwrap_or(0.0);
        m.insert("data.generate_ms", med("data.generate") / 1e3);
        m.insert("data.queries_ms", med("data.queries") / 1e3);
        m.insert("inputs.tensors_ms", med("inputs.tensors") / 1e3);
        m.insert("train.epoch_ms", 1e3 / m["epochs_per_s"].max(1e-9));
        m.insert("train.val_f1", val_f1);
        let latency_ms: Vec<f64> = open_spans
            .iter()
            .flat_map(|&span| tr.child_durations_us(span, "engine.request"))
            .map(|us| us / 1e3)
            .collect();
        let engine_p50 = median(&latency_ms).unwrap_or(f64::INFINITY);
        m.insert("engine.latency_p50_ms", engine_p50);
        m.insert(
            "engine.latency_p95_ms",
            supported_percentile(&latency_ms, TAIL).map_err(|e| format!("engine latency: {e}"))?,
        );
        m.insert("engine.wait_ms", engine_p50 - m["stage.query_us"] / 1e3);
        m.insert("engine.submit_us", med("engine.submit"));
        m.insert(
            "engine.shed",
            (engine_stats.shed_admission + engine_stats.shed_deadline) as f64,
        );
        m.insert("engine.rejected", rejected as f64);
        m.insert("engine.worker_panics", engine_stats.worker_panics as f64);
        m.insert("check.max_abs_dscore", f64::from(checked.max_dscore));
        m.insert("gen.lag_p95_ms", percentile(&lags, TAIL).unwrap_or(0.0));
        m.insert("gen.sent", sent as f64);
        m.insert("gen.ok", ok as f64);
        m.insert("gen.failed", failed as f64);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{seed}.spans.ndjson", spec.name));
        tr.write_ndjson(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {} written to {}", tr.spans().len(), path.display());
    }

    let wanted = if traced {
        crate::report::PER_LAYER
    } else {
        crate::report::END_TO_END
    };
    let mut metrics = BTreeMap::new();
    for (name, unit) in wanted {
        let value = *m
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }
    for (name, value) in &m {
        println!("  {name:<38} {value:>16.6} {}", unit_of(name).unwrap_or(""));
    }
    let scores_ok = checked.max_dscore <= SCORE_TOLERANCE;
    if !scores_ok {
        println!(
            "FAIL: served scores differ from the reference forward by {:e}",
            checked.max_dscore
        );
    }
    Ok(Report {
        correct: scores_ok && failed == 0 && train_failed == 0 && checked.f1.is_finite(),
        attempted: sent + train_attempts,
        failed: failed + train_failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};
    use qdgnn_obs::json;

    /// Each workload on the toy preset, long enough for every round's
    /// open phase to support its p95: every catalogued metric comes out,
    /// and every check passes.
    #[test]
    fn toy_smoke_of_every_workload_in_both_modes() {
        for spec in WORKLOADS {
            let toy = Spec {
                dataset: presets::toy,
                setup_epochs: 1,
                phase_epochs: spec.phase_epochs.min(1),
                open_qps: 300.0,
                ..*spec
            };
            for traced in [false, true] {
                let r = run(&toy, 5, 6.0, traced)
                    .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", spec.name));
                assert!(
                    r.correct && r.failed == 0 && r.attempted > 0,
                    "{}: {r:?}",
                    spec.name
                );
                let wanted = if traced { PER_LAYER } else { END_TO_END };
                let names: Vec<&str> = r.metrics.keys().map(String::as_str).collect();
                let mut expect: Vec<&str> = wanted.iter().map(|(n, _)| *n).collect();
                expect.sort_unstable();
                assert_eq!(names, expect);
                let line = r.to_json().unwrap();
                assert_eq!(Report::parse(&line).unwrap(), r);
            }
        }
    }

    /// `BENCHMARK.json` names exactly these workloads and metrics, with
    /// these units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, Option<String>)> {
            doc.get(key)
                .and_then(json::Value::as_arr)
                .unwrap()
                .iter()
                .map(|v| {
                    let unit = v
                        .get("unit")
                        .and_then(json::Value::as_str)
                        .map(str::to_string);
                    (
                        v.get("name")
                            .and_then(json::Value::as_str)
                            .unwrap()
                            .to_string(),
                        unit,
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|w| w.name.to_string())
                .collect::<Vec<_>>()
        );
    }
}
