//! Exact query-local QD-GNN inference.
//!
//! QD-GNN's cached scoring recomputes only the rows within `k` hops of a
//! query and reads every other row from the null-query activation cache.
//! These tests pin the two claims that makes: the scores carry the exact
//! bits of the full tape forward (`predict_scores`) through every serving
//! entry point, and rows outside the query's `k`-hop ball are those of
//! the null query. A third group pins the stale-cache guard.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qdgnn::prelude::*;
use qdgnn_core::inputs::QueryBatch;
use qdgnn_core::models::predict_scores_batch;
use qdgnn_graph::attributed::AdjNorm;
use qdgnn_tensor::Dense;

/// A planted-partition graph with two extra pieces appended: one
/// isolated vertex, then a path component of `tail` vertices.
/// Returns the graph, the isolated vertex and the path's vertices.
fn planted_graph(seed: u64, communities: usize, tail: usize) -> (AttributedGraph, u32, Vec<u32>) {
    let data = GeneratorConfig {
        num_communities: communities,
        community_size_mean: 10.0,
        vocab_size: 24,
        topics_per_community: 6,
        attrs_per_vertex_mean: 3.0,
        seed,
        ..Default::default()
    }
    .generate("planted");
    let g = data.graph.graph();
    let base = g.num_vertices() as u32;
    let isolated = base;
    let path: Vec<u32> = (base + 1..base + 1 + tail as u32).collect();
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.extend(path.windows(2).map(|w| (w[0], w[1])));
    let n = (base as usize) + 1 + tail;
    let mut attrs: Vec<Vec<u32>> =
        (0..base).map(|v| data.graph.attrs_of(v).to_vec()).collect();
    attrs.extend((base..n as u32).map(|v| vec![v % 24]));
    let graph = AttributedGraph::new(Graph::from_edges(n, &edges), attrs, 24);
    (graph, isolated, path)
}

/// Perturbs every parameter and batch-norm running statistic, so eval
/// BN, biases and attention gates all do non-trivial work.
fn randomize(model: &mut QdGnn, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids: Vec<_> = model.store().ids().collect();
    for id in ids {
        for x in model.store_mut().value_mut(id).as_mut_slice() {
            *x += rng.gen_range(-0.3f32..0.3);
        }
    }
    for bn in model.bns_mut() {
        let d = bn.dim();
        let mean: Vec<f32> = (0..d).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
        let var: Vec<f32> = (0..d).map(|_| rng.gen_range(0.05f32..2.0)).collect();
        bn.set_running(Dense::row_vector(&mean), Dense::row_vector(&var));
    }
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Vertices within `k` hops of `seeds`.
fn ball(g: &Graph, seeds: &[u32], k: usize) -> Vec<bool> {
    let mut inside = vec![false; g.num_vertices()];
    let mut frontier = seeds.to_vec();
    for &s in seeds {
        inside[s as usize] = true;
    }
    for _ in 0..k {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in g.neighbors(v) {
                if !inside[u as usize] {
                    inside[u as usize] = true;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    inside
}

/// The query vertices for `kind`: random vertices, the isolated vertex,
/// or the whole path component.
fn query_vertices(kind: u32, size: usize, n: usize, isolated: u32, path: &[u32], seed: u64) -> Vec<u32> {
    match kind {
        0 => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut vs: Vec<u32> = (0..size).map(|_| rng.gen_range(0..n as u32)).collect();
            vs.sort_unstable();
            vs.dedup();
            vs
        }
        1 => vec![isolated],
        _ => path.to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn local_inference_is_bit_identical_to_the_tape_forward(
        seed in 0u64..10_000,
        communities in 2usize..5,
        tail in 1usize..6,
        layers in 1usize..5,
        fusion in 0usize..3,
        feature_fusion in proptest::bool::ANY,
        mean_norm in proptest::bool::ANY,
        kind in 0u32..3,
        size in 1usize..6,
    ) {
        let (graph, isolated, path) = planted_graph(seed, communities, tail);
        let norm = if mean_norm { AdjNorm::Mean } else { AdjNorm::GcnSym };
        let t = GraphTensors::new(&graph, norm, 100);
        let fusion = [FusionAgg::Concat, FusionAgg::Sum, FusionAgg::Attention][fusion];
        let config = ModelConfig {
            layers,
            hidden: 8,
            fusion,
            feature_fusion,
            adj_norm: norm,
            seed,
            ..ModelConfig::fast()
        };
        let mut model = QdGnn::new(config, t.d);
        randomize(&mut model, seed);
        let cache = model.build_graph_cache(&t).expect("QD-GNN caches its graph branch");

        let vertices = query_vertices(kind, size, t.n, isolated, &path, seed);
        let others = [vec![0u32], vec![isolated], path.clone()];
        let queries: Vec<Query> = std::iter::once(&vertices)
            .chain(&others)
            .map(|vs| Query { vertices: vs.clone(), attrs: vec![], truth: vs.clone() })
            .collect();
        let vectors: Vec<QueryVectors> = queries
            .iter()
            .map(|q| QueryVectors::encode(t.n, t.d, &q.vertices, &[]))
            .collect();
        let oracle: Vec<Vec<u32>> =
            vectors.iter().map(|qv| bits(&predict_scores(&model, &t, qv))).collect();

        for (qv, want) in vectors.iter().zip(&oracle) {
            prop_assert_eq!(&bits(&predict_scores_cached(&model, &t, &cache, qv)), want);
        }
        let batch = QueryBatch::try_stack(&vectors).expect("same-graph vectors stack");
        for (got, want) in predict_scores_batch(&model, &t, Some(&cache), &batch).iter().zip(&oracle) {
            prop_assert_eq!(&bits(got), want);
        }
        let stage = OnlineStage::new(&model, &t, 0.5);
        for (got, want) in stage.try_scores_batch(&queries).iter().zip(&oracle) {
            prop_assert_eq!(&bits(got.as_ref().expect("valid query")), want);
        }

        // A boxed model must forward the local path, not fall back to the
        // tape (which would also be bit-identical, only slow).
        let boxed: Box<dyn CsModel> = Box::new(model);
        for (qv, want) in vectors.iter().zip(&oracle) {
            let local = boxed.local_scores(&t, &cache, qv).expect("Box forwards local_scores");
            prop_assert_eq!(&bits(&local), want);
            prop_assert_eq!(&bits(&predict_scores_cached(&boxed, &t, &cache, qv)), want);
        }
    }

    #[test]
    fn rows_outside_the_k_hop_ball_keep_their_null_query_scores(
        seed in 0u64..10_000,
        layers in 1usize..5,
        mean_norm in proptest::bool::ANY,
        kind in 0u32..3,
        size in 1usize..6,
    ) {
        let (graph, isolated, path) = planted_graph(seed, 3, 4);
        let norm = if mean_norm { AdjNorm::Mean } else { AdjNorm::GcnSym };
        let t = GraphTensors::new(&graph, norm, 100);
        let config = ModelConfig { layers, hidden: 8, adj_norm: norm, seed, ..ModelConfig::fast() };
        let mut model = QdGnn::new(config, t.d);
        randomize(&mut model, seed ^ 1);
        // The null query (zero one-hot) through the tape oracle.
        let null = QueryVectors { vertex_onehot: Dense::zeros(t.n, 1), attr_onehot: Dense::zeros(t.d, 1) };
        let background = predict_scores(&model, &t, &null);
        let vertices = query_vertices(kind, size, t.n, isolated, &path, seed);
        let qv = QueryVectors::encode(t.n, t.d, &vertices, &[]);
        let full = predict_scores(&model, &t, &qv);
        let inside = ball(graph.graph(), &vertices, layers);
        for (v, (a, b)) in full.iter().zip(&background).enumerate() {
            if !inside[v] {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "vertex {} is {} hops out", v, layers);
            }
        }
        if kind == 1 {
            // An isolated query vertex reaches no one but itself.
            let changed = full.iter().zip(&background).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
            prop_assert!(changed <= 1);
        }
    }
}

fn stale_cache_setup() -> (GraphTensors, QdGnn, GraphCache) {
    let (graph, _, _) = planted_graph(7, 3, 3);
    let t = GraphTensors::new(&graph, AdjNorm::GcnSym, 100);
    let model = QdGnn::new(ModelConfig { hidden: 8, ..ModelConfig::fast() }, t.d);
    let cache = model.build_graph_cache(&t).expect("QD-GNN caches");
    (t, model, cache)
}

#[test]
fn cache_check_accepts_its_own_model_and_graph() {
    let (t, model, cache) = stale_cache_setup();
    assert_eq!(cache.check(&model, &t), Ok(()));
}

#[test]
fn cache_check_rejects_other_weights_stats_and_graphs() {
    let (t, mut model, cache) = stale_cache_setup();

    let other_seed = QdGnn::new(ModelConfig { hidden: 8, seed: 99, ..ModelConfig::fast() }, t.d);
    assert!(cache.check(&other_seed, &t).unwrap_err().contains("weights"));

    let fewer_layers = QdGnn::new(ModelConfig { hidden: 8, layers: 2, ..ModelConfig::fast() }, t.d);
    assert!(cache.check(&fewer_layers, &t).unwrap_err().contains("layers"));

    let (bigger, _, _) = planted_graph(7, 3, 5);
    let t_big = GraphTensors::new(&bigger, AdjNorm::GcnSym, 100);
    assert!(cache.check(&model, &t_big).unwrap_err().contains("n ="));

    let bn = &mut model.bns_mut()[0];
    let var = Dense::full(1, bn.dim(), 2.0);
    let mean = bn.running_mean().clone();
    bn.set_running(mean, var);
    assert!(cache.check(&model, &t).unwrap_err().contains("weights"), "BN running stats count");
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "stale GraphCache")]
fn cached_scoring_with_retrained_weights_panics_in_debug_builds() {
    let (t, mut model, cache) = stale_cache_setup();
    let id = model.store().ids().next().expect("model has parameters");
    model.store_mut().value_mut(id).as_mut_slice()[0] += 1.0;
    let qv = QueryVectors::encode(t.n, t.d, &[0], &[]);
    predict_scores_cached(&model, &t, &cache, &qv);
}
