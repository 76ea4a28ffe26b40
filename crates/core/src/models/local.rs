//! Exact query-local inference for QD-GNN from a null-query activation
//! cache (the online stage of §4.3).
//!
//! In eval mode every step of QD-GNN's query branch is row-local — the
//! weight products, bias, batch norm (running statistics), ReLU, Feature
//! Fusion and the output head — except the Â-aggregation. A query enters
//! the branch only through its one-hot `v_q`, which is zero outside
//! `V_q`. Compared with the **null query** (`v_q = 0`), the rows that can
//! differ are therefore confined to the query's neighbourhood: with
//! `D₀ = V_q`, layer `l`'s transform `agg_in·W_agg + b` differs only on
//! `D_l`, and its output (and fused features) only on
//! `D_{l+1} = D_l ∪ {r : Â[r][c] ≠ 0 for some c ∈ D_l}`. The expansion
//! walks `Âᵀ` and the aggregation reads `Â` rows, so asymmetric
//! normalizations (`AdjNorm::Mean`) stay exact.
//!
//! [`NullQuery`] holds the null query's activations, built once per graph
//! and weights. [`QueryBranch::local`] recomputes only the dirty rows,
//! reading every other row from the cache. Each row goes through the
//! kernels behind the tape's whole-matrix ops (`Dense::row_matmul_into`,
//! `Csr::spmm_row_into`, `BnEvalRows`), so the scores carry exactly the
//! bits of the full tape forward.
//!
//! Query vertex ids reach this file from untrusted input (validated by
//! `QueryVectors::try_encode`, but still): every vertex-indexed access
//! goes through `get` or a bounds-checked row accessor.

use std::sync::Arc;

use qdgnn_nn::BnEvalRows;
use qdgnn_tensor::{ops, Csr, Dense, ParamId, ParamStore};

use super::blocks::{EncoderLayer, FusionOp};
use super::output_head_row;
use crate::inputs::GraphTensors;

/// QD-GNN's query branch and output head, borrowed from the model.
pub(crate) struct QueryBranch<'m> {
    pub store: &'m ParamStore,
    pub layers: &'m [EncoderLayer],
    pub fusions: &'m [FusionOp],
    pub head: (ParamId, ParamId),
    /// Whether layers after the first aggregate fused features (Eq. 7).
    pub feature_fusion: bool,
    pub hidden: usize,
    pub fused: usize,
}

/// The null query's activations at one layer, `n` rows each.
pub(crate) struct NullLayer {
    /// `agg_in · W_agg + b`: the rows the Â-aggregation reads.
    transformed: Dense,
    /// The Query Encoder output.
    q: Dense,
    /// The fused features.
    ff: Dense,
}

/// The query branch evaluated for the zero one-hot, plus the eval-mode
/// batch-norm constants it was computed with.
pub(crate) struct NullQuery {
    bns: Vec<BnEvalRows>,
    layers: Vec<NullLayer>,
    /// Background sigmoid scores: the answer outside the dirty set.
    scores: Vec<f32>,
}

/// The rows a query recomputes, in discovery order. A vertex's position
/// in `order` is also its row in the per-query buffers, and since each
/// dirty set contains the previous one, `D_l` is a prefix of `order`.
struct DirtySet {
    /// `slot[v]` = position of `v` in `order`, or `u32::MAX`.
    slot: Vec<u32>,
    order: Vec<u32>,
}

impl DirtySet {
    /// `D₀`: the rows where `onehot` differs from the null query's zeros.
    fn seeds(onehot: &Dense) -> Self {
        let mut set = DirtySet { slot: vec![u32::MAX; onehot.rows()], order: Vec::new() };
        for (v, x) in onehot.as_slice().iter().enumerate() {
            if x.to_bits() != 0 {
                set.insert(v);
            }
        }
        set
    }

    fn insert(&mut self, v: usize) {
        if let Some(s) = self.slot.get_mut(v) {
            if *s == u32::MAX {
                *s = self.order.len() as u32;
                self.order.push(v as u32);
            }
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    /// `v`'s row among the first `prefix` dirty rows, if it is one.
    fn row_in(&self, v: usize, prefix: usize) -> Option<usize> {
        self.slot.get(v).map(|&s| s as usize).filter(|&s| s < prefix)
    }

    /// Adds every row whose Â-aggregation reads one of the first `prefix`
    /// dirty rows (the out-neighbours in `Âᵀ`).
    fn expand(&mut self, adj_t: &Csr, prefix: usize) {
        for i in 0..prefix {
            let Some(&v) = self.order.get(i) else { break };
            for (r, _) in adj_t.row_iter(v as usize) {
                self.insert(r);
            }
        }
    }
}

/// Where a layer reads its `(self_in, agg_in)` rows.
enum Input<'a> {
    /// Layer 0: the query one-hot itself (it covers every row).
    OneHot(&'a Dense),
    /// Later layers: the previous layer's dirty rows over its null rows.
    Layer { q: Dense, ff: Dense, null: &'a NullLayer },
}

impl Input<'_> {
    /// Vertex `v`'s `(self_in, agg_in)` rows; `local` is its row among
    /// the previous layer's dirty rows, if it is dirty there.
    fn rows(&self, v: usize, local: Option<usize>, feature_fusion: bool) -> (&[f32], &[f32]) {
        match self {
            Input::OneHot(x) => (x.row(v), x.row(v)),
            Input::Layer { q, ff, null } => {
                let (q, ff) = match local {
                    Some(s) => (q.row(s), ff.row(s)),
                    None => (null.q.row(v), null.ff.row(v)),
                };
                (q, if feature_fusion { ff } else { q })
            }
        }
    }
}

impl QueryBranch<'_> {
    /// Evaluates the branch on every row for the one-hot `onehot`: the
    /// null-query cache when `onehot` is zero. `graph` holds the Graph
    /// Encoder output per layer.
    pub fn full(
        &self,
        inputs: &GraphTensors,
        graph: &[Arc<Dense>],
        bns: Vec<BnEvalRows>,
        onehot: &Dense,
    ) -> NullQuery {
        let n = inputs.n;
        let mut layers: Vec<NullLayer> = Vec::with_capacity(self.layers.len());
        let mut agg = vec![0.0f32; self.hidden];
        for ((layer, fusion), g) in self.layers.iter().zip(self.fusions).zip(graph) {
            let (self_in, agg_in) = match layers.last() {
                None => (onehot, onehot),
                Some(p) => (&p.q, if self.feature_fusion { &p.ff } else { &p.q }),
            };
            let mut transformed = Dense::zeros(n, self.hidden);
            for v in 0..n {
                layer.eval_transform_row(self.store, agg_in.row(v), transformed.row_mut(v));
            }
            let mut q = Dense::zeros(n, self.hidden);
            let mut ff = Dense::zeros(n, self.fused);
            for v in 0..n {
                agg.fill(0.0);
                inputs.adj.spmm_row_into(v, |c| transformed.row(c), &mut agg);
                layer.eval_combine_row(self.store, &bns, self_in.row(v), &agg, q.row_mut(v));
                fusion.eval_row(self.store, &[g.row(v), q.row(v)], ff.row_mut(v));
            }
            layers.push(NullLayer { transformed, q, ff });
        }
        let scores = match layers.last() {
            Some(last) => (0..n)
                .map(|v| ops::sigmoid(output_head_row(self.store, self.head, last.ff.row(v))))
                .collect(),
            None => Vec::new(),
        };
        NullQuery { bns, layers, scores }
    }

    /// Scores one query from the null cache by recomputing only the rows
    /// its one-hot `onehot` can reach. `graph` and `null` must come from
    /// the same cache build as this model's weights.
    pub fn local(
        &self,
        inputs: &GraphTensors,
        graph: &[Arc<Dense>],
        null: &NullQuery,
        onehot: &Dense,
    ) -> Vec<f32> {
        let mut dirty = DirtySet::seeds(onehot);
        let mut input = Input::OneHot(onehot);
        let mut agg = vec![0.0f32; self.hidden];
        let layers = self.layers.iter().zip(self.fusions).zip(graph).zip(&null.layers);
        for (l, (((layer, fusion), g), nl)) in layers.enumerate() {
            // Transform the rows whose input differs from the null query's.
            let d_in = dirty.len();
            let mut transformed = Dense::zeros(d_in, self.hidden);
            for (i, &v) in dirty.order.iter().enumerate() {
                let (_, agg_in) = input.rows(v as usize, Some(i), self.feature_fusion);
                layer.eval_transform_row(self.store, agg_in, transformed.row_mut(i));
            }
            // Aggregate, combine and fuse every row that reads one of them.
            dirty.expand(&inputs.adj_t, d_in);
            let d_out = dirty.len();
            let mut q = Dense::zeros(d_out, self.hidden);
            let mut ff = Dense::zeros(d_out, self.fused);
            for (i, &v) in dirty.order.iter().enumerate() {
                let v = v as usize;
                agg.fill(0.0);
                let t_row = |c: usize| match dirty.row_in(c, d_in) {
                    Some(s) => transformed.row(s),
                    None => nl.transformed.row(c),
                };
                inputs.adj.spmm_row_into(v, t_row, &mut agg);
                let (self_in, _) = input.rows(v, (i < d_in).then_some(i), self.feature_fusion);
                layer.eval_combine_row(self.store, &null.bns, self_in, &agg, q.row_mut(i));
                fusion.eval_row(self.store, &[g.row(v), q.row(i)], ff.row_mut(i));
            }
            if qdgnn_obs::enabled() {
                let layer = l.to_string();
                qdgnn_obs::observe_with("serve.local_rows", &[("layer", &layer)], d_out as f64);
            }
            input = Input::Layer { q, ff, null: nl };
        }
        let mut scores = null.scores.clone();
        if let Input::Layer { ff, .. } = &input {
            for (i, &v) in dirty.order.iter().enumerate() {
                if let Some(s) = scores.get_mut(v as usize) {
                    *s = ops::sigmoid(output_head_row(self.store, self.head, ff.row(i)));
                }
            }
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FusionAgg, ModelConfig};
    use crate::inputs::QueryVectors;
    use crate::models::{CsModel, QdGnn};
    use qdgnn_data::presets;
    use qdgnn_graph::attributed::AdjNorm;

    /// Vertices within `k` hops of `seeds` in the structure graph.
    fn ball(t: &GraphTensors, seeds: &[u32], k: usize) -> Vec<bool> {
        let mut inside = vec![false; t.n];
        let mut frontier: Vec<u32> = seeds.to_vec();
        for &s in seeds {
            inside[s as usize] = true;
        }
        for _ in 0..k {
            let mut next = Vec::new();
            for &v in &frontier {
                for &u in t.graph.neighbors(v) {
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

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    /// The locality argument, checked layer by layer: against the null
    /// cache, a query's full pass differs only inside the dirty set
    /// (built with the local pass's `seeds` and `expand`), and `D_{l+1}`
    /// is the `(l+1)`-hop ball (the adjacency carries self loops).
    #[test]
    fn full_pass_differs_from_null_only_inside_the_dirty_set() {
        let data = presets::toy();
        for (norm, fusion) in [
            (AdjNorm::GcnSym, FusionAgg::Concat),
            (AdjNorm::Mean, FusionAgg::Attention),
            (AdjNorm::GcnSym, FusionAgg::Sum),
        ] {
            let t = GraphTensors::new(&data.graph, norm, 100);
            let model = QdGnn::new(ModelConfig { fusion, ..ModelConfig::fast() }, t.d);
            let cache = model.build_graph_cache(&t).expect("QD-GNN caches");
            let null = cache.null.as_deref().expect("QD-GNN caches the null query");
            let branch = model.branch();
            for seeds in [vec![0u32], vec![3, 17], vec![data.communities[2][0]]] {
                let qv = QueryVectors::encode(t.n, t.d, &seeds, &[]);
                let bns = model.bns().iter().map(|bn| bn.eval_rows(model.store())).collect();
                let full = branch.full(&t, &cache.layers, bns, &qv.vertex_onehot);
                let mut dirty = DirtySet::seeds(&qv.vertex_onehot);
                for (l, (f, z)) in full.layers.iter().zip(&null.layers).enumerate() {
                    dirty.expand(&t.adj_t, dirty.len());
                    let inside = ball(&t, &seeds, l + 1);
                    for (v, &in_ball) in inside.iter().enumerate() {
                        let same = bits(f.q.row(v)) == bits(z.q.row(v))
                            && bits(f.ff.row(v)) == bits(z.ff.row(v));
                        let in_dirty = dirty.row_in(v, dirty.len()).is_some();
                        assert!(same || in_dirty, "layer {l}: row {v} changed outside D");
                        assert_eq!(in_ball, in_dirty, "layer {l}: D ≠ ball at {v}");
                    }
                }
                let local = branch.local(&t, &cache.layers, null, &qv.vertex_onehot);
                assert_eq!(bits(&local), bits(&full.scores));
                for (v, (a, b)) in local.iter().zip(&null.scores).enumerate() {
                    if dirty.row_in(v, dirty.len()).is_none() {
                        assert_eq!(a.to_bits(), b.to_bits(), "score {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn null_query_local_pass_is_the_background() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let cache = model.build_graph_cache(&t).expect("QD-GNN caches");
        let null = cache.null.as_deref().expect("null cache");
        let zero = Dense::zeros(t.n, 1);
        let local = model.branch().local(&t, &cache.layers, null, &zero);
        assert_eq!(bits(&local), bits(&null.scores));
    }
}
