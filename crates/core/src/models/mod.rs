//! The three community-search models and their common interface.

pub(crate) mod blocks;
mod aqdgnn;
mod local;
mod qdgnn;
mod simple;

pub use aqdgnn::AqdGnn;
pub use qdgnn::QdGnn;
pub use simple::SimpleQdGnn;

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qdgnn_nn::{BatchNorm1d, BnStats, Mode};
use qdgnn_tensor::{Dense, ParamId, ParamStore, Tape, Var};

use crate::config::ModelConfig;
use crate::inputs::{GraphTensors, QueryBatch, QueryVectors};

/// Query-independent activations computed once per graph and weights and
/// shared across online queries.
///
/// The Graph Encoder never consumes query information (Algorithm 2/3
/// keep it feeding on its own output), so at serving time its k forward
/// layers (`h_G^(1..k)` in eval mode) are identical for every query —
/// caching them turns the online stage into query-branch-only work.
/// QD-GNN's cache also holds its query branch evaluated for the null
/// query (zero one-hot), from which [`CsModel::local_scores`] scores a
/// query by recomputing only the rows within `k` hops of it. Build with
/// [`CsModel::build_graph_cache`], use with [`predict_scores_cached`].
///
/// A cache is only valid for the weights and graph it was built from;
/// it records their fingerprint, and cached scoring checks it in debug
/// and `sanitize` builds ([`GraphCache::check`]).
#[derive(Clone)]
pub struct GraphCache {
    /// Post-processed Graph Encoder output per layer (n × hidden each).
    pub layers: Vec<Arc<Dense>>,
    /// QD-GNN's null-query activations.
    null: Option<Arc<local::NullQuery>>,
    /// Vertex count of the graph the cache was built on.
    n: usize,
    /// [`weights_fingerprint`] of the model the cache was built from.
    fingerprint: u64,
}

impl GraphCache {
    /// A cache of `model`'s Graph Encoder `layers` on `inputs`' graph.
    pub(crate) fn new(model: &dyn CsModel, inputs: &GraphTensors, layers: Vec<Arc<Dense>>) -> Self {
        GraphCache { layers, null: None, n: inputs.n, fingerprint: weights_fingerprint(model) }
    }

    /// Whether the cache was built from `model`'s current weights (same
    /// layer count, parameters and BN running statistics) on a graph of
    /// `inputs`' size. The error names the first mismatch.
    pub fn check(&self, model: &dyn CsModel, inputs: &GraphTensors) -> Result<(), String> {
        if self.n != inputs.n {
            return Err(format!("built for n = {}, used with n = {}", self.n, inputs.n));
        }
        if self.layers.len() != model.config().layers {
            return Err(format!(
                "built with {} layers, model has {}",
                self.layers.len(),
                model.config().layers
            ));
        }
        let now = weights_fingerprint(model);
        if self.fingerprint != now {
            return Err(format!(
                "built from weights {:016x}, model now has {now:016x}",
                self.fingerprint
            ));
        }
        Ok(())
    }
}

/// FNV-1a fingerprint (the run manifest's config hash) of a model's
/// parameters and batch-norm running statistics, shapes included.
fn weights_fingerprint(model: &dyn CsModel) -> u64 {
    let mut h = qdgnn_obs::runs::Fnv1a::default();
    let mut put = |m: &Dense| {
        h.write(&(m.rows() as u64).to_le_bytes());
        h.write(&(m.cols() as u64).to_le_bytes());
        for v in m.as_slice() {
            h.write(&v.to_bits().to_le_bytes());
        }
    };
    for (_, _, value) in model.store().iter() {
        put(value);
    }
    for bn in model.bns() {
        put(bn.running_mean());
        put(bn.running_var());
    }
    h.finish()
}

/// Output of one model forward pass.
pub struct ForwardResult {
    /// Per-vertex logits (n×1); apply a sigmoid for the paper's `h_q`.
    pub logits: Var,
    /// Parameter leaves created on the tape, for gradient extraction.
    pub leaves: Vec<(Var, ParamId)>,
    /// Train-mode batch-norm statistics (BN index, stats).
    pub bn_stats: Vec<(usize, BnStats)>,
}

/// Snapshot of a model's trainable state (parameters plus batch-norm
/// running statistics), used to keep the best-on-validation weights.
#[derive(Clone)]
pub struct Checkpoint {
    params: Vec<Dense>,
    bn_running: Vec<(Dense, Dense)>,
}

impl Checkpoint {
    /// The snapshotted parameter matrices, in store order.
    pub fn params(&self) -> &[Dense] {
        &self.params
    }

    /// The snapshotted batch-norm `(running_mean, running_var)` pairs.
    pub fn bn_running(&self) -> &[(Dense, Dense)] {
        &self.bn_running
    }

    /// Rebuilds a checkpoint from its parts (checkpoint-file loading).
    pub fn from_parts(params: Vec<Dense>, bn_running: Vec<(Dense, Dense)>) -> Self {
        Checkpoint { params, bn_running }
    }
}

/// Common interface of [`SimpleQdGnn`], [`QdGnn`] and [`AqdGnn`].
///
/// Models are `Send + Sync`: forward passes borrow the model immutably,
/// so data-parallel workers can run queries concurrently against shared
/// parameters; only the optimizer step and
/// [`CsModel::apply_bn_stats`] mutate state (on the training thread).
pub trait CsModel: Send + Sync {
    /// Display name ("QD-GNN", …).
    fn name(&self) -> &'static str;

    /// The hyper-parameters the model was built with.
    fn config(&self) -> &ModelConfig;

    /// The trainable parameters.
    fn store(&self) -> &ParamStore;

    /// Mutable access for the optimizer.
    fn store_mut(&mut self) -> &mut ParamStore;

    /// The model's batch-norm layers (flat table).
    fn bns(&self) -> &[BatchNorm1d];

    /// Mutable batch-norm access.
    fn bns_mut(&mut self) -> &mut [BatchNorm1d];

    /// Records one query's forward pass on `tape`.
    fn forward(
        &self,
        tape: &mut Tape,
        inputs: &GraphTensors,
        query: &QueryVectors,
        mode: Mode,
        rng: &mut StdRng,
    ) -> ForwardResult;

    /// Whether the model consumes query attributes (AQD-GNN).
    fn uses_attributes(&self) -> bool {
        false
    }

    /// Precomputes the query-independent Graph Encoder activations for
    /// online serving (eval mode). Returns `None` for models without a
    /// graph branch (Simple QD-GNN).
    fn build_graph_cache(&self, _inputs: &GraphTensors) -> Option<GraphCache> {
        None
    }

    /// Eval-mode forward pass reusing a [`GraphCache`] built by
    /// [`CsModel::build_graph_cache`] on the same graph and weights.
    /// The default implementation ignores the cache and runs the full
    /// forward pass.
    fn forward_cached(
        &self,
        tape: &mut Tape,
        inputs: &GraphTensors,
        _cache: &GraphCache,
        query: &QueryVectors,
        rng: &mut StdRng,
    ) -> ForwardResult {
        self.forward(tape, inputs, query, Mode::Eval, rng)
    }

    /// Exact query-local eval scores from a cache holding the model's
    /// null-query activations: only the rows the query's one-hot can
    /// reach are recomputed, the rest are read from the cache.
    /// Bit-identical to [`predict_scores`]. `None` when the model (or
    /// this cache) has no local path; [`predict_scores_cached`] then falls
    /// back to [`CsModel::forward_cached`].
    fn local_scores(
        &self,
        _inputs: &GraphTensors,
        _cache: &GraphCache,
        _query: &QueryVectors,
    ) -> Option<Vec<f32>> {
        None
    }

    /// Folds a batch's BN statistics into the running estimates.
    fn apply_bn_stats(&mut self, stats: &[(usize, BnStats)]) {
        for (idx, s) in stats {
            self.bns_mut()[*idx].apply_stats(s);
        }
    }

    /// Deep-copies the trainable state.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            params: self.store().snapshot(),
            bn_running: self
                .bns()
                .iter()
                .map(|bn| (bn.running_mean().clone(), bn.running_var().clone()))
                .collect(),
        }
    }

    /// Restores a [`CsModel::checkpoint`].
    fn restore(&mut self, ckpt: &Checkpoint) {
        self.store_mut().restore(&ckpt.params);
        for (bn, (mean, var)) in self.bns_mut().iter_mut().zip(&ckpt.bn_running) {
            bn.set_running(mean.clone(), var.clone());
        }
    }
}

impl CsModel for Box<dyn CsModel> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn config(&self) -> &ModelConfig {
        (**self).config()
    }

    fn store(&self) -> &ParamStore {
        (**self).store()
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        (**self).store_mut()
    }

    fn bns(&self) -> &[BatchNorm1d] {
        (**self).bns()
    }

    fn bns_mut(&mut self) -> &mut [BatchNorm1d] {
        (**self).bns_mut()
    }

    fn forward(
        &self,
        tape: &mut Tape,
        inputs: &GraphTensors,
        query: &QueryVectors,
        mode: Mode,
        rng: &mut StdRng,
    ) -> ForwardResult {
        (**self).forward(tape, inputs, query, mode, rng)
    }

    fn uses_attributes(&self) -> bool {
        (**self).uses_attributes()
    }

    fn build_graph_cache(&self, inputs: &GraphTensors) -> Option<GraphCache> {
        (**self).build_graph_cache(inputs)
    }

    fn forward_cached(
        &self,
        tape: &mut Tape,
        inputs: &GraphTensors,
        cache: &GraphCache,
        query: &QueryVectors,
        rng: &mut StdRng,
    ) -> ForwardResult {
        (**self).forward_cached(tape, inputs, cache, query, rng)
    }

    fn local_scores(
        &self,
        inputs: &GraphTensors,
        cache: &GraphCache,
        query: &QueryVectors,
    ) -> Option<Vec<f32>> {
        (**self).local_scores(inputs, cache, query)
    }
}

/// Runs an inference (eval-mode) forward pass and returns per-vertex
/// community scores `h_q ∈ [0,1]^n` (the online query stage's model
/// invocation, §4.3).
pub fn predict_scores(model: &dyn CsModel, inputs: &GraphTensors, query: &QueryVectors) -> Vec<f32> {
    let mut tape = Tape::new();
    // Eval mode: dropout off, BN uses running stats — rng is never used,
    // any fixed seed keeps the signature honest.
    let mut rng = StdRng::seed_from_u64(0);
    let result = model.forward(&mut tape, inputs, query, Mode::Eval, &mut rng);
    let scores = tape.sigmoid(result.logits);
    tape.value(scores).as_slice().to_vec()
}

/// Like [`predict_scores`], but reuses a precomputed [`GraphCache`]:
/// only the query-dependent branches are evaluated per query, and for
/// QD-GNN only the rows within `k` hops of the query
/// ([`CsModel::local_scores`]). Bit-identical to [`predict_scores`].
///
/// # Panics
/// Panics if `cache` has a different layer count than `model`; debug and
/// `sanitize` builds also panic if it was built from other weights or
/// for a graph of another size ([`GraphCache::check`]).
pub fn predict_scores_cached(
    model: &dyn CsModel,
    inputs: &GraphTensors,
    cache: &GraphCache,
    query: &QueryVectors,
) -> Vec<f32> {
    assert_cache_fits(model, inputs, cache);
    if let Some(scores) = model.local_scores(inputs, cache, query) {
        return scores;
    }
    let mut tape = Tape::new();
    let mut rng = StdRng::seed_from_u64(0);
    let result = model.forward_cached(&mut tape, inputs, cache, query, &mut rng);
    let scores = tape.sigmoid(result.logits);
    tape.value(scores).as_slice().to_vec()
}

/// The stale-cache guard of cached scoring: the layer count in every
/// build, the full [`GraphCache::check`] in debug and `sanitize` builds.
fn assert_cache_fits(model: &dyn CsModel, inputs: &GraphTensors, cache: &GraphCache) {
    assert_eq!(cache.layers.len(), model.config().layers, "cache layer-count mismatch");
    if cfg!(any(debug_assertions, feature = "sanitize")) {
        assert_eq!(cache.check(model, inputs), Ok(()), "stale GraphCache");
    }
}

/// One query's scores: [`predict_scores_cached`] with a cache,
/// [`predict_scores`] without. Every serving entry point scores through
/// here, one query at a time.
pub(crate) fn predict_scores_with(
    model: &dyn CsModel,
    inputs: &GraphTensors,
    cache: Option<&GraphCache>,
    query: &QueryVectors,
) -> Vec<f32> {
    match cache {
        Some(c) => predict_scores_cached(model, inputs, c, query),
        None => predict_scores(model, inputs, query),
    }
}

/// Scores every query of a [`QueryBatch`], in batch order, one query at
/// a time, so each result is exactly the sequential one. Panics on a
/// stale `cache` like [`predict_scores_cached`].
pub fn predict_scores_batch(
    model: &dyn CsModel,
    inputs: &GraphTensors,
    cache: Option<&GraphCache>,
    batch: &QueryBatch,
) -> Vec<Vec<f32>> {
    batch.queries().iter().map(|q| predict_scores_with(model, inputs, cache, q)).collect()
}

/// Builds the model's scalar output head (fused features → logits).
pub(crate) fn output_head(
    store: &mut ParamStore,
    name: &str,
    in_dim: usize,
    rng: &mut StdRng,
) -> (ParamId, ParamId) {
    let w = store.xavier(format!("{name}.out.weight"), in_dim, 1, rng);
    let b = store.zeros(format!("{name}.out.bias"), 1, 1);
    (w, b)
}

/// The output head's logit for one fused row (eval mode), with the bits
/// of the matching row of [`apply_output_head`].
pub(crate) fn output_head_row(store: &ParamStore, head: (ParamId, ParamId), fused: &[f32]) -> f32 {
    let mut logit = [0.0f32];
    store.value(head.0).row_matmul_into(fused, &mut logit);
    logit[0] + store.value(head.1).as_slice()[0]
}

/// Applies the output head inside a forward pass.
pub(crate) fn apply_output_head<R: rand::Rng>(
    ctx: &mut blocks::ForwardCtx<'_, R>,
    head: (ParamId, ParamId),
    fused: Var,
) -> Var {
    let w = ctx.param(head.0);
    let b = ctx.param(head.1);
    let y = ctx.tape.matmul(fused, w);
    ctx.tape.add_row(y, b)
}

