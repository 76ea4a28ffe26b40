//! Precomputed per-dataset tensors (§4.1 input construction).
//!
//! Everything here is query-independent and shared (via `Arc`) across
//! queries, epochs and data-parallel workers: the normalized adjacency,
//! the normalized attribute matrix `F`, the bipartite incidence `B`, the
//! structure graph, and (lazily) the fusion graph used by attributed
//! community identification.

use std::sync::Arc;

use qdgnn_graph::attributed::{adjacency_matrix, AdjNorm, AttrId};
use qdgnn_graph::{AttributedGraph, Graph, VertexId};
use qdgnn_tensor::{Csr, Dense};

use crate::error::QdgnnError;

/// Query-independent tensors for one attributed graph.
#[derive(Clone)]
pub struct GraphTensors {
    /// Number of vertices `n`.
    pub n: usize,
    /// Attribute vocabulary size `d = |F̂|`.
    pub d: usize,
    /// Aggregation matrix `Â` (self-loop augmented, normalized).
    pub adj: Arc<Csr>,
    /// Transpose of `adj` (backward pass).
    pub adj_t: Arc<Csr>,
    /// Row-normalized attribute matrix `F` (n×d).
    pub feat: Arc<Csr>,
    /// Transpose of `feat`.
    pub feat_t: Arc<Csr>,
    /// Raw node–attribute incidence `B` (n×d).
    pub bip: Arc<Csr>,
    /// Transpose `Bᵀ` (d×n).
    pub bip_t: Arc<Csr>,
    /// The structure graph (community identification for CS).
    pub graph: Arc<Graph>,
    /// The fusion graph (community identification for ACS), built with
    /// the configured attribute-frequency cap.
    pub fusion: Arc<Graph>,
}

impl GraphTensors {
    /// Builds all tensors for `graph`.
    pub fn new(graph: &AttributedGraph, adj_norm: AdjNorm, fusion_attr_cap: usize) -> Self {
        let adj = adjacency_matrix(graph.graph(), adj_norm);
        let adj_t = adj.transpose();
        let feat = graph.attribute_matrix();
        let feat_t = feat.transpose();
        let bip = graph.bipartite_incidence();
        let bip_t = bip.transpose();
        let fusion = graph.fusion_graph(fusion_attr_cap);
        GraphTensors {
            n: graph.num_vertices(),
            d: graph.num_attrs(),
            adj: Arc::new(adj),
            adj_t: Arc::new(adj_t),
            feat: Arc::new(feat),
            feat_t: Arc::new(feat_t),
            bip: Arc::new(bip),
            bip_t: Arc::new(bip_t),
            graph: Arc::new(graph.graph().clone()),
            fusion: Arc::new(fusion),
        }
    }
}

/// Vectorized query inputs (§4.1): one-hot query-vertex and
/// query-attribute columns.
#[derive(Clone, Debug)]
pub struct QueryVectors {
    /// `v_q ∈ {0,1}^n` as an n×1 column.
    pub vertex_onehot: Dense,
    /// `f_q ∈ {0,1}^d` as a d×1 column (all zeros under EmA).
    pub attr_onehot: Dense,
}

impl QueryVectors {
    /// Encodes a query against a graph with `n` vertices and `d`
    /// attributes, validating every id against the graph's dimensions.
    ///
    /// This is the serving-path entry point: malformed queries surface as
    /// typed errors, never as panics.
    pub fn try_encode(
        n: usize,
        d: usize,
        vertices: &[VertexId],
        attrs: &[AttrId],
    ) -> Result<Self, QdgnnError> {
        if vertices.is_empty() {
            return Err(QdgnnError::EmptyQuery);
        }
        let mut v = Dense::zeros(n, 1);
        for &q in vertices {
            if (q as usize) >= n {
                return Err(QdgnnError::VertexOutOfRange { vertex: q, n });
            }
            v.set(q as usize, 0, 1.0);
        }
        let mut f = Dense::zeros(d, 1);
        for &a in attrs {
            if (a as usize) >= d {
                return Err(QdgnnError::AttrOutOfRange { attr: a, d });
            }
            f.set(a as usize, 0, 1.0);
        }
        Ok(QueryVectors { vertex_onehot: v, attr_onehot: f })
    }

    /// Encodes a trusted query (training data whose ids were produced
    /// against this graph). See [`QueryVectors::try_encode`] for the
    /// validating variant.
    ///
    /// # Panics
    /// Panics if a query vertex or attribute is out of range, or the
    /// query is empty.
    pub fn encode(n: usize, d: usize, vertices: &[VertexId], attrs: &[AttrId]) -> Self {
        match Self::try_encode(n, d, vertices, attrs) {
            Ok(qv) => qv,
            // qdgnn-analyze: allow(QD001, reason = "documented trusted-input variant for training data; serving uses try_encode")
            Err(e) => panic!("invalid training query: {e}"),
        }
    }

    /// Whether the query carries attributes.
    pub fn has_attrs(&self) -> bool {
        // One-hot entries are exactly 0.0 or 1.0 by construction, so a
        // strict sign test avoids exact float equality.
        self.attr_onehot.as_slice().iter().any(|&x| x > 0.0)
    }
}

/// `K` encoded queries of the same shape (the serving engine's unit of
/// work). [`crate::models::predict_scores_batch`] scores them one by one.
#[derive(Clone, Debug)]
pub struct QueryBatch {
    queries: Vec<QueryVectors>,
}

impl QueryBatch {
    /// Collects already-encoded queries into one batch.
    ///
    /// Every query must have been encoded against the same graph
    /// dimensions; a mismatch (or an empty slice) surfaces as a typed
    /// error, never a panic — this is a serving-path entry point.
    pub fn try_stack(queries: &[QueryVectors]) -> Result<Self, QdgnnError> {
        let Some(first) = queries.first() else {
            return Err(QdgnnError::invalid("query batch must contain at least one query"));
        };
        let (v, f) = (first.vertex_onehot.shape(), first.attr_onehot.shape());
        for (i, q) in queries.iter().enumerate() {
            if q.vertex_onehot.shape() != v || q.attr_onehot.shape() != f {
                return Err(QdgnnError::invalid(format!(
                    "query {i} shaped {:?}/{:?} does not match batch dimensions {v:?}/{f:?}",
                    q.vertex_onehot.shape(),
                    q.attr_onehot.shape()
                )));
            }
        }
        Ok(QueryBatch { queries: queries.to_vec() })
    }

    /// Number of queries `K` in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch is empty (never true for a constructed batch).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries, in batch order.
    pub fn queries(&self) -> &[QueryVectors] {
        &self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdgnn_data::presets;

    #[test]
    fn tensors_have_consistent_shapes() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        assert_eq!(t.adj.rows(), t.n);
        assert_eq!(t.adj.cols(), t.n);
        assert_eq!(t.feat.rows(), t.n);
        assert_eq!(t.feat.cols(), t.d);
        assert_eq!(t.bip_t.rows(), t.d);
        assert_eq!(t.bip_t.cols(), t.n);
        assert!(t.fusion.num_edges() >= t.graph.num_edges());
    }

    #[test]
    fn adjacency_transpose_is_consistent() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::Mean, 100);
        // Mean normalization is asymmetric; transpose must still match.
        let dense = t.adj.to_dense().transpose();
        assert!(t.adj_t.to_dense().approx_eq(&dense, 1e-6));
    }

    #[test]
    fn query_vectors_one_hot() {
        let q = QueryVectors::encode(5, 3, &[1, 3], &[2]);
        assert_eq!(q.vertex_onehot.as_slice(), &[0.0, 1.0, 0.0, 1.0, 0.0]);
        assert_eq!(q.attr_onehot.as_slice(), &[0.0, 0.0, 1.0]);
        assert!(q.has_attrs());
        let empty = QueryVectors::encode(2, 2, &[0], &[]);
        assert!(!empty.has_attrs());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn query_vertex_out_of_range() {
        let _ = QueryVectors::encode(3, 1, &[7], &[]);
    }

    #[test]
    fn query_batch_keeps_queries_in_order() {
        let q0 = QueryVectors::encode(4, 2, &[1], &[0]);
        let q1 = QueryVectors::encode(4, 2, &[0, 3], &[]);
        let b = QueryBatch::try_stack(&[q0.clone(), q1.clone()]).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.queries()[0].vertex_onehot.as_slice(), q0.vertex_onehot.as_slice());
        assert_eq!(b.queries()[1].vertex_onehot.as_slice(), q1.vertex_onehot.as_slice());
        assert_eq!(b.queries()[0].attr_onehot.as_slice(), q0.attr_onehot.as_slice());
    }

    #[test]
    fn query_batch_rejects_empty_and_mismatched() {
        assert!(QueryBatch::try_stack(&[]).is_err());
        let q0 = QueryVectors::encode(4, 2, &[1], &[]);
        let q1 = QueryVectors::encode(5, 2, &[1], &[]);
        assert!(QueryBatch::try_stack(&[q0.clone(), q1]).is_err());
        let q2 = QueryVectors::encode(4, 3, &[1], &[]);
        assert!(QueryBatch::try_stack(&[q0, q2]).is_err());
    }
}
