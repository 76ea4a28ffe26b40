//! Kernel probes at the workload's own shapes.
//!
//! * `tensor.matmul`: the query-branch aggregation matmul of layers ≥ 2,
//!   `(n × fused) · (fused × hidden)`, with `fused` the model's fused
//!   width (`hidden × branches`).
//! * `tensor.spmm`: one propagation over the normalised adjacency,
//!   `adj (n × n, nnz) · (n × hidden)`.
//!
//! FLOPs and bytes moved are computed from the tensor sizes, not
//! measured: f32 values, u32 column indices and usize row offsets, each
//! operand read once and the output written once.

use std::hint::black_box;
use std::time::{Duration, Instant};

use qdgnn_core::{GraphTensors, ModelConfig};
use qdgnn_tensor::Dense;

use crate::rng::SplitMix64;
use crate::stats::median;

/// Wall time each probe runs for (at least three calls).
const PROBE_TIME: Duration = Duration::from_millis(300);

fn random(rows: usize, cols: usize, rng: &mut SplitMix64) -> Dense {
    Dense::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.unit() as f32 - 0.5).collect(),
    )
}

/// Median microseconds of `f` over [`PROBE_TIME`].
fn time_us(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < PROBE_TIME {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples).unwrap_or(0.0)
}

/// `(name, value)` pairs for both probes: time, GFLOP/s and MB moved.
/// `branches` is the number of encoder outputs the model fuses (QD-GNN
/// 2, AQD-GNN 3).
pub fn run(config: &ModelConfig, branches: usize, t: &GraphTensors) -> Vec<(&'static str, f64)> {
    let mut rng = SplitMix64::new(0x5EED);
    let (n, h) = (t.n, config.hidden);
    let fused = config.fused_width(branches);
    let a = random(n, fused, &mut rng);
    let w = random(fused, h, &mut rng);
    let matmul_us = time_us(|| {
        black_box(black_box(&a).matmul(black_box(&w)));
    });
    let matmul_flops = 2.0 * (n * fused * h) as f64;
    let matmul_bytes = 4.0 * (n * fused + fused * h + n * h) as f64;

    let x = random(n, h, &mut rng);
    let adj = t.adj.as_ref();
    let spmm_us = time_us(|| {
        black_box(black_box(adj).spmm(black_box(&x)));
    });
    let nnz = adj.nnz();
    let spmm_flops = 2.0 * (nnz * h) as f64;
    let spmm_bytes =
        (8 * nnz + 8 * (adj.rows() + 1) + 4 * adj.cols() * h + 4 * adj.rows() * h) as f64;

    vec![
        ("tensor.matmul_us", matmul_us),
        ("tensor.matmul.gflops", matmul_flops / (matmul_us * 1e3)),
        ("tensor.matmul.mb_moved", matmul_bytes / 1e6),
        ("tensor.spmm_us", spmm_us),
        ("tensor.spmm.gflops", spmm_flops / (spmm_us * 1e3)),
        ("tensor.spmm.mb_moved", spmm_bytes / 1e6),
    ]
}
