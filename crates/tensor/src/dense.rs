//! Row-major dense f32 matrices and their kernels.
//!
//! The kernels are written for the shapes that dominate GNN training:
//! tall-skinny activations (`n × 128`) multiplied by small square weight
//! matrices (`128 × 128`). The matmul uses an `i-k-j` loop order so the
//! innermost loop is a contiguous AXPY over the output row, which LLVM
//! auto-vectorizes; large products are additionally split across threads
//! with `crossbeam::thread::scope`.

use std::fmt;

/// Number of multiply-accumulate operations above which [`Dense::matmul`]
/// switches to the multi-threaded kernel.
const PARALLEL_FLOP_THRESHOLD: usize = 4_000_000;

/// A row-major dense matrix of `f32`.
///
/// Cloning is a deep copy; the autodiff tape wraps values in `Arc` so that
/// clones on the hot path are reference-counted instead.
///
/// Every buffer is accounted to the obs memory registry on construction
/// and on drop (zero-cost no-ops unless `qdgnn-obs/enabled` is on), so
/// `mem.live_bytes` / `mem.peak_bytes` track tensor heap usage exactly.
#[derive(PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Dense {
    fn clone(&self) -> Self {
        // Manual impl so the copy's buffer is accounted like any other.
        Dense::tracked(self.rows, self.cols, self.data.clone())
    }
}

impl Drop for Dense {
    fn drop(&mut self) {
        qdgnn_obs::mem_free(self.heap_bytes());
    }
}

impl Dense {
    /// The sole constructor: accounts the buffer, then builds the value.
    /// Buffers never grow after construction (no method reallocates
    /// `data`), so the capacity freed on drop equals the one counted here.
    #[inline]
    fn tracked(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        let m = Dense { rows, cols, data };
        qdgnn_obs::mem_alloc(m.heap_bytes());
        m
    }

    /// Bytes of heap this matrix owns (its buffer's capacity).
    #[inline]
    pub fn heap_bytes(&self) -> u64 {
        (self.data.capacity() * std::mem::size_of::<f32>()) as u64
    }

    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense::tracked(rows, cols, vec![0.0; rows * cols])
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Dense::tracked(rows, cols, vec![value; rows * cols])
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Dense::tracked(rows, cols, data)
    }

    /// Creates a matrix from nested row slices (test/builder convenience).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Dense::tracked(r, c, data)
    }

    /// Creates a 1×`n` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Dense::tracked(1, values.len(), values.to_vec())
    }

    /// Creates an `n`×1 column vector.
    pub fn column_vector(values: &[f32]) -> Self {
        Dense::tracked(values.len(), 1, values.to_vec())
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Dense::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        crate::sanitize_assert!(
            r < self.rows && c < self.cols,
            "Dense::get out of bounds: [{r},{c}] in a {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        crate::sanitize_assert!(
            r < self.rows && c < self.cols,
            "Dense::set out of bounds: [{r},{c}] in a {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Consumes the matrix, returning its row-major data.
    ///
    /// The buffer leaves memory accounting here: it is counted as freed
    /// even though the returned `Vec` keeps it alive (only tensor-owned
    /// buffers are tracked).
    pub fn into_vec(mut self) -> Vec<f32> {
        let data = std::mem::take(&mut self.data);
        // `self` now holds a zero-capacity buffer; its Drop frees 0 bytes,
        // so release the real buffer's bytes explicitly.
        qdgnn_obs::mem_free((data.capacity() * std::mem::size_of::<f32>()) as u64);
        data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Dense {
        let mut out = Dense::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self * other` (dense × dense).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Dense) -> Dense {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Dense::zeros(self.rows, other.cols);
        let flops = self.rows * self.cols * other.cols;
        if flops >= PARALLEL_FLOP_THRESHOLD {
            matmul_parallel(self, other, &mut out);
        } else {
            matmul_rows(self, other, out.as_mut_slice(), 0, self.rows);
        }
        out
    }

    /// Accumulates one row of a product into `out_row`:
    /// `out_row += a_row · self`, skipping exact-zero entries of `a_row`.
    ///
    /// This is the per-row kernel behind [`Dense::matmul`], serial and
    /// threaded alike, so a zeroed `out_row` receives exactly the bits of
    /// the matching row of `A · self`. Row-subset evaluators call it to
    /// recompute single rows bit-identically.
    ///
    /// # Panics
    /// Panics if `a_row.len() != self.rows()` or
    /// `out_row.len() != self.cols()`.
    #[inline]
    pub fn row_matmul_into(&self, a_row: &[f32], out_row: &mut [f32]) {
        assert!(
            a_row.len() == self.rows && out_row.len() == self.cols,
            "row_matmul_into shape mismatch: 1x{} * {}x{} into 1x{}",
            a_row.len(),
            self.rows,
            self.cols,
            out_row.len()
        );
        for (k, &av) in a_row.iter().enumerate() {
            // qdgnn-analyze: allow(QD002, reason = "exact-zero sparsity skip: multiplying by bit-exact 0.0 contributes nothing; skip is an optimization")
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(self.row(k)) {
                *o += av * bv;
            }
        }
    }

    /// `selfᵀ * other` without materializing the transpose.
    ///
    /// Used by backward passes (`dW = Xᵀ · dY`).
    pub fn transpose_matmul(&self, other: &Dense) -> Dense {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul shape mismatch: {}x{}^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Dense::zeros(self.cols, other.cols);
        // out[i][j] = sum_k self[k][i] * other[k][j]
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                // qdgnn-analyze: allow(QD002, reason = "exact-zero sparsity skip: one-hot query inputs make most entries bit-exact 0.0; skipping them is an optimization, not a semantic branch")
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * b_row.len()..(i + 1) * b_row.len()];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * otherᵀ` without materializing the transpose.
    ///
    /// Used by backward passes (`dX = dY · Wᵀ`).
    pub fn matmul_transpose(&self, other: &Dense) -> Dense {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose shape mismatch: {}x{} * {}x{}^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Dense::zeros(self.rows, other.rows);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let out_row = out.row_mut(r);
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for (a, b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Dense) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise `self += scale * other` (AXPY).
    pub fn add_scaled_assign(&mut self, other: &Dense, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Elementwise sum, returning a new matrix.
    pub fn add(&self, other: &Dense) -> Dense {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Elementwise difference, returning a new matrix.
    pub fn sub(&self, other: &Dense) -> Dense {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Dense::tracked(self.rows, self.cols, data)
    }

    /// Elementwise (Hadamard) product, returning a new matrix.
    pub fn hadamard(&self, other: &Dense) -> Dense {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Dense::tracked(self.rows, self.cols, data)
    }

    /// Multiplies every element by `k` in place.
    pub fn scale_assign(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Returns `k * self`.
    pub fn scaled(&self, k: f32) -> Dense {
        let mut out = self.clone();
        out.scale_assign(k);
        out
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Dense {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Dense::tracked(self.rows, self.cols, data)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column sums as a 1×cols row vector.
    pub fn col_sums(&self) -> Dense {
        let mut out = Dense::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Column means as a 1×cols row vector.
    pub fn col_means(&self) -> Dense {
        let mut out = self.col_sums();
        if self.rows > 0 {
            out.scale_assign(1.0 / self.rows as f32);
        }
        out
    }

    /// Horizontal concatenation of matrices with equal row counts.
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Dense]) -> Dense {
        assert!(!parts.is_empty(), "concat_cols of zero matrices");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Dense::zeros(rows, cols);
        for r in 0..rows {
            let out_row = out.row_mut(r);
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "concat_cols row mismatch");
                out_row[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Extracts the column range `[start, start + width)` into a new matrix.
    pub fn slice_cols(&self, start: usize, width: usize) -> Dense {
        assert!(start + width <= self.cols, "slice_cols out of range");
        let mut out = Dense::zeros(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..start + width]);
        }
        out
    }

    /// Gathers the given rows into a new matrix (`out[i] = self[rows[i]]`).
    pub fn gather_rows(&self, rows: &[usize]) -> Dense {
        let mut out = Dense::zeros(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < self.rows, "gather_rows index {r} out of range");
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Maximum absolute element (0 for empty).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Squared Frobenius norm.
    pub fn frob_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// `true` if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Approximate equality within `tol`, elementwise (shapes must match).
    pub fn approx_eq(&self, other: &Dense, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Dense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dense {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for c in 0..max_cols {
                write!(f, "{:9.4}", self.get(r, c))?;
                if c + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Single-threaded kernel computing rows `[row_start, row_end)` of `a * b`
/// into `out` (full output buffer, row-major with `b.cols` columns).
fn matmul_rows(a: &Dense, b: &Dense, out: &mut [f32], row_start: usize, row_end: usize) {
    let n = b.cols;
    for r in row_start..row_end {
        b.row_matmul_into(a.row(r), &mut out[r * n..(r + 1) * n]);
    }
}

/// Multi-threaded matmul: splits output rows into contiguous chunks, one
/// per worker thread.
fn matmul_parallel(a: &Dense, b: &Dense, out: &mut Dense) {
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(a.rows);
    if threads <= 1 {
        matmul_rows(a, b, out.as_mut_slice(), 0, a.rows);
        return;
    }
    let n = b.cols;
    let chunk_rows = a.rows.div_ceil(threads);
    let chunks: Vec<&mut [f32]> = out.data.chunks_mut(chunk_rows * n).collect();
    crossbeam::thread::scope(|scope| {
        for (idx, chunk) in chunks.into_iter().enumerate() {
            let row_start = idx * chunk_rows;
            let row_end = (row_start + chunk.len() / n).min(a.rows);
            scope.spawn(move |_| {
                // Each chunk is a disjoint slice of output rows; recompute
                // with local row indices by shifting the base pointer.
                let local = chunk;
                for r in row_start..row_end {
                    let off = (r - row_start) * n;
                    b.row_matmul_into(a.row(r), &mut local[off..off + n]);
                }
            });
        }
    })
    .expect("matmul worker thread panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_matmul_into_reproduces_each_product_row() {
        let a = Dense::from_rows(&[&[1.0, 0.0, -2.0], &[0.0, 0.0, 0.0], &[0.5, 3.0, 1.0]]);
        let b = Dense::from_rows(&[&[1.0, 2.0], &[-1.0, 0.25], &[4.0, -3.0]]);
        let full = a.matmul(&b);
        for r in 0..a.rows() {
            let mut row = vec![0.0; 2];
            b.row_matmul_into(a.row(r), &mut row);
            assert_eq!(row.as_slice(), full.row(r));
        }
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Dense::from_rows(&[&[7.0, 8.0, 9.0], &[10.0, 11.0, 12.0]]);
        let c = a.matmul(&b);
        let expect = Dense::from_rows(&[
            &[27.0, 30.0, 33.0],
            &[61.0, 68.0, 75.0],
            &[95.0, 106.0, 117.0],
        ]);
        assert!(c.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn transpose_products_match_explicit_transpose() {
        let a = Dense::from_rows(&[&[1.0, -2.0, 0.5], &[3.0, 4.0, -1.0]]);
        let b = Dense::from_rows(&[&[2.0, 1.0], &[0.0, -1.0]]);
        let atb = a.transpose_matmul(&b);
        assert!(atb.approx_eq(&a.transpose().matmul(&b), 1e-6));

        let c = Dense::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let act = a.matmul_transpose(&c);
        assert!(act.approx_eq(&a.matmul(&c.transpose()), 1e-6));
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Shapes chosen to exceed PARALLEL_FLOP_THRESHOLD.
        let n = 260;
        let mut a = Dense::zeros(n, n);
        let mut b = Dense::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, ((i * 31 + j * 7) % 13) as f32 - 6.0);
                b.set(i, j, ((i * 17 + j * 3) % 11) as f32 - 5.0);
            }
        }
        let fast = a.matmul(&b);
        let mut slow = Dense::zeros(n, n);
        matmul_rows(&a, &b, slow.as_mut_slice(), 0, n);
        assert!(fast.approx_eq(&slow, 1e-3));
    }

    #[test]
    fn concat_and_slice_round_trip() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Dense::from_rows(&[&[5.0], &[6.0]]);
        let cat = Dense::concat_cols(&[&a, &b]);
        assert_eq!(cat.shape(), (2, 3));
        assert!(cat.slice_cols(0, 2).approx_eq(&a, 0.0));
        assert!(cat.slice_cols(2, 1).approx_eq(&b, 0.0));
    }

    #[test]
    fn col_reductions() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(a.col_sums().approx_eq(&Dense::row_vector(&[4.0, 6.0]), 1e-6));
        assert!(a.col_means().approx_eq(&Dense::row_vector(&[2.0, 3.0]), 1e-6));
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    fn gather_rows_selects() {
        let a = Dense::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let g = a.gather_rows(&[2, 0]);
        assert!(g.approx_eq(&Dense::from_rows(&[&[3.0], &[1.0]]), 0.0));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
