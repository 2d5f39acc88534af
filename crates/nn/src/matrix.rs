//! Row-major dense `f32` matrices with the handful of operations the SAGE
//! models need: matmul (plain and transposed variants), row-broadcast adds,
//! elementwise maps, and seeded random initialisation.
//!
//! Conventions: a batch of activations is a matrix with `rows = batch size`
//! and `cols = feature dim`. Weight matrices are `in_dim x out_dim`, so the
//! forward pass of a linear layer is `X · W`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A row-major dense matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a flat row-major vector. Panics when the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// A 1 x n row matrix borrowing `row`'s contents.
    pub fn from_row(row: &[f32]) -> Self {
        Self { rows: 1, cols: row.len(), data: row.to_vec() }
    }

    /// Stack several equally-sized rows into a batch matrix.
    /// Panics if rows have unequal lengths or the iterator is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Xavier/Glorot-uniform initialisation with a seeded RNG: values in
    /// `±sqrt(6/(rows+cols))`. Deterministic for a given seed.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.random_range(-bound..bound)).collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the backing storage (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other` — (m x k)·(k x n) → (m x n).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dim mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        // ikj loop order: streams through `other` rows, cache-friendly.
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[p * n..(p + 1) * n];
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ · other` — (m x k)ᵀ·(m x n) → (k x n). Used for weight grads
    /// (`dW = Xᵀ · dY`) without materialising the transpose.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "transpose_matmul dim mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(k, n);
        for i in 0..m {
            let xrow = &self.data[i * k..(i + 1) * k];
            let yrow = &other.data[i * n..(i + 1) * n];
            for (p, &x) in xrow.iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[p * n..(p + 1) * n];
                for (o, &y) in out_row.iter_mut().zip(yrow) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// `self · otherᵀ` — (m x k)·(n x k)ᵀ → (m x n). Used for input grads
    /// (`dX = dY · Wᵀ`) without materialising the transpose.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_transpose dim mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let arow = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&a, &b) in arow.iter().zip(brow) {
                    acc += a * b;
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Add a row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Column-wise sums, as a vector of length `cols` (bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Multiply every element by `s`.
    pub fn scale(&mut self, s: f32) {
        self.map_inplace(|v| v * s);
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// L2 norm of a slice.
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity in `[-1, 1]`; 0.0 when either vector is all-zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Normalize a vector to unit L2 length in place (no-op for zero vectors).
pub fn l2_normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transposed_matmuls_agree_with_plain() {
        let a = Matrix::xavier(4, 3, 1);
        let b = Matrix::xavier(4, 5, 2);
        // aᵀ·b via transpose_matmul == manual transpose then matmul
        let mut at = Matrix::zeros(3, 4);
        for i in 0..4 {
            for j in 0..3 {
                at.set(j, i, a.get(i, j));
            }
        }
        let want = at.matmul(&b);
        let got = a.transpose_matmul(&b);
        for (x, y) in got.data().iter().zip(want.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_transpose_agrees_with_plain() {
        let a = Matrix::xavier(2, 3, 3);
        let b = Matrix::xavier(4, 3, 4);
        let mut bt = Matrix::zeros(3, 4);
        for i in 0..4 {
            for j in 0..3 {
                bt.set(j, i, b.get(i, j));
            }
        }
        let want = a.matmul(&bt);
        let got = a.matmul_transpose(&b);
        for (x, y) in got.data().iter().zip(want.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn broadcast_and_colsums_roundtrip() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(m.col_sums(), vec![3.0, 6.0]);
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = Matrix::xavier(10, 10, 7);
        let b = Matrix::xavier(10, 10, 7);
        assert_eq!(a, b);
        let bound = (6.0_f32 / 20.0).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= bound));
        assert!(a.data().iter().any(|v| *v != 0.0));
    }

    #[test]
    fn cosine_properties() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
        assert!(cosine(&a, &b).abs() < 1e-6);
        assert!((cosine(&a, &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&a, &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn l2_normalize_unit_length() {
        let mut v = vec![3.0, 4.0];
        l2_normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        l2_normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "matmul dim mismatch")]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
