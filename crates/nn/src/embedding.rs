//! A sparse embedding table with mean-pooled lookups.
//!
//! The trainable sentence encoders (`sage-embed`'s SBERT/DPR analogs) map a
//! sentence to the mean of the embedding rows addressed by its hashed token
//! features, optionally sign-flipped (hash-kernel style). Training updates
//! only the rows that participated in a batch, so the table scales to large
//! bucket counts without dense optimizer state.

use crate::optim::sgd_update;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `buckets x dim` embedding table with sparse SGD updates.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    buckets: usize,
    dim: usize,
    rows: Vec<f32>,
}

impl EmbeddingTable {
    /// New table with small random entries (`±0.5/sqrt(dim)`), seeded.
    pub fn new(buckets: usize, dim: usize, seed: u64) -> Self {
        assert!(buckets > 0 && dim > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = 0.5 / (dim as f32).sqrt();
        let rows = (0..buckets * dim).map(|_| rng.random_range(-bound..bound)).collect();
        Self { buckets, dim, rows }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The full table, row-major (serialization).
    pub fn rows_flat(&self) -> &[f32] {
        &self.rows
    }

    /// Rebuild from persisted parts. `None` on a size mismatch.
    pub fn from_parts(buckets: usize, dim: usize, rows: Vec<f32>) -> Option<Self> {
        if buckets == 0 || dim == 0 || rows.len() != buckets.checked_mul(dim)? {
            return None;
        }
        Some(Self { buckets, dim, rows })
    }

    /// Borrow one row.
    pub fn row(&self, bucket: u32) -> &[f32] {
        let b = bucket as usize;
        assert!(b < self.buckets, "bucket {b} out of range {}", self.buckets);
        &self.rows[b * self.dim..(b + 1) * self.dim]
    }

    /// Mean-pool the rows addressed by `(bucket, sign)` features into `out`.
    /// With no features, `out` is zeroed.
    pub fn pool(&self, features: &[(u32, f32)], out: &mut [f32]) {
        self.pool_with(out, |add| features.iter().for_each(|&(bucket, sign)| add(bucket, sign)));
    }

    /// [`pool`](Self::pool) of the features `feed` hands to its argument one
    /// by one, in that order — for a caller that can stream them and would
    /// otherwise collect a list only to pool it.
    pub fn pool_with(&self, out: &mut [f32], feed: impl FnOnce(&mut dyn FnMut(u32, f32))) {
        assert_eq!(out.len(), self.dim);
        out.fill(0.0);
        let mut n = 0usize;
        feed(&mut |bucket, sign| {
            for (o, &v) in out.iter_mut().zip(self.row(bucket)) {
                *o += sign * v;
            }
            n += 1;
        });
        if n == 0 {
            return;
        }
        let inv = 1.0 / n as f32;
        for o in out {
            *o *= inv;
        }
    }

    /// Backpropagate a pooled-output gradient to the participating rows with
    /// an immediate SGD update. The pooled output was a mean, so each row
    /// receives `sign * grad / n`.
    pub fn apply_pooled_grad(&mut self, features: &[(u32, f32)], grad: &[f32], lr: f32) {
        assert_eq!(grad.len(), self.dim);
        if features.is_empty() {
            return;
        }
        let inv = 1.0 / features.len() as f32;
        let mut row_grad = vec![0.0; self.dim];
        for &(bucket, sign) in features {
            for (rg, &g) in row_grad.iter_mut().zip(grad) {
                *rg = sign * g * inv;
            }
            let b = bucket as usize * self.dim;
            sgd_update(&mut self.rows[b..b + self.dim], &row_grad, lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_of_single_feature_is_signed_row() {
        let t = EmbeddingTable::new(8, 4, 0);
        let mut out = vec![0.0; 4];
        t.pool(&[(3, 1.0)], &mut out);
        assert_eq!(out, t.row(3));
        t.pool(&[(3, -1.0)], &mut out);
        let neg: Vec<f32> = t.row(3).iter().map(|v| -v).collect();
        assert_eq!(out, neg);
    }

    #[test]
    fn pool_is_mean() {
        let t = EmbeddingTable::new(8, 2, 1);
        let mut out = vec![0.0; 2];
        t.pool(&[(0, 1.0), (1, 1.0)], &mut out);
        let want: Vec<f32> =
            t.row(0).iter().zip(t.row(1)).map(|(a, b)| (a + b) / 2.0).collect();
        for (o, w) in out.iter().zip(&want) {
            assert!((o - w).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_features_zero_output() {
        let t = EmbeddingTable::new(4, 3, 2);
        let mut out = vec![9.0; 3];
        t.pool(&[], &mut out);
        assert_eq!(out, vec![0.0; 3]);
    }

    #[test]
    fn gradient_update_moves_pool_toward_target() {
        // Minimise ||pool - target||² by gradient steps on the rows.
        let mut t = EmbeddingTable::new(16, 4, 3);
        let feats = vec![(2u32, 1.0f32), (7, -1.0), (11, 1.0)];
        let target = [0.5, -0.25, 0.1, 0.9];
        let mut out = vec![0.0; 4];
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for it in 0..200 {
            t.pool(&feats, &mut out);
            let grad: Vec<f32> = out.iter().zip(&target).map(|(o, t)| 2.0 * (o - t)).collect();
            let loss: f32 = out.iter().zip(&target).map(|(o, t)| (o - t) * (o - t)).sum();
            if it == 0 {
                first_loss = loss;
            }
            last_loss = loss;
            t.apply_pooled_grad(&feats, &grad, 0.1);
        }
        assert!(last_loss < first_loss * 0.01, "{last_loss} vs {first_loss}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bucket_out_of_range_panics() {
        let t = EmbeddingTable::new(4, 2, 0);
        let _ = t.row(4);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = EmbeddingTable::new(8, 4, 9);
        let b = EmbeddingTable::new(8, 4, 9);
        assert_eq!(a.row(5), b.row(5));
    }
}
