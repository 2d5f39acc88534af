//! Similarity metrics. The paper's retrieval phase uses "the shortest
//! cosine distance" (§II-A); since every embedder in this workspace emits
//! unit-L2 vectors, cosine similarity equals the dot product, but the
//! metric is kept explicit so the index also works with unnormalised data.

/// Similarity metric for a vector index. All variants are oriented so that
/// **higher is more similar**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// Cosine similarity in `[-1, 1]`.
    #[default]
    Cosine,
    /// Raw inner product.
    Dot,
    /// Negated Euclidean distance (so higher is closer).
    NegEuclidean,
}

/// A vector with its Euclidean norm taken once: at insert for a stored
/// row, once per search for a query.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Normed<'a> {
    pub(crate) vector: &'a [f32],
    pub(crate) norm: f32,
}

impl<'a> Normed<'a> {
    pub(crate) fn new(vector: &'a [f32]) -> Self {
        Self { vector, norm: dot(vector, vector).sqrt() }
    }
}

impl Metric {
    /// Similarity between two equal-length vectors.
    pub fn similarity(self, a: &[f32], b: &[f32]) -> f32 {
        self.score(Normed::new(a), Normed::new(b))
    }

    /// [`Metric::similarity`] with both norms already known. Every index
    /// scores through here, so one (query, row) pair gets the same bits
    /// from all of them.
    #[inline]
    pub(crate) fn score(self, a: Normed<'_>, b: Normed<'_>) -> f32 {
        debug_assert_eq!(a.vector.len(), b.vector.len());
        match self {
            Metric::Dot => dot(a.vector, b.vector),
            Metric::Cosine => {
                if a.norm == 0.0 || b.norm == 0.0 {
                    0.0
                } else {
                    dot(a.vector, b.vector) / (a.norm * b.norm)
                }
            }
            Metric::NegEuclidean => {
                let mut s = 0.0;
                for (x, y) in a.vector.iter().zip(b.vector) {
                    let d = x - y;
                    s += d * d;
                }
                -s.sqrt()
            }
        }
    }
}

/// Independent partial sums in [`dot`]: wide enough that the compiler
/// keeps them in vector registers without a dependency chain between them.
const LANES: usize = 16;

/// Inner product, summed lane-wise: element `i` goes to partial sum
/// `i % LANES`, the sums are added pairwise, and the tail past the last
/// whole chunk is added last. This is the one summation order of the crate.
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let (a_chunks, b_chunks) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail: f32 = a_chunks.remainder().iter().zip(b_chunks.remainder()).map(|(x, y)| x * y).sum();
    let mut acc = [0.0f32; LANES];
    for (xs, ys) in a_chunks.zip(b_chunks) {
        for ((s, x), y) in acc.iter_mut().zip(xs).zip(ys) {
            *s += x * y;
        }
    }
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        let (lo, hi) = acc.split_at_mut(width);
        for (l, h) in lo.iter_mut().zip(hi.iter()) {
            *l += *h;
        }
    }
    let [total, ..] = acc;
    total + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_self_is_one() {
        let v = [0.6, 0.8];
        assert!((Metric::Cosine.similarity(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(Metric::Cosine.similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn dot_matches_cosine_for_unit_vectors() {
        let a = [0.6, 0.8];
        let b = [1.0, 0.0];
        assert!(
            (Metric::Dot.similarity(&a, &b) - Metric::Cosine.similarity(&a, &b)).abs() < 1e-6
        );
    }

    /// Every remainder of the lane width, against a wider accumulator.
    #[test]
    fn dot_matches_f64_reference_at_every_length() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD07);
        for len in 0..=300 {
            let a: Vec<f32> = (0..len).map(|_| rng.random_range(-2.0f32..2.0)).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.random_range(-2.0f32..2.0)).collect();
            let wide = |u: &[f32], v: &[f32]| -> f64 {
                u.iter().zip(v).map(|(x, y)| f64::from(*x) * f64::from(*y)).sum()
            };
            let bound = 1e-5 * (wide(&a, &a) * wide(&b, &b)).sqrt();
            let err = (f64::from(dot(&a, &b)) - wide(&a, &b)).abs();
            assert!(err <= bound, "len {len}: off by {err}, bound {bound}");
        }
    }

    #[test]
    fn euclidean_orientation() {
        let origin = [0.0, 0.0];
        let near = [1.0, 0.0];
        let far = [3.0, 4.0];
        let m = Metric::NegEuclidean;
        assert!(m.similarity(&origin, &near) > m.similarity(&origin, &far));
        assert_eq!(m.similarity(&origin, &far), -5.0);
    }
}
