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
    /// scores through here or through a [`Plan`] and [`Metric::finish`], so
    /// one (query, row) pair gets the same bits from all of them.
    #[inline]
    pub(crate) fn score(self, a: Normed<'_>, b: Normed<'_>) -> f32 {
        debug_assert_eq!(a.vector.len(), b.vector.len());
        let sum = match self {
            Metric::Cosine | Metric::Dot => dot(a.vector, b.vector),
            Metric::NegEuclidean => {
                let mut s = 0.0;
                for (x, y) in a.vector.iter().zip(b.vector) {
                    s += squared_gap(*x, *y);
                }
                s
            }
        };
        self.finish(sum, a.norm, b.norm)
    }

    /// The score from a pair's summed terms and its two norms.
    #[inline]
    pub(crate) fn finish(self, sum: f32, a_norm: f32, b_norm: f32) -> f32 {
        match self {
            Metric::Dot => sum,
            Metric::Cosine => {
                if a_norm == 0.0 || b_norm == 0.0 {
                    0.0
                } else {
                    sum / (a_norm * b_norm)
                }
            }
            Metric::NegEuclidean => -sum.sqrt(),
        }
    }

    /// [`Metric::finish`] for a run of rows against one `a`. The metric is
    /// a constant inside each loop, so each is one straight-line body the
    /// compiler can vectorise.
    pub(crate) fn finish_run(self, sums: &[f32], a_norm: f32, b_norms: &[f32], out: &mut [f32]) {
        let mut run = |metric: Metric| {
            for ((score, &sum), &b_norm) in out.iter_mut().zip(sums).zip(b_norms) {
                *score = metric.finish(sum, a_norm, b_norm);
            }
        };
        match self {
            Metric::Cosine => run(Metric::Cosine),
            Metric::Dot => run(Metric::Dot),
            Metric::NegEuclidean => run(Metric::NegEuclidean),
        }
    }
}

/// One dimension's term of [`Metric::NegEuclidean`]'s sum.
#[inline]
fn squared_gap(x: f32, y: f32) -> f32 {
    let d = x - y;
    d * d
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

/// A query's side of a scan that scores many rows at once: which of its
/// entries contribute a term, and in what order the partial sums combine.
///
/// Every partial sum is a *plane* (one running sum per row of the block
/// being scored). For cosine and dot the order is [`dot`]'s, restricted to
/// the query's non-zero entries: entry `i` still goes to lane `i % LANES`
/// (the tail to a plane of its own) in ascending `i`, and the lanes still
/// meet in `dot`'s pairwise tree. A skipped term is `0.0 * x`, an exact
/// `±0.0` for a finite `x`; a lane sum or tree node starts at `+0.0` and so
/// is never `-0.0`; and `s + ±0.0 == s` bit for bit for every such `s`. So
/// dropping those terms, and every addition whose operand holds none,
/// leaves each row the bits `dot` gives it. It needs finite rows — what
/// [`crate::FlatIndex`] stores.
pub(crate) struct Plan {
    /// Whether a term is [`squared_gap`] rather than a product.
    euclidean: bool,
    /// `(dimension, plane, query value)` per contributing entry,
    /// dimensions ascending.
    terms: Vec<(usize, usize, f32)>,
    /// Plane additions `(into, from)`, in order, after the terms.
    adds: Vec<(usize, usize)>,
    /// Planes in use: `0..planes`, each starting from zero.
    planes: usize,
    /// The plane that ends up holding each row's sum.
    total: usize,
}

/// The most planes a [`Plan`] uses: one per lane and one for the tail.
pub(crate) const MAX_PLANES: usize = LANES + 1;

impl Plan {
    pub(crate) fn new(metric: Metric, query: &[f32]) -> Self {
        if metric == Metric::NegEuclidean {
            // A gap to a zero entry is not zero: every dimension, one
            // running sum, in `Metric::score`'s order.
            let terms = query.iter().enumerate().map(|(i, &q)| (i, 0, q)).collect();
            return Self { euclidean: true, terms, adds: Vec::new(), planes: 1, total: 0 };
        }
        let body = query.len() / LANES * LANES;
        // The plane of each lane (the tail's last), `None` while it is empty.
        let mut plane_of = [None; MAX_PLANES];
        let mut planes = 0;
        let mut terms = Vec::new();
        for (i, &q) in query.iter().enumerate() {
            // `-0.0 == 0.0`: either zero is skipped.
            if q == 0.0 {
                continue;
            }
            let lane = if i < body { i % LANES } else { LANES };
            let plane = *plane_of[lane].get_or_insert_with(|| {
                planes += 1;
                planes - 1
            });
            terms.push((i, plane, q));
        }
        let mut adds = Vec::new();
        let mut meet = |lo: Option<usize>, hi: Option<usize>| match (lo, hi) {
            (Some(lo), Some(hi)) => {
                adds.push((lo, hi));
                Some(lo)
            }
            _ => lo.or(hi),
        };
        let mut width = LANES;
        while width > 1 {
            width /= 2;
            for lane in 0..width {
                plane_of[lane] = meet(plane_of[lane], plane_of[lane + width]);
            }
        }
        // An all-zero query sums to zero on every row: one untouched plane.
        let total = meet(plane_of[0], plane_of[LANES]).unwrap_or(0);
        Self { euclidean: false, terms, adds, planes: planes.max(1), total }
    }

    /// Each row's summed terms for one block of `N` rows stored
    /// dimension-major (`runs[d][r]` is dimension `d` of row `r`), using
    /// `planes` as scratch.
    pub(crate) fn sums<'p, const N: usize>(
        &self,
        runs: &[[f32; N]],
        planes: &'p mut [[f32; N]; MAX_PLANES],
    ) -> &'p [f32; N] {
        planes[..self.planes].fill([0.0; N]);
        for &(d, plane, q) in &self.terms {
            let sums = planes[plane].iter_mut().zip(&runs[d]);
            if self.euclidean {
                sums.for_each(|(s, &x)| *s += squared_gap(q, x));
            } else {
                sums.for_each(|(s, &x)| *s += q * x);
            }
        }
        for &(into, from) in &self.adds {
            let from = planes[from];
            planes[into].iter_mut().zip(&from).for_each(|(s, x)| *s += x);
        }
        &planes[self.total]
    }
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
