//! The row store and scan shared by every index: vectors in one contiguous
//! `Vec<f32>` in insertion order, each with its norm taken at insert, and a
//! bounded top-N that a scored row enters only by beating the current worst.

use crate::metric::{Metric, Normed};
use crate::Hit;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry whose maximum is the *worst* hit: lowest score
/// (`total_cmp`, so NaN-safe), then highest id.
#[derive(PartialEq)]
struct HeapHit(Hit);

impl Eq for HeapHit {}

impl PartialOrd for HeapHit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapHit {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.score.total_cmp(&self.0.score).then_with(|| self.0.id.cmp(&other.0.id))
    }
}

/// Rows of one dimensionality (fixed by the first insert) under one metric.
#[derive(Debug, Clone)]
pub(crate) struct Arena {
    metric: Metric,
    dim: usize,
    data: Vec<f32>,
    norms: Vec<f32>,
}

impl Arena {
    pub(crate) fn new(metric: Metric) -> Self {
        Self { metric, dim: 0, data: Vec::new(), norms: Vec::new() }
    }

    pub(crate) fn metric(&self) -> Metric {
        self.metric
    }

    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    pub(crate) fn len(&self) -> usize {
        self.norms.len()
    }

    /// Append a row, returning its id. Panics on an empty vector or one of
    /// another dimensionality than earlier rows.
    pub(crate) fn push(&mut self, vector: &[f32]) -> usize {
        if self.dim == 0 {
            assert!(!vector.is_empty(), "cannot index empty vectors");
            self.dim = vector.len();
            // Rows reserved before the dimensionality was known.
            self.data.reserve(self.norms.capacity() * self.dim);
        }
        assert_eq!(vector.len(), self.dim, "vector dim {} != index dim {}", vector.len(), self.dim);
        self.data.extend_from_slice(vector);
        self.norms.push(Normed::new(vector).norm);
        self.len() - 1
    }

    /// Make room for `additional` rows in one allocation.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.norms.reserve(additional);
        self.data.reserve(additional * self.dim);
    }

    pub(crate) fn clear(&mut self) {
        self.dim = 0;
        self.data.clear();
        self.norms.clear();
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        (self.data.capacity() + self.norms.capacity()) * std::mem::size_of::<f32>()
    }

    /// Every row in id order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = Normed<'_>> {
        (0..self.len()).filter_map(|id| self.row(id))
    }

    pub(crate) fn row(&self, id: usize) -> Option<Normed<'_>> {
        let norm = *self.norms.get(id)?;
        let vector = self.data.get(id * self.dim..(id + 1) * self.dim)?;
        Some(Normed { vector, norm })
    }

    /// A query checked against the arena's dimensionality, its norm taken once.
    pub(crate) fn query<'a>(&self, query: &'a [f32]) -> Normed<'a> {
        assert_eq!(query.len(), self.dim, "query dim mismatch");
        Normed::new(query)
    }

    /// Similarity of `query` to row `id`; an id outside the arena is
    /// farther than any row.
    #[inline]
    pub(crate) fn score(&self, query: Normed<'_>, id: usize) -> f32 {
        self.row(id).map_or(f32::NEG_INFINITY, |row| self.metric.score(query, row))
    }

    /// The `n` best of rows `ids`, best first (score descending, ties by
    /// ascending id), and how many rows were scored. Once `n` are held, the
    /// heap is touched only by a row that beats its worst.
    pub(crate) fn top_n(
        &self,
        query: &[f32],
        n: usize,
        ids: impl Iterator<Item = usize>,
    ) -> (Vec<Hit>, u64) {
        let query = self.query(query);
        let mut heap = BinaryHeap::with_capacity(n.min(self.len()));
        let mut scored = 0;
        for id in ids {
            let hit = HeapHit(Hit { id, score: self.score(query, id) });
            scored += 1;
            if heap.len() < n {
                heap.push(hit);
            } else if let Some(mut worst) = heap.peek_mut() {
                if hit < *worst {
                    *worst = hit;
                }
            }
        }
        (heap.into_sorted_vec().into_iter().map(|h| h.0).collect(), scored)
    }
}
