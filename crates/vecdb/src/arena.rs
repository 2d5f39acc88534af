//! The row-major store of [`crate::HnswIndex`], whose graph walk reads one
//! row at a time: vectors in one contiguous `Vec<f32>` in insertion order,
//! each with its norm taken at insert.

use crate::metric::{Metric, Normed};

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
        }
        assert_eq!(vector.len(), self.dim, "vector dim {} != index dim {}", vector.len(), self.dim);
        self.data.extend_from_slice(vector);
        self.norms.push(Normed::new(vector).norm);
        self.len() - 1
    }

    pub(crate) fn clear(&mut self) {
        self.dim = 0;
        self.data.clear();
        self.norms.clear();
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        (self.data.capacity() + self.norms.capacity()) * std::mem::size_of::<f32>()
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
}
