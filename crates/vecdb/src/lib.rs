//! # sage-vecdb
//!
//! The vector-database substrate. The paper uses Faiss for exact top-N
//! cosine search (§II-A, §III-A); this crate gives the same, from scratch,
//! behind one [`VectorIndex`] trait:
//!
//! * [`FlatIndex`] — exact brute-force top-N search, rows stored
//!   column-major (one run per dimension over every row) so a scan streams
//!   only the query's non-zero dimensions, with a norm per row taken at
//!   insert.
//! * [`MutableIndex`] — logical deletion (tombstones + deterministic
//!   compaction) over a flat index: the vector side of `sage-core`'s
//!   live-corpus writer, which holds it in a private field.
//!
//! Both score a (query, row) pair with the bits [`Metric::similarity`]
//! gives it (`tests/oracle.rs`), and both assign sequential internal ids
//! in insertion order, which is exactly the paper's "record of the mapping
//! between the index of each chunk in 𝕋 and its corresponding vector"
//! (§III-A): insert chunks in order and the internal id *is* the chunk
//! index.
//!
//! [`flat::FlatIndex::to_bytes`] provides a compact persistence format.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod flat;
pub mod metric;
pub mod mutable;

pub use flat::{ColumnMoves, FlatIndex, RowsMut, BLOCK};
pub use mutable::MutableIndex;
pub use metric::Metric;

/// A search hit: internal vector id plus similarity score (higher = closer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Internal id (== insertion order == chunk index).
    pub id: usize,
    /// Similarity under the index metric; higher is more similar.
    pub score: f32,
}

/// Top-N nearest-neighbour index over `f32` vectors.
pub trait VectorIndex: Send + Sync {
    /// Insert a vector, returning its internal id (sequential).
    ///
    /// Panics if the vector dimensionality differs from earlier inserts.
    fn add(&mut self, vector: Vec<f32>) -> usize;

    /// Hint that `additional` more vectors are coming, so an index that
    /// stores rows contiguously can allocate for them once.
    fn reserve(&mut self, _additional: usize) {}

    /// Remove all vectors, keeping configuration (metric, parameters).
    fn clear(&mut self);

    /// Return up to `n` most similar vectors, most similar first.
    fn search(&self, query: &[f32], n: usize) -> Vec<Hit>;

    /// Number of stored vectors.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality (0 when empty and not yet fixed).
    fn dim(&self) -> usize;

    /// Approximate resident memory in bytes.
    /// Backs the memory columns of the scalability tables.
    fn memory_bytes(&self) -> usize;
}
