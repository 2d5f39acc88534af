//! # sage-vecdb
//!
//! The vector-database substrate (the paper uses Faiss, §VII-A). Two index
//! types behind one [`VectorIndex`] trait:
//!
//! * [`FlatIndex`] — exact brute-force top-N search. The default for all
//!   accuracy experiments (the paper's corpora fit comfortably in RAM).
//! * [`HnswIndex`] — Hierarchical Navigable Small World approximate index,
//!   used at TriviaQA scale (Tables VIII/IX) and in the flat-vs-ANN
//!   micro-benchmarks.
//!
//! [`MutableIndex`] layers logical deletion (tombstones + deterministic
//! compaction) over a flat arena with an optional HNSW tier — the vector
//! side of `sage-core`'s live-corpus writer, which holds it in a private
//! field.
//!
//! Each stores rows the way its search reads them — the flat scan
//! dimension-major in blocks, so it walks only the query's non-zero
//! dimensions; the graph walk row-major, one row at a time — with a norm per
//! row taken at insert, and both sum in the one order of `metric::dot`, so a
//! (query, row) pair gets the same bits from each (`tests/oracle.rs`).
//! Both assign sequential internal ids in insertion
//! order, which is exactly the paper's "record of the mapping between the
//! index of each chunk in 𝕋 and its corresponding vector" (§III-A): insert
//! chunks in order and the internal id *is* the chunk index.
//!
//! [`flat::FlatIndex::to_bytes`] provides a compact persistence format.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

mod arena;
pub mod flat;
pub mod hnsw;
pub mod metric;
pub mod mutable;
pub mod shard;

pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use mutable::MutableIndex;
pub use metric::Metric;
pub use shard::{merge_hits, ShardRouter, ShardedFlat};

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

    /// Approximate resident memory in bytes (vectors + graph structures).
    /// Backs the memory columns of the scalability tables.
    fn memory_bytes(&self) -> usize;
}
