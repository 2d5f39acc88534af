//! Thread-safe wrapper for concurrent query workloads.
//!
//! The scalability experiment (Tables VIII/IX) drives 5x/10x concurrent
//! question streams against one shared vector database. `SharedIndex` wraps
//! any [`VectorIndex`] in a `std::sync::RwLock`: searches take read locks
//! (fully concurrent), inserts take the write lock, and a query counter
//! exposes throughput to the harness.

use crate::{Hit, VectorIndex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A cloneable, thread-safe handle to a vector index.
pub struct SharedIndex<I> {
    inner: Arc<RwLock<I>>,
    queries: Arc<AtomicU64>,
}

impl<I> Clone for SharedIndex<I> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner), queries: Arc::clone(&self.queries) }
    }
}

impl<I: VectorIndex> SharedIndex<I> {
    /// Wrap an index.
    pub fn new(index: I) -> Self {
        Self { inner: Arc::new(RwLock::new(index)), queries: Arc::new(AtomicU64::new(0)) }
    }

    // A panicking holder does not poison the handle for every other
    // thread: the guard is recovered, and the index is used as it was left.
    fn read(&self) -> RwLockReadGuard<'_, I> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, I> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Insert a vector (exclusive lock).
    pub fn add(&self, vector: Vec<f32>) -> usize {
        self.write().add(vector)
    }

    /// Search (shared lock — concurrent readers run in parallel).
    pub fn search(&self, query: &[f32], n: usize) -> Vec<Hit> {
        // sage-lint: allow(relaxed-atomics-confined) - monotonic telemetry-style query counter; no other memory is published under it
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.read().search(query, n)
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total searches served since construction.
    pub fn query_count(&self) -> u64 {
        // sage-lint: allow(relaxed-atomics-confined) - reads the monotonic counter above; approximate totals are acceptable by contract
        self.queries.load(Ordering::Relaxed)
    }

    /// Approximate resident memory of the wrapped index.
    pub fn memory_bytes(&self) -> usize {
        self.read().memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;

    #[test]
    fn concurrent_searches_agree_with_serial() {
        let shared = SharedIndex::new(FlatIndex::cosine());
        for i in 0..64 {
            let theta = i as f32 * 0.1;
            shared.add(vec![theta.cos(), theta.sin()]);
        }
        let expected = shared.search(&[1.0, 0.0], 5);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = shared.clone();
                std::thread::spawn(move || s.search(&[1.0, 0.0], 5))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
        // 1 serial + 8 threads
        assert_eq!(shared.query_count(), 9);
    }

    #[test]
    fn add_while_searching_is_safe() {
        let shared = SharedIndex::new(FlatIndex::cosine());
        shared.add(vec![1.0, 0.0]);
        let writer = {
            let s = shared.clone();
            std::thread::spawn(move || {
                for i in 0..100 {
                    let theta = i as f32 * 0.05;
                    s.add(vec![theta.cos(), theta.sin()]);
                }
            })
        };
        for _ in 0..100 {
            let hits = shared.search(&[0.0, 1.0], 3);
            assert!(!hits.is_empty());
        }
        writer.join().unwrap();
        assert_eq!(shared.len(), 101);
    }
}
