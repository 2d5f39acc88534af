//! Exact brute-force index: one scan of the crate's row arena per query.
//!
//! One dot product and one divide per row, and a bounded top-N that a row
//! enters only by beating the current worst. A per-document index
//! (thousands of chunks) scans in microseconds; the corpus-wide benchmark
//! index (23k rows x 256-d, 24 MB) takes milliseconds and is bound by
//! memory bandwidth. The default index for accuracy experiments; the
//! `micro` bench quantifies where [`crate::HnswIndex`] overtakes it.

use crate::arena::Arena;
use crate::metric::Metric;
use crate::{Hit, VectorIndex};
use sage_nn::io::{put_f32, put_u32, Reader};

/// Exact top-N index backed by one contiguous `Vec<f32>` arena.
///
/// ```
/// use sage_vecdb::{FlatIndex, VectorIndex};
///
/// let mut index = FlatIndex::cosine();
/// index.add(vec![1.0, 0.0]);
/// index.add(vec![0.0, 1.0]);
/// let hits = index.search(&[0.9, 0.1], 1);
/// assert_eq!(hits[0].id, 0);
/// ```
#[derive(Debug, Clone)]
pub struct FlatIndex {
    arena: Arena,
}

impl FlatIndex {
    /// Empty index with the given metric; the dimensionality is fixed by
    /// the first insert.
    pub fn new(metric: Metric) -> Self {
        Self { arena: Arena::new(metric) }
    }

    /// Empty cosine index (the paper default).
    pub fn cosine() -> Self {
        Self::new(Metric::Cosine)
    }

    /// Borrow the vector with internal id `id`.
    pub fn vector(&self, id: usize) -> Option<&[f32]> {
        self.arena.row(id).map(|row| row.vector)
    }

    /// Serialize to a compact binary blob (little-endian):
    /// `[metric u8][dim u32][count u32][f32 * dim * count]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(9 + self.len() * self.dim() * 4);
        buf.push(match self.arena.metric() {
            Metric::Cosine => 0,
            Metric::Dot => 1,
            Metric::NegEuclidean => 2,
        });
        put_u32(&mut buf, self.dim() as u32);
        put_u32(&mut buf, self.len() as u32);
        for &v in self.arena.rows().flat_map(|row| row.vector) {
            put_f32(&mut buf, v);
        }
        buf
    }

    /// Deserialize a blob produced by [`FlatIndex::to_bytes`]; the norms
    /// are taken again from the rows. Returns `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let metric = match r.u8()? {
            0 => Metric::Cosine,
            1 => Metric::Dot,
            2 => Metric::NegEuclidean,
            _ => return None,
        };
        let dim = r.u32()? as usize;
        let count = r.count(dim.checked_mul(4)?)?;
        if dim == 0 && count > 0 {
            return None;
        }
        let mut index = Self::new(metric);
        index.reserve(count);
        for _ in 0..count {
            index.arena.push(&r.f32s(dim)?);
        }
        r.finish()?;
        Some(index)
    }

    /// Exact top-N among the rows `keep` admits ([`VectorIndex::search`]
    /// admits all; [`crate::MutableIndex`] leaves out tombstones).
    pub(crate) fn search_where(
        &self,
        query: &[f32],
        n: usize,
        keep: impl Fn(&usize) -> bool,
    ) -> Vec<Hit> {
        if self.is_empty() || n == 0 {
            return Vec::new();
        }
        let (hits, scored) = self.arena.top_n(query, n, (0..self.len()).filter(keep));
        sage_telemetry::metrics::VECDB_FLAT_SEARCHES.inc();
        sage_telemetry::metrics::VECDB_FLAT_DISTANCE_EVALS.add(scored);
        hits
    }
}

impl VectorIndex for FlatIndex {
    fn add(&mut self, vector: Vec<f32>) -> usize {
        self.arena.push(&vector)
    }

    fn reserve(&mut self, additional: usize) {
        self.arena.reserve(additional);
    }

    fn search(&self, query: &[f32], n: usize) -> Vec<Hit> {
        self.search_where(query, n, |_| true)
    }

    fn clear(&mut self) {
        self.arena.clear();
    }

    fn len(&self) -> usize {
        self.arena.len()
    }

    fn dim(&self) -> usize {
        self.arena.dim()
    }

    fn memory_bytes(&self) -> usize {
        self.arena.memory_bytes() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(theta: f32) -> Vec<f32> {
        vec![theta.cos(), theta.sin()]
    }

    #[test]
    fn exact_nearest_neighbour() {
        let mut idx = FlatIndex::cosine();
        for i in 0..10 {
            idx.add(unit(i as f32 * 0.3));
        }
        let hits = idx.search(&unit(0.95), 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, 3); // 0.9 is the closest angle to 0.95
        assert!(hits[0].score >= hits[1].score && hits[1].score >= hits[2].score);
    }

    #[test]
    fn ids_are_sequential() {
        let mut idx = FlatIndex::cosine();
        assert_eq!(idx.add(vec![1.0, 0.0]), 0);
        assert_eq!(idx.add(vec![0.0, 1.0]), 1);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn n_larger_than_len() {
        let mut idx = FlatIndex::cosine();
        idx.add(vec![1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 10);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn empty_index_or_zero_n() {
        let idx = FlatIndex::cosine();
        assert!(idx.search(&[1.0], 5).is_empty());
        let mut idx2 = FlatIndex::cosine();
        idx2.add(vec![1.0]);
        assert!(idx2.search(&[1.0], 0).is_empty());
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let mut idx = FlatIndex::cosine();
        idx.add(vec![1.0, 0.0]);
        idx.add(vec![1.0, 0.0]); // identical vector
        let hits = idx.search(&[1.0, 0.0], 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 1);
    }

    #[test]
    fn roundtrip_bytes() {
        let mut idx = FlatIndex::new(Metric::Dot);
        idx.add(vec![1.0, 2.0, 3.0]);
        idx.add(vec![-1.0, 0.5, 0.25]);
        let blob = idx.to_bytes();
        let back = FlatIndex::from_bytes(&blob).expect("roundtrip");
        assert_eq!(back.len(), 2);
        assert_eq!(back.dim(), 3);
        assert_eq!(back.vector(1), idx.vector(1));
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(FlatIndex::from_bytes(b"xx").is_none());
        assert!(FlatIndex::from_bytes(b"\x09\x01\x00\x00\x00\x01\x00\x00\x00").is_none());
        // dim 0 with a row count: no payload to miss, but no rows either.
        assert!(FlatIndex::from_bytes(b"\x00\x00\x00\x00\x00\x05\x00\x00\x00").is_none());
    }

    #[test]
    fn search_is_identical_after_a_bytes_roundtrip() {
        for metric in [Metric::Cosine, Metric::Dot, Metric::NegEuclidean] {
            let mut idx = FlatIndex::new(metric);
            for i in 0..40 {
                idx.add((0..19).map(|j| ((i * 19 + j) as f32 * 0.37).sin()).collect());
            }
            let back = FlatIndex::from_bytes(&idx.to_bytes()).expect("roundtrip");
            for q in 0..5 {
                let query: Vec<f32> = (0..19).map(|j| ((q * 7 + j) as f32 * 0.91).cos()).collect();
                assert_eq!(back.search(&query, 7), idx.search(&query, 7), "{metric:?}");
            }
        }
    }

    #[test]
    fn memory_reported() {
        let mut idx = FlatIndex::cosine();
        for _ in 0..100 {
            idx.add(vec![0.0; 64]);
        }
        assert!(idx.memory_bytes() >= 100 * (64 + 1) * 4, "rows and their norms");
    }

    #[test]
    fn reserve_before_the_first_add_allocates_once() {
        let mut idx = FlatIndex::cosine();
        idx.reserve(100);
        idx.add(vec![0.5; 64]);
        let reserved = idx.memory_bytes();
        for _ in 1..100 {
            idx.add(vec![0.5; 64]);
        }
        assert_eq!(idx.memory_bytes(), reserved);
    }

    #[test]
    #[should_panic(expected = "vector dim")]
    fn dim_mismatch_panics() {
        let mut idx = FlatIndex::cosine();
        idx.add(vec![1.0, 0.0]);
        idx.add(vec![1.0]);
    }
}
