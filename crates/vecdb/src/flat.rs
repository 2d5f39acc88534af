//! Exact brute-force index: one scan of every stored row per query.
//!
//! Rows are kept *dimension-major in blocks of `BLOCK` rows*: a block is
//! `dim` runs of `BLOCK` floats, run `d` holding dimension `d` of each of
//! its rows. A scan walks only the dimensions where the query is not zero,
//! adding `q[d] * run[d]` into a running sum per row (a *plane*), so its
//! cost follows the query's non-zeros, not `dim` — a question embedded by
//! the hashed embedder has about 10 of 256. The row-major scan this
//! replaced was compute-bound (an L2-resident arena cost the same per row
//! as the 24 MB one), so the skipped terms are the time saved; a query with
//! every dimension set costs what it did. The planes combine in `dot`'s
//! own order (`metric::Plan`), so a (query, row) pair keeps the bits
//! [`crate::HnswIndex`] gives it from its row-major arena — HNSW keeps rows
//! because its graph walk reads one row at a time, which here is a gather
//! of `dim` strided floats. A bounded top-N takes a scored row only if it
//! beats the current worst. The default index for accuracy experiments; the
//! `micro` bench quantifies where [`crate::HnswIndex`] overtakes it.

use crate::metric::{Metric, Normed, Plan, MAX_PLANES};
use crate::{Hit, VectorIndex};
use sage_nn::io::{put_f32, put_u32, Reader};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Rows per block. Measured over 16,480 x 256 hashed rows (CHANGES.md,
/// PR 24): 16 scans 45 % slower; 256 scans no faster, adds 40 % slower, and
/// a 71-row per-document index would hold 256 KB instead of 128 KB.
const BLOCK: usize = 64;

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

/// Exact top-N index over finite rows of one dimensionality (fixed by the
/// first insert), each with its norm taken at insert.
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
    metric: Metric,
    dim: usize,
    /// Whole blocks of `dim * BLOCK` floats; the last one is zero past the
    /// final row.
    data: Vec<f32>,
    /// One per row: the row count.
    norms: Vec<f32>,
}

impl FlatIndex {
    /// Empty index with the given metric; the dimensionality is fixed by
    /// the first insert.
    pub fn new(metric: Metric) -> Self {
        Self { metric, dim: 0, data: Vec::new(), norms: Vec::new() }
    }

    /// Empty cosine index (the paper default).
    pub fn cosine() -> Self {
        Self::new(Metric::Cosine)
    }

    /// Floats in one block.
    fn stride(&self) -> usize {
        self.dim * BLOCK
    }

    /// A copy of the vector with internal id `id`: a gather of `dim`
    /// strided floats, some twenty times a contiguous read. Whoever wants
    /// every row wants [`FlatIndex::for_each_row`].
    pub fn vector(&self, id: usize) -> Option<Vec<f32>> {
        if id >= self.len() {
            return None;
        }
        let block = &self.data[id / BLOCK * self.stride()..][..self.stride()];
        Some(block.chunks_exact(BLOCK).map(|run| run[id % BLOCK]).collect())
    }

    /// Call `f` with every row in id order, each block transposed once into
    /// a row-major buffer.
    pub fn for_each_row(&self, mut f: impl FnMut(&[f32])) {
        if self.is_empty() {
            return;
        }
        let mut rows = vec![0.0; self.stride()];
        for (block, norms) in self.data.chunks_exact(self.stride()).zip(self.norms.chunks(BLOCK)) {
            for (d, run) in block.chunks_exact(BLOCK).enumerate() {
                for (row, &v) in rows.chunks_exact_mut(self.dim).zip(run) {
                    row[d] = v;
                }
            }
            rows.chunks_exact(self.dim).take(norms.len()).for_each(&mut f);
        }
    }

    /// Keep the rows `keep` admits, in order, moving them a run at a time,
    /// and return the old -> new id map (`None` for a dropped row). The
    /// result is the index a fresh one fed the survivors would be.
    pub(crate) fn retain(&mut self, keep: impl Fn(usize) -> bool) -> Vec<Option<usize>> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut kept = 0;
        let remap: Vec<Option<usize>> = (0..self.len())
            .map(|id| {
                keep(id).then(|| {
                    kept += 1;
                    kept - 1
                })
            })
            .collect();
        if kept == 0 {
            // Nothing left to fix the dimensionality, or to hold memory for.
            *self = Self::new(self.metric);
            return remap;
        }
        let stride = self.stride();
        let mut data = vec![0.0; kept.div_ceil(BLOCK) * stride];
        // Per block: where in its runs a survivor sits, and where its
        // dimension 0 goes.
        let mut moves = Vec::with_capacity(BLOCK);
        for (block, news) in self.data.chunks_exact(stride).zip(remap.chunks(BLOCK)) {
            moves.clear();
            moves.extend(news.iter().enumerate().filter_map(|(at, new)| {
                new.map(|new| (at, new / BLOCK * stride + new % BLOCK))
            }));
            for (d, run) in block.chunks_exact(BLOCK).enumerate() {
                for &(at, to) in &moves {
                    data[to + d * BLOCK] = run[at];
                }
            }
        }
        self.data = data;
        self.norms =
            self.norms.iter().zip(&remap).filter_map(|(&norm, new)| new.map(|_| norm)).collect();
        remap
    }

    /// Serialize to a compact binary blob (little-endian), rows in id
    /// order: `[metric u8][dim u32][count u32][f32 * dim * count]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(9 + self.len() * self.dim * 4);
        buf.push(match self.metric {
            Metric::Cosine => 0,
            Metric::Dot => 1,
            Metric::NegEuclidean => 2,
        });
        put_u32(&mut buf, self.dim as u32);
        put_u32(&mut buf, self.len() as u32);
        self.for_each_row(|row| row.iter().for_each(|&v| put_f32(&mut buf, v)));
        buf
    }

    /// Deserialize a blob produced by [`FlatIndex::to_bytes`]; the norms
    /// are taken again from the rows. Returns `None` on malformed input,
    /// which a value that is not finite is: the scan's skipped terms are
    /// zero only against finite rows.
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
            let row = r.f32s(dim)?;
            if !row.iter().all(|v| v.is_finite()) {
                return None;
            }
            index.add(row);
        }
        r.finish()?;
        Some(index)
    }

    /// Exact top-N among the rows `keep` admits ([`VectorIndex::search`]
    /// admits all; [`crate::MutableIndex`] leaves out tombstones), best
    /// first (score descending, ties by ascending id). Once `n` are held,
    /// the heap is touched only by a row that beats its worst.
    pub(crate) fn search_where(
        &self,
        query: &[f32],
        n: usize,
        keep: impl Fn(usize) -> bool,
    ) -> Vec<Hit> {
        if self.is_empty() || n == 0 {
            return Vec::new();
        }
        assert_eq!(query.len(), self.dim, "query dim mismatch");
        let query_norm = Normed::new(query).norm;
        let plan = Plan::new(self.metric, query);
        let mut planes = [[0.0f32; BLOCK]; MAX_PLANES];
        let mut scores = [0.0f32; BLOCK];
        let mut heap = BinaryHeap::with_capacity(n.min(self.len()));
        // The worst score held once `n` are: below it nothing enters.
        let mut floor = f32::NEG_INFINITY;
        let mut scored = 0;
        let blocks = self.data.chunks_exact(self.stride()).zip(self.norms.chunks(BLOCK));
        for (b, (block, norms)) in blocks.enumerate() {
            let (runs, _) = block.as_chunks::<BLOCK>();
            let sums = plan.sums(runs, &mut planes);
            self.metric.finish_run(sums, query_norm, norms, &mut scores);
            for (at, &score) in scores[..norms.len()].iter().enumerate() {
                let id = b * BLOCK + at;
                if !keep(id) {
                    continue;
                }
                scored += 1;
                // Strictly below in IEEE order is below in `total_cmp`'s;
                // a tie, a zero of either sign or a NaN takes the full test.
                if score < floor {
                    continue;
                }
                let hit = HeapHit(Hit { id, score });
                if heap.len() < n {
                    heap.push(hit);
                } else if let Some(mut worst) = heap.peek_mut() {
                    if hit < *worst {
                        *worst = hit;
                    }
                }
                if heap.len() == n {
                    floor = heap.peek().map_or(floor, |worst| worst.0.score);
                }
            }
        }
        sage_telemetry::metrics::VECDB_FLAT_SEARCHES.inc();
        sage_telemetry::metrics::VECDB_FLAT_DISTANCE_EVALS.add(scored);
        heap.into_sorted_vec().into_iter().map(|h| h.0).collect()
    }
}

impl VectorIndex for FlatIndex {
    fn add(&mut self, vector: Vec<f32>) -> usize {
        if self.dim == 0 {
            assert!(!vector.is_empty(), "cannot index empty vectors");
            self.dim = vector.len();
            // Rows reserved before the dimensionality was known.
            self.reserve(self.norms.capacity());
        }
        assert_eq!(vector.len(), self.dim, "vector dim {} != index dim {}", vector.len(), self.dim);
        debug_assert!(vector.iter().all(|v| v.is_finite()), "rows must be finite");
        let (id, stride) = (self.len(), self.stride());
        if id.is_multiple_of(BLOCK) {
            self.data.resize(self.data.len() + stride, 0.0);
        }
        let block = &mut self.data[id / BLOCK * stride..];
        for (run, &v) in block.chunks_exact_mut(BLOCK).zip(&vector) {
            run[id % BLOCK] = v;
        }
        self.norms.push(Normed::new(&vector).norm);
        id
    }

    fn reserve(&mut self, additional: usize) {
        self.norms.reserve(additional);
        let blocks = (self.len() + additional).div_ceil(BLOCK);
        self.data.reserve((blocks * self.stride()).saturating_sub(self.data.len()));
    }

    fn search(&self, query: &[f32], n: usize) -> Vec<Hit> {
        self.search_where(query, n, |_| true)
    }

    fn clear(&mut self) {
        self.dim = 0;
        self.data.clear();
        self.norms.clear();
    }

    fn len(&self) -> usize {
        self.norms.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn memory_bytes(&self) -> usize {
        (self.data.capacity() + self.norms.capacity()) * std::mem::size_of::<f32>()
            + std::mem::size_of::<Self>()
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
