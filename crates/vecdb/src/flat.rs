//! Exact brute-force index: one scan of every stored row per query.
//!
//! Rows are kept *column-major*: `dim` columns of `cap` floats, column `d`
//! holding dimension `d` of every row in id order, where the capacity
//! `cap` is a multiple of [`BLOCK`]. A scan scores `BLOCK` rows at a time
//! (a *tile*) and walks only the dimensions where the query is not zero,
//! adding `q[d] * run` into a running sum per row (a *plane*), `run` being
//! the tile's stretch of column `d`. Its cost follows the query's non-zeros,
//! not `dim` — a question embedded by the hashed embedder sets about 16 of
//! 256 — and it reads each of those columns front to back, one stream per
//! non-zero. A query with every dimension set streams all `dim` columns at
//! once, which costs somewhat more than the 64-row blocks this layout
//! replaced (EXPERIMENTS.md). The planes combine in `dot`'s own order
//! (`metric::Plan`), so a (query, row) pair keeps the bits
//! [`Metric::similarity`] gives it. A bounded top-N takes a scored row only
//! if it beats the current worst. The paper's retrieval needs exact top-N
//! only, so this is the one index every retriever serves from.

use crate::metric::{norm, Metric, Plan, MAX_PLANES};
use crate::{Hit, VectorIndex};
use sage_nn::io::{put_f32, put_u32, Reader};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Rows a scan scores at a time (a tile), and the step a column's capacity
/// is counted in: a column holds whole tiles, zero past the final row. A
/// range of rows that starts at a multiple of it fills whole tiles
/// ([`FlatIndex::rows_mut`]).
pub const BLOCK: usize = 64;

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
    /// Rows each column has room for: a multiple of [`BLOCK`], at least the
    /// row count.
    cap: usize,
    /// `dim` columns of `cap` floats, each zero past the final row.
    data: Vec<f32>,
    /// One per row: the row count.
    norms: Vec<f32>,
}

impl FlatIndex {
    /// Empty index with the given metric; the dimensionality is fixed by
    /// the first insert.
    pub fn new(metric: Metric) -> Self {
        Self { metric, dim: 0, cap: 0, data: Vec::new(), norms: Vec::new() }
    }

    /// Empty cosine index (the paper default).
    pub fn cosine() -> Self {
        Self::new(Metric::Cosine)
    }

    /// `len` all-zero rows of `dim` (the empty index when `len` is 0), to
    /// be written in place through [`rows_mut`](Self::rows_mut).
    pub fn zeroed(metric: Metric, dim: usize, len: usize) -> Self {
        if len == 0 {
            return Self::new(metric);
        }
        assert!(dim > 0, "cannot index empty vectors");
        let cap = len.next_multiple_of(BLOCK);
        Self { metric, dim, cap, data: vec![0.0; dim * cap], norms: vec![0.0; len] }
    }

    /// `len` rows of `dim` written by `write` as [`RowsMut::fill`] writes
    /// them: [`zeroed`](Self::zeroed), then one range over every row.
    pub fn filled(
        metric: Metric,
        dim: usize,
        len: usize,
        mut write: impl FnMut(usize, &mut [f32]),
    ) -> Self {
        let mut index = Self::zeroed(metric, dim, len);
        let every_row = 0..len;
        let writers = index.rows_mut(std::slice::from_ref(&every_row));
        writers.into_iter().for_each(|rows| rows.fill(&mut write));
        index
    }

    /// The metric the index scores with.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// One writer per range of `ranges` — consecutive, from 0 to
    /// [`len`](VectorIndex::len), each starting at a multiple of [`BLOCK`] —
    /// owning that range's stretch of every column and its norms, so ranges
    /// can be written on separate threads.
    pub fn rows_mut(&mut self, ranges: &[Range<usize>]) -> Vec<RowsMut<'_>> {
        let mut next = 0;
        for range in ranges {
            assert!(range.start == next && range.start.is_multiple_of(BLOCK), "{range:?}");
            next = range.end;
        }
        assert_eq!(next, self.len(), "the ranges cover every row");
        let (dim, cap) = (self.dim, self.cap);
        let mut norms = self.norms.as_mut_slice();
        let mut writers: Vec<RowsMut<'_>> = ranges
            .iter()
            .map(|range| {
                let (own, rest) = std::mem::take(&mut norms).split_at_mut(range.len());
                norms = rest;
                RowsMut { first: range.start, dim, columns: Vec::with_capacity(dim), norms: own }
            })
            .collect();
        let mut data = self.data.as_mut_slice();
        for _ in 0..dim {
            let (mut column, rest) = std::mem::take(&mut data).split_at_mut(cap);
            data = rest;
            for writer in &mut writers {
                let (own, rest) = std::mem::take(&mut column).split_at_mut(writer.norms.len());
                column = rest;
                writer.columns.push(own);
            }
        }
        writers
    }

    /// A copy of the vector with internal id `id`: a gather of one float
    /// from each column, `cap` floats apart. Whoever wants every row wants
    /// [`FlatIndex::for_each_row`].
    pub fn vector(&self, id: usize) -> Option<Vec<f32>> {
        if id >= self.len() {
            return None;
        }
        Some(self.columns().map(|column| column[id]).collect())
    }

    /// Call `f` with every row in id order, each tile gathered from the
    /// columns into one row-major buffer.
    pub fn for_each_row(&self, mut f: impl FnMut(&[f32])) {
        if self.is_empty() {
            return;
        }
        let mut rows = vec![0.0; BLOCK * self.dim];
        for (t, norms) in self.norms.chunks(BLOCK).enumerate() {
            for (d, column) in self.columns().enumerate() {
                for (row, &v) in rows.chunks_exact_mut(self.dim).zip(&column[t * BLOCK..]) {
                    row[d] = v;
                }
            }
            rows.chunks_exact(self.dim).take(norms.len()).for_each(&mut f);
        }
    }

    /// The columns, each `cap` floats (once a row has room: `cap > 0`).
    fn columns(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cap)
    }

    /// Keep the rows `keep` admits, in order, and return the old -> new id
    /// map (`None` for a dropped row). In place: each survivor moves down
    /// its columns, the rows freed at the end are zeroed, and the capacity
    /// stays for the rows that come next. Rows, norms and every score are
    /// those of a fresh index fed the survivors.
    ///
    /// The columns are handed to `run` cut into at most `parts` ranges of
    /// whole columns ([`ColumnMoves`]), each independent of the others, so
    /// the caller may run them on separate threads; `run` must
    /// [`run`](ColumnMoves::run) every one.
    pub(crate) fn retain(
        &mut self,
        keep: impl Fn(usize) -> bool,
        parts: usize,
        run: impl FnOnce(Vec<ColumnMoves<'_>>),
    ) -> Vec<Option<usize>> {
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
        // Rows before the first dropped one stay where they are; each later
        // survivor moves down to the next free row, which it never passes.
        let settled = remap.iter().position(Option::is_none).unwrap_or(kept);
        let moves: Vec<usize> =
            (settled..remap.len()).filter(|&old| remap[old].is_some()).collect();
        let (len, cap) = (self.len(), self.cap);
        let per_part = self.dim.div_ceil(parts.clamp(1, self.dim));
        let parts = self
            .data
            .chunks_mut(per_part * cap)
            .map(|columns| ColumnMoves { columns, cap, settled, kept, len, moves: &moves })
            .collect();
        run(parts);
        for (new, &old) in (settled..).zip(&moves) {
            self.norms[new] = self.norms[old];
        }
        self.norms.truncate(kept);
        remap
    }

    /// Append every row of `rows` after this index's own, in one pass: the
    /// columns grow to the capacity the same rows [`add`](VectorIndex::add)ed
    /// one by one would leave, each column takes `rows`' run in one copy,
    /// and each norm is `rows`' own. Rows, norms, every score and
    /// [`memory_bytes`](VectorIndex::memory_bytes) are those of the `add`
    /// loop.
    pub(crate) fn append(&mut self, rows: &FlatIndex) {
        if rows.is_empty() {
            return;
        }
        if self.dim == 0 {
            self.dim = rows.dim;
            // Rows reserved before the dimensionality was known.
            self.reserve(self.norms.capacity());
        }
        assert_eq!(rows.dim, self.dim, "rows dim {} != index dim {}", rows.dim, self.dim);
        let (len, n) = (self.len(), rows.len());
        let mut cap = self.cap;
        while cap < len + n {
            cap = (2 * cap).max(BLOCK);
        }
        if cap > self.cap {
            self.grow(cap);
        }
        for (to, from) in self.data.chunks_exact_mut(cap).zip(rows.columns()) {
            to[len..len + n].copy_from_slice(&from[..n]);
        }
        // One push per row, so the norms keep the capacity `add` leaves.
        for &norm_of_row in &rows.norms {
            self.norms.push(norm_of_row);
        }
    }

    /// The norm of every row, in id order, taken when the row went in.
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Move every column into room for `cap` rows: the one copy a growing
    /// index makes, inside the grown block itself, so the allocator may
    /// extend the block where it lies and the old and the new columns are
    /// never held apart at once.
    fn grow(&mut self, cap: usize) {
        let (len, old) = (self.len(), self.cap);
        self.data.reserve_exact(self.dim * cap - self.data.len());
        self.data.resize(self.dim * cap, 0.0);
        // Room a `clear` kept is more than the columns ask for.
        self.data.shrink_to_fit();
        // From the last column down, each moves up to its new start, which
        // is past every column still to move; what the old layout left in
        // the room after its rows is zeroed.
        for d in (0..self.dim).rev() {
            self.data.copy_within(d * old..d * old + len, d * cap);
            self.data[d * cap + len..(d + 1) * cap].fill(0.0);
        }
        self.cap = cap;
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
    /// are taken again from the rows, which fill whole tiles. Returns `None`
    /// on malformed input, which a value that is not finite is: the scan's
    /// skipped terms are zero only against finite rows.
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
        let (values, _) = r.take(count * dim * 4)?.as_chunks::<4>();
        r.finish()?;
        if !values.iter().all(|v| f32::from_le_bytes(*v).is_finite()) {
            return None;
        }
        Some(Self::filled(metric, dim, count, |id, row| {
            for (v, bytes) in row.iter_mut().zip(&values[id * dim..]) {
                *v = f32::from_le_bytes(*bytes);
            }
        }))
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
        let query_norm = norm(query);
        let plan = Plan::new(self.metric, query);
        let mut planes = [[0.0f32; BLOCK]; MAX_PLANES];
        let mut scores = [0.0f32; BLOCK];
        let mut heap = BinaryHeap::with_capacity(n.min(self.len()));
        // The worst score held once `n` are: below it nothing enters.
        let mut floor = f32::NEG_INFINITY;
        let mut scored = 0;
        for (t, norms) in self.norms.chunks(BLOCK).enumerate() {
            let sums = plan.sums(&self.data, self.cap, t * BLOCK, &mut planes);
            self.metric.finish_run(sums, query_norm, norms, &mut scores);
            for (at, &score) in scores[..norms.len()].iter().enumerate() {
                let id = t * BLOCK + at;
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

/// The rows of one range of a [`FlatIndex`] made by [`FlatIndex::zeroed`]:
/// its stretch of every column and its norms, borrowed apart from every
/// other range's.
#[derive(Debug)]
pub struct RowsMut<'a> {
    first: usize,
    dim: usize,
    /// Per dimension, the range's rows of that column.
    columns: Vec<&'a mut [f32]>,
    norms: &'a mut [f32],
}

impl RowsMut<'_> {
    /// Write the range's rows in id order: `write(id, row)` fills `row`
    /// (`dim` floats, holding an earlier row's values) with row `id`, which
    /// is stored with its norm exactly as [`VectorIndex::add`] stores it.
    /// A tile of rows is gathered row-major, then each column takes its
    /// stretch of the tile in one run.
    pub fn fill(mut self, mut write: impl FnMut(usize, &mut [f32])) {
        let dim = self.dim;
        let mut tile = vec![0.0; BLOCK * dim];
        for (t, norms) in self.norms.chunks_mut(BLOCK).enumerate() {
            let rows = &mut tile[..norms.len() * dim];
            for (at, (row, norm_of_row)) in rows.chunks_exact_mut(dim).zip(norms).enumerate() {
                write(self.first + t * BLOCK + at, row);
                debug_assert!(row.iter().all(|v| v.is_finite()), "rows must be finite");
                *norm_of_row = norm(row);
            }
            for (d, column) in self.columns.iter_mut().enumerate() {
                for (v, row) in column[t * BLOCK..].iter_mut().zip(rows.chunks_exact(dim)) {
                    *v = row[d];
                }
            }
        }
    }
}

/// One range of whole columns of a [`FlatIndex`] that a compaction closes
/// up (see [`MutableIndex::compact_on`](crate::MutableIndex::compact_on)),
/// borrowed apart from every other range's.
#[derive(Debug)]
pub struct ColumnMoves<'a> {
    /// Whole columns of `cap` floats each.
    columns: &'a mut [f32],
    cap: usize,
    /// Rows below it do not move.
    settled: usize,
    /// Survivors: the rows from `kept` to `len` are zeroed.
    kept: usize,
    len: usize,
    /// The old row of each survivor from `settled` on, in order.
    moves: &'a [usize],
}

impl ColumnMoves<'_> {
    /// Move each survivor down its column to the next free row, then zero
    /// the rows the survivors freed.
    pub fn run(self) {
        for column in self.columns.chunks_exact_mut(self.cap) {
            for (new, &old) in (self.settled..).zip(self.moves) {
                column[new] = column[old];
            }
            column[self.kept..self.len].fill(0.0);
        }
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
        let id = self.len();
        if id == self.cap {
            self.grow((2 * self.cap).max(BLOCK));
        }
        for (column, &v) in self.data.chunks_exact_mut(self.cap).zip(&vector) {
            column[id] = v;
        }
        self.norms.push(norm(&vector));
        id
    }

    fn reserve(&mut self, additional: usize) {
        self.norms.reserve(additional);
        let cap = (self.len() + additional).next_multiple_of(BLOCK);
        if self.dim > 0 && cap > self.cap {
            self.grow(cap);
        }
    }

    fn search(&self, query: &[f32], n: usize) -> Vec<Hit> {
        self.search_where(query, n, |_| true)
    }

    fn clear(&mut self) {
        self.dim = 0;
        self.cap = 0;
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

    /// Rows of `dim` that differ in every element, some zero.
    fn row(id: usize, dim: usize) -> Vec<f32> {
        let value = |d: usize| ((id * dim + d) as f32 * 0.37).sin();
        (0..dim).map(|d| if (id + d).is_multiple_of(5) { 0.0 } else { value(d) }).collect()
    }

    #[test]
    fn ranges_filled_in_place_equal_the_add_loop() {
        let dim = 19;
        let cuts: [(usize, &[usize]); 6] = [
            (200, &[]),
            (200, &[64]),
            (200, &[64, 128, 192]),
            (192, &[128]),
            (64, &[]),
            (7, &[]),
        ];
        for (len, starts) in cuts {
            let mut added = FlatIndex::cosine();
            for id in 0..len {
                added.add(row(id, dim));
            }
            let bounds: Vec<usize> = [0].iter().chain(starts).chain([&len]).copied().collect();
            let ranges: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
            let mut filled = FlatIndex::zeroed(Metric::Cosine, dim, len);
            // Fill the ranges out of order: each owns its rows alone.
            for writer in filled.rows_mut(&ranges).into_iter().rev() {
                writer.fill(|id, out| out.copy_from_slice(&row(id, dim)));
            }
            assert_eq!(filled.to_bytes(), added.to_bytes(), "{len} rows cut at {starts:?}");
            assert_eq!(filled.norms, added.norms, "{len} rows cut at {starts:?}");
            for q in 0..4 {
                let query = row(1000 + q, dim);
                let (a, b) = (filled.search(&query, 9), added.search(&query, 9));
                let bits = |hits: &[Hit]| -> Vec<(usize, u32)> {
                    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
                };
                assert_eq!(bits(&a), bits(&b), "{len} rows cut at {starts:?}");
            }
        }
        let mut empty = FlatIndex::zeroed(Metric::Cosine, dim, 0);
        assert!(empty.rows_mut(&[]).is_empty());
        assert_eq!(empty.to_bytes(), FlatIndex::cosine().to_bytes());
    }

    #[test]
    fn retain_moves_survivors_down_in_place_and_zeroes_the_rows_it_frees() {
        let dim = 7;
        let mut idx = FlatIndex::cosine();
        for id in 0..150 {
            idx.add(row(id, dim));
        }
        let (cap, room) = (idx.cap, idx.data.capacity());
        let keep = |id: usize| id % 4 != 1 && !(60..70).contains(&id);
        let remap = idx.retain(keep, 1, |parts| parts.into_iter().for_each(ColumnMoves::run));
        let kept: Vec<usize> = (0..150).filter(|&id| keep(id)).collect();
        assert_eq!(remap.iter().flatten().count(), kept.len());
        assert_eq!((idx.cap, idx.data.capacity()), (cap, room), "no second index");
        for column in idx.data.chunks_exact(cap) {
            assert!(column[kept.len()..].iter().all(|v| v.to_bits() == 0), "a stale row");
        }
        let mut fresh = FlatIndex::cosine();
        for &id in &kept {
            fresh.add(row(id, dim));
        }
        assert_eq!(idx.to_bytes(), fresh.to_bytes());
        assert_eq!(idx.norms, fresh.norms);
    }

    #[test]
    #[should_panic(expected = "70..100")]
    fn a_range_starting_inside_a_block_is_refused() {
        FlatIndex::zeroed(Metric::Cosine, 3, 100).rows_mut(&[0..64, 64..70, 70..100]);
    }

    #[test]
    #[should_panic(expected = "vector dim")]
    fn dim_mismatch_panics() {
        let mut idx = FlatIndex::cosine();
        idx.add(vec![1.0, 0.0]);
        idx.add(vec![1.0]);
    }
}
