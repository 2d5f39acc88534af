//! Tombstoned mutable index: the vector tier of the live-corpus writer.
//!
//! Deletion in an append-only vector index is logical: [`MutableIndex`]
//! keeps every inserted vector in a [`FlatIndex`], marks deleted slots in
//! a tombstone bitmap, skips tombstoned rows while scanning, and
//! periodically [`compact`](MutableIndex::compact)s — closing the index up
//! over the survivors so the dead mass does not grow without bound.
//!
//! Compaction is deterministic: survivors keep their id order (the index
//! moves them down its columns in place and ends with the rows and scores
//! of a fresh index fed the survivors), so two stores that applied the
//! same operations compact to bit-identical indexes. The one serving
//! instance is a private field of `sage-core`'s `CorpusWriter`, so all
//! mutation of it stays inside that crate's `live` module.

use crate::metric::Metric;
use crate::{ColumnMoves, FlatIndex, Hit, VectorIndex};

/// A vector index supporting logical deletion and deterministic compaction.
///
/// ```
/// use sage_vecdb::{MutableIndex, VectorIndex};
///
/// let mut index = MutableIndex::cosine();
/// index.add(vec![1.0, 0.0]);
/// index.add(vec![0.0, 1.0]);
/// index.tombstone(0);
/// let hits = index.search(&[1.0, 0.0], 2);
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].id, 1); // the tombstoned slot is never served
/// ```
#[derive(Debug, Clone)]
pub struct MutableIndex {
    /// The rows by id, tombstoned ones included until the next compaction.
    flat: FlatIndex,
    dead: Vec<bool>,
    dead_count: usize,
}

impl MutableIndex {
    /// Empty index with the given metric.
    pub fn new(metric: Metric) -> Self {
        Self { flat: FlatIndex::new(metric), dead: Vec::new(), dead_count: 0 }
    }

    /// Exact cosine index (the paper default).
    pub fn cosine() -> Self {
        Self::new(Metric::Cosine)
    }

    /// Mark slot `id` dead. Returns `false` when `id` is out of range or
    /// already tombstoned (idempotent).
    pub fn tombstone(&mut self, id: usize) -> bool {
        if id >= self.dead.len() || self.dead[id] {
            return false;
        }
        self.dead[id] = true;
        self.dead_count += 1;
        true
    }

    /// Number of live (non-tombstoned) vectors.
    pub fn live_len(&self) -> usize {
        self.dead.len() - self.dead_count
    }

    /// Number of tombstoned vectors awaiting compaction.
    pub fn dead_count(&self) -> usize {
        self.dead_count
    }

    /// Fraction of slots that are dead (`0.0` when empty).
    pub fn dead_fraction(&self) -> f64 {
        if self.dead.is_empty() {
            0.0
        } else {
            self.dead_count as f64 / self.dead.len() as f64
        }
    }

    /// Purge tombstones: close the index up over the survivors, in id
    /// order.
    /// Returns the old→new id remap (`None` for purged slots) so callers
    /// can rewrite their own id references. Deterministic: depends only on
    /// the surviving vectors and their order.
    pub fn compact(&mut self) -> Vec<Option<usize>> {
        self.compact_on(1, |parts| parts.into_iter().for_each(ColumnMoves::run))
    }

    /// [`compact`](Self::compact), the columns cut into at most `parts`
    /// independent ranges handed to `run`, which must
    /// [`run`](ColumnMoves::run) every one — on separate threads if it
    /// likes. The index, the remap and every score are `compact`'s.
    pub fn compact_on(
        &mut self,
        parts: usize,
        run: impl FnOnce(Vec<ColumnMoves<'_>>),
    ) -> Vec<Option<usize>> {
        let dead = &self.dead;
        let remap = self.flat.retain(|id| !dead[id], parts, run);
        self.dead.clear();
        self.dead.resize(self.flat.len(), false);
        self.dead_count = 0;
        remap
    }

    /// Append every row of `rows` as live slots, in one pass: the columns
    /// grow to the capacity the same rows [`add`](VectorIndex::add)ed one by
    /// one would leave, each column takes its run of `rows` in one copy, and
    /// each norm is `rows`' own. Returns the id of the first. Rows, norms,
    /// every score and [`memory_bytes`](VectorIndex::memory_bytes) are those
    /// of the `add` loop.
    pub fn append(&mut self, rows: &FlatIndex) -> usize {
        let first = self.flat.len();
        self.flat.append(rows);
        // One push per row, so the bitmap keeps the capacity `add` leaves.
        for _ in 0..rows.len() {
            self.dead.push(false);
        }
        first
    }

    /// The rows, tombstoned ones included.
    pub fn as_flat(&self) -> &FlatIndex {
        &self.flat
    }
}

impl VectorIndex for MutableIndex {
    fn add(&mut self, vector: Vec<f32>) -> usize {
        let id = self.flat.add(vector);
        debug_assert_eq!(id, self.dead.len());
        self.dead.push(false);
        id
    }

    fn clear(&mut self) {
        self.flat.clear();
        self.dead.clear();
        self.dead_count = 0;
    }

    fn search(&self, query: &[f32], n: usize) -> Vec<Hit> {
        if n == 0 || self.live_len() == 0 {
            return Vec::new();
        }
        self.flat.search_where(query, n, |id| !self.dead[id])
    }

    fn len(&self) -> usize {
        self.flat.len()
    }

    fn dim(&self) -> usize {
        self.flat.dim()
    }

    fn memory_bytes(&self) -> usize {
        self.flat.memory_bytes() + self.dead.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(theta: f32) -> Vec<f32> {
        vec![theta.cos(), theta.sin()]
    }

    #[test]
    fn tombstoned_slots_are_never_served() {
        let mut idx = MutableIndex::cosine();
        for i in 0..8 {
            idx.add(unit(i as f32 * 0.3));
        }
        assert!(idx.tombstone(0));
        assert!(idx.tombstone(3));
        let hits = idx.search(&unit(0.0), 8);
        assert_eq!(hits.len(), 6);
        assert!(hits.iter().all(|h| h.id != 0 && h.id != 3));
    }

    #[test]
    fn tombstone_is_idempotent_and_bounds_checked() {
        let mut idx = MutableIndex::cosine();
        idx.add(vec![1.0, 0.0]);
        assert!(idx.tombstone(0));
        assert!(!idx.tombstone(0));
        assert!(!idx.tombstone(5));
        assert_eq!(idx.dead_count(), 1);
        assert_eq!(idx.live_len(), 0);
        assert!(idx.search(&[1.0, 0.0], 3).is_empty());
    }

    #[test]
    fn overfetch_fills_n_despite_top_ranked_tombstones() {
        let mut idx = MutableIndex::cosine();
        // Best match first, then progressively worse.
        for i in 0..10 {
            idx.add(unit(i as f32 * 0.2));
        }
        // Kill the top 5 matches for query angle 0.
        for id in 0..5 {
            idx.tombstone(id);
        }
        let hits = idx.search(&unit(0.0), 3);
        assert_eq!(hits.len(), 3, "must still return n live hits");
        assert_eq!(hits[0].id, 5);
    }

    #[test]
    fn compact_matches_fresh_index_over_survivors() {
        let mut idx = MutableIndex::cosine();
        for i in 0..20 {
            idx.add(unit(i as f32 * 0.17));
        }
        for id in [1, 4, 5, 13, 19] {
            idx.tombstone(id);
        }
        let before = idx.search(&unit(0.5), 6);
        let remap = idx.compact();
        assert_eq!(idx.len(), 15);
        assert_eq!(idx.dead_count(), 0);
        // A scratch index built over the survivors in the same order.
        let mut fresh = MutableIndex::cosine();
        for (i, slot) in remap.iter().enumerate().take(20) {
            if slot.is_some() {
                fresh.add(unit(i as f32 * 0.17));
            }
        }
        let after = idx.search(&unit(0.5), 6);
        assert_eq!(after, fresh.search(&unit(0.5), 6));
        // Same chunks in the same order, modulo the id remap.
        let before_remapped: Vec<usize> = before.iter().map(|h| remap[h.id].unwrap()).collect();
        let after_ids: Vec<usize> = after.iter().map(|h| h.id).collect();
        assert_eq!(before_remapped, after_ids);
    }

    #[test]
    fn remap_is_dense_and_order_preserving() {
        let mut idx = MutableIndex::cosine();
        for i in 0..6 {
            idx.add(unit(i as f32));
        }
        idx.tombstone(2);
        idx.tombstone(3);
        let remap = idx.compact();
        assert_eq!(remap, vec![Some(0), Some(1), None, None, Some(2), Some(3)]);
    }

    #[test]
    fn dead_fraction_tracks_tombstones() {
        let mut idx = MutableIndex::cosine();
        assert_eq!(idx.dead_fraction(), 0.0);
        for i in 0..4 {
            idx.add(unit(i as f32));
        }
        idx.tombstone(1);
        assert!((idx.dead_fraction() - 0.25).abs() < 1e-12);
        idx.clear();
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.dead_count(), 0);
        assert_eq!(idx.dead_fraction(), 0.0);
    }
}
