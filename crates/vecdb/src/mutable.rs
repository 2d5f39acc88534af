//! Tombstoned mutable index: the vector tier of the live-corpus writer.
//!
//! Deletion in an append-only vector index is logical: [`MutableIndex`]
//! keeps every inserted vector in a [`FlatIndex`] arena (optionally
//! shadowed by an [`HnswIndex`] ANN tier), marks deleted slots in a
//! tombstone bitmap, skips tombstoned rows while scanning (the HNSW tier
//! cannot, so it over-fetches and filters), and periodically
//! [`compact`](MutableIndex::compact)s — rebuilding both tiers from the
//! survivors so the dead mass does not grow without bound.
//!
//! Compaction is deterministic: survivors keep their id order (the arena
//! moves them a block at a time and ends as the one a fresh index fed the
//! survivors would be) and the HNSW tier is rebuilt from a fresh seeded RNG,
//! so two stores that
//! applied the same operations compact to bit-identical indexes. The
//! one serving instance is a private field of `sage-core`'s `CorpusWriter`,
//! so all mutation of it stays inside that crate's `live` module.

use crate::metric::Metric;
use crate::{FlatIndex, Hit, HnswConfig, HnswIndex, VectorIndex};

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
    metric: Metric,
    /// Authoritative arena: every vector ever inserted, by id.
    flat: FlatIndex,
    /// Optional ANN tier kept in lockstep with the arena.
    hnsw: Option<HnswIndex>,
    hnsw_cfg: HnswConfig,
    dead: Vec<bool>,
    dead_count: usize,
}

impl MutableIndex {
    /// Exact-search index (flat arena only) with the given metric.
    pub fn new(metric: Metric) -> Self {
        Self {
            metric,
            flat: FlatIndex::new(metric),
            hnsw: None,
            hnsw_cfg: HnswConfig::default(),
            dead: Vec::new(),
            dead_count: 0,
        }
    }

    /// Exact cosine index (the paper default).
    pub fn cosine() -> Self {
        Self::new(Metric::Cosine)
    }

    /// Index with an HNSW approximate tier alongside the exact arena.
    pub fn with_hnsw(metric: Metric, cfg: HnswConfig) -> Self {
        Self {
            metric,
            flat: FlatIndex::new(metric),
            hnsw: Some(HnswIndex::new(metric, cfg)),
            hnsw_cfg: cfg,
            dead: Vec::new(),
            dead_count: 0,
        }
    }

    /// Whether an HNSW tier is maintained.
    pub fn has_hnsw(&self) -> bool {
        self.hnsw.is_some()
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

    /// Purge tombstones: close the arena up over the survivors, in id
    /// order, and rebuild the ANN tier over them from a fresh seeded RNG.
    /// Returns the old→new id remap (`None` for purged slots) so callers
    /// can rewrite their own id references. Deterministic: depends only on
    /// the surviving vectors and their order.
    pub fn compact(&mut self) -> Vec<Option<usize>> {
        let remap = self.flat.retain(|id| !self.dead[id]);
        if let Some(hnsw) = self.hnsw.as_mut() {
            *hnsw = HnswIndex::new(self.metric, self.hnsw_cfg);
            self.flat.for_each_row(|row| {
                hnsw.add(row.to_vec());
            });
        }
        self.dead = vec![false; self.flat.len()];
        self.dead_count = 0;
        remap
    }
}

impl VectorIndex for MutableIndex {
    fn add(&mut self, vector: Vec<f32>) -> usize {
        if let Some(h) = self.hnsw.as_mut() {
            h.add(vector.clone());
        }
        let id = self.flat.add(vector);
        debug_assert_eq!(id, self.dead.len());
        self.dead.push(false);
        id
    }

    fn clear(&mut self) {
        self.flat.clear();
        if let Some(h) = self.hnsw.as_mut() {
            h.clear();
        }
        self.dead.clear();
        self.dead_count = 0;
    }

    fn search(&self, query: &[f32], n: usize) -> Vec<Hit> {
        if n == 0 || self.live_len() == 0 {
            return Vec::new();
        }
        let Some(hnsw) = &self.hnsw else {
            return self.flat.search_where(query, n, |id| !self.dead[id]);
        };
        // The graph cannot skip slots: over-fetch by the tombstone count so
        // n live hits survive the filter even if every dead slot outranks them.
        let raw = hnsw.search(query, n.saturating_add(self.dead_count));
        let mut hits: Vec<Hit> = raw.into_iter().filter(|h| !self.dead[h.id]).collect();
        hits.truncate(n);
        hits
    }

    fn len(&self) -> usize {
        self.flat.len()
    }

    fn dim(&self) -> usize {
        self.flat.dim()
    }

    fn memory_bytes(&self) -> usize {
        self.flat.memory_bytes()
            + self.hnsw.as_ref().map_or(0, |h| h.memory_bytes())
            + self.dead.capacity()
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
    fn hnsw_tier_stays_in_lockstep_through_compaction() {
        let mut idx = MutableIndex::with_hnsw(Metric::Cosine, HnswConfig::default());
        assert!(idx.has_hnsw());
        for i in 0..30 {
            idx.add(unit(i as f32 * 0.11));
        }
        for id in [0, 7, 8, 9, 22] {
            idx.tombstone(id);
        }
        let remap = idx.compact();
        // Deterministic rebuild: a second index fed the survivors directly
        // searches identically.
        let mut fresh = MutableIndex::with_hnsw(Metric::Cosine, HnswConfig::default());
        for (i, slot) in remap.iter().enumerate().take(30) {
            if slot.is_some() {
                fresh.add(unit(i as f32 * 0.11));
            }
        }
        for q in 0..5 {
            let query = unit(q as f32 * 0.4);
            assert_eq!(idx.search(&query, 4), fresh.search(&query, 4));
        }
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
