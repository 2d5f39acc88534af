//! Deterministic shard routing and scatter-gather merge.
//!
//! The shard layer partitions a corpus into N fault domains by a *stable*
//! hash of the document/chunk id — never by insertion order modulo N or
//! any other layout-dependent scheme — so the same corpus always shards
//! the same way regardless of build order or shard count changes elsewhere.
//! [`ShardedFlat`] keeps one exact [`FlatIndex`] per shard plus the
//! local→global id mapping; because the flat scan is exact, searching each
//! shard for the full top-k and merging with [`merge_hits`] returns
//! *byte-identical* results to the unsharded index at every N (scores are
//! per-vector, and ties break on the global id in both paths). That
//! exactness is what lets the serving layer drop shards and still reason
//! about what the survivors contribute.
//!
//! The serving layer's routing state (`ShardRouter`, `ShardedFlat`) lives
//! in a crate-private field of `sage-core`'s `RagSystem`, so nothing outside
//! that crate holds its per-shard handles.

use crate::flat::FlatIndex;
use crate::{Hit, VectorIndex};

/// FNV-1a over `bytes` (the same stable hash family the fault planner and
/// live-corpus digest use; duplicated here because `sage-vecdb` sits below
/// `sage-resilience` in the crate DAG).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable corpus→shard routing: a pure function of the id and the shard
/// count, independent of insertion order and wall-clock anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u32,
}

impl ShardRouter {
    /// A router over `shards` fault domains (clamped to at least 1).
    pub fn new(shards: u32) -> Self {
        Self { shards: shards.max(1) }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Route a document id (any stable string key) to its shard.
    pub fn route(&self, doc_id: &str) -> u32 {
        (fnv1a(doc_id.as_bytes()) % u64::from(self.shards)) as u32
    }

    /// Route a chunk by its stable internal id (== chunk index). The id is
    /// hashed through its decimal rendering so `route_id(7)` and
    /// `route("7")` agree.
    pub fn route_id(&self, id: usize) -> u32 {
        let mut buf = [0u8; 20];
        let mut n = id;
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        (fnv1a(&buf[i..]) % u64::from(self.shards)) as u32
    }

    /// The full shard assignment for ids `0..count` (one pass, reusable by
    /// sparse retrieval which filters postings rather than splitting them).
    pub fn assignment(&self, count: usize) -> Vec<u32> {
        (0..count).map(|id| self.route_id(id)).collect()
    }
}

/// Exact dense search partitioned into per-shard [`FlatIndex`] arenas.
///
/// Each shard keeps its vectors in insertion (== global id) order, so the
/// per-shard local tie-break is monotone in the global id and the merged
/// top-k equals the unsharded top-k exactly.
#[derive(Debug, Clone)]
pub struct ShardedFlat {
    router: ShardRouter,
    shards: Vec<FlatIndex>,
    global_ids: Vec<Vec<usize>>,
}

impl ShardedFlat {
    /// An empty partition over `router.shards()` cosine shards.
    pub fn new(router: ShardRouter) -> Self {
        let n = router.shards() as usize;
        Self { router, shards: vec![FlatIndex::cosine(); n], global_ids: vec![Vec::new(); n] }
    }

    /// Route the next vector — its global id is how many came before it —
    /// to its shard.
    pub fn push(&mut self, vector: &[f32]) {
        let id = self.global_ids.iter().map(Vec::len).sum();
        let s = self.router.route_id(id) as usize;
        self.shards[s].add(vector.to_vec());
        self.global_ids[s].push(id);
    }

    /// The router this partition was built with.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.router.shards()
    }

    /// Vectors resident in shard `s`.
    pub fn shard_len(&self, s: u32) -> usize {
        self.shards.get(s as usize).map_or(0, |ix| ix.len())
    }

    /// Exact top-k within one shard, hits carrying *global* ids.
    pub fn search_shard(&self, s: u32, query: &[f32], k: usize) -> Vec<Hit> {
        let Some(index) = self.shards.get(s as usize) else { return Vec::new() };
        if index.is_empty() {
            return Vec::new();
        }
        let ids = &self.global_ids[s as usize];
        index
            .search(query, k)
            .into_iter()
            .map(|h| Hit { id: ids[h.id], score: h.score })
            .collect()
    }

    /// Approximate resident memory across all shards.
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.memory_bytes()).sum::<usize>()
            + self.global_ids.iter().map(|g| g.capacity() * std::mem::size_of::<usize>()).sum::<usize>()
    }
}

/// Deterministic scatter-gather merge: flatten the per-shard result lists,
/// order by score (descending, `total_cmp`) with ties broken by the global
/// id, truncate to `k`. The comparator is a strict total order over the
/// disjoint (id, score) pairs a partition produces, so the output is
/// *invariant to the order of `parts`* — shard completion order cannot
/// leak into the merged bytes.
pub fn merge_hits(parts: &[Vec<Hit>], k: usize) -> Vec<Hit> {
    let mut all: Vec<Hit> = parts.iter().flatten().copied().collect();
    all.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(theta: f32) -> Vec<f32> {
        vec![theta.cos(), theta.sin()]
    }

    fn corpus(n: usize) -> Vec<Vec<f32>> {
        (0..n).map(|i| unit(i as f32 * 0.17)).collect()
    }

    fn unsharded(vectors: &[Vec<f32>]) -> FlatIndex {
        let mut ix = FlatIndex::cosine();
        for v in vectors {
            ix.add(v.clone());
        }
        ix
    }

    fn sharded(shards: u32, vectors: &[Vec<f32>]) -> ShardedFlat {
        let mut sharded = ShardedFlat::new(ShardRouter::new(shards));
        vectors.iter().for_each(|v| sharded.push(v));
        sharded
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let r = ShardRouter::new(4);
        for id in 0..200 {
            let s = r.route_id(id);
            assert!(s < 4);
            assert_eq!(s, r.route_id(id), "routing must be a pure function");
            assert_eq!(s, r.route(&id.to_string()), "route_id must agree with route");
        }
        assert_eq!(ShardRouter::new(0).shards(), 1, "clamped to one shard");
    }

    #[test]
    fn every_shard_gets_vectors_at_modest_counts() {
        let r = ShardRouter::new(4);
        let assign = r.assignment(100);
        for s in 0..4 {
            assert!(assign.contains(&s), "shard {s} is empty over 100 ids");
        }
    }

    #[test]
    fn sharded_search_equals_unsharded_at_any_n() {
        let vectors = corpus(60);
        let flat = unsharded(&vectors);
        let q = unit(0.95);
        for n in [1u32, 2, 3, 4, 7] {
            let sharded = sharded(n, &vectors);
            let parts: Vec<Vec<Hit>> =
                (0..n).map(|s| sharded.search_shard(s, &q, 5)).collect();
            assert_eq!(merge_hits(&parts, 5), flat.search(&q, 5), "N={n}");
        }
    }

    #[test]
    fn merge_is_invariant_to_part_order() {
        let vectors = corpus(40);
        let sharded = sharded(4, &vectors);
        let q = unit(0.4);
        let mut parts: Vec<Vec<Hit>> = (0..4).map(|s| sharded.search_shard(s, &q, 6)).collect();
        let merged = merge_hits(&parts, 6);
        parts.reverse();
        assert_eq!(merge_hits(&parts, 6), merged);
        parts.swap(0, 2);
        assert_eq!(merge_hits(&parts, 6), merged);
    }

    #[test]
    fn lost_shards_shrink_results_without_reordering() {
        let vectors = corpus(40);
        let sharded = sharded(4, &vectors);
        let q = unit(1.3);
        let full: Vec<Vec<Hit>> = (0..4).map(|s| sharded.search_shard(s, &q, 8)).collect();
        let merged_full = merge_hits(&full, 8);
        let partial: Vec<Vec<Hit>> = full[..3].to_vec();
        let merged_partial = merge_hits(&partial, 8);
        // Hits present in both merges keep their relative order (the
        // partial merge may also surface survivor tail hits that missed
        // the full top-k cutoff — that is the point of partial serving).
        let common: Vec<usize> = merged_partial
            .iter()
            .filter_map(|h| merged_full.iter().position(|f| f.id == h.id))
            .collect();
        assert!(!common.is_empty(), "partial merge shares no hits with the full merge");
        assert!(
            common.windows(2).all(|w| w[0] < w[1]),
            "partial merge reordered survivor hits"
        );
    }

    #[test]
    fn shard_accessors() {
        let vectors = corpus(30);
        let sharded = sharded(3, &vectors);
        assert_eq!(sharded.shard_count(), 3);
        let total: usize = (0..3).map(|s| sharded.shard_len(s)).sum();
        assert_eq!(total, 30, "partition must cover the corpus exactly");
        assert!(sharded.memory_bytes() > 0);
        assert!(sharded.search_shard(9, &unit(0.0), 3).is_empty(), "out-of-range shard is empty");
    }
}
