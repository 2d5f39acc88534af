//! Hierarchical Navigable Small World (HNSW) approximate index.
//!
//! A from-scratch implementation of Malkov & Yashunin's graph index, the
//! algorithm behind Faiss's `IndexHNSW`: each vector gets a random level;
//! upper layers form an expressway of long-range links, layer 0 holds all
//! vectors with denser connectivity. Search descends greedily through the
//! upper layers, then runs a best-first beam of width `ef_search` at
//! layer 0.
//!
//! Determinism: levels come from a seeded RNG and all tie-breaks are by id,
//! so a build with the same seed and insertion order is bit-reproducible.

use crate::arena::Arena;
use crate::metric::{Metric, Normed};
use crate::{Hit, VectorIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Build/search parameters.
#[derive(Debug, Clone, Copy)]
pub struct HnswConfig {
    /// Max links per node on layers ≥ 1 (layer 0 allows `2 * m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Beam width during search (raise for higher recall).
    pub ef_search: usize,
    /// RNG seed for level assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self { m: 16, ef_construction: 100, ef_search: 64, seed: 0x4157 }
    }
}

/// Max-heap entry ordered by score (best first), ties by id.
#[derive(PartialEq)]
struct Candidate {
    score: f32,
    id: usize,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score.total_cmp(&other.score).then_with(|| other.id.cmp(&self.id))
    }
}

/// HNSW approximate nearest-neighbour index.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    cfg: HnswConfig,
    arena: Arena,
    /// `links[id][layer]` = neighbour ids of `id` at `layer`.
    links: Vec<Vec<Vec<u32>>>,
    entry: Option<usize>,
    rng: StdRng,
}

impl HnswIndex {
    /// Empty index.
    pub fn new(metric: Metric, cfg: HnswConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            arena: Arena::new(metric),
            links: Vec::new(),
            entry: None,
        }
    }

    /// Cosine index with default parameters.
    pub fn cosine() -> Self {
        Self::new(Metric::Cosine, HnswConfig::default())
    }

    /// Geometric level assignment: P(level ≥ l) = (1/m)^l.
    fn random_level(&mut self) -> usize {
        let ml = 1.0 / (self.cfg.m as f64).ln();
        let u: f64 = self.rng.random_range(f64::EPSILON..1.0);
        (-u.ln() * ml).floor() as usize
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.cfg.m * 2
        } else {
            self.cfg.m
        }
    }

    /// Greedy hill-climb toward `query` at `layer`, starting from `start`.
    /// `evals` counts similarity evaluations for the caller's telemetry.
    fn greedy_step(&self, query: Normed<'_>, start: usize, layer: usize, evals: &mut u64) -> usize {
        let mut best = start;
        let mut best_score = self.arena.score(query, best);
        *evals += 1;
        loop {
            let mut improved = false;
            for &nb in &self.links[best][layer] {
                let s = self.arena.score(query, nb as usize);
                *evals += 1;
                if s > best_score {
                    best = nb as usize;
                    best_score = s;
                    improved = true;
                }
            }
            if !improved {
                return best;
            }
        }
    }

    /// Best-first beam search at `layer` returning up to `ef` candidates
    /// sorted best-first.
    fn beam_search(
        &self,
        query: Normed<'_>,
        start: usize,
        layer: usize,
        ef: usize,
        evals: &mut u64,
    ) -> Vec<Candidate> {
        let mut visited = vec![false; self.links.len()];
        visited[start] = true;
        let s0 = self.arena.score(query, start);
        *evals += 1;
        // Frontier: best-first. Results: keep the ef best seen (min at top
        // via Reverse ordering trick — we store negated comparison by
        // popping worst from a BinaryHeap of Reverse).
        let mut frontier: BinaryHeap<Candidate> = BinaryHeap::new();
        frontier.push(Candidate { score: s0, id: start });
        let mut results: Vec<Candidate> = vec![Candidate { score: s0, id: start }];
        let worst = |res: &Vec<Candidate>| res.iter().map(|c| c.score).fold(f32::INFINITY, f32::min);
        while let Some(cand) = frontier.pop() {
            if results.len() >= ef && cand.score < worst(&results) {
                break;
            }
            for &nb in &self.links[cand.id][layer] {
                let nb = nb as usize;
                if visited[nb] {
                    continue;
                }
                visited[nb] = true;
                let s = self.arena.score(query, nb);
                *evals += 1;
                if results.len() < ef || s > worst(&results) {
                    frontier.push(Candidate { score: s, id: nb });
                    results.push(Candidate { score: s, id: nb });
                    if results.len() > ef {
                        // Drop the current worst. `results` is over-full
                        // here so min_by always yields a victim.
                        if let Some((widx, _)) = results.iter().enumerate().min_by(|a, b| {
                            a.1.score.total_cmp(&b.1.score).then_with(|| b.1.id.cmp(&a.1.id))
                        }) {
                            results.swap_remove(widx);
                        }
                    }
                }
            }
        }
        results.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
        results
    }

    /// Link `id` to up to `max` of `candidates` (best first) at `layer`,
    /// bidirectionally, pruning over-full neighbours back to their best.
    fn connect(&mut self, id: usize, candidates: &[Candidate], layer: usize) {
        let max = self.max_links(layer);
        let chosen: Vec<usize> = candidates.iter().take(max).map(|c| c.id).collect();
        for &nb in &chosen {
            self.links[id][layer].push(nb as u32);
            self.links[nb][layer].push(id as u32);
            if self.links[nb][layer].len() > max {
                // Prune: keep the `max` most similar neighbours of nb.
                let Some(nb_row) = self.arena.row(nb) else { continue };
                let mut scored: Vec<(f32, u32)> = self.links[nb][layer]
                    .iter()
                    .map(|&x| (self.arena.score(nb_row, x as usize), x))
                    .collect();
                scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
                scored.truncate(max);
                self.links[nb][layer] = scored.into_iter().map(|(_, x)| x).collect();
            }
        }
    }
}

impl VectorIndex for HnswIndex {
    fn add(&mut self, vector: Vec<f32>) -> usize {
        let id = self.arena.push(&vector);
        let level = self.random_level();
        self.links.push(vec![Vec::new(); level + 1]);

        let Some(entry) = self.entry else {
            self.entry = Some(id);
            return id;
        };
        let query = self.arena.query(&vector);
        let entry_level = self.links[entry].len() - 1;

        // Phase 1: greedy descent through layers above `level`.
        // Construction-time similarity evaluations are not exported.
        let mut build_evals = 0u64;
        let mut ep = entry;
        let mut layer = entry_level;
        while layer > level {
            ep = self.greedy_step(query, ep, layer, &mut build_evals);
            layer -= 1;
        }
        // Phase 2: beam search + connect on each layer from min(level,
        // entry_level) down to 0.
        let top = level.min(entry_level);
        for l in (0..=top).rev() {
            let candidates =
                self.beam_search(query, ep, l, self.cfg.ef_construction, &mut build_evals);
            ep = candidates.first().map_or(ep, |c| c.id);
            self.connect(id, &candidates, l);
        }
        // New global entry point if this node is taller.
        if level > entry_level {
            self.entry = Some(id);
        }
        id
    }

    fn search(&self, query: &[f32], n: usize) -> Vec<Hit> {
        let Some(entry) = self.entry else {
            return Vec::new();
        };
        if n == 0 {
            return Vec::new();
        }
        let query = self.arena.query(query);
        let mut evals = 0u64;
        let mut ep = entry;
        let entry_level = self.links[entry].len() - 1;
        for layer in (1..=entry_level).rev() {
            ep = self.greedy_step(query, ep, layer, &mut evals);
        }
        let ef = self.cfg.ef_search.max(n);
        let beam = self.beam_search(query, ep, 0, ef, &mut evals);
        sage_telemetry::metrics::VECDB_HNSW_SEARCHES.inc();
        sage_telemetry::metrics::VECDB_HNSW_DISTANCE_EVALS.add(evals);
        beam.into_iter().take(n).map(|c| Hit { id: c.id, score: c.score }).collect()
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.links.clear();
        self.entry = None;
        self.rng = StdRng::seed_from_u64(self.cfg.seed);
    }

    fn len(&self) -> usize {
        self.links.len()
    }

    fn dim(&self) -> usize {
        self.arena.dim()
    }

    fn memory_bytes(&self) -> usize {
        let vec_bytes = self.arena.memory_bytes();
        let link_bytes: usize = self
            .links
            .iter()
            .map(|layers| layers.iter().map(|l| l.capacity() * 4 + 24).sum::<usize>() + 24)
            .sum();
        vec_bytes + link_bytes + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;

    fn random_unit(rng: &mut StdRng, dim: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        for x in &mut v {
            *x /= n;
        }
        v
    }

    #[test]
    fn empty_and_single() {
        let mut idx = HnswIndex::cosine();
        assert!(idx.search(&[1.0, 0.0], 3).is_empty());
        idx.add(vec![1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn finds_exact_match() {
        let mut idx = HnswIndex::cosine();
        let mut rng = StdRng::seed_from_u64(1);
        let vecs: Vec<Vec<f32>> = (0..200).map(|_| random_unit(&mut rng, 16)).collect();
        for v in &vecs {
            idx.add(v.clone());
        }
        for probe in [0usize, 57, 123, 199] {
            let hits = idx.search(&vecs[probe], 1);
            assert_eq!(hits[0].id, probe, "failed to find vector {probe}");
        }
    }

    #[test]
    fn recall_against_flat() {
        let mut hnsw = HnswIndex::cosine();
        let mut flat = FlatIndex::cosine();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let v = random_unit(&mut rng, 24);
            hnsw.add(v.clone());
            flat.add(v);
        }
        let mut found = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let q = random_unit(&mut rng, 24);
            let truth: std::collections::HashSet<usize> =
                flat.search(&q, 10).into_iter().map(|h| h.id).collect();
            for h in hnsw.search(&q, 10) {
                total += 1;
                if truth.contains(&h.id) {
                    found += 1;
                }
            }
        }
        let recall = found as f32 / total.max(1) as f32;
        assert!(recall > 0.85, "recall@10 = {recall}");
    }

    #[test]
    fn deterministic_builds() {
        let build = || {
            let mut idx = HnswIndex::cosine();
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..100 {
                idx.add(random_unit(&mut rng, 8));
            }
            idx.search(&random_unit(&mut rng, 8), 5)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn len_and_memory() {
        let mut idx = HnswIndex::cosine();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            idx.add(random_unit(&mut rng, 8));
        }
        assert_eq!(idx.len(), 50);
        assert!(idx.memory_bytes() > 50 * 8 * 4);
    }

    #[test]
    fn search_more_than_len() {
        let mut idx = HnswIndex::cosine();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            idx.add(random_unit(&mut rng, 4));
        }
        let hits = idx.search(&random_unit(&mut rng, 4), 50);
        assert!(hits.len() <= 5);
        assert!(!hits.is_empty());
        // Scores must be sorted descending.
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
