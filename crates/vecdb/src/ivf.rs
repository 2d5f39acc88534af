//! IVF (inverted-file) approximate index — the other classic Faiss design
//! (`IndexIVFFlat`): a k-means coarse quantiser partitions the vectors into
//! `nlist` cells; a query probes the `nprobe` nearest cells and scores their
//! members exactly.
//!
//! Complements [`crate::HnswIndex`]: IVF has a training phase and bulk
//! memory locality (arena per cell), HNSW is incremental with per-node
//! links. The `micro` bench compares all three index types.

use crate::arena::Arena;
use crate::metric::Metric;
use crate::{Hit, VectorIndex};
use sage_nn::cluster::{kmeans, squared_distance};

/// IVF parameters.
#[derive(Debug, Clone, Copy)]
pub struct IvfConfig {
    /// Number of coarse cells (k-means clusters).
    pub nlist: usize,
    /// Cells probed per query (recall/latency knob).
    pub nprobe: usize,
    /// Vectors buffered before the coarse quantiser is trained; until
    /// then, searches fall back to an exact scan of the buffer.
    pub train_size: usize,
    /// K-means iterations for quantiser training.
    pub train_iters: usize,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self { nlist: 64, nprobe: 8, train_size: 512, train_iters: 8 }
    }
}

/// IVF-Flat approximate nearest-neighbour index.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    cfg: IvfConfig,
    /// All vectors in insertion order (ids are offsets).
    arena: Arena,
    /// Trained centroids (empty until `train_size` inserts).
    centroids: Vec<Vec<f32>>,
    /// Per-cell member ids.
    cells: Vec<Vec<u32>>,
}

impl IvfIndex {
    /// Empty index.
    pub fn new(metric: Metric, cfg: IvfConfig) -> Self {
        Self {
            cfg,
            arena: Arena::new(metric),
            centroids: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Cosine index with default parameters.
    pub fn cosine() -> Self {
        Self::new(Metric::Cosine, IvfConfig::default())
    }

    /// Whether the coarse quantiser has been trained yet.
    pub fn is_trained(&self) -> bool {
        !self.centroids.is_empty()
    }

    fn nearest_cell(&self, v: &[f32]) -> usize {
        self.centroids
            .iter()
            .enumerate()
            .min_by(|a, b| {
                squared_distance(v, a.1)
                    .total_cmp(&squared_distance(v, b.1))
                    .then_with(|| a.0.cmp(&b.0))
            })
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Train the quantiser on everything inserted so far and assign all
    /// vectors to cells.
    fn train(&mut self) {
        let all: Vec<Vec<f32>> = self.arena.rows().map(|row| row.vector.to_vec()).collect();
        let k = self.cfg.nlist.min(all.len()).max(1);
        let km = kmeans(&all, k, self.cfg.train_iters);
        self.centroids = km.centroids;
        self.cells = vec![Vec::new(); self.centroids.len()];
        for (id, &cell) in km.assignments.iter().enumerate() {
            self.cells[cell].push(id as u32);
        }
    }
}

impl VectorIndex for IvfIndex {
    fn add(&mut self, vector: Vec<f32>) -> usize {
        let id = self.arena.push(&vector);
        if self.is_trained() {
            let cell = self.nearest_cell(&vector);
            self.cells[cell].push(id as u32);
        } else if self.len() >= self.cfg.train_size {
            self.train();
        }
        id
    }

    fn search(&self, query: &[f32], n: usize) -> Vec<Hit> {
        if self.is_empty() || n == 0 {
            return Vec::new();
        }
        sage_telemetry::metrics::VECDB_IVF_SEARCHES.inc();
        let (hits, scored) = if self.is_trained() {
            // Probe the nprobe nearest cells.
            let mut cell_order: Vec<(f32, usize)> = self
                .centroids
                .iter()
                .enumerate()
                .map(|(i, c)| (squared_distance(query, c), i))
                .collect();
            cell_order.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let nprobe = self.cfg.nprobe.max(1).min(cell_order.len());
            sage_telemetry::metrics::VECDB_IVF_CELLS_PROBED.add(nprobe as u64);
            let probed = cell_order.iter().take(nprobe).flat_map(|&(_, cell)| &self.cells[cell]);
            self.arena.top_n(query, n, probed.map(|&id| id as usize))
        } else {
            // Exact scan over the pre-training buffer.
            self.arena.top_n(query, n, 0..self.len())
        };
        sage_telemetry::metrics::VECDB_IVF_DISTANCE_EVALS.add(scored);
        hits
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.centroids.clear();
        self.cells.clear();
    }

    fn len(&self) -> usize {
        self.arena.len()
    }

    fn dim(&self) -> usize {
        self.arena.dim()
    }

    fn memory_bytes(&self) -> usize {
        self.arena.memory_bytes()
            + self.centroids.iter().map(|c| c.capacity() * 4 + 24).sum::<usize>()
            + self.cells.iter().map(|c| c.capacity() * 4 + 24).sum::<usize>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_unit(rng: &mut StdRng, dim: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        for x in &mut v {
            *x /= n;
        }
        v
    }

    #[test]
    fn exact_before_training() {
        let mut idx = IvfIndex::cosine();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            idx.add(random_unit(&mut rng, 8));
        }
        assert!(!idx.is_trained(), "below train_size");
        let q = random_unit(&mut rng, 8);
        let mut flat = FlatIndex::cosine();
        for i in 0..50 {
            flat.add(idx.arena.row(i).unwrap().vector.to_vec());
        }
        assert_eq!(idx.search(&q, 5), flat.search(&q, 5), "pre-training must be exact");
    }

    #[test]
    fn trains_at_threshold_and_keeps_ids() {
        let cfg = IvfConfig { train_size: 100, ..IvfConfig::default() };
        let mut idx = IvfIndex::new(Metric::Cosine, cfg);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..150 {
            assert_eq!(idx.add(random_unit(&mut rng, 8)), i);
        }
        assert!(idx.is_trained());
        assert_eq!(idx.len(), 150);
        // Every id lands in exactly one cell.
        let mut seen = std::collections::HashSet::new();
        for cell in &idx.cells {
            for &id in cell {
                assert!(seen.insert(id), "duplicate id {id}");
            }
        }
        assert_eq!(seen.len(), 150);
    }

    #[test]
    fn recall_against_flat() {
        let cfg = IvfConfig { nlist: 16, nprobe: 6, train_size: 200, train_iters: 8 };
        let mut ivf = IvfIndex::new(Metric::Cosine, cfg);
        let mut flat = FlatIndex::cosine();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..600 {
            let v = random_unit(&mut rng, 16);
            ivf.add(v.clone());
            flat.add(v);
        }
        let mut found = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let q = random_unit(&mut rng, 16);
            let truth: std::collections::HashSet<usize> =
                flat.search(&q, 10).into_iter().map(|h| h.id).collect();
            for h in ivf.search(&q, 10) {
                total += 1;
                if truth.contains(&h.id) {
                    found += 1;
                }
            }
        }
        let recall = found as f32 / total.max(1) as f32;
        assert!(recall > 0.6, "recall@10 = {recall}");
    }

    #[test]
    fn finds_exact_match_after_training() {
        let cfg = IvfConfig { train_size: 64, ..IvfConfig::default() };
        let mut idx = IvfIndex::new(Metric::Cosine, cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let vecs: Vec<Vec<f32>> = (0..200).map(|_| random_unit(&mut rng, 12)).collect();
        for v in &vecs {
            idx.add(v.clone());
        }
        // A stored vector should find itself (its own cell is nearest).
        for probe in [0usize, 99, 199] {
            let hits = idx.search(&vecs[probe], 1);
            assert_eq!(hits[0].id, probe, "failed to find vector {probe}");
        }
    }

    #[test]
    fn clear_resets() {
        let mut idx = IvfIndex::cosine();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..600 {
            idx.add(random_unit(&mut rng, 4));
        }
        assert!(idx.is_trained());
        idx.clear();
        assert_eq!(idx.len(), 0);
        assert!(!idx.is_trained());
        assert!(idx.search(&[1.0, 0.0, 0.0, 0.0], 3).is_empty());
    }

    #[test]
    fn memory_reported() {
        let mut idx = IvfIndex::cosine();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            idx.add(random_unit(&mut rng, 8));
        }
        assert!(idx.memory_bytes() >= 100 * 8 * 4);
    }
}
