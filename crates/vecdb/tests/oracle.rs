//! The scan, the top-N and the approximate indexes against exact oracles.
//!
//! The oracle for a search is "score every row with `Metric::similarity`,
//! sort by (score descending under `total_cmp`, id ascending), truncate".
//! Hits are compared as `(id, score bits)`, so a NaN score compares too.

#![allow(clippy::disallowed_types, reason = "tests may time and hash freely")]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage_vecdb::{
    FlatIndex, Hit, HnswConfig, HnswIndex, Metric, MutableIndex, VectorIndex,
};
use std::collections::HashSet;

const METRICS: [Metric; 3] = [Metric::Cosine, Metric::Dot, Metric::NegEuclidean];

fn random_vectors(seed: u64, count: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect()
}

fn filled<I: VectorIndex>(mut index: I, rows: &[Vec<f32>]) -> I {
    for row in rows {
        index.add(row.clone());
    }
    index
}

fn bits(hits: &[Hit]) -> Vec<(usize, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

fn oracle(metric: Metric, rows: &[Vec<f32>], query: &[f32], n: usize) -> Vec<Hit> {
    let mut all: Vec<Hit> = rows
        .iter()
        .enumerate()
        .map(|(id, row)| Hit { id, score: metric.similarity(query, row) })
        .collect();
    all.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
    all.truncate(n);
    all
}

#[test]
fn flat_search_equals_score_sort_truncate() {
    let dim = 37; // two whole lane chunks and a tail
    let mut rows = random_vectors(11, 60, dim);
    rows[7] = rows[3].clone(); // duplicates tie on score and break on id
    rows[41] = rows[3].clone();
    rows[12] = vec![0.0; dim]; // zero norm
    rows[30] = vec![0.0; dim];
    rows[20][5] = f32::NAN; // scores NaN, which `total_cmp` ranks first
    let queries = [rows[3].clone(), vec![0.0; dim], random_vectors(12, 1, dim).remove(0)];
    for metric in METRICS {
        let flat = filled(FlatIndex::new(metric), &rows);
        for query in &queries {
            for n in [0, 1, 5, 59, 60, 61, 1000] {
                let got = flat.search(query, n);
                assert_eq!(got.len(), n.min(rows.len()));
                assert_eq!(bits(&got), bits(&oracle(metric, &rows, query, n)), "{metric:?} n={n}");
            }
        }
    }
    assert!(FlatIndex::cosine().search(&queries[0], 5).is_empty(), "empty index");
}

#[test]
fn mutable_search_equals_a_fresh_flat_index_over_the_survivors() {
    let rows = random_vectors(21, 80, 24);
    let query = random_vectors(22, 1, 24).remove(0);
    let half: Vec<usize> = (0..80).filter(|id| id % 2 == 0).collect();
    let all_but_one: Vec<usize> = (0..80).filter(|&id| id != 33).collect();
    for dead in [Vec::new(), half, all_but_one] {
        let mut index = filled(MutableIndex::cosine(), &rows);
        for &id in &dead {
            assert!(index.tombstone(id));
        }
        let survivors: Vec<usize> = (0..80).filter(|id| !dead.contains(id)).collect();
        let live_rows: Vec<Vec<f32>> = survivors.iter().map(|&id| rows[id].clone()).collect();
        let fresh = filled(FlatIndex::cosine(), &live_rows);
        for n in [1, 10, 80] {
            let expected: Vec<Hit> = fresh
                .search(&query, n)
                .into_iter()
                .map(|h| Hit { id: survivors[h.id], score: h.score })
                .collect();
            assert_eq!(index.search(&query, n), expected, "{} dead, n={n}", dead.len());
        }
    }
}

#[test]
fn every_index_scores_a_pair_with_the_same_bits() {
    let rows = random_vectors(31, 300, 40);
    let queries = random_vectors(32, 4, 40);
    for metric in METRICS {
        let flat = filled(FlatIndex::new(metric), &rows);
        let hnsw = filled(HnswIndex::new(metric, HnswConfig::default()), &rows);
        let mutable = filled(MutableIndex::with_hnsw(metric, HnswConfig::default()), &rows);
        for query in &queries {
            let exact = flat.search(query, rows.len());
            let score_of = |id: usize| exact.iter().find(|h| h.id == id).map(|h| h.score.to_bits());
            for hits in [hnsw.search(query, 10), mutable.search(query, 10)] {
                assert_eq!(hits.len(), 10);
                for h in hits {
                    assert_eq!(Some(h.score.to_bits()), score_of(h.id), "{metric:?} id {}", h.id);
                }
            }
        }
    }
}

/// The floor sits a margin under what this seeded set measures (HNSW
/// 0.972); every input is seeded, so a drop below it is a broken index,
/// not noise.
#[test]
fn approximate_indexes_keep_recall_against_the_exact_scan() {
    let mut rows = random_vectors(41, 2000, 64);
    rows.iter_mut().for_each(|row| sage_nn::matrix::l2_normalize(row));
    let queries = random_vectors(42, 25, 64);
    let flat = filled(FlatIndex::cosine(), &rows);
    let hnsw = filled(HnswIndex::cosine(), &rows);
    let found: usize = queries
        .iter()
        .map(|q| {
            let truth: HashSet<usize> = flat.search(q, 10).into_iter().map(|h| h.id).collect();
            hnsw.search(q, 10).iter().filter(|h| truth.contains(&h.id)).count()
        })
        .sum();
    let hnsw_recall = found as f64 / (10 * queries.len()) as f64;
    assert!(hnsw_recall >= 0.90, "HNSW recall@10 = {hnsw_recall}");
}
