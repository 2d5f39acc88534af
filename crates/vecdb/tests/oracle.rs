//! The scan, the top-N and the mutable index against exact oracles.
//!
//! Two oracles. For "which rows, in what order": score every row with
//! `Metric::similarity`, sort by (score descending under `total_cmp`, id
//! ascending), truncate. For "which bits": [`row_major`], the row-major
//! arena scan `FlatIndex` had before its rows went dimension-major — kept
//! verbatim, with its own copy of `dot`, so the blocked scan's claim (every
//! (query, row) pair keeps its bits although most of its terms are never
//! computed) is checked against code that computes all of them. Hits are
//! compared as `(id, score bits)`, so a NaN score compares too.

#![allow(clippy::disallowed_types, reason = "tests may time and hash freely")]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage_vecdb::{FlatIndex, Hit, Metric, MutableIndex, VectorIndex};

const METRICS: [Metric; 3] = [Metric::Cosine, Metric::Dot, Metric::NegEuclidean];

/// The scan as it was over row-major rows: `Arena::top_n`, `Metric::score`
/// and `dot` of `sage-vecdb` before PR 24, bodies unchanged.
mod row_major {
    use sage_vecdb::{Hit, Metric};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

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

    #[derive(Debug, Clone, Copy)]
    struct Normed<'a> {
        vector: &'a [f32],
        norm: f32,
    }

    impl<'a> Normed<'a> {
        fn new(vector: &'a [f32]) -> Self {
            Self { vector, norm: dot(vector, vector).sqrt() }
        }
    }

    fn score(metric: Metric, a: Normed<'_>, b: Normed<'_>) -> f32 {
        match metric {
            Metric::Dot => dot(a.vector, b.vector),
            Metric::Cosine => {
                if a.norm == 0.0 || b.norm == 0.0 {
                    0.0
                } else {
                    dot(a.vector, b.vector) / (a.norm * b.norm)
                }
            }
            Metric::NegEuclidean => {
                let mut s = 0.0;
                for (x, y) in a.vector.iter().zip(b.vector) {
                    let d = x - y;
                    s += d * d;
                }
                -s.sqrt()
            }
        }
    }

    const LANES: usize = 16;

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        let (a_chunks, b_chunks) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
        let tail: f32 =
            a_chunks.remainder().iter().zip(b_chunks.remainder()).map(|(x, y)| x * y).sum();
        let mut acc = [0.0f32; LANES];
        for (xs, ys) in a_chunks.zip(b_chunks) {
            for ((s, x), y) in acc.iter_mut().zip(xs).zip(ys) {
                *s += x * y;
            }
        }
        let mut width = LANES;
        while width > 1 {
            width /= 2;
            let (lo, hi) = acc.split_at_mut(width);
            for (l, h) in lo.iter_mut().zip(hi.iter()) {
                *l += *h;
            }
        }
        let [total, ..] = acc;
        total + tail
    }

    pub struct Arena {
        metric: Metric,
        dim: usize,
        data: Vec<f32>,
        norms: Vec<f32>,
    }

    impl Arena {
        pub fn new(metric: Metric, rows: &[Vec<f32>]) -> Self {
            let mut arena = Self { metric, dim: 0, data: Vec::new(), norms: Vec::new() };
            for row in rows {
                arena.push(row);
            }
            arena
        }

        fn len(&self) -> usize {
            self.norms.len()
        }

        fn push(&mut self, vector: &[f32]) -> usize {
            if self.dim == 0 {
                assert!(!vector.is_empty(), "cannot index empty vectors");
                self.dim = vector.len();
            }
            assert_eq!(vector.len(), self.dim);
            self.data.extend_from_slice(vector);
            self.norms.push(Normed::new(vector).norm);
            self.len() - 1
        }

        fn row(&self, id: usize) -> Option<Normed<'_>> {
            let norm = *self.norms.get(id)?;
            let vector = self.data.get(id * self.dim..(id + 1) * self.dim)?;
            Some(Normed { vector, norm })
        }

        fn query<'a>(&self, query: &'a [f32]) -> Normed<'a> {
            assert_eq!(query.len(), self.dim, "query dim mismatch");
            Normed::new(query)
        }

        fn score(&self, query: Normed<'_>, id: usize) -> f32 {
            self.row(id).map_or(f32::NEG_INFINITY, |row| score(self.metric, query, row))
        }

        pub fn top_n(&self, query: &[f32], n: usize, ids: impl Iterator<Item = usize>) -> Vec<Hit> {
            let query = self.query(query);
            let mut heap = BinaryHeap::with_capacity(n.min(self.len()));
            for id in ids {
                let hit = HeapHit(Hit { id, score: self.score(query, id) });
                if heap.len() < n {
                    heap.push(hit);
                } else if let Some(mut worst) = heap.peek_mut() {
                    if hit < *worst {
                        *worst = hit;
                    }
                }
            }
            heap.into_sorted_vec().into_iter().map(|h| h.0).collect()
        }
    }
}

fn random_vectors(seed: u64, count: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect()
}

/// Rows shaped like the hashed embedder's: about a sixth of the entries
/// set, both signs, the rest a zero of either sign.
fn sparse_vectors(seed: u64, count: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entry = || match rng.random_range(0..12u32) {
        0 | 1 => rng.random_range(-1.0f32..1.0),
        2 => -0.0,
        _ => 0.0,
    };
    (0..count).map(|_| (0..dim).map(|_| entry()).collect()).collect()
}

/// A query that is zero (of either sign) outside `support`.
fn query_on(seed: u64, dim: usize, support: &[usize]) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut query: Vec<f32> = (0..dim).map(|i| if i % 3 == 0 { -0.0 } else { 0.0 }).collect();
    for &i in support {
        let sign = if rng.random_range(0..2u32) == 0 { -1.0 } else { 1.0 };
        query[i] = sign * rng.random_range(0.05f32..1.0);
    }
    query
}

/// Supports the lane layout could get wrong: a single entry at either end,
/// everything in one lane, one entry in each lane, only the tail past the
/// last whole lane chunk, a hashed-like scatter, and every dimension.
fn supports(dim: usize) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(dim as u64);
    let chunks = dim / 16;
    vec![
        Vec::new(),
        vec![0],
        vec![dim - 1],
        (0..chunks).map(|chunk| chunk * 16 + 5).collect(),
        (0..16 * chunks.min(1)).map(|lane| lane % chunks * 16 + lane).collect(),
        (chunks * 16..dim).collect(),
        (0..dim.min(10)).map(|_| rng.random_range(0..dim)).collect(),
        (0..dim).collect(),
    ]
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
    for id in (0..60).step_by(4) {
        rows[id][20] = if id % 8 == 0 { 0.0 } else { -0.0 }; // what `inf_query` meets
    }
    // Rows are finite, so a score that is not comes from the query. One NaN
    // entry makes every score NaN (`total_cmp` ranks it first); `+inf`
    // against a zero row entry is NaN of the other sign (ranked last),
    // against any other ±inf, and under cosine a zero row still scores 0.0.
    let mut nan_query = random_vectors(13, 1, dim).remove(0);
    nan_query[5] = f32::NAN;
    let mut inf_query = random_vectors(14, 1, dim).remove(0);
    inf_query[20] = f32::INFINITY;
    let queries = [
        rows[3].clone(),
        vec![0.0; dim],
        random_vectors(12, 1, dim).remove(0),
        nan_query,
        inf_query,
    ];
    for metric in METRICS {
        let flat = filled(FlatIndex::new(metric), &rows);
        let arena = row_major::Arena::new(metric, &rows);
        for (q, query) in queries.iter().enumerate() {
            for n in [0, 1, 5, 59, 60, 61, 1000] {
                let got = flat.search(query, n);
                assert_eq!(got.len(), n.min(rows.len()));
                let sorted = oracle(metric, &rows, query, n);
                assert_eq!(bits(&got), bits(&sorted), "{metric:?} query {q} n={n}");
                let scanned = arena.top_n(query, n, 0..rows.len());
                assert_eq!(bits(&got), bits(&scanned), "{metric:?} query {q} n={n}");
            }
        }
    }
    let nan_scores = |query: &[f32]| {
        let hits = filled(FlatIndex::new(Metric::Dot), &rows).search(query, rows.len());
        hits.iter().filter(|h| h.score.is_nan()).count()
    };
    assert_eq!((nan_scores(&queries[3]), nan_scores(&queries[4])), (60, 16), "rows 12, 0, 4 ..");
    assert!(FlatIndex::cosine().search(&queries[0], 5).is_empty(), "empty index");
}

/// Every dimensionality up to past two lane chunks (so every tail length)
/// and the embedders' 256, over lengths on both sides of a block edge.
#[test]
fn the_blocked_scan_keeps_the_row_major_scan_s_ids_and_bits() {
    for dim in (1..=40).chain([256]) {
        for len in [1, 63, 64, 65, 150] {
            let mut rows = if dim % 2 == 0 {
                sparse_vectors(dim as u64, len, dim)
            } else {
                random_vectors(dim as u64, len, dim)
            };
            if len > 40 {
                rows[17] = rows[2].clone(); // ties, across a block edge at 64
                rows[len - 1] = rows[2].clone();
                rows[9] = vec![0.0; dim];
            }
            for metric in METRICS {
                let flat = filled(FlatIndex::new(metric), &rows);
                let arena = row_major::Arena::new(metric, &rows);
                for (s, support) in supports(dim).iter().enumerate() {
                    let query = query_on(s as u64, dim, support);
                    for n in [1, 32, len, len + 7] {
                        assert_eq!(
                            bits(&flat.search(&query, n)),
                            bits(&arena.top_n(&query, n, 0..len)),
                            "{metric:?} dim {dim} len {len} support {support:?} n {n}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_tombstone_filter_scans_like_the_row_major_scan_over_the_living() {
    let (dim, len) = (256, 200);
    let rows = sparse_vectors(51, len, dim);
    let live = |id: &usize| id % 3 != 1 && *id != 63 && *id != 128; // 64 and 199 die too
    for metric in METRICS {
        let mut index = filled(MutableIndex::new(metric), &rows);
        for id in (0..len).filter(|id| !live(id)) {
            assert!(index.tombstone(id));
        }
        let arena = row_major::Arena::new(metric, &rows);
        for (s, support) in supports(dim).iter().enumerate() {
            let query = query_on(60 + s as u64, dim, support);
            for n in [1, 32, len] {
                assert_eq!(
                    bits(&index.search(&query, n)),
                    bits(&arena.top_n(&query, n, (0..len).filter(live))),
                    "{metric:?} support {support:?} n {n}"
                );
            }
        }
    }
}

/// `rows` as one block to append: a column-major index of their own.
fn block(metric: Metric, rows: &[Vec<f32>]) -> FlatIndex {
    let dim = rows.first().map_or(0, Vec::len);
    FlatIndex::filled(metric, dim, rows.len(), |id, row| row.copy_from_slice(&rows[id]))
}

fn norm_bits(index: &FlatIndex) -> Vec<u32> {
    index.norms().iter().map(|v| v.to_bits()).collect()
}

/// `appended` and `added` hold the same rows: the same bytes, norms,
/// `memory_bytes` and search bits, and the row-major scan's.
fn assert_appended_like_added(appended: &MutableIndex, added: &MutableIndex, what: &str) {
    let (a, b) = (appended.as_flat(), added.as_flat());
    assert_eq!(a.to_bytes(), b.to_bytes(), "{what}");
    assert_eq!(norm_bits(a), norm_bits(b), "{what}");
    assert_eq!(appended.memory_bytes(), added.memory_bytes(), "{what}");
    assert_eq!(a.memory_bytes(), b.memory_bytes(), "{what}");
    assert_eq!((appended.len(), appended.dead_count()), (added.len(), added.dead_count()));
    if added.is_empty() {
        return;
    }
    for query in layout_queries(added.len() as u64, added.dim()) {
        for n in [1, 10, added.len()] {
            let (got, want) = (appended.search(&query, n), added.search(&query, n));
            assert_eq!(bits(&got), bits(&want), "{what}, n {n}");
        }
    }
}

/// Blocks appended in one pass each leave the index `add` leaves row by
/// row: across capacity doublings (one block growing the columns three
/// times), after an in-place compaction (into the freed room, then past
/// it) and into an empty index (fresh, and emptied by a compaction).
#[test]
fn a_block_appended_in_one_pass_equals_its_rows_added_one_by_one() {
    let dim = 40;
    let rows = sparse_vectors(96, 700, dim);
    let dies = |id: usize| id.is_multiple_of(3) || (30..45).contains(&id);
    for metric in METRICS {
        // (rows before the appends, whether to compact them first, sizes).
        let cases: [(usize, bool, &[usize]); 5] = [
            (0, false, &[300, 1, 0, 63, 64, 200]),
            (50, false, &[14, 1, 400]),
            (120, true, &[10, 60, 200]),
            (0, false, &[1]),
            (60, true, &[]),
        ];
        for (before, compact, sizes) in cases {
            let what = format!("{metric:?}: {before} rows, compacted {compact}, blocks {sizes:?}");
            // Two indexes built alike: a clone would not keep the capacities.
            let mut appended = filled(MutableIndex::new(metric), &rows[..before]);
            let mut added = filled(MutableIndex::new(metric), &rows[..before]);
            if compact {
                for id in (0..before).filter(|&id| dies(id)) {
                    assert!(appended.tombstone(id) && added.tombstone(id));
                }
                assert_eq!(appended.compact(), added.compact(), "{what}");
            }
            let mut next = before;
            for &size in sizes {
                let batch = &rows[next..next + size];
                assert_eq!(appended.append(&block(metric, batch)), added.len(), "{what}");
                for row in batch {
                    added.add(row.clone());
                }
                next += size;
                assert_appended_like_added(&appended, &added, &format!("{what} at {next}"));
            }
            // Every row killed: a compaction empties the index and a block
            // of another width starts it again.
            for id in 0..appended.len() {
                assert_eq!(appended.tombstone(id), added.tombstone(id), "{what}");
            }
            appended.compact();
            added.compact();
            let wider = sparse_vectors(97, 70, dim + 5);
            appended.append(&block(metric, &wider));
            wider.iter().for_each(|row| {
                added.add(row.clone());
            });
            assert_appended_like_added(&appended, &added, &format!("{what}, emptied"));
        }
    }
}

/// A compaction whose columns are cut into one, two, three or more ranges
/// than there are columns, run in any order on threads of their own,
/// leaves the index the serial compaction leaves.
#[test]
fn a_compaction_cut_into_column_ranges_equals_the_serial_one() {
    let (dim, len) = (37, 300);
    let rows = sparse_vectors(98, len, dim);
    let kills: [&dyn Fn(usize) -> bool; 4] =
        [&|id| id % 2 == 0, &|id| (60..200).contains(&id), &|id| id != 299, &|_| true];
    for metric in METRICS {
        for kill in kills {
            // Built alike each time: a clone would not keep the capacities.
            let tombstoned = || {
                let mut index = filled(MutableIndex::new(metric), &rows);
                (0..len).filter(|&id| kill(id)).for_each(|id| assert!(index.tombstone(id)));
                index
            };
            let mut serial = tombstoned();
            let remap = serial.compact();
            for parts in [1, 2, 3, dim + 4] {
                let mut split = tombstoned();
                let mut handed = 0;
                let split_remap = split.compact_on(parts, |ranges| {
                    handed = ranges.len();
                    std::thread::scope(|scope| {
                        for range in ranges.into_iter().rev() {
                            scope.spawn(move || range.run());
                        }
                    });
                });
                let what = format!("{metric:?} in {parts} parts");
                assert_eq!(split_remap, remap, "{what}");
                if !split.is_empty() {
                    assert_eq!(handed, parts.min(dim), "{what}");
                }
                assert_appended_like_added(&split, &serial, &what);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_support_keeps_the_row_major_bits(
        dim in 1usize..80,
        len in 1usize..140,
        support in proptest::collection::vec(0usize..80, 0..20),
        seed in 0u64..1_000_000,
        dense_rows in 0u32..2,
    ) {
        let support: Vec<usize> = support.into_iter().map(|i| i % dim).collect();
        let rows = if dense_rows == 1 {
            random_vectors(seed, len, dim)
        } else {
            sparse_vectors(seed, len, dim)
        };
        let query = query_on(seed + 1, dim, &support);
        for metric in METRICS {
            let flat = filled(FlatIndex::new(metric), &rows);
            let arena = row_major::Arena::new(metric, &rows);
            prop_assert_eq!(
                bits(&flat.search(&query, 10)),
                bits(&arena.top_n(&query, 10, 0..len)),
                "{:?} dim {} len {} support {:?}", metric, dim, len, support
            );
        }
    }
}

#[test]
fn rows_come_back_as_they_went_in() {
    for (len, dim) in [(1, 1), (63, 5), (64, 16), (65, 37), (200, 256)] {
        let rows = sparse_vectors(71, len, dim);
        let flat = filled(FlatIndex::new(Metric::Dot), &rows);
        let as_bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut walked = Vec::new();
        flat.for_each_row(|row| walked.push(as_bits(row)));
        assert_eq!(walked, rows.iter().map(|row| as_bits(row)).collect::<Vec<_>>());
        for id in [0, len / 2, len - 1] {
            assert_eq!(flat.vector(id).map(|row| as_bits(&row)), Some(as_bits(&rows[id])));
        }
        assert_eq!(flat.vector(len), None);
        let back = FlatIndex::from_bytes(&flat.to_bytes()).expect("roundtrip");
        assert_eq!(back.to_bytes(), flat.to_bytes());
    }
}

#[test]
fn a_blob_with_a_value_that_is_not_finite_does_not_load() {
    let mut flat = FlatIndex::cosine();
    flat.add(vec![0.5, 0.25, -1.0]);
    flat.add(vec![1.0, 2.0, 3.0]);
    let blob = flat.to_bytes();
    assert!(FlatIndex::from_bytes(&blob).is_some());
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut blob = blob.clone();
        let at = blob.len() - 8; // the last row's middle value
        blob[at..at + 4].copy_from_slice(&bad.to_le_bytes());
        assert!(FlatIndex::from_bytes(&blob).is_none(), "{bad}");
    }
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

/// Compaction moves survivors a run at a time; what it leaves must be the
/// index a fresh one fed the survivors is — same remap, same hits, same
/// bits — across block edges, down to none.
#[test]
fn compaction_equals_a_fresh_index_over_the_survivors() {
    let (dim, len) = (40, 300);
    let rows = sparse_vectors(81, len, dim);
    let queries = random_vectors(82, 3, dim);
    let kills: [&dyn Fn(usize) -> bool; 5] = [
        &|_| false,
        &|id| id % 2 == 0,
        &|id| (60..200).contains(&id),
        &|id| id != 299,
        &|_| true,
    ];
    for kill in kills {
        let mut index = filled(MutableIndex::cosine(), &rows);
        (0..len).filter(|&id| kill(id)).for_each(|id| assert!(index.tombstone(id)));
        let remap = index.compact();
        let survivors: Vec<usize> = (0..len).filter(|&id| !kill(id)).collect();
        let expected_remap: Vec<Option<usize>> =
            (0..len).map(|id| survivors.iter().position(|&s| s == id)).collect();
        assert_eq!(remap, expected_remap);
        let live_rows: Vec<Vec<f32>> = survivors.iter().map(|&id| rows[id].clone()).collect();
        let fresh = filled(MutableIndex::cosine(), &live_rows);
        assert_eq!((index.len(), index.dead_count()), (survivors.len(), 0));
        assert_eq!(index.dim(), fresh.dim(), "no survivor, no dimensionality");
        for query in &queries {
            assert_eq!(bits(&index.search(query, 12)), bits(&fresh.search(query, 12)));
        }
        // And it keeps taking rows where the survivors end — of any
        // width once none is left.
        let next = if survivors.is_empty() { vec![0.5; dim + 3] } else { rows[0].clone() };
        assert_eq!(index.add(next.clone()), survivors.len());
        let mut fresh = fresh;
        fresh.add(next.clone());
        assert_eq!(bits(&index.search(&next, 5)), bits(&fresh.search(&next, 5)));
    }
}

#[test]
fn every_index_scores_a_pair_with_the_same_bits() {
    let rows = random_vectors(31, 300, 40);
    let queries = random_vectors(32, 4, 40);
    for metric in METRICS {
        let flat = filled(FlatIndex::new(metric), &rows);
        let mutable = filled(MutableIndex::new(metric), &rows);
        for query in &queries {
            let exact = flat.search(query, rows.len());
            let score_of = |id: usize| exact.iter().find(|h| h.id == id).map(|h| h.score.to_bits());
            let hits = mutable.search(query, 10);
            assert_eq!(hits.len(), 10);
            for h in hits {
                assert_eq!(Some(h.score.to_bits()), score_of(h.id), "{metric:?} id {}", h.id);
            }
        }
    }
}

/// Queries that exercise the column layout: the empty support, one column
/// at either end, a hashed-like scatter and every column at once.
fn layout_queries(seed: u64, dim: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let scatter: Vec<usize> = (0..dim.min(16)).map(|_| rng.random_range(0..dim)).collect();
    [Vec::new(), vec![0], vec![dim - 1], scatter, (0..dim).collect()]
        .iter()
        .enumerate()
        .map(|(s, support)| query_on(seed + s as u64, dim, support))
        .collect()
}

/// `index` holds `rows` (in id order): every query of [`layout_queries`]
/// at several `n` gives the row-major scan's ids and bits, under `metric`.
fn assert_scans_like_row_major(metric: Metric, index: &impl VectorIndex, rows: &[Vec<f32>]) {
    assert_eq!(index.len(), rows.len());
    if rows.is_empty() {
        return;
    }
    let dim = rows[0].len();
    let arena = row_major::Arena::new(metric, rows);
    for (q, query) in layout_queries(rows.len() as u64, dim).iter().enumerate() {
        for n in [1, 10, rows.len()] {
            assert_eq!(
                bits(&index.search(query, n)),
                bits(&arena.top_n(query, n, 0..rows.len())),
                "{metric:?} {} rows of {dim}, query {q}, n {n}",
                rows.len()
            );
        }
    }
}

fn row_bits(index: &FlatIndex) -> Vec<Vec<u32>> {
    let mut walked = Vec::new();
    index.for_each_row(|row| walked.push(row.iter().map(|v| v.to_bits()).collect()));
    walked
}

/// `index` reads back `rows` as an index built by `add` alone does: the
/// same `to_bytes`, the rows themselves from `for_each_row`, and the same
/// `vector` of every id.
fn assert_reads_like_added(index: &FlatIndex, rows: &[Vec<f32>], metric: Metric) {
    let added = filled(FlatIndex::new(metric), rows);
    assert_eq!(index.to_bytes(), added.to_bytes(), "{} rows", rows.len());
    let as_bits: Vec<Vec<u32>> =
        rows.iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect();
    assert_eq!(row_bits(index), as_bits, "{} rows", rows.len());
    assert_eq!(row_bits(&added), as_bits, "{} rows", rows.len());
    for id in 0..=rows.len() {
        let got = index.vector(id).map(|row| row.iter().map(|v| v.to_bits()).collect());
        assert_eq!(got.as_ref(), as_bits.get(id), "row {id} of {}", rows.len());
        assert_eq!(index.vector(id), added.vector(id), "row {id} of {}", rows.len());
    }
}

/// `add` with no `reserve` grows the columns 64 → 128 → 256 → 512 rows;
/// at each edge and between them the scan and the reads are the
/// row-major scan's and the `add` loop's.
#[test]
fn adds_across_three_capacity_doublings_scan_like_the_row_major_scan() {
    let (dim, len) = (40, 300);
    let rows = sparse_vectors(91, len, dim);
    for metric in METRICS {
        let mut index = FlatIndex::new(metric);
        for (id, row) in rows.iter().enumerate() {
            assert_eq!(index.add(row.clone()), id);
            if [1, 63, 64, 65, 128, 129, 256, 257, 300].contains(&index.len()) {
                assert_scans_like_row_major(metric, &index, &rows[..=id]);
            }
        }
        assert_reads_like_added(&index, &rows, metric);
    }
}

/// A `reserve` made before the dimensionality is known sizes the columns
/// at the first `add`; adding past it grows them like an unreserved index.
#[test]
fn reserve_before_the_first_add_then_past_it_scans_like_the_row_major_scan() {
    let (dim, len) = (33, 150);
    let rows = random_vectors(92, len, dim);
    for metric in METRICS {
        let mut index = FlatIndex::new(metric);
        index.reserve(100);
        for (id, row) in rows.iter().enumerate() {
            index.add(row.clone());
            if [1, 100, 128, 129, 150].contains(&index.len()) {
                assert_scans_like_row_major(metric, &index, &rows[..=id]);
            }
        }
        assert_reads_like_added(&index, &rows, metric);
    }
}

/// Compaction works in place and keeps the capacity: rows added after it
/// land in the freed room, then grow the columns past it, and the index
/// scans and reads like one built by `add` over the survivors and the new
/// rows.
#[test]
fn rows_added_after_an_in_place_compaction_reuse_the_freed_room() {
    let (dim, len) = (24, 200);
    let rows = sparse_vectors(93, len + 200, dim);
    let dies = |id: usize| id.is_multiple_of(3) || (100..140).contains(&id);
    for metric in METRICS {
        let mut index = filled(MutableIndex::new(metric), &rows[..len]);
        (0..len).filter(|&id| dies(id)).for_each(|id| assert!(index.tombstone(id)));
        let room = index.memory_bytes();
        index.compact();
        assert_eq!(index.memory_bytes(), room, "compaction keeps the capacity");
        let mut live: Vec<Vec<f32>> =
            (0..len).filter(|&id| !dies(id)).map(|id| rows[id].clone()).collect();
        assert_scans_like_row_major(metric, &index, &live);
        let survivors = live.len();
        for row in &rows[len..] {
            index.add(row.clone());
            live.push(row.clone());
            // The 200 rows grew the columns to 256; the 257th grows them again.
            assert_eq!(index.memory_bytes() == room, index.len() <= 256, "{} rows", index.len());
            if [survivors + 1, 256, 257].contains(&index.len()) {
                assert_scans_like_row_major(metric, &index, &live);
            }
        }
        assert_eq!((survivors, index.len()), (106, 306));
        assert_scans_like_row_major(metric, &index, &live);
        let fresh = filled(MutableIndex::new(metric), &live);
        for query in layout_queries(94, dim) {
            assert_eq!(bits(&index.search(&query, 20)), bits(&fresh.search(&query, 20)));
        }
    }
}

/// Ranges written through `rows_mut`, the last one ending inside a tile,
/// scan like the row-major scan and read like the `add` loop.
#[test]
fn ranges_ending_in_a_partial_tile_scan_like_the_row_major_scan() {
    let dim = 48;
    for (len, cuts) in
        [(1, vec![]), (63, vec![]), (150, vec![64]), (150, vec![128]), (257, vec![64, 192])]
    {
        let rows = random_vectors(95 + len as u64, len, dim);
        let bounds: Vec<usize> = [0].into_iter().chain(cuts).chain([len]).collect();
        let ranges: Vec<std::ops::Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
        for metric in METRICS {
            let mut index = FlatIndex::zeroed(metric, dim, len);
            for writer in index.rows_mut(&ranges) {
                writer.fill(|id, row| row.copy_from_slice(&rows[id]));
            }
            assert_scans_like_row_major(metric, &index, &rows);
            assert_reads_like_added(&index, &rows, metric);
            let whole =
                FlatIndex::filled(metric, dim, len, |id, row| row.copy_from_slice(&rows[id]));
            assert_eq!(whole.to_bytes(), index.to_bytes(), "{len} rows");
            let loaded = FlatIndex::from_bytes(&index.to_bytes()).expect("a well-formed blob");
            assert_scans_like_row_major(metric, &loaded, &rows);
            assert_reads_like_added(&loaded, &rows, metric);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Adds, tombstones, compactions and searches in any order: every
    /// search gives the ids and bits of a fresh index over the living rows
    /// (ids mapped back to slots) and of the row-major scan over them.
    #[test]
    fn a_mutable_index_under_any_operations_scans_like_a_fresh_one(
        dim in 1usize..70,
        ops in proptest::collection::vec((0u32..20, 0u64..1_000_000), 1..300),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut row = |dim: usize| -> Vec<f32> {
            (0..dim)
                .map(|_| if rng.random_range(0..3u32) == 0 { rng.random_range(-1.0f32..1.0) } else { 0.0 })
                .collect()
        };
        for metric in METRICS {
            let mut index = MutableIndex::new(metric);
            // The slots in id order: each row and whether it is alive.
            let mut slots: Vec<(Vec<f32>, bool)> = Vec::new();
            for &(op, arg) in &ops {
                match op {
                    0..=10 => {
                        let next = row(dim);
                        prop_assert_eq!(index.add(next.clone()), slots.len());
                        slots.push((next, true));
                    }
                    11..=14 if !slots.is_empty() => {
                        let id = arg as usize % slots.len();
                        prop_assert_eq!(index.tombstone(id), slots[id].1);
                        slots[id].1 = false;
                    }
                    15 => {
                        let remap = index.compact();
                        let mut next = 0;
                        for (old, (_, alive)) in slots.iter().enumerate() {
                            prop_assert_eq!(remap[old], alive.then_some(next));
                            next += usize::from(*alive);
                        }
                        slots.retain(|slot| slot.1);
                    }
                    _ => {
                        let n = arg as usize % 40 + 1;
                        let query = query_on(arg, dim, &[arg as usize % dim, (arg as usize / 7) % dim]);
                        let living: Vec<usize> = (0..slots.len()).filter(|&id| slots[id].1).collect();
                        let live_rows: Vec<Vec<f32>> = living.iter().map(|&id| slots[id].0.clone()).collect();
                        let fresh: Vec<Hit> = filled(FlatIndex::new(metric), &live_rows)
                            .search(&query, n)
                            .into_iter()
                            .map(|h| Hit { id: living[h.id], score: h.score })
                            .collect();
                        let got = index.search(&query, n);
                        prop_assert_eq!(bits(&got), bits(&fresh), "{:?} dim {}", metric, dim);
                        if !slots.is_empty() {
                            let all: Vec<Vec<f32>> = slots.iter().map(|slot| slot.0.clone()).collect();
                            let arena = row_major::Arena::new(metric, &all);
                            let scanned = arena.top_n(&query, n, living.iter().copied());
                            prop_assert_eq!(bits(&got), bits(&scanned), "{:?} dim {}", metric, dim);
                        }
                    }
                }
            }
        }
    }
}
