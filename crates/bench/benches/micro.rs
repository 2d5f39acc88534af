//! Criterion micro-benchmarks for the performance-critical substrates:
//! segmentation throughput (the paper's tokens/s column), vector-index
//! query latency (flat vs HNSW), BM25 query throughput, reranker scoring,
//! sentence embedding, and metric computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage::corpus::datasets::{wiki, SizeConfig};
use sage::prelude::*;
use std::hint::black_box;

fn corpus_chunks(n_docs: usize) -> Vec<String> {
    let ds = wiki::generate(SizeConfig { num_docs: n_docs, questions_per_doc: 0, seed: 0xBE7C });
    let seg = SentenceSegmenter { max_tokens: 60 };
    ds.documents.iter().flat_map(|d| seg.segment(&d.text())).collect()
}

fn bench_segmentation(c: &mut Criterion) {
    let models = sage_bench::models();
    let ds = wiki::generate(SizeConfig { num_docs: 2, questions_per_doc: 0, seed: 1 });
    let text = ds.documents[0].text();
    let tokens = sage::text::count_tokens(&text) as u64;
    let segmenter = SemanticSegmenter::new(models.segmentation.clone());
    let mut group = c.benchmark_group("segmentation");
    group.throughput(criterion::Throughput::Elements(tokens));
    group.bench_function("semantic_segment_document", |b| {
        b.iter(|| black_box(segmenter.segment(black_box(&text))))
    });
    group.bench_function("sentence_segment_document", |b| {
        let seg = SentenceSegmenter::naive_rag();
        b.iter(|| black_box(seg.segment(black_box(&text))))
    });
    group.finish();
}

fn bench_vecdb(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut unit_vectors = |n: usize, dim: usize| -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| {
                let mut v: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
                sage::nn::matrix::l2_normalize(&mut v);
                v
            })
            .collect()
    };
    let mut group = c.benchmark_group("vecdb_query");
    for &n in &[1_000usize, 10_000] {
        let vectors = unit_vectors(n, 64);
        let mut flat = FlatIndex::cosine();
        let mut hnsw = HnswIndex::cosine();
        for v in &vectors {
            flat.add(v.clone());
            hnsw.add(v.clone());
        }
        let query = vectors[n / 2].clone();
        group.bench_with_input(BenchmarkId::new("flat_top10", n), &n, |b, _| {
            b.iter(|| black_box(flat.search(black_box(&query), 10)))
        });
        group.bench_with_input(BenchmarkId::new("hnsw_top10", n), &n, |b, _| {
            b.iter(|| black_box(hnsw.search(black_box(&query), 10)))
        });
    }
    // The repo benchmark's `ask_dense` shape (23k chunks x 256-d, top 32):
    // a 24 MB arena, where the scan runs at memory speed, not cache speed.
    let n = 23_000usize;
    let vectors = unit_vectors(n, 256);
    let query = vectors[n / 2].clone();
    let mut flat = FlatIndex::cosine();
    flat.reserve(n);
    for v in vectors {
        flat.add(v);
    }
    group.bench_with_input(BenchmarkId::new("flat_top32", n), &n, |b, _| {
        b.iter(|| black_box(flat.search(black_box(&query), 32)))
    });
    group.finish();
}

fn bench_bm25(c: &mut Criterion) {
    let chunks = corpus_chunks(20);
    let mut retriever = Bm25Retriever::new();
    retriever.index(&chunks);
    let mut group = c.benchmark_group("bm25");
    group.bench_function(format!("query_{}_chunks", chunks.len()), |b| {
        b.iter(|| {
            black_box(retriever.retrieve(black_box("where does the baker live in town"), 20))
        })
    });
    group.finish();
}

fn bench_rerank(c: &mut Criterion) {
    let models = sage_bench::models();
    let chunks = corpus_chunks(4);
    let refs: Vec<&str> = chunks.iter().map(String::as_str).collect();
    let mut group = c.benchmark_group("rerank");
    group.throughput(criterion::Throughput::Elements(refs.len() as u64));
    group.bench_function(format!("score_{}_chunks", refs.len()), |b| {
        b.iter(|| {
            black_box(
                models.scorer.rerank(black_box("What is the color of the cat's eyes?"), &refs),
            )
        })
    });
    group.finish();
}

fn bench_embed(c: &mut Criterion) {
    use sage::embed::{Embedder, HashedEmbedder};
    let models = sage_bench::models();
    let hashed = HashedEmbedder::default_model();
    let sentence = "The quick brown fox jumped over the lazy dog near the harbor town.";
    let mut group = c.benchmark_group("embed_sentence");
    group.bench_function("hashed_256d", |b| b.iter(|| black_box(hashed.embed(black_box(sentence)))));
    group.bench_function("siamese_48d", |b| {
        b.iter(|| black_box(models.siamese.embed(black_box(sentence))))
    });
    group.bench_function("dual_query_48d", |b| {
        b.iter(|| black_box(models.dual.embed_query(black_box(sentence))))
    });
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let candidate = "the cat has bright green eyes and sleeps all day in the sun";
    let refs = vec!["a bright green eyed cat that sleeps in the sunshine all day".to_string()];
    let mut group = c.benchmark_group("metrics");
    group.bench_function("rouge_l", |b| b.iter(|| black_box(rouge_l(candidate, &refs))));
    group.bench_function("bleu4", |b| b.iter(|| black_box(bleu(candidate, &refs, 4))));
    group.bench_function("meteor", |b| b.iter(|| black_box(meteor(candidate, &refs))));
    group.bench_function("f1_match", |b| b.iter(|| black_box(f1_match(candidate, &refs))));
    group.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_segmentation, bench_vecdb, bench_bm25, bench_rerank, bench_embed, bench_metrics
}
criterion_main!(micro);
