//! Micro-benchmarks for the performance-critical substrates:
//! segmentation throughput (the paper's tokens/s column), vector-index
//! query latency (flat vs HNSW), BM25 query throughput, reranker scoring,
//! sentence embedding, and metric computation. One row per cell: the
//! median wall time of [`RUNS`] calls after one warm-up call.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage::corpus::datasets::{wiki, SizeConfig};
use sage::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Timed calls per cell.
const RUNS: usize = 31;

fn cell<R>(name: &str, mut f: impl FnMut() -> R) {
    black_box(f());
    let mut secs: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    println!("{name:<40} {:>12.2} us", 1e6 * secs[RUNS / 2]);
}

fn corpus_chunks(n_docs: usize) -> Vec<String> {
    let ds = wiki::generate(SizeConfig { num_docs: n_docs, questions_per_doc: 0, seed: 0xBE7C });
    let seg = SentenceSegmenter { max_tokens: 60 };
    ds.documents.iter().flat_map(|d| seg.segment(&d.text())).collect()
}

fn bench_segmentation() {
    let models = sage_bench::models();
    let ds = wiki::generate(SizeConfig { num_docs: 2, questions_per_doc: 0, seed: 1 });
    let text = ds.documents[0].text();
    let tokens = sage::text::count_tokens(&text);
    let segmenter = SemanticSegmenter::new(models.segmentation.clone());
    cell(&format!("semantic_segment_document ({tokens} tok)"), || segmenter.segment(black_box(&text)));
    let seg = SentenceSegmenter::naive_rag();
    cell("sentence_segment_document", || seg.segment(black_box(&text)));
}

fn bench_vecdb() {
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
    for &n in &[1_000usize, 10_000] {
        let vectors = unit_vectors(n, 64);
        let mut flat = FlatIndex::cosine();
        let mut hnsw = HnswIndex::cosine();
        for v in &vectors {
            flat.add(v.clone());
            hnsw.add(v.clone());
        }
        let query = vectors[n / 2].clone();
        cell(&format!("flat_top10/{n}"), || flat.search(black_box(&query), 10));
        cell(&format!("hnsw_top10/{n}"), || hnsw.search(black_box(&query), 10));
    }
    // The repo benchmark's `ask_dense` shape (23,321 chunks x 256-d, top 32).
    // The flat scan's cost follows the query's non-zeros (a hashed question
    // has about ten of 256; an every-dimension query is the row-major cost),
    // the graph walk's does not: at this size HNSW beats the scan on the
    // dense query and loses to it on the hashed one.
    let n = 23_321usize;
    let vectors = unit_vectors(n, 256);
    let dense = vectors[n / 2].clone();
    let hashed = sage::embed::Embedder::embed_query(
        &sage::embed::HashedEmbedder::default_model(),
        "Where does the baker of the harbor town live?",
    );
    let nonzeros = hashed.iter().filter(|v| **v != 0.0).count();
    let mut flat = FlatIndex::cosine();
    let mut hnsw = HnswIndex::cosine();
    flat.reserve(n);
    for v in vectors {
        hnsw.add(v.clone()); // ~17 s of graph build
        flat.add(v);
    }
    cell(&format!("flat_top32/{n} dense query"), || flat.search(black_box(&dense), 32));
    cell(&format!("flat_top32/{n} hashed query ({nonzeros} of 256)"), || {
        flat.search(black_box(&hashed), 32)
    });
    cell(&format!("hnsw_top32/{n} dense query"), || hnsw.search(black_box(&dense), 32));
    cell(&format!("hnsw_top32/{n} hashed query ({nonzeros} of 256)"), || {
        hnsw.search(black_box(&hashed), 32)
    });
}

/// A small index and one at the repo benchmark's `ask_bm25` shape (≈ 22k
/// chunks, top 32), where a query touches thousands of chunks.
fn bench_bm25() {
    for docs in [20, 2000] {
        let chunks = corpus_chunks(docs);
        let mut retriever = Bm25Retriever::new();
        cell(&format!("bm25 index_{}_chunks", chunks.len()), || {
            retriever.index(black_box(&chunks))
        });
        cell(&format!("bm25 query_{}_chunks", chunks.len()), || {
            retriever.retrieve(black_box("where does the baker live in town"), 32)
        });
    }
}

fn bench_rerank() {
    let models = sage_bench::models();
    let chunks = corpus_chunks(4);
    let refs: Vec<&str> = chunks.iter().map(String::as_str).collect();
    cell(&format!("rerank score_{}_chunks", refs.len()), || {
        models.scorer.rerank(black_box("What is the color of the cat's eyes?"), &refs)
    });
}

fn bench_embed() {
    use sage::embed::{Embedder, HashedEmbedder};
    let models = sage_bench::models();
    let hashed = HashedEmbedder::default_model();
    let sentence = "The quick brown fox jumped over the lazy dog near the harbor town.";
    cell("embed_sentence hashed_256d", || hashed.embed(black_box(sentence)));
    cell("embed_sentence siamese_48d", || models.siamese.embed(black_box(sentence)));
    cell("embed_sentence dual_query_48d", || models.dual.embed_query(black_box(sentence)));
}

fn bench_metrics() {
    let candidate = "the cat has bright green eyes and sleeps all day in the sun";
    let refs = vec!["a bright green eyed cat that sleeps in the sunshine all day".to_string()];
    cell("rouge_l", || rouge_l(candidate, &refs));
    cell("bleu4", || bleu(candidate, &refs, 4));
    cell("meteor", || meteor(candidate, &refs));
    cell("f1_match", || f1_match(candidate, &refs));
}

fn main() {
    sage_bench::header("micro", &format!("{:<40} {:>15}", "cell", "median"));
    bench_segmentation();
    bench_vecdb();
    bench_bm25();
    bench_rerank();
    bench_embed();
    bench_metrics();
}
