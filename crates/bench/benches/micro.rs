//! Micro-benchmarks for the performance-critical substrates:
//! segmentation throughput (the paper's tokens/s column), vector-index
//! query latency, BM25 query throughput, reranker scoring,
//! the simulated reader and judge, sentence embedding, the training step
//! and Adam update, and metric computation. One row per cell: the median
//! wall time of [`RUNS`] calls after one warm-up call.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage::corpus::datasets::{triviaqa, wiki, SizeConfig};
use sage::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Timed calls per cell.
const RUNS: usize = 31;

fn cell<R>(name: &str, f: impl FnMut() -> R) {
    cell_per(name, 1, f);
}

/// [`cell`] divided by the `per` items one call handles.
fn cell_per<R>(name: &str, per: usize, mut f: impl FnMut() -> R) {
    black_box(f());
    let mut secs: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    println!("{name:<40} {:>12.2} us", 1e6 * secs[RUNS / 2] / per as f64);
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
        let query = vectors[n / 2].clone();
        let mut flat = FlatIndex::cosine();
        for v in vectors {
            flat.add(v);
        }
        cell(&format!("flat_top10/{n}"), || flat.search(black_box(&query), 10));
    }
    // The repo benchmark's `ask_dense` shape (23,321 chunks x 256-d, top 32).
    // The flat scan's cost follows the query's non-zeros: a hashed question
    // streams about sixteen of the 256 columns, an every-dimension query
    // all of them at once.
    let n = 23_321usize;
    let vectors = unit_vectors(n, 256);
    let dense = vectors[n / 2].clone();
    let hashed = sage::embed::Embedder::embed_query(
        &sage::embed::HashedEmbedder::default_model(),
        "Where does the baker of the harbor town live?",
    );
    let nonzeros = hashed.iter().filter(|v| **v != 0.0).count();
    let mut flat = FlatIndex::cosine();
    flat.reserve(n);
    for v in vectors {
        flat.add(v);
    }
    cell(&format!("flat_top32/{n} dense query"), || flat.search(black_box(&dense), 32));
    cell(&format!("flat_top32/{n} hashed query ({nonzeros} of 256)"), || {
        flat.search(black_box(&hashed), 32)
    });
    // The SBERT / DPR shape: 48-d rows, a query with every dimension set,
    // which streams every column of the index at once.
    let vectors = unit_vectors(n, 48);
    let dense = vectors[n / 2].clone();
    let mut flat = FlatIndex::cosine();
    flat.reserve(n);
    for v in vectors {
        flat.add(v);
    }
    cell(&format!("flat_top32/{n} 48-d dense query"), || flat.search(black_box(&dense), 32));
    // The live store's shape: a mutable index of 6,000 hashed-size rows
    // takes 500 adds (one at a time, no reserve), loses 500 rows to
    // tombstones and compacts.
    let (base_rows, adds) = (6_000usize, 500usize);
    let vectors = unit_vectors(base_rows + adds, 256);
    let mut base = MutableIndex::cosine();
    for v in &vectors[..base_rows] {
        base.add(v.clone());
    }
    let added = &vectors[base_rows..];
    cell(&format!("mutable {base_rows}x256 +{adds} adds, -{adds}, compact"), || {
        let mut index = base.clone();
        for v in added {
            index.add(v.clone());
        }
        for id in (0..base_rows + adds).step_by(13).take(adds) {
            index.tombstone(id);
        }
        index.compact()
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

/// Candidates a query reranks (the pipeline's retrieval depth).
const PAIRS: usize = 32;

/// The rerank cell at the shape a query scores: one question against
/// [`PAIRS`] semantic chunks, per pair — over NarrativeQA chunks (`doc_qa`,
/// several sentences each) and TriviaQA chunks (the ask workloads, about
/// one sentence) — then each part of a pair alone over the same chunks.
fn bench_rerank() {
    use sage::corpus::datasets::{narrativeqa, triviaqa};
    use sage::embed::{Analysis, HashedEmbedder, SparseEmbedding};
    use sage::nn::layer::Activation;
    use sage::nn::matrix::Matrix;
    use sage::nn::Mlp;
    use sage::text::{count_tokens, proper_nouns, StemSet, TokenBuf, WordSet};
    let models = sage_bench::models();
    let segmenter = SemanticSegmenter::new(models.segmentation.clone());
    let size = SizeConfig { num_docs: 8, questions_per_doc: 1, seed: 0xBE7C };
    let datasets = [("narrativeqa", narrativeqa::generate(size)), ("triviaqa", triviaqa::generate(size))];
    for (name, ds) in datasets {
        let chunks: Vec<String> =
            ds.documents.iter().flat_map(|d| segmenter.segment(&d.text())).take(PAIRS).collect();
        let refs: Vec<&str> = chunks.iter().map(String::as_str).collect();
        let question = ds.tasks[0].item.question.as_str();
        let mut analyses: Vec<Analysis> = refs.iter().map(|c| Analysis::of(c)).collect();
        let tokens = refs.iter().map(|c| count_tokens(c)).sum::<usize>() / PAIRS;
        let pair = |part: &str| format!("  {part} /pair");
        cell_per(&format!("rerank {name} {PAIRS}x{tokens}tok /pair"), PAIRS, || {
            models.scorer.rerank(black_box(question), &refs)
        });
        let mut buf = TokenBuf::new();
        cell_per(&pair("TokenBuf::fill"), PAIRS, || {
            refs.iter().for_each(|c| buf.fill(black_box(c)))
        });
        let mut set = WordSet::new();
        cell_per(&pair("proper_nouns"), PAIRS, || {
            refs.iter().for_each(|c| proper_nouns(black_box(c), &mut set))
        });
        cell_per(&pair("stem"), PAIRS, || {
            for a in &mut analyses {
                let tokens = &mut black_box(&mut *a).tokens;
                for i in 0..tokens.len() {
                    if !tokens.is_stop(i) {
                        black_box(tokens.with_stem(i));
                    }
                }
            }
        });
        let mut stems = StemSet::new();
        cell_per(&pair("stem dedup"), PAIRS, || {
            analyses.iter_mut().for_each(|a| stems.fill(black_box(&mut a.tokens)))
        });
        let embedder = HashedEmbedder::default_model();
        let mut out = SparseEmbedding::default();
        cell_per(&pair("embed_analysis"), PAIRS, || {
            analyses.iter_mut().for_each(|a| embedder.embed_analysis(black_box(a), &mut out))
        });
        let mut q = SparseEmbedding::default();
        embedder.embed_analysis(&mut Analysis::of(question), &mut q);
        let embeddings: Vec<SparseEmbedding> = analyses
            .iter_mut()
            .map(|a| {
                let mut e = SparseEmbedding::default();
                embedder.embed_analysis(a, &mut e);
                e
            })
            .collect();
        cell_per(&pair("cosine"), PAIRS, || {
            let norm = q.norm();
            embeddings.iter().map(|e| e.cosine(black_box(q.values()), norm)).sum::<f32>()
        });
        cell_per(&pair("count_tokens"), PAIRS, || {
            refs.iter().map(|c| count_tokens(black_box(c))).sum::<usize>()
        });
        let mlp = Mlp::new(&[7, 12, 1], Activation::Tanh, Activation::Sigmoid, 5);
        let features = (0..PAIRS * 7).map(|i| (i % 13) as f32 / 13.0).collect();
        let rows = Matrix::from_vec(PAIRS, 7, features);
        cell_per(&pair(&format!("{PAIRS}x7 forward")), PAIRS, || mlp.infer(black_box(&rows)));
    }
}

/// The simulated reader and judge over a context of a corpus-wide query's
/// shape (≈ 14 chunks), asked about the entity the first chunk opens with;
/// then the reader over the `live_mixed` read's shape: the top 7
/// sentence-segmented chunks a live store of 300 TriviaQA documents
/// retrieves for one of their questions.
fn bench_llm() {
    let context: Vec<String> = corpus_chunks(4).into_iter().take(14).collect();
    let name = context[0].split_whitespace().next().unwrap_or("Whiskers");
    let question = format!("What is the color of {name}'s eyes?");
    let llm = SimLlm::new(LlmProfile::gpt4o_mini());
    let n = context.len();
    cell(&format!("llm answer_open_{n}_chunks"), || {
        llm.answer_open(black_box(&question), &context)
    });
    let answer = llm.answer_open(&question, &context);
    cell(&format!("llm self_feedback_{n}_chunks"), || {
        llm.self_feedback(black_box(&question), &context, &answer)
    });

    let ds = triviaqa::generate(SizeConfig { num_docs: 300, questions_per_doc: 1, seed: 0xBE7C });
    let dir = std::env::temp_dir().join(format!("sage-micro-live-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (mut writer, _) =
        CorpusWriter::open(&dir, LiveConfig::default()).expect("open a live store");
    let upserts: Vec<LiveOp> = ds
        .documents
        .iter()
        .enumerate()
        .map(|(d, doc)| LiveOp::Upsert { doc_id: format!("doc-{d}"), text: doc.text() })
        .collect();
    writer.commit(&upserts).expect("commit the documents");
    let question = &ds.tasks[0].item.question;
    let context: Vec<String> =
        writer.snapshot().search(question, 7).into_iter().map(|h| h.chunk).collect();
    std::fs::remove_dir_all(&dir).ok();
    cell(&format!("llm answer_open_{}_sentence_chunks", context.len()), || {
        llm.answer_open(black_box(question), &context)
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

/// One training step of the segmentation head's shape (96 → 24 → 1), and
/// the Adam update of its 2,304 first-layer weights alone, past the step
/// where `1 − β₁ᵗ` rounds to 1.0 (most of the head's training).
fn bench_training() {
    use sage::nn::layer::Activation;
    use sage::nn::{AdamState, Mlp};
    let mut rng = StdRng::seed_from_u64(3);
    let mut row = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.random_range(-1.0..1.0)).collect() };
    let x = row(96);
    let mut mlp = Mlp::new(&[96, 24, 1], Activation::Tanh, Activation::Sigmoid, 4);
    cell("mlp train_row 96-24-1", || mlp.train_row(black_box(&x), 1.0, 0.05));
    let (mut params, grads) = (row(2304), row(2304));
    let mut adam = AdamState::new(2304);
    for _ in 0..200 {
        adam.update(&mut params, &grads, 1e-4);
    }
    cell("adam_update 2304", || adam.update(black_box(&mut params), black_box(&grads), 1e-4));
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
    print!("{}", sage_bench::header("micro", &format!("{:<40} {:>15}", "cell", "median")));
    bench_segmentation();
    bench_vecdb();
    bench_bm25();
    bench_rerank();
    bench_llm();
    bench_embed();
    bench_training();
    bench_metrics();
}
