//! `Bm25Retriever` against the hash-map index and full sort it replaced,
//! kept here verbatim as the oracle ([`hashmap`]): hits are compared as
//! `(chunk index, score bits)`, so every id, its rank and its score's bits
//! must agree — over seeded corpora and arbitrary text, on full builds.
//! The oracle's `allow` filter is always `|_| true`.

#![allow(clippy::disallowed_types, reason = "the oracle is the hash-map index")]

use proptest::prelude::*;
use sage_corpus::datasets::{narrativeqa, triviaqa, SizeConfig};
use sage_retrieval::{Bm25Retriever, Retriever, ScoredChunk};
use sage_text::split_sentences;

/// `sage-retrieval/src/bm25.rs` before PR 25: the index and
/// `retrieve_where`, bodies unchanged (`index` is inherent here rather than
/// a `Retriever` impl).
mod hashmap {
    use sage_retrieval::ScoredChunk;
    use sage_text::{TokenBuf, Vocab};
    use std::collections::HashMap;

    #[derive(Debug, Clone, Copy)]
    pub struct Bm25Params {
        pub k1: f32,
        pub b: f32,
    }

    impl Default for Bm25Params {
        fn default() -> Self {
            Self { k1: 1.2, b: 0.75 }
        }
    }

    #[derive(Debug, Clone)]
    pub struct Bm25Retriever {
        params: Bm25Params,
        vocab: Vocab,
        postings: HashMap<u32, Vec<(u32, u32)>>,
        chunk_len: Vec<u32>,
        avg_len: f32,
        deleted: Vec<bool>,
        live_total_len: u64,
        live_count: u32,
    }

    impl Bm25Retriever {
        pub fn new() -> Self {
            Self::with_params(Bm25Params::default())
        }

        pub fn with_params(params: Bm25Params) -> Self {
            Self {
                params,
                vocab: Vocab::new(),
                postings: HashMap::new(),
                chunk_len: Vec::new(),
                avg_len: 0.0,
                deleted: Vec::new(),
                live_total_len: 0,
                live_count: 0,
            }
        }

        fn post_chunk(&mut self, text: &str, tokens: &mut TokenBuf) -> u32 {
            let ci = self.chunk_len.len() as u32;
            tokens.fill(text);
            let mut tf: HashMap<u32, u32> = HashMap::new();
            tokens.for_each_stem(|term| *tf.entry(self.vocab.intern(term)).or_insert(0) += 1);
            let ids: Vec<u32> = tf.keys().copied().collect();
            self.vocab.record_document(&ids);
            for (id, freq) in tf {
                self.postings.entry(id).or_default().push((ci, freq));
            }
            let len = tokens.len() as u32;
            self.chunk_len.push(len);
            len
        }

        pub fn retrieve_where(
            &self,
            query: &str,
            n: usize,
            allow: impl Fn(usize) -> bool,
        ) -> Vec<ScoredChunk> {
            if self.live_count == 0 || n == 0 {
                return Vec::new();
            }
            sage_telemetry::metrics::BM25_SEARCHES.inc();
            let mut scores: HashMap<u32, f32> = HashMap::new();
            let mut tokens = TokenBuf::new();
            tokens.fill(query);
            tokens.for_each_stem(|term| {
                let Some(id) = self.vocab.get(term) else { return };
                let Some(postings) = self.postings.get(&id) else { return };
                sage_telemetry::metrics::BM25_POSTINGS_SCANNED.add(postings.len() as u64);
                let idf = self.vocab.idf(id);
                for &(chunk, tf) in postings {
                    if self.deleted[chunk as usize] || !allow(chunk as usize) {
                        continue;
                    }
                    let tf = tf as f32;
                    let len = self.chunk_len[chunk as usize] as f32;
                    let denom = tf
                        + self.params.k1
                            * (1.0 - self.params.b + self.params.b * len / self.avg_len);
                    let term_score = idf * tf * (self.params.k1 + 1.0) / denom;
                    *scores.entry(chunk).or_insert(0.0) += term_score;
                }
            });
            let mut hits: Vec<ScoredChunk> = scores
                .into_iter()
                .map(|(chunk, score)| ScoredChunk { index: chunk as usize, score })
                .collect();
            hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.index.cmp(&b.index)));
            hits.truncate(n);
            hits
        }

        pub fn index(&mut self, chunks: &[String]) {
            self.vocab = Vocab::new();
            self.postings.clear();
            self.chunk_len.clear();
            self.deleted.clear();
            let mut total_len = 0u64;
            let mut tokens = TokenBuf::new();
            for chunk in chunks {
                total_len += u64::from(self.post_chunk(chunk, &mut tokens));
            }
            self.deleted.resize(chunks.len(), false);
            self.live_total_len = total_len;
            self.live_count = chunks.len() as u32;
            self.avg_len = if chunks.is_empty() {
                0.0
            } else {
                total_len as f32 / chunks.len() as f32
            };
        }
    }
}

fn bits(hits: &[ScoredChunk]) -> Vec<(usize, u32)> {
    hits.iter().map(|h| (h.index, h.score.to_bits())).collect()
}

/// Both indexes over `chunks`, through the full rebuild.
fn indexed(chunks: &[String]) -> (Bm25Retriever, hashmap::Bm25Retriever) {
    let mut new = Bm25Retriever::new();
    new.index(chunks);
    let mut old = hashmap::Bm25Retriever::new();
    old.index(chunks);
    (new, old)
}

/// The `n` to check: none, one, a few, the pipeline's candidates,
/// every chunk, and past the end.
fn ns(len: usize) -> [usize; 6] {
    [0, 1, 5, 32, len, len + 7]
}

/// `retrieve` equals the oracle at every `n`; returns the hits at `len + 7`.
fn check(new: &Bm25Retriever, old: &hashmap::Bm25Retriever, query: &str) -> Vec<ScoredChunk> {
    let mut all = Vec::new();
    for n in ns(new.len()) {
        let got = new.retrieve(query, n);
        assert_eq!(bits(&got), bits(&old.retrieve_where(query, n, |_| true)), "{query:?} n={n}");
        all = got;
    }
    all
}

/// Each paragraph's sentences, one chunk each.
fn sentence_chunks(docs: &[sage_corpus::Document]) -> Vec<String> {
    docs.iter()
        .flat_map(|doc| doc.paragraphs.iter())
        .flat_map(|p| split_sentences(p).into_iter().map(str::to_string).collect::<Vec<_>>())
        .collect()
}

fn datasets() -> Vec<(Vec<String>, Vec<String>)> {
    let size = SizeConfig { num_docs: 12, questions_per_doc: 4, seed: 20250612 };
    [triviaqa::generate(size), narrativeqa::generate(size)]
        .into_iter()
        .map(|ds| {
            let questions = ds.tasks.iter().map(|t| t.item.question.clone()).collect();
            (sentence_chunks(&ds.documents), questions)
        })
        .collect()
}

#[test]
fn seeded_corpora_keep_every_hit_and_its_bits() {
    for (chunks, questions) in datasets() {
        let sizes = (chunks.len(), questions.len());
        assert!(sizes.0 > 100 && sizes.1 > 20, "{sizes:?}");
        let (new, old) = indexed(&chunks);
        for q in &questions {
            check(&new, &old, q);
        }
    }
}

/// Repeated stems add into one score twice, in query order; a question
/// with no indexed stem, or with no tokens, touches nothing.
#[test]
fn repeated_unknown_and_empty_queries() {
    let (chunks, _) = datasets().swap_remove(0);
    let (new, old) = indexed(&chunks);
    let q = "Where does the baker live? The baker, the BAKER's bakery, bakers";
    assert!(!check(&new, &old, q).is_empty());
    for q in ["zyzzyva quux", "", "?!"] {
        assert!(check(&new, &old, q).is_empty(), "{q:?}");
    }
}

/// Identical chunks score identically, so their order is the index
/// tie-break alone.
#[test]
fn ties_break_by_chunk_index() {
    let chunks: Vec<String> = ["green eyes", "the cat", "green eyes", "eyes green", "green eyes"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let (new, old) = indexed(&chunks);
    let hits = check(&new, &old, "green eyes");
    let ids: Vec<usize> = hits.iter().map(|h| h.index).collect();
    assert_eq!(ids, [0, 2, 3, 4]);
    for n in 1..4 {
        assert_eq!(bits(&new.retrieve("green eyes", n)), bits(&hits[..n]), "n={n}");
    }
}

/// With `k1 = -1, b = 0` a term with tf 2 adds exactly `0.0` and one with
/// tf 1 adds NaN: a touched chunk can score zero, and is still a hit.
#[test]
fn zero_and_nan_scores_stay_hits() {
    let chunks: Vec<String> = ["cat cat", "dog", "cat cat dog", "bird", "cat cat", "dog dog"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut new = Bm25Retriever::with_params(sage_retrieval::bm25::Bm25Params { k1: -1.0, b: 0.0 });
    let mut old = hashmap::Bm25Retriever::with_params(hashmap::Bm25Params { k1: -1.0, b: 0.0 });
    new.index(&chunks);
    old.index(&chunks);
    let zeros = check(&new, &old, "cat");
    assert_eq!(zeros.len(), 3);
    assert!(zeros.iter().all(|h| h.score == 0.0), "{zeros:?}");
    let mixed = check(&new, &old, "cat dog");
    assert_eq!(mixed.len(), 5, "{mixed:?}");
    assert!(mixed.iter().any(|h| h.score.is_nan()), "{mixed:?}");
}

/// The tokenizer's hostile alphabet (`sage-text`'s oracle): short, colliding
/// tokens make many ties and many zero-length chunks.
const HOSTILE: &str = "[-a-eA-E0-2'_ .,;—İßΣσéǅ\t\n]{0,60}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_text_keeps_every_hit_and_its_bits(
        chunks in proptest::collection::vec(HOSTILE, 0..40),
        queries in proptest::collection::vec(HOSTILE, 1..4),
        n in 0usize..45,
    ) {
        let (new, old) = indexed(&chunks);
        for q in &queries {
            prop_assert_eq!(bits(&new.retrieve(q, n)), bits(&old.retrieve_where(q, n, |_| true)));
        }
    }
}
