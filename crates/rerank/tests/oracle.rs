//! `CrossScorer` against the per-pair feature extraction it replaced, kept
//! here verbatim as the oracle: features, scores and `rerank` order are
//! compared by bit pattern — over single sentences, multi-sentence chunks of
//! a query's shape, and the edge cases of the sparse embedding, the hashed
//! stem set and the signature-filtered bigram scan.

#![allow(clippy::disallowed_types, reason = "tests may time and hash freely")]

use sage_corpus::datasets::{narrativeqa, triviaqa, SizeConfig};
use sage_corpus::training::retrieval_triples;
use sage_embed::{Analysis, Embedder, HashedEmbedder, SparseEmbedding};
use sage_nn::matrix::cosine;
use sage_rerank::{CrossScorer, RankedChunk};
use sage_text::{
    bigrams, count_tokens, hash_token, split_sentences, stem, tokenize, tokenize_filtered, Vocab,
};
use std::collections::HashSet;

const SEED: u64 = 7;

/// The two private inputs of the old `features`, rebuilt from outside: the
/// embedder `CrossScorer::new(SEED)` makes and the IDF table `fit_idf` fits.
struct Oracle {
    embedder: HashedEmbedder,
    idf: Vocab,
}

impl Oracle {
    fn new() -> Self {
        Self { embedder: HashedEmbedder::new(256, SEED ^ 0xEE), idf: Vocab::new() }
    }

    fn fit_idf(&mut self, chunks: &[String]) {
        self.idf = Vocab::new();
        for chunk in chunks {
            let ids: Vec<u32> =
                tokenize(chunk).iter().map(|t| self.idf.intern(&stem(t))).collect();
            self.idf.record_document(&ids);
        }
    }

    fn idf_weight(&self, term: &str) -> f32 {
        match self.idf.get(term) {
            Some(id) => self.idf.idf(id),
            // Unseen terms (or unfitted scorer): neutral weight.
            None => 1.0,
        }
    }

    fn features(&self, question: &str, chunk: &str) -> [f32; 7] {
        let q_tokens = tokenize_filtered(question);
        let q_stems: Vec<String> = q_tokens.iter().map(|t| stem(t)).collect();
        let c_tokens_all = tokenize(chunk);
        let c_stem_set: HashSet<String> =
            tokenize_filtered(chunk).iter().map(|t| stem(t)).collect();

        // 0/1: question coverage.
        let mut idf_hit = 0.0;
        let mut idf_total = 0.0;
        let mut hit = 0usize;
        for s in &q_stems {
            let w = self.idf_weight(s);
            idf_total += w;
            if c_stem_set.contains(s) {
                idf_hit += w;
                hit += 1;
            }
        }
        let f0 = if idf_total > 0.0 { idf_hit / idf_total } else { 0.0 };
        let f1 = if q_stems.is_empty() { 0.0 } else { hit as f32 / q_stems.len() as f32 };

        // 2: bigram overlap.
        let q_bi: HashSet<String> = bigrams(&tokenize(question)).into_iter().collect();
        let c_bi: HashSet<String> = bigrams(&c_tokens_all).into_iter().collect();
        let f2 = if q_bi.is_empty() {
            0.0
        } else {
            q_bi.intersection(&c_bi).count() as f32 / q_bi.len() as f32
        };

        // 3: embedding cosine (shifted from [-1,1] to [0,1]).
        let qe = self.embedder.embed(question);
        let ce = self.embedder.embed(chunk);
        let f3 = (cosine(&qe, &ce) + 1.0) / 2.0;

        // 4: entity match — capitalised words shared (proper names).
        let caps = |text: &str| -> HashSet<String> {
            text.split_whitespace()
                .filter(|w| w.chars().next().is_some_and(char::is_uppercase))
                .map(|w| {
                    // Normalize possessives: "Whiskers'" / "Whiskers's" →
                    // "whiskers", so entity mentions match across forms.
                    let mut t =
                        w.trim_matches(|c: char| !c.is_alphanumeric()).to_lowercase();
                    if let Some(base) = t.strip_suffix("'s") {
                        t = base.to_string();
                    }
                    t
                })
                .filter(|w| !w.is_empty() && !sage_text::is_stopword(w))
                .collect()
        };
        let q_caps = caps(question);
        let c_caps = caps(chunk);
        let f4 = if q_caps.is_empty() {
            0.0
        } else {
            q_caps.intersection(&c_caps).count() as f32 / q_caps.len() as f32
        };

        // 5: length prior.
        let f5 = (count_tokens(chunk) as f32 / 200.0).min(1.0);

        // 6: specificity.
        let q_stem_set: HashSet<&String> = q_stems.iter().collect();
        let f6 = if c_stem_set.is_empty() {
            0.0
        } else {
            c_stem_set.iter().filter(|s| q_stem_set.contains(s)).count() as f32
                / c_stem_set.len() as f32
        };

        [f0, f1, f2, f3, f4, f5, f6]
    }
}

fn trained() -> CrossScorer {
    let mut scorer = CrossScorer::new(SEED);
    scorer.train_from_triples(&retrieval_triples(60, 11), 0.05, 2);
    scorer
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn ranked_bits(ranked: &[RankedChunk]) -> Vec<(usize, u32)> {
    ranked.iter().map(|r| (r.index, r.score.to_bits())).collect()
}

/// Features equal the oracle's, and `rerank` is "score each pair alone,
/// sort by (score descending, index ascending)".
fn check(scorer: &CrossScorer, oracle: &Oracle, question: &str, chunks: &[&str]) {
    let mut want: Vec<RankedChunk> = Vec::new();
    for (index, chunk) in chunks.iter().enumerate() {
        assert_eq!(
            bits(&scorer.features(question, chunk)),
            bits(&oracle.features(question, chunk)),
            "{question:?} × {chunk:?}"
        );
        want.push(RankedChunk { index, score: scorer.score(question, chunk) });
    }
    want.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.index.cmp(&b.index)));
    assert_eq!(ranked_bits(&scorer.rerank(question, chunks)), ranked_bits(&want), "{question:?}");
}

const HAND_PICKED: [&str; 12] = [
    "",
    "Whiskers' eyes — Whiskers's EYES; state-of-the-art it's 'quoted' İstanbul",
    "the of and is it was",
    "What color are Whiskers' eyes?",
    "Whiskers has bright green eyes.",
    "eyes eyes EYES eye the eyes of Whiskers Whiskers",
    "snake_case a_b eyes_of whiskers_s",
    "What is the color of the color of the color?",
    "The morning fog settled over the valley, as usual.",
    "Mossy's shell; Mossy is the tortoise. ΟΔΟΣ Émile's café",
    "?!",
    "A",
];

#[test]
fn hand_picked_pairs_match_the_oracle_fitted_and_unfitted() {
    let mut scorer = trained();
    let mut oracle = Oracle::new();
    for fitted in [false, true] {
        if fitted {
            let corpus: Vec<String> = HAND_PICKED.iter().map(|s| s.to_string()).collect();
            scorer.fit_idf(&corpus);
            oracle.fit_idf(&corpus);
        }
        for question in HAND_PICKED {
            check(&scorer, &oracle, question, &HAND_PICKED);
        }
    }
}

#[test]
fn generated_sentences_match_the_oracle_fitted_and_unfitted() {
    let size = SizeConfig { num_docs: 4, questions_per_doc: 4, seed: 20250612 };
    for dataset in [narrativeqa::generate(size), triviaqa::generate(size)] {
        let sentences: Vec<String> = dataset
            .documents
            .iter()
            .flat_map(|doc| {
                let text = doc.text();
                split_sentences(&text).into_iter().take(40).map(str::to_string).collect::<Vec<_>>()
            })
            .collect();
        let chunks: Vec<&str> = sentences.iter().map(String::as_str).collect();
        let mut scorer = trained();
        let mut oracle = Oracle::new();
        for fitted in [false, true] {
            if fitted {
                scorer.fit_idf(&sentences);
                oracle.fit_idf(&sentences);
            }
            for task in dataset.tasks.iter().take(5) {
                check(&scorer, &oracle, &task.item.question, &chunks);
            }
        }
    }
}

/// Consecutive sentences of each document joined until a chunk holds 30
/// LLM tokens, kept when it holds at most 40 (the NarrativeQA chunks of
/// `doc_qa` average about 35).
fn joined_chunks(texts: &[String]) -> Vec<String> {
    let mut chunks = Vec::new();
    for text in texts {
        let mut chunk = String::new();
        for sentence in split_sentences(text) {
            if !chunk.is_empty() {
                chunk.push(' ');
            }
            chunk.push_str(sentence);
            let tokens = count_tokens(&chunk);
            if tokens >= 30 {
                if tokens <= 40 {
                    chunks.push(std::mem::take(&mut chunk));
                }
                chunk.clear();
            }
        }
    }
    chunks
}

#[test]
fn multi_sentence_chunks_match_the_oracle_fitted_and_unfitted() {
    let size = SizeConfig { num_docs: 12, questions_per_doc: 1, seed: 20250612 };
    for dataset in [narrativeqa::generate(size), triviaqa::generate(size)] {
        let texts: Vec<String> = dataset.documents.iter().map(|doc| doc.text()).collect();
        let joined = joined_chunks(&texts);
        assert!(joined.len() >= 20, "{} chunks", joined.len());
        let chunks: Vec<&str> = joined.iter().map(String::as_str).take(40).collect();
        let mut scorer = trained();
        let mut oracle = Oracle::new();
        for fitted in [false, true] {
            if fitted {
                scorer.fit_idf(&joined);
                oracle.fit_idf(&joined);
            }
            for task in dataset.tasks.iter().take(6) {
                check(&scorer, &oracle, &task.item.question, &chunks);
            }
        }
    }
}

#[test]
fn edge_case_pairs_match_the_oracle_fitted_and_unfitted() {
    // Two words whose unigrams land in one bucket of the scorer's embedder
    // with opposite signs: the chunk "a b" writes that bucket and leaves it
    // at exactly 0.0.
    let words: Vec<String> = (0..400).map(|i| format!("w{i}")).collect();
    let cancel = words
        .iter()
        .enumerate()
        .flat_map(|(i, a)| words[i + 1..].iter().map(move |b| (a, b)))
        .find(|(a, b)| {
            let (fa, fb) = (hash_token(a, 256, SEED ^ 0xEE), hash_token(b, 256, SEED ^ 0xEE));
            fa.bucket == fb.bucket && fa.sign != fb.sign
        })
        .map(|(a, b)| format!("{a} {b}"))
        .expect("some pair of 400 words cancels in 256 buckets");
    let mut out = SparseEmbedding::default();
    HashedEmbedder::new(256, SEED ^ 0xEE).embed_analysis(&mut Analysis::of(&cancel), &mut out);
    assert!(out.written().any(|b| out.values()[b].to_bits() == 0), "{cancel:?} cancels");
    let repeated = "Whiskers eyes eyes eyed eye ".repeat(40);
    let chunks: Vec<&str> = vec![
        &cancel,
        // All stopwords: no content stems, stopword-only features.
        "the of and is it was to by",
        // "cigar" shares "color"'s signature bit (same length, same end
        // bytes) and is not a question bigram's first token.
        "The cigar of Whiskers is green. A cigar, the color, the cigar.",
        "the color of Whiskers's eyes is green; the colour of the cigar",
        // One stem many times.
        &repeated,
        // Non-ASCII throughout.
        "ΟΔΟΣ Émile's café in İstanbul — naïve Ωmega's cafés, ÉMILE.",
        "",
        "w0",
    ];
    let questions = [
        "What is the color of Whiskers's eyes?",
        // One token: no bigrams.
        "Whiskers",
        "eyes?",
        "the of and",
        "Where is Émile's café in İstanbul?",
        cancel.as_str(),
        "",
    ];
    let corpus: Vec<String> = chunks.iter().map(|c| c.to_string()).collect();
    let mut scorer = trained();
    let mut oracle = Oracle::new();
    for fitted in [false, true] {
        if fitted {
            scorer.fit_idf(&corpus);
            oracle.fit_idf(&corpus);
        }
        for question in questions {
            check(&scorer, &oracle, question, &chunks);
        }
    }
}

#[test]
fn no_candidates_rank_to_nothing() {
    assert!(trained().rerank("What color are Whiskers' eyes?", &[]).is_empty());
}

#[test]
fn two_threads_sharing_one_scorer_agree_with_one() {
    let mut scorer = trained();
    let corpus: Vec<String> = HAND_PICKED.iter().map(|s| s.to_string()).collect();
    scorer.fit_idf(&corpus);
    let questions = [HAND_PICKED[3], HAND_PICKED[7]];
    let alone: Vec<_> = questions.iter().map(|q| scorer.rerank(q, &HAND_PICKED)).collect();
    let barrier = std::sync::Barrier::new(2);
    let together: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = questions
            .iter()
            .map(|q| {
                let (scorer, barrier) = (&scorer, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    (0..20).map(|_| scorer.rerank(q, &HAND_PICKED)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rerank does not panic")).collect()
    });
    for (runs, alone) in together.iter().zip(&alone) {
        for run in runs {
            assert_eq!(ranked_bits(run), ranked_bits(alone));
        }
    }
}
