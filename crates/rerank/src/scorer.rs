//! The cross-feature reranking model.

use crate::RankedChunk;
use sage_embed::{Analysis, Embedder, HashedEmbedder};
use sage_nn::io::{put_string, put_u32, Reader};
use sage_nn::layer::Activation;
use sage_nn::matrix::{cosine, Matrix};
use sage_nn::Mlp;
use sage_text::{count_tokens, TokenBuf, Vocab, WordSet};

/// Number of cross features fed to the MLP head.
pub const NUM_FEATURES: usize = 7;

/// Width of the hashed embedding behind the cosine feature.
const EMBED_DIM: usize = 256;

/// A trainable cross-encoder-style reranker over engineered features.
///
/// Each text is analysed once: the question once per call (a [`Question`]),
/// each chunk once per pair into the call's [`Scratch`]. Nothing is kept
/// per chunk between calls: on a corpus-wide index the heap peaks at its
/// steady state after the build, so every byte stored per chunk is peak.
#[derive(Debug, Clone)]
pub struct CrossScorer {
    mlp: Mlp,
    embedder: HashedEmbedder,
    /// Corpus IDF statistics (fitted on the indexed chunks).
    idf: Vocab,
}

/// The question's side of every pair it is scored against.
struct Question {
    /// Content stems in question order (duplicates included), each with its
    /// IDF weight and whether it is that stem's first occurrence.
    stems: Vec<(String, f32, bool)>,
    /// Sum of the weights, in question order.
    idf_total: f32,
    /// Distinct adjacent token pairs, sorted.
    bigrams: Vec<(String, String)>,
    /// Capitalised surface forms.
    caps: WordSet,
    embedding: Vec<f32>,
}

/// Buffers refilled for each chunk of one call.
#[derive(Default)]
struct Scratch {
    chunk: Analysis,
    /// The chunk's distinct content stems.
    stems: WordSet,
    /// Which of the question's bigrams the chunk contains.
    bigram_hit: Vec<bool>,
    embedding: Vec<f32>,
}

/// `part / whole`, 0 for an empty whole.
fn ratio(part: usize, whole: usize) -> f32 {
    if whole == 0 {
        0.0
    } else {
        part as f32 / whole as f32
    }
}

impl CrossScorer {
    /// Untrained scorer with seeded initialisation.
    pub fn new(seed: u64) -> Self {
        Self {
            mlp: Mlp::new(&[NUM_FEATURES, 12, 1], Activation::Tanh, Activation::Sigmoid, seed),
            embedder: HashedEmbedder::new(EMBED_DIM, seed ^ 0xEE),
            idf: Vocab::new(),
        }
    }

    /// Fit IDF statistics on the chunk corpus (call once after indexing;
    /// without it, overlap features fall back to uniform weights).
    pub fn fit_idf(&mut self, chunks: &[String]) {
        self.idf = Vocab::new();
        let mut tokens = TokenBuf::new();
        let mut ids = Vec::new();
        for chunk in chunks {
            tokens.fill(chunk);
            ids.clear();
            tokens.for_each_stem(|stem| ids.push(self.idf.intern(stem)));
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

    fn analyse(&self, question: &str) -> Question {
        let mut text = Analysis::of(question);
        let tokens = &mut text.tokens;
        let mut stems: Vec<(String, f32, bool)> = Vec::new();
        let mut idf_total = 0.0;
        for i in 0..tokens.len() {
            if tokens.is_stop(i) {
                continue;
            }
            let stem = tokens.with_stem(i).1;
            let w = self.idf_weight(stem);
            idf_total += w;
            let first = !stems.iter().any(|(seen, ..)| seen == stem);
            stems.push((stem.to_string(), w, first));
        }
        let mut bigrams: Vec<(String, String)> = (1..tokens.len())
            .map(|i| (tokens.get(i - 1).to_string(), tokens.get(i).to_string()))
            .collect();
        bigrams.sort_unstable();
        bigrams.dedup();
        let mut embedding = Vec::new();
        self.embedder.embed_analysis(&mut text, &mut embedding);
        Question { stems, idf_total, bigrams, caps: text.proper, embedding }
    }

    /// The cross features of one pair (see [`features`](Self::features)),
    /// from one pass over the chunk.
    fn pair_features(&self, q: &Question, chunk: &str, s: &mut Scratch) -> [f32; NUM_FEATURES] {
        s.chunk.fill(chunk);
        let tokens = &mut s.chunk.tokens;
        s.stems.clear();
        for i in 0..tokens.len() {
            if !tokens.is_stop(i) {
                s.stems.insert(tokens.with_stem(i).1);
            }
        }

        // 0/1/6: question coverage and specificity.
        let mut idf_hit = 0.0;
        let mut hit = 0usize;
        let mut distinct_hit = 0usize;
        for (stem, w, first) in &q.stems {
            if s.stems.contains(stem) {
                idf_hit += w;
                hit += 1;
                distinct_hit += usize::from(*first);
            }
        }
        let f0 = if q.idf_total > 0.0 { idf_hit / q.idf_total } else { 0.0 };
        let f1 = ratio(hit, q.stems.len());
        let f6 = ratio(distinct_hit, s.stems.len());

        // 2: bigram overlap. A token holds no `_`, so a joined bigram is
        // equal exactly when the pair is.
        s.bigram_hit.clear();
        s.bigram_hit.resize(q.bigrams.len(), false);
        if !q.bigrams.is_empty() {
            for i in 1..tokens.len() {
                let pair = (tokens.get(i - 1), tokens.get(i));
                if let Ok(at) =
                    q.bigrams.binary_search_by(|(a, b)| (a.as_str(), b.as_str()).cmp(&pair))
                {
                    s.bigram_hit[at] = true;
                }
            }
        }
        let f2 = ratio(s.bigram_hit.iter().filter(|&&hit| hit).count(), q.bigrams.len());

        // 3: embedding cosine (shifted from [-1,1] to [0,1]).
        self.embedder.embed_analysis(&mut s.chunk, &mut s.embedding);
        let f3 = (cosine(&q.embedding, &s.embedding) + 1.0) / 2.0;

        // 4: entity match — capitalised words shared (proper names).
        let f4 = ratio(q.caps.iter().filter(|w| s.chunk.proper.contains(w)).count(), q.caps.len());

        // 5: length prior.
        let f5 = (count_tokens(chunk) as f32 / 200.0).min(1.0);

        [f0, f1, f2, f3, f4, f5, f6]
    }

    /// Compute the cross features for a (question, chunk) pair.
    ///
    /// Features (all roughly in `[0, 1]`):
    /// 0. IDF-weighted content-stem overlap (question coverage)
    /// 1. plain content-stem overlap ratio
    /// 2. bigram overlap ratio
    /// 3. hashed-embedding cosine
    /// 4. capitalised-token (entity) match ratio
    /// 5. chunk-length prior (`tokens / 200`, capped at 1)
    /// 6. fraction of chunk stems that also occur in the question
    ///    (specificity — penalises chunks about everything)
    pub fn features(&self, question: &str, chunk: &str) -> [f32; NUM_FEATURES] {
        self.pair_features(&self.analyse(question), chunk, &mut Scratch::default())
    }

    /// Relevance score in `[0, 1]`.
    pub fn score(&self, question: &str, chunk: &str) -> f32 {
        let f = self.features(question, chunk);
        self.mlp.infer(&Matrix::from_row(&f)).get(0, 0)
    }

    /// Train on labelled `(question, chunk, relevance ∈ {0,1})` examples;
    /// returns mean loss per epoch.
    pub fn train(&mut self, examples: &[(String, String, f32)], lr: f32, epochs: usize) -> Vec<f32> {
        let mut s = Scratch::default();
        let rows: Vec<_> = examples
            .iter()
            .map(|(q, c, label)| (self.pair_features(&self.analyse(q), c, &mut s), *label))
            .collect();
        self.fit(&rows, lr, epochs)
    }

    /// Convenience: train from (question, positive, negative) triples.
    pub fn train_from_triples(
        &mut self,
        triples: &[(String, String, String)],
        lr: f32,
        epochs: usize,
    ) -> Vec<f32> {
        let mut s = Scratch::default();
        let mut rows = Vec::with_capacity(triples.len() * 2);
        for (q, p, n) in triples {
            let q = self.analyse(q);
            rows.push((self.pair_features(&q, p, &mut s), 1.0));
            rows.push((self.pair_features(&q, n, &mut s), 0.0));
        }
        self.fit(&rows, lr, epochs)
    }

    /// One SGD step per row per epoch. The features read neither the MLP
    /// nor anything training changes, so they are computed before the loop.
    fn fit(&mut self, rows: &[([f32; NUM_FEATURES], f32)], lr: f32, epochs: usize) -> Vec<f32> {
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0;
            for (f, label) in rows {
                let x = Matrix::from_row(f);
                let y = Matrix::from_vec(1, 1, vec![*label]);
                let (loss, _) = self.mlp.train_batch_mse(&x, &y, lr);
                total += loss;
            }
            losses.push(total / rows.len().max(1) as f32);
        }
        losses
    }

    /// Score all candidate chunks and return them sorted best-first
    /// (paper §III-B steps 5–6): one question analysis, one pass per chunk,
    /// one `n × 7` forward (row `i` of a batched forward is bit for bit the
    /// single-row forward of row `i`).
    pub fn rerank(&self, question: &str, chunks: &[&str]) -> Vec<RankedChunk> {
        sage_telemetry::metrics::RERANK_CALLS.inc();
        sage_telemetry::metrics::RERANK_PAIRS_SCORED.add(chunks.len() as u64);
        if chunks.is_empty() {
            return Vec::new();
        }
        let q = self.analyse(question);
        let mut s = Scratch::default();
        let mut rows = Vec::with_capacity(chunks.len() * NUM_FEATURES);
        for chunk in chunks {
            rows.extend_from_slice(&self.pair_features(&q, chunk, &mut s));
        }
        let scores = self.mlp.infer(&Matrix::from_vec(chunks.len(), NUM_FEATURES, rows));
        let mut ranked: Vec<RankedChunk> =
            (0..chunks.len()).map(|index| RankedChunk { index, score: scores.get(index, 0) }).collect();
        ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.index.cmp(&b.index)));
        ranked
    }
}

impl sage_nn::BytesSerialize for CrossScorer {
    fn write(&self, buf: &mut Vec<u8>) {
        self.mlp.write(buf);
        self.embedder.write(buf);
        put_u32(buf, self.idf.len() as u32);
        for (term, &df) in self.idf.terms().iter().zip(self.idf.doc_freqs()) {
            put_string(buf, term);
            put_u32(buf, df);
        }
        put_u32(buf, self.idf.num_docs());
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let mlp = Mlp::read(r)?;
        let embedder = HashedEmbedder::read(r)?;
        // The width is not a degree of freedom of the format: a corrupted
        // one would size every later embedding.
        if embedder.dim() != EMBED_DIM {
            return None;
        }
        // Each entry is at least a 4-byte string length plus a 4-byte doc
        // frequency.
        let n = r.count(8)?;
        let mut terms = Vec::with_capacity(n);
        let mut dfs = Vec::with_capacity(n);
        for _ in 0..n {
            terms.push(r.string()?);
            dfs.push(r.u32()?);
        }
        let num_docs = r.u32()?;
        let idf = Vocab::from_parts(terms, dfs, num_docs)?;
        if mlp.in_dim() != NUM_FEATURES {
            return None;
        }
        Some(Self { mlp, embedder, idf })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_corpus::training::retrieval_triples;
    use std::collections::HashSet;

    fn trained() -> CrossScorer {
        let mut scorer = CrossScorer::new(7);
        let triples = retrieval_triples(150, 11);
        scorer.train_from_triples(&triples, 0.05, 4);
        scorer
    }

    #[test]
    fn features_are_bounded() {
        let s = CrossScorer::new(1);
        for (q, c) in [
            ("What color are Whiskers' eyes?", "Whiskers has bright green eyes."),
            ("", ""),
            ("anything?", "totally unrelated text about harbors"),
        ] {
            for (i, f) in s.features(q, c).iter().enumerate() {
                assert!((0.0..=1.0).contains(f), "feature {i} = {f} out of range");
            }
        }
    }

    #[test]
    fn evidence_features_dominate_filler_features() {
        let s = CrossScorer::new(2);
        let q = "What color are Whiskers' eyes?";
        let evidence = s.features(q, "Whiskers has bright green eyes.");
        let filler = s.features(q, "The morning fog settled over the valley, as usual.");
        assert!(evidence[0] > filler[0], "idf overlap");
        assert!(evidence[4] > filler[4], "entity match");
    }

    #[test]
    fn training_reduces_loss() {
        let mut scorer = CrossScorer::new(3);
        let triples = retrieval_triples(100, 13);
        let losses = scorer.train_from_triples(&triples, 0.05, 5);
        assert!(losses.last().unwrap() < &losses[0], "{losses:?}");
    }

    #[test]
    fn trained_scorer_ranks_evidence_first() {
        let scorer = trained();
        let q = "What is the color of Whiskers's eyes?";
        let chunks = vec![
            "The harbor town woke early that day.",
            "Whiskers has bright green eyes.",
            "Brone wears a thick orange coat of fur.",
        ];
        let ranked = scorer.rerank(q, &chunks);
        assert_eq!(ranked[0].index, 1, "{ranked:?}");
        assert!(ranked[0].score > ranked.last().unwrap().score);
    }

    #[test]
    fn distractor_scores_between_evidence_and_filler() {
        // Same relation, wrong entity: should outrank filler but not the
        // true evidence — the precondition for Figure 8's noise behaviour.
        let scorer = trained();
        let q = "What is the color of Whiskers's eyes?";
        let evidence = scorer.score(q, "Whiskers has bright green eyes.");
        let distractor = scorer.score(q, "Patchy has bright orange eyes.");
        let filler = scorer.score(q, "Rain tapped gently on the old roof, and the day passed.");
        assert!(
            evidence > distractor && distractor > filler,
            "evidence {evidence}, distractor {distractor}, filler {filler}"
        );
    }

    #[test]
    fn rerank_is_deterministic_and_complete() {
        let scorer = trained();
        let chunks = vec!["a b c", "d e f", "g h i"];
        let r1 = scorer.rerank("a question about c", &chunks);
        let r2 = scorer.rerank("a question about c", &chunks);
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 3);
        let idx: HashSet<usize> = r1.iter().map(|r| r.index).collect();
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn fit_idf_changes_weighting() {
        let mut scorer = CrossScorer::new(5);
        let chunks: Vec<String> = vec![
            "the cat sat on the mat".into(),
            "the cat chased the dog".into(),
            "a rare zyzzyva appeared".into(),
        ];
        scorer.fit_idf(&chunks);
        // "zyzzyva" is rarer than "cat": idf-weighted overlap with the rare
        // term should exceed the common one.
        let rare = scorer.features("zyzzyva", "a rare zyzzyva appeared")[0];
        let common = scorer.features("cat", "the cat sat on the mat")[0];
        assert!(rare >= common);
    }

    #[test]
    fn read_rejects_any_other_embedder_width() {
        use sage_nn::BytesSerialize;
        let scorer = CrossScorer::new(9);
        let blob = scorer.to_bytes();
        assert!(CrossScorer::from_bytes(&blob).is_some());
        // MLP ‖ dim ‖ seed ‖ IDF table: patch the dim behind the MLP.
        let dim_at = scorer.mlp.to_bytes().len();
        for dim in [1u32 << 28, u32::MAX, 255, 0] {
            let mut patched = blob.clone();
            patched[dim_at..dim_at + 4].copy_from_slice(&dim.to_le_bytes());
            assert!(CrossScorer::from_bytes(&patched).is_none(), "dim {dim}");
        }
    }
}
