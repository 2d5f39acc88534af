//! The cross-feature reranking model.

#![expect(
    clippy::disallowed_types,
    reason = "term/bigram sets feed commutative overlap counts (order-free sums); ranked output is sorted by score with index tie-break"
)]

use crate::RankedChunk;
use sage_embed::{Embedder, HashedEmbedder};
use sage_nn::layer::Activation;
use sage_nn::matrix::{cosine, Matrix};
use sage_nn::Mlp;
use sage_text::{bigrams, count_tokens, stem, tokenize, tokenize_filtered, Vocab};
use std::collections::HashSet;

/// Number of cross features fed to the MLP head.
pub const NUM_FEATURES: usize = 7;

/// A trainable cross-encoder-style reranker over engineered features.
#[derive(Debug, Clone)]
pub struct CrossScorer {
    mlp: Mlp,
    embedder: HashedEmbedder,
    /// Corpus IDF statistics (fitted on the indexed chunks).
    idf: Vocab,
}

impl CrossScorer {
    /// Untrained scorer with seeded initialisation.
    pub fn new(seed: u64) -> Self {
        Self {
            mlp: Mlp::new(&[NUM_FEATURES, 12, 1], Activation::Tanh, Activation::Sigmoid, seed),
            embedder: HashedEmbedder::new(256, seed ^ 0xEE),
            idf: Vocab::new(),
        }
    }

    /// Fit IDF statistics on the chunk corpus (call once after indexing;
    /// without it, overlap features fall back to uniform weights).
    pub fn fit_idf(&mut self, chunks: &[String]) {
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

    /// Relevance score in `[0, 1]`.
    pub fn score(&self, question: &str, chunk: &str) -> f32 {
        let f = self.features(question, chunk);
        self.mlp.infer(&Matrix::from_row(&f)).get(0, 0)
    }

    /// Train on labelled `(question, chunk, relevance ∈ {0,1})` examples;
    /// returns mean loss per epoch.
    pub fn train(&mut self, examples: &[(String, String, f32)], lr: f32, epochs: usize) -> Vec<f32> {
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0;
            for (q, c, label) in examples {
                let f = self.features(q, c);
                let x = Matrix::from_row(&f);
                let y = Matrix::from_vec(1, 1, vec![*label]);
                let (loss, _) = self.mlp.train_batch_mse(&x, &y, lr);
                total += loss;
            }
            losses.push(total / examples.len().max(1) as f32);
        }
        losses
    }

    /// Convenience: train from (question, positive, negative) triples.
    pub fn train_from_triples(
        &mut self,
        triples: &[(String, String, String)],
        lr: f32,
        epochs: usize,
    ) -> Vec<f32> {
        let mut examples = Vec::with_capacity(triples.len() * 2);
        for (q, p, n) in triples {
            examples.push((q.clone(), p.clone(), 1.0));
            examples.push((q.clone(), n.clone(), 0.0));
        }
        self.train(&examples, lr, epochs)
    }

    /// Score all candidate chunks and return them sorted best-first
    /// (paper §III-B steps 5–6).
    pub fn rerank(&self, question: &str, chunks: &[&str]) -> Vec<RankedChunk> {
        sage_telemetry::metrics::RERANK_CALLS.inc();
        sage_telemetry::metrics::RERANK_PAIRS_SCORED.add(chunks.len() as u64);
        let mut ranked: Vec<RankedChunk> = chunks
            .iter()
            .enumerate()
            .map(|(index, chunk)| RankedChunk { index, score: self.score(question, chunk) })
            .collect();
        ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.index.cmp(&b.index)));
        ranked
    }
}

impl sage_nn::BytesSerialize for CrossScorer {
    fn write(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        use sage_nn::io::put_string;
        self.mlp.write(buf);
        self.embedder.write(buf);
        buf.put_u32_le(self.idf.len() as u32);
        for (term, &df) in self.idf.terms().iter().zip(self.idf.doc_freqs()) {
            put_string(buf, term);
            buf.put_u32_le(df);
        }
        buf.put_u32_le(self.idf.num_docs());
    }

    fn read(buf: &mut bytes::Bytes) -> Option<Self> {
        use bytes::Buf;
        use sage_nn::io::{get_string, get_u32};
        let mlp = Mlp::read(buf)?;
        let embedder = HashedEmbedder::read(buf)?;
        let n = get_u32(buf)? as usize;
        // Untrusted count: each entry needs at least a 4-byte string
        // length plus a 4-byte doc frequency, so bound it by the bytes
        // actually present before allocating.
        if n > buf.remaining() / 8 {
            return None;
        }
        let mut terms = Vec::with_capacity(n);
        let mut dfs = Vec::with_capacity(n);
        for _ in 0..n {
            terms.push(get_string(buf)?);
            dfs.push(get_u32(buf)?);
        }
        let num_docs = get_u32(buf)?;
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
}
