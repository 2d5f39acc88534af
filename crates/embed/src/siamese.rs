//! The trainable siamese encoder — our SBERT analog.
//!
//! SBERT fine-tunes a shared BERT tower with a siamese objective so that
//! semantically related sentences get high cosine similarity. Here the
//! shared tower is a sparse [`EmbeddingTable`] pooled over hashed sentence
//! features, trained with a cosine-regression objective
//! `(cos(e_a, e_b) - label)²` on (related, unrelated) sentence pairs.

use crate::features::{sentence_features, Analysis};
use crate::Embedder;
use sage_nn::io::{put_u32, put_u64, Reader};
use sage_nn::matrix::{dot, l2_normalize, norm};
use sage_nn::EmbeddingTable;

/// A training pair for the siamese objective. `label` is the target cosine:
/// 1.0 for related sentences (same fact/paraphrase), 0.0 for unrelated.
#[derive(Debug, Clone)]
pub struct PairExample {
    /// First sentence.
    pub a: String,
    /// Second sentence.
    pub b: String,
    /// Target cosine in `[0, 1]`.
    pub label: f32,
}

/// Siamese sentence encoder with a shared embedding tower.
#[derive(Debug, Clone)]
pub struct SiameseEncoder {
    table: EmbeddingTable,
    buckets: usize,
    seed: u64,
}

impl SiameseEncoder {
    /// New encoder: `buckets` hash buckets, `dim`-dimensional embeddings.
    pub fn new(buckets: usize, dim: usize, seed: u64) -> Self {
        Self { table: EmbeddingTable::new(buckets, dim, seed), buckets, seed }
    }

    /// The configuration used by experiment presets (4096 buckets, 64 dims).
    pub fn default_model() -> Self {
        Self::new(4096, 64, 0x5BE7)
    }

    fn features(&self, text: &str) -> Vec<(u32, f32)> {
        sentence_features(text, self.buckets, self.seed)
    }

    /// Train on labelled pairs for `epochs` passes; returns the mean loss
    /// per epoch (useful for convergence tests and EXPERIMENTS.md).
    pub fn train(&mut self, pairs: &[PairExample], lr: f32, epochs: usize) -> Vec<f32> {
        // Features depend on nothing trained: one extraction per pair serves
        // every epoch. Pairs with a featureless side teach nothing.
        let examples: Vec<_> = pairs
            .iter()
            .map(|p| (self.features(&p.a), self.features(&p.b), p.label))
            .filter(|(fa, fb, _)| !fa.is_empty() && !fb.is_empty())
            .collect();
        let mut bufs = std::array::from_fn(|_| vec![0.0; self.table.dim()]);
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0;
            let mut count = 0usize;
            for (fa, fb, label) in &examples {
                if let Some(loss) = self.train_pair(fa, fb, *label, lr, &mut bufs) {
                    total += loss;
                    count += 1;
                }
            }
            losses.push(if count == 0 { 0.0 } else { total / count as f32 });
        }
        losses
    }

    /// One SGD step on a single pair of feature lists, with `bufs` as the
    /// two pooled vectors and their two gradients; `None` when either side
    /// has a zero-norm embedding (nothing to learn from).
    fn train_pair(
        &mut self,
        fa: &[(u32, f32)],
        fb: &[(u32, f32)],
        label: f32,
        lr: f32,
        bufs: &mut [Vec<f32>; 4],
    ) -> Option<f32> {
        let [ea, eb, ga, gb] = bufs;
        self.table.pool(fa, ea);
        self.table.pool(fb, eb);
        let na = norm(ea);
        let nb = norm(eb);
        if na < 1e-8 || nb < 1e-8 {
            return None;
        }
        let c = dot(ea, eb) / (na * nb);
        let err = c - label;
        let loss = err * err;
        // dL/dc = 2*err ; dc/dea = eb/(na*nb) - c*ea/na²  (and symmetric).
        let dldc = 2.0 * err;
        for i in 0..ea.len() {
            ga[i] = dldc * (eb[i] / (na * nb) - c * ea[i] / (na * na));
            gb[i] = dldc * (ea[i] / (na * nb) - c * eb[i] / (nb * nb));
        }
        self.table.apply_pooled_grad(fa, ga, lr);
        self.table.apply_pooled_grad(fb, gb, lr);
        Some(loss)
    }
}

impl sage_nn::BytesSerialize for SiameseEncoder {
    fn write(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.buckets as u32);
        put_u64(buf, self.seed);
        self.table.write(buf);
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let buckets = r.u32()? as usize;
        let seed = r.u64()?;
        let table = EmbeddingTable::read(r)?;
        if table.buckets() != buckets {
            return None;
        }
        Some(Self { table, buckets, seed })
    }
}

impl Embedder for SiameseEncoder {
    fn dim(&self) -> usize {
        self.table.dim()
    }

    /// The shared tower pooled over the features, streamed in
    /// [`sentence_features`]' order, then L2-normalised.
    fn embed_analysed(&self, analysis: &mut Analysis, row: &mut [f32]) {
        self.table.pool_with(row, |add| {
            analysis.for_each_feature(self.buckets, self.seed, add)
        });
        l2_normalize(row);
    }

    fn name(&self) -> &'static str {
        "SBERT(sim)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_nn::matrix::cosine;

    fn pairs() -> Vec<PairExample> {
        let related = [
            ("the cat has green eyes", "green eyes shine on the cat"),
            ("the rocket reached the moon", "the moon mission rocket arrived"),
            ("the chef cooked pasta", "pasta was cooked by the chef"),
        ];
        let unrelated = [
            ("the cat has green eyes", "the rocket reached the moon"),
            ("the chef cooked pasta", "the cat has green eyes"),
            ("the rocket reached the moon", "the chef cooked pasta"),
        ];
        let mut out = Vec::new();
        for (a, b) in related {
            out.push(PairExample { a: a.into(), b: b.into(), label: 1.0 });
        }
        for (a, b) in unrelated {
            out.push(PairExample { a: a.into(), b: b.into(), label: 0.0 });
        }
        out
    }

    #[test]
    fn training_reduces_loss() {
        let mut enc = SiameseEncoder::new(512, 16, 1);
        let losses = enc.train(&pairs(), 0.5, 30);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "losses did not halve: {:?} -> {:?}",
            losses.first(),
            losses.last()
        );
    }

    #[test]
    fn trained_encoder_separates_pairs() {
        let mut enc = SiameseEncoder::new(512, 16, 2);
        enc.train(&pairs(), 0.5, 50);
        let cat1 = enc.embed("the cat has green eyes");
        let cat2 = enc.embed("green eyes shine on the cat");
        let moon = enc.embed("the rocket reached the moon");
        assert!(
            cosine(&cat1, &cat2) > cosine(&cat1, &moon) + 0.1,
            "related {} vs unrelated {}",
            cosine(&cat1, &cat2),
            cosine(&cat1, &moon)
        );
    }

    #[test]
    fn unit_norm_embeddings() {
        let enc = SiameseEncoder::default_model();
        let v = enc.embed("any text at all");
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_pairs_are_skipped() {
        let mut enc = SiameseEncoder::new(64, 8, 3);
        let losses = enc.train(
            &[PairExample { a: String::new(), b: "x".into(), label: 1.0 }],
            0.1,
            2,
        );
        assert_eq!(losses, vec![0.0, 0.0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SiameseEncoder::new(128, 8, 7);
        let b = SiameseEncoder::new(128, 8, 7);
        assert_eq!(a.embed("hello"), b.embed("hello"));
    }
}
