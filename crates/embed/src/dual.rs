//! The trainable dual-tower encoder — our DPR analog.
//!
//! DPR trains separate question and passage encoders with a contrastive
//! objective over (question, positive passage, negative passage) triples.
//! Here each tower is a sparse embedding table over hashed features (with
//! decorrelated hash seeds), trained with a margin triplet loss:
//! `max(0, margin - cos(q, p⁺) + cos(q, p⁻))`.

use crate::features::sentence_features;
use crate::Embedder;
use sage_nn::io::{put_f32, put_u32, put_u64, Reader};
use sage_nn::matrix::{dot, l2_normalize, norm};
use sage_nn::EmbeddingTable;

/// One contrastive training example.
#[derive(Debug, Clone)]
pub struct TripletExample {
    /// The question.
    pub query: String,
    /// A passage that answers it.
    pub positive: String,
    /// A passage that does not.
    pub negative: String,
}

/// Dual-tower (question / passage) encoder.
#[derive(Debug, Clone)]
pub struct DualEncoder {
    query_tower: EmbeddingTable,
    passage_tower: EmbeddingTable,
    buckets: usize,
    seed: u64,
    margin: f32,
}

impl DualEncoder {
    /// New encoder with the given capacity. `margin` defaults to 0.3 via
    /// [`DualEncoder::default_model`].
    pub fn new(buckets: usize, dim: usize, margin: f32, seed: u64) -> Self {
        Self {
            query_tower: EmbeddingTable::new(buckets, dim, seed),
            passage_tower: EmbeddingTable::new(buckets, dim, seed.wrapping_add(0x9E3779B9)),
            buckets,
            seed,
            margin,
        }
    }

    /// The configuration used by experiment presets.
    pub fn default_model() -> Self {
        Self::new(4096, 64, 0.3, 0xD9A)
    }

    fn query_features(&self, text: &str) -> Vec<(u32, f32)> {
        sentence_features(text, self.buckets, self.seed)
    }

    fn passage_features(&self, text: &str) -> Vec<(u32, f32)> {
        // Same hash seed as the query side: both towers must address the
        // same lexical feature space for shared-vocabulary alignment, but
        // their *tables* are initialised differently.
        sentence_features(text, self.buckets, self.seed)
    }

    /// Train for `epochs` passes over the triples; returns mean loss per
    /// epoch.
    pub fn train(&mut self, triples: &[TripletExample], lr: f32, epochs: usize) -> Vec<f32> {
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0;
            let mut count = 0usize;
            for t in triples {
                if let Some(loss) = self.train_triplet(t, lr) {
                    total += loss;
                    count += 1;
                }
            }
            losses.push(if count == 0 { 0.0 } else { total / count as f32 });
        }
        losses
    }

    fn train_triplet(&mut self, t: &TripletExample, lr: f32) -> Option<f32> {
        let fq = self.query_features(&t.query);
        let fp = self.passage_features(&t.positive);
        let fn_ = self.passage_features(&t.negative);
        if fq.is_empty() || fp.is_empty() || fn_.is_empty() {
            return None;
        }
        let dim = self.query_tower.dim();
        let mut q = vec![0.0; dim];
        let mut p = vec![0.0; dim];
        let mut n = vec![0.0; dim];
        self.query_tower.pool(&fq, &mut q);
        self.passage_tower.pool(&fp, &mut p);
        self.passage_tower.pool(&fn_, &mut n);
        let (nq, np, nn) = (norm(&q), norm(&p), norm(&n));
        if nq < 1e-8 || np < 1e-8 || nn < 1e-8 {
            return None;
        }
        let cp = dot(&q, &p) / (nq * np);
        let cn = dot(&q, &n) / (nq * nn);
        let loss = (self.margin - cp + cn).max(0.0);
        if loss == 0.0 {
            return Some(0.0);
        }
        // d(loss)/d(cp) = -1, d(loss)/d(cn) = +1 inside the margin.
        // cos grads as in the siamese trainer.
        let mut gq = vec![0.0; dim];
        let mut gp = vec![0.0; dim];
        let mut gn = vec![0.0; dim];
        for i in 0..dim {
            let dcp_dq = p[i] / (nq * np) - cp * q[i] / (nq * nq);
            let dcn_dq = n[i] / (nq * nn) - cn * q[i] / (nq * nq);
            gq[i] = -dcp_dq + dcn_dq;
            gp[i] = -(q[i] / (nq * np) - cp * p[i] / (np * np));
            gn[i] = q[i] / (nq * nn) - cn * n[i] / (nn * nn);
        }
        self.query_tower.apply_pooled_grad(&fq, &gq, lr);
        self.passage_tower.apply_pooled_grad(&fp, &gp, lr);
        self.passage_tower.apply_pooled_grad(&fn_, &gn, lr);
        Some(loss)
    }
}

impl sage_nn::BytesSerialize for DualEncoder {
    fn write(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.buckets as u32);
        put_u64(buf, self.seed);
        put_f32(buf, self.margin);
        self.query_tower.write(buf);
        self.passage_tower.write(buf);
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let buckets = r.u32()? as usize;
        let seed = r.u64()?;
        let margin = r.f32()?;
        let query_tower = EmbeddingTable::read(r)?;
        let passage_tower = EmbeddingTable::read(r)?;
        if query_tower.buckets() != buckets || passage_tower.buckets() != buckets {
            return None;
        }
        Some(Self { query_tower, passage_tower, buckets, seed, margin })
    }
}

impl Embedder for DualEncoder {
    fn dim(&self) -> usize {
        self.passage_tower.dim()
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        let feats = self.passage_features(text);
        let mut v = vec![0.0; self.passage_tower.dim()];
        self.passage_tower.pool(&feats, &mut v);
        l2_normalize(&mut v);
        v
    }

    fn embed_query(&self, text: &str) -> Vec<f32> {
        let feats = self.query_features(text);
        let mut v = vec![0.0; self.query_tower.dim()];
        self.query_tower.pool(&feats, &mut v);
        l2_normalize(&mut v);
        v
    }

    fn name(&self) -> &'static str {
        "DPR(sim)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_nn::matrix::cosine;

    fn triples() -> Vec<TripletExample> {
        vec![
            TripletExample {
                query: "what color are the cat's eyes".into(),
                positive: "the cat has bright green eyes".into(),
                negative: "the rocket reached the moon".into(),
            },
            TripletExample {
                query: "where did the rocket go".into(),
                positive: "the rocket reached the moon".into(),
                negative: "the chef cooked pasta".into(),
            },
            TripletExample {
                query: "who cooked the pasta".into(),
                positive: "the chef cooked pasta for dinner".into(),
                negative: "the cat has bright green eyes".into(),
            },
        ]
    }

    #[test]
    fn training_reduces_loss() {
        let mut enc = DualEncoder::new(512, 16, 0.3, 4);
        let losses = enc.train(&triples(), 0.5, 40);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{:?}",
            (losses.first(), losses.last())
        );
    }

    #[test]
    fn trained_encoder_ranks_positive_first() {
        let mut enc = DualEncoder::new(512, 16, 0.3, 5);
        enc.train(&triples(), 0.5, 60);
        let q = enc.embed_query("what color are the cat's eyes");
        let pos = enc.embed("the cat has bright green eyes");
        let neg = enc.embed("the rocket reached the moon");
        assert!(
            cosine(&q, &pos) > cosine(&q, &neg),
            "pos {} vs neg {}",
            cosine(&q, &pos),
            cosine(&q, &neg)
        );
    }

    #[test]
    fn towers_are_distinct() {
        let enc = DualEncoder::default_model();
        let a = enc.embed("the same text");
        let b = enc.embed_query("the same text");
        assert_ne!(a, b, "query and passage towers must differ before training");
    }

    #[test]
    fn unit_norms() {
        let enc = DualEncoder::default_model();
        for v in [enc.embed("hello world"), enc.embed_query("hello world")] {
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn degenerate_triples_skipped() {
        let mut enc = DualEncoder::new(64, 8, 0.3, 6);
        let losses = enc.train(
            &[TripletExample { query: String::new(), positive: "x".into(), negative: "y".into() }],
            0.1,
            1,
        );
        assert_eq!(losses, vec![0.0]);
    }
}
