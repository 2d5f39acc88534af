//! The untrained feature-hashing encoder — our stand-in for OpenAI's
//! `text-embedding-3-small` (see DESIGN.md substitution table).
//!
//! Sign-alternating feature hashing (a hash kernel) approximately preserves
//! inner products of the underlying bag-of-features vectors, so texts that
//! share vocabulary and phrases land close in cosine space — the only
//! property the retrieval pipeline relies on.

use crate::features::Analysis;
use crate::Embedder;
use sage_nn::io::{put_u32, put_u64, Reader};
use sage_nn::matrix::l2_normalize;

/// Feature-hashed sentence encoder (unigrams + stems + bigrams).
#[derive(Debug, Clone)]
pub struct HashedEmbedder {
    dim: usize,
    seed: u64,
}

impl HashedEmbedder {
    /// Encoder with `dim` buckets (256 is plenty for the synthetic corpora).
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0);
        Self { dim, seed }
    }

    /// The paper-default configuration used by experiment presets.
    pub fn default_model() -> Self {
        Self::new(256, 0x0A1)
    }

    /// [`embed`](Embedder::embed) of an already analysed text into a
    /// caller's vector (overwritten): the caller that also reads the tokens
    /// analyses once, and a loop over many texts reuses both buffers.
    pub fn embed_analysis(&self, analysis: &mut Analysis, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.dim, 0.0);
        analysis.for_each_feature(self.dim, self.seed, |bucket, signed_weight| {
            out[bucket as usize] += signed_weight;
        });
        l2_normalize(out);
    }
}

impl sage_nn::BytesSerialize for HashedEmbedder {
    fn write(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.dim as u32);
        put_u64(buf, self.seed);
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let dim = r.u32()? as usize;
        let seed = r.u64()?;
        (dim > 0).then_some(Self { dim, seed })
    }
}

impl Embedder for HashedEmbedder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = Vec::new();
        self.embed_analysis(&mut Analysis::of(text), &mut v);
        v
    }

    fn name(&self) -> &'static str {
        "OpenAI-Embedding(sim)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_nn::matrix::cosine;

    #[test]
    fn unit_norm_output() {
        let e = HashedEmbedder::new(128, 0);
        let v = e.embed("I have a cat with green eyes.");
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_zero_vector() {
        let e = HashedEmbedder::new(128, 0);
        let v = e.embed("");
        assert!(v.iter().all(|x| *x == 0.0));
    }

    #[test]
    fn similar_texts_closer_than_dissimilar() {
        let e = HashedEmbedder::default_model();
        let a = e.embed("The cat has bright green eyes.");
        let b = e.embed("My cat's eyes are green and bright.");
        let c = e.embed("The rocket launched toward the distant planet yesterday.");
        assert!(
            cosine(&a, &b) > cosine(&a, &c),
            "related {} vs unrelated {}",
            cosine(&a, &b),
            cosine(&a, &c)
        );
    }

    #[test]
    fn identical_texts_cosine_one() {
        let e = HashedEmbedder::default_model();
        let a = e.embed("Whiskers sleeps all day.");
        let b = e.embed("Whiskers sleeps all day.");
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn deterministic() {
        let e1 = HashedEmbedder::new(64, 5);
        let e2 = HashedEmbedder::new(64, 5);
        assert_eq!(e1.embed("hello world"), e2.embed("hello world"));
    }
}
