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
    /// caller's [`SparseEmbedding`] (overwritten): the caller that also
    /// reads the tokens analyses once, and a loop over many texts reuses
    /// both buffers. Only the buckets the features write are touched: the
    /// previous call's are zeroed, the new ones recorded in the mask, and
    /// the norm and the division run over them alone. The values are
    /// [`l2_normalize`]'s over every bucket,
    /// bit for bit (see [`SparseEmbedding`]).
    pub fn embed_analysis(&self, analysis: &mut Analysis, out: &mut SparseEmbedding) {
        let SparseEmbedding { values, written } = out;
        if values.len() == self.dim {
            for bucket in buckets(written) {
                values[bucket] = 0.0;
            }
        } else {
            values.clear();
            values.resize(self.dim, 0.0);
        }
        written.clear();
        written.resize(self.dim.div_ceil(64), 0);
        analysis.for_each_feature(self.dim, self.seed, |bucket, signed_weight| {
            values[bucket as usize] += signed_weight;
            written[bucket as usize / 64] |= 1 << (bucket % 64);
        });
        let n = out.norm();
        if n > 0.0 {
            for bucket in buckets(&out.written) {
                out.values[bucket] /= n;
            }
        }
    }
}

/// A hashed embedding and a mask of the buckets its features wrote (bit
/// `b % 64` of word `b / 64`); every other bucket is `+0.0`.
///
/// Its sums walk the mask in ascending bucket order from `+0.0`. The dense
/// sums of `sage_nn::matrix` add the same terms in the same order, plus an
/// exact `±0.0` for each unwritten bucket, from `-0.0` (std's `Sum`); and
/// `s + ±0.0 == s` for every non-zero `s`. So the two agree bit for bit, except that the
/// dense sum is `-0.0` where every one of its terms is, and this one
/// `+0.0`: never for a norm (a square is `+0.0` or more), and for a dot
/// product with another hashed embedding only if the two write every
/// bucket between them.
#[derive(Debug, Default, Clone)]
pub struct SparseEmbedding {
    values: Vec<f32>,
    written: Vec<u64>,
}

/// The set bits of `mask`, in ascending order.
fn buckets(mask: &[u64]) -> Buckets<'_> {
    Buckets { mask, word: 0, bits: mask.first().copied().unwrap_or(0) }
}

/// Iterator of [`buckets`]: the unvisited bits of word `word` are `bits`.
struct Buckets<'a> {
    mask: &'a [u64],
    word: usize,
    bits: u64,
}

impl Iterator for Buckets<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.mask.get(self.word)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * 64 + bit)
    }
}

impl SparseEmbedding {
    /// The dense vector.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The written buckets, ascending.
    pub fn written(&self) -> impl Iterator<Item = usize> + '_ {
        buckets(&self.written)
    }

    /// Σ `term(b)` over the written buckets, ascending, from `+0.0`.
    fn sum(&self, term: impl Fn(usize) -> f32) -> f32 {
        self.written().fold(0.0, |sum, b| sum + term(b))
    }

    /// [`norm`](sage_nn::matrix::norm) of [`values`](Self::values), bit for bit.
    pub fn norm(&self) -> f32 {
        self.sum(|b| self.values[b] * self.values[b]).sqrt()
    }

    /// [`cosine`](sage_nn::matrix::cosine)`(other, self.values())`, given
    /// `other_norm` = [`norm`](sage_nn::matrix::norm)`(other)`: one walk of
    /// the mask instead of three passes over every bucket, and the other
    /// side's norm computed once by a caller comparing many. Bit for bit,
    /// but for the sign of a zero dot product (see the type).
    pub fn cosine(&self, other: &[f32], other_norm: f32) -> f32 {
        let norm = self.norm();
        if other_norm == 0.0 || norm == 0.0 {
            return 0.0;
        }
        let dot = self.sum(|b| other[b] * self.values[b]);
        (dot / (other_norm * norm)).clamp(-1.0, 1.0)
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

    /// The features summed into `row`, then [`l2_normalize`]d over every
    /// bucket: [`embed_analysis`](Self::embed_analysis)'s values, bit for
    /// bit (see [`SparseEmbedding`]).
    fn embed_analysed(&self, analysis: &mut Analysis, row: &mut [f32]) {
        assert_eq!(row.len(), self.dim, "row width");
        row.fill(0.0);
        analysis.for_each_feature(self.dim, self.seed, |bucket, signed_weight| {
            row[bucket as usize] += signed_weight;
        });
        l2_normalize(row);
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
