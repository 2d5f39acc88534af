//! `sentence_features` and `HashedEmbedder::embed` against the allocating
//! bodies they replaced, kept here verbatim as oracles.

#![allow(clippy::disallowed_types, reason = "tests may time and hash freely")]

use proptest::prelude::*;
use sage_corpus::datasets::{narrativeqa, triviaqa, SizeConfig};
use sage_embed::{sentence_features, Analysis, Embedder, HashedEmbedder};
use sage_nn::matrix::l2_normalize;
use sage_text::{bigrams, hash_token, split_sentences, stem, tokenize};

fn oracle_features(text: &str, buckets: usize, seed: u64) -> Vec<(u32, f32)> {
    // Capitalised surface forms (lowercased, possessive-stripped).
    let proper: std::collections::HashSet<String> = text
        .split_whitespace()
        .filter(|w| w.chars().next().is_some_and(char::is_uppercase))
        .map(|w| {
            let t = w.trim_matches(|c: char| !c.is_alphanumeric()).to_lowercase();
            t.strip_suffix("'s").unwrap_or(&t).to_string()
        })
        .filter(|w| !w.is_empty() && !sage_text::is_stopword(w))
        .collect();
    let tokens = tokenize(text);
    let mut feats = Vec::with_capacity(tokens.len() * 3);
    for tok in &tokens {
        let base = tok.strip_suffix("'s").unwrap_or(tok);
        let w = if sage_text::is_stopword(tok) {
            0.25
        } else if proper.contains(base) {
            2.0
        } else {
            1.0
        };
        let f = hash_token(base, buckets, seed);
        feats.push((f.bucket, f.sign * w));
        if w == 1.0 {
            let stemmed = stem(tok);
            if stemmed != *tok {
                let fs = hash_token(&stemmed, buckets, seed.wrapping_add(1));
                feats.push((fs.bucket, fs.sign * 0.5));
            }
        }
    }
    for bg in bigrams(&tokens) {
        let f = hash_token(&bg, buckets, seed.wrapping_add(2));
        feats.push((f.bucket, f.sign * 0.75));
    }
    feats
}

fn oracle_embed(text: &str, dim: usize, seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; dim];
    for (bucket, signed_weight) in oracle_features(text, dim, seed) {
        v[bucket as usize] += signed_weight;
    }
    l2_normalize(&mut v);
    v
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn feature_bits(feats: &[(u32, f32)]) -> Vec<(u32, u32)> {
    feats.iter().map(|&(bucket, w)| (bucket, w.to_bits())).collect()
}

fn check(text: &str) {
    for (buckets, seed) in [(256, 0x0A1), (2048, 0x5E6), (7, u64::MAX)] {
        let want = oracle_features(text, buckets, seed);
        assert_eq!(feature_bits(&sentence_features(text, buckets, seed)), feature_bits(&want), "{text:?}");
        let embedder = HashedEmbedder::new(buckets, seed);
        assert_eq!(bits(&embedder.embed(text)), bits(&oracle_embed(text, buckets, seed)), "{text:?}");
    }
}

#[test]
fn hand_picked_texts_match_the_oracle() {
    for text in [
        "",
        "the",
        "Whiskers' eyes — Whiskers's EYES; state-of-the-art it's 'quoted' İstanbul",
        "the of and is it's",
        "snake_case a_b The_Cat",
        "Cats chased Cats; the cat's CATS were chasing happily. Mossy's shell",
        "ΟΔΟΣ Émile's café",
    ] {
        check(text);
    }
}

#[test]
fn generated_sentences_and_questions_match_the_oracle() {
    let size = SizeConfig { num_docs: 3, questions_per_doc: 4, seed: 20250612 };
    for dataset in [narrativeqa::generate(size), triviaqa::generate(size)] {
        for doc in &dataset.documents {
            for sentence in split_sentences(&doc.text()).iter().take(60) {
                check(sentence);
            }
        }
        for task in &dataset.tasks {
            check(&task.item.question);
        }
    }
}

#[test]
fn one_analysis_refilled_embeds_like_a_fresh_one() {
    let embedder = HashedEmbedder::default_model();
    let mut analysis = Analysis::default();
    let mut out = vec![f32::NAN; 3];
    for text in ["Whiskers has bright green eyes and a very long tail.", "", "Brone sleeps."] {
        analysis.fill(text);
        embedder.embed_analysis(&mut analysis, &mut out);
        assert_eq!(bits(&out), bits(&embedder.embed(text)), "{text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_text_matches_the_oracle(text in "[-a-cA-C0-1'_ .;—İΣé\n]{0,50}") {
        check(&text);
    }
}
