//! `sentence_features` and `HashedEmbedder::embed` against the allocating
//! bodies they replaced, kept here verbatim as oracles;
//! `embed_analysis`'s sparse zeroing, normalising and cosine against the
//! dense computation over every bucket; and every encoder's
//! `embed_analysed` into a reused row against its replaced `embed` body.

#![allow(clippy::disallowed_types, reason = "tests may time and hash freely")]

use proptest::prelude::*;
use sage_corpus::datasets::{narrativeqa, triviaqa, SizeConfig};
use sage_embed::{
    sentence_features, Analysis, DualEncoder, Embedder, HashedEmbedder, SiameseEncoder,
    SparseEmbedding,
};
use sage_nn::EmbeddingTable;
use sage_nn::matrix::{cosine, l2_normalize, norm};
use std::collections::BTreeSet;
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

/// One `SparseEmbedding` reused across texts and widths against the dense
/// reference: accumulate every feature, then `l2_normalize` over every
/// bucket. The mask must be exactly the written buckets, and the sparse
/// norm and cosine (against the previous text's dense vector) the dense
/// ones, bit for bit up to the sign of a zero cosine.
fn check_sparse(texts: &[&str]) {
    let mut out = SparseEmbedding::default();
    let mut analysis = Analysis::default();
    for dim in [64, 100, 256] {
        let embedder = HashedEmbedder::new(dim, 0xEE);
        let mut previous = vec![0.0f32; dim];
        for text in texts {
            let feats = sentence_features(text, dim, 0xEE);
            let mut want = vec![0.0f32; dim];
            for &(bucket, signed_weight) in &feats {
                want[bucket as usize] += signed_weight;
            }
            l2_normalize(&mut want);
            analysis.fill(text);
            embedder.embed_analysis(&mut analysis, &mut out);
            assert_eq!(bits(out.values()), bits(&want), "{text:?} at {dim}");
            let written: BTreeSet<usize> = feats.iter().map(|&(b, _)| b as usize).collect();
            assert_eq!(out.written().collect::<Vec<_>>(), written.into_iter().collect::<Vec<_>>());
            assert_eq!(out.norm().to_bits(), norm(&want).to_bits(), "{text:?} at {dim}");
            // Only the sign of a zero may differ (see `SparseEmbedding`).
            let (got, dense) = (out.cosine(&previous, norm(&previous)), cosine(&previous, &want));
            let same = got.to_bits() == dense.to_bits() || got == 0.0 && dense == 0.0;
            assert!(same, "{text:?} at {dim}: {got} vs {dense}");
            previous = want;
        }
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
fn sparse_embedding_matches_the_dense_reference_at_every_width() {
    // "eye" and "eyes" meet in some bucket at some width, and a two-token
    // text whose unigrams land in one bucket with opposite signs leaves a
    // written bucket at exactly 0.0 (found below, asserted to exist).
    let mut texts: Vec<String> = [
        "",
        "Whiskers has bright green eyes and a very long tail.",
        "the of and is",
        "eyes eyes eyes eyes eyes eye eye eyed",
        "ΟΔΟΣ Émile's café İstanbul",
        "Brone sleeps.",
    ]
    .iter()
    .map(|t| t.to_string())
    .collect();
    let words: Vec<String> = (0..400).map(|i| format!("w{i}")).collect();
    let cancel = words
        .iter()
        .enumerate()
        .flat_map(|(i, a)| words[i + 1..].iter().map(move |b| (a, b)))
        .find(|(a, b)| {
            let (fa, fb) = (hash_token(a, 64, 0xEE), hash_token(b, 64, 0xEE));
            fa.bucket == fb.bucket && fa.sign != fb.sign
        })
        .map(|(a, b)| format!("{a} {b}"))
        .expect("some pair of 400 words cancels in 64 buckets");
    let mut out = SparseEmbedding::default();
    HashedEmbedder::new(64, 0xEE).embed_analysis(&mut Analysis::of(&cancel), &mut out);
    assert!(out.written().any(|b| out.values()[b].to_bits() == 0), "{cancel:?} cancels");
    texts.push(cancel);
    let size = SizeConfig { num_docs: 2, questions_per_doc: 4, seed: 20250612 };
    for dataset in [narrativeqa::generate(size), triviaqa::generate(size)] {
        for doc in &dataset.documents {
            texts.extend(split_sentences(&doc.text()).iter().take(20).map(|s| s.to_string()));
        }
        texts.extend(dataset.tasks.iter().map(|t| t.item.question.clone()));
    }
    check_sparse(&texts.iter().map(String::as_str).collect::<Vec<_>>());
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
    let mut out = SparseEmbedding::default();
    for text in ["Whiskers has bright green eyes and a very long tail.", "", "Brone sleeps."] {
        analysis.fill(text);
        embedder.embed_analysis(&mut analysis, &mut out);
        assert_eq!(bits(out.values()), bits(&embedder.embed(text)), "{text:?}");
    }
}

/// The pre-`embed_analysed` body of `SiameseEncoder::embed` and of
/// `DualEncoder::embed` (the passage tower): pool the collected features,
/// then normalise.
fn oracle_pooled(table: &EmbeddingTable, text: &str, buckets: usize, seed: u64) -> Vec<f32> {
    let feats = sentence_features(text, buckets, seed);
    let mut v = vec![0.0; table.dim()];
    table.pool(&feats, &mut v);
    l2_normalize(&mut v);
    v
}

#[test]
fn every_encoder_embeds_an_analysis_into_a_reused_row_like_its_replaced_body() {
    let hashed = HashedEmbedder::default_model();
    let (siamese, dual) = (SiameseEncoder::default_model(), DualEncoder::default_model());
    // The untrained default models' towers, as their constructors seed them.
    let siamese_table = EmbeddingTable::new(4096, 64, 0x5BE7);
    let dual_table = EmbeddingTable::new(4096, 64, 0xD9Au64.wrapping_add(0x9E3779B9));
    let mut analysis = Analysis::default();
    let mut rows = [vec![f32::NAN; 256], vec![f32::NAN; 64], vec![f32::NAN; 64]];
    let size = SizeConfig { num_docs: 2, questions_per_doc: 2, seed: 20250612 };
    let mut texts: Vec<String> = vec![String::new(), "Whiskers' eyes — state-of-the-art".into()];
    for dataset in [narrativeqa::generate(size), triviaqa::generate(size)] {
        for doc in &dataset.documents {
            texts.extend(split_sentences(&doc.text()).iter().take(30).map(|s| s.to_string()));
        }
    }
    for text in &texts {
        analysis.fill(text);
        hashed.embed_analysed(&mut analysis, &mut rows[0]);
        siamese.embed_analysed(&mut analysis, &mut rows[1]);
        dual.embed_analysed(&mut analysis, &mut rows[2]);
        assert_eq!(bits(&rows[0]), bits(&oracle_embed(text, 256, 0x0A1)), "{text:?}");
        let want = oracle_pooled(&siamese_table, text, 4096, 0x5BE7);
        assert_eq!(bits(&rows[1]), bits(&want), "{text:?}");
        let want = oracle_pooled(&dual_table, text, 4096, 0xD9A);
        assert_eq!(bits(&rows[2]), bits(&want), "{text:?}");
        assert_eq!(bits(&siamese.embed(text)), bits(&rows[1]), "{text:?}");
        assert_eq!(bits(&dual.embed(text)), bits(&rows[2]), "{text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_text_matches_the_oracle(text in "[-a-cA-C0-1'_ .;—İΣé\n]{0,50}") {
        check(&text);
    }

    #[test]
    fn arbitrary_texts_embed_sparse_like_dense(
        a in "[-a-cA-C0-1'_ .;—İΣé\n]{0,50}",
        b in "[-a-cA-C0-1'_ .;—İΣé\n]{0,50}",
    ) {
        check_sparse(&[&a, &b]);
    }
}
