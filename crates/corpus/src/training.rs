//! Training-data generators for the trainable models:
//!
//! * [`paraphrase_pairs`] — labelled sentence pairs for the siamese
//!   (SBERT-analog) encoder;
//! * [`retrieval_triples`] — (question, positive, negative) triples for the
//!   dual-tower (DPR-analog) encoder;
//! * [`segmentation_pairs`] — Algorithm 1's `(s₁, s₂, label)` pairs
//!   harvested from paragraph structure: consecutive sentences in one
//!   paragraph → label 1, sentences straddling a paragraph boundary →
//!   label 0 (paper §IV-C).

use crate::document::Document;
use crate::facts::{relations_for, Entity, Fact, RELATIONS};
use crate::render;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage_text::split_sentences;

/// Sample a standalone fact about a fresh random entity.
fn random_fact(rng: &mut StdRng) -> Fact {
    let entity = if rng.random_bool(0.5) { Entity::person(rng) } else { Entity::pet(rng) };
    let rels = relations_for(entity.kind);
    let spec = rels[rng.random_range(0..rels.len())];
    #[expect(
        clippy::unwrap_used,
        reason = "relations_for returns references into RELATIONS, so the position exists"
    )]
    let rel = RELATIONS.iter().position(|r| std::ptr::eq(r, spec)).unwrap();
    Fact::sample(&entity, rel, rng)
}

/// `n` positive (two renderings of one fact, label 1.0) and `n` negative
/// (renderings of unrelated facts, label 0.0) sentence pairs.
pub fn paraphrase_pairs(n: usize, seed: u64) -> Vec<(String, String, f32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(2 * n);
    while out.len() < n {
        let fact = random_fact(&mut rng);
        if let Some((a, b)) = render::paraphrase_pair(&fact, &mut rng) {
            out.push((a, b, 1.0));
        }
    }
    for _ in 0..n {
        let f1 = random_fact(&mut rng);
        let mut f2 = random_fact(&mut rng);
        let mut guard = 0;
        while f2.relation == f1.relation && guard < 20 {
            f2 = random_fact(&mut rng);
            guard += 1;
        }
        out.push((render::statement_entity(&f1, 0), render::statement_entity(&f2, 0), 0.0));
    }
    out
}

/// `n` (question, positive passage, negative passage) triples: the positive
/// states the queried fact; negatives alternate between *easy* (a different
/// relation entirely) and *hard* (the same relation about a different
/// entity — the conflicting-distractor chunks of the paper's Figure 8).
/// Hard negatives teach the reranker to score distractors low, which is
/// what produces the sharp Figure-5 score cliffs that gradient selection
/// cuts at.
pub fn retrieval_triples(n: usize, seed: u64) -> Vec<(String, String, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let fact = random_fact(&mut rng);
        let negative = if i % 2 == 0 {
            // Easy negative: unrelated relation.
            let mut neg = random_fact(&mut rng);
            let mut guard = 0;
            while neg.relation == fact.relation && guard < 20 {
                neg = random_fact(&mut rng);
                guard += 1;
            }
            neg
        } else {
            // Hard negative: same relation, different entity and value.
            let entity = if fact.entity.kind == crate::facts::EntityKind::Person {
                Entity::person(&mut rng)
            } else {
                Entity::pet(&mut rng)
            };
            let mut neg = Fact::sample(&entity, fact.relation, &mut rng);
            let mut guard = 0;
            while neg.value == fact.value && guard < 20 {
                neg = Fact::sample(&entity, fact.relation, &mut rng);
                guard += 1;
            }
            neg
        };
        let q_variant = rng.random_range(0..4);
        let s_variant = rng.random_range(0..4);
        out.push((
            render::question(&fact, q_variant),
            render::statement_entity(&fact, s_variant),
            render::statement_entity(&negative, s_variant),
        ));
    }
    out
}

/// Harvest Algorithm 1's training pairs from documents with paragraph
/// structure, **class-balanced**.
///
/// Positives are in-paragraph sentence adjacencies; negatives are paragraph
/// boundaries plus random cross-paragraph pairs (within one document).
/// In-paragraph adjacencies vastly outnumber boundaries (~3:1 on
/// Wikipedia-shaped text), and an imbalanced set collapses the MSE-trained
/// model to "always same chunk", so the classes are equalised before
/// shuffling. `limit` caps the total (0 = no cap); truncation preserves
/// balance because the output is a deterministic shuffle of an equal mix.
pub fn segmentation_pairs(docs: &[Document], limit: usize, seed: u64) -> Vec<(String, String, f32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positives: Vec<(String, String, f32)> = Vec::new();
    let mut negatives: Vec<(String, String, f32)> = Vec::new();
    for doc in docs {
        let paragraphs: Vec<Vec<&str>> = doc
            .paragraphs
            .iter()
            .map(|p| split_sentences(p))
            .filter(|s| !s.is_empty())
            .collect();
        for w in paragraphs.windows(2) {
            if let (Some(last), Some(first)) = (w[0].last(), w[1].first()) {
                negatives.push((last.to_string(), first.to_string(), 0.0));
            }
        }
        for para in &paragraphs {
            for w in para.windows(2) {
                positives.push((w[0].to_string(), w[1].to_string(), 1.0));
            }
        }
        // Random cross-paragraph negatives (Algorithm 1's "unrelated
        // sentences are found in separate paragraphs").
        if paragraphs.len() >= 2 {
            let extra = positives.len().saturating_sub(negatives.len()).min(paragraphs.len() * 2);
            for _ in 0..extra {
                let a = rng.random_range(0..paragraphs.len());
                let mut b = rng.random_range(0..paragraphs.len() - 1);
                if b >= a {
                    b += 1;
                }
                let sa = paragraphs[a][rng.random_range(0..paragraphs[a].len())];
                let sb = paragraphs[b][rng.random_range(0..paragraphs[b].len())];
                negatives.push((sa.to_string(), sb.to_string(), 0.0));
            }
        }
    }
    // Equalise class sizes.
    let n = positives.len().min(negatives.len());
    shuffle(&mut positives, &mut rng);
    shuffle(&mut negatives, &mut rng);
    positives.truncate(n);
    negatives.truncate(n);
    let mut out = Vec::with_capacity(2 * n);
    for (p, n) in positives.into_iter().zip(negatives) {
        out.push(p);
        out.push(n);
    }
    shuffle(&mut out, &mut rng);
    if limit > 0 {
        out.truncate(limit);
    }
    out
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{generate_document, DocSpec};

    #[test]
    fn paraphrase_pairs_balanced() {
        let pairs = paraphrase_pairs(50, 1);
        let pos = pairs.iter().filter(|p| p.2 == 1.0).count();
        let neg = pairs.iter().filter(|p| p.2 == 0.0).count();
        assert_eq!(pos, 50);
        assert_eq!(neg, 50);
    }

    #[test]
    fn paraphrase_positives_share_value() {
        for (a, b, label) in paraphrase_pairs(30, 2) {
            if label == 1.0 {
                // Two renderings of the same fact must share the value
                // token(s); cheap check: some non-stopword token overlap.
                let ta: std::collections::HashSet<String> =
                    sage_text::tokenize_filtered(&a).into_iter().collect();
                let tb: std::collections::HashSet<String> =
                    sage_text::tokenize_filtered(&b).into_iter().collect();
                assert!(ta.intersection(&tb).count() > 0, "{a} / {b}");
            }
        }
    }

    #[test]
    fn triples_have_three_distinct_texts() {
        for (q, p, n) in retrieval_triples(30, 3) {
            assert!(q.ends_with('?'));
            assert_ne!(p, n);
            assert_ne!(q, p);
        }
    }

    #[test]
    fn segmentation_pairs_labels_match_structure() {
        let mut rng = StdRng::seed_from_u64(4);
        let docs: Vec<Document> =
            (0..5).map(|i| generate_document(i, &DocSpec::default(), &mut rng).document).collect();
        let pairs = segmentation_pairs(&docs, 0, 5);
        assert!(!pairs.is_empty());
        let pos = pairs.iter().filter(|p| p.2 == 1.0).count();
        let neg = pairs.iter().filter(|p| p.2 == 0.0).count();
        assert!(pos > 0 && neg > 0);
        // Positive pairs must be adjacent within some paragraph.
        let (a, b, _) = pairs.iter().find(|p| p.2 == 1.0).unwrap();
        let found = docs.iter().any(|d| {
            d.paragraphs.iter().any(|p| {
                let s = split_sentences(p);
                s.windows(2).any(|w| w[0] == a && w[1] == b)
            })
        });
        assert!(found, "positive pair not adjacent in any paragraph");
    }

    #[test]
    fn segmentation_pairs_limit_and_determinism() {
        let mut rng = StdRng::seed_from_u64(6);
        let docs: Vec<Document> =
            (0..3).map(|i| generate_document(i, &DocSpec::default(), &mut rng).document).collect();
        let a = segmentation_pairs(&docs, 20, 7);
        let b = segmentation_pairs(&docs, 20, 7);
        assert_eq!(a.len(), 20);
        assert_eq!(a, b);
    }
}
