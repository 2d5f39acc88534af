//! Document assembly: entities + facts → paragraphs → documents.
//!
//! Layout invariants the rest of the system depends on:
//!
//! * paragraphs are separated by `'\n'` in [`Document::text`] (the paper's
//!   §III-A split);
//! * each entity's paragraph opens with an intro sentence naming the entity
//!   (the coreference antecedent), followed by fact sentences that use
//!   pronouns with probability `pronoun_prob`;
//! * within one document, two entities never share the same value for the
//!   same relation, so every factoid question has a unique supported
//!   answer while *different* values for the same relation act as
//!   conflicting distractors (the paper's noisy chunks);
//! * every fact sentence is recorded in a [`FactRecord`] with its exact
//!   evidence, so experiments can check retrieval against ground truth.

#![expect(
    clippy::disallowed_types,
    reason = "sets/maps are uniqueness and membership guards during assembly; document text order comes from the ordered fact records, never from container iteration"
)]

use crate::facts::{relations_for, Entity, EntityKind, Fact, RELATIONS};
use crate::lexicon::Lexicon;
use crate::qa::QaItem;
use crate::render;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// One generated document.
#[derive(Debug, Clone)]
pub struct Document {
    /// Document id within its dataset.
    pub id: usize,
    /// Title (used by the Title+Abstract baseline).
    pub title: String,
    /// Abstract — first filler-free summary sentences (Title+Abstract
    /// baseline context).
    pub abstract_text: String,
    /// Paragraph texts, in order.
    pub paragraphs: Vec<String>,
}

impl Document {
    /// Full text with paragraphs joined by `'\n'`.
    pub fn text(&self) -> String {
        self.paragraphs.join("\n")
    }
}

/// Ground-truth record for one rendered fact sentence.
#[derive(Debug, Clone)]
pub struct FactRecord {
    /// The underlying fact.
    pub fact: Fact,
    /// The rendered sentence carrying the fact.
    pub sentence: String,
    /// The intro sentence of the fact's paragraph (the antecedent).
    pub intro: String,
    /// Whether the sentence uses the pronoun form (needs the intro to be
    /// interpretable).
    pub pronoun_form: bool,
    /// Paragraph index within the document.
    pub paragraph: usize,
}

impl FactRecord {
    /// The sentences a retriever must surface for this fact to be usable:
    /// the fact sentence, plus the intro when the fact is pronoun-form.
    pub fn evidence(&self) -> Vec<String> {
        if self.pronoun_form {
            vec![self.intro.clone(), self.sentence.clone()]
        } else {
            vec![self.sentence.clone()]
        }
    }
}

/// A generated document plus its ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedDoc {
    /// The document.
    pub document: Document,
    /// All fact records, in paragraph order.
    pub records: Vec<FactRecord>,
}

/// Generation parameters for one document.
#[derive(Debug, Clone)]
pub struct DocSpec {
    /// Number of character entities (persons + pets).
    pub num_entities: usize,
    /// Single-valued facts per entity.
    pub facts_per_entity: usize,
    /// Number of values for the one multi-valued ("developed") holder;
    /// 0 disables elimination material.
    pub multi_fact_count: usize,
    /// Filler paragraphs interleaved between entity paragraphs.
    pub filler_paragraphs: usize,
    /// Probability that a fact sentence uses the pronoun form.
    pub pronoun_prob: f64,
}

impl Default for DocSpec {
    fn default() -> Self {
        Self {
            num_entities: 6,
            facts_per_entity: 3,
            multi_fact_count: 5,
            filler_paragraphs: 4,
            pronoun_prob: 0.6,
        }
    }
}

/// Generate one document with ground truth.
pub fn generate_document(id: usize, spec: &DocSpec, rng: &mut StdRng) -> GeneratedDoc {
    assert!(spec.num_entities > 0, "need at least one entity");
    // 1. Entities: roughly 2/3 persons, 1/3 pets, at least one person when
    //    elimination material is requested.
    let mut entities: Vec<Entity> = Vec::with_capacity(spec.num_entities);
    for i in 0..spec.num_entities {
        if i % 3 == 2 {
            entities.push(Entity::pet(rng));
        } else {
            entities.push(Entity::person(rng));
        }
    }
    // Distinct names within a document.
    let mut seen_names = HashSet::new();
    for e in &mut entities {
        let mut guard = 0;
        while !seen_names.insert(e.name.clone()) {
            e.name = match e.kind {
                EntityKind::Person => Lexicon::person_name(rng),
                EntityKind::Pet => Lexicon::pet_name(rng),
            };
            guard += 1;
            assert!(guard < 100, "cannot generate distinct names");
        }
    }

    // 2. Facts. `used_values[relation]` enforces distinct values per
    //    relation within the document.
    let mut used_values: HashMap<usize, HashSet<String>> = HashMap::new();
    let mut entity_facts: Vec<Vec<Fact>> = Vec::with_capacity(entities.len());
    for e in &entities {
        let rels = relations_for(e.kind);
        let single: Vec<usize> = rels
            .iter()
            .filter(|r| !r.multi_valued)
            .filter_map(|r| RELATIONS.iter().position(|x| std::ptr::eq(x, *r)))
            .collect();
        let n = spec.facts_per_entity.min(single.len());
        let mut chosen: Vec<usize> = single.clone();
        // Partial shuffle to pick n distinct relations.
        for i in 0..n {
            let j = rng.random_range(i..chosen.len());
            chosen.swap(i, j);
        }
        let mut facts = Vec::with_capacity(n);
        for &rel in &chosen[..n] {
            let used = used_values.entry(rel).or_default();
            let mut fact = Fact::sample(e, rel, rng);
            let mut guard = 0;
            while used.contains(&fact.value) {
                fact = Fact::sample(e, rel, rng);
                guard += 1;
                if guard > 100 {
                    break; // pool exhausted; accept a duplicate rather than hang
                }
            }
            used.insert(fact.value.clone());
            facts.push(fact);
        }
        entity_facts.push(facts);
    }

    // 3. Multi-valued facts for one person (elimination material).
    let mut multi_facts: Vec<Fact> = Vec::new();
    if spec.multi_fact_count > 0 {
        if let Some(holder_idx) = entities.iter().position(|e| e.kind == EntityKind::Person) {
            #[expect(
                clippy::expect_used,
                reason = "RELATIONS is a static table that contains a multi-valued relation"
            )]
            let rel = RELATIONS.iter().position(|r| r.multi_valued).expect("multi relation");
            let pool = RELATIONS[rel].pool.words();
            let n = spec.multi_fact_count.min(pool.len().saturating_sub(2));
            let values = Lexicon::pick_distinct(rng, pool, n);
            for v in values {
                multi_facts.push(Fact {
                    entity: entities[holder_idx].clone(),
                    relation: rel,
                    value: v.to_string(),
                });
            }
        }
    }

    // 4. Assemble paragraphs: per entity, intro + fact sentences; the
    //    multi-valued holder's development facts form their own paragraph.
    let mut paragraphs: Vec<String> = Vec::new();
    let mut records: Vec<FactRecord> = Vec::new();
    let mut filler_left = spec.filler_paragraphs;

    let emit_filler = |paragraphs: &mut Vec<String>, rng: &mut StdRng| {
        let n = rng.random_range(2..5);
        let text: Vec<String> = (0..n).map(|_| Lexicon::filler_sentence(rng)).collect();
        paragraphs.push(text.join(" "));
    };

    for (ei, e) in entities.iter().enumerate() {
        // Interleave filler to separate entity paragraphs.
        if filler_left > 0 && rng.random_bool(0.5) {
            emit_filler(&mut paragraphs, rng);
            filler_left -= 1;
        }
        let intro = e.intro_sentence(rng);
        let mut sentences = vec![intro.clone()];
        let paragraph_idx = paragraphs.len();
        for fact in &entity_facts[ei] {
            let pronoun = rng.random_bool(spec.pronoun_prob);
            let variant = rng.random_range(0..4);
            let sentence = render::statement(fact, pronoun, variant);
            sentences.push(sentence.clone());
            records.push(FactRecord {
                fact: fact.clone(),
                sentence,
                intro: intro.clone(),
                pronoun_form: pronoun,
                paragraph: paragraph_idx,
            });
        }
        paragraphs.push(sentences.join(" "));

        // Development paragraph right after its holder's paragraph.
        if !multi_facts.is_empty() && multi_facts[0].entity.name == e.name {
            let intro2 = format!("{} spent years at the workbench.", e.name);
            let mut dev_sentences = vec![intro2.clone()];
            let dev_paragraph = paragraphs.len();
            for (i, fact) in multi_facts.iter().enumerate() {
                // First development fact names the entity; later ones may
                // use pronouns — mirrors how real prose lists achievements.
                let pronoun = i > 0 && rng.random_bool(spec.pronoun_prob);
                let variant = rng.random_range(0..4);
                let sentence = render::statement(fact, pronoun, variant);
                dev_sentences.push(sentence.clone());
                records.push(FactRecord {
                    fact: fact.clone(),
                    sentence,
                    intro: intro2.clone(),
                    pronoun_form: pronoun,
                    paragraph: dev_paragraph,
                });
            }
            paragraphs.push(dev_sentences.join(" "));
        }
    }
    while filler_left > 0 {
        emit_filler(&mut paragraphs, rng);
        filler_left -= 1;
    }

    // 5. Title + abstract from the first entity.
    let lead = &entities[0];
    let title = format!("The Account of {}", lead.name);
    let abstract_text = format!(
        "This account concerns {} and the people of the region. {}",
        lead.name,
        Lexicon::filler_sentence(rng)
    );

    GeneratedDoc { document: Document { id, title, abstract_text, paragraphs }, records }
}

/// A question bound to its document.
#[derive(Debug, Clone)]
pub struct QaTask {
    /// Index into [`Dataset::documents`].
    pub doc: usize,
    /// The question item.
    pub item: QaItem,
}

/// A complete generated dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name ("quality", "qasper", ...).
    pub name: &'static str,
    /// Documents (the corpus).
    pub documents: Vec<Document>,
    /// Question tasks over those documents.
    pub tasks: Vec<QaTask>,
}

impl Dataset {
    /// Total paragraphs across all documents.
    pub fn num_paragraphs(&self) -> usize {
        self.documents.iter().map(|d| d.paragraphs.len()).sum()
    }

    /// Total LLM-token estimate for the whole corpus.
    pub fn corpus_tokens(&self) -> usize {
        self.documents.iter().map(|d| sage_text::count_tokens(&d.text())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn gen(seed: u64) -> GeneratedDoc {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_document(0, &DocSpec::default(), &mut rng)
    }

    #[test]
    fn document_structure() {
        let g = gen(1);
        assert!(!g.document.paragraphs.is_empty());
        assert!(!g.records.is_empty());
        assert!(g.document.text().contains('\n'));
        assert!(!g.document.title.is_empty());
    }

    #[test]
    fn records_point_at_real_paragraphs() {
        let g = gen(2);
        for r in &g.records {
            let para = &g.document.paragraphs[r.paragraph];
            assert!(para.contains(&r.sentence), "sentence not in its paragraph: {}", r.sentence);
            assert!(para.contains(&r.intro), "intro not in paragraph: {}", r.intro);
        }
    }

    #[test]
    fn pronoun_facts_have_two_evidence_sentences() {
        let g = gen(3);
        let pronoun_record = g.records.iter().find(|r| r.pronoun_form);
        let entity_record = g.records.iter().find(|r| !r.pronoun_form);
        if let Some(r) = pronoun_record {
            assert_eq!(r.evidence().len(), 2);
            assert!(!r.sentence.contains(&r.fact.entity.name));
        }
        if let Some(r) = entity_record {
            assert_eq!(r.evidence().len(), 1);
        }
    }

    #[test]
    fn values_distinct_per_relation() {
        let g = gen(4);
        let mut seen: HashMap<usize, HashSet<&str>> = HashMap::new();
        for r in &g.records {
            if !r.fact.spec().multi_valued {
                let set = seen.entry(r.fact.relation).or_default();
                assert!(
                    set.insert(r.fact.value.as_str()),
                    "duplicate value {} for relation {}",
                    r.fact.value,
                    r.fact.spec().name
                );
            }
        }
    }

    #[test]
    fn multi_valued_facts_present() {
        let g = gen(5);
        let dev: Vec<_> = g.records.iter().filter(|r| r.fact.spec().multi_valued).collect();
        assert_eq!(dev.len(), DocSpec::default().multi_fact_count);
        // All by the same holder, all distinct values.
        let holder = &dev[0].fact.entity.name;
        let values: HashSet<&str> = dev.iter().map(|r| r.fact.value.as_str()).collect();
        assert!(dev.iter().all(|r| &r.fact.entity.name == holder));
        assert_eq!(values.len(), dev.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen(6);
        let b = gen(6);
        assert_eq!(a.document.text(), b.document.text());
        assert_eq!(a.records.len(), b.records.len());
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(gen(7).document.text(), gen(8).document.text());
    }

    #[test]
    fn corpus_token_estimate_positive() {
        let g = gen(9);
        let ds = Dataset { name: "t", documents: vec![g.document], tasks: vec![] };
        assert!(ds.corpus_tokens() > 100);
        assert_eq!(ds.num_paragraphs(), ds.documents[0].paragraphs.len());
    }
}
