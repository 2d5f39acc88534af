//! Question generation over ground-truth fact records.
//!
//! Four question kinds mirror the paper's datasets:
//! * [`QuestionKind::Factoid`] — open-ended, answer is a short phrase
//!   (NarrativeQA / QASPER / TriviaQA style);
//! * [`QuestionKind::MultipleChoice`] — QuALITY style, with distractor
//!   options drawn preferentially from values that *actually appear* in the
//!   document (so noisy chunks genuinely support wrong options);
//! * [`QuestionKind::Elimination`] — QuALITY-hard style "which was NOT…",
//!   solvable only by retrieving all the positive facts (Figure 9's missing
//!   retrieval case);
//! * [`QuestionKind::Unanswerable`] — QASPER style, no supporting evidence.

#![expect(
    clippy::disallowed_types,
    reason = "sets are dedup/membership guards; questions and options are emitted in fact-record and RNG order, never by iterating these sets"
)]

use crate::document::FactRecord;
use crate::lexicon::Lexicon;
use crate::render;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// The flavour of a question (drives prompting and scoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuestionKind {
    /// Open-ended factoid; graded by token overlap (F1 / ROUGE / ...).
    Factoid,
    /// Four-option multiple choice; graded by accuracy.
    MultipleChoice,
    /// "Which was NOT ..." multiple choice needing broad evidence.
    Elimination,
    /// No supporting evidence exists; gold answer is "unanswerable".
    Unanswerable,
}

/// One question with gold answers and ground-truth evidence sentences.
#[derive(Debug, Clone)]
pub struct QaItem {
    /// The question text.
    pub question: String,
    /// Reference answers (first is primary).
    pub answers: Vec<String>,
    /// Options for multiple-choice kinds (empty otherwise).
    pub options: Vec<String>,
    /// Index of the correct option in `options` (0 when not MC).
    pub correct_option: usize,
    /// Question kind.
    pub kind: QuestionKind,
    /// Whether this belongs to the "hard" subset (QuALITY-hard analog).
    pub hard: bool,
    /// Sentences that must be in the retrieved context for the question to
    /// be answerable.
    pub evidence: Vec<String>,
}

impl QaItem {
    /// Whether this item is multiple choice.
    pub fn is_multiple_choice(&self) -> bool {
        matches!(self.kind, QuestionKind::MultipleChoice | QuestionKind::Elimination)
    }
}

/// Open-ended factoid question for one fact.
pub fn factoid_item(record: &FactRecord, rng: &mut StdRng) -> QaItem {
    let variant = rng.random_range(0..4);
    QaItem {
        question: render::question(&record.fact, variant),
        answers: vec![record.fact.value.clone()],
        options: Vec::new(),
        correct_option: 0,
        kind: QuestionKind::Factoid,
        hard: false,
        evidence: record.evidence(),
    }
}

/// Multiple-choice question for one fact, preferring in-document
/// same-relation values as distractor options.
pub fn multiple_choice_item(
    record: &FactRecord,
    doc_records: &[FactRecord],
    rng: &mut StdRng,
) -> QaItem {
    let gold = record.fact.value.clone();
    let mut distractors: Vec<String> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    seen.insert(gold.clone());
    // In-document values for the same relation (genuine noisy support).
    for r in doc_records {
        if r.fact.relation == record.fact.relation
            && r.fact.entity.name != record.fact.entity.name
            && seen.insert(r.fact.value.clone())
        {
            distractors.push(r.fact.value.clone());
        }
    }
    // Top up from the pool.
    let pool = record.fact.spec().pool.words();
    let mut guard = 0;
    while distractors.len() < 3 && guard < 200 {
        let v = Lexicon::pick(rng, pool).to_string();
        if seen.insert(v.clone()) {
            distractors.push(v);
        }
        guard += 1;
    }
    distractors.truncate(3);
    let mut options = distractors;
    let correct = rng.random_range(0..=options.len());
    options.insert(correct, gold.clone());

    let variant = rng.random_range(0..4);
    QaItem {
        question: render::question(&record.fact, variant),
        answers: vec![gold],
        options,
        correct_option: correct,
        kind: QuestionKind::MultipleChoice,
        hard: false,
        evidence: record.evidence(),
    }
}

/// Elimination ("hard") question over an entity's multi-valued facts:
/// options are three values the entity *does* hold plus one it does not;
/// the correct answer is the one it does not.
///
/// Returns `None` when fewer than three multi-valued records exist.
pub fn elimination_item(multi_records: &[FactRecord], rng: &mut StdRng) -> Option<QaItem> {
    if multi_records.len() < 3 {
        return None;
    }
    let spec = multi_records[0].fact.spec();
    let entity = &multi_records[0].fact.entity;
    debug_assert!(multi_records.iter().all(|r| r.fact.entity.name == entity.name));

    let held: HashSet<&str> = multi_records.iter().map(|r| r.fact.value.as_str()).collect();
    let pool = spec.pool.words();
    let not_held: Vec<&&str> = pool.iter().filter(|v| !held.contains(**v)).collect();
    if not_held.is_empty() {
        return None;
    }
    let gold = not_held[rng.random_range(0..not_held.len())].to_string();

    // Pick three held values as the wrong options.
    let mut held_values: Vec<String> =
        multi_records.iter().map(|r| r.fact.value.clone()).collect();
    for i in 0..3 {
        let j = rng.random_range(i..held_values.len());
        held_values.swap(i, j);
    }
    let mut options: Vec<String> = held_values[..3].to_vec();
    let correct = rng.random_range(0..=options.len());
    options.insert(correct, gold.clone());

    // Evidence: *all* positive facts (the reader must see every held value
    // to eliminate the wrong options).
    let mut evidence = Vec::new();
    let mut seen = HashSet::new();
    for r in multi_records {
        for s in r.evidence() {
            if seen.insert(s.clone()) {
                evidence.push(s);
            }
        }
    }

    Some(QaItem {
        question: format!("Which device was not developed by {}?", entity.name),
        answers: vec![gold],
        options,
        correct_option: correct,
        kind: QuestionKind::Elimination,
        hard: true,
        evidence,
    })
}

/// Unanswerable question: asks about a relation the entity has no fact for.
/// Returns `None` when the entity's kind has no unused relation.
pub fn unanswerable_item(doc_records: &[FactRecord], rng: &mut StdRng) -> Option<QaItem> {
    use crate::facts::{relations_for, Fact, RELATIONS};
    // Pick an entity with at least one applicable-but-unused single-valued
    // relation.
    let mut entities: Vec<&FactRecord> = doc_records.iter().collect();
    if entities.is_empty() {
        return None;
    }
    // Shuffle candidate records.
    for i in 0..entities.len() {
        let j = rng.random_range(i..entities.len());
        entities.swap(i, j);
    }
    for record in entities {
        let e = &record.fact.entity;
        let used: HashSet<usize> = doc_records
            .iter()
            .filter(|r| r.fact.entity.name == e.name)
            .map(|r| r.fact.relation)
            .collect();
        let unused: Vec<usize> = relations_for(e.kind)
            .iter()
            .filter(|r| !r.multi_valued)
            .filter_map(|r| RELATIONS.iter().position(|x| std::ptr::eq(x, *r)))
            .filter(|idx| !used.contains(idx))
            .collect();
        if let Some(&rel) = unused.first() {
            let fake = Fact { entity: e.clone(), relation: rel, value: String::new() };
            let variant = rng.random_range(0..4);
            return Some(QaItem {
                question: render::question(&fake, variant),
                answers: vec!["unanswerable".to_string()],
                options: Vec::new(),
                correct_option: 0,
                kind: QuestionKind::Unanswerable,
                hard: false,
                evidence: Vec::new(),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{generate_document, DocSpec};
    use rand::SeedableRng;

    fn gen() -> (crate::document::GeneratedDoc, StdRng) {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generate_document(0, &DocSpec::default(), &mut rng);
        (g, rng)
    }

    #[test]
    fn factoid_question_and_evidence() {
        let (g, mut rng) = gen();
        let item = factoid_item(&g.records[0], &mut rng);
        assert_eq!(item.kind, QuestionKind::Factoid);
        assert!(item.question.contains(&g.records[0].fact.entity.name));
        assert_eq!(item.answers[0], g.records[0].fact.value);
        assert!(!item.evidence.is_empty());
        // Evidence sentences really exist in the document.
        let text = g.document.text();
        for e in &item.evidence {
            assert!(text.contains(e), "evidence missing from doc: {e}");
        }
    }

    #[test]
    fn multiple_choice_has_four_distinct_options() {
        let (g, mut rng) = gen();
        for record in &g.records {
            if record.fact.spec().multi_valued {
                continue;
            }
            let item = multiple_choice_item(record, &g.records, &mut rng);
            assert_eq!(item.options.len(), 4, "{:?}", item.options);
            let set: HashSet<&String> = item.options.iter().collect();
            assert_eq!(set.len(), 4, "duplicate options: {:?}", item.options);
            assert_eq!(item.options[item.correct_option], item.answers[0]);
        }
    }

    #[test]
    fn elimination_correct_option_is_not_held() {
        let (g, mut rng) = gen();
        let multi: Vec<FactRecord> =
            g.records.iter().filter(|r| r.fact.spec().multi_valued).cloned().collect();
        let item = elimination_item(&multi, &mut rng).expect("elimination item");
        assert!(item.hard);
        assert_eq!(item.kind, QuestionKind::Elimination);
        let held: HashSet<&str> = multi.iter().map(|r| r.fact.value.as_str()).collect();
        assert!(!held.contains(item.answers[0].as_str()), "gold must not be held");
        for (i, opt) in item.options.iter().enumerate() {
            if i != item.correct_option {
                assert!(held.contains(opt.as_str()), "wrong option must be held: {opt}");
            }
        }
        // Needs broad evidence.
        assert!(item.evidence.len() >= 3);
    }

    #[test]
    fn elimination_requires_enough_records() {
        let (g, mut rng) = gen();
        let multi: Vec<FactRecord> =
            g.records.iter().filter(|r| r.fact.spec().multi_valued).take(2).cloned().collect();
        assert!(elimination_item(&multi, &mut rng).is_none());
    }

    #[test]
    fn unanswerable_has_no_evidence() {
        let (g, mut rng) = gen();
        let item = unanswerable_item(&g.records, &mut rng).expect("unanswerable");
        assert_eq!(item.kind, QuestionKind::Unanswerable);
        assert!(item.evidence.is_empty());
        assert_eq!(item.answers[0], "unanswerable");
    }

    #[test]
    fn unanswerable_question_not_supported_by_doc() {
        // The asked (entity, relation) must have no record.
        let (g, mut rng) = gen();
        let item = unanswerable_item(&g.records, &mut rng).unwrap();
        for r in &g.records {
            let q = &item.question;
            if q.contains(&r.fact.entity.name) {
                // Same entity: the question must be about a different
                // relation, i.e. no question template of r's relation
                // matches.
                for variant in 0..r.fact.spec().question.len() {
                    assert_ne!(q, &render::question(&r.fact, variant));
                }
            }
        }
    }
}
