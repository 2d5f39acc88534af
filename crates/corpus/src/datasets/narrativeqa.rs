//! NarrativeQA analog: long narratives (many characters, heavy filler,
//! frequent pronoun coreference) with free-form factoid questions graded by
//! ROUGE / BLEU / METEOR. Each question carries two reference answers, like
//! NarrativeQA's multiple human references.

use super::SizeConfig;
use crate::document::{generate_document, Dataset, DocSpec, QaTask};
use crate::qa::factoid_item;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Document shape: the longest documents of any analog (books / scripts).
fn doc_spec() -> DocSpec {
    DocSpec {
        num_entities: 26,
        facts_per_entity: 3,
        multi_fact_count: 5,
        filler_paragraphs: 26,
        pronoun_prob: 0.65,
    }
}

/// Generate the NarrativeQA-analog dataset.
pub fn generate(cfg: SizeConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut documents = Vec::with_capacity(cfg.num_docs);
    let mut tasks = Vec::new();
    for doc_id in 0..cfg.num_docs {
        let generated = generate_document(doc_id, &doc_spec(), &mut rng);
        let singles: Vec<_> =
            generated.records.iter().filter(|r| !r.fact.spec().multi_valued).collect();
        let mut order: Vec<usize> = (0..singles.len()).collect();
        for i in 0..order.len() {
            let j = rng.random_range(i..order.len());
            order.swap(i, j);
        }
        for &idx in order.iter().take(cfg.questions_per_doc) {
            let mut item = factoid_item(singles[idx], &mut rng);
            // Second human-style reference phrasing.
            item.answers.push(format!("the {}", item.answers[0]));
            tasks.push(QaTask { doc: doc_id, item });
        }
        documents.push(generated.document);
    }
    Dataset { name: "narrativeqa", documents, tasks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::tiny;
    use crate::qa::QuestionKind;

    #[test]
    fn questions_are_free_form_with_two_references() {
        let ds = generate(tiny());
        assert!(!ds.tasks.is_empty());
        for t in &ds.tasks {
            assert_eq!(t.item.kind, QuestionKind::Factoid);
            assert!(t.item.options.is_empty());
            assert_eq!(t.item.answers.len(), 2);
            assert!(t.item.answers[1].starts_with("the "));
        }
    }

    #[test]
    fn documents_are_longest_analog() {
        let nq = generate(tiny());
        let qa = crate::datasets::qasper::generate(tiny());
        let nq_avg: usize =
            nq.documents.iter().map(|d| d.text().len()).sum::<usize>() / nq.documents.len();
        let qa_avg: usize =
            qa.documents.iter().map(|d| d.text().len()).sum::<usize>() / qa.documents.len();
        assert!(nq_avg > qa_avg, "narrativeqa {nq_avg} should exceed qasper {qa_avg}");
    }

    #[test]
    fn deterministic() {
        let a = generate(tiny());
        let b = generate(tiny());
        assert_eq!(a.tasks[0].item.question, b.tasks[0].item.question);
    }
}
