//! QuALITY analog: long multi-entity stories with four-option
//! multiple-choice questions, including a *hard* subset of elimination
//! questions that require broad evidence (the paper reports test-set and
//! hard-set accuracy separately in Table VII).

use super::SizeConfig;
use crate::document::{generate_document, Dataset, DocSpec, QaTask};
use crate::qa::{elimination_item, multiple_choice_item};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Document shape: long story, many entities, generous filler and
/// elimination material.
fn doc_spec() -> DocSpec {
    DocSpec {
        num_entities: 18,
        facts_per_entity: 3,
        multi_fact_count: 6,
        filler_paragraphs: 16,
        pronoun_prob: 0.6,
    }
}

/// Generate the QuALITY-analog dataset.
pub fn generate(cfg: SizeConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut documents = Vec::with_capacity(cfg.num_docs);
    let mut tasks = Vec::new();
    for doc_id in 0..cfg.num_docs {
        let generated = generate_document(doc_id, &doc_spec(), &mut rng);
        // Normal multiple-choice questions over single-valued facts.
        let singles: Vec<_> =
            generated.records.iter().filter(|r| !r.fact.spec().multi_valued).collect();
        let mut picked = 0usize;
        let mut order: Vec<usize> = (0..singles.len()).collect();
        for i in 0..order.len() {
            let j = rng.random_range(i..order.len());
            order.swap(i, j);
        }
        for &idx in &order {
            if picked >= cfg.questions_per_doc {
                break;
            }
            let item = multiple_choice_item(singles[idx], &generated.records, &mut rng);
            tasks.push(QaTask { doc: doc_id, item });
            picked += 1;
        }
        // One hard elimination question per document.
        let multi: Vec<_> =
            generated.records.iter().filter(|r| r.fact.spec().multi_valued).cloned().collect();
        if let Some(item) = elimination_item(&multi, &mut rng) {
            tasks.push(QaTask { doc: doc_id, item });
        }
        documents.push(generated.document);
    }
    Dataset { name: "quality", documents, tasks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::tiny;
    use crate::qa::QuestionKind;

    #[test]
    fn has_normal_and_hard_questions() {
        let ds = generate(tiny());
        assert_eq!(ds.documents.len(), 4);
        let normal = ds.tasks.iter().filter(|t| !t.item.hard).count();
        let hard = ds.tasks.iter().filter(|t| t.item.hard).count();
        assert!(normal >= 4, "normal: {normal}");
        assert_eq!(hard, 4, "one elimination question per doc");
    }

    #[test]
    fn all_questions_are_multiple_choice() {
        let ds = generate(tiny());
        for t in &ds.tasks {
            assert!(t.item.is_multiple_choice());
            assert_eq!(t.item.options.len(), 4);
            assert!(matches!(
                t.item.kind,
                QuestionKind::MultipleChoice | QuestionKind::Elimination
            ));
        }
    }

    #[test]
    fn evidence_lives_in_the_right_document() {
        let ds = generate(tiny());
        for t in &ds.tasks {
            let text = ds.documents[t.doc].text();
            for e in &t.item.evidence {
                assert!(text.contains(e), "doc {} missing evidence {e}", t.doc);
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(tiny());
        let b = generate(tiny());
        assert_eq!(a.documents[0].text(), b.documents[0].text());
        assert_eq!(a.tasks.len(), b.tasks.len());
        assert_eq!(a.tasks[0].item.question, b.tasks[0].item.question);
    }

    #[test]
    fn documents_are_long() {
        let ds = generate(tiny());
        for d in &ds.documents {
            assert!(
                sage_text::count_tokens(&d.text()) > 200,
                "QuALITY-analog docs should be long"
            );
        }
    }
}
