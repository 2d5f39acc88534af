//! QASPER analog: "research papers" (title + abstract + body) with
//! information-seeking factoid questions and an unanswerable share, graded
//! by token-F1 ("F1-Match" in the paper).

use super::SizeConfig;
use crate::document::{generate_document, Dataset, DocSpec, QaTask};
use crate::lexicon::{Lexicon, FIELDS};
use crate::qa::{factoid_item, unanswerable_item};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Document shape: paper-sized, moderate entities, some filler (related
/// work / method boilerplate).
fn doc_spec() -> DocSpec {
    DocSpec {
        num_entities: 12,
        facts_per_entity: 3,
        multi_fact_count: 4,
        filler_paragraphs: 10,
        pronoun_prob: 0.55,
    }
}

/// Fraction of questions that are unanswerable (QASPER has a substantial
/// unanswerable share).
const UNANSWERABLE_SHARE: f64 = 0.2;

/// Generate the QASPER-analog dataset.
pub fn generate(cfg: SizeConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut documents = Vec::with_capacity(cfg.num_docs);
    let mut tasks = Vec::new();
    for doc_id in 0..cfg.num_docs {
        let mut generated = generate_document(doc_id, &doc_spec(), &mut rng);
        // Paper-style title/abstract.
        let field = Lexicon::pick(&mut rng, FIELDS);
        let lead = generated
            .records
            .first()
            .map(|r| r.fact.entity.name.clone())
            .unwrap_or_else(|| "the authors".to_string());
        generated.document.title = format!("A Study of {field} Methods");
        generated.document.abstract_text = format!(
            "We present a study of {field}. The work follows {lead} and colleagues. {}",
            Lexicon::filler_sentence(&mut rng)
        );

        let singles: Vec<_> =
            generated.records.iter().filter(|r| !r.fact.spec().multi_valued).collect();
        let mut order: Vec<usize> = (0..singles.len()).collect();
        for i in 0..order.len() {
            let j = rng.random_range(i..order.len());
            order.swap(i, j);
        }
        let mut picked = 0usize;
        for &idx in &order {
            if picked >= cfg.questions_per_doc {
                break;
            }
            if rng.random_bool(UNANSWERABLE_SHARE) {
                if let Some(item) = unanswerable_item(&generated.records, &mut rng) {
                    tasks.push(QaTask { doc: doc_id, item });
                    picked += 1;
                    continue;
                }
            }
            let item = factoid_item(singles[idx], &mut rng);
            tasks.push(QaTask { doc: doc_id, item });
            picked += 1;
        }
        documents.push(generated.document);
    }
    Dataset { name: "qasper", documents, tasks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::tiny;
    use crate::qa::QuestionKind;

    #[test]
    fn mixes_factoid_and_unanswerable() {
        let cfg = SizeConfig { num_docs: 10, questions_per_doc: 5, seed: 9 };
        let ds = generate(cfg);
        let factoid = ds.tasks.iter().filter(|t| t.item.kind == QuestionKind::Factoid).count();
        let unans =
            ds.tasks.iter().filter(|t| t.item.kind == QuestionKind::Unanswerable).count();
        assert!(factoid > 0);
        assert!(unans > 0, "expected some unanswerable questions");
        assert!(factoid > unans, "factoid should dominate");
    }

    #[test]
    fn titles_look_like_papers() {
        let ds = generate(tiny());
        for d in &ds.documents {
            assert!(d.title.starts_with("A Study of"), "{}", d.title);
            assert!(!d.abstract_text.is_empty());
        }
    }

    #[test]
    fn factoid_evidence_present_unanswerable_absent() {
        let ds = generate(tiny());
        for t in &ds.tasks {
            match t.item.kind {
                QuestionKind::Factoid => assert!(!t.item.evidence.is_empty()),
                QuestionKind::Unanswerable => assert!(t.item.evidence.is_empty()),
                _ => panic!("unexpected kind in qasper"),
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(tiny());
        let b = generate(tiny());
        assert_eq!(a.tasks.len(), b.tasks.len());
        assert_eq!(a.documents[1].title, b.documents[1].title);
    }
}
