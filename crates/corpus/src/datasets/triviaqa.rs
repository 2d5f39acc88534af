//! TriviaQA analog: a large corpus of short evidence documents with
//! factoid questions — the scalability workload of Tables VIII/IX. The
//! corpus is one shared retrieval pool (all documents indexed together),
//! unlike the per-document datasets.

use super::SizeConfig;
use crate::document::{generate_document, Dataset, DocSpec, QaTask};
use crate::qa::factoid_item;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Document shape: short evidence snippets.
fn doc_spec() -> DocSpec {
    DocSpec {
        num_entities: 2,
        facts_per_entity: 3,
        multi_fact_count: 0,
        filler_paragraphs: 1,
        pronoun_prob: 0.5,
    }
}

/// Generate the TriviaQA-analog dataset. With `SizeConfig::num_docs` in the
/// hundreds this produces a corpus of tens of thousands of tokens, enough
/// to exercise index-scale behaviour on a laptop.
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
            let item = factoid_item(singles[idx], &mut rng);
            tasks.push(QaTask { doc: doc_id, item });
        }
        documents.push(generated.document);
    }
    Dataset { name: "triviaqa", documents, tasks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_to_many_documents() {
        let cfg = SizeConfig { num_docs: 100, questions_per_doc: 1, seed: 3 };
        let ds = generate(cfg);
        assert_eq!(ds.documents.len(), 100);
        assert_eq!(ds.tasks.len(), 100);
        assert!(ds.corpus_tokens() > 5_000);
    }

    #[test]
    fn documents_are_short() {
        let ds = generate(SizeConfig { num_docs: 10, questions_per_doc: 1, seed: 4 });
        for d in &ds.documents {
            assert!(
                sage_text::count_tokens(&d.text()) < 400,
                "trivia docs should be short evidence snippets"
            );
        }
    }

    #[test]
    fn generation_speed_is_linear_ish() {
        // Smoke guard: generating 200 docs must be fast (< a few seconds);
        // the scalability bench generates thousands.
        let start = std::time::Instant::now();
        let ds = generate(SizeConfig { num_docs: 200, questions_per_doc: 1, seed: 5 });
        assert_eq!(ds.documents.len(), 200);
        assert!(start.elapsed().as_secs() < 5);
    }
}
