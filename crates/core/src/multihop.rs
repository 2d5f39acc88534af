//! Multi-hop retrieval — the paper's future-work direction §X(1)
//! ("Multi-hop retrieval … like Baleen"), implemented Baleen-style:
//! retrieve for a bridge sub-question, condense the bridge answer into the
//! query, retrieve again, answer.
//!
//! Ships with its own synthetic 2-hop dataset: "What color are the eyes of
//! the pet kept by X?" needs hop 1 (X keeps a *tortoise*) before hop 2
//! (the tortoise's eyes are *amber*) — single-hop retrieval sees only the
//! person paragraph and fails.

use crate::exec::execute;
use crate::pipeline::{QueryResult, RagSystem, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sage_corpus::lexicon::{Lexicon, ANIMALS, COLORS};
use sage_eval::Cost;

/// One 2-hop task.
#[derive(Debug, Clone)]
pub struct TwoHopTask {
    /// The full question (answerable only via the bridge).
    pub question: String,
    /// The bridge sub-question (hop 1).
    pub bridge_question: String,
    /// Hop-2 rewrite template with a `{bridge}` placeholder — the
    /// "condensed retrieval" rewrite a Baleen-style system generates after
    /// hop 1.
    pub hop2_template: String,
    /// Gold final answer.
    pub answer: String,
    /// Gold bridge answer (the intermediate entity/species).
    pub bridge_answer: String,
}

/// A synthetic 2-hop corpus plus its tasks.
#[derive(Debug, Clone)]
pub struct TwoHopDataset {
    /// Corpus documents (one string each, `'\n'`-separated paragraphs).
    pub corpus: Vec<String>,
    /// The 2-hop tasks.
    pub tasks: Vec<TwoHopTask>,
}

/// Generate `n` two-hop tasks over one shared corpus.
pub fn generate_two_hop(n: usize, seed: u64) -> TwoHopDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut paragraphs = Vec::new();
    let mut tasks = Vec::new();
    let species_pool = Lexicon::pick_distinct(&mut rng, ANIMALS, n.min(ANIMALS.len()));
    for i in 0..n {
        let person = Lexicon::person_name(&mut rng);
        let pet = Lexicon::pet_name(&mut rng);
        // Distinct species per task keep the bridges unambiguous.
        let species = species_pool[i % species_pool.len()];
        let color = Lexicon::pick(&mut rng, COLORS);
        // Hop-1 paragraph: person → species (pet name never mentioned).
        paragraphs.push(format!(
            "{person} was well known in the region. {person} keeps a {species} at home."
        ));
        // Hop-2 paragraph: species → color (person never mentioned).
        paragraphs.push(format!(
            "{pet} is the {species} of the household. {pet} has bright {color} eyes."
        ));
        // Filler between tasks.
        paragraphs.push(Lexicon::filler_sentence(&mut rng));
        tasks.push(TwoHopTask {
            question: format!("What is the color of the eyes of the pet kept by {person}?"),
            bridge_question: format!("What kind of animal does {person} keep?"),
            hop2_template: "What is the color of the eyes of the {bridge}?".to_string(),
            answer: color.to_string(),
            bridge_answer: species.to_string(),
        });
    }
    TwoHopDataset { corpus: vec![paragraphs.join("\n")], tasks }
}

/// Answer a 2-hop task with iterative retrieval: hop 1 answers the bridge
/// question, hop 2 re-queries with the bridge answer appended (Baleen's
/// "condensed retrieval" step), then answers the full question.
pub fn answer_multihop(system: &RagSystem, task: &TwoHopTask) -> QueryResult {
    let hop1 = execute(system, &Request::new(&task.bridge_question));
    let bridged = task.hop2_template.replace("{bridge}", &hop1.answer.text);
    let mut hop2 = execute(system, &Request::new(&bridged));
    // Account both hops' spend.
    let mut cost = Cost::zero();
    cost.merge(hop1.cost);
    cost.merge(hop2.cost);
    hop2.cost = cost;
    hop2.answer_latency += hop1.answer_latency;
    hop2.retrieval_latency += hop1.retrieval_latency;
    hop2
}

/// Answer the task single-hop (the ablation baseline).
pub fn answer_singlehop(system: &RagSystem, task: &TwoHopTask) -> QueryResult {
    execute(system, &Request::new(&task.question))
}

/// A second 2-hop pattern: "What does the keeper of the {species} do for a
/// living?" — hop 1 finds who keeps the species, hop 2 asks that person's
/// profession. Exercises the person→fact direction (the pet dataset above
/// exercises person→pet).
pub fn generate_two_hop_professions(n: usize, seed: u64) -> TwoHopDataset {
    use sage_corpus::lexicon::PROFESSIONS;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut paragraphs = Vec::new();
    let mut tasks = Vec::new();
    let species_pool = Lexicon::pick_distinct(&mut rng, ANIMALS, n.min(ANIMALS.len()));
    for i in 0..n {
        let person = Lexicon::person_name(&mut rng);
        let species = species_pool[i % species_pool.len()];
        let profession = Lexicon::pick(&mut rng, PROFESSIONS);
        // Hop-1 paragraph: species → keeper (profession never mentioned).
        paragraphs.push(format!(
            "{person} was well known in the region. {person} keeps a {species} at home."
        ));
        // Hop-2 paragraph: keeper → profession (species never mentioned).
        paragraphs.push(format!(
            "Everyone in town had a story about {person}. {person} works as a {profession}."
        ));
        paragraphs.push(Lexicon::filler_sentence(&mut rng));
        tasks.push(TwoHopTask {
            question: format!("What does the keeper of the {species} do for a living?"),
            bridge_question: format!("Who keeps a {species} at home?"),
            hop2_template: "What is {bridge}'s profession?".to_string(),
            answer: profession.to_string(),
            bridge_answer: person,
        });
    }
    TwoHopDataset { corpus: vec![paragraphs.join("
")], tasks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RetrieverKind, SageConfig};
    use crate::models::tiny_models as models;
    use sage_eval::f1_match;
    use sage_llm::LlmProfile;

    fn accuracy(two_hop: bool) -> f32 {
        let ds = generate_two_hop(8, 0xB41);
        let system = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig { use_feedback: false, ..SageConfig::sage() },
            LlmProfile::gpt4(),
            &ds.corpus,
        );
        let scores: Vec<f32> = ds
            .tasks
            .iter()
            .map(|t| {
                let r = if two_hop {
                    answer_multihop(&system, t)
                } else {
                    answer_singlehop(&system, t)
                };
                f1_match(&r.answer.text, std::slice::from_ref(&t.answer))
            })
            .collect();
        scores.iter().sum::<f32>() / scores.len() as f32
    }

    #[test]
    fn dataset_structure() {
        let ds = generate_two_hop(5, 1);
        assert_eq!(ds.tasks.len(), 5);
        let text = &ds.corpus[0];
        for t in &ds.tasks {
            assert!(text.contains(&t.bridge_answer), "bridge {}", t.bridge_answer);
            assert!(text.contains(&t.answer), "answer {}", t.answer);
        }
    }

    #[test]
    fn multihop_beats_singlehop() {
        let single = accuracy(false);
        let multi = accuracy(true);
        assert!(
            multi > single,
            "multihop {multi} should beat singlehop {single}"
        );
        assert!(multi > 0.4, "multihop should mostly succeed: {multi}");
    }

    #[test]
    fn profession_pattern_multihop_beats_singlehop() {
        let ds = generate_two_hop_professions(8, 0xB42);
        let system = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig { use_feedback: false, ..SageConfig::sage() },
            LlmProfile::gpt4(),
            &ds.corpus,
        );
        let score = |two_hop: bool| -> f32 {
            ds.tasks
                .iter()
                .map(|t| {
                    let r = if two_hop {
                        answer_multihop(&system, t)
                    } else {
                        answer_singlehop(&system, t)
                    };
                    f1_match(&r.answer.text, std::slice::from_ref(&t.answer))
                })
                .sum::<f32>()
                / ds.tasks.len() as f32
        };
        let single = score(false);
        let multi = score(true);
        assert!(multi > single, "multi {multi} vs single {single}");
    }

    #[test]
    fn multihop_accounts_both_hops() {
        let ds = generate_two_hop(2, 2);
        let system = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig { use_feedback: false, ..SageConfig::sage() },
            LlmProfile::gpt4(),
            &ds.corpus,
        );
        let single = answer_singlehop(&system, &ds.tasks[0]);
        let multi = answer_multihop(&system, &ds.tasks[0]);
        assert!(multi.cost.input_tokens > single.cost.input_tokens);
    }
}
