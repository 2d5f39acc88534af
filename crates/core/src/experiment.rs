//! Dataset → method → metrics plumbing shared by every table/figure bench.

use crate::baselines::Method;
use crate::config::RetrieverKind;
use crate::models::TrainedModels;
use sage_corpus::{Dataset, QuestionKind};
use sage_eval::{bleu, cost_efficiency, f1_match, mean, meteor, rouge_l, Cost};
use sage_llm::LlmProfile;

/// Aggregated scores for one (method, dataset, profile) run.
#[derive(Debug, Clone)]
pub struct MethodScores {
    /// Method label.
    pub label: String,
    /// LLM profile name.
    pub llm: String,
    /// Number of graded questions.
    pub n: usize,
    /// ROUGE-L over open-ended questions.
    pub rouge: f32,
    /// BLEU-1 over open-ended questions.
    pub bleu1: f32,
    /// BLEU-4 over open-ended questions.
    pub bleu4: f32,
    /// METEOR over open-ended questions.
    pub meteor: f32,
    /// Token-F1 over open-ended questions.
    pub f1: f32,
    /// Multiple-choice accuracy over all MC questions.
    pub accuracy: f32,
    /// Accuracy over the normal (non-hard) subset.
    pub normal_accuracy: f32,
    /// Accuracy over the hard subset.
    pub hard_accuracy: f32,
    /// Total token usage across every question (all LLM calls).
    pub cost: Cost,
    /// Total dollars at the profile's prices.
    pub dollars: f64,
}

impl MethodScores {
    /// Eq. 2 cost-efficiency with the MC accuracy (or F1 for open sets) as
    /// the quality term.
    pub fn efficiency(&self) -> f64 {
        let quality = if self.accuracy > 0.0 { self.accuracy } else { self.f1 } as f64;
        cost_efficiency(quality, self.dollars)
    }
}

/// Run a method over a per-document dataset: one system is built per
/// document (the paper retrieves within the queried article on QuALITY /
/// QASPER / NarrativeQA) and all of that document's questions reuse it.
pub fn evaluate(
    method: Method,
    models: &TrainedModels,
    profile: LlmProfile,
    dataset: &Dataset,
) -> MethodScores {
    let mut rouge_scores = Vec::new();
    let mut bleu1_scores = Vec::new();
    let mut bleu4_scores = Vec::new();
    let mut meteor_scores = Vec::new();
    let mut f1_scores = Vec::new();
    let mut mc_total = 0usize;
    let mut mc_correct = 0usize;
    let mut normal_total = 0usize;
    let mut normal_correct = 0usize;
    let mut hard_total = 0usize;
    let mut hard_correct = 0usize;
    let mut cost = Cost::zero();

    let mut built: Option<(usize, crate::baselines::DocSystem)> = None;
    let mut n = 0usize;
    for task in &dataset.tasks {
        if built.as_ref().map(|(d, _)| *d) != Some(task.doc) {
            built = Some((task.doc, method.build(models, profile, &dataset.documents[task.doc])));
        }
        let Some((_, system)) = built.as_ref() else { continue };
        let item = &task.item;
        n += 1;
        if item.is_multiple_choice() {
            let result = system.answer(&item.question, Some(&item.options));
            cost.merge(result.cost);
            let correct = result.picked_option == Some(item.correct_option);
            mc_total += 1;
            mc_correct += usize::from(correct);
            if item.hard {
                hard_total += 1;
                hard_correct += usize::from(correct);
            } else {
                normal_total += 1;
                normal_correct += usize::from(correct);
            }
        } else {
            let result = system.answer(&item.question, None);
            cost.merge(result.cost);
            let answer = &result.answer.text;
            rouge_scores.push(rouge_l(answer, &item.answers));
            bleu1_scores.push(bleu(answer, &item.answers, 1));
            bleu4_scores.push(bleu(answer, &item.answers, 4));
            meteor_scores.push(meteor(answer, &item.answers));
            let f1 = if item.kind == QuestionKind::Unanswerable {
                f32::from(answer == "unanswerable")
            } else {
                f1_match(answer, &item.answers)
            };
            f1_scores.push(f1);
        }
    }

    let ratio = |c: usize, t: usize| if t == 0 { 0.0 } else { c as f32 / t as f32 };
    let dollars = cost.dollars(profile.prices);
    MethodScores {
        label: method.label(),
        llm: profile.name.to_string(),
        n,
        rouge: mean(&rouge_scores),
        bleu1: mean(&bleu1_scores),
        bleu4: mean(&bleu4_scores),
        meteor: mean(&meteor_scores),
        f1: mean(&f1_scores),
        accuracy: ratio(mc_correct, mc_total),
        normal_accuracy: ratio(normal_correct, normal_total),
        hard_accuracy: ratio(hard_correct, hard_total),
        cost,
        dollars,
    }
}

/// A score column of Tables II and III.
type Column = (&'static str, fn(&MethodScores) -> f32);

/// Tables II and III: one retriever on one dataset with SAGE and without it
/// (naive RAG: 200-token sentence chunks, a fixed top-K, no feedback).
#[derive(Debug, Clone)]
pub struct SageLift {
    /// The first-stage retriever.
    pub kind: RetrieverKind,
    /// The dataset's name.
    pub dataset: &'static str,
    /// Scores with SAGE.
    pub sage: MethodScores,
    /// Scores without SAGE.
    pub naive: MethodScores,
}

impl SageLift {
    /// `(metric, with SAGE, without SAGE)` for each metric the paper reports
    /// on this dataset: accuracy on QuALITY, F1-Match on QASPER, and ROUGE,
    /// BLEU-1, BLEU-4 and METEOR on NarrativeQA.
    pub fn cells(&self) -> Vec<(&'static str, f32, f32)> {
        let columns: &[Column] = match self.dataset {
            "quality" => &[("accuracy", |s| s.accuracy)],
            "qasper" => &[("F1", |s| s.f1)],
            _ => &[
                ("ROUGE", |s| s.rouge),
                ("BLEU-1", |s| s.bleu1),
                ("BLEU-4", |s| s.bleu4),
                ("METEOR", |s| s.meteor),
            ],
        };
        columns.iter().map(|&(name, score)| (name, score(&self.sage), score(&self.naive))).collect()
    }

    /// The paper's shape: SAGE scores at least what naive RAG does on every
    /// metric.
    pub fn holds(&self) -> bool {
        self.cells().iter().all(|&(_, sage, naive)| sage >= naive)
    }
}

/// Every retriever with and without SAGE on `dataset`, in the paper's
/// table order.
pub fn sage_lift(models: &TrainedModels, profile: LlmProfile, dataset: &Dataset) -> Vec<SageLift> {
    RetrieverKind::all()
        .into_iter()
        .map(|kind| SageLift {
            kind,
            dataset: dataset.name,
            sage: evaluate(Method::Sage(kind), models, profile, dataset),
            naive: evaluate(Method::NaiveRag(kind), models, profile, dataset),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::tiny_models as models;
    use sage_corpus::datasets::{narrativeqa, qasper, quality, SizeConfig};

    fn tiny() -> SizeConfig {
        SizeConfig { num_docs: 3, questions_per_doc: 2, seed: 15 }
    }

    #[test]
    fn evaluate_open_dataset() {
        let ds = narrativeqa::generate(tiny());
        let scores = evaluate(
            Method::Sage(RetrieverKind::OpenAiSim),
            models(),
            LlmProfile::gpt4o_mini(),
            &ds,
        );
        assert_eq!(scores.n, ds.tasks.len());
        assert!(scores.rouge > 0.0, "ROUGE {}", scores.rouge);
        assert!(scores.f1 > 0.0);
        assert!(scores.cost.total_tokens() > 0);
        assert!(scores.dollars > 0.0);
        assert_eq!(scores.accuracy, 0.0, "no MC items in narrativeqa");
    }

    #[test]
    fn evaluate_mc_dataset() {
        let ds = quality::generate(tiny());
        let scores = evaluate(
            Method::Sage(RetrieverKind::OpenAiSim),
            models(),
            LlmProfile::gpt4(),
            &ds,
        );
        assert!(scores.accuracy > 0.0, "accuracy {}", scores.accuracy);
        assert!(scores.normal_accuracy > 0.0);
        // Hard subset exists on quality.
        let hard = ds.tasks.iter().filter(|t| t.item.hard).count();
        assert!(hard > 0);
    }

    #[test]
    fn sage_beats_title_abstract() {
        // The weakest baseline in every table: Title+Abstract rarely
        // contains the queried fact.
        let ds = quality::generate(SizeConfig { num_docs: 5, questions_per_doc: 4, seed: 31 });
        let sage = evaluate(
            Method::Sage(RetrieverKind::OpenAiSim),
            models(),
            LlmProfile::gpt4o_mini(),
            &ds,
        );
        let ta = evaluate(Method::TitleAbstract, models(), LlmProfile::gpt4o_mini(), &ds);
        assert!(
            sage.accuracy > ta.accuracy,
            "SAGE {} vs Title+Abstract {}",
            sage.accuracy,
            ta.accuracy
        );
    }

    #[test]
    fn efficiency_uses_quality_over_dollars() {
        let ds = quality::generate(tiny());
        let s = evaluate(
            Method::Sage(RetrieverKind::OpenAiSim),
            models(),
            LlmProfile::gpt4o_mini(),
            &ds,
        );
        if s.dollars > 0.0 && s.accuracy > 0.0 {
            assert!(s.efficiency() > 0.0);
        }
    }

    /// Tables II and III at the tiny budget, on the benches' dataset sizes.
    #[test]
    fn sage_lifts_every_retriever_on_every_table_ii_and_iii_metric() {
        let size = |seed| SizeConfig { num_docs: 12, questions_per_doc: 4, seed };
        let datasets = [
            narrativeqa::generate(size(0x2A01)),
            quality::generate(size(0x2A02)),
            qasper::generate(size(0x2A03)),
        ];
        for dataset in &datasets {
            for row in sage_lift(models(), LlmProfile::gpt4o_mini(), dataset) {
                assert!(row.holds(), "{} {:?}: {:?}", row.dataset, row.kind, row.cells());
            }
        }
    }
}
