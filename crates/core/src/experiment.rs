//! Dataset → method → metrics plumbing shared by every table/figure bench.

use crate::baselines::Method;
use crate::config::{RetrieverKind, SageConfig};
use crate::models::TrainedModels;
use sage_corpus::{Dataset, QuestionKind};
use sage_eval::{bleu, f1_match, mean, meteor, rouge_l, Cost};
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
        sage_eval::cost_efficiency(quality, self.dollars)
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

/// A score column of Tables II–IV and VI.
type Column = (&'static str, fn(&MethodScores) -> f32);

/// The metrics the paper reports on NarrativeQA.
const NARRATIVEQA_COLUMNS: [Column; 4] = [
    ("ROUGE", |s| s.rouge),
    ("BLEU-1", |s| s.bleu1),
    ("BLEU-4", |s| s.bleu4),
    ("METEOR", |s| s.meteor),
];

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
            _ => &NARRATIVEQA_COLUMNS,
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

/// Table IV: naive RAG, naive RAG with each SAGE module alone, and full
/// SAGE, with one retriever on one dataset.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// `(row label, scores)`: naive RAG, the three single modules, full
    /// SAGE.
    pub rows: [(&'static str, MethodScores); 5],
}

impl Ablation {
    /// `(row, metric)` wherever a single module scores below naive RAG.
    /// The paper has none; here they are recorded, not asserted.
    pub fn below_naive(&self) -> Vec<(&'static str, &'static str)> {
        let naive = &self.rows[0].1;
        let mut cells = Vec::new();
        for (label, scores) in &self.rows[1..4] {
            for (metric, score) in NARRATIVEQA_COLUMNS {
                if score(scores) < score(naive) {
                    cells.push((*label, metric));
                }
            }
        }
        cells
    }

    /// The paper's shape: full SAGE scores at least what every other row
    /// does on every metric.
    pub fn holds(&self) -> bool {
        let sage = &self.rows[4].1;
        self.rows.iter().all(|(_, row)| NARRATIVEQA_COLUMNS.iter().all(|(_, s)| s(sage) >= s(row)))
    }
}

/// Table IV's rows with `kind` on `dataset`.
pub fn ablation(
    models: &TrainedModels,
    profile: LlmProfile,
    kind: RetrieverKind,
    dataset: &Dataset,
) -> Ablation {
    let methods = [
        ("Naive RAG", Method::NaiveRag(kind)),
        ("Naive RAG with Segmentation", Method::Custom(kind, SageConfig::naive_with_segmentation())),
        ("Naive RAG with Selection", Method::Custom(kind, SageConfig::naive_with_selection())),
        ("Naive RAG with Feedback", Method::Custom(kind, SageConfig::naive_with_feedback())),
        ("SAGE", Method::Sage(kind)),
    ];
    Ablation { rows: methods.map(|(label, m)| (label, evaluate(m, models, profile, dataset))) }
}

/// The cells of Table VI's ordering that do not reproduce, as
/// [`BaselineLadder::inversions`] reports them (EXPERIMENTS.md Exp-4).
pub const TABLE_VI_GAPS: [(&str, &str, &str); 1] =
    [("METEOR", "Recursively Summarizing Books", "BM25+BERT")];

/// Table VI: the NarrativeQA baselines and SAGE, in the paper's order,
/// weakest first.
#[derive(Debug, Clone)]
pub struct BaselineLadder {
    /// `(row label, scores)`: BiDAF, BM25+BERT, Recursively Summarizing
    /// Books, SAGE.
    pub rows: [(&'static str, MethodScores); 4],
}

impl BaselineLadder {
    /// `(metric, row, the row below it)` wherever a row does not score
    /// strictly above the row below it, on ROUGE and METEOR.
    pub fn inversions(&self) -> Vec<(&'static str, &'static str, &'static str)> {
        let mut cells = Vec::new();
        for (metric, score) in [NARRATIVEQA_COLUMNS[0], NARRATIVEQA_COLUMNS[3]] {
            for pair in self.rows.windows(2) {
                let ((below, lo), (label, hi)) = (&pair[0], &pair[1]);
                if score(hi) <= score(lo) {
                    cells.push((metric, *label, *below));
                }
            }
        }
        cells
    }

    /// The paper's shape, SAGE > Recursive Summarization > BM25+BERT >
    /// BiDAF on ROUGE and METEOR, but for [`TABLE_VI_GAPS`].
    pub fn holds(&self) -> bool {
        self.inversions().iter().all(|cell| TABLE_VI_GAPS.contains(cell))
    }
}

/// Table VI's rows on `dataset`.
pub fn baseline_ladder(
    models: &TrainedModels,
    profile: LlmProfile,
    dataset: &Dataset,
) -> BaselineLadder {
    let methods = [
        ("BiDAF", Method::BiDaf),
        ("BM25+BERT", Method::Bm25Bert),
        ("Recursively Summarizing Books", Method::RecursiveSummary),
        ("SAGE", Method::Sage(RetrieverKind::OpenAiSim)),
    ];
    BaselineLadder {
        rows: methods.map(|(label, m)| (label, evaluate(m, models, profile, dataset))),
    }
}

/// The test-set cells of Table VII's ordering that do not reproduce, as
/// [`QualityLadder::inversions`] reports them (EXPERIMENTS.md Exp-3): at the
/// tiny training budget CoLISA scores below DPR (at the default budget it
/// is above). The hard set is a gap as a whole
/// ([`QualityLadder::hard_inversions`]).
pub const TABLE_VII_GAPS: [(&str, &str); 1] = [("CoLISA (DeBERTaV3-large)", "DPR+DeBERTaV3-large")];

/// Table VII: the QuALITY reader baselines and SAGE, in the paper's order,
/// weakest first, each with the reader analog of its backbone model.
#[derive(Debug, Clone)]
pub struct QualityLadder {
    /// `(row label, scores)`: Longformer-base, DPR+DeBERTaV3-large, CoLISA
    /// (DeBERTaV3-large), RAPTOR+GPT-4, SAGE+GPT-4.
    pub rows: [(&'static str, MethodScores); 5],
}

impl QualityLadder {
    /// `(row, the row below it)` wherever a row does not score strictly
    /// above the row below it on `score`.
    fn misordered(&self, score: fn(&MethodScores) -> f32) -> Vec<(&'static str, &'static str)> {
        self.rows
            .windows(2)
            .filter(|pair| score(&pair[1].1) <= score(&pair[0].1))
            .map(|pair| (pair[1].0, pair[0].0))
            .collect()
    }

    /// The test-set cells out of the paper's order.
    pub fn inversions(&self) -> Vec<(&'static str, &'static str)> {
        self.misordered(|s| s.normal_accuracy)
    }

    /// The hard-set cells out of the paper's order: recorded, not asserted.
    /// On 12 elimination questions RAPTOR+GPT-4 scores above SAGE, as the
    /// paper's own margin nearly vanishes there.
    pub fn hard_inversions(&self) -> Vec<(&'static str, &'static str)> {
        self.misordered(|s| s.hard_accuracy)
    }

    /// The paper's shape, Longformer < DPR < CoLISA < RAPTOR < SAGE on the
    /// test set, but for [`TABLE_VII_GAPS`].
    pub fn holds(&self) -> bool {
        self.inversions().iter().all(|cell| TABLE_VII_GAPS.contains(cell))
    }
}

/// Table VII's rows on `dataset`. Reader strength mirrors each row's
/// backbone: Longformer-base is a small LM, DeBERTaV3-large sits between,
/// RAPTOR and SAGE ride GPT-4.
pub fn quality_ladder(models: &TrainedModels, dataset: &Dataset) -> QualityLadder {
    let rows = [
        ("Longformer-base", Method::Longformer, LlmProfile::unifiedqa_3b()),
        ("DPR+DeBERTaV3-large", Method::DprReader, LlmProfile::gpt35_turbo()),
        ("CoLISA (DeBERTaV3-large)", Method::Colisa, LlmProfile::gpt35_turbo()),
        ("RAPTOR+GPT-4", Method::Raptor, LlmProfile::gpt4()),
        ("SAGE+GPT-4", Method::Sage(RetrieverKind::OpenAiSim), LlmProfile::gpt4()),
    ];
    QualityLadder {
        rows: rows.map(|(label, m, profile)| (label, evaluate(m, models, profile, dataset))),
    }
}

/// Table XI: naive RAG on three retrievers and SAGE, priced by Eq. 2.
#[derive(Debug, Clone)]
pub struct CostEfficiency {
    /// `(row label, scores)`: BM25, DPR, SBERT, SAGE.
    pub rows: [(&'static str, MethodScores); 4],
}

impl CostEfficiency {
    /// Each row's Eq. 2 efficiency over the best row's (the best is 1.0).
    pub fn relative(&self) -> [f64; 4] {
        let best = self.rows.iter().map(|(_, s)| s.efficiency()).fold(0.0, f64::max);
        self.rows.each_ref().map(|(_, s)| if best > 0.0 { s.efficiency() / best } else { 0.0 })
    }

    /// The paper's shape: SAGE's Eq. 2 efficiency is at least every
    /// baseline's.
    pub fn holds(&self) -> bool {
        let sage = self.rows[3].1.efficiency();
        self.rows.iter().all(|(_, s)| sage >= s.efficiency())
    }
}

/// Table XI's rows on `dataset`.
pub fn cost_efficiency(
    models: &TrainedModels,
    profile: LlmProfile,
    dataset: &Dataset,
) -> CostEfficiency {
    let methods = [
        ("BM25", Method::NaiveRag(RetrieverKind::Bm25)),
        ("DPR", Method::NaiveRag(RetrieverKind::Dpr)),
        ("SBERT", Method::NaiveRag(RetrieverKind::Sbert)),
        ("SAGE", Method::Sage(RetrieverKind::OpenAiSim)),
    ];
    CostEfficiency {
        rows: methods.map(|(label, m)| (label, evaluate(m, models, profile, dataset))),
    }
}

/// Table V's rows on QASPER, weakest first.
pub const TABLE_V_METHODS: [(&str, Method); 4] = [
    ("Title+Abstract", Method::TitleAbstract),
    ("BM25", Method::NaiveRag(RetrieverKind::Bm25)),
    ("DPR", Method::NaiveRag(RetrieverKind::Dpr)),
    ("SAGE", Method::Sage(RetrieverKind::OpenAiSim)),
];

/// Table XII's rows on QuALITY.
pub const TABLE_XII_METHODS: [(&str, Method); 3] = [
    ("BM25", Method::NaiveRag(RetrieverKind::Bm25)),
    ("DPR", Method::NaiveRag(RetrieverKind::Dpr)),
    ("SAGE", Method::Sage(RetrieverKind::OpenAiSim)),
];

/// The column labels of [`ReaderGrid`], in column order.
pub const GRID_READERS: [&str; 2] = ["GPT-3.5", "GPT-4o-mini"];

/// Tables V and XII: a method × reader grid on one dataset, the readers
/// being the GPT-3.5-turbo and the GPT-4o-mini analogs ([`GRID_READERS`]).
#[derive(Debug, Clone)]
pub struct ReaderGrid {
    /// `(row label, [GPT-3.5 scores, GPT-4o-mini scores])`, in table order.
    pub rows: Vec<(&'static str, [MethodScores; 2])>,
}

impl ReaderGrid {
    /// `"higher > lower (reader)"` for each `(higher, lower)` row pair and
    /// reader where `higher` does not score strictly above `lower` on
    /// `metric`.
    fn misordered(&self, metric: fn(&MethodScores) -> f32, pairs: &[(&str, &str)]) -> Vec<String> {
        let row = |label: &str| self.rows.iter().find(|(l, _)| *l == label).map(|(_, r)| r);
        let mut cells = Vec::new();
        for (reader, name) in GRID_READERS.iter().enumerate() {
            for &(higher, lower) in pairs {
                let above = match (row(higher), row(lower)) {
                    (Some(h), Some(l)) => metric(&h[reader]) > metric(&l[reader]),
                    _ => false,
                };
                if !above {
                    cells.push(format!("{higher} > {lower} ({name})"));
                }
            }
        }
        cells
    }

    /// Table V's shape, as the cells that fail it: in QASPER F1, SAGE above
    /// BM25 and DPR, and both above Title+Abstract, with either reader.
    pub fn table_v_gaps(&self) -> Vec<String> {
        let order = [
            ("SAGE", "BM25"),
            ("SAGE", "DPR"),
            ("BM25", "Title+Abstract"),
            ("DPR", "Title+Abstract"),
        ];
        self.misordered(|s| s.f1, &order)
    }

    /// Table XII's shape, as the cells that fail it: in QuALITY accuracy,
    /// the GPT-4o-mini column above the GPT-3.5 column for every method, and
    /// SAGE best in each column.
    pub fn table_xii_gaps(&self) -> Vec<String> {
        let [weaker, stronger] = GRID_READERS;
        let mut cells: Vec<String> = self
            .rows
            .iter()
            .filter(|(_, [w, s])| s.accuracy <= w.accuracy)
            .map(|(label, _)| format!("{stronger} > {weaker} ({label})"))
            .collect();
        cells.extend(self.misordered(|s| s.accuracy, &[("SAGE", "BM25"), ("SAGE", "DPR")]));
        cells
    }
}

/// Tables V and XII: every `(label, method)` row with both readers on
/// `dataset`.
pub fn reader_grid(
    models: &TrainedModels,
    methods: &[(&'static str, Method)],
    dataset: &Dataset,
) -> ReaderGrid {
    let readers = [LlmProfile::gpt35_turbo(), LlmProfile::gpt4o_mini()];
    ReaderGrid {
        rows: methods
            .iter()
            .map(|&(label, m)| {
                (label, readers.map(|profile| evaluate(m, models, profile, dataset)))
            })
            .collect(),
    }
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

    /// Tables IV and VI at the tiny budget, on the benches' dataset size.
    #[test]
    fn sage_tops_table_iv_and_table_vi_orders_its_baselines() {
        let size = SizeConfig { num_docs: 12, questions_per_doc: 4, seed: 0x2A01 };
        let dataset = narrativeqa::generate(size);
        let table_iv =
            ablation(models(), LlmProfile::gpt4o_mini(), RetrieverKind::OpenAiSim, &dataset);
        assert!(table_iv.holds(), "{:?}", table_iv.rows);
        let table_vi = baseline_ladder(models(), LlmProfile::unifiedqa_3b(), &dataset);
        assert!(table_vi.holds(), "{:?}", table_vi.inversions());
    }

    /// Tables V and XII at the tiny budget, on the benches' dataset sizes.
    #[test]
    fn sage_leads_both_readers_in_tables_v_and_xii() {
        let size = |seed| SizeConfig { num_docs: 12, questions_per_doc: 4, seed };
        let table_v = reader_grid(models(), &TABLE_V_METHODS, &qasper::generate(size(0x2A03)));
        assert_eq!(table_v.table_v_gaps(), Vec::<String>::new(), "{:?}", table_v.rows);
        let table_xii =
            reader_grid(models(), &TABLE_XII_METHODS, &quality::generate(size(0x2A02)));
        assert_eq!(table_xii.table_xii_gaps(), Vec::<String>::new(), "{:?}", table_xii.rows);
    }

    /// Table VII at the tiny budget, on the bench's dataset size.
    #[test]
    fn table_vii_orders_the_quality_baselines_on_the_test_set() {
        let dataset = quality::generate(SizeConfig { num_docs: 12, questions_per_doc: 4, seed: 0x2A02 });
        let table = quality_ladder(models(), &dataset);
        let accuracy: Vec<_> =
            table.rows.iter().map(|(l, s)| (*l, s.normal_accuracy, s.hard_accuracy)).collect();
        assert!(table.holds(), "{:?} in {accuracy:?}", table.inversions());
    }

    /// Table XI at the tiny budget, on the bench's dataset size.
    #[test]
    fn sage_is_the_most_cost_efficient_in_table_xi() {
        let dataset = quality::generate(SizeConfig { num_docs: 12, questions_per_doc: 4, seed: 0x2A02 });
        let table = cost_efficiency(models(), LlmProfile::gpt4o_mini(), &dataset);
        let effs: Vec<(&str, f64)> = table.rows.iter().map(|(l, s)| (*l, s.efficiency())).collect();
        assert!(table.holds(), "{effs:?}");
        assert_eq!(table.relative()[3], 1.0, "{effs:?}");
    }
}
