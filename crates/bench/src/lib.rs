//! Shared plumbing for the bench harness.
//!
//! The paper's evaluation is one registry, [`paper::claims`]: each table,
//! figure and extension is a claim that computes its rows and its verdict.
//! The `paper` bench walks it at the default training budget and prints
//! every table and a scorecard; a tier-1 test walks it at the tiny budget.
//! The other bench targets in `benches/` (registered with
//! `harness = false`) time layers of the serving path and print their own
//! readings; EXPERIMENTS.md records the paper-vs-measured comparison.

pub mod paper;

use sage::prelude::*;
use std::sync::OnceLock;

/// The default-budget trained models, shared across benches in one process.
pub fn models() -> &'static TrainedModels {
    static M: OnceLock<TrainedModels> = OnceLock::new();
    M.get_or_init(|| {
        eprintln!("[bench] training models (default budget)...");
        TrainedModels::train(TrainBudget::default())
    })
}

/// The fixture of the overhead benches: six wiki documents and four
/// questions, served by one default SAGE system.
pub mod overhead {
    use sage::corpus::datasets::{wiki, SizeConfig};
    use sage::prelude::*;

    fn corpus() -> Vec<String> {
        let ds = wiki::generate(SizeConfig { num_docs: 6, questions_per_doc: 0, seed: 0xFA17 });
        ds.documents.iter().map(|d| d.text()).collect()
    }

    /// The question mix every timed pass answers.
    pub fn questions() -> Vec<&'static str> {
        vec![
            "where does the baker live in town",
            "what color are the cat's eyes",
            "who works at the harbor",
            "what is the name of the valley",
        ]
    }

    /// A default SAGE system over the fixture corpus.
    pub fn build_system() -> RagSystem {
        RagSystem::build(
            crate::models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        )
    }
}

/// Format a ratio as a percentage with two decimals (paper style).
pub fn pct(x: f32) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// A table header with a rule, as the lines to print before the rows.
pub fn header(title: &str, columns: &str) -> String {
    format!("\n=== {title} ===\n{columns}\n{}\n", "-".repeat(columns.len().max(20)))
}
