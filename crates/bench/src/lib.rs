//! Shared plumbing for the bench harness.
//!
//! The paper's evaluation is one registry, [`paper::claims`]: each table,
//! figure and extension is a claim that computes its rows and its verdict.
//! The `paper` bench walks it at the default training budget and prints
//! every table and a scorecard; a tier-1 test walks it at the tiny budget.
//! The one other bench target, `micro` (`harness = false`), times single
//! substrate calls. End-to-end and per-layer timings are the wall-clock
//! benchmark's (`benchmark/run.sh`); EXPERIMENTS.md records the
//! paper-vs-measured comparison.

pub mod paper;

use sage::prelude::*;
use std::sync::OnceLock;

/// The default-budget trained models, trained once per bench process.
pub fn models() -> &'static TrainedModels {
    static M: OnceLock<TrainedModels> = OnceLock::new();
    M.get_or_init(|| {
        eprintln!("[bench] training models (default budget)...");
        TrainedModels::train(TrainBudget::default())
    })
}

/// Format a ratio as a percentage with two decimals (paper style).
pub fn pct(x: f32) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// A table header with a rule, as the lines to print before the rows.
pub fn header(title: &str, columns: &str) -> String {
    format!("\n=== {title} ===\n{columns}\n{}\n", "-".repeat(columns.len().max(20)))
}
