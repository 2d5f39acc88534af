//! **Hyper-parameter sensitivity** — the design choices DESIGN.md calls
//! out: segmentation threshold `ss`, gradient threshold `g`, and initial
//! `min_k`, each swept around the paper's defaults (0.55 / 0.3 / 7) on the
//! QuALITY analog. Reports accuracy and mean generation-input tokens so
//! both sides of the precision/recall trade-off are visible.
//!
//! Claimed shape: accuracy is flat near the paper defaults (the gradient
//! rule makes selection robust to `min_k`), token cost grows with `min_k`
//! and with looser thresholds, and extreme `ss` under- or over-segments
//! and loses accuracy.
//!
//! Asserted: tokens/question grow with `min_k`, and as `ss` loosens (a
//! lower `ss` splits less, so each chunk is longer). Every other part is
//! printed as a recorded gap when it fails (EXPERIMENTS.md Ext-5).

use sage::corpus::datasets::quality;
use sage::prelude::*;
use sage_bench::{header, models, pct};

fn run(models: &TrainedModels, dataset: &sage::prelude::Dataset, cfg: SageConfig) -> (f32, u64) {
    let s = evaluate(
        Method::Custom(RetrieverKind::OpenAiSim, cfg),
        models,
        LlmProfile::gpt4o_mini(),
        dataset,
    );
    (s.accuracy, s.cost.total_tokens() / s.n.max(1) as u64)
}

fn main() {
    let models = models();
    // Smaller than the table benches: this sweep runs 13 full evaluations.
    let dataset = quality::generate(SizeConfig { num_docs: 8, questions_per_doc: 4, seed: 0xAB1 });
    let base = SageConfig { use_feedback: false, ..SageConfig::sage() };

    let ss_grid = [0.2f32, 0.4, 0.55, 0.7, 0.9];
    let ss_rows: Vec<(f32, u64)> = ss_grid
        .iter()
        .map(|&ss| run(models, &dataset, SageConfig { segmentation_threshold: ss, ..base }))
        .collect();
    table("Sensitivity: segmentation threshold ss (paper default 0.55)", "ss", &ss_grid, &ss_rows);

    let g_grid = [0.05f32, 0.3, 0.6, 0.9];
    let g_rows: Vec<(f32, u64)> =
        g_grid.iter().map(|&g| run(models, &dataset, SageConfig { gradient: g, ..base })).collect();
    table("Sensitivity: gradient threshold g (paper default 0.3)", "g", &g_grid, &g_rows);

    let min_k_grid = [1usize, 3, 7, 12];
    let min_k_rows: Vec<(f32, u64)> = min_k_grid
        .iter()
        .map(|&min_k| run(models, &dataset, SageConfig { min_k, ..base }))
        .collect();
    table("Sensitivity: initial min_k (paper default 7)", "min_k", &min_k_grid, &min_k_rows);

    let tokens = |rows: &[(f32, u64)]| rows.iter().map(|r| r.1).collect::<Vec<u64>>();
    let accuracy = |rows: &[(f32, u64)]| rows.iter().map(|r| pct(r.0)).collect::<Vec<String>>();
    let min_k_tokens = tokens(&min_k_rows);
    assert!(
        min_k_tokens.windows(2).all(|w| w[0] <= w[1]),
        "tokens/question fall as min_k grows: {min_k_tokens:?}"
    );
    let ss_tokens = tokens(&ss_rows);
    assert!(
        ss_tokens.windows(2).all(|w| w[0] >= w[1]),
        "tokens/question fall as ss loosens: {ss_tokens:?}"
    );
    println!("\nAsserted: tokens/question grow with min_k {min_k_tokens:?} and as ss loosens {ss_tokens:?}.");

    let flat = |rows: &[(f32, u64)]| rows.iter().all(|r| r.0 == rows[0].0);
    if !flat(&min_k_rows) || !flat(&g_rows) {
        println!(
            "Recorded gap (EXPERIMENTS.md Ext-5): accuracy is not flat near the defaults: \
             min_k {:?}, g {:?}.",
            accuracy(&min_k_rows),
            accuracy(&g_rows)
        );
    }
    // A lower g keeps more chunks, so a looser g should cost more tokens.
    let g_tokens = tokens(&g_rows);
    let g_grows = g_tokens.windows(2).all(|w| w[0] >= w[1]) && g_tokens.first() > g_tokens.last();
    if !g_grows {
        println!(
            "Recorded gap (EXPERIMENTS.md Ext-5): tokens/question do not grow as g loosens: \
             {g_tokens:?}."
        );
    }
    let default_accuracy = ss_rows[2].0;
    let (first, last) = (ss_rows[0].0, ss_rows[ss_rows.len() - 1].0);
    if first >= default_accuracy || last >= default_accuracy {
        println!(
            "Recorded gap (EXPERIMENTS.md Ext-5): extreme ss does not lose accuracy: {:?}.",
            accuracy(&ss_rows)
        );
    }
}

/// Print one sweep's rows under its own header.
fn table<T: std::fmt::Display>(title: &str, knob: &str, grid: &[T], rows: &[(f32, u64)]) {
    header(title, &format!("{knob:<10} {:>10} {:>16}", "Accuracy", "tokens/question"));
    for (value, (acc, tok)) in grid.iter().zip(rows) {
        println!("{:<10} {:>10} {tok:>16}", value.to_string(), pct(*acc));
    }
}
