//! **Figure 7** — segmentation overhead and cost: our segmentation model
//! vs GPT-4-as-segmenter on one article each from the QuALITY,
//! NarrativeQA, and QASPER analogs.
//!
//! The SAGE side is *measured* on this machine and priced at the paper's
//! rented-RTX3090 rate ($5.30/day); the GPT-4 side is priced with Eq. 1 at
//! $10/M input + $30/M output and timed at GPT-4 generation speed.
//!
//! Paper shape: the model saves ≈90% time and ≈99.7% money on every
//! dataset.

use sage::core::case_studies::segmentation_overhead;
use sage::corpus::datasets::{narrativeqa, qasper, quality};
use sage::segment::{Segmenter, SemanticSegmenter};
use sage_bench::{header, models, sizes};
use std::time::Instant;

fn main() {
    let models = models();

    let articles = [
        ("QuALITY", quality::generate(sizes::quality()).documents[0].text()),
        ("NarrativeQA", narrativeqa::generate(sizes::narrativeqa()).documents[0].text()),
        ("QASPER", qasper::generate(sizes::qasper()).documents[0].text()),
    ];

    header(
        "Figure 7: segmentation overhead — SAGE model vs GPT-4",
        &format!(
            "{:<12} {:>9} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
            "Article", "tokens", "SAGE time", "GPT-4 time", "SAGE cost", "GPT-4 cost",
            "time -", "money -"
        ),
    );
    for (name, text) in articles {
        // SAGE: measured wall time (averaged over repeats for stability).
        let segmenter = SemanticSegmenter::new(models.segmentation.clone());
        let reps = 20;
        let start = Instant::now();
        for _ in 0..reps {
            let _ = segmenter.segment(&text);
        }
        let row = segmentation_overhead(&text, start.elapsed() / reps);
        println!(
            "{name:<12} {:>9} {:>11.4}s {:>11.1}s {:>12} {:>12} {:>9.2}% {:>9.2}%",
            row.tokens,
            row.sage_time.as_secs_f64(),
            row.gpt4_time.as_secs_f64(),
            format!("${:.7}", row.sage_dollars),
            format!("${:.4}", row.gpt4_dollars),
            100.0 * row.time_saved(),
            100.0 * row.money_saved(),
        );
        assert!(row.holds(), "{name}: the model must save ≥90% of the time and ≥99% of the money");
    }
}
