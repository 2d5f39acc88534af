//! **Table II** — effectiveness on NarrativeQA (GPT-4o-mini analog): every
//! retriever with and without SAGE, graded by ROUGE / BLEU-1 / BLEU-4 /
//! METEOR.
//!
//! Paper shape, asserted: each retriever scores at least as high *with*
//! SAGE on every metric (average gains: +8.15% ROUGE, +17.27% BLEU-1,
//! +81.51% BLEU-4, +11.89% METEOR relative).

use sage::core::experiment::sage_lift;
use sage::corpus::datasets::narrativeqa;
use sage::prelude::*;
use sage_bench::{header, models, pct, sizes};

fn main() {
    let dataset = narrativeqa::generate(sizes::narrativeqa());
    let rows = sage_lift(models(), LlmProfile::gpt4o_mini(), &dataset);

    header(
        "Table II: NarrativeQA, retrievers with/without SAGE (GPT-4o-mini sim)",
        &format!("{:<34} {:>8} {:>8} {:>8} {:>8}", "Model", "ROUGE", "BLEU-1", "BLEU-4", "METEOR"),
    );
    for row in &rows {
        for (s, label) in [(&row.sage, "with"), (&row.naive, "without")] {
            println!(
                "{:<34} {:>8} {:>8} {:>8} {:>8}",
                format!("{} {label} SAGE", row.kind.label()),
                pct(s.rouge),
                pct(s.bleu1),
                pct(s.bleu4),
                pct(s.meteor)
            );
        }
    }
    for row in &rows {
        assert!(row.holds(), "{}: SAGE below naive RAG in {:?}", row.kind.label(), row.cells());
    }
    println!("\nTable II holds: every retriever scores at least as high with SAGE on every metric.");
}
