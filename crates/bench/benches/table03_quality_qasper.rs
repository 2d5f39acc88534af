//! **Table III** — effectiveness on QuALITY (accuracy) and QASPER
//! (F1-Match) with the GPT-4o-mini analog: every retriever with and
//! without SAGE.
//!
//! Paper shape, asserted: SAGE helps every retriever on both datasets
//! (+2.88% average accuracy on QuALITY, +6.79% average F1 on QASPER).

use sage::core::experiment::sage_lift;
use sage::corpus::datasets::{qasper, quality};
use sage::prelude::*;
use sage_bench::{header, models, pct, sizes};

fn main() {
    let profile = LlmProfile::gpt4o_mini();
    let quality_rows = sage_lift(models(), profile, &quality::generate(sizes::quality()));
    let qasper_rows = sage_lift(models(), profile, &qasper::generate(sizes::qasper()));

    header(
        "Table III: QuALITY accuracy & QASPER F1-Match (GPT-4o-mini sim)",
        &format!(
            "{:<34} {:>18} {:>18}",
            "Model", "Accuracy (QuALITY)", "F1-Match (QASPER)"
        ),
    );
    for (q, p) in quality_rows.iter().zip(&qasper_rows) {
        for (qs, ps, label) in [(&q.sage, &p.sage, "with"), (&q.naive, &p.naive, "without")] {
            let model = format!("{} {label} SAGE", q.kind.label());
            println!("{model:<34} {:>18} {:>18}", pct(qs.accuracy), pct(ps.f1));
        }
    }
    for row in quality_rows.iter().chain(&qasper_rows) {
        assert!(
            row.holds(),
            "{} on {}: SAGE below naive RAG in {:?}",
            row.kind.label(),
            row.dataset,
            row.cells()
        );
    }
    println!("\nTable III holds: SAGE lifts or ties every retriever on both datasets.");
}
