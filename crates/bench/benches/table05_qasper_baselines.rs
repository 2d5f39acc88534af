//! **Table V** — QASPER F1-Match comparison against Title+Abstract, BM25,
//! and DPR, for both the GPT-3.5-turbo and GPT-4o-mini analogs.
//!
//! Paper shape: Title+Abstract is far behind; SAGE beats BM25 and DPR by
//! 10-16% relative on both readers.
//!
//! Asserted: SAGE > BM25 and SAGE > DPR, and BM25 and DPR > Title+Abstract,
//! in F1 with either reader.

use sage::core::experiment::{reader_grid, TABLE_V_METHODS};
use sage::corpus::datasets::qasper;
use sage_bench::{header, models, pct, sizes};

fn main() {
    let grid = reader_grid(models(), &TABLE_V_METHODS, &qasper::generate(sizes::qasper()));

    header(
        "Table V: QASPER F1-Match vs baselines",
        &format!("{:<18} {:>18} {:>22}", "Model", "GPT-3.5 F1-Match", "GPT-4o-mini F1-Match"),
    );
    for (label, [g35, mini]) in &grid.rows {
        println!("{label:<18} {:>18} {:>22}", pct(g35.f1), pct(mini.f1));
    }
    let gaps = grid.table_v_gaps();
    assert!(gaps.is_empty(), "Table V does not hold: {gaps:?}");
    println!("\nTable V holds: SAGE > BM25, DPR > Title+Abstract, on both readers.");
}
