//! **Table XII** — LLM proficiency comparison on QuALITY: BM25, DPR, and
//! SAGE accuracy with the GPT-3.5-turbo analog vs the GPT-4o-mini analog
//! (§VIII Exp-14 / insight 3).
//!
//! Paper shape: the GPT-4o-mini column dominates the GPT-3.5 column for
//! every method (~+17-21% relative), and SAGE leads within each column —
//! LLM strength matters more than the retriever.
//!
//! Asserted: the GPT-4o-mini column > the GPT-3.5 column for every method,
//! and SAGE best in each column.

use sage::core::experiment::{reader_grid, TABLE_XII_METHODS};
use sage::corpus::datasets::quality;
use sage_bench::{header, models, pct, sizes};

fn main() {
    let grid = reader_grid(models(), &TABLE_XII_METHODS, &quality::generate(sizes::quality()));

    header(
        "Table XII: accuracy by LLM proficiency on QuALITY",
        &format!("{:<8} {:>20} {:>24}", "Model", "GPT-3.5 Accuracy", "GPT-4o-mini Accuracy"),
    );
    for (label, [g35, mini]) in &grid.rows {
        println!("{label:<8} {:>20} {:>24}", pct(g35.accuracy), pct(mini.accuracy));
    }
    let gaps = grid.table_xii_gaps();
    assert!(gaps.is_empty(), "Table XII does not hold: {gaps:?}");
    println!("\nTable XII holds: GPT-4o-mini > GPT-3.5 for every method;");
    println!("SAGE best in each column.");
}
