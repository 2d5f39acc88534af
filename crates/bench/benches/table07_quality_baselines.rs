//! **Table VII** — QuALITY test-set and hard-set accuracy vs the reader
//! baselines: Longformer-base, DPR+DeBERTaV3-large, CoLISA, RAPTOR+GPT-4,
//! and SAGE+GPT-4.
//!
//! Paper shape: Longformer-base weakest; SAGE+GPT-4 on top (90.10% test /
//! 76.3% hard), with RAPTOR+GPT-4 close on the hard set — hard
//! (elimination) questions are the hardest for retrieval methods.
//!
//! Asserted: Longformer < DPR < CoLISA < RAPTOR < SAGE on the test set,
//! but for the recorded gaps (`TABLE_VII_GAPS`); the hard set is recorded,
//! not asserted (EXPERIMENTS.md Exp-3).

use sage::core::experiment::quality_ladder;
use sage::corpus::datasets::quality;
use sage_bench::{header, models, pct, sizes};

fn main() {
    let dataset = quality::generate(sizes::quality());
    let table = quality_ladder(models(), &dataset);

    header(
        "Table VII: QuALITY accuracy vs baselines",
        &format!("{:<28} {:>18} {:>18}", "Model", "Accuracy (Test)", "Accuracy (Hard)"),
    );
    for (label, s) in &table.rows {
        println!("{label:<28} {:>18} {:>18}", pct(s.normal_accuracy), pct(s.hard_accuracy));
    }
    assert!(table.holds(), "Table VII: out of order at {:?}", table.inversions());
    println!("\nTable VII holds on the test set: Longformer < DPR < CoLISA < RAPTOR < SAGE,");
    let gaps = table.inversions();
    println!("but for {} recorded gap(s).", gaps.len());
    for (row, below) in gaps {
        println!("Recorded gap (EXPERIMENTS.md Exp-3): {row} is not above {below} on the test set.");
    }
    for (row, below) in table.hard_inversions() {
        println!("Recorded gap (EXPERIMENTS.md Exp-3): {row} is not above {below} on the hard set.");
    }
}
