//! **Table XI** — cost efficiency on QuALITY (GPT-4o-mini analog): total
//! tokens consumed, accuracy, and relative cost efficiency (Eq. 2,
//! normalised so the best method is 1.0).
//!
//! Paper shape: SAGE uses the fewest tokens (104,939 vs ≈ 140k for the
//! baselines) at the highest accuracy (75% vs 65-70%), so its relative
//! cost efficiency is 1.0 and the baselines land at 0.65-0.69.
//!
//! Asserted: SAGE's Eq. 2 efficiency is at least every baseline's.

use sage::core::experiment::cost_efficiency;
use sage::corpus::datasets::quality;
use sage::prelude::*;
use sage_bench::{header, models, pct, sizes};

fn main() {
    let dataset = quality::generate(sizes::quality());
    let table = cost_efficiency(models(), LlmProfile::gpt4o_mini(), &dataset);

    header(
        "Table XI: cost efficiency on QuALITY (GPT-4o-mini sim)",
        &format!(
            "{:<8} {:>16} {:>10} {:>26}",
            "Model", "Number of tokens", "Accuracy", "Relative Cost Efficiency"
        ),
    );
    for ((label, s), relative) in table.rows.iter().zip(table.relative()) {
        println!(
            "{label:<8} {:>16} {:>10} {relative:>26.3}",
            s.cost.total_tokens(),
            pct(s.accuracy)
        );
    }
    assert!(table.holds(), "Table XI: a baseline is more cost-efficient than SAGE");
    println!("\nTable XI holds: SAGE's cost efficiency is at least every baseline's.");
}
