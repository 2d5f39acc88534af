//! **Extension (paper §X future work 2)** — fine-tuning the inexpensive
//! LLM: "we can generate several batches of question-answer pairs to
//! fine-tune GPT-3.5-turbo. Then, we might achieve the same QA performance
//! based on the inexpensive LLM."
//!
//! This bench runs SAGE on QuALITY with the GPT-3.5 analog fine-tuned on
//! increasing amounts of generated QA data and compares accuracy and total
//! dollars against GPT-4o-mini and GPT-4.
//!
//! Asserted: accuracy does not fall as the pair count grows, 2,000 pairs
//! close at least half of the accuracy gap from GPT-3.5 to GPT-4, and
//! 2,000 pairs cost less than GPT-4. Printed as a recorded gap when it
//! holds (EXPERIMENTS.md Ext-2): 2,000 pairs cost more than GPT-4o-mini.

use sage::corpus::datasets::quality;
use sage::llm::fine_tune;
use sage::prelude::*;
use sage_bench::{header, models, pct, sizes};

fn main() {
    let models = models();
    let dataset = quality::generate(sizes::quality());

    let rows: [(&str, LlmProfile); 5] = [
        ("GPT-3.5-turbo", LlmProfile::gpt35_turbo()),
        ("GPT-3.5 + FT (200 pairs)", fine_tune(LlmProfile::gpt35_turbo(), 200)),
        ("GPT-3.5 + FT (2000 pairs)", fine_tune(LlmProfile::gpt35_turbo(), 2000)),
        ("GPT-4o-mini", LlmProfile::gpt4o_mini()),
        ("GPT-4", LlmProfile::gpt4()),
    ];

    header(
        "Extension: fine-tuning the cheap LLM (SAGE on QuALITY)",
        &format!("{:<28} {:>10} {:>14} {:>22}", "Reader", "Accuracy", "Total cost", "Accuracy per dollar"),
    );
    let [base, ft200, ft2000, mini, gpt4] = rows.map(|(label, profile)| {
        let s = evaluate(Method::Sage(RetrieverKind::OpenAiSim), models, profile, &dataset);
        let dollars = s.dollars;
        println!(
            "{label:<28} {:>10} {:>14} {:>22.1}",
            pct(s.accuracy),
            format!("${dollars:.6}"),
            if dollars > 0.0 { s.accuracy as f64 / dollars } else { f64::INFINITY },
        );
        (s.accuracy, dollars)
    });

    let ladder = [pct(base.0), pct(ft200.0), pct(ft2000.0)];
    assert!(
        base.0 <= ft200.0 && ft200.0 <= ft2000.0,
        "accuracy falls as fine-tuning pairs grow (0 / 200 / 2000): {ladder:?}"
    );
    assert!(
        2.0 * (ft2000.0 - base.0) >= gpt4.0 - base.0,
        "2000 pairs close less than half of the gap to GPT-4: {} -> {} vs {}",
        pct(base.0),
        pct(ft2000.0),
        pct(gpt4.0)
    );
    assert!(
        ft2000.1 < gpt4.1,
        "2000 pairs cost ${:.6}, not less than GPT-4's ${:.6}",
        ft2000.1,
        gpt4.1
    );
    println!(
        "\nAsserted: accuracy {ladder:?} does not fall with the pair count, 2000 pairs close \
         at least half of the gap to GPT-4 ({}), and cost less than GPT-4.",
        pct(gpt4.0)
    );
    if ft2000.1 > mini.1 {
        println!(
            "Recorded gap (EXPERIMENTS.md Ext-2): 2000 pairs cost ${:.6}, dearer than \
             GPT-4o-mini's ${:.6}.",
            ft2000.1, mini.1
        );
    }
}
