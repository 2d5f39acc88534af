//! **Tables VIII & IX** — scalability on the TriviaQA-analog corpus under
//! 1x / 5x / 10x concurrency, for the GPT-4o-mini analog (Table VIII) and
//! the UnifiedQA-3B analog (Table IX).
//!
//! Paper shape to reproduce: memory grows mildly with concurrency (≈27% at
//! 10x); vector-database build and segmentation are one-time costs
//! independent of concurrency; retrieval latency rises slightly under
//! load; feedback/answer latency stays flat (model-bound); SAGE keeps the
//! best F1 at every concurrency level. Each table asserts
//! `scalability::holds` and the bench exits non-zero when it fails.

use sage::core::scalability::{holds, run_cell, CELLS};
use sage::corpus::datasets::triviaqa;
use sage::prelude::*;
use sage_bench::{header, mb, models, secs, sizes};

fn main() {
    let models = models();
    let dataset = triviaqa::generate(sizes::triviaqa());
    println!(
        "[bench] TriviaQA-analog corpus: {} docs, {} questions, {} tokens",
        dataset.documents.len(),
        dataset.tasks.len(),
        dataset.corpus_tokens()
    );

    for (table, profile) in
        [("Table VIII (GPT-4o-mini sim)", LlmProfile::gpt4o_mini()), ("Table IX (UnifiedQA-3B sim)", LlmProfile::unifiedqa_3b())]
    {
        header(
            &format!("{table}: scalability on TriviaQA"),
            &format!(
                "{:<22} {:>10} {:>10} {:>9} {:>20} {:>10} {:>9} {:>9} {:>7}",
                "Method", "Host mem", "GPU mem", "Build DB", "Segmentation", "Retrieval",
                "Feedback", "Answer", "F1"
            ),
        );
        let mut rows = Vec::with_capacity(CELLS.len());
        for (method, concurrency) in CELLS {
            let row = run_cell(method, models, profile, &dataset, concurrency);
            let label = if concurrency == 1 {
                row.method.to_string()
            } else {
                format!("{} ({}x)", row.method, concurrency)
            };
            println!(
                "{label:<22} {:>10} {:>10} {:>9} {:>9} ({:>6.0} tok/s) {:>10} {:>9} {:>9} {:>6.3}",
                mb(row.host_memory_bytes),
                mb(row.gpu_memory_bytes),
                secs(row.build_db_latency),
                secs(row.segmentation_latency),
                row.segmentation_tokens_per_s,
                secs(row.retrieval_latency),
                secs(row.feedback_latency),
                secs(row.answer_latency),
                row.f1
            );
            rows.push(row);
        }
        assert!(
            holds(&rows),
            "{table}: SAGE has the best F1, BM25 + SAGE beats BM25 + Naive RAG, F1 and the \
             simulated latencies are flat over concurrency, and 10x memory is under twice 1x"
        );
    }
    println!("\nTables VIII and IX hold: SAGE has the best F1 and BM25 + SAGE beats BM25 + Naive");
    println!("RAG; F1, feedback and answer latency are flat over 1x/5x/10x; memory grows mildly.");
}
