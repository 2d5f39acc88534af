//! Multi-hop retrieval (the paper's §X future-work direction 1,
//! Baleen-style): questions whose answer needs a bridge fact from a second
//! document region. Single-hop retrieval fails; iterative retrieve →
//! condense → retrieve succeeds.
//!
//! ```sh
//! cargo run --release --example multihop
//! ```

use sage::core::multihop::{answer_multihop, answer_singlehop, generate_two_hop};
use sage::prelude::*;

fn main() {
    println!("training models...");
    let models = TrainedModels::train(TrainBudget::default());

    let dataset = generate_two_hop(10, 0x2407);
    let system = RagSystem::build(
        &models,
        RetrieverKind::OpenAiSim,
        SageConfig { use_feedback: false, ..SageConfig::sage() },
        LlmProfile::gpt4(),
        &dataset.corpus,
    );

    let mut single_f1 = 0.0;
    let mut multi_f1 = 0.0;
    println!();
    for task in &dataset.tasks {
        let single = answer_singlehop(&system, task);
        let multi = answer_multihop(&system, task);
        single_f1 += f1_match(&single.answer.text, std::slice::from_ref(&task.answer));
        multi_f1 += f1_match(&multi.answer.text, std::slice::from_ref(&task.answer));
        println!(
            "Q: {}\n  gold: {:<12} single-hop: {:<16} multi-hop: {}",
            task.question, task.answer, single.answer.text, multi.answer.text
        );
    }
    let n = dataset.tasks.len() as f32;
    println!(
        "\nmean F1 — single-hop: {:.1}%   multi-hop: {:.1}%",
        100.0 * single_f1 / n,
        100.0 * multi_f1 / n
    );
}
