//! Quickstart: build a SAGE system over a small corpus and ask questions.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sage::prelude::*;

fn main() -> Result<(), SageError> {
    // 1. Train the models (segmentation model, reranker, encoders). All
    //    training is deterministic and runs on CPU in seconds.
    println!("training models...");
    let models = TrainedModels::train(TrainBudget::default());

    // 2. A corpus: each document is one string, paragraphs separated by
    //    '\n'. Note how facts about an entity use pronouns — exactly what
    //    breaks fixed-length chunking (the paper's limitation L1).
    let corpus = vec![
        "Whiskers is a playful tabby cat. He has bright green eyes. His fur is mostly gray.\n\
         The morning fog settled over the valley, as it had for many years.\n\
         Patchy is a ferret with a stubborn streak. Patchy has bright orange eyes.\n\
         Dorinwick was well known in the region. He lives in Ashford. He works as a baker. \
         He plays the mandolin.\n\
         Bells rang faintly from the far tower, and the day passed slowly."
            .to_string(),
    ];

    // 3. Build: semantic segmentation -> embeddings -> vector index.
    let system = RagSystem::build(
        &models,
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &corpus,
    );
    let stats = system.build_stats();
    println!(
        "built: {} chunks from {} corpus tokens (segmentation {:?}, indexing {:?})\n",
        stats.chunk_count, stats.corpus_tokens, stats.segmentation_time, stats.index_time
    );

    // 4. Ask open-ended questions. Every query is a `Request`; `answer`
    //    turns a panic anywhere in the pipeline into an error.
    for question in [
        "What is the color of Whiskers's eyes?",
        "Where does Dorinwick live?",
        "Which instrument does Dorinwick play?",
        "What is the color of Patchy's eyes?",
        "Where was Dorinwick born?", // not in the corpus
    ] {
        let r = system.answer(&Request::new(question))?;
        println!(
            "Q: {question}\nA: {}  (confidence {:.2}, {} chunks, {} feedback rounds, \
             {} tokens, ${:.6})\n",
            r.answer.text,
            r.answer.confidence,
            r.selected.len(),
            r.feedback_rounds,
            r.cost.total_tokens(),
            r.cost.dollars(PriceTable::gpt4o_mini()),
        );
    }

    // 5. Multiple choice works too: the same request, with options.
    let options: Vec<String> =
        ["orange", "green", "violet", "gray"].iter().map(|s| s.to_string()).collect();
    let question = "What is the color of Whiskers's eyes?";
    let r = system.answer(&Request { options: Some(&options), ..Request::new(question) })?;
    println!(
        "MC: picked option {} ({})",
        r.picked_option.unwrap(),
        r.answer.text
    );
    Ok(())
}
