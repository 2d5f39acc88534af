//! Train once, index once, serve many times: persist the model bundle and
//! a built corpus system, then reload them and answer with different
//! reader profiles.
//!
//! ```sh
//! cargo run --release --example persistence
//! ```

use sage::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir();
    let models_path = dir.join("sage_example_models.bin");
    let index_path = dir.join("sage_example_index.bin");

    // 1. Train and save the model bundle.
    println!("training models...");
    let models = TrainedModels::train(TrainBudget::default());
    models.save(&models_path)?;
    println!("models -> {} ({} bytes)", models_path.display(), std::fs::metadata(&models_path)?.len());

    // 2. Build a corpus system and save it.
    let corpus = vec![
        "Whiskers is a playful tabby cat. He has bright green eyes.\n\
         Dorinwick was well known in the region. He lives in Ashford. He plays the mandolin.\n\
         The morning fog settled over the valley, as it had for many years."
            .to_string(),
    ];
    let system = RagSystem::build(
        &models,
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &corpus,
    );
    system.save(&index_path)?;
    println!("index  -> {} ({} bytes)", index_path.display(), std::fs::metadata(&index_path)?.len());

    // 3. Reload in a "fresh process" (here: fresh values) and query with
    //    two different readers — the reader is a runtime choice.
    let reloaded_models = TrainedModels::load(&models_path)?;
    assert_eq!(
        models.segmentation.score_pair("The cat sat.", "He slept."),
        reloaded_models.segmentation.score_pair("The cat sat.", "He slept."),
    );
    for profile in [LlmProfile::gpt4(), LlmProfile::gpt4o_mini()] {
        let served = RagSystem::load(&index_path, profile)?;
        let r = served.answer(&Request::new("Which instrument does Dorinwick play?"))?;
        println!("[{}] {}", profile.name, r.answer.text);
    }

    std::fs::remove_file(&models_path).ok();
    std::fs::remove_file(&index_path).ok();
    Ok(())
}
