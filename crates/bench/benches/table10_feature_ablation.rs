//! **Table X** — feature-augmentation ablation for the segmentation model:
//! train on QASPER-analog articles (8:2 split) with each feature
//! combination and report validation accuracy.
//!
//! Paper shape: `(x1, x2)` = 84.5% < `+diff` = 85.6% < `+prod` = 88.4% <
//! full = 91.8% — every augmented feature helps, the product most.
//!
//! Asserted: `+prod` and the best augmented set beat `(x1, x2)`. The full
//! set scoring below `+prod` (and below `(x1, x2)`) is a recorded gap
//! (EXPERIMENTS.md Exp-8).

use sage::corpus::datasets::qasper;
use sage::corpus::training::segmentation_pairs;
use sage::prelude::SizeConfig;
use sage::segment::{FeatureConfig, SegmentationModel};
use sage_bench::{header, pct};

fn main() {
    // Articles from the QASPER analog, like the paper's Exp-8.
    let ds = qasper::generate(SizeConfig { num_docs: 24, questions_per_doc: 0, seed: 0x10A });
    let pairs = segmentation_pairs(&ds.documents, 2400, 0x10B);
    let split = pairs.len() * 4 / 5;
    let (train, val) = pairs.split_at(split);
    println!("[bench] {} train / {} val pairs", train.len(), val.len());

    let configs = [
        FeatureConfig { use_diff: false, use_prod: false },
        FeatureConfig { use_diff: true, use_prod: false },
        FeatureConfig { use_diff: false, use_prod: true },
        FeatureConfig { use_diff: true, use_prod: true },
    ];

    header(
        "Table X: feature augmentation ablation (segmentation accuracy)",
        &format!("{:<40} {:>10}", "Features", "Accuracy"),
    );
    // Mean over several initialisation seeds: single-seed accuracy on a
    // ~2k-pair task is noisy enough to scramble the feature ordering.
    let seeds = [0x5E61u64, 0x1111, 0x2222, 0x3333, 0x4444];
    let [base, diff, prod, full] = configs.map(|feat| {
        let mut total = 0.0f32;
        for &seed in &seeds {
            let mut model = SegmentationModel::new(2048, 24, 24, feat, seed);
            model.train(train, 0.05, 10);
            total += model.evaluate(val);
        }
        let accuracy = total / seeds.len() as f32;
        println!("{:<40} {:>10}", feat.label(), pct(accuracy));
        accuracy
    });
    let best = diff.max(prod).max(full);
    assert!(
        prod > base && best > base,
        "Table X: the product feature and the best augmented set must beat (x1, x2)"
    );
    println!(
        "\nTable X holds: +prod {} and the best augmented set {} beat (x1, x2) {}.",
        pct(prod),
        pct(best),
        pct(base)
    );
    println!(
        "Recorded gaps (EXPERIMENTS.md Exp-8): +diff {} vs (x1, x2) {}; full {} vs +prod {}.",
        pct(diff),
        pct(base),
        pct(full),
        pct(prod)
    );
}
