//! **Retrieval-quality decomposition** — the paper attributes SAGE's gains
//! to *precise retrieval*; this bench measures that claim directly,
//! reader-free, against exact evidence ground truth: for each QASPER-analog
//! question, a retrieved chunk is relevant iff it contains a gold evidence
//! sentence. Compares 200-token chunking vs semantic chunking, first-stage
//! vs reranked ordering.
//!
//! Asserted: reranking lifts MRR, Hit@1 and nDCG@10 for both chunkings.
//! "Semantic chunks beat 200-token chunks" is a recorded gap: on this
//! analog the 200-token chunks rank the gold evidence higher, first stage
//! and reranked (EXPERIMENTS.md Ext-4).

use sage::corpus::datasets::qasper;
use sage::prelude::*;
use sage_bench::{header, models, sizes};

struct Tally {
    mrr: f32,
    recall5: f32,
    hit1: f32,
    ndcg10: f32,
    n: usize,
}

impl Tally {
    fn new() -> Self {
        Self { mrr: 0.0, recall5: 0.0, hit1: 0.0, ndcg10: 0.0, n: 0 }
    }

    fn add(&mut self, relevant: &[bool]) {
        self.mrr += sage::eval::reciprocal_rank(relevant);
        self.recall5 += sage::eval::recall_at_k(relevant, 5);
        self.hit1 += sage::eval::hit_rate_at_k(relevant, 1);
        self.ndcg10 += sage::eval::ndcg_at_k(relevant, 10);
        self.n += 1;
    }

    /// Print the row and return its means: `[MRR, Recall@5, Hit@1, nDCG@10]`.
    fn row(&self, label: &str) -> [f32; 4] {
        let n = self.n.max(1) as f32;
        let means = [self.mrr, self.recall5, self.hit1, self.ndcg10].map(|sum| sum / n);
        println!(
            "{label:<36} {:>8.3} {:>9.3} {:>12.3} {:>9.3}",
            means[0], means[1], means[2], means[3]
        );
        means
    }
}

/// The metrics reranking must lift: MRR, Hit@1 and nDCG@10.
const LIFTED: [(usize, &str); 3] = [(0, "MRR"), (2, "Hit@1"), (3, "nDCG@10")];

fn main() {
    let models = models();
    let dataset = qasper::generate(sizes::qasper());

    header(
        "Retrieval quality vs gold evidence (QASPER analog)",
        &format!(
            "{:<36} {:>8} {:>9} {:>12} {:>9}",
            "Configuration", "MRR", "Recall@5", "Hit@1", "nDCG@10"
        ),
    );

    let [naive_first, naive_reranked, semantic_first, semantic_reranked] = [
        ("200-token chunks, first stage", SageConfig::naive_rag()),
        ("200-token chunks, reranked", SageConfig::rerank_fixed_k()),
        (
            "semantic chunks, first stage",
            SageConfig { use_rerank: false, use_selection: false, use_feedback: false, ..SageConfig::sage() },
        ),
        (
            "semantic chunks, reranked",
            SageConfig { use_selection: false, use_feedback: false, ..SageConfig::sage() },
        ),
    ]
    .map(|(label, config)| {
        let mut tally = Tally::new();
        let mut built: Option<(usize, RagSystem)> = None;
        for task in &dataset.tasks {
            if task.item.evidence.is_empty() {
                continue; // unanswerable questions have no gold evidence
            }
            if built.as_ref().map(|(d, _)| *d) != Some(task.doc) {
                let corpus = vec![dataset.documents[task.doc].text()];
                built = Some((
                    task.doc,
                    RagSystem::build(
                        models,
                        RetrieverKind::OpenAiSim,
                        config,
                        LlmProfile::gpt4o_mini(),
                        &corpus,
                    ),
                ));
            }
            let (_, system) = built.as_ref().unwrap();
            let (cand_ids, ranked) = system.candidates(&task.item.question);
            let relevant: Vec<bool> = ranked
                .iter()
                .map(|r| {
                    let chunk = &system.chunks()[cand_ids[r.index]];
                    task.item.evidence.iter().any(|e| chunk.contains(e))
                })
                .collect();
            tally.add(&relevant);
        }
        tally.row(label)
    });

    for (chunking, first, reranked) in [
        ("200-token", naive_first, naive_reranked),
        ("semantic", semantic_first, semantic_reranked),
    ] {
        for (i, metric) in LIFTED {
            assert!(
                reranked[i] > first[i],
                "reranking must lift {metric} with {chunking} chunks: {:.3} -> {:.3}",
                first[i],
                reranked[i]
            );
        }
    }
    println!("\nHolds: reranking lifts MRR, Hit@1 and nDCG@10 for both chunkings.");
    println!(
        "Recorded gap (semantic chunks beat 200-token chunks): MRR first stage {:.3} vs {:.3}, \
         reranked {:.3} vs {:.3}.",
        semantic_first[0], naive_first[0], semantic_reranked[0], naive_reranked[0]
    );
}
