//! Live-corpus update throughput: what a commit costs as the corpus grows.
//!
//! The live writer's contract is that commit cost scales with the batch,
//! not the corpus — only dirty documents are re-segmented and re-embedded,
//! and index inserts are appends. This bench measures a fixed-size update
//! batch against stores of increasing size and checks the sublinearity
//! directly: per-commit time at the largest corpus must stay within a
//! small factor of the smallest, nowhere near the corpus-size ratio.
//!
//! The run emits `BENCH_live_corpus.json` (one object per corpus size) so the perf trajectory ROADMAP item 5
//! expects has a machine-readable series to track across commits.

use sage::core::live::{CorpusWriter, LiveConfig, LiveOp};
use std::hint::black_box;
use std::time::Instant;

/// Corpus sizes (documents) the fixed batch is measured against.
const SIZES: [usize; 3] = [64, 256, 1024];
/// Upserts per measured commit.
const BATCH: usize = 8;

fn doc_text(doc: usize, rev: usize) -> String {
    format!(
        "Ledger entry {doc} revision {rev}. The registry lists holding {} \
         under section {}. A clerk appended note {} about the transfer.",
        doc * 17 + rev,
        doc % 12,
        rev + 1
    )
}

fn seeded_store(dir: &std::path::Path, docs: usize) -> CorpusWriter {
    std::fs::remove_dir_all(dir).ok();
    // Compaction off (threshold unreachable) so the commits measure the
    // pure delta path, not amortized rebuilds.
    let cfg = LiveConfig {
        compact_dead_fraction: 1.1,
        compact_min_dead: usize::MAX,
        ..LiveConfig::default()
    };
    let (mut w, _) = CorpusWriter::open(dir, cfg).expect("open store");
    let ops: Vec<LiveOp> = (0..docs)
        .map(|d| LiveOp::Upsert { doc_id: format!("doc-{d:05}"), text: doc_text(d, 0) })
        .collect();
    for batch in ops.chunks(128) {
        w.commit(batch).expect("seed commit");
    }
    w
}

fn update_batch(docs: usize, rev: usize) -> Vec<LiveOp> {
    // Update a deterministic spread of existing documents.
    (0..BATCH)
        .map(|i| {
            let d = (i * docs) / BATCH;
            LiveOp::Upsert { doc_id: format!("doc-{d:05}"), text: doc_text(d, rev) }
        })
        .collect()
}

fn main() {
    // Sublinearity readout + the JSON series.
    let mut rows = Vec::new();
    let mut per_commit_us = Vec::new();
    for &docs in &SIZES {
        let dir = std::env::temp_dir().join(format!("sage_bench_live_json_{docs}"));
        let mut w = seeded_store(&dir, docs);
        let rounds = 40usize;
        let start = Instant::now();
        for rev in 1..=rounds {
            black_box(w.commit(&update_batch(docs, rev)).expect("commit"));
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
        let chunks = w.snapshot().live_chunks();
        std::fs::remove_dir_all(&dir).ok();
        println!(
            "live update: {docs:5} docs ({chunks:5} live chunks) -> \
             {us:9.1} us/commit ({:.1} us/updated doc)",
            us / BATCH as f64
        );
        per_commit_us.push(us);
        rows.push(format!(
            "{{\"corpus_docs\": {docs}, \"live_chunks\": {chunks}, \
             \"batch\": {BATCH}, \"us_per_commit\": {us:.1}, \
             \"us_per_update\": {:.2}}}",
            us / BATCH as f64
        ));
    }
    let json = format!("[\n  {}\n]\n", rows.join(",\n  "));
    std::fs::write("BENCH_live_corpus.json", &json).expect("write BENCH_live_corpus.json");
    println!("wrote BENCH_live_corpus.json");

    // The acceptance check: 16x the corpus must not cost anywhere near
    // 16x per commit. Allow 4x for cache effects and index depth.
    let (small, large) = (per_commit_us[0], per_commit_us[SIZES.len() - 1]);
    let ratio = large / small.max(1e-9);
    println!(
        "sublinearity: {large:.1} us @ {} docs vs {small:.1} us @ {} docs = {ratio:.2}x \
         (corpus grew {}x)",
        SIZES[SIZES.len() - 1],
        SIZES[0],
        SIZES[SIZES.len() - 1] / SIZES[0]
    );
    assert!(
        ratio < 4.0,
        "update cost is not sublinear in corpus size: {ratio:.2}x per-commit growth"
    );
}

