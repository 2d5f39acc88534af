//! Scatter-gather serving throughput across shard counts.
//!
//! The shard layer's perf contract is that fan-out is cheap: each shard
//! holds a 1/N slice of the corpus, every probe scans only its slice, and
//! the deterministic merge is O(total hits) — so serving a query through
//! N shards on one core costs about what the unsharded scan costs, plus a
//! small per-shard dispatch overhead. This bench measures the retrieval
//! prelude (embed → scatter/dense search → rerank pool) end to end at
//! 1/2/4/8 shards on the same corpus and asserts the overhead bound
//! directly; the per-shard scan times it records are also the numbers a
//! real multi-machine deployment would overlap, so the JSON series doubles
//! as the scaling trajectory for ROADMAP perf tracking.
//!
//! The run emits `BENCH_throughput.json` (one object per shard count:
//! measured QPS, µs/query, and the shard fan-out it resolved) for
//! machine-readable regression tracking.

use sage::corpus::datasets::{quality, SizeConfig};
use sage::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Shard counts the same corpus and question mix are measured against.
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];
/// Queries per timed JSON-series measurement.
const ROUNDS: usize = 160;

fn build_inputs() -> (RagSystem, Vec<String>) {
    let ds = quality::generate(SizeConfig { num_docs: 4, questions_per_doc: 4, seed: 0x5CA7 });
    let corpus: Vec<String> = ds.documents.iter().map(|d| d.text()).collect();
    let questions: Vec<String> = ds.tasks.iter().map(|t| t.item.question.clone()).collect();
    let system = RagSystem::build(
        sage_bench::models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &corpus,
    );
    (system, questions)
}

fn main() {
    let (mut system, questions) = build_inputs();

    // QPS readout + the JSON series.
    let mut rows = Vec::new();
    let mut qps_series = Vec::new();
    for &n in &SHARD_COUNTS {
        if n == 1 {
            system.disable_sharding();
        } else {
            system.enable_sharding(n, None);
        }
        let quorum = system.shard_fanout().map_or(1, |f| f.quorum);
        // Warm up once so the first timed query pays no cold caches.
        black_box(system.candidates(&questions[0]));
        let start = Instant::now();
        for i in 0..ROUNDS {
            black_box(system.candidates(&questions[i % questions.len()]));
        }
        let secs = start.elapsed().as_secs_f64();
        let qps = ROUNDS as f64 / secs.max(1e-9);
        let us = secs * 1e6 / ROUNDS as f64;
        println!("shard throughput: {n} shard(s) (quorum {quorum}) -> {qps:9.1} qps ({us:8.1} us/query)");
        qps_series.push(qps);
        rows.push(format!(
            "{{\"shards\": {n}, \"quorum\": {quorum}, \"qps\": {qps:.1}, \"us_per_query\": {us:.1}}}"
        ));
    }
    let json = format!("[\n  {}\n]\n", rows.join(",\n  "));
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json");

    // Acceptance: fanning the exact partition out across 8 shards on one
    // core must cost little more than the unsharded scan — each shard
    // scans 1/N of the vectors, so only dispatch overhead can grow.
    let (unsharded, widest) = (qps_series[0], qps_series[SHARD_COUNTS.len() - 1]);
    let slowdown = unsharded / widest.max(1e-9);
    println!(
        "fan-out overhead: {unsharded:.1} qps @ 1 shard vs {widest:.1} qps @ {} shards = {slowdown:.2}x",
        SHARD_COUNTS[SHARD_COUNTS.len() - 1]
    );
    assert!(
        slowdown < 3.0,
        "shard fan-out is not cheap: {slowdown:.2}x slowdown at {} shards",
        SHARD_COUNTS[SHARD_COUNTS.len() - 1]
    );
}

