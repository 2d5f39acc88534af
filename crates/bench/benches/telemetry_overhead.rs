//! Telemetry-layer benchmarks: the cost of observing the serving path.
//!
//! Two systems over the same corpus and question mix:
//! - `telemetry_off` — baseline `answer_open`, no telemetry hub attached
//!   and the global flag left off; counters short-circuit on one relaxed
//!   atomic load, so this must match an uninstrumented build.
//! - `telemetry_on` — a `Telemetry` hub attached; every query records
//!   spans, stage histograms, the cost ledger, and a JSONL trace. The
//!   acceptance target is < 5% overhead over `telemetry_off`.
//!
//! Prints the measured overhead, plus a micro readout of the
//! disabled-counter fast path.

use sage::corpus::datasets::{wiki, SizeConfig};
use sage::prelude::*;
use std::hint::black_box;
use std::time::Instant;

fn corpus() -> Vec<String> {
    let ds = wiki::generate(SizeConfig { num_docs: 6, questions_per_doc: 0, seed: 0xFA17 });
    ds.documents.iter().map(|d| d.text()).collect()
}

fn questions() -> Vec<&'static str> {
    vec![
        "where does the baker live in town",
        "what color are the cat's eyes",
        "who works at the harbor",
        "what is the name of the valley",
    ]
}

fn build_system() -> RagSystem {
    RagSystem::build(
        sage_bench::models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &corpus(),
    )
}

fn main() {
    // enable_telemetry() flips the process-global flag, so each timed
    // pass sets the flag explicitly rather than relying on build order.
    let plain = build_system();
    let mut instrumented = build_system();
    let hub = instrumented.enable_telemetry();

    let qs = questions();
    // Direct overhead readout for the acceptance target.
    let time = |system: &RagSystem, on: bool| {
        sage::telemetry::set_enabled(on);
        let rounds = 10;
        let start = Instant::now();
        for _ in 0..rounds {
            for q in &qs {
                black_box(system.answer_open(black_box(q)));
            }
        }
        start.elapsed().as_secs_f64() / rounds as f64
    };
    // Warm both paths once, then measure.
    time(&plain, false);
    time(&instrumented, true);
    let base = time(&plain, false);
    let with_tel = time(&instrumented, true);
    let overhead = 100.0 * (with_tel - base) / base;
    println!(
        "\n=== telemetry overhead ===\ntelemetry off  {:.3} ms/batch\ntelemetry on   {:.3} ms/batch\noverhead       {overhead:+.2}% (target < 5%)",
        1e3 * base,
        1e3 * with_tel,
    );
    println!(
        "queries observed: {} | traces retained: {}",
        hub.query_count(),
        hub.trace_count()
    );

    // Micro readout: the disabled-counter fast path must be ~free (one
    // relaxed load and a branch — target low single-digit ns per call).
    sage::telemetry::set_enabled(false);
    let n = 10_000_000u64;
    let start = Instant::now();
    for i in 0..n {
        sage::telemetry::metrics::VECDB_FLAT_DISTANCE_EVALS.add(black_box(i));
    }
    let off_ns = start.elapsed().as_secs_f64() * 1e9 / n as f64;
    sage::telemetry::set_enabled(true);
    let start = Instant::now();
    for i in 0..n {
        sage::telemetry::metrics::VECDB_FLAT_DISTANCE_EVALS.add(black_box(i));
    }
    let on_ns = start.elapsed().as_secs_f64() * 1e9 / n as f64;
    println!("counter.add: disabled {off_ns:.2} ns/call | enabled {on_ns:.2} ns/call");
}

