//! Resilience-layer benchmarks: the cost of guarding the serving path.
//!
//! Three systems over the same corpus and question mix:
//! - `unguarded` — baseline `answer`, no resilience state.
//! - `guarded_no_faults` — resilience enabled with an empty fault plan; the
//!   target is < 5% overhead over `unguarded` (the guard adds one plan
//!   lookup, one validity check, and per-query breaker/clock setup).
//! - `guarded_fault_storm` — every component faulting transiently at 30%;
//!   one pass over the questions, whose fallback counters are reported
//!   for context rather than gated.
//!
//! Prints the measured overhead of the no-fault guard against the < 5%
//! acceptance target.

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

fn storm_plan() -> FaultPlan {
    let transient = Rates { transient: 0.3, ..Rates::default() };
    FaultPlan::seeded(0xBAD5EED)
        .with(Component::Embedder, transient)
        .with(Component::IndexSearch, transient)
        .with(Component::Reranker, transient)
        .with(Component::Reader, transient)
}

fn main() {
    let unguarded = build_system();

    let mut guarded = build_system();
    guarded.enable_resilience(FaultPlan::none());

    let mut storm = build_system();
    storm.enable_resilience(storm_plan());

    let qs = questions();
    for q in &qs {
        black_box(storm.answer(&Request::new(black_box(q)))).unwrap();
    }

    // Direct overhead readout for the acceptance target.
    let time = |system: &RagSystem| {
        let rounds = 10;
        let start = Instant::now();
        for _ in 0..rounds {
            for q in &qs {
                black_box(system.answer(&Request::new(black_box(q)))).unwrap();
            }
        }
        start.elapsed().as_secs_f64() / rounds as f64
    };
    // Warm both paths once, then measure.
    time(&unguarded);
    time(&guarded);
    let base = time(&unguarded);
    let with_guards = time(&guarded);
    let overhead = 100.0 * (with_guards - base) / base;
    println!(
        "\n=== resilience overhead ===\nunguarded        {:.3} ms/batch\nguarded (clean)  {:.3} ms/batch\noverhead         {overhead:+.2}% (target < 5%)",
        1e3 * base,
        1e3 * with_guards,
    );
    if let Some(counters) = storm.fallback_counters() {
        let parts: Vec<String> = counters.iter().map(|(l, n)| format!("{l}={n}")).collect();
        if parts.is_empty() {
            println!("storm fallbacks  none (all faults absorbed by retries)");
        } else {
            println!("storm fallbacks  {}", parts.join(" "));
        }
    }
}

