//! Resilience-layer bench: the guarded serving path under a fault storm.
//!
//! Every query runs behind the guards, so there is no unguarded system to
//! compare against. One system with every component faulting transiently
//! at 30% answers the question mix: a warm-up pass, then timed passes. The
//! fallback counters of the warm-up pass are reported for context rather
//! than gated.

use sage::prelude::*;
use sage_bench::overhead::{build_system, questions};
use std::hint::black_box;
use std::time::Instant;

fn storm_plan() -> FaultPlan {
    let transient = Rates { transient: 0.3, ..Rates::default() };
    FaultPlan::seeded(0xBAD5EED)
        .with(Component::Embedder, transient)
        .with(Component::IndexSearch, transient)
        .with(Component::Reranker, transient)
        .with(Component::Reader, transient)
}

fn main() {
    let mut storm = build_system();
    storm.set_faults(storm_plan());

    let qs = questions();
    for q in &qs {
        black_box(storm.answer(&Request::new(black_box(q)))).unwrap();
    }
    let parts: Vec<String> =
        storm.fallback_counters().iter().map(|(l, n)| format!("{l}={n}")).collect();

    let rounds = 10;
    let start = Instant::now();
    for _ in 0..rounds {
        for q in &qs {
            black_box(storm.answer(&Request::new(black_box(q)))).unwrap();
        }
    }
    let per_batch = start.elapsed().as_secs_f64() / rounds as f64;
    println!("\n=== resilience under a fault storm ===");
    println!("storm            {:.3} ms/batch", 1e3 * per_batch);
    if parts.is_empty() {
        println!("storm fallbacks  none (all faults absorbed by retries)");
    } else {
        println!("storm fallbacks  {}", parts.join(" "));
    }
}
