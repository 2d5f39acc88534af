//! Admission-layer benchmarks: what budget tracking costs when nothing
//! is under pressure.
//!
//! Two paths over the same corpus and question mix:
//! - `budget_off` — baseline `answer` on a bare `Request`, no budget.
//! - `budget_on` — `answer` with a generous `Request::budget`: the rung
//!   is planned once per query (`QueryBudget::plan`) but never taken.
//!   The acceptance target is < 5% overhead over `budget_off`.
//!
//! Prints the measured overhead, plus a micro readout of the admission
//! queue's admit/release fast path.

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
    let system = build_system();
    let qs = questions();
    let generous = QueryBudget::generous();

    // Direct overhead readout for the acceptance target. A generous
    // budget must change nothing about the answers, only add one plan
    // call per query.
    let time = |budgeted: bool| {
        let rounds = 10;
        let start = Instant::now();
        for _ in 0..rounds {
            for q in &qs {
                let budget = budgeted.then_some(generous);
                black_box(system.answer(&Request { budget, ..Request::new(black_box(q)) }))
                    .unwrap();
            }
        }
        start.elapsed().as_secs_f64() / rounds as f64
    };
    // Warm both paths once, then measure.
    time(false);
    time(true);
    let base = time(false);
    let with_budget = time(true);
    let overhead = 100.0 * (with_budget - base) / base;
    println!(
        "\n=== admission overhead ===\nbudget off  {:.3} ms/batch\nbudget on   {:.3} ms/batch\noverhead    {overhead:+.2}% (target < 5%)",
        1e3 * base,
        1e3 * with_budget,
    );

    // Sanity: a generous budget never touches the brownout ladder.
    for q in &qs {
        let r = system.answer(&Request { budget: Some(generous), ..Request::new(q) }).unwrap();
        assert_eq!(r.brownout, BrownoutLevel::None, "generous budget must not brown out");
        assert_eq!(r.answer.text, system.answer(&Request::new(q)).unwrap().answer.text);
    }

    // Micro readout: the admission queue's admit/release pair under zero
    // pressure (depth far below every ramp) — target well under a µs.
    let mut queue = AdmissionQueue::new(AdmissionConfig::default());
    let n = 1_000_000u64;
    let start = Instant::now();
    for i in 0..n {
        let class = Priority::ALL[(i % 3) as usize];
        black_box(queue.admit(black_box(class)));
        queue.release();
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / n as f64;
    println!("queue admit+release: {ns:.2} ns/pair at zero pressure");
}

