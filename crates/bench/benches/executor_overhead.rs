//! Execution-engine benchmarks: what the stage-graph executor costs over
//! a hand-inlined call path.
//!
//! Two paths over the same fixed context and question mix:
//! - `inline_read` — the reader invoked directly (`SimLlm::answer_open`
//!   over a preassembled context): the work with zero engine machinery.
//! - `engine_read` — the same single-read work routed through the
//!   executor (`answer` on a `Request` with `chunks`: the panic boundary,
//!   plan build, context setup, slot dispatch, middleware hooks, fuse,
//!   finalize).
//!
//! The delta between the two is pure engine overhead — plan
//! construction plus per-slot dispatch — and the acceptance target is
//! < 5% over `inline_read`. Prints the measured overhead, plus a micro
//! readout of `QueryPlan::resolve` itself.

use sage::prelude::*;
use sage_bench::overhead::{build_system, questions};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let system = build_system();
    let qs = questions();
    // A small fixed context, as `Request::chunks` callers use: the engine
    // and inline paths read exactly the same chunks.
    let chunk_ids: Vec<usize> = (0..system.chunks().len().min(4)).collect();
    let over_chunks = |q| Request { chunks: Some(&chunk_ids), ..Request::new(q) };
    let context: Vec<String> = chunk_ids.iter().map(|&id| system.chunks()[id].clone()).collect();

    // Direct overhead readout for the acceptance target: the engine wraps
    // the identical read in plan build + dispatch + middleware + fuse.
    let time = |engine: bool| {
        let rounds = 50;
        let start = Instant::now();
        for _ in 0..rounds {
            for q in &qs {
                if engine {
                    black_box(system.answer(&over_chunks(black_box(q)))).unwrap();
                } else {
                    black_box(system.llm().answer_open(black_box(q), &context));
                }
            }
        }
        start.elapsed().as_secs_f64() / rounds as f64
    };
    // Warm both paths once, then measure.
    time(false);
    time(true);
    let inline = time(false);
    let engine = time(true);
    let overhead = 100.0 * (engine - inline) / inline;
    println!(
        "\n=== executor overhead ===\ninline read  {:.3} ms/batch\nengine read  {:.3} ms/batch\noverhead     {overhead:+.2}% (target < 5%)",
        1e3 * inline,
        1e3 * engine,
    );

    // Sanity: the engine's fixed plan returns the very answer the inline
    // read produced — the overhead buys bookkeeping, not different work.
    for q in &qs {
        let direct = system.llm().answer_open(q, &context);
        let routed = system.answer(&over_chunks(q)).unwrap();
        assert_eq!(direct.text, routed.answer.text, "engine changed the answer for {q:?}");
        assert_eq!(routed.selected, chunk_ids);
    }

    // Micro readout: resolving the full SAGE plan from the configuration
    // (the extra work `answer` does per query vs the old inlined
    // control flow) — target well under a µs.
    let cfg = SageConfig::sage();
    let n = 1_000_000u64;
    let start = Instant::now();
    for _ in 0..n {
        black_box(QueryPlan::resolve(black_box(&cfg), true, true));
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / n as f64;
    println!("plan resolve: {ns:.2} ns/query");
}

