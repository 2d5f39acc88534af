//! Lint engine cost: what the whole-program analysis adds over the old
//! token-only scan, and whether a full workspace run fits in a commit
//! hook.
//!
//! Two cells run against the real repository checkout:
//! - `token_scan` — lex + token rules only, per file, via
//!   [`sage::lint::lint_source`];
//! - `full_analysis` — the complete pipeline via
//!   [`sage::lint::workspace_analysis`]: lex, item parse, symbol
//!   resolution, call-graph construction, panic-reachability,
//!   determinism-taint, and the stale-suppression sweep.
//!
//! Acceptance target, asserted after the Criterion cells: one full
//! workspace analysis must finish in under 2 seconds, so the lint gate
//! stays cheap enough to run on every `scripts/check.sh` invocation.
//! The per-phase split printed alongside comes from the engine's own
//! timing hooks (the same numbers `sage lint --metrics-out` exports).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn bench_lint(c: &mut Criterion) {
    // The workspace root: two levels above this package's manifest.
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    // Gather sources once so the token_scan cell measures analysis, not IO.
    let analysis = sage::lint::workspace_analysis(root).expect("workspace scan");
    assert!(analysis.report.files_scanned > 0, "no sources under {}", root.display());
    let sources: Vec<(String, String, String)> = {
        let mut out = Vec::new();
        for f in &analysis.workspace.files {
            let text = std::fs::read_to_string(root.join(&f.rel)).expect("read source");
            out.push((f.key.clone(), f.rel.clone(), text));
        }
        out
    };

    let mut group = c.benchmark_group("lint_overhead");
    group.bench_function("token_scan", |b| {
        b.iter(|| {
            for (key, rel, text) in &sources {
                black_box(sage::lint::lint_source(key, rel, text));
            }
        })
    });
    group.bench_function("full_analysis", |b| {
        b.iter(|| black_box(sage::lint::workspace_analysis(root).expect("workspace scan")))
    });
    group.finish();

    // Direct readout for the acceptance target.
    let start = Instant::now();
    let analysis = black_box(sage::lint::workspace_analysis(root).expect("workspace scan"));
    let full = start.elapsed();
    println!("\n=== lint overhead ===");
    for (phase, ns) in &analysis.report.timings {
        println!("phase {phase:<22} {:8.1} ms", *ns as f64 / 1e6);
    }
    println!(
        "full analysis {:.1} ms over {} files (target < 2000 ms)",
        1e3 * full.as_secs_f64(),
        analysis.report.files_scanned
    );
    assert!(
        full.as_secs_f64() < 2.0,
        "full workspace analysis took {:.2}s (target < 2s)",
        full.as_secs_f64()
    );
}

criterion_group! {
    name = lint_overhead;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_lint
}
criterion_main!(lint_overhead);
