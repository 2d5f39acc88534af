//! Tier-1 gate: the workspace must be clean under `sage-lint`.
//!
//! This is the same analysis `sage-cli lint` and `scripts/check.sh` run —
//! the token rules (no-print, no-panic-serving, deterministic-iteration,
//! no-wallclock, layering, relaxed-atomics-confined, unwind-boundary,
//! mutation-behind-writer, recorder-behind-obs) plus the whole-program
//! rules built on the item parser and call graph (panic-reachability,
//! determinism-taint, stale-suppression) over every crate, with
//! suppressions requiring an inline justification (DESIGN.md §9).
//!
//! Alongside the clean-workspace gate this file pins the semantic
//! machinery itself: each whole-program rule demonstrably fires on a
//! synthetic workspace built to violate it, the entry/sink spec tables
//! still match real functions (drift check), the committed
//! `lint-baseline.json` ratchet agrees with the current run, and the
//! SARIF emit round-trips through its own validator.

use sage::lint::{
    ratchet, render_human, rules, sarif,
    semantic::{unmatched_specs, DETERMINISM_SINKS, SERVING_ENTRIES},
    workspace_analysis, workspace_report,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The workspace root: the facade package's manifest directory.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let report = workspace_report(workspace_root()).expect("workspace sources readable");
    assert!(
        report.violations.is_empty(),
        "sage-lint found violations:\n{}",
        render_human(&report)
    );
}

#[test]
fn lint_actually_scanned_the_workspace() {
    let report = workspace_report(workspace_root()).expect("workspace sources readable");
    // The workspace has 14 member crates plus the facade; a scan that
    // found almost nothing means the walker broke, not that the code is
    // clean.
    assert!(
        report.files_scanned >= 50,
        "only {} files scanned — walker is missing crates",
        report.files_scanned
    );
    // The repo carries justified suppressions (e.g. BM25's accumulation
    // maps); seeing zero means markers stopped parsing.
    assert!(
        report.suppressed > 0,
        "no suppressed violations — allow markers are not being honoured"
    );
}

// --- Synthetic workspaces for the whole-program rules ---------------------

static WS_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// Materialize `files` (crate-relative paths under crates/<name>/src/)
/// into a throwaway workspace directory and return its root.
fn synth_workspace(files: &[(&str, &str)]) -> PathBuf {
    let id = WS_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("sage_lint_it_{}_{id}", std::process::id()));
    for (rel, text) in files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }
    dir
}

#[test]
fn panic_reachability_traces_serving_entries_to_panic_sources() {
    // `search` is a serving entry in the vecdb crate; it reaches an
    // unwrap through a helper two hops away.
    let dir = synth_workspace(&[(
        "crates/vecdb/src/lib.rs",
        "pub struct Flat;\n\
         impl Flat {\n\
             pub fn search(&self, q: &[f32]) -> f32 { middle(q) }\n\
         }\n\
         fn middle(q: &[f32]) -> f32 { deep(q) }\n\
         fn deep(q: &[f32]) -> f32 { q.first().copied().unwrap() }\n",
    )]);
    let report = workspace_report(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let hits: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == rules::PANIC_REACHABILITY)
        .collect();
    assert_eq!(hits.len(), 1, "{}", render_human(&report));
    // The violation anchors at the panic source and names the entry path.
    assert_eq!(hits[0].line, 6, "{}", hits[0].message);
    assert!(hits[0].message.contains("search"), "{}", hits[0].message);
}

#[test]
fn panic_reachability_respects_unwind_boundaries() {
    // The same shape, but the entry crosses a catch_unwind boundary
    // before the panic source: reachability must stop at the boundary.
    let dir = synth_workspace(&[(
        "crates/vecdb/src/lib.rs",
        "pub struct Flat;\n\
         impl Flat {\n\
             pub fn search(&self, q: &[f32]) -> f32 { guarded(q) }\n\
         }\n\
         fn guarded(q: &[f32]) -> f32 {\n\
             std::panic::catch_unwind(|| deep(q)).unwrap_or(0.0)\n\
         }\n\
         fn deep(q: &[f32]) -> f32 { q.first().copied().unwrap() }\n",
    )]);
    let report = workspace_report(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        !report.violations.iter().any(|v| v.rule == rules::PANIC_REACHABILITY),
        "boundary did not absorb the panic source:\n{}",
        render_human(&report)
    );
}

#[test]
fn determinism_taint_traces_sinks_to_wallclock_sources() {
    // `json_summary` in a soak module is a serialization sink; it pulls a
    // value computed from Instant::now through a helper.
    let dir = synth_workspace(&[(
        "crates/core/src/soak.rs",
        "pub fn json_summary() -> String {\n\
             format!(\"{{\\\"elapsed\\\":{}}}\", elapsed_hint())\n\
         }\n\
         fn elapsed_hint() -> u64 {\n\
             let t = std::time::Instant::now();\n\
             t.elapsed().as_nanos() as u64\n\
         }\n",
    )]);
    let report = workspace_report(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let hits: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == rules::DETERMINISM_TAINT)
        .collect();
    assert!(!hits.is_empty(), "{}", render_human(&report));
    assert!(hits[0].message.contains("json_summary"), "{}", hits[0].message);
}

#[test]
fn stale_suppression_flags_markers_that_suppress_nothing() {
    let dir = synth_workspace(&[(
        "crates/text/src/lib.rs",
        "// sage-lint: allow-file(no-print) - nothing prints here; this marker is dead\n\
         pub fn tidy(s: &str) -> String { s.trim().to_string() }\n",
    )]);
    let report = workspace_report(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let hits: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == rules::STALE_SUPPRESSION)
        .collect();
    assert_eq!(hits.len(), 1, "{}", render_human(&report));
    assert!(hits[0].message.contains("no-print"), "{}", hits[0].message);
}

#[test]
fn live_markers_are_not_flagged_stale() {
    let dir = synth_workspace(&[(
        "crates/text/src/lib.rs",
        "// sage-lint: allow-file(no-print) - diagnostic helper writes to stdout by design\n\
         pub fn show(s: &str) { println!(\"{s}\"); }\n",
    )]);
    let report = workspace_report(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        report.violations.is_empty(),
        "live marker misflagged:\n{}",
        render_human(&report)
    );
    assert_eq!(report.suppressed, 1);
}

// --- Spec drift, ratchet, SARIF, call graph -------------------------------

#[test]
fn entry_and_sink_specs_match_real_functions() {
    // Refactors that rename or move a serving entry point (or a
    // serialization sink) must update the spec tables in
    // crates/lint/src/semantic.rs — otherwise the whole-program rules
    // silently analyze nothing.
    let analysis = workspace_analysis(workspace_root()).expect("workspace sources readable");
    let missing_entries = unmatched_specs(&analysis.workspace, SERVING_ENTRIES);
    assert!(missing_entries.is_empty(), "serving entries with no matching fn: {missing_entries:?}");
    let missing_sinks = unmatched_specs(&analysis.workspace, DETERMINISM_SINKS);
    assert!(missing_sinks.is_empty(), "determinism sinks with no matching fn: {missing_sinks:?}");
}

#[test]
fn committed_baseline_matches_current_counts() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint-baseline.json"))
        .expect("lint-baseline.json is committed at the repo root");
    let baseline = ratchet::parse(&text).expect("baseline parses");
    let report = workspace_report(root).expect("workspace sources readable");
    let errors = ratchet::compare(&baseline, &report);
    assert!(
        errors.is_empty(),
        "ratchet deviates — fix findings or run `sage lint --baseline \
         lint-baseline.json --update-baseline`:\n  {}",
        errors.join("\n  ")
    );
}

#[test]
fn sarif_emit_round_trips_through_the_validator() {
    let report = workspace_report(workspace_root()).expect("workspace sources readable");
    let text = sarif::render(&report);
    let results = sarif::validate(&text).expect("emitted SARIF validates");
    assert_eq!(results, report.violations.len());
}

#[test]
fn callgraph_export_is_deterministic() {
    let root = workspace_root();
    let a = workspace_analysis(root).expect("workspace sources readable");
    let b = workspace_analysis(root).expect("workspace sources readable");
    let ja = a.graph.to_json(&a.workspace);
    let jb = b.graph.to_json(&b.workspace);
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "call-graph JSON differs across identical runs");
}

#[test]
fn analysis_phases_are_timed() {
    let report = workspace_report(workspace_root()).expect("workspace sources readable");
    let phases: Vec<&str> = report.timings.iter().map(|(p, _)| *p).collect();
    assert_eq!(
        phases,
        ["scan", "callgraph", "panic-reachability", "determinism-taint", "stale-suppression"],
        "phase timing list changed shape"
    );
}

/// Every manifest the build reads: the root, the workspace members and the
/// benchmark package.
fn manifests(root: &Path) -> Vec<PathBuf> {
    let mut found = vec![root.join("Cargo.toml"), root.join("benchmark/Cargo.toml")];
    for members in ["crates", "shims"] {
        for entry in std::fs::read_dir(root.join(members)).expect("member directory readable") {
            let manifest = entry.expect("directory entry").path().join("Cargo.toml");
            if manifest.is_file() {
                found.push(manifest);
            }
        }
    }
    found.sort();
    found
}

/// `(section, key, value)` for each `key = value` line of a dependency table.
fn dependency_entries(manifest: &str) -> Vec<(String, String, String)> {
    let mut section = String::new();
    let mut entries = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']').trim().to_string();
            // `[dependencies.name]` would hide a requirement from the scan below.
            assert!(!section.contains("dependencies."), "write [{section}] as an inline table");
        } else if section.ends_with("dependencies") && !line.starts_with('#') {
            if let Some((key, value)) = line.split_once('=') {
                entries.push((section.clone(), key.trim().to_string(), value.trim().to_string()));
            }
        }
    }
    entries
}

#[test]
fn every_dependency_is_a_path_inside_the_repository() {
    let root = workspace_root().canonicalize().expect("workspace root exists");
    let manifests = manifests(&root);
    assert!(manifests.len() > 20, "manifest walk found only {}", manifests.len());
    let read = |m: &Path| std::fs::read_to_string(m).expect("manifest readable");
    let shared: Vec<String> = dependency_entries(&read(&root.join("Cargo.toml")))
        .into_iter()
        .filter(|(section, _, _)| section == "workspace.dependencies")
        .map(|(_, key, _)| key)
        .collect();
    let mut offenders = Vec::new();
    for manifest in &manifests {
        let dir = manifest.parent().expect("manifest has a directory");
        for (section, key, value) in dependency_entries(&read(manifest)) {
            let local = match key.strip_suffix(".workspace") {
                // Inherited: the root's own entry is checked on its turn.
                Some(name) => value == "true" && shared.iter().any(|s| s == name),
                None => value
                    .split_once("path")
                    .and_then(|(_, rest)| rest.split('"').nth(1))
                    .and_then(|rel| dir.join(rel).canonicalize().ok())
                    .is_some_and(|target| manifests.contains(&target.join("Cargo.toml"))),
            };
            if !local {
                offenders.push(format!("{}: [{section}] {key} = {value}", manifest.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "dependencies that are not path crates of this repository (the build must \
         resolve with an empty registry and no network):\n  {}",
        offenders.join("\n  ")
    );
}
