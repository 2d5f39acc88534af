//! Tier-1 gate: the workspace must be clean under `sage-lint`.
//!
//! This is the same analysis `sage-cli lint` and `scripts/check.sh` run —
//! five token rules (no-print, no-panic-serving, deterministic-iteration,
//! no-wallclock, relaxed-atomics-confined) over every library crate plus
//! stale-suppression and bad-allow over the markers, with suppressions
//! requiring an inline justification (DESIGN.md §9).
//!
//! Alongside the clean-workspace gate this file pins the engine on
//! synthetic workspaces (the panic rule reaches every library crate, dead
//! markers are flagged and live ones are not), checks that the committed
//! `lint-baseline.json` ratchet agrees with the current run, and rejects
//! any dependency that is not a path inside the repository.

use sage::lint::{ratchet, render_human, rules, workspace_report};
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

// --- Synthetic workspaces --------------------------------------------------

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
fn no_panic_serving_covers_every_library_crate() {
    // The two bug shapes the whole-program engine once found in crates the
    // token rule was not pointed at: a poisoned-lock unwrap in telemetry
    // and a bare unwrap in text. Fallbacks, test regions and the binaries
    // stay quiet.
    let dir = synth_workspace(&[
        (
            "crates/telemetry/src/lib.rs",
            "pub fn total(m: &std::sync::Mutex<u64>) -> u64 { *m.lock().unwrap() }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { assert_eq!(Some(1).unwrap(), 1); }\n\
             }\n",
        ),
        (
            "crates/text/src/lib.rs",
            "pub fn first(s: &str) -> char { s.chars().next().unwrap() }\n\
             pub fn first_or_nul(s: &str) -> char { s.chars().next().unwrap_or_default() }\n",
        ),
        ("crates/cli/src/main.rs", "fn main() { std::env::args().nth(1).unwrap(); }\n"),
        ("crates/bench/src/lib.rs", "pub fn go(x: Option<u8>) -> u8 { x.expect(\"set\") }\n"),
    ]);
    let report = workspace_report(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let hits: Vec<(&str, &str, u32)> =
        report.violations.iter().map(|v| (v.rule, v.file.as_str(), v.line)).collect();
    assert_eq!(
        hits,
        [
            (rules::NO_PANIC_SERVING, "crates/telemetry/src/lib.rs", 1),
            (rules::NO_PANIC_SERVING, "crates/text/src/lib.rs", 1),
        ],
        "{}",
        render_human(&report)
    );
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

// --- Ratchet and manifests --------------------------------------------------

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
