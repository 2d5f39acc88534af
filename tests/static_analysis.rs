//! Tier-1 gate: the two workspace invariants a grep can hold.
//!
//! The lint rules live in `clippy.toml` and the root manifest's
//! `[workspace.lints.clippy]` and run in `scripts/check.sh` (DESIGN.md §9).
//! What stays here is the one rule clippy has no spelling for — `Relaxed`
//! atomics confined to the telemetry-style counters — and the check that
//! every dependency is a path inside the repository.

use std::path::{Path, PathBuf};

/// The workspace root: the facade package's manifest directory.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn relaxed_ordering_is_confined() {
    // `Relaxed` publishes no other memory, so it is for monotonic counters
    // only; a new file on this list needs the argument these six carry.
    let root = workspace_root();
    let (mut stack, mut relaxed) = (vec![root.join("crates")], Vec::new());
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("directory readable") {
            let path = entry.expect("directory entry").path();
            let rel = path.strip_prefix(root).expect("under the root").display().to_string();
            if path.is_dir() {
                stack.push(path);
            } else if rel.contains("/src/")
                && rel.ends_with(".rs")
                && std::fs::read_to_string(&path).expect("source readable").contains("Relaxed")
            {
                relaxed.push(rel);
            }
        }
    }
    relaxed.sort();
    assert_eq!(
        relaxed,
        [
            "crates/resilience/src/retry.rs",
            "crates/resilience/src/trace.rs",
            "crates/telemetry/src/hist.rs",
            "crates/telemetry/src/ledger.rs",
            "crates/telemetry/src/lib.rs",
            "crates/telemetry/src/metrics.rs",
        ]
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
