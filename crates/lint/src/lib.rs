//! `sage-lint` — dependency-free static analysis for the SAGE workspace.
//!
//! The analyzer lexes every `.rs` file with its own minimal Rust lexer
//! ([`lexer`]) — comments, strings, raw strings, and char literals are
//! skipped, so rules can never fire on text content — and runs five
//! token-pattern rules ([`rules`]) enforcing the invariants SAGE's
//! evaluation rests on: determinism (no prints, no `RandomState`
//! containers, no wall-clock reads, no `Relaxed` atomics outside
//! telemetry) and panic-freedom in every library crate a query links.
//! Module privacy and the crate DAG are left to the compiler and cargo.
//!
//! A violation can be suppressed with an inline comment marker naming
//! the rule and carrying a justification (the exact grammar is
//! documented in DESIGN.md §Static analysis). A marker with an unknown
//! rule name or a missing/too-short justification is itself reported as
//! a `bad-allow` violation, and a valid marker that no longer
//! suppresses anything is reported as `stale-suppression` — neither can
//! be suppressed, which keeps the marker inventory honest.
//!
//! Machine consumers get JSON ([`render_json`]) and a committed per-rule
//! ratchet ([`ratchet`]) that CI asserts non-increasing. Three consumers
//! share this crate: the `sage-cli lint` subcommand, the tier-1 tests in
//! `tests/static_analysis.rs`, and the `scripts/check.sh` gate.

pub mod jsonv;
pub mod lexer;
pub mod ratchet;
pub mod rules;

use lexer::AllowMarker;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One rule violation at a specific source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule name, e.g. `no-print`.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column, counted in `char`s.
    pub col: u32,
    /// Human-oriented explanation including the remediation.
    pub message: String,
}

impl Violation {
    pub(crate) fn new(rule: &'static str, file: &str, line: u32, col: u32, message: String) -> Self {
        Violation { rule, file: file.to_string(), line, col, message }
    }
}

/// The outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that survived suppression, in source order.
    pub violations: Vec<Violation>,
    /// How many violations were suppressed by valid allow markers.
    pub suppressed: usize,
}

/// The outcome of linting the whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All surviving violations, ordered by (file, line, col, rule).
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Total violations suppressed by valid allow markers.
    pub suppressed: usize,
    /// Suppressions broken down by rule — the ratchet's raw material.
    pub suppressed_by_rule: BTreeMap<String, usize>,
}

impl Report {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Surviving violations broken down by rule.
    pub fn violations_by_rule(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for v in &self.violations {
            *out.entry(v.rule.to_string()).or_insert(0) += 1;
        }
        out
    }
}

/// Split raw markers into valid ones and `bad-allow` violations.
fn validate_markers(file: &str, markers: &[AllowMarker]) -> (Vec<AllowMarker>, Vec<Violation>) {
    let mut valid = Vec::new();
    let mut bad = Vec::new();
    for m in markers {
        let unknown: Vec<&str> = m
            .rules
            .iter()
            .map(|r| r.as_str())
            .filter(|r| !rules::ALL_RULES.contains(r))
            .collect();
        if m.rules.is_empty() {
            bad.push(Violation::new(
                rules::BAD_ALLOW,
                file,
                m.line,
                m.col,
                "malformed suppression marker: expected `allow(<rules>)` or \
                 `allow-file(<rules>)` with at least one rule name"
                    .to_string(),
            ));
        } else if !unknown.is_empty() {
            bad.push(Violation::new(
                rules::BAD_ALLOW,
                file,
                m.line,
                m.col,
                format!("suppression marker names unknown rule(s): {}", unknown.join(", ")),
            ));
        } else if !m.justified() {
            bad.push(Violation::new(
                rules::BAD_ALLOW,
                file,
                m.line,
                m.col,
                "suppression marker lacks a justification: explain why the \
                 invariant holds here"
                    .to_string(),
            ));
        } else {
            valid.push(m.clone());
        }
    }
    (valid, bad)
}

/// Whether marker `m` suppresses a violation of `rule` at `line`.
fn marker_hits(m: &AllowMarker, rule: &str, line: u32) -> bool {
    m.rules.iter().any(|r| r == rule) && (m.file_level || m.line == line || m.line + 1 == line)
}

/// One file through the engine: the violations that survive suppression
/// (with `bad-allow` findings, unsorted), the rule of each suppressed
/// violation, and the valid markers that suppressed nothing.
fn lint_file(
    crate_key: &str,
    file: &str,
    source: &str,
) -> (Vec<Violation>, Vec<&'static str>, Vec<AllowMarker>) {
    let lexed = lexer::lex(source);
    let (valid, mut out) = validate_markers(file, &lexed.markers);
    let mut used = vec![false; valid.len()];
    let mut suppressed = Vec::new();
    for v in rules::check_file(crate_key, file, &lexed.tokens) {
        match valid.iter().position(|m| marker_hits(m, v.rule, v.line)) {
            Some(mi) => {
                used[mi] = true;
                suppressed.push(v.rule);
            }
            None => out.push(v),
        }
    }
    let unused = valid.into_iter().zip(used).filter(|(_, used)| !used).map(|(m, _)| m).collect();
    (out, suppressed, unused)
}

/// Lint a single file's source text; staleness of its markers is judged
/// by [`workspace_report`] only. `crate_key` is the
/// workspace crate the file belongs to (`"core"`, `"text"`, …, or
/// `"sage"` for the facade); `file` is the path used in diagnostics.
pub fn lint_source(crate_key: &str, file: &str, source: &str) -> FileReport {
    let (mut violations, suppressed, _) = lint_file(crate_key, file, source);
    violations.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    FileReport { violations, suppressed: suppressed.len() }
}

/// Map a workspace-relative path to its crate key: `crates/<key>/src/…`
/// for member crates, `src/…` for the facade (key `"sage"`).
fn crate_key_of(rel: &str) -> Option<&str> {
    let rel = rel.strip_prefix("./").unwrap_or(rel);
    if let Some(rest) = rel.strip_prefix("crates/") {
        let key = rest.split('/').next().unwrap_or("");
        if rest[key.len()..].starts_with("/src/") {
            return Some(&rest[..key.len()]);
        }
        return None;
    }
    if rel.starts_with("src/") {
        return Some("sage");
    }
    None
}

/// Collect every `.rs` file under `dir`, recursively, in sorted order so
/// reports are stable across filesystems.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint every workspace crate under `root`: `src/` (the facade) and each
/// `crates/<name>/src/`. Integration tests under `tests/` are not
/// scanned — they are test code, which the rules exempt anyway.
pub fn workspace_report(root: &Path) -> std::io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        collect_rs(&facade, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for m in members {
            let src = m.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }

    let mut report = Report::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(key) = crate_key_of(&rel) else { continue };
        let source = std::fs::read_to_string(&path)?;
        let (violations, suppressed, unused) = lint_file(key, &rel, &source);
        report.files_scanned += 1;
        report.violations.extend(violations);
        report.suppressed += suppressed.len();
        for rule in suppressed {
            *report.suppressed_by_rule.entry(rule.to_string()).or_insert(0) += 1;
        }
        for m in unused {
            report.violations.push(Violation::new(
                rules::STALE_SUPPRESSION,
                &rel,
                m.line,
                m.col,
                format!(
                    "suppression marker for `{}` no longer suppresses anything; \
                     the code it justified moved or was fixed — delete the marker \
                     or re-justify it where the violation lives now",
                    m.rules.join(", ")
                ),
            ));
        }
    }

    report.violations.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.col.cmp(&b.col))
            .then_with(|| a.rule.cmp(b.rule))
    });
    Ok(report)
}

/// Render a report for terminals: one `file:line:col: [rule] message`
/// per violation plus a summary line.
pub fn render_human(report: &Report) -> String {
    let mut s = String::new();
    for v in &report.violations {
        let _ = writeln!(s, "{}:{}:{}: [{}] {}", v.file, v.line, v.col, v.rule, v.message);
    }
    if report.is_clean() {
        let _ = writeln!(
            s,
            "lint clean: {} files scanned, {} violation(s) suppressed by allow markers",
            report.files_scanned, report.suppressed
        );
    } else {
        let _ = writeln!(
            s,
            "{} violation(s) in {} files scanned ({} suppressed)",
            report.violations.len(),
            report.files_scanned,
            report.suppressed
        );
    }
    s
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a report as a single JSON object (machine consumers: CI and
/// the check.sh gate), byte-stable for identical inputs.
pub fn render_json(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\"files_scanned\":");
    let _ = write!(s, "{}", report.files_scanned);
    let _ = write!(s, ",\"suppressed\":{}", report.suppressed);
    let _ = write!(s, ",\"clean\":{}", report.is_clean());
    s.push_str(",\"suppressed_by_rule\":{");
    for (i, (rule, n)) in report.suppressed_by_rule.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{}", json_escape(rule), n);
    }
    s.push_str("},\"violations\":[");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            json_escape(v.rule),
            json_escape(&v.file),
            v.line,
            v.col,
            json_escape(&v.message)
        );
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &str = "core"; // strictest crate: serving + library rules

    #[test]
    fn violations_survive_without_marker() {
        let fr = lint_source(KEY, "x.rs", "fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        assert_eq!(fr.violations.len(), 1);
        assert_eq!(fr.violations[0].rule, rules::NO_PANIC_SERVING);
        assert_eq!(fr.suppressed, 0);
    }

    #[test]
    fn same_line_marker_suppresses() {
        let m = "sage-lint: allow(no-panic-serving) - input validated three lines up";
        let src = format!("fn f(x: Option<u8>) -> u8 {{ x.unwrap() }} // {m}\n");
        let fr = lint_source(KEY, "x.rs", &src);
        assert!(fr.violations.is_empty(), "{:?}", fr.violations);
        assert_eq!(fr.suppressed, 1);
    }

    #[test]
    fn line_above_marker_suppresses() {
        let m = "sage-lint: allow(no-wallclock) - latency probe feeding QueryResult";
        let src = format!("// {m}\nlet t = Instant::now();\n");
        let fr = lint_source(KEY, "x.rs", &src);
        assert!(fr.violations.is_empty(), "{:?}", fr.violations);
        assert_eq!(fr.suppressed, 1);
    }

    #[test]
    fn file_level_marker_suppresses_everywhere() {
        let m = "sage-lint: allow-file(deterministic-iteration) - sets used for membership only";
        let src = format!(
            "// {m}\nfn f() {{ let a = HashSet::new(); }}\nfn g() {{ let b = HashSet::new(); }}\n"
        );
        let fr = lint_source(KEY, "x.rs", &src);
        assert!(fr.violations.is_empty(), "{:?}", fr.violations);
        assert_eq!(fr.suppressed, 2);
    }

    #[test]
    fn marker_for_other_rule_does_not_suppress() {
        let m = "sage-lint: allow(no-print) - wrong rule named on purpose here";
        let src = format!("fn f(x: Option<u8>) -> u8 {{ x.unwrap() }} // {m}\n");
        let fr = lint_source(KEY, "x.rs", &src);
        assert_eq!(fr.violations.len(), 1);
        assert_eq!(fr.violations[0].rule, rules::NO_PANIC_SERVING);
    }

    #[test]
    fn unjustified_marker_is_bad_allow_and_does_not_suppress() {
        let m = "sage-lint: allow(no-panic-serving)";
        let src = format!("fn f(x: Option<u8>) -> u8 {{ x.unwrap() }} // {m}\n");
        let fr = lint_source(KEY, "x.rs", &src);
        let rules_seen: Vec<&str> = fr.violations.iter().map(|v| v.rule).collect();
        assert!(rules_seen.contains(&rules::BAD_ALLOW));
        assert!(rules_seen.contains(&rules::NO_PANIC_SERVING));
    }

    #[test]
    fn unknown_rule_in_marker_is_bad_allow() {
        let m = "sage-lint: allow(no-such-rule) - a perfectly sincere justification";
        let src = format!("fn f() {{}} // {m}\n");
        let fr = lint_source(KEY, "x.rs", &src);
        assert_eq!(fr.violations.len(), 1);
        assert_eq!(fr.violations[0].rule, rules::BAD_ALLOW);
        assert!(fr.violations[0].message.contains("no-such-rule"));
    }

    #[test]
    fn engine_rules_are_not_marker_nameable() {
        let m = "sage-lint: allow(stale-suppression) - trying to suppress the meta rule";
        let fr = lint_source(KEY, "x.rs", &format!("fn f() {{}} // {m}\n"));
        assert_eq!(fr.violations.len(), 1);
        assert_eq!(fr.violations[0].rule, rules::BAD_ALLOW);
    }

    #[test]
    fn triggers_inside_strings_and_comments_are_invisible() {
        let src = r##"
            // x.unwrap() and println!("boom") and HashMap::new()
            fn f() -> String {
                let a = "Instant::now() panic! Ordering::Relaxed";
                let b = r#"use sage_core::pipeline; HashSet"#;
                format!("{a}{b}")
            }
        "##;
        let fr = lint_source(KEY, "x.rs", src);
        assert!(fr.violations.is_empty(), "{:?}", fr.violations);
    }

    #[test]
    fn crate_key_mapping() {
        assert_eq!(crate_key_of("crates/core/src/pipeline.rs"), Some("core"));
        assert_eq!(crate_key_of("crates/lint/src/lexer.rs"), Some("lint"));
        assert_eq!(crate_key_of("src/lib.rs"), Some("sage"));
        assert_eq!(crate_key_of("crates/core/benches/x.rs"), None);
        assert_eq!(crate_key_of("tests/end_to_end.rs"), None);
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let fr = lint_source(KEY, "a\"b.rs", "fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        let report = Report {
            violations: fr.violations,
            files_scanned: 1,
            ..Report::default()
        };
        let j = render_json(&report);
        assert!(jsonv::parse(&j).is_ok(), "{j}");
        assert!(j.contains("\"clean\":false"));
        assert!(j.contains("a\\\"b.rs"));
    }

    /// End-to-end over a synthetic workspace on disk: a token rule and
    /// the staleness sweep both fire through `workspace_report`.
    #[test]
    fn workspace_pipeline_runs_token_rules_and_staleness() {
        let dir = std::env::temp_dir().join(format!("sage_lint_ws_{}", std::process::id()));
        let src_dir = dir.join("crates/vecdb/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("lib.rs"),
            "struct Flat;\n\
             impl Flat {\n\
             pub fn search(&self, q: &[f32]) -> f32 { helper(q) }\n\
             }\n\
             fn helper(q: &[f32]) -> f32 { *q.first().unwrap() }\n\
             // sage-lint: allow(no-print) - nothing here prints; marker is dead on purpose\n\
             fn quiet() {}\n",
        )
        .unwrap();
        let report = workspace_report(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let rules_seen: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert!(rules_seen.contains(&rules::NO_PANIC_SERVING), "{rules_seen:?}");
        assert!(rules_seen.contains(&rules::STALE_SUPPRESSION), "{rules_seen:?}");
        assert_eq!(report.files_scanned, 1);
    }
}
