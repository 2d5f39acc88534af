//! The `lint-baseline.json` ratchet.
//!
//! The committed baseline records, per rule, how many violations
//! survive and how many are suppressed by allow markers. CI compares
//! the current run against it with exact-match-or-justify semantics:
//!
//! * current **above** baseline → regression, fail;
//! * current **below** baseline → the baseline is loose (it would hide
//!   a future regression) — fail unless that rule's entry carries a
//!   `justification` string explaining why slack is intentional;
//! * equal → pass.
//!
//! `sage lint --update-baseline` rewrites the file to the exact current
//! counts, which is the normal way to ratchet down after a cleanup.
//!
//! File grammar (version 1):
//!
//! ```json
//! {
//!   "version": 1,
//!   "rules": {
//!     "no-panic-serving": { "violations": 0, "suppressions": 12 },
//!     "no-wallclock": { "violations": 0, "suppressions": 3,
//!                        "justification": "slack while PR 9 lands" }
//!   }
//! }
//! ```
//!
//! Rules absent from `rules` are implicitly `{0, 0}` — a new rule with
//! findings therefore fails until the baseline acknowledges it.

use crate::jsonv::{self, Value};
use crate::{json_escape, Report};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-rule baseline entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleCounts {
    pub violations: u64,
    pub suppressions: u64,
    /// When present, permits the current counts to sit *below* these.
    pub justification: Option<String>,
}

/// The parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    pub rules: BTreeMap<String, RuleCounts>,
}

/// Parse a baseline document.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let doc = jsonv::parse(text).map_err(|e| format!("baseline is not JSON: {e}"))?;
    if doc.get("version").and_then(Value::as_f64) != Some(1.0) {
        return Err("baseline `version` must be 1".to_string());
    }
    let rules = doc
        .get("rules")
        .and_then(Value::as_obj)
        .ok_or("baseline `rules` missing or not an object")?;
    let mut out = Baseline::default();
    for (name, entry) in rules {
        let count = |key: &str| -> Result<u64, String> {
            match entry.get(key) {
                None => Ok(0),
                Some(v) => v
                    .as_f64()
                    .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                    .map(|n| n as u64)
                    .ok_or_else(|| format!("rule `{name}`: `{key}` must be a non-negative integer")),
            }
        };
        out.rules.insert(
            name.clone(),
            RuleCounts {
                violations: count("violations")?,
                suppressions: count("suppressions")?,
                justification: entry
                    .get("justification")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .filter(|s| !s.trim().is_empty()),
            },
        );
    }
    Ok(out)
}

/// The current per-rule counts of a report, covering every rule that
/// has any violations or suppressions.
pub fn current_counts(report: &Report) -> BTreeMap<String, RuleCounts> {
    let mut out: BTreeMap<String, RuleCounts> = BTreeMap::new();
    for v in &report.violations {
        out.entry(v.rule.to_string()).or_default().violations += 1;
    }
    for (rule, n) in &report.suppressed_by_rule {
        if *n > 0 {
            out.entry(rule.clone()).or_default().suppressions += *n as u64;
        }
    }
    out
}

/// Compare the current run against the baseline. Returns one error line
/// per deviation; empty means the gate passes.
pub fn compare(baseline: &Baseline, report: &Report) -> Vec<String> {
    let current = current_counts(report);
    let mut errors = Vec::new();
    let zero = RuleCounts::default();
    let mut names: Vec<&String> = baseline.rules.keys().chain(current.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let base = baseline.rules.get(name).unwrap_or(&zero);
        let cur = current.get(name).cloned().unwrap_or_default();
        for (what, b, c) in [
            ("violations", base.violations, cur.violations),
            ("suppressions", base.suppressions, cur.suppressions),
        ] {
            if c > b {
                errors.push(format!(
                    "{name}: {what} regressed {b} -> {c}; fix the findings or \
                     consciously ratchet up with --update-baseline"
                ));
            } else if c < b && base.justification.is_none() {
                errors.push(format!(
                    "{name}: baseline allows {b} {what} but only {c} exist — loose \
                     slack hides future regressions; run --update-baseline or add a \
                     `justification` to the rule's entry"
                ));
            }
        }
    }
    errors
}

/// Render the exact current counts as a fresh baseline document.
pub fn render(report: &Report) -> String {
    let current = current_counts(report);
    let mut s = String::from("{\n  \"version\": 1,\n  \"rules\": {\n");
    let mut first = true;
    for (name, c) in &current {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let _ = write!(
            s,
            "    \"{}\": {{ \"violations\": {}, \"suppressions\": {} }}",
            json_escape(name),
            c.violations,
            c.suppressions
        );
    }
    s.push_str("\n  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules;

    fn report(suppressed: &[(&'static str, usize)], violated: &[&'static str]) -> Report {
        let mut r = Report::default();
        for (rule, n) in suppressed {
            r.suppressed_by_rule.insert(rule.to_string(), *n);
            r.suppressed += n;
        }
        for rule in violated {
            r.violations.push(crate::Violation::new(rule, "x.rs", 1, 1, "m".to_string()));
        }
        r
    }

    #[test]
    fn equal_counts_pass() {
        let r = report(&[(rules::NO_WALLCLOCK, 2)], &[]);
        let b = parse(&render(&r)).unwrap();
        assert!(compare(&b, &r).is_empty());
    }

    #[test]
    fn regressions_fail() {
        let r = report(&[(rules::NO_WALLCLOCK, 2)], &[]);
        let b = parse(&render(&r)).unwrap();
        let worse = report(&[(rules::NO_WALLCLOCK, 3)], &[rules::NO_PRINT]);
        let errors = compare(&b, &worse);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("no-wallclock") && e.contains("2 -> 3")));
        assert!(errors.iter().any(|e| e.contains("no-print")));
    }

    #[test]
    fn loose_baselines_fail_without_justification() {
        let r = report(&[(rules::NO_WALLCLOCK, 2)], &[]);
        let b = parse(&render(&r)).unwrap();
        let better = report(&[(rules::NO_WALLCLOCK, 1)], &[]);
        let errors = compare(&b, &better);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("loose"));
    }

    #[test]
    fn justified_slack_passes() {
        let text = r#"{"version":1,"rules":{"no-wallclock":{"violations":0,"suppressions":5,"justification":"mid-cleanup slack, tracked in ISSUE 9"}}}"#;
        let b = parse(text).unwrap();
        let better = report(&[(rules::NO_WALLCLOCK, 1)], &[]);
        assert!(compare(&b, &better).is_empty());
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse("{}").is_err());
        assert!(parse(r#"{"version":2,"rules":{}}"#).is_err());
        assert!(parse(r#"{"version":1,"rules":{"r":{"violations":-1}}}"#).is_err());
        assert!(parse(r#"{"version":1,"rules":{"r":{"violations":1.5}}}"#).is_err());
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let r = report(&[(rules::NO_WALLCLOCK, 1), (rules::NO_PRINT, 2)], &[]);
        let a = render(&r);
        assert_eq!(a, render(&r));
        let print = a.find("no-print").unwrap();
        let wall = a.find("no-wallclock").unwrap();
        assert!(print < wall);
    }
}
