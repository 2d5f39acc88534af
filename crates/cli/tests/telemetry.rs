//! The telemetry smoke, through the `sage` binary: `sage ask --telemetry`
//! over a two-paragraph corpus answers, prints its summary on stderr, and
//! writes a trace and a Prometheus dump that are well formed.
//!
//! - The answer names the colour the corpus gives ("green").
//! - stderr carries the `sage telemetry` summary.
//! - The JSONL trace holds a `retrieve` span.
//! - The Prometheus dump has `# TYPE` lines, no metric name typed twice,
//!   and every sample value is a finite decimal number.

#[allow(dead_code, reason = "the SHA-256 helper serves the tests that pin files")]
mod common;

use common::{path, sage, Scratch};

const CORPUS: &str = "Whiskers is a playful tabby cat. He has bright green eyes.\n\n\
    Dorinwick was well known in the region. He lives in Ashford.\n";

/// Whether `v` is a finite decimal number: `-?[0-9]+(\.[0-9]+)?` with an
/// optional `[eE][+-]?[0-9]+` exponent. `NaN`, `+Inf` and `-Inf` are not.
fn finite_number(v: &str) -> bool {
    fn digits(s: &str) -> Option<&str> {
        let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        (end > 0).then(|| &s[end..])
    }
    let Some(mut rest) = digits(v.strip_prefix('-').unwrap_or(v)) else { return false };
    if let Some(fraction) = rest.strip_prefix('.') {
        let Some(after) = digits(fraction) else { return false };
        rest = after;
    }
    if let Some(exponent) = rest.strip_prefix(['e', 'E']) {
        let unsigned = exponent.strip_prefix(['+', '-']).unwrap_or(exponent);
        let Some(after) = digits(unsigned) else { return false };
        rest = after;
    }
    rest.is_empty()
}

/// Every fault in a Prometheus text dump: a name typed twice, a sample line
/// (one that starts with a lowercase letter) whose last field is not a
/// finite number, and no `# TYPE` line at all.
fn prometheus_faults(dump: &str) -> Vec<String> {
    let mut faults = Vec::new();
    let mut typed = std::collections::BTreeSet::new();
    for line in dump.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if !typed.insert(name) {
                faults.push(format!("duplicate # TYPE {name}"));
            }
        }
        if line.starts_with(|c: char| c.is_ascii_lowercase()) {
            let value = line.split_whitespace().last().unwrap_or("");
            if !finite_number(value) {
                faults.push(format!("non-finite sample: {line}"));
            }
        }
    }
    if typed.is_empty() {
        faults.push("no # TYPE lines".to_string());
    }
    faults
}

#[test]
fn ask_with_telemetry_answers_and_writes_well_formed_exports() {
    let dir = Scratch::new("telemetry");
    let (corpus, metrics, trace) =
        (dir.file("corpus.txt"), dir.file("metrics.prom"), dir.file("trace.jsonl"));
    std::fs::write(&corpus, CORPUS).expect("the corpus file");
    let out = sage(&[
        "ask",
        "--file",
        path(&corpus),
        "--question",
        "What is the color of Whiskers's eyes?",
        "--telemetry",
        "--metrics-out",
        path(&metrics),
        "--trace-out",
        path(&trace),
    ]);
    let answer = String::from_utf8_lossy(&out.stdout);
    assert!(answer.contains("green"), "wrong answer: {answer}");
    let summary = String::from_utf8_lossy(&out.stderr);
    assert!(summary.contains("sage telemetry"), "no stderr summary: {summary}");
    let trace = std::fs::read_to_string(&trace).expect("the trace file");
    assert!(trace.contains("\"name\":\"retrieve\""), "no retrieve span in the trace");
    let dump = std::fs::read_to_string(&metrics).expect("the metrics file");
    assert_eq!(prometheus_faults(&dump), Vec::<String>::new());
}

#[test]
fn the_prometheus_check_finds_each_fault() {
    assert!(prometheus_faults("# TYPE a counter\na 1\n# TYPE b gauge\nb 2.5e-3\n").is_empty());
    let faults = |dump: &str| prometheus_faults(dump).join("; ");
    assert_eq!(faults("# TYPE a counter\n# TYPE a gauge\na 1\n"), "duplicate # TYPE a");
    assert_eq!(faults("# TYPE a gauge\na NaN\n"), "non-finite sample: a NaN");
    let infinite = "a{le=\"+Inf\"} +Inf";
    let dump = format!("# TYPE a gauge\n{infinite}\n");
    assert_eq!(faults(&dump), format!("non-finite sample: {infinite}"));
    assert_eq!(faults("a 1\n"), "no # TYPE lines");
    for v in ["0", "-12", "3.25", "1e9", "1.5E+10", "-2.0e-3"] {
        assert!(finite_number(v), "{v}");
    }
    for v in ["", "-", "1.", ".5", "1e", "inf", "NaN", "1x", "--1", "1.2.3"] {
        assert!(!finite_number(v), "{v}");
    }
}
