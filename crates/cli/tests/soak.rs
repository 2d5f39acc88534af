//! The soak and report smokes, through the `sage` binary: an overload
//! replay and its diagnostics bundle are functions of the seed alone.
//!
//! - Two same-seed `sage soak` runs write the same log, byte for byte. The
//!   log completes queries, the summary on stderr counts no panic, and the
//!   log has its pinned SHA-256: it carries no wall-clock time, so any
//!   change in what a query answers, costs or degrades to moves it.
//! - Two same-seed `sage report` bundles, one training its models in
//!   process and one reading those `sage train --out` saved, are equal but
//!   for their one wall-clock line, `"query_latency_ns"`. The bundle
//!   reconciles (`"clean": true`), holds one observation per soak arrival,
//!   and without that line has its pinned SHA-256; the telemetry summary
//!   goes to stderr.

mod common;

use common::{path, sage, sha256_hex, Scratch};

const SOAK_LOG_SHA256: &str = "121a4248f90ff1069b6e861f406c4f937c389e75b7bb254c35027aad62da3c4d";
const REPORT_SHA256: &str = "e36f13fd9361ddae45518f427abae3f50cbb258aa586e55073b6b77ea59f3ada";

const SOAK: [&str; 8] = ["--seed", "42", "--duration", "10", "--qps", "3", "--docs", "1"];

/// `sage <command>` over the smoke's soak arguments plus `extra`: stdout
/// and stderr.
fn run(command: &str, extra: &[&str]) -> (String, String) {
    let mut args = vec![command];
    args.extend_from_slice(&SOAK);
    args.extend_from_slice(extra);
    let out = sage(&args);
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    (text(out.stdout), text(out.stderr))
}

/// The bundle without its wall-clock line.
fn virtual_part(bundle: &str) -> String {
    bundle
        .lines()
        .filter(|l| !l.contains("\"query_latency_ns\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The number after `"<key>": ` on the bundle line that starts with
/// `  "<section>": `.
fn field(bundle: &str, section: &str, key: &str) -> Option<usize> {
    let line = bundle.lines().find(|l| l.starts_with(&format!("  \"{section}\": ")))?;
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse().ok()
}

#[test]
fn a_same_seed_soak_replays_byte_for_byte_to_its_pinned_log() {
    let (log, summary) = run("soak", &[]);
    assert_eq!(log, run("soak", &[]).0, "the same seed wrote different logs");
    assert!(log.contains(" done "), "the soak completed nothing:\n{log}");
    assert!(summary.contains("panics 0"), "the soak saw panics:\n{summary}");
    assert_eq!(sha256_hex(log.as_bytes()), SOAK_LOG_SHA256, "the soak wrote a different log");
}

#[test]
fn same_seed_report_bundles_agree_reconcile_and_hold_every_arrival() {
    let dir = Scratch::new("report");
    let models = dir.file("models.bin");
    sage(&["train", "--out", path(&models)]);
    let (bundle, dashboard) = run("report", &[]);
    let (saved_models, _) = run("report", &["--models", path(&models)]);
    let bundle_virtual = virtual_part(&bundle);
    assert_eq!(bundle_virtual, virtual_part(&saved_models), "two same-seed bundles differ");
    assert!(bundle.contains("\"clean\": true"), "the bundle does not reconcile:\n{bundle}");
    let summary = dashboard.lines().any(|l| l.starts_with("=== sage telemetry"));
    assert!(summary, "no telemetry summary:\n{dashboard}");
    let arrivals = field(&bundle, "soak", "arrivals").expect("the soak's arrivals");
    let observations = bundle
        .lines()
        .find(|l| l.starts_with("  \"observations\": "))
        .map_or(0, |l| l.matches("{\"seq\":").count());
    assert!(arrivals > 0);
    assert_eq!(observations, arrivals, "one observation per arrival");
    assert_eq!(
        sha256_hex(bundle_virtual.as_bytes()),
        REPORT_SHA256,
        "the report wrote a different bundle"
    );
}
