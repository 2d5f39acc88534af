//! `sage explain`, through the `sage` binary: the plan a question would
//! run, byte for byte, for SAGE on the default dense retriever and for
//! naive RAG on BM25.
//!
//! - SAGE's plan lists every stage, judges its answers, and names the
//!   rewrite each of the two brownout rungs applies.
//! - The telemetry line: each stage opens and closes its own span, the
//!   budget's rung is applied once, before retrieval, and no per-stage
//!   budget checkpoint exists.
//! - The naive plan retrieves with BM25, bypasses rerank, takes a flat
//!   prefix and never judges, so neither rung changes it.
//! - `explain` refuses a flag it does not read (`--concurrency`), and the
//!   removed `sage lint` command is refused by name.

#[allow(dead_code, reason = "explain needs only the runner")]
mod common;

use common::sage;
use std::process::Command;

const SAGE_PLAN: &str = "\
question: why is the sky blue
config: sage | retriever: openai
prelude:
  embed
  retrieve-dense
  rerank (full pool)
rounds (up to 3):
  select (gradient)
  read
  feedback
  fuse
telemetry: each stage opens and closes its own span (the budget's rung is applied once, before retrieval)
brownout rewrites:
  rung DropFeedback: embed -> retrieve-dense -> rerank (full pool) -> select (gradient) -> read
  rung FlatTopK: embed -> retrieve-dense -> rerank (bypass: retrieval order) -> select (flat top-k) -> read
";

const NAIVE_BM25_PLAN: &str = "\
config: naive-rag | retriever: bm25
prelude:
  retrieve-bm25
  rerank (bypass: retrieval order)
rounds (up to 1):
  select (flat top-k)
  read
  fuse
telemetry: each stage opens and closes its own span (the budget's rung is applied once, before retrieval)
brownout rewrites:
  rung DropFeedback: no change
  rung FlatTopK: no change
";

/// The stdout of `sage explain <args>`.
fn explain(args: &[&str]) -> String {
    let mut all = vec!["explain"];
    all.extend_from_slice(args);
    String::from_utf8(sage(&all).stdout).expect("UTF-8 output")
}

/// Run the binary; it must fail. Returns its stderr.
fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sage")).args(args).output().expect("sage runs");
    assert!(!out.status.success(), "sage {args:?} was accepted");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn the_sage_plan_is_printed_byte_for_byte() {
    let plan = explain(&["why is the sky blue"]);
    assert_eq!(plan, SAGE_PLAN);
    let rungs = plan.lines().filter(|l| l.starts_with("  rung ")).count();
    assert_eq!(rungs, 2, "{plan}");
    assert!(!plan.contains("budget checkpoint"), "{plan}");
}

#[test]
fn the_naive_bm25_plan_is_printed_byte_for_byte_and_never_judges() {
    let plan = explain(&["--naive", "--retriever", "bm25"]);
    assert_eq!(plan, NAIVE_BM25_PLAN);
    assert!(!plan.lines().any(|l| l.starts_with("  feedback")), "{plan}");
}

#[test]
fn an_unread_flag_and_the_removed_lint_command_are_refused() {
    let err = refused(&["explain", "--concurrency", "3"]);
    assert!(err.contains("unknown flag --concurrency for `sage explain`"), "{err}");
    let err = refused(&["lint"]);
    assert!(err.contains("unknown command `lint`"), "{err}");
}
