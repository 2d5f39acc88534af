//! Removed surfaces are refused by name, through the `sage` binary: the
//! in-process sharding flags (`--shards`, `--quorum`), its fault entries
//! and scenario key, the HNSW tier (`--hnsw`), the live store's retriever
//! choice (`soak --live --retriever hnsw|bm25`), the opt-in resilience
//! switch (`--resilience`) and `sage
//! report`'s SLO engine and flight recorder (`--slo`, `--strict-slo`,
//! `--recorder-capacity`). Each must fail and name its input, never be
//! silently ignored. One test per command.

#[allow(dead_code, reason = "the refusals need only the scratch directory")]
mod common;

use common::{path, Scratch};
use std::process::Command;

/// Run the binary; it must fail. Returns its stderr.
fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sage")).args(args).output().expect("sage runs");
    assert!(!out.status.success(), "sage {args:?} was accepted");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `sage <command> --<flag> [value]` fails with `unknown flag --<flag> for
/// `sage <command>``.
fn assert_unknown_flag(command: &str, flag: &str, value: Option<&str>) {
    let flag_arg = format!("--{flag}");
    let mut args = vec![command, flag_arg.as_str()];
    args.extend(value);
    let err = refused(&args);
    let want = format!("unknown flag --{flag} for `sage {command}`");
    assert!(err.contains(&want), "sage {args:?}: no {want:?} in\n{err}");
}

#[test]
fn ask_refuses_sharding_hnsw_resilience_and_shard_faults() {
    for flag in ["shards", "quorum"] {
        assert_unknown_flag("ask", flag, Some("4"));
    }
    for flag in ["hnsw", "resilience"] {
        assert_unknown_flag("ask", flag, None);
    }
    let dir = Scratch::new("refusals-ask");
    let corpus = dir.file("corpus.txt");
    std::fs::write(
        &corpus,
        "Whiskers is a playful tabby cat. He has bright green eyes.\n\n\
         Dorinwick was well known in the region. He lives in Ashford.\n",
    )
    .expect("the corpus file");
    let question = "What is the color of Whiskers's eyes?";
    let args = ["ask", "--file", path(&corpus), "--question", question, "--faults", "shard:1:down"];
    let err = refused(&args);
    assert!(
        err.contains("bad fault entry \"shard:1:down\""),
        "the fault error names no entry:\n{err}"
    );
}

#[test]
fn soak_refuses_sharding_hnsw_resilience_and_an_hnsw_live_store() {
    for flag in ["shards", "quorum"] {
        assert_unknown_flag("soak", flag, Some("4"));
    }
    for flag in ["hnsw", "resilience"] {
        assert_unknown_flag("soak", flag, None);
    }
    let dir = Scratch::new("refusals-soak");
    for retriever in ["hnsw", "bm25"] {
        let live_dir = dir.file(&format!("{retriever}-live"));
        let args = ["soak", "--live", "--retriever", retriever, "--live-dir", path(&live_dir)];
        let err = refused(&args);
        assert!(
            err.contains("unknown flag --retriever for `sage soak --live`"),
            "the live retriever flag is not refused by name:\n{err}"
        );
    }
}

#[test]
fn explain_refuses_sharding() {
    for flag in ["shards", "quorum"] {
        assert_unknown_flag("explain", flag, Some("4"));
    }
}

#[test]
fn query_refuses_hnsw_and_resilience() {
    for flag in ["hnsw", "resilience"] {
        assert_unknown_flag("query", flag, None);
    }
}

#[test]
fn scenarios_refuse_the_shards_key() {
    let dir = Scratch::new("refusals-scenarios");
    let grid = dir.file("shards.toml");
    std::fs::write(&grid, "[[cell]]\nname = \"a\"\nshards = 4\n").expect("the scenario file");
    let err = refused(&["scenarios", "run", path(&grid)]);
    assert!(err.contains("unknown cell key `shards`"), "the scenario error names no key:\n{err}");
}

#[test]
fn report_refuses_the_slo_engine_and_the_flight_recorder() {
    for flag in ["slo", "strict-slo", "recorder-capacity"] {
        assert_unknown_flag("report", flag, None);
    }
}
