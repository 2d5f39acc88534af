//! `sage scenarios run --baseline`, through the `sage` binary: the
//! comparison of measured rows with a committed file.
//!
//! - A one-cell grid written with `--out` is its own baseline: the rerun
//!   exits 0.
//! - Change one digit of that row and the rerun exits 1, printing the
//!   committed row as `- ` and the measured one as `+ `.
//! - A filtered run against the committed `BENCH_scenarios.json` needs only
//!   its own row there.
//!
//! The whole grid against `BENCH_scenarios.json` is
//! `scenario_grid_renders_the_committed_rows_byte_for_byte` in the
//! workspace's `tests/end_to_end.rs`.

#[allow(dead_code, reason = "the baseline check pins no file")]
mod common;

use common::{path, sage, Scratch};
use std::process::Command;

/// The repository's `scenarios.toml` and `BENCH_scenarios.json`.
fn committed(name: &str) -> String {
    format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn a_baseline_passes_its_own_rows_and_names_a_changed_digit() {
    let dir = Scratch::new("scenarios");
    let models = dir.file("models.bin");
    sage(&["train", "--out", path(&models)]);

    // The defaults and the first cell, `smoke-baseline`, of the committed grid.
    let grid = std::fs::read_to_string(committed("scenarios.toml")).expect("scenarios.toml");
    let second = grid.match_indices("\n[[cell]]").nth(1).expect("two cells").0;
    let one_cell = dir.file("one.toml");
    std::fs::write(&one_cell, &grid[..second]).expect("the one-cell grid");
    let rows = dir.file("rows.json");
    let run = ["scenarios", "run", path(&one_cell), "--models", path(&models)];
    sage(&[&run[..], &["--out", path(&rows)]].concat());
    sage(&[&run[..], &["--baseline", path(&rows)]].concat());

    // One digit of the row changed: the comparison fails and shows both rows.
    let measured = std::fs::read_to_string(&rows).expect("the rows");
    let at = measured.find("\"tokens\": ").expect("a tokens column") + "\"tokens\": ".len();
    let digit = measured.as_bytes()[at];
    let changed = if digit == b'9' { '0' } else { char::from(digit + 1) };
    let edited = format!("{}{changed}{}", &measured[..at], &measured[at + 1..]);
    let baseline = dir.file("edited.json");
    std::fs::write(&baseline, &edited).expect("the edited baseline");
    let out = Command::new(env!("CARGO_BIN_EXE_sage"))
        .args([&run[..], &["--baseline", path(&baseline)]].concat())
        .output()
        .expect("sage runs");
    assert_eq!(out.status.code(), Some(1), "a changed digit was accepted");
    let err = String::from_utf8_lossy(&out.stderr);
    let row = |text: &str| {
        let line = text.lines().find(|l| l.contains("smoke-baseline")).expect("the row");
        line.trim().trim_end_matches(',').to_string()
    };
    assert!(err.lines().any(|l| l == format!("- {}", row(&edited))), "no `- ` line:\n{err}");
    assert!(err.lines().any(|l| l == format!("+ {}", row(&measured))), "no `+ ` line:\n{err}");

    // A filtered run needs only its own row in the committed file.
    let scenarios = committed("scenarios.toml");
    let bench = committed("BENCH_scenarios.json");
    let filtered = ["--filter", "smoke-baseline", "--baseline", &bench];
    sage(&[&["scenarios", "run", &scenarios, "--models", path(&models)][..], &filtered].concat());
}
