//! The live-corpus smoke, through the `sage` binary: a store mutated by
//! `sage soak --live` keeps its invariants, and its log is a function of
//! the seeds alone.
//!
//! - A crash drill (crashes injected before the segment rename and before
//!   the manifest commit) recovers every crash to the last committed
//!   epoch with no invariant violated. Two runs in different directories
//!   write the same log, and the log has its pinned SHA-256: it carries no
//!   wall-clock time or path, so any change in what the store holds or
//!   answers moves it.
//! - The store the drill leaves reopens at its committed epoch.
//! - A longer run, whose vector index crosses several 64-row tiles and
//!   compacts twelve times, writes a log with its pinned SHA-256: the
//!   mutable index's adds, tombstones, in-place compactions and searches
//!   keep every hit.

mod common;

use common::{path, sage, sha256_hex, Scratch};

const CRASH_DRILL_SHA256: &str = "a31e0c8327115086b75c84cc37f14ae3af6986ab9f95db19d811fe660cfb04b6";
const COMPACTING_SHA256: &str = "51644455c85ed10d58b415ce947f7a2160061c5d8adc1447e938730d718e7a14";

/// The log (stdout) of `sage soak --live` over the store in `dir`.
fn live_soak(dir: &std::path::Path, args: &[&str]) -> String {
    let mut all = vec!["soak", "--live", "--live-dir", path(dir)];
    all.extend_from_slice(args);
    String::from_utf8(sage(&all).stdout).expect("a UTF-8 log")
}

#[test]
fn a_crash_drill_recovers_replays_byte_for_byte_and_reopens_at_its_epoch() {
    let dir = Scratch::new("live-drill");
    let drill = [
        "--ops",
        "12",
        "--seed",
        "42",
        "--crash",
        "pre-rename:0.4,pre-manifest-commit:0.3",
        "--crash-seed",
        "7",
    ];
    let (a, b) = (dir.file("a"), dir.file("b"));
    let log = live_soak(&a, &drill);
    assert_eq!(log, live_soak(&b, &drill), "the same seeds wrote different logs");
    assert!(log.lines().any(|line| line.starts_with("recover ")), "no recovery drill:\n{log}");
    assert!(log.contains("violations=0 "), "a live invariant was violated:\n{log}");
    assert_eq!(
        sha256_hex(log.as_bytes()),
        CRASH_DRILL_SHA256,
        "the crash drill wrote a different log"
    );

    let reopened = live_soak(&a, &["--ops", "0", "--seed", "43"]);
    let at_epoch = |line: &str| {
        line.strip_prefix("open epoch=")
            .and_then(|rest| rest.bytes().next())
            .is_some_and(|digit| (b'1'..=b'9').contains(&digit))
    };
    assert!(reopened.lines().any(at_epoch), "did not reopen at a committed epoch:\n{reopened}");
}

#[test]
fn a_store_that_crosses_tiles_and_compacts_writes_its_pinned_log() {
    let dir = Scratch::new("live-compacting");
    let args = ["--ops", "60", "--batch", "32", "--docs", "400", "--seed", "42"];
    let log = live_soak(&dir.file("store"), &args);
    assert_eq!(log.matches("compacted=true").count(), 12, "{log}");
    assert!(log.contains("violations=0 "), "a live invariant was violated:\n{log}");
    assert_eq!(
        sha256_hex(log.as_bytes()),
        COMPACTING_SHA256,
        "the compacting run wrote a different log"
    );
}
