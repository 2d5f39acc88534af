//! The `sage ask` smokes, through the `sage` binary: over one small corpus
//! and the default-budget models, the answer and its context (stdout and
//! stderr together, as one terminal shows them) are the recorded listings,
//! byte for byte.
//!
//! - The one end-to-end BM25 run through the CLI: the listing is what the
//!   build that still had in-process sharding printed.
//! - A dead embedder is served by the BM25 fallback tier, built on the
//!   first dense->bm25 fallback; the `fallbacks:` line is printed because
//!   `--faults` was given. The listing is what the build that still had an
//!   opt-in resilience layer printed.
//! - A dead reader spends three attempts on the primary context and two on
//!   the second-best set: the fifth consecutive failure caps the reader.
//!   The listing is what the build that still had a clocked circuit breaker
//!   printed.

#[allow(dead_code, reason = "the SHA-256 helper serves the tests that pin files")]
mod common;

use common::{path, sage, Scratch};
use std::fs::File;
use std::process::Command;

const CORPUS: &str = "Whiskers is a playful tabby cat. He has bright green eyes.\n\n\
    Dorinwick was well known in the region. He lives in Ashford.\n\n\
    Mossy is an old tortoise. Her shell is dark green and cracked.\n\n\
    The harbor town of Ashford keeps a lighthouse. Its keeper paints the door blue.\n\n\
    Brone the baker lives near the mill. He bakes bread for Ashford every morning.\n\n\
    Whiskers sleeps on the porch in the afternoon. His favourite toy is a red ball.\n";

const CONTEXT: &str = "\
green
confidence 0.58 | 6 chunks | 1 feedback rounds | 492 tokens | $0.000081
  [ctx 0] Whiskers is a playful tabby cat. He has bright green eyes.
  [ctx 5] Whiskers sleeps on the porch in the afternoon. His favourite toy is a red ball.
  [ctx 3] The harbor town of Ashford keeps a lighthouse. Its keeper paints the door blue.
  [ctx 2] Mossy is an old tortoise. Her shell is dark green and cracked.
  [ctx 4] Brone the baker lives near the mill. He bakes bread for Ashford every morning.
  [ctx 1] Dorinwick was well known in the region. He lives in Ashford.
";

const DEAD_EMBEDDER: &str = "\
degraded: Embedder -> dense->bm25 after 3 attempt(s) (+141ms virtual delay)
fallbacks: dense->bm25=1
";

const DEAD_READER: &str = "\
unanswerable
confidence 0.00 | 0 chunks | 0 feedback rounds | 0 tokens | $0.000000
degraded: Reader -> reader->second-best after 3 attempt(s) (+127ms virtual delay)
degraded: Reader -> reader->unanswerable after 2 attempt(s) (+125ms virtual delay)
fallbacks: reader->second-best=1 reader->unanswerable=1
";

/// `sage ask` over the corpus with `args`, stdout and stderr into one file
/// in the order they were written; it must succeed.
fn ask(dir: &Scratch, args: &[&str]) -> String {
    let listing = dir.file("listing.txt");
    let out = File::create(&listing).expect("the listing file");
    let status = Command::new(env!("CARGO_BIN_EXE_sage"))
        .args(["ask", "--file", path(&dir.file("corpus.txt")), "--models"])
        .arg(dir.file("models.bin"))
        .args(["--question", "What is the color of Whiskers's eyes?", "--show-context"])
        .args(args)
        .stdout(out.try_clone().expect("a second handle"))
        .stderr(out)
        .status()
        .expect("sage runs");
    let listing = std::fs::read_to_string(listing).expect("a UTF-8 listing");
    assert!(status.success(), "sage ask {args:?}: {listing}");
    listing
}

#[test]
fn ask_prints_the_recorded_listings() {
    let dir = Scratch::new("ask");
    std::fs::write(dir.file("corpus.txt"), CORPUS).expect("the corpus");
    sage(&["train", "--out", path(&dir.file("models.bin"))]);

    assert_eq!(ask(&dir, &["--retriever", "bm25"]), CONTEXT, "the BM25 ask");
    let dead_embedder = ask(&dir, &["--faults", "embedder=transient:1.0"]);
    assert_eq!(dead_embedder, format!("{CONTEXT}{DEAD_EMBEDDER}"), "a dead embedder");
    assert_eq!(ask(&dir, &["--faults", "reader=transient:1.0"]), DEAD_READER, "a dead reader");
}
