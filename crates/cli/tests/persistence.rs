//! The persistence smoke, through the `sage` binary: the offline phase
//! writes files the online phase reloads, byte for byte.
//!
//! - `sage train --out` writes the default-budget model file whose SHA-256
//!   is pinned below: a trainer change that moves one weight bit fails here.
//! - `sage index` over those models writes the same bytes twice, with the
//!   default dense retriever and with BM25 (whose reranker shares BM25's
//!   term table), and each file has its pinned SHA-256: a change in chunk,
//!   embedding or term-table bits fails here even when two runs agree.
//! - Each saved index answers, and one flipped payload byte is refused by
//!   the CRC trailer rather than parsed.
//! - Over the same files, an injected reader panic is an error, not a
//!   crash: `ask` and `query` exit 1, print nothing on stdout and end
//!   stderr on the structured error (the default panic hook's message may
//!   precede it).
//! - `sage segment` over those models prints the recorded chunk listing,
//!   which is what the build before the pool-once segmenter printed, byte
//!   for byte; a bad `--naive` value is refused.

mod common;

use common::{path, sage, sha256_hex, Scratch};
use std::process::Command;

const CORPUS: &str = "Whiskers is a playful tabby cat. He has bright green eyes.\n\n\
                      Dorinwick was well known in the region. He lives in Ashford.\n";
const QUESTION: &str = "What is the color of Whiskers's eyes?";

const MODELS_SHA256: &str = "47389812a77e16c4a346958c744fc3810b46931d5c9651d62499e7e8999d830d";
const SEGMENT_LISTING: &str = "\
[  0] (17 tokens) Whiskers is a playful tabby cat. He has bright green eyes.
[  1] (17 tokens) Dorinwick was well known in the region. He lives in Ashford.
";
const INDEX_SHA256: [(&str, &str); 2] = [
    ("openai", "4f3818a53bab0d48f6826c1750a6d1c853cb4493decedc19b9d147efbdc0dcef"),
    ("bm25", "36c8f066e2c2204419b2cd1475526b7b9d712ea58a5da8c9d68c097705ef7e07"),
];

#[test]
fn trained_models_and_saved_indexes_are_pinned_and_guarded() {
    let dir = Scratch::new("persistence");
    let file = |name: &str| dir.file(name);
    std::fs::write(file("corpus.txt"), CORPUS).expect("the corpus");

    sage(&["train", "--out", path(&file("models.bin"))]);
    let models = std::fs::read(file("models.bin")).expect("the model file");
    assert_eq!(sha256_hex(&models), MODELS_SHA256, "sage train wrote different model bytes");

    for (retriever, want) in INDEX_SHA256 {
        let saved: Vec<Vec<u8>> = ["a", "b"]
            .iter()
            .map(|run| {
                let out = file(&format!("index_{retriever}_{run}.bin"));
                sage(&[
                    "index", "--file", path(&file("corpus.txt")), "--models",
                    path(&file("models.bin")), "--retriever", retriever, "--out", path(&out),
                ]);
                std::fs::read(out).expect("the index file")
            })
            .collect();
        let same = saved[0] == saved[1];
        assert!(same, "the same models and corpus indexed to different {retriever} bytes");
        assert_eq!(sha256_hex(&saved[0]), want, "sage index wrote different {retriever} bytes");
        let index = file(&format!("index_{retriever}_a.bin"));
        let answer = sage(&["query", "--index", path(&index), "--question", QUESTION]);
        let answer = String::from_utf8_lossy(&answer.stdout);
        assert!(answer.contains("green"), "wrong answer from the {retriever} index: {answer:?}");
    }

    // The binary, whether it succeeds or not.
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_sage")).args(args).output().expect("sage runs")
    };
    let panic_error = format!("error: panicked: injected panic at reader for call \"{QUESTION}\"");
    let (corpus_txt, models_bin) = (file("corpus.txt"), file("models.bin"));
    let index_bin = file("index_openai_a.bin");
    let inputs: [&[&str]; 2] = [
        &["ask", "--file", path(&corpus_txt), "--models", path(&models_bin)],
        &["query", "--index", path(&index_bin)],
    ];
    for input in inputs {
        let out = run(&[input, &["--question", QUESTION, "--faults", "reader=panic:1.0"]].concat());
        let command = input[0];
        assert_eq!(out.status.code(), Some(1), "sage {command} on an injected panic");
        assert!(out.stdout.is_empty(), "sage {command} printed an answer");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().last(), Some(panic_error.as_str()), "sage {command}: {err}");
    }

    let listing = sage(&["segment", "--file", path(&corpus_txt), "--models", path(&models_bin)]);
    assert_eq!(String::from_utf8_lossy(&listing.stdout), SEGMENT_LISTING, "sage segment");
    let refused = run(&["segment", "--file", path(&corpus_txt), "--naive", "abc"]);
    assert!(!refused.status.success(), "sage segment accepted --naive abc");
    let err = String::from_utf8_lossy(&refused.stderr);
    assert!(err.contains("invalid value for --naive"), "no --naive error: {err}");

    // Byte 100 is chunk text (ASCII), so 0xFF always changes it.
    let mut flipped = std::fs::read(&index_bin).expect("the dense index");
    flipped[100] = 0xFF;
    let flipped_bin = file("index_flipped.bin");
    std::fs::write(&flipped_bin, flipped).expect("the flipped copy");
    let refused = run(&["query", "--index", path(&flipped_bin), "--question", QUESTION]);
    assert!(!refused.status.success(), "a corrupted index answered");
    let err = String::from_utf8_lossy(&refused.stderr);
    assert!(err.contains("checksum mismatch"), "no checksum error: {err}");
}

#[test]
fn sha256_matches_the_published_vectors() {
    assert_eq!(sha256_hex(b""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    let abc = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
    assert_eq!(sha256_hex(b"abc"), abc);
    let two_blocks = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    assert_eq!(
        sha256_hex(two_blocks),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}
