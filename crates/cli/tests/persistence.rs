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

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CORPUS: &str = "Whiskers is a playful tabby cat. He has bright green eyes.\n\n\
                      Dorinwick was well known in the region. He lives in Ashford.\n";
const QUESTION: &str = "What is the color of Whiskers's eyes?";

const MODELS_SHA256: &str = "47389812a77e16c4a346958c744fc3810b46931d5c9651d62499e7e8999d830d";
const INDEX_SHA256: [(&str, &str); 2] = [
    ("openai", "4f3818a53bab0d48f6826c1750a6d1c853cb4493decedc19b9d147efbdc0dcef"),
    ("bm25", "36c8f066e2c2204419b2cd1475526b7b9d712ea58a5da8c9d68c097705ef7e07"),
];

/// Run the binary; it must succeed.
fn sage(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_sage")).args(args).output().expect("sage runs");
    assert!(out.status.success(), "sage {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

fn path(p: &Path) -> &str {
    p.to_str().expect("a UTF-8 path")
}

/// A directory of this test's own, removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn trained_models_and_saved_indexes_are_pinned_and_guarded() {
    let name = format!("sage-persistence-{}", std::process::id());
    let dir = Scratch(std::env::temp_dir().join(name));
    std::fs::create_dir_all(&dir.0).expect("a scratch directory");
    let file = |name: &str| dir.0.join(name);
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

    // Byte 100 is chunk text (ASCII), so 0xFF always changes it.
    let mut flipped = std::fs::read(file("index_openai_a.bin")).expect("the dense index");
    flipped[100] = 0xFF;
    std::fs::write(file("index_flipped.bin"), flipped).expect("the flipped copy");
    let refused = Command::new(env!("CARGO_BIN_EXE_sage"))
        .args(["query", "--index", path(&file("index_flipped.bin")), "--question", QUESTION])
        .output()
        .expect("sage runs");
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

/// SHA-256 (FIPS 180-4) of `data`, in lowercase hex.
fn sha256_hex(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut message = data.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend((data.len() as u64 * 8).to_be_bytes());
    for block in message.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            (hh, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
        }
        for (state, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *state = state.wrapping_add(v);
        }
    }
    h.iter().map(|v| format!("{v:08x}")).collect()
}
