//! Format goldens: every persisted blob format, built from hand-typed
//! values (no trained float is involved) and pinned by length and
//! [`fsx::crc32`]. A change to any `write` that moves a byte fails here
//! before it strands a file on someone's disk; the same blobs then go
//! through their decoders damaged — every strict prefix must be rejected
//! and no bit flip in the first 64 bytes may panic.

use crate::config::{RetrieverKind, SageConfig};
use crate::fsx;
use crate::live::store::{
    decode_manifest, decode_segment, encode_manifest, encode_segment, SegmentEntry,
};
use crate::live::{LiveConfig, LiveOp};
use crate::pipeline::RagSystem;
use sage_embed::HashedEmbedder;
use sage_llm::LlmProfile;
use sage_nn::{Activation, BytesSerialize, EmbeddingTable, Linear, Matrix, Mlp};
use sage_vecdb::{FlatIndex, Metric, VectorIndex};

struct Golden {
    name: &'static str,
    blob: Vec<u8>,
    /// `(length, crc32)` of `blob` as first written.
    pinned: (usize, u32),
    loads: fn(&[u8]) -> bool,
}

fn golden(name: &'static str, blob: Vec<u8>, pinned: (usize, u32), loads: fn(&[u8]) -> bool) -> Golden {
    Golden { name, blob, pinned, loads }
}

fn loads<T: BytesSerialize>(b: &[u8]) -> bool {
    T::from_bytes(b).is_some()
}

fn flat_loads(b: &[u8]) -> bool {
    FlatIndex::from_bytes(b).is_some()
}

fn linear(rows: usize, cols: usize, first: f32, act: Activation) -> Linear {
    let w = Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| first + 0.25 * i as f32).collect());
    Linear::from_parts(w, (0..cols).map(|i| -0.5 * i as f32).collect(), act).expect("bias fits")
}

fn flat(metric: Metric) -> Vec<u8> {
    let mut index = FlatIndex::new(metric);
    index.add(vec![1.0, 0.0, -2.5, 0.125]);
    index.add(vec![0.0, 3.0, 0.5, -1.0]);
    index.add(vec![-0.75, 0.25, 8.0, 2.0]);
    index.to_bytes()
}

fn goldens() -> Vec<Golden> {
    let system = RagSystem::build(
        crate::models::tiny_models(),
        RetrieverKind::Bm25,
        SageConfig::naive_rag(),
        LlmProfile::gpt4o_mini(),
        &["Whiskers is a playful tabby cat. He has bright green eyes.\n\n\
           Dorinwick lives in Ashford. The fog settled over the valley."
            .to_string()],
    );
    let ops = [
        LiveOp::Upsert { doc_id: "doc-1".into(), text: "One sentence here. And another.".into() },
        LiveOp::Delete { doc_id: "doc-0".into() },
    ];
    let entries = [
        SegmentEntry { epoch: 1, len: 120, crc: 0xDEAD_BEEF },
        SegmentEntry { epoch: 2, len: 64, crc: 7 },
    ];
    let mlp = Mlp::from_layers(vec![
        linear(3, 2, -1.0, Activation::Relu),
        linear(2, 1, 0.5, Activation::Sigmoid),
    ])
    .expect("layers chain");
    let table = EmbeddingTable::from_parts(4, 2, vec![0.5, -0.5, 1.0, 2.0, -3.0, 0.0, 0.25, 4.0])
        .expect("4 x 2 rows");
    vec![
        golden(
            "Matrix",
            Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 0.0, 3.25, -0.125]).to_bytes(),
            (36, 0x3736_BAA9),
            loads::<Matrix>,
        ),
        golden("Linear", linear(2, 3, 0.0, Activation::Tanh).to_bytes(), (53, 0xBC76_7F44), loads::<Linear>),
        golden("Mlp", mlp.to_bytes(), (79, 0xCE07_FA2F), loads::<Mlp>),
        golden("EmbeddingTable", table.to_bytes(), (44, 0xE634_6AB2), loads::<EmbeddingTable>),
        golden(
            "HashedEmbedder",
            HashedEmbedder::new(256, 0xA1).to_bytes(),
            (12, 0xDCBC_FEBD),
            loads::<HashedEmbedder>,
        ),
        golden("FlatIndex cosine", flat(Metric::Cosine), (57, 0x33E0_456D), flat_loads),
        golden("FlatIndex dot", flat(Metric::Dot), (57, 0x2B4A_9709), flat_loads),
        golden("FlatIndex neg-euclidean", flat(Metric::NegEuclidean), (57, 0x02B5_E1A5), flat_loads),
        golden("BM25 naive-RAG system", system.to_bytes(), (171, 0xE362_A890), |b| {
            RagSystem::from_bytes(b, LlmProfile::gpt4o_mini()).is_some()
        }),
        golden("live segment", encode_segment(7, &ops), (75, 0xC349_DB43), |b| {
            decode_segment(b).is_some()
        }),
        golden(
            "live manifest",
            encode_manifest(2, &LiveConfig::default(), &entries),
            (89, 0xBABF_E624),
            |b| decode_manifest(b).is_some(),
        ),
    ]
}

#[test]
fn persisted_formats_are_pinned_and_damaged_blobs_are_rejected() {
    // Short enough to read: dim u32 ‖ seed u64, little-endian.
    assert_eq!(
        HashedEmbedder::new(256, 0xA1).to_bytes(),
        [0x00, 0x01, 0, 0, 0xA1, 0, 0, 0, 0, 0, 0, 0]
    );
    for g in goldens() {
        assert_eq!((g.blob.len(), fsx::crc32(&g.blob)), g.pinned, "{}: format moved", g.name);
        assert!((g.loads)(&g.blob), "{} must load", g.name);
        for cut in 0..g.blob.len() {
            assert!(!(g.loads)(&g.blob[..cut]), "{}: the {cut}-byte prefix loaded", g.name);
        }
        // Some or None, never a panic or an allocation sized by a flipped count.
        for pos in 0..g.blob.len().min(64) {
            for bit in 0..8 {
                let mut flipped = g.blob.clone();
                flipped[pos] ^= 1 << bit;
                let _ = (g.loads)(&flipped);
            }
        }
    }
}
