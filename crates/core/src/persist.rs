//! Whole-system persistence: a built [`RagSystem`] — chunks, embedder,
//! vector index, fitted reranker, configuration — serialized to one file,
//! so a corpus is segmented and indexed once and then served by any number
//! of processes (`sage index` / `sage query` in the CLI).
//!
//! Format: `SAGESYS1` magic, then config, retriever kind + embedder +
//! index blob (dense) or chunks-only (BM25, whose index rebuilds in
//! milliseconds), then the chunk store and the optional fitted scorer.
//! The LLM profile is intentionally *not* persisted: the reader is a
//! runtime choice, not a property of the corpus.
//!
//! On disk the payload is framed and committed through [`crate::fsx`] —
//! the shared CRC-32 `SAGECRC1` trailer plus tmp+fsync+rename+dir-fsync
//! protocol — so a crash mid-save leaves either the old file or the new
//! one, never a torn hybrid. [`RagSystem::load`] distinguishes the two
//! corruption modes with distinct errors: a checksum mismatch (torn write
//! / bit rot caught by the trailer) versus a structurally malformed
//! payload. Files saved before the trailer existed still load (the
//! trailer is detected by its magic).

use crate::config::{RetrieverKind, SageConfig};
use crate::fsx;
use crate::pipeline::{AnyRetriever, RagSystem};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use sage_embed::{DualEncoder, HashedEmbedder, SiameseEncoder};
use sage_llm::LlmProfile;
use sage_nn::io::{get_string, get_u32, get_u8, put_string};
use sage_nn::BytesSerialize;
use sage_rerank::CrossScorer;
use sage_retrieval::{Bm25Retriever, DenseRetriever, Retriever};
use sage_vecdb::{FlatIndex, VectorIndex};

const MAGIC: &[u8; 8] = b"SAGESYS1";

fn write_config(cfg: &SageConfig, buf: &mut BytesMut) {
    buf.put_f32_le(cfg.segmentation_threshold);
    buf.put_u32_le(cfg.coarse_tokens as u32);
    buf.put_u32_le(cfg.min_k as u32);
    buf.put_f32_le(cfg.gradient);
    buf.put_u8(cfg.feedback_threshold);
    buf.put_u32_le(cfg.max_feedback_rounds as u32);
    buf.put_u32_le(cfg.candidates as u32);
    buf.put_u8(u8::from(cfg.use_segmentation));
    buf.put_u8(u8::from(cfg.use_rerank));
    buf.put_u8(u8::from(cfg.use_selection));
    buf.put_u8(u8::from(cfg.use_feedback));
    buf.put_u32_le(cfg.naive_chunk_tokens as u32);
}

fn read_config(buf: &mut Bytes) -> Option<SageConfig> {
    if buf.remaining() < 4 {
        return None;
    }
    let segmentation_threshold = buf.get_f32_le();
    let coarse_tokens = get_u32(buf)? as usize;
    let min_k = get_u32(buf)? as usize;
    if buf.remaining() < 4 {
        return None;
    }
    let gradient = buf.get_f32_le();
    let feedback_threshold = get_u8(buf)?;
    let max_feedback_rounds = get_u32(buf)? as usize;
    let candidates = get_u32(buf)? as usize;
    let use_segmentation = get_u8(buf)? != 0;
    let use_rerank = get_u8(buf)? != 0;
    let use_selection = get_u8(buf)? != 0;
    let use_feedback = get_u8(buf)? != 0;
    let naive_chunk_tokens = get_u32(buf)? as usize;
    Some(SageConfig {
        segmentation_threshold,
        coarse_tokens,
        min_k,
        gradient,
        feedback_threshold,
        max_feedback_rounds,
        candidates,
        use_segmentation,
        use_rerank,
        use_selection,
        use_feedback,
        naive_chunk_tokens,
    })
}

impl RagSystem {
    /// Serialize the built system (without the LLM profile).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        write_config(self.config(), &mut buf);
        buf.put_u8(match self.retriever_kind() {
            RetrieverKind::OpenAiSim => 0,
            RetrieverKind::Sbert => 1,
            RetrieverKind::Dpr => 2,
            RetrieverKind::Bm25 => 3,
        });
        // Chunk store.
        buf.put_u32_le(self.chunks().len() as u32);
        for chunk in self.chunks() {
            put_string(&mut buf, chunk);
        }
        // Dense state: embedder + index blob (skipped for BM25, which
        // rebuilds from the chunk store on load).
        match self.dense_state() {
            Some((embedder_bytes, index)) => {
                buf.put_u8(1);
                buf.put_u32_le(embedder_bytes.len() as u32);
                buf.put_slice(&embedder_bytes);
                let blob = index.to_bytes();
                buf.put_u32_le(blob.len() as u32);
                buf.put_slice(&blob);
            }
            None => buf.put_u8(0),
        }
        // Fitted scorer.
        match self.scorer_ref() {
            Some(scorer) => {
                buf.put_u8(1);
                scorer.write(&mut buf);
            }
            None => buf.put_u8(0),
        }
        buf.freeze()
    }

    /// Deserialize a system saved by [`RagSystem::to_bytes`], binding it to
    /// the given reader profile.
    pub fn from_bytes(mut bytes: Bytes, profile: LlmProfile) -> Option<Self> {
        if bytes.remaining() < 8 || &bytes.split_to(8)[..] != MAGIC {
            return None;
        }
        let config = read_config(&mut bytes)?;
        let kind = match get_u8(&mut bytes)? {
            0 => RetrieverKind::OpenAiSim,
            1 => RetrieverKind::Sbert,
            2 => RetrieverKind::Dpr,
            3 => RetrieverKind::Bm25,
            _ => return None,
        };
        let n = get_u32(&mut bytes)? as usize;
        // `n` is untrusted: a bit-flipped count must not pre-allocate
        // gigabytes. Every chunk consumes at least a 4-byte length prefix,
        // so `remaining` bounds any plausible count.
        if n > bytes.remaining() {
            return None;
        }
        let mut chunks = Vec::with_capacity(n);
        for _ in 0..n {
            chunks.push(get_string(&mut bytes)?);
        }
        let retriever: AnyRetriever = if get_u8(&mut bytes)? == 1 {
            let elen = get_u32(&mut bytes)? as usize;
            if bytes.remaining() < elen {
                return None;
            }
            let mut embedder_bytes = bytes.split_to(elen);
            let ilen = get_u32(&mut bytes)? as usize;
            if bytes.remaining() < ilen {
                return None;
            }
            let index = FlatIndex::from_bytes(bytes.split_to(ilen))?;
            if index.len() != chunks.len() {
                return None;
            }
            match kind {
                RetrieverKind::OpenAiSim => AnyRetriever::Hashed(DenseRetriever::from_parts(
                    HashedEmbedder::read(&mut embedder_bytes)?,
                    index,
                )),
                RetrieverKind::Sbert => AnyRetriever::Sbert(DenseRetriever::from_parts(
                    SiameseEncoder::read(&mut embedder_bytes)?,
                    index,
                )),
                RetrieverKind::Dpr => AnyRetriever::Dpr(DenseRetriever::from_parts(
                    DualEncoder::read(&mut embedder_bytes)?,
                    index,
                )),
                RetrieverKind::Bm25 => return None,
            }
        } else {
            if kind != RetrieverKind::Bm25 {
                return None;
            }
            let mut bm25 = Bm25Retriever::new();
            bm25.index(&chunks);
            AnyRetriever::Bm25(bm25)
        };
        let scorer = if get_u8(&mut bytes)? == 1 {
            Some(CrossScorer::read(&mut bytes)?)
        } else {
            None
        };
        if bytes.has_remaining() {
            return None;
        }
        Some(RagSystem::from_parts(config, kind, chunks, retriever, scorer, profile))
    }

    /// Save the built system to a file, atomically and with an integrity
    /// trailer.
    ///
    /// The payload plus its CRC-32 trailer is written to `<path>.tmp`,
    /// fsynced, then renamed over `path`; the parent directory is fsynced
    /// best-effort so the rename itself is durable. A crash at any point
    /// leaves either the previous file or the complete new one.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        fsx::commit_bytes(path, &fsx::frame(&self.to_bytes()))
    }

    /// Load a system from a file saved by [`RagSystem::save`].
    ///
    /// Corruption surfaces as three distinct [`std::io::ErrorKind::InvalidData`]
    /// errors: `"missing SAGECRC1 trailer ..."` when the file is cut short
    /// or was never a SAGE file, `"checksum mismatch ..."` when the CRC-32
    /// trailer does not match the payload (torn write or bit rot),
    /// `"malformed ..."` when the payload itself fails to parse.
    pub fn load(path: &std::path::Path, profile: LlmProfile) -> std::io::Result<Self> {
        let raw = fsx::unframe(std::fs::read(path)?, "SAGE system file")?;
        Self::from_bytes(Bytes::from(raw), profile).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed SAGE system file")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsx::TRAILER_LEN;
    use crate::models::{TrainBudget, TrainedModels};
    use std::sync::OnceLock;

    fn models() -> &'static TrainedModels {
        static M: OnceLock<TrainedModels> = OnceLock::new();
        M.get_or_init(|| TrainedModels::train(TrainBudget::tiny()))
    }

    fn corpus() -> Vec<String> {
        vec![
            "Whiskers is a playful tabby cat. He has bright green eyes.\n\
             Dorinwick was well known in the region. He lives in Ashford.\n\
             The fog settled over the valley, as it had for many years."
                .to_string(),
        ]
    }

    fn roundtrip(kind: RetrieverKind) {
        let original = RagSystem::build(
            models(),
            kind,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
        let back = RagSystem::from_bytes(original.to_bytes(), LlmProfile::gpt4o_mini())
            .unwrap_or_else(|| panic!("{kind:?} roundtrip failed"));
        assert_eq!(original.chunks(), back.chunks());
        let q = "What is the color of Whiskers's eyes?";
        let a = original.answer_open(q);
        let b = back.answer_open(q);
        assert_eq!(a.answer.text, b.answer.text, "{kind:?} answers must match");
        assert_eq!(a.selected, b.selected, "{kind:?} selections must match");
    }

    #[test]
    fn roundtrip_every_retriever_kind() {
        for kind in RetrieverKind::all() {
            roundtrip(kind);
        }
    }

    #[test]
    fn file_roundtrip() {
        let system = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4(),
            &corpus(),
        );
        let path = std::env::temp_dir().join("sage_system_test.bin");
        system.save(&path).expect("save");
        let back = RagSystem::load(&path, LlmProfile::gpt4()).expect("load");
        assert_eq!(system.chunks().len(), back.chunks().len());
        // Atomic save leaves no scratch file behind.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::PathBuf::from(tmp).exists(), "tmp file must be renamed away");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_byte_on_disk_is_a_checksum_error() {
        let system = RagSystem::build(
            models(),
            RetrieverKind::Bm25,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
        let path = std::env::temp_dir().join("sage_system_crc_test.bin");
        system.save(&path).expect("save");
        let clean = std::fs::read(&path).expect("read back");
        // Flip one bit somewhere in the payload: load must fail with the
        // checksum error, not the generic malformed error.
        for pos in [0usize, clean.len() / 2, clean.len() - TRAILER_LEN - 1] {
            let mut torn = clean.clone();
            torn[pos] ^= 0x04;
            std::fs::write(&path, &torn).expect("write corrupt");
            let err = load_err(&path);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("checksum mismatch"),
                "flip at {pos}: expected checksum error, got: {err}"
            );
        }
        // Flip a bit inside the stored CRC itself: same story.
        let mut torn = clean.clone();
        let crc_pos = clean.len() - TRAILER_LEN;
        torn[crc_pos] ^= 0x01;
        std::fs::write(&path, &torn).expect("write corrupt");
        let err = load_err(&path);
        assert!(err.to_string().contains("checksum mismatch"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected_with_malformed_error() {
        let system = RagSystem::build(
            models(),
            RetrieverKind::Bm25,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
        let path = std::env::temp_dir().join("sage_system_trunc_test.bin");
        system.save(&path).expect("save");
        let clean = std::fs::read(&path).expect("read back");
        // Chop the trailer alone, then the trailer and part of the
        // payload: no SAGECRC1 suffix, so the CRC cannot be checked.
        for cut in [TRAILER_LEN, TRAILER_LEN + 7] {
            std::fs::write(&path, &clean[..clean.len() - cut]).expect("truncate");
            let err = load_err(&path);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("missing SAGECRC1 trailer"), "got: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_is_a_load_time_choice() {
        // Same saved corpus, different readers: both answer, and the
        // stronger profile's confidence is at least as high.
        let system = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4(),
            &corpus(),
        );
        let blob = system.to_bytes();
        let strong = RagSystem::from_bytes(blob.clone(), LlmProfile::gpt4()).unwrap();
        let weak = RagSystem::from_bytes(blob, LlmProfile::unifiedqa_3b()).unwrap();
        let q = "Where does Dorinwick live?";
        assert!(strong.answer_open(q).answer.text.contains("ashford"));
        assert!(!weak.answer_open(q).answer.text.is_empty());
    }

    #[test]
    fn malformed_rejected() {
        assert!(RagSystem::from_bytes(Bytes::from_static(b"junk"), LlmProfile::gpt4()).is_none());
        assert!(
            RagSystem::from_bytes(Bytes::from_static(b"SAGESYS1x"), LlmProfile::gpt4()).is_none()
        );
    }

    /// `Result::expect_err` needs `T: Debug`, which `RagSystem` does not
    /// implement; unwrap the error by hand.
    fn load_err(path: &std::path::Path) -> std::io::Error {
        match RagSystem::load(path, LlmProfile::gpt4o_mini()) {
            Ok(_) => panic!("corrupt file must not load"),
            Err(e) => e,
        }
    }

    /// Sampled positions across a blob: every early offset (headers and
    /// counts live there) plus an even spread over the payload.
    fn sample_positions(len: usize) -> Vec<usize> {
        let mut pos: Vec<usize> = (0..len.min(96)).collect();
        let stride = (len / 64).max(1);
        pos.extend((96..len).step_by(stride));
        pos
    }

    #[test]
    fn truncated_system_blobs_never_panic() {
        let system = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
        let blob = system.to_bytes();
        for cut in sample_positions(blob.len()) {
            // Any prefix must be rejected (or, never, accepted) without
            // panicking or allocating absurdly.
            let _ = RagSystem::from_bytes(blob.slice(..cut), LlmProfile::gpt4o_mini());
        }
        assert!(
            RagSystem::from_bytes(blob.slice(..blob.len() - 1), LlmProfile::gpt4o_mini())
                .is_none(),
            "one missing byte must not load"
        );
    }

    #[test]
    fn bit_flipped_system_blobs_never_panic() {
        let system = RagSystem::build(
            models(),
            RetrieverKind::Bm25,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
        let blob = system.to_bytes().to_vec();
        for pos in sample_positions(blob.len()) {
            for bit in [0, 3, 7] {
                let mut flipped = blob.clone();
                flipped[pos] ^= 1 << bit;
                // Must return (Some or None), never panic or abort.
                let _ = RagSystem::from_bytes(Bytes::from(flipped), LlmProfile::gpt4o_mini());
            }
        }
    }

    #[test]
    fn corrupted_model_blobs_never_panic() {
        // The model blob is megabytes of floats; sample sparsely (headers
        // densely, payload at a few offsets) to keep the test fast.
        let blob = models().to_bytes();
        let mut positions: Vec<usize> = (0..64.min(blob.len())).collect();
        positions.extend((64..blob.len()).step_by((blob.len() / 8).max(1)));
        for &cut in &positions {
            let _ = TrainedModels::from_bytes(blob.slice(..cut));
        }
        let raw = blob.to_vec();
        for &pos in &positions {
            let mut flipped = raw.clone();
            flipped[pos] ^= 0x10;
            let _ = TrainedModels::from_bytes(Bytes::from(flipped));
        }
        assert!(TrainedModels::from_bytes(blob.slice(..blob.len() / 2)).is_none());
    }

    #[test]
    fn hostile_counts_are_rejected_without_allocation() {
        // A header that claims u32::MAX chunks backed by no data: the
        // count guard must reject it before `Vec::with_capacity` runs.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        write_config(&SageConfig::sage(), &mut buf);
        buf.put_u8(3); // RetrieverKind::Bm25
        buf.put_u32_le(u32::MAX); // hostile chunk count
        assert!(RagSystem::from_bytes(buf.freeze(), LlmProfile::gpt4o_mini()).is_none());
    }

    #[test]
    fn scorer_embedder_width_is_not_read_from_the_blob() {
        // The scorer is the blob's tail: MLP ‖ embedder (dim u32, seed u64)
        // ‖ IDF table. A patched dim would size every embedding the loaded
        // scorer makes (2²⁸ floats is 1 GiB per text), so only the width
        // `CrossScorer::new` uses may load.
        let system = RagSystem::build(
            models(),
            RetrieverKind::Bm25,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus(),
        );
        let blob = system.to_bytes().to_vec();
        let mut fitted = BytesMut::new();
        system.scorer_ref().expect("the sage config fits a scorer").write(&mut fitted);
        // An unfitted scorer ends in its 12-byte embedder and an empty IDF
        // table (two zero counts), which locates the end of the MLP.
        let mut unfitted = BytesMut::new();
        models().scorer.write(&mut unfitted);
        let dim_at = blob.len() - fitted.len() + unfitted.len() - 20;
        assert_eq!(blob[dim_at..dim_at + 4], 256u32.to_le_bytes());
        for dim in [1u32 << 28, u32::MAX, 255, 257, 0] {
            let mut patched = blob.clone();
            patched[dim_at..dim_at + 4].copy_from_slice(&dim.to_le_bytes());
            assert!(
                RagSystem::from_bytes(Bytes::from(patched), LlmProfile::gpt4o_mini()).is_none(),
                "dim {dim} must not load"
            );
        }
        assert!(RagSystem::from_bytes(Bytes::from(blob), LlmProfile::gpt4o_mini()).is_some());
    }

    #[test]
    fn config_roundtrip() {
        let cfg = SageConfig { min_k: 3, gradient: 0.42, use_feedback: false, ..SageConfig::sage() };
        let mut buf = BytesMut::new();
        write_config(&cfg, &mut buf);
        let back = read_config(&mut buf.freeze()).expect("config");
        assert_eq!(cfg, back);
    }
}
