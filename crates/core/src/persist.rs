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
//! payload. A file without the trailer — cut short, or written before the
//! trailer existed — does not load: [`fsx::unframe`] reports it as a
//! missing trailer, the third distinct error.

use crate::config::{RetrieverKind, SageConfig};
use crate::fsx;
use crate::pipeline::{AnyRetriever, RagSystem};
use sage_embed::Embedder;
use sage_llm::LlmProfile;
use sage_nn::io::{put_f32, put_string, put_u32, Reader};
use sage_nn::BytesSerialize;
use sage_rerank::CrossScorer;
use sage_retrieval::DenseRetriever;
use sage_vecdb::{FlatIndex, VectorIndex};

const MAGIC: &[u8; 8] = b"SAGESYS1";

fn write_config(cfg: &SageConfig, buf: &mut Vec<u8>) {
    put_f32(buf, cfg.segmentation_threshold);
    put_u32(buf, cfg.coarse_tokens as u32);
    put_u32(buf, cfg.min_k as u32);
    put_f32(buf, cfg.gradient);
    buf.push(cfg.feedback_threshold);
    put_u32(buf, cfg.max_feedback_rounds as u32);
    put_u32(buf, cfg.candidates as u32);
    buf.push(u8::from(cfg.use_segmentation));
    buf.push(u8::from(cfg.use_rerank));
    buf.push(u8::from(cfg.use_selection));
    buf.push(u8::from(cfg.use_feedback));
    put_u32(buf, cfg.naive_chunk_tokens as u32);
}

/// Fields in the order [`write_config`] puts them.
fn read_config(r: &mut Reader<'_>) -> Option<SageConfig> {
    Some(SageConfig {
        segmentation_threshold: r.f32()?,
        coarse_tokens: r.u32()? as usize,
        min_k: r.u32()? as usize,
        gradient: r.f32()?,
        feedback_threshold: r.u8()?,
        max_feedback_rounds: r.u32()? as usize,
        candidates: r.u32()? as usize,
        use_segmentation: r.u8()? != 0,
        use_rerank: r.u8()? != 0,
        use_selection: r.u8()? != 0,
        use_feedback: r.u8()? != 0,
        naive_chunk_tokens: r.u32()? as usize,
    })
}

/// A dense retriever from its two persisted blobs. The embedder makes the
/// queries and the index holds the rows, so their widths must agree: a
/// search with any other query length panics.
fn dense<E: Embedder + BytesSerialize>(
    embedder: &[u8],
    index: FlatIndex,
) -> Option<DenseRetriever<E>> {
    let embedder = E::from_bytes(embedder)?;
    if !index.is_empty() && embedder.dim() != index.dim() {
        return None;
    }
    Some(DenseRetriever::from_parts(embedder, index))
}

impl RagSystem {
    /// Serialize the built system (without the LLM profile).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        write_config(self.config(), &mut buf);
        buf.push(match self.retriever_kind() {
            RetrieverKind::OpenAiSim => 0,
            RetrieverKind::Sbert => 1,
            RetrieverKind::Dpr => 2,
            RetrieverKind::Bm25 => 3,
        });
        // Chunk store.
        put_u32(&mut buf, self.chunks().len() as u32);
        for chunk in self.chunks() {
            put_string(&mut buf, chunk);
        }
        // Dense state: embedder + index blob (skipped for BM25, which
        // rebuilds from the chunk store on load).
        match self.dense_state() {
            Some((embedder_bytes, index)) => {
                buf.push(1);
                for blob in [embedder_bytes, index.to_bytes()] {
                    put_u32(&mut buf, blob.len() as u32);
                    buf.extend_from_slice(&blob);
                }
            }
            None => buf.push(0),
        }
        // Fitted scorer.
        match self.scorer_ref() {
            Some(scorer) => {
                buf.push(1);
                scorer.write(&mut buf);
            }
            None => buf.push(0),
        }
        buf
    }

    /// Deserialize a system saved by [`RagSystem::to_bytes`], binding it to
    /// the given reader profile.
    pub fn from_bytes(bytes: &[u8], profile: LlmProfile) -> Option<Self> {
        let mut r = Reader::new(bytes);
        r.magic(MAGIC)?;
        let config = read_config(&mut r)?;
        let kind = match r.u8()? {
            0 => RetrieverKind::OpenAiSim,
            1 => RetrieverKind::Sbert,
            2 => RetrieverKind::Dpr,
            3 => RetrieverKind::Bm25,
            _ => return None,
        };
        // Every chunk is at least its 4-byte length prefix.
        let n = r.count(4)?;
        let mut chunks = Vec::with_capacity(n);
        for _ in 0..n {
            chunks.push(r.string()?);
        }
        let retriever: AnyRetriever = if r.u8()? == 1 {
            let embedder = r.blob()?;
            let index = FlatIndex::from_bytes(r.blob()?)?;
            if index.len() != chunks.len() {
                return None;
            }
            match kind {
                RetrieverKind::OpenAiSim => AnyRetriever::Hashed(dense(embedder, index)?),
                RetrieverKind::Sbert => AnyRetriever::Sbert(dense(embedder, index)?),
                RetrieverKind::Dpr => AnyRetriever::Dpr(dense(embedder, index)?),
                RetrieverKind::Bm25 => return None,
            }
        } else {
            if kind != RetrieverKind::Bm25 {
                return None;
            }
            AnyRetriever::Bm25(crate::indexing::bm25_on_every_core(&chunks))
        };
        let scorer = if r.u8()? == 1 { Some(CrossScorer::read(&mut r)?) } else { None };
        r.finish()?;
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
        Self::from_bytes(&raw, profile).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed SAGE system file")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsx::TRAILER_LEN;
    use crate::pipeline::Request;
    use crate::models::{tiny_models as models, TrainedModels};
    use sage_embed::{DualEncoder, HashedEmbedder, SiameseEncoder};

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
        let back = RagSystem::from_bytes(&original.to_bytes(), LlmProfile::gpt4o_mini())
            .unwrap_or_else(|| panic!("{kind:?} roundtrip failed"));
        assert_eq!(original.chunks(), back.chunks());
        let q = "What is the color of Whiskers's eyes?";
        let a = original.answer(&Request::new(q)).unwrap();
        let b = back.answer(&Request::new(q)).unwrap();
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
    fn truncated_file_is_rejected_with_missing_trailer_error() {
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
        let strong = RagSystem::from_bytes(&blob, LlmProfile::gpt4()).unwrap();
        let weak = RagSystem::from_bytes(&blob, LlmProfile::unifiedqa_3b()).unwrap();
        let q = "Where does Dorinwick live?";
        assert!(strong.answer(&Request::new(q)).unwrap().answer.text.contains("ashford"));
        assert!(!weak.answer(&Request::new(q)).unwrap().answer.text.is_empty());
    }

    #[test]
    fn malformed_rejected() {
        assert!(RagSystem::from_bytes(b"junk", LlmProfile::gpt4()).is_none());
        assert!(RagSystem::from_bytes(b"SAGESYS1x", LlmProfile::gpt4()).is_none());
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
            let _ = RagSystem::from_bytes(&blob[..cut], LlmProfile::gpt4o_mini());
        }
        assert!(
            RagSystem::from_bytes(&blob[..blob.len() - 1], LlmProfile::gpt4o_mini()).is_none(),
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
        let blob = system.to_bytes();
        for pos in sample_positions(blob.len()) {
            for bit in [0, 3, 7] {
                let mut flipped = blob.clone();
                flipped[pos] ^= 1 << bit;
                // Must return (Some or None), never panic or abort.
                let _ = RagSystem::from_bytes(&flipped, LlmProfile::gpt4o_mini());
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
            let _ = TrainedModels::from_bytes(&blob[..cut]);
        }
        for &pos in &positions {
            let mut flipped = blob.clone();
            flipped[pos] ^= 0x10;
            let _ = TrainedModels::from_bytes(&flipped);
        }
        assert!(TrainedModels::from_bytes(&blob[..blob.len() / 2]).is_none());
    }

    #[test]
    fn hostile_counts_are_rejected_without_allocation() {
        // A header that claims u32::MAX chunks backed by no data: the
        // count guard must reject it before `Vec::with_capacity` runs.
        let mut buf = MAGIC.to_vec();
        write_config(&SageConfig::sage(), &mut buf);
        buf.push(3); // RetrieverKind::Bm25
        put_u32(&mut buf, u32::MAX); // hostile chunk count
        assert!(RagSystem::from_bytes(&buf, LlmProfile::gpt4o_mini()).is_none());
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
        let blob = system.to_bytes();
        let fitted = system.scorer_ref().expect("the sage config fits a scorer").to_bytes();
        // An unfitted scorer ends in its 12-byte embedder and an empty IDF
        // table (two zero counts), which locates the end of the MLP.
        let unfitted = models().scorer.to_bytes();
        let dim_at = blob.len() - fitted.len() + unfitted.len() - 20;
        assert_eq!(blob[dim_at..dim_at + 4], 256u32.to_le_bytes());
        for dim in [1u32 << 28, u32::MAX, 255, 257, 0] {
            let mut patched = blob.clone();
            patched[dim_at..dim_at + 4].copy_from_slice(&dim.to_le_bytes());
            assert!(
                RagSystem::from_bytes(&patched, LlmProfile::gpt4o_mini()).is_none(),
                "dim {dim} must not load"
            );
        }
        assert!(RagSystem::from_bytes(&blob, LlmProfile::gpt4o_mini()).is_some());
    }

    #[test]
    fn dense_embedder_width_must_match_the_index_rows() {
        // Chunk store ‖ 1 ‖ elen ‖ embedder ‖ ilen ‖ index ‖ scorer: every
        // dense embedder blob leads with a u32 that sets (hashed) or must
        // agree with (siamese, dual: the bucket count) what it embeds into.
        // A hashed width other than the index's rows used to load and then
        // panic the first search with "query dim mismatch".
        let build = |kind| {
            RagSystem::build(models(), kind, SageConfig::sage(), LlmProfile::gpt4o_mini(), &corpus())
        };
        let system = build(RetrieverKind::OpenAiSim);
        let blob = system.to_bytes();
        let (embedder, index) = system.dense_state().expect("dense");
        let tail = index.to_bytes().len() + 4 + system.scorer_ref().expect("fitted").to_bytes().len() + 1;
        let dim_at = blob.len() - tail - embedder.len();
        assert_eq!(blob[dim_at..dim_at + 4], 256u32.to_le_bytes());
        for dim in [255u32, 257, 1, u32::MAX] {
            let mut patched = blob.clone();
            patched[dim_at..dim_at + 4].copy_from_slice(&dim.to_le_bytes());
            assert!(
                RagSystem::from_bytes(&patched, LlmProfile::gpt4o_mini()).is_none(),
                "hashed dim {dim} over 256-wide rows must not load"
            );
        }
        // All three dense kinds go through the one check: a trained
        // encoder is as wide as its table (48), so neither loads over these
        // 256-wide rows; an empty index has no width to disagree with.
        let rows = || index.clone();
        assert!(dense::<SiameseEncoder>(&models().siamese.to_bytes(), rows()).is_none());
        assert!(dense::<DualEncoder>(&models().dual.to_bytes(), rows()).is_none());
        assert!(dense::<HashedEmbedder>(&embedder, rows()).is_some());
        assert!(dense::<DualEncoder>(&models().dual.to_bytes(), FlatIndex::cosine()).is_some());
    }

    #[test]
    fn config_roundtrip() {
        let cfg = SageConfig { min_k: 3, gradient: 0.42, use_feedback: false, ..SageConfig::sage() };
        let mut buf = Vec::new();
        write_config(&cfg, &mut buf);
        let back = read_config(&mut Reader::new(&buf)).expect("config");
        assert_eq!(cfg, back);
    }
}
