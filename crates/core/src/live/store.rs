//! On-disk format and recovery scan of the live-corpus store.
//!
//! A store directory holds:
//!
//! * `seg-<epoch>.sageseg` — one file per committed epoch carrying the
//!   *operations* of that epoch's batch (magic `SAGESEG1`), not derived
//!   state: recovery replays them through the same deterministic apply
//!   code the live writer uses, so replayed and live state are
//!   bit-identical.
//! * `MANIFEST.sageman` — the commit record (magic `SAGEMAN1`): the last
//!   committed epoch, the store's [`LiveConfig`], and for every committed
//!   segment its epoch, framed length, and CRC-32. The manifest is
//!   rewritten atomically *after* the segment is durable, so a crash
//!   between the two leaves an orphaned segment the manifest never
//!   mentions — recovery discards it.
//!
//! Both file kinds carry the shared [`crate::fsx`] `SAGECRC1` trailer and
//! go through the tmp+fsync+rename commit protocol. The recovery scan
//! ([`recover`]) verifies every manifest-listed segment against its
//! recorded length and checksum (a mismatch is corruption, not a crash —
//! the manifest only ever names durable segments), replays them in epoch
//! order, and deletes stray `.tmp` scratch files and unlisted segments.

use super::{LiveConfig, LiveError, LiveOp, LiveRetrieverKind, LiveState};
use sage_nn::io::{put_string, put_u32, put_u64, Reader};
use std::collections::BTreeSet;
use std::path::Path;

/// Header magic of a segment file.
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"SAGESEG1";

/// Header magic of the manifest.
pub(crate) const MANIFEST_MAGIC: &[u8; 8] = b"SAGEMAN1";

/// Manifest file name inside a store directory.
pub(crate) const MANIFEST_NAME: &str = "MANIFEST.sageman";

/// File-name extension of segment files.
const SEGMENT_EXT: &str = ".sageseg";

/// One committed segment as the manifest records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentEntry {
    /// The epoch this segment produced.
    pub epoch: u64,
    /// Length of the framed file in bytes.
    pub len: u64,
    /// CRC-32 of the framed file bytes.
    pub crc: u32,
}

/// What [`recover`] found and did while reopening a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The last committed epoch the store recovered to (0 = fresh store).
    pub epoch: u64,
    /// Manifest-listed segments verified and replayed.
    pub segments_replayed: usize,
    /// Stray files deleted: `.tmp` scratch files from torn commits and
    /// segments the manifest never committed.
    pub orphans_discarded: usize,
}

pub(crate) struct Recovered {
    pub segments: Vec<SegmentEntry>,
    pub report: RecoveryReport,
}

/// File name of the segment committing `epoch`.
pub(crate) fn segment_name(epoch: u64) -> String {
    format!("seg-{epoch:06}{SEGMENT_EXT}")
}

/// Encode one epoch's op batch (unframed payload).
pub(crate) fn encode_segment(epoch: u64, ops: &[LiveOp]) -> Vec<u8> {
    let mut buf = SEGMENT_MAGIC.to_vec();
    put_u64(&mut buf, epoch);
    put_u32(&mut buf, ops.len() as u32);
    for op in ops {
        match op {
            LiveOp::Upsert { doc_id, text } => {
                buf.push(0);
                put_string(&mut buf, doc_id);
                put_string(&mut buf, text);
            }
            LiveOp::Delete { doc_id } => {
                buf.push(1);
                put_string(&mut buf, doc_id);
            }
        }
    }
    buf
}

/// Decode a segment payload; `None` on malformed input.
pub(crate) fn decode_segment(payload: &[u8]) -> Option<(u64, Vec<LiveOp>)> {
    let mut r = Reader::new(payload);
    r.magic(SEGMENT_MAGIC)?;
    let epoch = r.u64()?;
    // The smallest op is a tag and one length-prefixed string.
    let count = r.count(5)?;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let op = match r.u8()? {
            0 => LiveOp::Upsert { doc_id: r.string()?, text: r.string()? },
            1 => LiveOp::Delete { doc_id: r.string()? },
            _ => return None,
        };
        ops.push(op);
    }
    r.finish()?;
    Some((epoch, ops))
}

/// Encode the manifest (unframed payload).
pub(crate) fn encode_manifest(epoch: u64, cfg: &LiveConfig, segments: &[SegmentEntry]) -> Vec<u8> {
    let mut buf = MANIFEST_MAGIC.to_vec();
    put_u64(&mut buf, epoch);
    buf.push(match cfg.retriever {
        LiveRetrieverKind::Hashed => 0,
        LiveRetrieverKind::HashedHnsw => 1,
        LiveRetrieverKind::Bm25 => 2,
    });
    put_u32(&mut buf, cfg.segment_tokens as u32);
    put_u32(&mut buf, cfg.embed_dim as u32);
    put_u64(&mut buf, cfg.embed_seed);
    put_u64(&mut buf, cfg.compact_dead_fraction.to_bits());
    put_u32(&mut buf, cfg.compact_min_dead as u32);
    put_u32(&mut buf, segments.len() as u32);
    for seg in segments {
        put_u64(&mut buf, seg.epoch);
        put_u64(&mut buf, seg.len);
        put_u32(&mut buf, seg.crc);
    }
    buf
}

/// Decode a manifest payload; `None` on malformed input.
pub(crate) fn decode_manifest(payload: &[u8]) -> Option<(u64, LiveConfig, Vec<SegmentEntry>)> {
    let mut r = Reader::new(payload);
    r.magic(MANIFEST_MAGIC)?;
    let epoch = r.u64()?;
    let retriever = match r.u8()? {
        0 => LiveRetrieverKind::Hashed,
        1 => LiveRetrieverKind::HashedHnsw,
        2 => LiveRetrieverKind::Bm25,
        _ => return None,
    };
    let cfg = LiveConfig {
        retriever,
        segment_tokens: r.u32()? as usize,
        embed_dim: r.u32()? as usize,
        embed_seed: r.u64()?,
        compact_dead_fraction: f64::from_bits(r.u64()?),
        compact_min_dead: r.u32()? as usize,
    };
    // Each entry is 20 bytes.
    let count = r.count(20)?;
    let mut segments = Vec::with_capacity(count);
    for _ in 0..count {
        segments.push(SegmentEntry { epoch: r.u64()?, len: r.u64()?, crc: r.u32()? });
    }
    r.finish()?;
    Some((epoch, cfg, segments))
}

/// Reopen the store at `dir`: verify and replay manifest-listed segments
/// into `state`, delete torn/orphaned files, and fail loudly on anything
/// the manifest promised but the disk cannot deliver.
pub(crate) fn recover(
    dir: &Path,
    state: &mut LiveState,
    cfg: &LiveConfig,
) -> Result<Recovered, LiveError> {
    let manifest_path = dir.join(MANIFEST_NAME);
    let (manifest_epoch, segments) = if manifest_path.exists() {
        let raw = std::fs::read(&manifest_path)?;
        let payload = crate::fsx::unframe(raw, "live-store manifest").map_err(corrupt)?;
        let (epoch, stored_cfg, segments) =
            decode_manifest(&payload).ok_or_else(|| LiveError::Corrupt(
                "live-store manifest is malformed".to_string(),
            ))?;
        if stored_cfg != *cfg {
            return Err(LiveError::Corrupt(format!(
                "live store was created with a different config \
                 (stored retriever {}, requested {})",
                stored_cfg.retriever.label(),
                cfg.retriever.label()
            )));
        }
        (epoch, segments)
    } else {
        (0, Vec::new())
    };

    // Verify then replay every committed segment, in the order the
    // manifest committed them.
    let mut listed: BTreeSet<String> = BTreeSet::new();
    for seg in &segments {
        let name = segment_name(seg.epoch);
        let path = dir.join(&name);
        let framed = std::fs::read(&path).map_err(|e| {
            LiveError::Corrupt(format!("manifest lists segment {name} but it is unreadable: {e}"))
        })?;
        if framed.len() as u64 != seg.len || crate::fsx::crc32(&framed) != seg.crc {
            return Err(LiveError::Corrupt(format!(
                "segment {name} does not match its manifest record \
                 ({} bytes vs {} recorded)",
                framed.len(),
                seg.len
            )));
        }
        let payload = crate::fsx::unframe(framed, "live segment").map_err(corrupt)?;
        let (epoch, ops) = decode_segment(&payload)
            .ok_or_else(|| LiveError::Corrupt(format!("segment {name} is malformed")))?;
        if epoch != seg.epoch {
            return Err(LiveError::Corrupt(format!(
                "segment {name} claims epoch {epoch}, manifest recorded {}",
                seg.epoch
            )));
        }
        state.apply_batch(epoch, &ops, cfg);
        listed.insert(name);
    }
    if state.epoch != manifest_epoch {
        return Err(LiveError::Corrupt(format!(
            "replay reached epoch {} but the manifest committed epoch {manifest_epoch}",
            state.epoch
        )));
    }

    // Discard what no committed epoch owns: scratch files from torn
    // commits and segments whose manifest rewrite never happened. They
    // were never served and never will be.
    let mut orphans = 0;
    for entry in std::fs::read_dir(dir)? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name().to_string_lossy().into_owned();
        let torn_tmp = name.ends_with(".tmp");
        let orphan_segment = name.ends_with(SEGMENT_EXT) && !listed.contains(&name);
        if torn_tmp || orphan_segment {
            std::fs::remove_file(entry.path())?;
            orphans += 1;
        }
    }

    Ok(Recovered {
        segments,
        report: RecoveryReport {
            epoch: manifest_epoch,
            segments_replayed: listed.len(),
            orphans_discarded: orphans,
        },
    })
}

fn corrupt(e: std::io::Error) -> LiveError {
    LiveError::Corrupt(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::CorpusWriter;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sage_live_store_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn segment_roundtrip() {
        let ops = vec![
            LiveOp::Upsert { doc_id: "a".into(), text: "Some text. More text.".into() },
            LiveOp::Delete { doc_id: "b".into() },
            LiveOp::Upsert { doc_id: "c".into(), text: String::new() },
        ];
        let (epoch, back) = decode_segment(&encode_segment(42, &ops)).expect("roundtrip");
        assert_eq!(epoch, 42);
        assert_eq!(back, ops);
    }

    #[test]
    fn segment_rejects_malformed_input() {
        assert!(decode_segment(b"garbage").is_none());
        assert!(decode_segment(b"").is_none());
        // Wrong op tag (behind enough bytes for the count to pass).
        let mut buf = encode_segment(1, &[LiveOp::Delete { doc_id: "x".into() }]);
        buf[20] = 9;
        assert!(decode_segment(&buf).is_none());
        // Hostile count with no payload behind it.
        let mut buf = encode_segment(1, &[]);
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_segment(&buf).is_none());
        // Trailing bytes are an error.
        let mut ok = encode_segment(1, &[LiveOp::Delete { doc_id: "x".into() }]);
        ok.push(0xFF);
        assert!(decode_segment(&ok).is_none());
    }

    #[test]
    fn manifest_roundtrip() {
        let cfg = LiveConfig { retriever: LiveRetrieverKind::Bm25, ..LiveConfig::default() };
        let segments = vec![
            SegmentEntry { epoch: 1, len: 120, crc: 0xDEAD_BEEF },
            SegmentEntry { epoch: 2, len: 64, crc: 7 },
        ];
        let (epoch, back_cfg, back) =
            decode_manifest(&encode_manifest(2, &cfg, &segments)).expect("roundtrip");
        assert_eq!(epoch, 2);
        assert_eq!(back_cfg, cfg);
        assert_eq!(back, segments);
        assert!(decode_manifest(b"junk").is_none());
    }

    #[test]
    fn truncated_listed_segment_is_corruption_not_silence() {
        let dir = scratch("truncated");
        let cfg = LiveConfig::default();
        let (mut w, _) = CorpusWriter::open(&dir, cfg).unwrap();
        w.commit(&[LiveOp::Upsert { doc_id: "d".into(), text: "One sentence here.".into() }])
            .unwrap();
        drop(w);
        // Truncate the committed segment behind the manifest's back.
        let seg = dir.join(segment_name(1));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        match CorpusWriter::open(&dir, cfg) {
            Err(LiveError::Corrupt(msg)) => {
                assert!(msg.contains("does not match its manifest record"), "{msg}");
            }
            other => panic!("expected corruption error, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_config_is_rejected_on_reopen() {
        let dir = scratch("config");
        let (mut w, _) = CorpusWriter::open(&dir, LiveConfig::default()).unwrap();
        w.commit(&[LiveOp::Upsert { doc_id: "d".into(), text: "One sentence.".into() }]).unwrap();
        drop(w);
        let other = LiveConfig { retriever: LiveRetrieverKind::Bm25, ..LiveConfig::default() };
        match CorpusWriter::open(&dir, other) {
            Err(LiveError::Corrupt(msg)) => assert!(msg.contains("different config"), "{msg}"),
            other => panic!("expected config mismatch, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_files_are_discarded_on_open() {
        let dir = scratch("strays");
        let cfg = LiveConfig::default();
        let (mut w, _) = CorpusWriter::open(&dir, cfg).unwrap();
        w.commit(&[LiveOp::Upsert { doc_id: "d".into(), text: "Keep me around.".into() }])
            .unwrap();
        drop(w);
        // A torn tmp and an orphaned (never-manifested) segment.
        std::fs::write(dir.join("seg-000002.sageseg.tmp"), b"torn").unwrap();
        std::fs::write(dir.join(segment_name(9)), b"orphan").unwrap();
        let (w, rec) = CorpusWriter::open(&dir, cfg).unwrap();
        assert_eq!(rec.epoch, 1);
        assert_eq!(rec.orphans_discarded, 2);
        assert!(!dir.join("seg-000002.sageseg.tmp").exists());
        assert!(!dir.join(segment_name(9)).exists());
        assert_eq!(w.epoch(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
