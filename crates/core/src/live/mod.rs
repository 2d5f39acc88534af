//! Live-corpus mutation with epoch snapshots and crash recovery.
//!
//! Everything else in the reproduction is build-once-serve-forever; this
//! module makes the corpus *churn* safely. A single-writer
//! [`CorpusWriter`] applies batches of document [`LiveOp`]s — upsert and
//! delete — and commits each batch as one **epoch**:
//!
//! * only *dirty* documents are re-segmented (an upsert whose
//!   [`sage_segment::fingerprint`] matches the stored one is a no-op);
//! * vector inserts go to a [`MutableIndex`] (an exact flat index with
//!   tombstones) and BM25 postings are appended incrementally, so commit
//!   cost scales with the batch, not the corpus;
//! * deletes and updates tombstone old chunks; a deterministic compaction
//!   policy (dead fraction ≥ threshold) purges them by rebuilding the
//!   indexes over the survivors;
//! * readers hold [`LiveSnapshot`]s — cheap `Arc` clones of the state —
//!   that stay internally consistent while the writer advances
//!   (copy-on-write via `Arc::make_mut`).
//!
//! Durability: each commit appends one segment file (the op batch, framed
//! with the shared [`crate::fsx`] CRC-32 trailer and committed
//! tmp+fsync+rename), then atomically rewrites a manifest naming every
//! committed segment. Recovery replays the manifest's segments through the
//! same deterministic apply code, discards torn or orphaned files, and
//! provably lands on the last committed epoch — under deterministic
//! crash-point injection ([`sage_resilience::CrashPlan`]) at all five
//! write barriers, which the [`soak`] harness drills continuously.

pub mod soak;
pub(crate) mod store;

pub use soak::{run_live_soak, LiveSoakConfig, LiveSoakReport};
pub use store::RecoveryReport;

use sage_embed::{Embedder, HashedEmbedder};
use sage_resilience::{CrashPlan, CrashPoint};
use sage_retrieval::{Bm25Retriever, Retriever};
use sage_segment::{Segmenter, SentenceSegmenter};
use sage_telemetry::metrics;
use sage_telemetry::{Telemetry, Trace};
use sage_text::ngram::Fnv1a;
use sage_vecdb::{MutableIndex, VectorIndex};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Which retriever the live store maintains. Both are model-free and
/// fully deterministic, so recovery replay reconstructs bit-identical
/// state without trained weights on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveRetrieverKind {
    /// Hashed embedder over an exact flat arena.
    Hashed,
    /// BM25 inverted index with delta postings.
    Bm25,
}

impl LiveRetrieverKind {
    /// Parse a CLI token ("hashed" | "bm25").
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hashed" | "flat" => Some(Self::Hashed),
            "bm25" => Some(Self::Bm25),
            _ => None,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Hashed => "hashed",
            Self::Bm25 => "bm25",
        }
    }
}

/// Configuration of the live store. Persisted in the manifest so a store
/// always reopens with the geometry it was created with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// Retriever maintained by the writer.
    pub retriever: LiveRetrieverKind,
    /// Sentence-segmenter token budget per chunk.
    pub segment_tokens: usize,
    /// Hashed-embedder dimensionality (dense retrievers).
    pub embed_dim: usize,
    /// Hashed-embedder seed (dense retrievers).
    pub embed_seed: u64,
    /// Compact when the dead fraction reaches this threshold…
    pub compact_dead_fraction: f64,
    /// …and at least this many chunks are dead.
    pub compact_min_dead: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            retriever: LiveRetrieverKind::Hashed,
            segment_tokens: 64,
            embed_dim: 256,
            embed_seed: 0x0A1,
            compact_dead_fraction: 0.3,
            compact_min_dead: 8,
        }
    }
}

/// One corpus mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveOp {
    /// Add a document or replace its text (no-op when the text is
    /// unchanged — the dirty-document fingerprint check).
    Upsert {
        /// Stable document identifier.
        doc_id: String,
        /// Full document text.
        text: String,
    },
    /// Remove a document (no-op when absent).
    Delete {
        /// Stable document identifier.
        doc_id: String,
    },
}

/// Errors from the live store.
#[derive(Debug)]
pub enum LiveError {
    /// A [`CrashPlan`] fired at a write barrier: the commit was abandoned
    /// with the disk exactly as a real crash would leave it. The store's
    /// durable state is still the previous epoch; reopen to recover.
    CrashInjected(CrashPoint),
    /// An I/O failure outside injected crashes.
    Io(std::io::Error),
    /// The on-disk store is unusable: a manifest-listed segment is
    /// missing, torn, or inconsistent with the manifest.
    Corrupt(String),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::CrashInjected(p) => write!(f, "crash injected at {p} barrier"),
            LiveError::Io(e) => write!(f, "live store i/o: {e}"),
            LiveError::Corrupt(msg) => write!(f, "live store corrupt: {msg}"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<std::io::Error> for LiveError {
    fn from(e: std::io::Error) -> Self {
        LiveError::Io(e)
    }
}

/// What one committed epoch did, for logs and telemetry reconciliation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReport {
    /// The epoch this commit produced.
    pub epoch: u64,
    /// Documents upserted with changed (or new) text.
    pub docs_upserted: usize,
    /// Upserts skipped because the fingerprint was unchanged.
    pub clean_upserts: usize,
    /// Documents deleted (that existed).
    pub docs_deleted: usize,
    /// Chunks segmented, embedded, and indexed by this commit.
    pub chunks_indexed: usize,
    /// Chunks tombstoned by this commit's updates and deletes.
    pub tombstones: usize,
    /// Whether the deterministic compaction policy fired after applying.
    pub compacted: bool,
}

#[derive(Debug, Clone)]
struct ChunkSlot {
    text: String,
    doc: String,
    live: bool,
}

#[derive(Debug, Clone)]
struct DocMeta {
    fingerprint: u64,
    chunks: Vec<u32>,
}

#[derive(Debug, Clone)]
enum LiveIndex {
    Dense { embedder: HashedEmbedder, index: Box<MutableIndex> },
    Bm25(Box<Bm25Retriever>),
}

/// The in-memory state one epoch describes. Cloned lazily: snapshots pin
/// an `Arc` of it, and the writer copies-on-write only while a snapshot
/// is held.
#[derive(Debug, Clone)]
pub(crate) struct LiveState {
    epoch: u64,
    docs: BTreeMap<String, DocMeta>,
    chunks: Vec<ChunkSlot>,
    dead: usize,
    index: LiveIndex,
}

impl LiveState {
    fn new(cfg: &LiveConfig) -> Self {
        let index = match cfg.retriever {
            LiveRetrieverKind::Hashed => LiveIndex::Dense {
                embedder: HashedEmbedder::new(cfg.embed_dim.max(1), cfg.embed_seed),
                index: Box::new(MutableIndex::cosine()),
            },
            LiveRetrieverKind::Bm25 => LiveIndex::Bm25(Box::new(Bm25Retriever::new())),
        };
        Self { epoch: 0, docs: BTreeMap::new(), chunks: Vec::new(), dead: 0, index }
    }

    /// Apply one op batch, advance to `epoch`, then run the deterministic
    /// compaction policy. Identical inputs produce identical state — this
    /// is the function both live commits and recovery replay go through.
    fn apply_batch(&mut self, epoch: u64, ops: &[LiveOp], cfg: &LiveConfig) -> CommitReport {
        let mut report = CommitReport {
            epoch,
            docs_upserted: 0,
            clean_upserts: 0,
            docs_deleted: 0,
            chunks_indexed: 0,
            tombstones: 0,
            compacted: false,
        };
        for op in ops {
            match op {
                LiveOp::Upsert { doc_id, text } => {
                    let fp = sage_segment::fingerprint(text);
                    if self.docs.get(doc_id).is_some_and(|m| m.fingerprint == fp) {
                        report.clean_upserts += 1;
                        continue;
                    }
                    report.tombstones += self.tombstone_doc(doc_id);
                    let segmenter = SentenceSegmenter { max_tokens: cfg.segment_tokens.max(1) };
                    let mut ids = Vec::new();
                    for chunk in segmenter.segment(text) {
                        let id = match &mut self.index {
                            LiveIndex::Dense { embedder, index } => {
                                index.add(embedder.embed(&chunk))
                            }
                            LiveIndex::Bm25(r) => r.push_live_chunk(&chunk),
                        };
                        self.chunks.push(ChunkSlot {
                            text: chunk,
                            doc: doc_id.clone(),
                            live: true,
                        });
                        ids.push(id as u32);
                    }
                    report.chunks_indexed += ids.len();
                    report.docs_upserted += 1;
                    self.docs.insert(doc_id.clone(), DocMeta { fingerprint: fp, chunks: ids });
                }
                LiveOp::Delete { doc_id } => {
                    if self.docs.contains_key(doc_id) {
                        report.tombstones += self.tombstone_doc(doc_id);
                        self.docs.remove(doc_id);
                        report.docs_deleted += 1;
                    }
                }
            }
        }
        self.epoch = epoch;
        report.compacted = self.maybe_compact(cfg);
        report
    }

    /// Tombstone every chunk of `doc_id` (in both the slot table and the
    /// index), returning how many were newly tombstoned.
    fn tombstone_doc(&mut self, doc_id: &str) -> usize {
        let ids = self.docs.get(doc_id).map(|m| m.chunks.clone()).unwrap_or_default();
        let mut n = 0;
        for id in ids {
            let id = id as usize;
            if let Some(slot) = self.chunks.get_mut(id) {
                if slot.live {
                    slot.live = false;
                    self.dead += 1;
                    n += 1;
                }
            }
            match &mut self.index {
                LiveIndex::Dense { index, .. } => {
                    index.tombstone(id);
                }
                LiveIndex::Bm25(r) => {
                    r.tombstone_chunk(id);
                }
            }
        }
        n
    }

    /// The compaction policy: a pure function of the state's slot counts,
    /// so replay re-triggers compaction at exactly the same epochs.
    fn maybe_compact(&mut self, cfg: &LiveConfig) -> bool {
        let total = self.chunks.len();
        if total == 0 || self.dead < cfg.compact_min_dead.max(1) {
            return false;
        }
        if (self.dead as f64) / (total as f64) < cfg.compact_dead_fraction {
            return false;
        }
        self.compact();
        true
    }

    /// Purge tombstones: rebuild the index over surviving chunks in id
    /// order and renumber the slot table densely.
    fn compact(&mut self) {
        // Old id → new id for survivors, derived from the slot table; the
        // index tiers are kept in lockstep so their remaps agree.
        let mut remap: Vec<Option<u32>> = vec![None; self.chunks.len()];
        let mut survivors: Vec<ChunkSlot> = Vec::with_capacity(self.chunks.len() - self.dead);
        for (old, slot) in self.chunks.iter().enumerate() {
            if slot.live {
                remap[old] = Some(survivors.len() as u32);
                survivors.push(slot.clone());
            }
        }
        match &mut self.index {
            LiveIndex::Dense { index, .. } => {
                index.compact();
            }
            LiveIndex::Bm25(r) => {
                let texts: Vec<String> = survivors.iter().map(|s| s.text.clone()).collect();
                r.index(&texts);
            }
        }
        for meta in self.docs.values_mut() {
            meta.chunks =
                meta.chunks.iter().filter_map(|&id| remap.get(id as usize).copied()?).collect();
        }
        self.chunks = survivors;
        self.dead = 0;
    }

    fn search(&self, query: &str, n: usize) -> Vec<LiveHit> {
        let raw: Vec<(usize, f32)> = match &self.index {
            LiveIndex::Dense { embedder, index } => index
                .search(&embedder.embed_query(query), n)
                .into_iter()
                .map(|h| (h.id, h.score))
                .collect(),
            LiveIndex::Bm25(r) => {
                r.retrieve(query, n).into_iter().map(|s| (s.index, s.score)).collect()
            }
        };
        raw.into_iter()
            .filter_map(|(id, score)| {
                let slot = self.chunks.get(id)?;
                if !slot.live {
                    return None;
                }
                Some(LiveHit {
                    doc_id: slot.doc.clone(),
                    chunk: slot.text.clone(),
                    score,
                })
            })
            .collect()
    }

    /// Content digest: a pure function of the committed corpus (epoch,
    /// documents, live chunks). Two stores that applied the same op
    /// history digest identically — the recovery-drill equivalence check.
    fn digest(&self) -> u64 {
        let mut h = Fnv1a::new(0).fold(&self.epoch.to_le_bytes());
        for (doc, meta) in &self.docs {
            h = h.fold(doc.as_bytes()).fold(&meta.fingerprint.to_le_bytes());
            for &c in &meta.chunks {
                h = h.fold(&c.to_le_bytes());
            }
        }
        for (i, slot) in self.chunks.iter().enumerate() {
            if slot.live {
                h = h.fold(&(i as u32).to_le_bytes()).fold(slot.text.as_bytes());
            }
        }
        h.finish()
    }
}

/// One search hit from a live snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveHit {
    /// Owning document.
    pub doc_id: String,
    /// Chunk text.
    pub chunk: String,
    /// Similarity score under the configured retriever.
    pub score: f32,
}

/// An immutable, internally consistent view of one committed epoch.
/// Cheap to take (`Arc` clone) and to hold: the writer copies-on-write
/// around live snapshots, so a reader never observes a half-applied
/// batch and an old snapshot keeps answering from its own epoch.
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    state: Arc<LiveState>,
}

impl LiveSnapshot {
    /// The epoch this snapshot serves.
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// Number of documents.
    pub fn doc_count(&self) -> usize {
        self.state.docs.len()
    }

    /// Number of live (retrievable) chunks.
    pub fn live_chunks(&self) -> usize {
        self.state.chunks.len() - self.state.dead
    }

    /// Top-`n` retrieval over the snapshot's corpus.
    pub fn search(&self, query: &str, n: usize) -> Vec<LiveHit> {
        self.state.search(query, n)
    }

    /// Content digest (see [`CorpusWriter::digest`]).
    pub fn digest(&self) -> u64 {
        self.state.digest()
    }

    /// The stored text fingerprint of `doc_id`, if present.
    pub fn doc_fingerprint(&self, doc_id: &str) -> Option<u64> {
        self.state.docs.get(doc_id).map(|m| m.fingerprint)
    }
}

/// The single writer of a live corpus store.
///
/// ```
/// use sage_core::live::{CorpusWriter, LiveConfig, LiveOp};
///
/// let dir = std::env::temp_dir().join("sage_live_doc_example");
/// std::fs::remove_dir_all(&dir).ok();
/// let (mut writer, _recovery) = CorpusWriter::open(&dir, LiveConfig::default()).unwrap();
/// writer
///     .commit(&[LiveOp::Upsert {
///         doc_id: "cats".into(),
///         text: "Whiskers is a tabby cat. He has bright green eyes.".into(),
///     }])
///     .unwrap();
/// let snap = writer.snapshot();
/// assert_eq!(snap.epoch(), 1);
/// assert!(snap.search("green eyes", 1)[0].chunk.contains("green"));
/// std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct CorpusWriter {
    dir: PathBuf,
    cfg: LiveConfig,
    crash: CrashPlan,
    state: Arc<LiveState>,
    segments: Vec<store::SegmentEntry>,
    /// Commit attempts for the *next* epoch; folded into the crash key so
    /// a fractional crash plan lets a deterministic retry succeed.
    attempt: u32,
    telemetry: Telemetry,
}

impl CorpusWriter {
    /// Open (or create) the store at `dir`, recovering to the last
    /// committed epoch: manifest-listed segments are verified and
    /// replayed, torn or orphaned files are discarded.
    pub fn open(dir: &Path, cfg: LiveConfig) -> Result<(Self, RecoveryReport), LiveError> {
        Self::open_with_crash_plan(dir, cfg, CrashPlan::none())
    }

    /// [`CorpusWriter::open`] with deterministic crash injection at the
    /// commit write barriers (recovery drills, `sage soak --live`).
    pub fn open_with_crash_plan(
        dir: &Path,
        cfg: LiveConfig,
        crash: CrashPlan,
    ) -> Result<(Self, RecoveryReport), LiveError> {
        std::fs::create_dir_all(dir)?;
        let mut state = LiveState::new(&cfg);
        let recovered = store::recover(dir, &mut state, &cfg)?;
        metrics::LIVE_RECOVERIES.inc();
        metrics::LIVE_SEGMENTS_DISCARDED.add(recovered.report.orphans_discarded as u64);
        let telemetry = Telemetry::new();
        let mut trace = Trace::start("live-recovery");
        let span = trace.enter("live-recover");
        trace.field(span, "epoch", recovered.report.epoch);
        trace.field(span, "segments_replayed", recovered.report.segments_replayed);
        trace.field(span, "orphans_discarded", recovered.report.orphans_discarded);
        trace.event("live-recovery");
        trace.exit(span);
        telemetry.push_trace(trace);
        Ok((
            Self {
                dir: dir.to_path_buf(),
                cfg,
                crash,
                state: Arc::new(state),
                segments: recovered.segments,
                attempt: 0,
                telemetry,
            },
            recovered.report,
        ))
    }

    /// The store configuration.
    pub fn config(&self) -> &LiveConfig {
        &self.cfg
    }

    /// The last committed epoch (0 for a fresh store).
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// Content digest of the committed state (pure function of the op
    /// history; recovery must reproduce it exactly).
    pub fn digest(&self) -> u64 {
        self.state.digest()
    }

    /// Take a consistent read snapshot of the current epoch.
    pub fn snapshot(&self) -> LiveSnapshot {
        LiveSnapshot { state: Arc::clone(&self.state) }
    }

    /// Restore the retry counter folded into crash-injection keys.
    /// Recovery drills reopen the writer between attempts; without this a
    /// reopened writer would redraw the identical crash decision on every
    /// retry of the same epoch.
    pub fn set_commit_attempt(&mut self, attempt: u32) {
        self.attempt = attempt;
    }

    /// The telemetry hub collecting commit/compaction/recovery traces.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Durably commit one batch of ops as the next epoch.
    ///
    /// Protocol: write `seg-<epoch>.sageseg` through the barriered
    /// [`crate::fsx::commit_framed`] path, cross the pre-manifest
    /// barrier, atomically rewrite the manifest, then apply the batch to
    /// the in-memory state (copy-on-write if snapshots are held) and run
    /// the compaction policy. A [`LiveError::CrashInjected`] return means
    /// the disk looks exactly like a real crash at that barrier and the
    /// in-memory state still serves the previous epoch.
    pub fn commit(&mut self, ops: &[LiveOp]) -> Result<CommitReport, LiveError> {
        let epoch = self.state.epoch + 1;
        let key = format!("epoch:{epoch}:attempt:{}", self.attempt);
        let plan = self.crash;
        let framed = crate::fsx::frame(&store::encode_segment(epoch, ops));
        let seg_path = self.dir.join(store::segment_name(epoch));

        let mut injected: Option<CrashPoint> = None;
        let commit_res = crate::fsx::commit_framed(&seg_path, &framed, &mut |point| {
            if plan.crashes_at(point, &key) {
                injected = Some(point);
                Err(std::io::Error::other("injected crash"))
            } else {
                Ok(())
            }
        });
        if let Err(e) = commit_res {
            return Err(self.crash_or_io(injected, e));
        }
        if plan.crashes_at(CrashPoint::PreManifest, &key) {
            return Err(self.crash_or_io(
                Some(CrashPoint::PreManifest),
                std::io::Error::other("injected crash"),
            ));
        }

        let mut segments = self.segments.clone();
        segments.push(store::SegmentEntry {
            epoch,
            len: framed.len() as u64,
            crc: crate::fsx::crc32(&framed),
        });
        let manifest = crate::fsx::frame(&store::encode_manifest(epoch, &self.cfg, &segments));
        crate::fsx::commit_bytes(&self.dir.join(store::MANIFEST_NAME), &manifest)?;
        self.segments = segments;
        self.attempt = 0;

        let report = Arc::make_mut(&mut self.state).apply_batch(epoch, ops, &self.cfg);
        self.record_commit(&report, ops.len());
        Ok(report)
    }

    fn crash_or_io(&mut self, injected: Option<CrashPoint>, e: std::io::Error) -> LiveError {
        match injected {
            Some(point) => {
                self.attempt += 1;
                metrics::LIVE_CRASHES_INJECTED.inc();
                let mut trace = Trace::start("live-crash");
                let span = trace.enter("live-commit");
                trace.field(span, "barrier", point.label());
                trace.event("live-crash-injected");
                trace.exit(span);
                self.telemetry.push_trace(trace);
                LiveError::CrashInjected(point)
            }
            None => LiveError::Io(e),
        }
    }

    fn record_commit(&mut self, report: &CommitReport, ops: usize) {
        metrics::LIVE_COMMITS.inc();
        metrics::LIVE_DOCS_UPSERTED.add(report.docs_upserted as u64);
        metrics::LIVE_DOCS_DELETED.add(report.docs_deleted as u64);
        metrics::LIVE_CHUNKS_INDEXED.add(report.chunks_indexed as u64);
        metrics::LIVE_TOMBSTONES.add(report.tombstones as u64);
        if report.compacted {
            metrics::LIVE_COMPACTIONS.inc();
        }
        let mut trace = Trace::start(format!("live-epoch-{}", report.epoch));
        let span = trace.enter("live-commit");
        trace.field(span, "epoch", report.epoch);
        trace.field(span, "ops", ops);
        trace.field(span, "chunks_indexed", report.chunks_indexed);
        trace.field(span, "tombstones", report.tombstones);
        trace.event("live-epoch-commit");
        if report.compacted {
            trace.event("live-compaction");
        }
        trace.exit(span);
        self.telemetry.push_trace(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sage_live_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn doc(i: usize, version: usize) -> LiveOp {
        LiveOp::Upsert {
            doc_id: format!("doc-{i}"),
            text: format!(
                "Document {i} version {version}. The harbor town kept its records carefully. \
                 Entry {i} lists the {version} known lighthouses.\n\
                 A second paragraph describes the cliffs near town {i}."
            ),
        }
    }

    #[test]
    fn commits_advance_epochs_and_serve_snapshots() {
        let dir = scratch("epochs");
        let (mut w, rec) = CorpusWriter::open(&dir, LiveConfig::default()).unwrap();
        assert_eq!(rec.epoch, 0);
        w.commit(&[doc(1, 0), doc(2, 0)]).unwrap();
        let snap1 = w.snapshot();
        assert_eq!(snap1.epoch(), 1);
        assert_eq!(snap1.doc_count(), 2);
        let hits = snap1.search("lighthouses in the harbor town", 3);
        assert!(!hits.is_empty());

        // Old snapshots keep answering from their own epoch.
        let before = snap1.search("records of town", 3);
        w.commit(&[LiveOp::Delete { doc_id: "doc-1".into() }]).unwrap();
        assert_eq!(w.epoch(), 2);
        assert_eq!(snap1.epoch(), 1, "held snapshot must not advance");
        assert_eq!(snap1.search("records of town", 3), before);
        let snap2 = w.snapshot();
        assert_eq!(snap2.doc_count(), 1);
        assert!(snap2.search("records of town", 5).iter().all(|h| h.doc_id != "doc-1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_upserts_are_noops() {
        let dir = scratch("clean");
        let (mut w, _) = CorpusWriter::open(&dir, LiveConfig::default()).unwrap();
        let r1 = w.commit(&[doc(7, 0)]).unwrap();
        assert_eq!(r1.docs_upserted, 1);
        assert!(r1.chunks_indexed > 0);
        let digest = w.digest();
        // Same text again: fingerprint match, nothing re-segmented.
        let r2 = w.commit(&[doc(7, 0)]).unwrap();
        assert_eq!(r2.clean_upserts, 1);
        assert_eq!(r2.docs_upserted, 0);
        assert_eq!(r2.chunks_indexed, 0);
        assert_eq!(r2.tombstones, 0);
        // Changed text: old chunks tombstoned, new ones indexed.
        let r3 = w.commit(&[doc(7, 1)]).unwrap();
        assert_eq!(r3.docs_upserted, 1);
        assert!(r3.tombstones > 0 && r3.chunks_indexed > 0);
        assert_ne!(w.digest(), digest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_identical_state() {
        let dir = scratch("reopen");
        let cfg = LiveConfig::default();
        let (mut w, _) = CorpusWriter::open(&dir, cfg).unwrap();
        w.commit(&[doc(1, 0), doc(2, 0), doc(3, 0)]).unwrap();
        w.commit(&[doc(2, 1), LiveOp::Delete { doc_id: "doc-3".into() }]).unwrap();
        let (epoch, digest) = (w.epoch(), w.digest());
        // The live-soak golden logs print digests: the value is pinned.
        assert_eq!(digest, 0x7F61_8FC5_2A50_4A0B);
        let hits = w.snapshot().search("lighthouses", 4);
        drop(w);
        let (w2, rec) = CorpusWriter::open(&dir, cfg).unwrap();
        assert_eq!(rec.epoch, epoch);
        assert_eq!(rec.segments_replayed, 2);
        assert_eq!(rec.orphans_discarded, 0);
        assert_eq!(w2.epoch(), epoch);
        assert_eq!(w2.digest(), digest, "replay must reconstruct identical state");
        assert_eq!(w2.snapshot().search("lighthouses", 4), hits);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_crash_point_recovers_to_last_committed_epoch() {
        for point in CrashPoint::ALL {
            let dir = scratch(&format!("crash_{}", point.label()));
            let cfg = LiveConfig::default();
            let (mut w, _) = CorpusWriter::open(&dir, cfg).unwrap();
            w.commit(&[doc(1, 0), doc(2, 0)]).unwrap();
            let (epoch, digest) = (w.epoch(), w.digest());
            drop(w);

            let (mut w, _) =
                CorpusWriter::open_with_crash_plan(&dir, cfg, CrashPlan::always(point)).unwrap();
            match w.commit(&[doc(1, 1)]) {
                Err(LiveError::CrashInjected(p)) => assert_eq!(p, point),
                other => panic!("{point}: expected injected crash, got {other:?}"),
            }
            // In-memory state still serves the old epoch.
            assert_eq!(w.epoch(), epoch);
            drop(w);

            // Recovery drill: reopen without the plan.
            let (w, rec) = CorpusWriter::open(&dir, cfg).unwrap();
            assert_eq!(w.epoch(), epoch, "{point}: must recover to last committed epoch");
            assert_eq!(w.digest(), digest, "{point}: recovered state must be identical");
            // Post-tmp/pre-rename leave a torn tmp; post-rename/pre-manifest
            // leave an orphaned segment. Pre-tmp leaves nothing.
            match point {
                CrashPoint::PreTmp => assert_eq!(rec.orphans_discarded, 0, "{point}"),
                _ => assert_eq!(rec.orphans_discarded, 1, "{point}"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn fractional_crash_plan_allows_deterministic_retry() {
        let dir = scratch("retry");
        let cfg = LiveConfig::default();
        // Crash ~half of pre-rename barriers: some attempt must eventually
        // pass because the attempt number is folded into the crash key.
        let plan = CrashPlan::seeded(11).with(CrashPoint::PreRename, 0.5);
        let (mut w, _) = CorpusWriter::open_with_crash_plan(&dir, cfg, plan).unwrap();
        let mut crashes = 0;
        for i in 0..6 {
            loop {
                match w.commit(&[doc(i, 0)]) {
                    Ok(r) => {
                        assert_eq!(r.epoch, (i as u64) + 1);
                        break;
                    }
                    Err(LiveError::CrashInjected(_)) => {
                        crashes += 1;
                        assert!(crashes < 100, "plan never lets a retry through");
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        assert_eq!(w.epoch(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_purges_tombstones_deterministically() {
        let dir = scratch("compact");
        let cfg = LiveConfig {
            compact_dead_fraction: 0.2,
            compact_min_dead: 2,
            ..LiveConfig::default()
        };
        let (mut w, _) = CorpusWriter::open(&dir, cfg).unwrap();
        for i in 0..6 {
            w.commit(&[doc(i, 0)]).unwrap();
        }
        let before_chunks = w.snapshot().live_chunks();
        let r = w
            .commit(&[
                LiveOp::Delete { doc_id: "doc-0".into() },
                LiveOp::Delete { doc_id: "doc-1".into() },
                LiveOp::Delete { doc_id: "doc-2".into() },
            ])
            .unwrap();
        assert!(r.compacted, "deleting half the corpus must trigger compaction");
        let snap = w.snapshot();
        assert!(snap.live_chunks() < before_chunks);
        // After compaction the slot table is dense again and search works.
        assert!(!snap.search("lighthouses", 3).is_empty());
        // Replay reproduces the compacted state bit-for-bit.
        let digest = w.digest();
        drop(w);
        let (w2, _) = CorpusWriter::open(&dir, cfg).unwrap();
        assert_eq!(w2.digest(), digest);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The chunk table as `(text, doc, live)` and the doc table as
    /// `(doc, fingerprint, chunk ids)`.
    type Tables = (Vec<(String, String, bool)>, Vec<(String, u64, Vec<u32>)>);

    fn tables(w: &CorpusWriter) -> Tables {
        let chunks =
            w.state.chunks.iter().map(|s| (s.text.clone(), s.doc.clone(), s.live)).collect();
        let docs = w
            .state
            .docs
            .iter()
            .map(|(id, m)| (id.clone(), m.fingerprint, m.chunks.clone()))
            .collect();
        (chunks, docs)
    }

    fn hit_bits(hits: &[LiveHit]) -> Vec<(String, String, u32)> {
        hits.iter().map(|h| (h.doc_id.clone(), h.chunk.clone(), h.score.to_bits())).collect()
    }

    /// A compacted BM25 store is the store that only ever saw the
    /// survivors: committing the surviving documents, in surviving-chunk
    /// order, to a fresh store gives the same chunk and doc tables and the
    /// same hits, score bits included (the compaction's full rebuild
    /// against the fresh store's delta postings).
    #[test]
    fn bm25_compaction_equals_a_fresh_store_over_the_survivors() {
        let cfg = LiveConfig {
            retriever: LiveRetrieverKind::Bm25,
            compact_dead_fraction: 0.2,
            compact_min_dead: 2,
            ..LiveConfig::default()
        };
        let delete = |i: usize| LiveOp::Delete { doc_id: format!("doc-{i}") };
        let batches: Vec<Vec<LiveOp>> = vec![
            (0..8).map(|i| doc(i, 0)).collect(),
            vec![doc(2, 1), doc(8, 0)],
            vec![delete(0), delete(3), doc(6, 2)],
            vec![doc(9, 0), doc(1, 1), doc(9, 0)],
            vec![delete(4), delete(7), doc(2, 2), doc(10, 0)],
        ];
        let queries = [
            "lighthouses in the harbor town",
            "records of town 6",
            "Which cliffs are near town 2?",
            "Document 9 version 0",
            "the the the",
            "zyzzyva",
        ];
        let dir = scratch("bm25_compaction_oracle");
        let (mut w, _) = CorpusWriter::open(&dir, cfg).unwrap();
        let mut texts: BTreeMap<String, String> = BTreeMap::new();
        let mut compactions = 0;
        for batch in &batches {
            for op in batch {
                match op {
                    LiveOp::Upsert { doc_id, text } => texts.insert(doc_id.clone(), text.clone()),
                    LiveOp::Delete { doc_id } => texts.remove(doc_id),
                };
            }
            if !w.commit(batch).unwrap().compacted {
                continue;
            }
            compactions += 1;
            let mut survivors: Vec<(u32, &String)> =
                w.state.docs.iter().map(|(id, m)| (m.chunks[0], id)).collect();
            survivors.sort();
            let fresh_ops: Vec<LiveOp> = survivors
                .iter()
                .map(|(_, id)| LiveOp::Upsert { doc_id: (*id).clone(), text: texts[*id].clone() })
                .collect();
            let fresh_dir = scratch(&format!("bm25_compaction_fresh_{compactions}"));
            let (mut fresh, _) = CorpusWriter::open(&fresh_dir, cfg).unwrap();
            assert!(!fresh.commit(&fresh_ops).unwrap().compacted);
            assert_eq!(tables(&w), tables(&fresh), "compaction {compactions}");
            assert_eq!(w.snapshot().search(queries[0], 5).len(), 5);
            for q in queries {
                for k in [1, 5, 100] {
                    assert_eq!(
                        hit_bits(&w.snapshot().search(q, k)),
                        hit_bits(&fresh.snapshot().search(q, k)),
                        "compaction {compactions}: {q:?} k={k}"
                    );
                }
            }
            std::fs::remove_dir_all(&fresh_dir).ok();
        }
        assert!(compactions >= 2, "the batches must compact at least twice: {compactions}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_update_commit_does_the_same_work_whatever_the_corpus_size() {
        // Compaction off, so each commit is the pure delta path.
        let cfg = LiveConfig {
            compact_dead_fraction: 1.1,
            compact_min_dead: usize::MAX,
            ..LiveConfig::default()
        };
        let text = |d: usize, rev: usize| {
            format!(
                "Ledger entry {d} revision {rev}. The registry lists holding {} under section {}. \
                 A clerk appended note {} about the transfer.",
                d * 17 + rev,
                d % 12,
                rev + 1
            )
        };
        let upsert = |d: usize, rev: usize| LiveOp::Upsert {
            doc_id: format!("doc-{d:05}"),
            text: text(d, rev),
        };
        for docs in [64, 256, 1024] {
            let dir = scratch(&format!("update_{docs}"));
            let (mut w, _) = CorpusWriter::open(&dir, cfg).unwrap();
            let seed: Vec<LiveOp> = (0..docs).map(|d| upsert(d, 0)).collect();
            for batch in seed.chunks(128) {
                w.commit(batch).unwrap();
            }
            // Eight documents spread over the store, each with new text.
            let update: Vec<LiveOp> = (0..8).map(|i| upsert(i * docs / 8, 1)).collect();
            let report = w.commit(&update).unwrap();
            let want = CommitReport {
                epoch: report.epoch,
                docs_upserted: 8,
                clean_upserts: 0,
                docs_deleted: 0,
                chunks_indexed: 8,
                tombstones: 8,
                compacted: false,
            };
            assert_eq!(report, want, "{docs} documents");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn bm25_and_hashed_variants_work() {
        for kind in [LiveRetrieverKind::Bm25, LiveRetrieverKind::Hashed] {
            let dir = scratch(&format!("kind_{}", kind.label()));
            let cfg = LiveConfig { retriever: kind, ..LiveConfig::default() };
            let (mut w, _) = CorpusWriter::open(&dir, cfg).unwrap();
            w.commit(&[doc(1, 0), doc(2, 0)]).unwrap();
            w.commit(&[doc(1, 1)]).unwrap();
            let hits = w.snapshot().search("lighthouses near the harbor", 3);
            assert!(!hits.is_empty(), "{kind:?}");
            let digest = w.digest();
            drop(w);
            let (w2, _) = CorpusWriter::open(&dir, cfg).unwrap();
            assert_eq!(w2.digest(), digest, "{kind:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn commit_traces_carry_epoch_events() {
        let dir = scratch("traces");
        let (mut w, _) = CorpusWriter::open(&dir, LiveConfig::default()).unwrap();
        w.commit(&[doc(1, 0)]).unwrap();
        w.telemetry().with_traces(|traces| {
            assert!(traces.iter().any(|t| t.label() == "live-recovery"));
            assert!(traces.iter().any(|t| t.label() == "live-epoch-1"));
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
