//! Live-corpus mutation with epoch snapshots and crash recovery.
//!
//! Everything else in the reproduction is build-once-serve-forever; this
//! module makes the corpus *churn* safely. A single-writer
//! [`CorpusWriter`] applies batches of document [`LiveOp`]s — upsert and
//! delete — and commits each batch as one **epoch**:
//!
//! * only *dirty* documents are re-segmented (an upsert whose
//!   [`sage_segment::fingerprint`] matches the stored one is a no-op), on
//!   every core, one document range a worker, and the same worker embeds
//!   that range's chunks;
//! * chunks are embedded by a [`HashedEmbedder`] (model-free, so recovery
//!   replay needs no trained weights on disk) into a [`MutableIndex`] (an
//!   exact flat index with tombstones), a batch's rows in one pass, so
//!   commit cost scales with the batch, not the corpus;
//! * deletes and updates tombstone old chunks; a deterministic compaction
//!   policy (dead fraction ≥ threshold) purges them: the vector index
//!   closes up in place, its columns moved on every core;
//! * readers hold [`LiveSnapshot`]s — cheap `Arc` clones of the state —
//!   that stay internally consistent while the writer advances
//!   (copy-on-write via `Arc::make_mut`).
//!
//! Durability: each commit appends one segment file (the op batch, framed
//! with the shared [`crate::fsx`] CRC-32 trailer and committed
//! tmp+fsync+rename), then atomically rewrites a manifest naming every
//! committed segment with its length and the CRC-32 of its framed bytes,
//! derived from the payload's without a second pass. The batch's
//! segmentation and embedding run while those two files are made durable,
//! and read only the committed state; the batch changes the state only
//! once both are. Recovery replays the manifest's segments through the
//! same deterministic prepare-and-apply code, discards torn or orphaned
//! files, and provably lands on the last committed epoch — under deterministic
//! crash-point injection ([`sage_resilience::CrashPlan`]) at all five
//! write barriers, which the [`soak`] harness drills continuously.

#[cfg(test)]
mod oracle;
pub mod soak;
pub(crate) mod store;

pub use soak::{run_live_soak, LiveSoakConfig, LiveSoakReport};
pub use store::RecoveryReport;

use crate::segmentation::{byte_ranges, on_ranges, workers};
use sage_embed::{Analysis, Embedder, HashedEmbedder};
use sage_resilience::{CrashPlan, CrashPoint};
use sage_segment::{Segmenter, SentenceSegmenter};
use sage_text::ngram::Fnv1a;
use sage_vecdb::{ColumnMoves, FlatIndex, MutableIndex, VectorIndex};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Configuration of the live store. Persisted in the manifest so a store
/// always reopens with the geometry it was created with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// Sentence-segmenter token budget per chunk.
    pub segment_tokens: usize,
    /// Hashed-embedder dimensionality.
    pub embed_dim: usize,
    /// Hashed-embedder seed.
    pub embed_seed: u64,
    /// Compact when the dead fraction reaches this threshold…
    pub compact_dead_fraction: f64,
    /// …and at least this many chunks are dead.
    pub compact_min_dead: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
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

/// What one committed epoch did: the one record of a commit, for the caller.
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

/// What the apply walk will do with one op that changes the corpus (a
/// clean upsert and a delete of an absent document change nothing).
#[derive(Debug)]
enum Step<'a> {
    /// Replace or add `doc_id` with the next `chunks` prepared chunks.
    Upsert { doc_id: &'a str, fingerprint: u64, chunks: usize },
    /// Remove `doc_id`, which exists when the walk reaches it.
    Delete { doc_id: &'a str },
}

/// A dirty upsert as the prepare workers see it: cut into ranges by the
/// bytes of its text.
#[derive(Debug)]
struct Dirty<'a> {
    doc_id: &'a str,
    text: &'a str,
}

impl AsRef<str> for Dirty<'_> {
    fn as_ref(&self) -> &str {
        self.text
    }
}

/// One document range's share of a batch, prepared on its own worker.
#[derive(Debug)]
struct Part {
    /// Each of the range's dirty upserts' chunk count, in op order.
    counts: Vec<usize>,
    /// The range's chunks, in op order, as the slot table will hold them.
    slots: Vec<ChunkSlot>,
    /// The embedded rows of `slots`, in the same order.
    rows: FlatIndex,
}

/// A batch's work done by [`LiveState::prepare`] before its segment and
/// manifest are durable: dropped unapplied when they never become so.
#[derive(Debug)]
struct Prepared<'a> {
    steps: Vec<Step<'a>>,
    clean_upserts: usize,
    /// Every dirty upsert's chunks, one part per document range, in range
    /// order.
    parts: Vec<Part>,
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
    embedder: HashedEmbedder,
    index: MutableIndex,
}

impl LiveState {
    fn new(cfg: &LiveConfig) -> Self {
        Self {
            epoch: 0,
            docs: BTreeMap::new(),
            chunks: Vec::new(),
            dead: 0,
            embedder: HashedEmbedder::new(cfg.embed_dim.max(1), cfg.embed_seed),
            index: MutableIndex::cosine(),
        }
    }

    /// The part of applying `ops` that reads the state and changes nothing:
    /// decide every op as [`apply`](Self::apply) will meet it, then cut the
    /// dirty texts into up to `workers` document ranges of about equal
    /// bytes, each prepared on its own thread ([`prepare_range`]). The walk
    /// keeps what the batch's own earlier ops did to each document, so an
    /// upsert repeated, or one after a delete of the same document, decides
    /// as the apply walk will.
    ///
    /// [`prepare_range`]: Self::prepare_range
    fn prepare<'a>(&self, ops: &'a [LiveOp], cfg: &LiveConfig, workers: usize) -> Prepared<'a> {
        // A document's fingerprint as the walk reaches it, where an earlier
        // op of the batch set it (`None`: deleted).
        let mut overlay: BTreeMap<&str, Option<u64>> = BTreeMap::new();
        let mut steps = Vec::with_capacity(ops.len());
        let mut dirty: Vec<Dirty<'a>> = Vec::new();
        let mut clean_upserts = 0;
        for op in ops {
            let doc_id = match op {
                LiveOp::Upsert { doc_id, .. } | LiveOp::Delete { doc_id } => doc_id.as_str(),
            };
            let stored = match overlay.get(doc_id) {
                Some(&fingerprint) => fingerprint,
                None => self.docs.get(doc_id).map(|m| m.fingerprint),
            };
            match op {
                LiveOp::Upsert { text, .. } => {
                    let fingerprint = sage_segment::fingerprint(text);
                    if stored == Some(fingerprint) {
                        clean_upserts += 1;
                        continue;
                    }
                    overlay.insert(doc_id, Some(fingerprint));
                    dirty.push(Dirty { doc_id, text });
                    steps.push(Step::Upsert { doc_id, fingerprint, chunks: 0 });
                }
                LiveOp::Delete { .. } => {
                    if stored.is_some() {
                        overlay.insert(doc_id, None);
                        steps.push(Step::Delete { doc_id });
                    }
                }
            }
        }

        let segmenter = SentenceSegmenter { max_tokens: cfg.segment_tokens.max(1) };
        let ranges = byte_ranges(&dirty, workers.min(dirty.len()));
        let parts = on_ranges(ranges, |docs| self.prepare_range(docs, &segmenter));
        let upserts = steps.iter_mut().filter_map(|step| match step {
            Step::Upsert { chunks, .. } => Some(chunks),
            Step::Delete { .. } => None,
        });
        for (count, &doc_chunks) in upserts.zip(parts.iter().flat_map(|part| &part.counts)) {
            *count = doc_chunks;
        }
        Prepared { steps, clean_upserts, parts }
    }

    /// One worker's share of [`prepare`](Self::prepare): segment the range's
    /// documents, build their chunks' slots, owner names included, and embed
    /// the chunks into a block of rows of the range's own.
    fn prepare_range(&self, docs: &[Dirty<'_>], segmenter: &SentenceSegmenter) -> Part {
        let mut counts = Vec::with_capacity(docs.len());
        let mut slots = Vec::new();
        for doc in docs {
            let chunks = segmenter.segment(doc.text);
            counts.push(chunks.len());
            let owner = |text| ChunkSlot { text, doc: doc.doc_id.to_string(), live: true };
            slots.extend(chunks.into_iter().map(owner));
        }
        let (metric, mut analysis) = (self.index.as_flat().metric(), Analysis::default());
        let rows = FlatIndex::filled(metric, self.embedder.dim(), slots.len(), |id, row| {
            analysis.fill(&slots[id].text);
            self.embedder.embed_analysed(&mut analysis, row);
        });
        Part { counts, slots, rows }
    }

    /// Apply a batch [`prepare`](Self::prepare)d against this very state,
    /// advance to `epoch`, then run the deterministic compaction policy.
    /// Each part's rows go into the index in one pass and its slots move
    /// into the slot table, part after part in range order; then the walk
    /// records each document and tombstones the chunks it replaces or
    /// deletes. Identical inputs produce identical state —
    /// live commits and recovery replay both go through `prepare` and
    /// `apply`.
    fn apply(
        &mut self,
        epoch: u64,
        prepared: Prepared<'_>,
        cfg: &LiveConfig,
        workers: usize,
    ) -> CommitReport {
        let Prepared { steps, clean_upserts, parts } = prepared;
        let mut report = CommitReport {
            epoch,
            docs_upserted: 0,
            clean_upserts,
            docs_deleted: 0,
            chunks_indexed: parts.iter().map(|part| part.slots.len()).sum(),
            tombstones: 0,
            compacted: false,
        };
        let mut next = self.chunks.len() as u32;
        for part in parts {
            let first = self.index.append(&part.rows);
            debug_assert_eq!(first, self.chunks.len(), "the index and the slots in step");
            self.chunks.extend(part.slots);
        }
        for step in steps {
            match step {
                Step::Upsert { doc_id, fingerprint, chunks: count } => {
                    let ids = (next..next + count as u32).collect();
                    next += count as u32;
                    report.docs_upserted += 1;
                    let meta = DocMeta { fingerprint, chunks: ids };
                    if let Some(old) = self.docs.insert(doc_id.to_string(), meta) {
                        report.tombstones += self.tombstone_ids(&old.chunks);
                    }
                }
                Step::Delete { doc_id } => {
                    if let Some(old) = self.docs.remove(doc_id) {
                        report.tombstones += self.tombstone_ids(&old.chunks);
                        report.docs_deleted += 1;
                    }
                }
            }
        }
        self.epoch = epoch;
        report.compacted = self.compact_if_due(cfg, workers);
        report
    }

    /// Tombstone the chunks `ids` (in both the slot table and the index),
    /// returning how many were newly tombstoned.
    fn tombstone_ids(&mut self, ids: &[u32]) -> usize {
        let mut n = 0;
        for &id in ids {
            let id = id as usize;
            if let Some(slot) = self.chunks.get_mut(id) {
                if slot.live {
                    slot.live = false;
                    self.dead += 1;
                    n += 1;
                }
            }
            self.index.tombstone(id);
        }
        n
    }

    /// The compaction policy: a pure function of the state's slot counts,
    /// so replay re-triggers compaction at exactly the same epochs.
    fn compact_if_due(&mut self, cfg: &LiveConfig, workers: usize) -> bool {
        let total = self.chunks.len();
        if total == 0 || self.dead < cfg.compact_min_dead.max(1) {
            return false;
        }
        if (self.dead as f64) / (total as f64) < cfg.compact_dead_fraction {
            return false;
        }
        self.compact_on(workers);
        true
    }

    /// Purge tombstones and renumber the slot table densely: the vector
    /// index closes up in place, its columns cut into up to `workers`
    /// ranges moved on their own threads.
    fn compact_on(&mut self, workers: usize) {
        // Old id → new id for survivors. The index is kept in lockstep with
        // the slot table, so the remap its compaction returns is the slot
        // table's.
        let remap = self.index.compact_on(workers, |parts| {
            on_ranges(parts, ColumnMoves::run);
        });
        debug_assert_eq!(remap.len(), self.chunks.len(), "the index and the slot table differ");
        self.chunks.retain(|slot| slot.live);
        for meta in self.docs.values_mut() {
            meta.chunks.retain_mut(|id| match remap.get(*id as usize).copied().flatten() {
                Some(new) => {
                    *id = new as u32;
                    true
                }
                None => false,
            });
        }
        self.dead = 0;
    }

    fn search(&self, query: &str, n: usize) -> Vec<LiveHit> {
        self.index
            .search(&self.embedder.embed_query(query), n)
            .into_iter()
            .filter_map(|hit| {
                let slot = self.chunks.get(hit.id)?;
                if !slot.live {
                    return None;
                }
                Some(LiveHit {
                    doc_id: slot.doc.clone(),
                    chunk: slot.text.clone(),
                    score: hit.score,
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
    /// Cosine similarity of the chunk to the query.
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

/// What making one epoch durable ends with: the segment list the new
/// manifest commits, or the barrier that crashed (if any) and the error.
type Durable = Result<Vec<store::SegmentEntry>, (Option<CrashPoint>, std::io::Error)>;

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
        Ok((
            Self {
                dir: dir.to_path_buf(),
                cfg,
                crash,
                state: Arc::new(state),
                segments: recovered.segments,
                attempt: 0,
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

    /// Durably commit one batch of ops as the next epoch.
    ///
    /// Protocol: encode the batch straight into its framed buffer and seal
    /// it ([`crate::fsx::seal`]: one CRC pass gives the trailer and the
    /// manifest's record of the file), write `seg-<epoch>.sageseg` through
    /// the barriered [`crate::fsx::commit_framed`] path, cross the
    /// pre-manifest barrier, atomically rewrite the manifest, then apply the
    /// batch to the in-memory state (copy-on-write if snapshots are held)
    /// and run the compaction policy. While a scoped thread makes the
    /// segment and the manifest durable, this one prepares the batch from
    /// the committed state alone (decisions, then segmentation and
    /// embedding, one document range a core); the batch is
    /// applied only once both files are durable. A
    /// [`LiveError::CrashInjected`] return means the disk looks exactly like
    /// a real crash at that barrier and the in-memory state still serves
    /// the previous epoch: the prepared work is dropped and counted nowhere.
    pub fn commit(&mut self, ops: &[LiveOp]) -> Result<CommitReport, LiveError> {
        let epoch = self.state.epoch + 1;
        let key = format!("epoch:{epoch}:attempt:{}", self.attempt);
        let (plan, dir, cfg, segments) = (self.crash, &self.dir, &self.cfg, &self.segments);
        let make_durable = || -> Durable {
            let mut framed = store::encode_segment(epoch, ops);
            let crc = crate::fsx::seal(&mut framed);
            let seg_path = dir.join(store::segment_name(epoch));
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
                return Err((injected, e));
            }
            if plan.crashes_at(CrashPoint::PreManifest, &key) {
                let crash = std::io::Error::other("injected crash");
                return Err((Some(CrashPoint::PreManifest), crash));
            }

            let mut segments = segments.clone();
            segments.push(store::SegmentEntry { epoch, len: framed.len() as u64, crc });
            let mut manifest = store::encode_manifest(epoch, cfg, &segments);
            crate::fsx::seal(&mut manifest);
            crate::fsx::commit_bytes(&dir.join(store::MANIFEST_NAME), &manifest)
                .map_err(|e| (None, e))?;
            Ok(segments)
        };
        let (state, workers) = (&*self.state, workers());
        let (durable, prepared) = std::thread::scope(|scope| {
            let writer = scope.spawn(make_durable);
            let prepared = state.prepare(ops, cfg, workers);
            let durable =
                writer.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            (durable, prepared)
        });
        match durable {
            Err((injected, e)) => Err(self.crash_or_io(injected, e)),
            Ok(segments) => {
                self.segments = segments;
                self.attempt = 0;
                let state = Arc::make_mut(&mut self.state);
                Ok(state.apply(epoch, prepared, &self.cfg, workers))
            }
        }
    }

    fn crash_or_io(&mut self, injected: Option<CrashPoint>, e: std::io::Error) -> LiveError {
        match injected {
            Some(point) => {
                self.attempt += 1;
                LiveError::CrashInjected(point)
            }
            None => LiveError::Io(e),
        }
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
}
