//! The batch apply, split into [`LiveState::prepare`] and
//! [`LiveState::apply`], against the serial `apply_batch` it replaced: that
//! body and the helpers it called are kept below verbatim but for their
//! BM25 arms (the BM25 store is gone), and both paths take the same batches
//! — at 1, 2, 3 and 64 workers — through repeated upserts, an upsert →
//! delete → upsert of one document, clean re-sends, deletes of unknown
//! documents, an empty batch and compactions (down to an empty index, too).
//! After every batch the two states must hold the same digest,
//! `CommitReport`, slot and document tables and index
//! (`FlatIndex::to_bytes`, norms and `memory_bytes`), and answer every query
//! with the same hits, score bits included.

use super::*;

/// `LiveState::apply_batch` and the helpers it called, before the apply
/// was split in two: bodies unchanged but for their BM25 arms.
impl LiveState {
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
                        let id = self.index.add(self.embedder.embed(&chunk));
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
            self.index.tombstone(id);
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
        self.index.compact();
        for meta in self.docs.values_mut() {
            meta.chunks =
                meta.chunks.iter().filter_map(|&id| remap.get(id as usize).copied()?).collect();
        }
        self.chunks = survivors;
        self.dead = 0;
    }
}

/// Document `i` at `version`: one to four paragraphs, so it segments into
/// one chunk or several.
fn doc(i: usize, version: usize) -> LiveOp {
    let paragraph = |p: usize| {
        format!(
            "Record {i} revision {version} part {p}. The harbor town of Ves{i} kept ledgers of \
             every ship that came in. Its clerk noted {} barrels of salt and {} of tar. The \
             lighthouse keeper signed each entry before the tide turned.",
            i * 7 + p,
            version * 3 + p
        )
    };
    let text: Vec<String> = (0..1 + (i + version) % 4).map(paragraph).collect();
    LiveOp::Upsert { doc_id: format!("doc-{i}"), text: text.join("\n\n") }
}

fn delete(i: usize) -> LiveOp {
    LiveOp::Delete { doc_id: format!("doc-{i}") }
}

/// Batches through every decision the walk makes, two compactions and a
/// compaction that leaves nothing.
fn batches() -> Vec<Vec<LiveOp>> {
    vec![
        // Enough chunks that two and three workers cut the rows apart.
        (0..100).map(|i| doc(i, 0)).collect(),
        // One document upserted three times, back to its first new text.
        vec![doc(3, 1), doc(3, 2), doc(3, 1), doc(100, 0)],
        // Upsert → delete → upsert of one document; delete → upsert of
        // another, and of a third with the text it had; delete → upsert →
        // delete of a fourth.
        vec![
            doc(5, 1),
            delete(5),
            doc(5, 2),
            delete(6),
            doc(6, 1),
            delete(11),
            doc(11, 0),
            delete(7),
            doc(7, 1),
            delete(7),
        ],
        // Clean re-sends (doc 3's text is version 1 again), one after a
        // change in the same batch, and deletes of unknown documents.
        vec![doc(3, 1), doc(8, 0), doc(9, 1), doc(9, 0), delete(999), delete(7)],
        Vec::new(),
        // Enough dead chunks to compact, and new rows in the same batch.
        (10..50).map(delete).chain([doc(101, 0), doc(102, 1)]).collect(),
        // Rows appended into the room the compaction freed.
        (63..90).map(|i| doc(i, 2)).collect(),
        // Everything goes: the index compacts to nothing…
        (0..110).map(delete).collect(),
        // …and takes rows again, from an unset dimensionality.
        vec![doc(1, 3), doc(2, 3), doc(2, 3)],
    ]
}

const QUERIES: [&str; 5] = [
    "barrels of salt in the harbor town",
    "Which clerk noted the tar in Ves5?",
    "Record 63 revision 2 part 1",
    "the the the",
    "zyzzyva",
];

type Slots = Vec<(String, String, bool)>;
type Docs = Vec<(String, u64, Vec<u32>)>;

fn tables(state: &LiveState) -> (Slots, Docs, usize) {
    let slots = state.chunks.iter().map(|s| (s.text.clone(), s.doc.clone(), s.live)).collect();
    let docs =
        state.docs.iter().map(|(id, m)| (id.clone(), m.fingerprint, m.chunks.clone())).collect();
    (slots, docs, state.dead)
}

/// Everything the index holds that a reader or the next batch can tell
/// apart.
fn index_of(state: &LiveState) -> (Vec<u8>, Vec<u32>, usize, String) {
    let (index, flat) = (&state.index, state.index.as_flat());
    let norms = flat.norms().iter().map(|v| v.to_bits()).collect();
    let dead = format!("{} dead of {}", index.dead_count(), index.len());
    (flat.to_bytes(), norms, index.memory_bytes(), dead)
}

fn hits(state: &LiveState) -> Vec<(String, String, u32)> {
    let mut all = Vec::new();
    for query in QUERIES {
        for n in [1, 7, 1000] {
            let found = state.search(query, n);
            all.extend(found.into_iter().map(|h| (h.doc_id, h.chunk, h.score.to_bits())));
        }
    }
    all
}

#[test]
fn prepare_then_apply_equals_the_serial_apply_at_every_worker_count() {
    let cfg = LiveConfig::default();
    for workers in [1, 2, 3, 64] {
        let (mut serial, mut split) = (LiveState::new(&cfg), LiveState::new(&cfg));
        let mut compactions = 0;
        for (at, ops) in batches().iter().enumerate() {
            let what = format!("{workers} workers, batch {at}");
            let epoch = at as u64 + 1;
            let want = serial.apply_batch(epoch, ops, &cfg);
            let prepared = split.prepare(ops, &cfg, workers);
            if at == 0 && workers <= 3 {
                let parts = prepared.parts.len();
                assert_eq!(parts, workers, "{what}: the first batch cut into {parts} ranges");
            }
            let got = split.apply(epoch, prepared, &cfg, workers);
            assert_eq!(got, want, "{what}");
            assert_eq!(split.epoch, serial.epoch, "{what}");
            assert_eq!(split.digest(), serial.digest(), "{what}");
            assert_eq!(tables(&split), tables(&serial), "{what}");
            assert!(index_of(&split) == index_of(&serial), "{what}: the index");
            assert_eq!(hits(&split), hits(&serial), "{what}");
            compactions += usize::from(want.compacted);
        }
        assert!(compactions >= 2, "{workers} workers: {compactions} compactions");
        assert_eq!(serial.chunks.len(), split.chunks.len());
    }
}

#[test]
fn the_walk_decides_each_op_as_the_batch_left_its_document() {
    let cfg = LiveConfig::default();
    let mut state = LiveState::new(&cfg);
    let report = state.apply(1, state.prepare(&batches()[0], &cfg, 2), &cfg, 2);
    assert_eq!((report.docs_upserted, report.clean_upserts), (100, 0));
    let ops = [doc(3, 1), doc(3, 2), doc(3, 1), delete(4), delete(4), doc(4, 0), delete(500)];
    let prepared = state.prepare(&ops, &cfg, 2);
    // doc-3 three times dirty, doc-4 deleted once (the second delete finds
    // it gone), then added back with its old text, which is dirty now.
    assert_eq!(prepared.clean_upserts, 0);
    let kinds: Vec<(&str, bool)> = prepared
        .steps
        .iter()
        .map(|step| match step {
            Step::Upsert { doc_id, .. } => (*doc_id, true),
            Step::Delete { doc_id } => (*doc_id, false),
        })
        .collect();
    let want =
        [("doc-3", true), ("doc-3", true), ("doc-3", true), ("doc-4", false), ("doc-4", true)];
    assert_eq!(kinds, want);
}
