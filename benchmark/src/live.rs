//! `live_mixed`: a `CorpusWriter` taking commits while its snapshots are
//! read. Every step is one commit (mostly upserts that replace a document
//! with its other generation's text, a few new documents, a few deletes)
//! followed by a few reads, each a `LiveSnapshot::search` plus one
//! `SimLlm::answer_open` about a document in its current version.

use crate::stats::{nearest_rank, SplitMix};
use crate::trace::{Recorder, NO_OP};
use crate::{secs, RoundOut};
use sage::corpus::datasets::triviaqa;
use sage::embed::{Embedder, HashedEmbedder};
use sage::prelude::*;
use sage::text::count_tokens;
use std::path::Path;

pub struct LiveSpec {
    /// Documents in the store when the pass starts (and, since adds equal
    /// deletes, at every step).
    pub docs: usize,
    pub steps: usize,
    /// Per step: upserts of existing documents, new documents, deletes.
    pub upserts: usize,
    pub adds: usize,
    pub deletes: usize,
    pub reads: usize,
    /// Documents per seeding commit.
    pub seed_batch: usize,
    /// Chunks each read retrieves.
    pub top_k: usize,
}

/// Both generations of every document the round will ever hold: seed `N`
/// and seed `N + 1` of the TriviaQA analog, one question per document.
struct Generations {
    texts: [Vec<String>; 2],
    items: [Vec<QaItem>; 2],
}

fn generate(total_docs: usize, seed: u64) -> Generations {
    let gen = |seed| {
        let ds = triviaqa::generate(SizeConfig { num_docs: total_docs, questions_per_doc: 1, seed });
        let texts: Vec<String> = ds.documents.iter().map(|d| d.text()).collect();
        let items: Vec<QaItem> = ds.tasks.into_iter().map(|t| t.item).collect();
        assert_eq!(items.len(), texts.len(), "one question per document");
        (texts, items)
    };
    let (ta, ia) = gen(seed);
    let (tb, ib) = gen(seed + 1);
    Generations { texts: [ta, tb], items: [ia, ib] }
}

fn doc_id(d: usize) -> String {
    format!("doc-{d}")
}

/// The harness's model of what the store must hold.
struct Model {
    /// Which generation's text each document currently has.
    version: Vec<u8>,
    alive: Vec<bool>,
    /// Alive documents, for uniform picks.
    roster: Vec<usize>,
    /// Step at which each document was last written, so one commit never
    /// touches a document twice.
    touched: Vec<usize>,
}

impl Model {
    fn pick_untouched(&mut self, rng: &mut SplitMix, step: usize) -> usize {
        loop {
            let slot = rng.below(self.roster.len());
            let d = self.roster[slot];
            if self.touched[d] != step {
                self.touched[d] = step;
                return slot;
            }
        }
    }
}

struct Committer<'a> {
    writer: CorpusWriter,
    gens: &'a Generations,
    cfg: LiveConfig,
}

impl Committer<'_> {
    /// One timed commit; in the traced run followed by the replay of the
    /// layer work it contains (sentence segmentation and embedding of the
    /// upserted text).
    fn commit(&mut self, rec: &mut Recorder, op: u32, ops: &[LiveOp], out: &mut RoundOut) -> f64 {
        // Seeding commits get their own span name, so `commit` spans are the
        // pass's and their sum is the commits' share of pass time.
        let open = rec.enter(if op == NO_OP { "seed-commit" } else { "commit" }, op);
        let res = self.writer.commit(ops);
        let took = rec.exit(open);
        out.attempted += 1;
        let mut tokens = 0;
        for o in ops {
            if let LiveOp::Upsert { text, .. } = o {
                tokens += count_tokens(text);
                out.add("user_bytes", text.len() as f64);
            }
        }
        out.ingested(took, tokens as u64);
        out.add("seg_tokens", tokens as f64);
        let took = secs(took);
        let Ok(report) = res else {
            out.failed += 1;
            return took;
        };
        out.add("chunks_indexed", report.chunks_indexed as f64);
        out.add("tombstones", report.tombstones as f64);
        out.add("compactions", f64::from(u8::from(report.compacted)));
        if rec.recording() {
            let whole = rec.enter("replay-commit", op);
            let segmenter = SentenceSegmenter { max_tokens: self.cfg.segment_tokens };
            let (chunks, _) = rec.time("segment", op, || {
                let mut chunks = Vec::new();
                for o in ops {
                    if let LiveOp::Upsert { text, .. } = o {
                        chunks.extend(segmenter.segment(text));
                    }
                }
                chunks
            });
            let embedder = HashedEmbedder::new(self.cfg.embed_dim, self.cfg.embed_seed);
            rec.time("embed-index", op, || {
                for c in &chunks {
                    std::hint::black_box(embedder.embed(c));
                }
            });
            rec.exit(whole);
            let same = chunks.len() == report.chunks_indexed;
            out.add("replayed", 1.0);
            out.add("replay_matches", f64::from(u8::from(same)));
            out.add("chunks", chunks.len() as f64);
            if !same {
                out.failed += 1;
            }
        }
        took
    }

    fn upsert(&self, d: usize, version: u8) -> LiveOp {
        LiveOp::Upsert { doc_id: doc_id(d), text: self.gens.texts[usize::from(version)][d].clone() }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries.flatten().filter_map(|e| e.metadata().ok()).filter(|m| m.is_file()).map(|m| m.len()).sum()
}

pub fn round(spec: &LiveSpec, seed: u64, rec: &mut Recorder, store: &Path) -> RoundOut {
    let mut out = RoundOut::new();
    // The store needs no trained model; training is still part of every
    // round so `setup_s` means the same thing on all four workloads.
    let (models, took) = rec.time("train", NO_OP, || TrainedModels::train(TrainBudget::default()));
    drop(models);
    out.ran(took);
    let total_docs = spec.docs + spec.adds * spec.steps;
    let (gens, took) = rec.time("generate", NO_OP, || generate(total_docs, seed));
    out.ran(took);

    std::fs::remove_dir_all(store).ok();
    let cfg = LiveConfig::default();
    let (writer, _) = CorpusWriter::open(store, cfg).expect("open a fresh live store");
    let mut c = Committer { writer, gens: &gens, cfg };
    let initial: Vec<usize> = (0..spec.docs).collect();
    for batch in initial.chunks(spec.seed_batch) {
        let ops: Vec<LiveOp> = batch.iter().map(|&d| c.upsert(d, 0)).collect();
        c.commit(rec, NO_OP, &ops, &mut out);
    }
    out.start_pass();

    let mut model = Model {
        version: vec![0; total_docs],
        alive: (0..total_docs).map(|d| d < spec.docs).collect(),
        roster: initial,
        touched: vec![usize::MAX; total_docs],
    };
    let mut rng = SplitMix(seed ^ 0x11FE);
    let llm = SimLlm::new(LlmProfile::gpt4o_mini());
    let mut next_new = spec.docs;
    let mut commit_ms = Vec::with_capacity(spec.steps);
    let mut read_op = 0u32;

    for step in 0..spec.steps {
        let mut ops = Vec::with_capacity(spec.upserts + spec.adds + spec.deletes);
        for _ in 0..spec.upserts {
            let slot = model.pick_untouched(&mut rng, step);
            let d = model.roster[slot];
            model.version[d] ^= 1;
            ops.push(c.upsert(d, model.version[d]));
        }
        for _ in 0..spec.deletes {
            let slot = model.pick_untouched(&mut rng, step);
            let d = model.roster.swap_remove(slot);
            model.alive[d] = false;
            ops.push(LiveOp::Delete { doc_id: doc_id(d) });
        }
        for _ in 0..spec.adds {
            let d = next_new;
            next_new += 1;
            model.alive[d] = true;
            model.touched[d] = step;
            model.roster.push(d);
            ops.push(c.upsert(d, 0));
        }
        commit_ms.push(c.commit(rec, step as u32, &ops, &mut out) * 1e3);

        for _ in 0..spec.reads {
            let d = model.roster[rng.below(model.roster.len())];
            // Graded against the generation the document holds *now*.
            let item = &gens.items[usize::from(model.version[d])][d];
            let whole = rec.enter("query", read_op);
            let (hits, _) =
                rec.time("live-search", read_op, || c.writer.snapshot().search(&item.question, spec.top_k));
            let (answer, _) = rec.time("read", read_op, || {
                let context: Vec<String> = hits.iter().map(|h| h.chunk.clone()).collect();
                llm.answer_open(&item.question, &context)
            });
            let took = rec.exit(whole);
            read_op += 1;
            out.attempted += 1;
            out.answered(took);
            // No hit may come from a document the store was told to delete.
            let stale = hits.iter().any(|h| {
                let d: Option<usize> = h.doc_id.strip_prefix("doc-").and_then(|s| s.parse().ok());
                !d.is_some_and(|d| model.alive.get(d) == Some(&true))
            });
            if stale {
                out.failed += 1;
            }
            out.f1_sum += f64::from(f1_match(&answer.text, &item.answers));
            out.llm_tokens += answer.cost.total_tokens();
            out.digest.eat(answer.text.as_bytes());
            for h in &hits {
                out.digest.eat(h.doc_id.as_bytes());
            }
            if rec.recording() {
                out.add("reads", 1.0);
                out.add("input_tokens", answer.cost.input_tokens as f64);
                out.add("output_tokens", answer.cost.output_tokens as f64);
                out.add("sim_latency_s", secs(answer.latency));
            }
        }
    }

    out.digest.eat_u64(c.writer.digest());
    out.add("commit_p50_ms", nearest_rank(&commit_ms, 0.5));
    out.add("commit_max_ms", nearest_rank(&commit_ms, 1.0));
    out.add("disk_bytes", dir_bytes(store) as f64);
    drop(c);
    std::fs::remove_dir_all(store).ok();
    out
}
