//! The three `RagSystem` workloads: `doc_qa` (one small index per document,
//! four questions each) and `ask_dense` / `ask_bm25` (one corpus-wide index,
//! many questions). One round is the whole workload from nothing.

use crate::replay::{self, Parts};
use crate::trace::{Recorder, NO_OP};
use crate::{alloc, secs, RoundOut};
use sage::corpus::datasets::{narrativeqa, triviaqa};
use sage::prelude::*;
use std::time::Instant;

/// Shape of one `RagSystem` workload.
pub struct RagSpec {
    /// Hashed dense retriever over a flat index, or BM25.
    pub dense: bool,
    /// Documents generated.
    pub docs: usize,
    /// `true`: NarrativeQA analog, one index per document, `questions` asked
    /// of each. `false`: TriviaQA analog, one index, `questions` in total.
    pub per_doc: bool,
    pub questions: usize,
}

struct Unit {
    corpus: Vec<String>,
    tasks: Vec<QaItem>,
}

fn generate(spec: &RagSpec, seed: u64) -> Vec<Unit> {
    if spec.per_doc {
        let ds = narrativeqa::generate(SizeConfig {
            num_docs: spec.docs,
            questions_per_doc: spec.questions,
            seed,
        });
        let mut units: Vec<Unit> = ds
            .documents
            .iter()
            .map(|d| Unit { corpus: vec![d.text()], tasks: Vec::new() })
            .collect();
        for t in ds.tasks {
            units[t.doc].tasks.push(t.item);
        }
        units
    } else {
        let ds = triviaqa::generate(SizeConfig { num_docs: spec.docs, questions_per_doc: 1, seed });
        let corpus = ds.documents.iter().map(|d| d.text()).collect();
        // Questions spread evenly over the corpus, so hits land all over
        // the index.
        let n = spec.questions.min(ds.tasks.len());
        let tasks = (0..n).map(|i| ds.tasks[i * ds.tasks.len() / n].item.clone()).collect();
        vec![Unit { corpus, tasks }]
    }
}

struct Built {
    sys: RagSystem,
    /// The layer-by-layer twin of `sys` (traced run only).
    parts: Option<Parts>,
}

fn build_unit(
    rec: &mut Recorder,
    op: u32,
    spec: &RagSpec,
    models: &TrainedModels,
    unit: &Unit,
    out: &mut RoundOut,
) -> Built {
    let kind = if spec.dense { RetrieverKind::OpenAiSim } else { RetrieverKind::Bm25 };
    let (sys, took) = rec.time("build", op, || {
        RagSystem::build(models, kind, SageConfig::sage(), LlmProfile::gpt4o_mini(), &unit.corpus)
    });
    let stats = *sys.build_stats();
    out.ingested(took, stats.corpus_tokens as u64);
    let parts = rec.recording().then(|| {
        let parts = replay::build(rec, op, models, spec.dense, SageConfig::sage(), &unit.corpus);
        out.add("systems", 1.0);
        out.add("chunks", parts.chunks.len() as f64);
        out.add("seg_tokens", stats.corpus_tokens as f64);
        out.add("index_bytes", parts.index_bytes() as f64);
        out.add("resident_bytes", stats.memory_bytes as f64);
        if parts.chunks.len() != stats.chunk_count {
            // The replay segmented differently from the pipeline.
            out.failed += 1;
        }
        parts
    });
    Built { sys, parts }
}

fn ask(rec: &mut Recorder, op: u32, built: &Built, task: &QaItem, out: &mut RoundOut) {
    let open = rec.enter("query", op);
    let res = built.sys.try_answer_open(&task.question);
    let took = rec.exit(open);
    out.attempted += 1;
    out.answered(took);
    let Ok(r) = res else {
        out.failed += 1;
        return;
    };
    out.f1_sum += f64::from(f1_match(&r.answer.text, &task.answers));
    out.llm_tokens += r.cost.total_tokens();
    out.digest.eat(r.answer.text.as_bytes());
    for &id in &r.selected {
        out.digest.eat_u64(id as u64);
    }
    let Some(parts) = &built.parts else { return };
    let rep = replay::query(rec, op, parts, &task.question);
    let same = rep.answer == r.answer.text && rep.selected == r.selected && rep.cost == r.cost;
    out.add("replayed", 1.0);
    out.add("replay_matches", f64::from(u8::from(same)));
    out.add("vectors_scanned", parts.vectors() as f64);
    out.add("pairs", rep.pairs as f64);
    out.add("selected_k", r.selected.len() as f64);
    out.add("reads", rep.reads as f64);
    out.add("feedbacks", rep.feedbacks as f64);
    out.add("input_tokens", r.cost.input_tokens as f64);
    out.add("output_tokens", r.cost.output_tokens as f64);
    out.add("sim_latency_s", secs(r.answer_latency + r.feedback_latency));
}

/// The traced run's side passes over an already built system, all untraced
/// and each over every third question: a plain pass (what tracing and
/// replay cost, allocations per query), a pass with the telemetry hub
/// attached, and a two-worker batch.
fn side_passes(built: &mut Built, tasks: &[QaItem], out: &mut RoundOut) {
    let tasks: Vec<&QaItem> = tasks.iter().step_by(3).collect();
    let pass = |sys: &RagSystem, each: &mut dyn FnMut(f64)| {
        for task in &tasks {
            let t = Instant::now();
            let res = sys.try_answer_open(&task.question);
            each(secs(t.elapsed()));
            std::hint::black_box(&res);
        }
    };
    let (allocs0, bytes0) = alloc::alloc_counts();
    let mut plain_s = 0.0;
    pass(&built.sys, &mut |s| plain_s += s);
    let (allocs1, bytes1) = alloc::alloc_counts();
    out.add("plain_query_s", plain_s);
    out.add("plain_queries", tasks.len() as f64);
    out.add("allocs", (allocs1 - allocs0) as f64);
    out.add("alloc_bytes", (bytes1 - bytes0) as f64);

    built.sys.enable_telemetry();
    let mut tel_s = 0.0;
    pass(&built.sys, &mut |s| tel_s += s);
    built.sys.disable_telemetry();
    sage::telemetry::set_enabled(false);
    out.add("telemetry_query_s", tel_s);

    let questions: Vec<String> = tasks.iter().map(|t| t.question.clone()).collect();
    let t = Instant::now();
    let results = built.sys.try_answer_batch(&questions, 2);
    out.add("batch_s", secs(t.elapsed()));
    out.add("batch_queries", results.iter().filter(|r| r.is_ok()).count() as f64);
}

pub fn round(spec: &RagSpec, seed: u64, rec: &mut Recorder) -> RoundOut {
    let mut out = RoundOut::new();
    let (models, took) = rec.time("train", NO_OP, || TrainedModels::train(TrainBudget::default()));
    out.ran(took);
    let (units, took) = rec.time("generate", NO_OP, || generate(spec, seed));
    out.ran(took);
    // A corpus-wide index is part of set-up; per-document indexes are part
    // of the pass, built right before their questions.
    let mut ready =
        (!spec.per_doc).then(|| build_unit(rec, NO_OP, spec, &models, &units[0], &mut out));
    out.start_pass();

    let mut op = 0u32;
    for (u, unit) in units.iter().enumerate() {
        let mut built = match ready.take() {
            Some(b) => b,
            None => build_unit(rec, u as u32, spec, &models, unit, &mut out),
        };
        for task in &unit.tasks {
            ask(rec, op, &built, task, &mut out);
            op += 1;
        }
        if rec.recording() {
            side_passes(&mut built, &unit.tasks, &mut out);
        }
    }
    out
}
