//! Failure-injection and edge-case tests: the system must degrade
//! gracefully — never panic — on degenerate corpora, degenerate questions,
//! and unusual configurations.

use sage::prelude::*;
use std::sync::OnceLock;

fn models() -> &'static TrainedModels {
    static M: OnceLock<TrainedModels> = OnceLock::new();
    M.get_or_init(|| TrainedModels::train(TrainBudget::tiny()))
}

fn build(corpus: &[String]) -> RagSystem {
    RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        corpus,
    )
}

#[test]
fn empty_corpus_answers_unanswerable() {
    let system = build(&[]);
    assert_eq!(system.build_stats().chunk_count, 0);
    let r = system.answer(&Request::new("Where does anyone live?")).unwrap();
    assert_eq!(r.answer.text, "unanswerable");
    assert!(r.selected.is_empty());
}

#[test]
fn empty_string_document() {
    let system = build(&[String::new()]);
    let r = system.answer(&Request::new("Anything?")).unwrap();
    assert_eq!(r.answer.text, "unanswerable");
}

#[test]
fn single_sentence_corpus() {
    let system = build(&["Whiskers has bright green eyes.".to_string()]);
    let r = system.answer(&Request::new("What is the color of Whiskers's eyes?")).unwrap();
    assert!(r.answer.text.contains("green"), "got {:?}", r.answer.text);
}

#[test]
fn empty_question() {
    let system = build(&["Some perfectly ordinary corpus text. It has sentences.".to_string()]);
    let r = system.answer(&Request::new("")).unwrap();
    assert_eq!(r.answer.text, "unanswerable");
}

#[test]
fn punctuation_only_question() {
    let system = build(&["Some corpus text lives here.".to_string()]);
    let r = system.answer(&Request::new("???!!!...")).unwrap();
    assert_eq!(r.answer.text, "unanswerable");
}

#[test]
fn unicode_text_survives_the_pipeline() {
    let corpus = vec![
        "Ünïcøde Čát is a playful tabby cat. He has bright green eyes. \
         日本語のテキストも入っています。\nThe fog settled over the valley."
            .to_string(),
    ];
    let system = build(&corpus);
    let r = system.answer(&Request::new("What is the color of Ünïcøde Čát's eyes?")).unwrap();
    // Must not panic; answering correctly is a bonus (the tokenizer
    // lowercases unicode correctly, so it usually does).
    assert!(!r.answer.text.is_empty());
}

#[test]
fn very_long_single_paragraph_is_bounded_by_coarse_cap() {
    // A paragraph-free wall of text must still be cut into <= l-token
    // chunks by the coarse cap inside the semantic segmenter.
    let mut text = String::new();
    for i in 0..400 {
        text.push_str(&format!("Sentence number {i} rolls on through the long text. "));
    }
    let system = build(&[text]);
    let stats = system.build_stats();
    assert!(stats.chunk_count >= 3, "coarse cap must split: {} chunks", stats.chunk_count);
    for chunk in system.chunks() {
        assert!(
            sage::text::count_tokens(chunk) <= 500,
            "chunk exceeds the coarse budget: {} tokens",
            sage::text::count_tokens(chunk)
        );
    }
}

#[test]
fn duplicate_documents_do_not_break_retrieval() {
    let doc = "Dorinwick was well known in the region. He lives in Ashford.".to_string();
    let system = build(&[doc.clone(), doc.clone(), doc]);
    let r = system.answer(&Request::new("Where does Dorinwick live?")).unwrap();
    assert!(r.answer.text.contains("ashford"), "got {:?}", r.answer.text);
}

#[test]
fn multiple_choice_with_one_option() {
    let system = build(&["Whiskers has bright green eyes.".to_string()]);
    let options = vec!["green".to_string()];
    let question = "What color are Whiskers's eyes?";
    let r = system.answer(&Request { options: Some(&options), ..Request::new(question) }).unwrap();
    assert_eq!(r.picked_option, Some(0));
}

#[test]
fn multiple_choice_with_no_options_is_unanswerable_without_a_read() {
    let system = build(&["Whiskers has bright green eyes.".to_string()]);
    let q = "What is the color of Whiskers's eyes?";
    let r = system.answer(&Request { options: Some(&[]), ..Request::new(q) }).unwrap();
    assert_eq!(r.answer.text, "unanswerable");
    assert_eq!(r.picked_option, None);
    assert!(r.selected.is_empty());
    assert_eq!(r.cost.total_tokens(), 0);
    assert_eq!(r.feedback_rounds, 0);
    assert!(r.degraded.is_clean());
    assert_eq!(system.fallback_counters(), Vec::new(), "no panic isolated, no fallback fired");
}

#[test]
fn min_k_larger_than_chunk_count() {
    let corpus = vec!["One short paragraph only. It has two sentences.".to_string()];
    let system = RagSystem::build(
        models(),
        RetrieverKind::Bm25,
        SageConfig { min_k: 50, ..SageConfig::sage() },
        LlmProfile::gpt4o_mini(),
        &corpus,
    );
    let r = system.answer(&Request::new("What does the paragraph say?")).unwrap();
    assert!(r.selected.len() <= system.chunks().len());
}

#[test]
fn answer_with_chunks_respects_explicit_ids() {
    let corpus = vec![
        "Whiskers is a playful tabby cat. He has bright green eyes.\n\
         Patchy is a ferret. Patchy has bright orange eyes."
            .to_string(),
    ];
    let system = build(&corpus);
    // Force the distractor-only context: the reader must not see "green".
    let patchy_chunk = system
        .chunks()
        .iter()
        .position(|c| c.contains("Patchy"))
        .expect("patchy chunk");
    let question = "What is the color of Whiskers's eyes?";
    let ids = [patchy_chunk];
    let r = system.answer(&Request { chunks: Some(&ids), ..Request::new(question) }).unwrap();
    assert!(
        !r.answer.text.contains("green"),
        "answer must come only from the provided chunk: {:?}",
        r.answer.text
    );
    assert_eq!(r.selected, vec![patchy_chunk]);
}

#[test]
fn candidates_are_consistent_with_answering() {
    let corpus = vec![
        "Dorinwick was well known in the region. He lives in Ashford.\n\
         The fog settled over the valley, as it had for years."
            .to_string(),
    ];
    let system = build(&corpus);
    let (cand_ids, ranked) = system.candidates("Where does Dorinwick live?");
    assert_eq!(cand_ids.len(), ranked.len().max(cand_ids.len()));
    assert!(!ranked.is_empty());
    // Ranked scores descending; positions index into cand_ids.
    for w in ranked.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
    let top_chunk = cand_ids[ranked[0].index];
    assert!(system.chunks()[top_chunk].contains("Dorinwick"));
}

#[test]
fn all_llm_profiles_run_the_full_pipeline() {
    let corpus = vec!["Whiskers is a tabby cat. He has bright green eyes.".to_string()];
    for profile in [
        LlmProfile::gpt4(),
        LlmProfile::gpt4o_mini(),
        LlmProfile::gpt35_turbo(),
        LlmProfile::unifiedqa_3b(),
    ] {
        let system = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            profile,
            &corpus,
        );
        let r = system.answer(&Request::new("What is the color of Whiskers's eyes?")).unwrap();
        assert!(!r.answer.text.is_empty(), "{} returned empty", profile.name);
    }
}

#[test]
fn incremental_add_documents_extends_retrieval() {
    let mut system = build(&["Whiskers is a tabby cat. He has bright green eyes.".to_string()]);
    let before = system.build_stats().chunk_count;
    let miss = system.answer(&Request::new("Where does Dorinwick live?")).unwrap();
    assert_eq!(miss.answer.text, "unanswerable");
    system.add_documents(
        models(),
        &["Dorinwick was well known in the region. He lives in Ashford.".to_string()],
    );
    assert!(system.build_stats().chunk_count > before);
    let hit = system.answer(&Request::new("Where does Dorinwick live?")).unwrap();
    assert!(hit.answer.text.contains("ashford"), "got {:?}", hit.answer.text);
    // Old content still answerable.
    let old = system.answer(&Request::new("What is the color of Whiskers's eyes?")).unwrap();
    assert!(old.answer.text.contains("green"));
}

// ---------------------------------------------------------------------------
// Fault matrix: each single-component fault plan must produce an answer via
// its documented fallback, visible in `QueryResult::degraded`.
// ---------------------------------------------------------------------------

fn fault_corpus() -> Vec<String> {
    vec![
        "Whiskers is a playful tabby cat. He has bright green eyes. His fur is mostly gray.\n\
         The morning fog settled over the valley, as it had for many years.\n\
         Patchy is a ferret with a stubborn streak. Patchy has bright orange eyes.\n\
         Dorinwick was well known in the region. He lives in Ashford. He works as a baker."
            .to_string(),
    ]
}

fn resilient(plan: FaultPlan) -> RagSystem {
    let mut system = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &fault_corpus(),
    );
    system.set_faults(plan);
    system
}

const EYES_Q: &str = "What is the color of Whiskers's eyes?";

#[test]
fn embedder_fault_degrades_to_bm25() {
    let system = resilient(FaultPlan::failing(Component::Embedder, FaultKind::Transient));
    let r = system.answer(&Request::new(EYES_Q)).unwrap();
    assert!(r.degraded.fired(Fallback::DenseToBm25), "trace: {:?}", r.degraded);
    assert!(r.answer.text.contains("green"), "BM25 fallback answered: {:?}", r.answer.text);
}

#[test]
fn flat_search_fault_degrades_to_bm25_with_virtual_delay() {
    let system = resilient(FaultPlan::failing(Component::IndexSearch, FaultKind::Timeout));
    let r = system.answer(&Request::new(EYES_Q)).unwrap();
    assert!(r.degraded.fired(Fallback::DenseToBm25), "trace: {:?}", r.degraded);
    assert!(
        r.degraded.total_delay() > std::time::Duration::ZERO,
        "timeouts charge virtual time"
    );
    assert!(r.answer.text.contains("green"), "got {:?}", r.answer.text);
}

#[test]
fn index_fault_degrades_to_bm25_and_batch_completes() {
    // Acceptance: a plan injecting 100% vector-index faults must complete
    // a whole batch via the BM25 tier — zero panics, every answer intact.
    let system = resilient(FaultPlan::failing(Component::IndexSearch, FaultKind::Transient));
    let questions: Vec<String> = vec![
        EYES_Q.into(),
        "Where does Dorinwick live?".into(),
        "What is Dorinwick's profession?".into(),
    ];
    let results: Vec<QueryResult> = system
        .try_answer_batch(&questions, 2)
        .into_iter()
        .map(|r| r.expect("the BM25 tier absorbs every fault"))
        .collect();
    assert_eq!(results.len(), questions.len());
    for r in &results {
        assert!(r.degraded.fired(Fallback::DenseToBm25), "trace: {:?}", r.degraded);
    }
    assert!(results[0].answer.text.contains("green"), "got {:?}", results[0].answer.text);
    assert!(results[1].answer.text.contains("ashford"), "got {:?}", results[1].answer.text);
    let counters = system.fallback_counters();
    assert!(counters.contains(&("dense->bm25", questions.len() as u64)), "{counters:?}");
}

#[test]
fn the_bm25_fallback_tier_follows_add_documents() {
    // The tier is built on the first dense->bm25 fallback; a question about
    // a document added afterwards must still reach that document's chunk.
    let mut system = resilient(FaultPlan::failing(Component::Embedder, FaultKind::Transient));
    let r = system.answer(&Request::new(EYES_Q)).unwrap();
    assert!(r.degraded.fired(Fallback::DenseToBm25), "trace: {:?}", r.degraded);
    let before = system.chunks().len();
    let heron = "Quillon is a heron. Quillon nests in Marrowfen.".to_string();
    system.add_documents(models(), &[heron]);
    let new_chunks: Vec<usize> = (before..system.chunks().len()).collect();
    assert!(!new_chunks.is_empty());
    let r = system.answer(&Request::new("Where does Quillon nest?")).unwrap();
    assert!(r.degraded.fired(Fallback::DenseToBm25), "trace: {:?}", r.degraded);
    assert!(r.selected.iter().any(|id| new_chunks.contains(id)), "selected {:?}", r.selected);
    assert!(r.answer.text.contains("marrowfen"), "got {:?}", r.answer.text);
}

#[test]
fn reranker_fault_degrades_to_retrieval_order() {
    let system = resilient(FaultPlan::failing(Component::Reranker, FaultKind::Corrupt));
    let r = system.answer(&Request::new(EYES_Q)).unwrap();
    assert!(r.degraded.fired(Fallback::RerankToRetrievalOrder), "trace: {:?}", r.degraded);
    assert!(r.answer.text.contains("green"), "retrieval order sufficed: {:?}", r.answer.text);
}

#[test]
fn reader_fault_exhausts_to_unanswerable() {
    let system = resilient(FaultPlan::failing(Component::Reader, FaultKind::Transient));
    let r = system.answer(&Request::new(EYES_Q)).unwrap();
    assert!(r.degraded.fired(Fallback::ReaderSecondBest), "trace: {:?}", r.degraded);
    assert!(r.degraded.fired(Fallback::ReaderUnanswerable), "trace: {:?}", r.degraded);
    assert_eq!(r.answer.text, "unanswerable");
    assert!(r.selected.is_empty());
}

#[test]
fn a_dead_reader_degrades_through_a_pinned_trace() {
    // Every attempt fails: the primary read spends its three attempts, the
    // second-best read fails twice more, and the fifth consecutive failure
    // makes the reader fail fast on the third. Each event's delay is the
    // virtual backoff (plus 500 ms per timeout) charged on that boundary.
    use std::time::Duration;
    let failed = SageError::ComponentFailed { component: Component::Reader, attempts: 3 };
    let open = SageError::CircuitOpen { component: Component::Reader };
    for (spec, delays) in [
        ("reader=transient:1.0", [126_606_392, 124_933_799].map(Duration::from_nanos)),
        ("reader=timeout:1.0", [1_626_606_392, 1_124_933_799].map(Duration::from_nanos)),
    ] {
        let system = resilient(FaultPlan::parse_spec(spec, 0).unwrap());
        let r = system.answer(&Request::new(EYES_Q)).unwrap();
        let trace: Vec<(Fallback, SageError, u32, Duration)> = r
            .degraded
            .events
            .iter()
            .map(|e| (e.fallback, e.error.clone(), e.attempts, e.delay))
            .collect();
        assert_eq!(
            trace,
            vec![
                (Fallback::ReaderSecondBest, failed.clone(), 3, delays[0]),
                (Fallback::ReaderUnanswerable, open.clone(), 2, delays[1]),
            ],
            "{spec}"
        );
        assert!(r.degraded.events.iter().all(|e| e.component == Component::Reader), "{spec}");
        assert_eq!(r.answer.text, "unanswerable", "{spec}");
    }
}

#[test]
fn a_failed_fixed_context_read_has_no_second_best_set() {
    // A fixed context ranks nothing, so there is no second-best set to
    // fall back to: the failed read degrades straight to unanswerable,
    // and neither the reader nor the judge is billed for an empty context.
    let system = resilient(FaultPlan::failing(Component::Reader, FaultKind::Transient));
    let ids: Vec<usize> = (0..system.chunks().len()).collect();
    let r = system.answer(&Request { chunks: Some(&ids), ..Request::new(EYES_Q) }).unwrap();
    let labels: Vec<&str> = r.degraded.events.iter().map(|e| e.fallback.label()).collect();
    assert_eq!(labels, vec!["reader->unanswerable"]);
    assert_eq!(r.answer.text, "unanswerable");
    assert_eq!(r.cost, Cost::zero());
    assert_eq!(r.degraded.events[0].attempts, 3, "the primary read's failure");
}

#[test]
fn partial_reader_faults_recover_via_retry() {
    // At 40% transient rate most questions recover within the retry
    // budget; whatever happens, no panic and a well-formed answer.
    let plan = FaultPlan::seeded(11)
        .with(Component::Reader, Rates { transient: 0.4, ..Rates::default() });
    let system = resilient(plan);
    for q in [EYES_Q, "Where does Dorinwick live?", "What animal is Patchy?"] {
        let r = system.answer(&Request::new(q)).unwrap();
        assert!(!r.answer.text.is_empty(), "{q}");
    }
}

#[test]
fn injected_reader_panic_is_isolated_per_question() {
    // Acceptance: one question's reader panicking must not poison the
    // batch — the others answer normally, the poisoned one surfaces a
    // structured error.
    let plan = FaultPlan::seeded(5)
        .with(Component::Reader, Rates { panic: 0.5, ..Rates::default() });
    let questions: Vec<String> = vec![
        EYES_Q.into(),
        "Where does Dorinwick live?".into(),
        "What animal is Patchy?".into(),
        "What is Dorinwick's profession?".into(),
        "What color is Patchy's fur?".into(),
    ];
    let system = resilient(plan);
    let results = system.try_answer_batch(&questions, 3);
    assert_eq!(results.len(), questions.len());
    let oks = results.iter().filter(|r| r.is_ok()).count();
    let errs = results.iter().filter(|r| r.is_err()).count();
    assert!(oks > 0, "some questions must survive (adjust seed)");
    assert!(errs > 0, "some questions must panic (adjust seed)");
    for r in &results {
        if let Err(e) = r {
            assert!(
                matches!(e, SageError::Panicked { .. }),
                "panics must surface as structured errors: {e}"
            );
        }
    }
    // Surviving answers match a fault-free system (panic-only plans leave
    // non-panicking calls untouched).
    let clean = build(&fault_corpus());
    for (q, r) in questions.iter().zip(&results) {
        if let Ok(r) = r {
            assert_eq!(r.answer.text, clean.answer(&Request::new(q)).unwrap().answer.text, "{q}");
        }
    }
    let counters = system.fallback_counters();
    assert!(
        counters.iter().any(|(label, n)| *label == "panic-isolated" && *n >= errs as u64),
        "{counters:?}"
    );
}

#[test]
fn answer_reports_an_injected_reader_panic_as_an_error() {
    // The plan of `sage ask --faults reader=panic:1.0`: `answer` is the one
    // panic boundary, so the panic comes back as a structured error and is
    // counted once.
    let system = resilient(FaultPlan::parse_spec("reader=panic:1.0", 0).unwrap());
    let r = system.answer(&Request::new(EYES_Q));
    assert!(matches!(r, Err(SageError::Panicked { .. })), "{r:?}");
    assert_eq!(system.fallback_counters(), vec![("panic-isolated", 1)]);
}

#[test]
fn multi_component_storm_still_serves() {
    // Everything failing at once (short of panics): the chain bottoms out
    // at BM25 + retrieval order + unanswerable, and never panics.
    let plan = FaultPlan::seeded(3)
        .with(Component::Embedder, Rates { transient: 1.0, ..Rates::default() })
        .with(Component::Reranker, Rates { corrupt: 1.0, ..Rates::default() })
        .with(Component::Reader, Rates { timeout: 1.0, ..Rates::default() });
    let system = resilient(plan);
    let r = system.answer(&Request::new(EYES_Q)).unwrap();
    assert!(r.degraded.fired(Fallback::DenseToBm25));
    assert!(r.degraded.fired(Fallback::RerankToRetrievalOrder));
    assert!(r.degraded.fired(Fallback::ReaderUnanswerable));
    assert_eq!(r.answer.text, "unanswerable");
}

// ---------------------------------------------------------------------------
// Overload robustness: the deterministic soak harness (with and without
// injected faults).
// ---------------------------------------------------------------------------

fn soak_questions() -> Vec<String> {
    vec![
        EYES_Q.into(),
        "Where does Dorinwick live?".into(),
        "What animal is Patchy?".into(),
    ]
}

#[test]
fn soak_under_faults_never_panics_and_replays() {
    let cfg = SoakConfig {
        seed: 23,
        duration: std::time::Duration::from_secs(25),
        qps: 3.0,
        capacity: 6,
        concurrency: 2,
        ..SoakConfig::default()
    };
    let run = || {
        let plan = FaultPlan::seeded(17)
            .with(Component::Reader, Rates { transient: 0.3, ..Rates::default() })
            .with(Component::Reranker, Rates { corrupt: 0.2, ..Rates::default() });
        let mut system = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &fault_corpus(),
        );
        system.set_faults(plan);
        run_soak(&system, &soak_questions(), &cfg)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "faulted soak must replay bit-for-bit");
    assert_eq!(a.panics(), 0, "log: {:?}", a.log);
    assert!(a.completed() > 0);
    let violations = a.check_invariants(&cfg, 0.9);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn soak_brownout_mass_is_monotone_across_budgets() {
    // The harness-level ladder-monotonicity check: the same arrival
    // process replayed with a tighter per-query deadline must produce at
    // least as much total brownout (mass = sum of ladder-step indices over
    // completed queries), never less.
    let system = build(&fault_corpus());
    let base = SoakConfig {
        seed: 31,
        duration: std::time::Duration::from_secs(25),
        qps: 1.0,
        capacity: 8,
        concurrency: 2,
        ..SoakConfig::default()
    };
    let mass_at = |deadline: std::time::Duration| {
        // Field assignment instead of struct-update syntax: the latter
        // ICEs this toolchain on cross-crate associated-const array
        // lengths captured in a closure.
        let mut cfg = base;
        cfg.budget = Some(QueryBudget::new(deadline, 1_000_000));
        let r = run_soak(&system, &soak_questions(), &cfg);
        assert_eq!(r.panics(), 0);
        assert!(r.completed() > 0, "log: {:?}", r.log);
        r.brownout().iter().enumerate().map(|(idx, n)| idx as u64 * n).sum::<u64>()
    };
    let tight = mass_at(std::time::Duration::from_secs(4));
    let loose = mass_at(std::time::Duration::from_secs(60));
    assert!(
        tight >= loose,
        "tighter deadlines must brown out at least as much: tight {tight} vs loose {loose}"
    );
    assert!(tight > 0, "a 4s deadline cannot afford the full feedback loop");
    assert_eq!(loose, 0, "a 60s deadline should never brown out at 1 qps");
}

#[test]
fn try_answer_batch_matches_serial() {
    let system = build(&[
        "Whiskers is a tabby cat. He has bright green eyes.\n\
         Dorinwick was well known in the region. He lives in Ashford."
            .to_string(),
    ]);
    let questions: Vec<String> = vec![
        "What is the color of Whiskers's eyes?".into(),
        "Where does Dorinwick live?".into(),
        "What is Dorinwick's profession?".into(),
    ];
    let serial: Vec<String> =
        questions.iter().map(|q| system.answer(&Request::new(q)).unwrap().answer.text).collect();
    for workers in [1usize, 2, 8] {
        let batch: Vec<String> = system
            .try_answer_batch(&questions, workers)
            .into_iter()
            .map(|r| r.expect("no faults, no panics").answer.text)
            .collect();
        assert_eq!(batch, serial, "workers={workers}");
    }
    assert!(system.try_answer_batch(&[], 4).is_empty());
}

#[test]
fn batch_traces_land_in_input_order() {
    // Queries that finish at different times (one to three feedback
    // rounds, four threads) must still reach the trace ring in input
    // order: finalize runs on the caller's thread, not the workers'.
    use sage::corpus::datasets::{narrativeqa, SizeConfig};
    let ds = narrativeqa::generate(SizeConfig { num_docs: 2, questions_per_doc: 6, seed: 42 });
    let corpus: Vec<String> = ds.documents.iter().map(|d| d.text()).collect();
    let mut system = build(&corpus);
    let hub = system.enable_telemetry();
    let questions: Vec<String> = ds.tasks.iter().map(|t| t.item.question.clone()).collect();
    let results = system.try_answer_batch(&questions, 4);
    let rounds: Vec<usize> =
        results.iter().map(|r| r.as_ref().expect("no faults").feedback_rounds).collect();
    assert!(rounds.iter().any(|&r| r != rounds[0]), "queries must differ in length: {rounds:?}");
    let traces = hub.traces_jsonl();
    assert_eq!(traces.lines().count(), questions.len());
    for (line, q) in traces.lines().zip(&questions) {
        assert!(line.starts_with(&format!("{{\"trace\":\"{q}\"")), "{q} out of order: {line}");
    }
}

// ---------------------------------------------------------------------------
// Live corpus: torn and orphaned files are discarded, never served
// ---------------------------------------------------------------------------

mod live_corpus {
    use sage::core::live::{run_live_soak, CorpusWriter, LiveConfig, LiveError, LiveOp, LiveSoakConfig};
    use sage::resilience::{CrashPlan, CrashPoint};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sage_robust_live_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn uncommitted_segment_is_never_served() {
        let dir = scratch("uncommitted");
        let cfg = LiveConfig::default();
        let (mut w, _) = CorpusWriter::open(&dir, cfg).unwrap();
        w.commit(&[LiveOp::Upsert {
            doc_id: "keep".into(),
            text: "The committed document mentions zanzibar once.".into(),
        }])
        .unwrap();
        drop(w);

        // A crash after the segment rename but before the manifest commit:
        // the segment file is durable, but the epoch never committed.
        let plan = CrashPlan::always(CrashPoint::PreManifest);
        let (mut w, _) = CorpusWriter::open_with_crash_plan(&dir, cfg, plan).unwrap();
        let crashed = w.commit(&[LiveOp::Upsert {
            doc_id: "ghost".into(),
            text: "The ghost document mentions quixotic plans.".into(),
        }]);
        assert!(matches!(crashed, Err(LiveError::CrashInjected(CrashPoint::PreManifest))));
        drop(w);

        let (w, rec) = CorpusWriter::open(&dir, cfg).unwrap();
        assert_eq!(rec.epoch, 1);
        assert_eq!(rec.orphans_discarded, 1, "the unmanifested segment must be discarded");
        let snap = w.snapshot();
        assert!(snap.doc_fingerprint("ghost").is_none(), "uncommitted doc must not exist");
        assert!(snap.search("zanzibar", 3).iter().any(|h| h.doc_id == "keep"));
        // Dense search returns the nearest *committed* chunks for any query;
        // the uncommitted document must never be among them.
        assert!(snap.search("quixotic plans", 3).iter().all(|h| h.doc_id != "ghost"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_strays_are_swept_without_breaking_recovery() {
        let dir = scratch("garbage");
        let cfg = LiveConfig::default();
        let (mut w, _) = CorpusWriter::open(&dir, cfg).unwrap();
        w.commit(&[LiveOp::Upsert {
            doc_id: "doc".into(),
            text: "A perfectly healthy committed document.".into(),
        }])
        .unwrap();
        let digest = w.digest();
        drop(w);
        // Strays a real crash could leave: a torn tmp and unknown segments.
        std::fs::write(dir.join("seg-000002.sageseg.tmp"), b"half a write").unwrap();
        std::fs::write(dir.join("seg-000099.sageseg"), b"\x00\xFF garbage").unwrap();
        std::fs::write(dir.join("MANIFEST.sageman.tmp"), b"torn manifest rewrite").unwrap();
        let (w, rec) = CorpusWriter::open(&dir, cfg).unwrap();
        assert_eq!(rec.epoch, 1);
        assert_eq!(rec.orphans_discarded, 3);
        assert_eq!(w.digest(), digest, "strays must not perturb recovered state");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn soak_under_fault_plan_replays_byte_for_byte_with_zero_violations() {
        let (a, b) = (scratch("soak_a"), scratch("soak_b"));
        let cfg = LiveSoakConfig {
            commits: 10,
            crash: CrashPlan::seeded(3)
                .with(CrashPoint::PreRename, 0.3)
                .with(CrashPoint::PreManifest, 0.2),
            ..LiveSoakConfig::default()
        };
        let ra = run_live_soak(&a, &cfg).expect("soak a");
        let rb = run_live_soak(&b, &cfg).expect("soak b");
        assert_eq!(ra.violations, Vec::<String>::new());
        assert_eq!(ra.log, rb.log, "same seeds must replay byte-for-byte");
        assert_eq!(ra.final_digest, rb.final_digest);
        assert!(ra.crashes_injected > 0 && ra.recoveries == ra.crashes_injected);
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }
}
