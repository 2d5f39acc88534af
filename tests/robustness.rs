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
    let r = system.answer_open("Where does anyone live?");
    assert_eq!(r.answer.text, "unanswerable");
    assert!(r.selected.is_empty());
}

#[test]
fn empty_string_document() {
    let system = build(&[String::new()]);
    let r = system.answer_open("Anything?");
    assert_eq!(r.answer.text, "unanswerable");
}

#[test]
fn single_sentence_corpus() {
    let system = build(&["Whiskers has bright green eyes.".to_string()]);
    let r = system.answer_open("What is the color of Whiskers's eyes?");
    assert!(r.answer.text.contains("green"), "got {:?}", r.answer.text);
}

#[test]
fn empty_question() {
    let system = build(&["Some perfectly ordinary corpus text. It has sentences.".to_string()]);
    let r = system.answer_open("");
    assert_eq!(r.answer.text, "unanswerable");
}

#[test]
fn punctuation_only_question() {
    let system = build(&["Some corpus text lives here.".to_string()]);
    let r = system.answer_open("???!!!...");
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
    let r = system.answer_open("What is the color of Ünïcøde Čát's eyes?");
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
    let r = system.answer_open("Where does Dorinwick live?");
    assert!(r.answer.text.contains("ashford"), "got {:?}", r.answer.text);
}

#[test]
fn multiple_choice_with_one_option() {
    let system = build(&["Whiskers has bright green eyes.".to_string()]);
    let options = vec!["green".to_string()];
    let r = system.answer_multiple_choice("What color are Whiskers's eyes?", &options);
    assert_eq!(r.picked_option, Some(0));
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
    let r = system.answer_open("What does the paragraph say?");
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
    let r = system.answer_with_chunks(
        "What is the color of Whiskers's eyes?",
        &[patchy_chunk],
        None,
    );
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
        let r = system.answer_open("What is the color of Whiskers's eyes?");
        assert!(!r.answer.text.is_empty(), "{} returned empty", profile.name);
    }
}

#[test]
fn incremental_add_documents_extends_retrieval() {
    let mut system = build(&["Whiskers is a tabby cat. He has bright green eyes.".to_string()]);
    let before = system.build_stats().chunk_count;
    let miss = system.answer_open("Where does Dorinwick live?");
    assert_eq!(miss.answer.text, "unanswerable");
    system.add_documents(
        models(),
        &["Dorinwick was well known in the region. He lives in Ashford.".to_string()],
    );
    assert!(system.build_stats().chunk_count > before);
    let hit = system.answer_open("Where does Dorinwick live?");
    assert!(hit.answer.text.contains("ashford"), "got {:?}", hit.answer.text);
    // Old content still answerable.
    let old = system.answer_open("What is the color of Whiskers's eyes?");
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

fn resilient(plan: FaultPlan, use_hnsw: bool) -> RagSystem {
    let mut system = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &fault_corpus(),
    );
    system.enable_resilience(ResilienceConfig { plan, use_hnsw });
    system
}

const EYES_Q: &str = "What is the color of Whiskers's eyes?";

#[test]
fn embedder_fault_degrades_to_bm25() {
    let system = resilient(FaultPlan::failing(Component::Embedder, FaultKind::Transient), false);
    let r = system.answer_open(EYES_Q);
    assert!(r.degraded.fired(Fallback::DenseToBm25), "trace: {:?}", r.degraded);
    assert!(r.answer.text.contains("green"), "BM25 fallback answered: {:?}", r.answer.text);
}

#[test]
fn flat_search_fault_degrades_to_bm25_with_virtual_delay() {
    let system = resilient(FaultPlan::failing(Component::IndexSearch, FaultKind::Timeout), false);
    let r = system.answer_open(EYES_Q);
    assert!(r.degraded.fired(Fallback::DenseToBm25), "trace: {:?}", r.degraded);
    assert!(
        r.degraded.total_delay() > std::time::Duration::ZERO,
        "timeouts charge virtual time"
    );
    assert!(r.answer.text.contains("green"), "got {:?}", r.answer.text);
}

#[test]
fn hnsw_fault_degrades_to_flat_and_batch_completes() {
    // Acceptance: a plan injecting 100% vector-index faults with the ANN
    // tier enabled must complete a whole batch via the exact flat scan —
    // zero panics, every answer intact.
    let system = resilient(FaultPlan::failing(Component::IndexSearch, FaultKind::Transient), true);
    let questions: Vec<String> = vec![
        EYES_Q.into(),
        "Where does Dorinwick live?".into(),
        "What is Dorinwick's profession?".into(),
    ];
    let results: Vec<QueryResult> = system
        .try_answer_batch(&questions, 2)
        .into_iter()
        .map(|r| r.expect("the flat tier absorbs every fault"))
        .collect();
    assert_eq!(results.len(), questions.len());
    for r in &results {
        assert!(r.degraded.fired(Fallback::HnswToFlat), "trace: {:?}", r.degraded);
        assert!(!r.degraded.fired(Fallback::DenseToBm25), "flat tier must absorb the failure");
    }
    assert!(results[0].answer.text.contains("green"), "got {:?}", results[0].answer.text);
    assert!(results[1].answer.text.contains("ashford"), "got {:?}", results[1].answer.text);
    let counters = system.fallback_counters().expect("resilience on");
    assert!(counters.contains(&("hnsw->flat", questions.len() as u64)), "{counters:?}");
}

// ---------------------------------------------------------------------------
// Shard-loss drills: a sharded system losing m of N fault domains must keep
// serving from the survivors (with the documented `shard-partial:m/N` rung
// in both the per-query trace and the substrate counters) for every m the
// quorum tolerates, and walk the BM25/flat fallback chain below quorum.
// ---------------------------------------------------------------------------

/// A fault plan that deterministically kills shards `0..m` (both the probe
/// and the hedge time out on every attempt).
fn kill_shards(m: u32) -> FaultPlan {
    let mut plan = FaultPlan::seeded(9);
    for s in 0..m {
        plan = plan.with_shard(s, Rates { timeout: 1.0, ..Rates::default() });
    }
    plan
}

#[test]
fn shard_loss_drill_serves_survivors_at_every_tolerable_m() {
    use sage::telemetry::metrics::{SHARD_LOST, SHARD_PARTIAL_SERVES};
    // N=4 with an explicit quorum of 2: losing 1 or 2 shards must serve
    // partial results; the rung documents exactly how many died.
    for m in 1..=2u32 {
        let mut system = resilient(kill_shards(m), false);
        system.enable_telemetry();
        system.enable_sharding(4, Some(2));
        let partial0 = SHARD_PARTIAL_SERVES.get();
        let lost0 = SHARD_LOST.get();
        let r = system.answer_open(EYES_Q);
        let rung = format!("shard-partial:{m}/4");
        assert!(
            r.degraded.events.iter().any(|e| e.fallback.to_string() == rung),
            "m={m}: expected {rung} in trace {:?}",
            r.degraded
        );
        assert!(!r.answer.text.is_empty(), "m={m}: survivors must still serve an answer");
        assert!(
            SHARD_PARTIAL_SERVES.get() > partial0,
            "m={m}: partial serve must hit the substrate counter"
        );
        assert!(
            SHARD_LOST.get() >= lost0 + u64::from(m),
            "m={m}: every dead shard must be counted lost"
        );
    }
}

#[test]
fn shard_loss_below_quorum_walks_the_fallback_chain() {
    use sage::telemetry::metrics::SHARD_QUORUM_FAILURES;
    // 3 of 4 shards dead with quorum 2: one survivor is not enough, so the
    // dense primary leaves the shard path for BM25 — which still answers.
    let mut system = resilient(kill_shards(3), false);
    system.enable_telemetry();
    system.enable_sharding(4, Some(2));
    let q0 = SHARD_QUORUM_FAILURES.get();
    let r = system.answer_open(EYES_Q);
    assert!(r.degraded.fired(Fallback::DenseToBm25), "trace: {:?}", r.degraded);
    assert!(r.answer.text.contains("green"), "BM25 fallback answered: {:?}", r.answer.text);
    assert!(SHARD_QUORUM_FAILURES.get() > q0, "quorum failure must hit the substrate counter");
}

#[test]
fn reranker_fault_degrades_to_retrieval_order() {
    let system = resilient(FaultPlan::failing(Component::Reranker, FaultKind::Corrupt), false);
    let r = system.answer_open(EYES_Q);
    assert!(r.degraded.fired(Fallback::RerankToRetrievalOrder), "trace: {:?}", r.degraded);
    assert!(r.answer.text.contains("green"), "retrieval order sufficed: {:?}", r.answer.text);
}

#[test]
fn reader_fault_exhausts_to_unanswerable() {
    let system = resilient(FaultPlan::failing(Component::Reader, FaultKind::Transient), false);
    let r = system.answer_open(EYES_Q);
    assert!(r.degraded.fired(Fallback::ReaderSecondBest), "trace: {:?}", r.degraded);
    assert!(r.degraded.fired(Fallback::ReaderUnanswerable), "trace: {:?}", r.degraded);
    assert_eq!(r.answer.text, "unanswerable");
    assert!(r.selected.is_empty());
}

#[test]
fn partial_reader_faults_recover_via_retry() {
    // At 40% transient rate most questions recover within the retry
    // budget; whatever happens, no panic and a well-formed answer.
    let plan = FaultPlan::seeded(11)
        .with(Component::Reader, Rates { transient: 0.4, ..Rates::default() });
    let system = resilient(plan, false);
    for q in [EYES_Q, "Where does Dorinwick live?", "What animal is Patchy?"] {
        let r = system.answer_open(q);
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
    let system = resilient(plan, false);
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
            assert_eq!(r.answer.text, clean.answer_open(q).answer.text, "{q}");
        }
    }
    let counters = system.fallback_counters().expect("resilience on");
    assert!(
        counters.iter().any(|(label, n)| *label == "panic-isolated" && *n >= errs as u64),
        "{counters:?}"
    );
}

#[test]
fn multi_component_storm_still_serves() {
    // Everything failing at once (short of panics): the chain bottoms out
    // at BM25 + retrieval order + unanswerable, and never panics.
    let plan = FaultPlan::seeded(3)
        .with(Component::Embedder, Rates { transient: 1.0, ..Rates::default() })
        .with(Component::Reranker, Rates { corrupt: 1.0, ..Rates::default() })
        .with(Component::Reader, Rates { timeout: 1.0, ..Rates::default() });
    let system = resilient(plan, false);
    let r = system.answer_open(EYES_Q);
    assert!(r.degraded.fired(Fallback::DenseToBm25));
    assert!(r.degraded.fired(Fallback::RerankToRetrievalOrder));
    assert!(r.degraded.fired(Fallback::ReaderUnanswerable));
    assert_eq!(r.answer.text, "unanswerable");
}

// ---------------------------------------------------------------------------
// Overload robustness: admission control on the batch path, and the
// deterministic soak harness (with and without injected faults).
// ---------------------------------------------------------------------------

fn soak_questions() -> Vec<String> {
    vec![
        EYES_Q.into(),
        "Where does Dorinwick live?".into(),
        "What animal is Patchy?".into(),
    ]
}

#[test]
fn batch_admission_sheds_deterministically_and_reports() {
    // Capacity below the wave size: every wave admits `capacity` queries
    // and hard-sheds the rest, deterministically.
    let run = || {
        let mut system = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &fault_corpus(),
        );
        system.enable_resilience(ResilienceConfig::default());
        system.enable_admission(AdmissionConfig { capacity: 2, seed: 9, ..Default::default() });
        let questions: Vec<String> = soak_questions()
            .into_iter()
            .cycle()
            .take(8)
            .collect();
        let results = system.try_answer_batch(&questions, 4);
        let outcome: Vec<Result<String, String>> = results
            .iter()
            .map(|r| match r {
                Ok(ok) => Ok(ok.answer.text.clone()),
                Err(e) => Err(e.to_string()),
            })
            .collect();
        let report = system.admission_report().expect("admission on");
        (outcome, report)
    };
    let (outcome_a, report_a) = run();
    let (outcome_b, report_b) = run();
    assert_eq!(outcome_a, outcome_b, "admission decisions must replay identically");
    assert_eq!(report_a, report_b);

    let shed = outcome_a.iter().filter(|r| r.is_err()).count();
    let served = outcome_a.iter().filter(|r| r.is_ok()).count();
    assert!(shed > 0, "capacity 2 with waves of 4 must shed: {outcome_a:?}");
    assert!(served > 0, "admitted queries must still answer");
    for r in &outcome_a {
        if let Err(e) = r {
            assert!(e.contains("shed by admission control"), "unexpected error: {e}");
        }
    }
    let (admitted, by_class) = report_a;
    assert_eq!(admitted as usize, served);
    assert_eq!(
        by_class.iter().map(|(_, n)| *n).sum::<u64>() as usize,
        shed,
        "shed counts must reconcile with results: {by_class:?}"
    );
    assert!(by_class.iter().all(|(label, _)| *label == "batch"), "{by_class:?}");

    // The resilience counters saw the sheds too.
    let mut system = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &fault_corpus(),
    );
    system.enable_resilience(ResilienceConfig::default());
    system.enable_admission(AdmissionConfig { capacity: 2, seed: 9, ..Default::default() });
    let questions: Vec<String> = soak_questions().into_iter().cycle().take(8).collect();
    let _ = system.try_answer_batch(&questions, 4);
    let counters = system.fallback_counters().expect("resilience on");
    assert!(
        counters.iter().any(|(label, n)| *label == "shed" && *n as usize == shed),
        "{counters:?}"
    );
}

#[test]
fn batch_without_admission_is_unchanged() {
    // The admission queue is opt-in: the default batch path admits
    // everything and matches serial answers (and zero-pressure batches
    // through an ample queue behave identically).
    let questions = soak_questions();
    let plain = build(&fault_corpus());
    let serial: Vec<String> =
        questions.iter().map(|q| plain.answer_open(q).answer.text).collect();
    let mut gated = build(&fault_corpus());
    gated.enable_admission(AdmissionConfig::default());
    let batch: Vec<String> = gated
        .try_answer_batch(&questions, 2)
        .into_iter()
        .map(|r| r.expect("ample capacity must admit everything").answer.text)
        .collect();
    assert_eq!(batch, serial);
    let (admitted, shed) = gated.admission_report().expect("admission on");
    assert_eq!(admitted as usize, questions.len());
    assert!(shed.is_empty(), "zero-pressure batch shed something: {shed:?}");
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
        system.enable_resilience(ResilienceConfig { plan, ..ResilienceConfig::default() });
        run_soak(&system, &soak_questions(), &cfg)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "faulted soak must replay bit-for-bit");
    assert_eq!(a.panics, 0, "log: {:?}", a.log);
    assert!(a.completed > 0);
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
        assert_eq!(r.panics, 0);
        assert!(r.completed > 0, "log: {:?}", r.log);
        r.brownout.iter().enumerate().map(|(idx, n)| idx as u64 * n).sum::<u64>()
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
        questions.iter().map(|q| system.answer_open(q).answer.text).collect();
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
