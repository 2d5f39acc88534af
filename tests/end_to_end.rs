//! Cross-crate integration tests: datasets → pipeline → metrics, exercising
//! the public facade exactly as a downstream user would.

use sage::corpus::datasets::{narrativeqa, qasper, quality, SizeConfig};
use sage::prelude::*;
use std::sync::OnceLock;

fn models() -> &'static TrainedModels {
    static M: OnceLock<TrainedModels> = OnceLock::new();
    M.get_or_init(|| TrainedModels::train(TrainBudget::tiny()))
}

fn small() -> SizeConfig {
    SizeConfig { num_docs: 4, questions_per_doc: 3, seed: 0xE2E }
}

#[test]
fn sage_beats_naive_on_quality_accuracy() {
    let ds = quality::generate(small());
    let sage = evaluate(
        Method::Sage(RetrieverKind::OpenAiSim),
        models(),
        LlmProfile::gpt4o_mini(),
        &ds,
    );
    let naive = evaluate(
        Method::NaiveRag(RetrieverKind::OpenAiSim),
        models(),
        LlmProfile::gpt4o_mini(),
        &ds,
    );
    assert!(
        sage.accuracy >= naive.accuracy,
        "SAGE {} vs Naive {}",
        sage.accuracy,
        naive.accuracy
    );
    assert!(sage.accuracy > 0.5, "SAGE accuracy {} too low", sage.accuracy);
}

#[test]
fn sage_beats_naive_on_narrativeqa_rouge() {
    let ds = narrativeqa::generate(small());
    let sage = evaluate(
        Method::Sage(RetrieverKind::OpenAiSim),
        models(),
        LlmProfile::gpt4o_mini(),
        &ds,
    );
    let naive = evaluate(
        Method::NaiveRag(RetrieverKind::OpenAiSim),
        models(),
        LlmProfile::gpt4o_mini(),
        &ds,
    );
    assert!(sage.rouge > naive.rouge, "SAGE {} vs Naive {}", sage.rouge, naive.rouge);
}

#[test]
fn selected_chunks_contain_evidence_for_most_answerable_questions() {
    // Retrieval precision against ground truth: for answerable QASPER
    // questions, SAGE's final context should contain every gold evidence
    // sentence most of the time.
    let ds = qasper::generate(small());
    let mut checked = 0usize;
    let mut covered = 0usize;
    let mut built: Option<(usize, RagSystem)> = None;
    for task in &ds.tasks {
        if task.item.evidence.is_empty() {
            continue;
        }
        if built.as_ref().map(|(d, _)| *d) != Some(task.doc) {
            let corpus = vec![ds.documents[task.doc].text()];
            built = Some((
                task.doc,
                RagSystem::build(
                    models(),
                    RetrieverKind::OpenAiSim,
                    SageConfig::sage(),
                    LlmProfile::gpt4o_mini(),
                    &corpus,
                ),
            ));
        }
        let (_, system) = built.as_ref().unwrap();
        let r = system.answer(&Request::new(&task.item.question)).unwrap();
        let context: String =
            r.selected.iter().map(|&i| system.chunks()[i].as_str()).collect::<Vec<_>>().join(" ");
        checked += 1;
        if task.item.evidence.iter().all(|e| context.contains(e)) {
            covered += 1;
        }
    }
    assert!(checked >= 5, "need enough answerable questions, got {checked}");
    let rate = covered as f32 / checked as f32;
    assert!(rate >= 0.6, "evidence coverage {rate} ({covered}/{checked})");
}

#[test]
fn ablation_modules_do_not_hurt() {
    // Table IV's qualitative claim: each module on top of Naive RAG helps
    // (or at least does not hurt) on the open-ended dataset.
    let ds = narrativeqa::generate(SizeConfig { num_docs: 5, questions_per_doc: 4, seed: 77 });
    let profile = LlmProfile::gpt4o_mini();
    let naive = evaluate(Method::NaiveRag(RetrieverKind::OpenAiSim), models(), profile, &ds);
    let sage = evaluate(Method::Sage(RetrieverKind::OpenAiSim), models(), profile, &ds);
    for (label, cfg) in [
        ("segmentation", SageConfig::naive_with_segmentation()),
        ("selection", SageConfig::naive_with_selection()),
        ("feedback", SageConfig::naive_with_feedback()),
    ] {
        let scores = evaluate(
            Method::Custom(RetrieverKind::OpenAiSim, cfg),
            models(),
            profile,
            &ds,
        );
        assert!(
            scores.rouge + 0.05 >= naive.rouge,
            "+{label} ROUGE {} should not fall below naive {}",
            scores.rouge,
            naive.rouge
        );
    }
    assert!(sage.rouge >= naive.rouge, "SAGE {} vs naive {}", sage.rouge, naive.rouge);
}

#[test]
fn evaluation_is_deterministic() {
    let ds = quality::generate(small());
    let a = evaluate(Method::Sage(RetrieverKind::Bm25), models(), LlmProfile::gpt4(), &ds);
    let b = evaluate(Method::Sage(RetrieverKind::Bm25), models(), LlmProfile::gpt4(), &ds);
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.rouge, b.rouge);
}

#[test]
fn stronger_llm_scores_higher() {
    // Table XII / §VIII insight 3.
    let ds = quality::generate(SizeConfig { num_docs: 6, questions_per_doc: 4, seed: 0x7D });
    let strong =
        evaluate(Method::Sage(RetrieverKind::OpenAiSim), models(), LlmProfile::gpt4(), &ds);
    let weak = evaluate(
        Method::Sage(RetrieverKind::OpenAiSim),
        models(),
        LlmProfile::unifiedqa_3b(),
        &ds,
    );
    assert!(
        strong.accuracy > weak.accuracy,
        "gpt4 {} vs unifiedqa {}",
        strong.accuracy,
        weak.accuracy
    );
}

#[test]
fn unanswerable_questions_honoured() {
    let ds = qasper::generate(SizeConfig { num_docs: 8, questions_per_doc: 4, seed: 0xAB });
    let unanswerable: Vec<&QaTask> = ds
        .tasks
        .iter()
        .filter(|t| t.item.kind == QuestionKind::Unanswerable)
        .collect();
    assert!(!unanswerable.is_empty());
    let mut abstained = 0usize;
    for task in &unanswerable {
        let corpus = vec![ds.documents[task.doc].text()];
        let system = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4(),
            &corpus,
        );
        let r = system.answer(&Request::new(&task.item.question)).unwrap();
        if r.answer.text == "unanswerable" {
            abstained += 1;
        }
    }
    let rate = abstained as f32 / unanswerable.len() as f32;
    assert!(rate >= 0.5, "abstain rate {rate} too low");
}

#[test]
fn feedback_loop_spends_more_tokens_when_struggling() {
    // Questions with no evidence force extra rounds; clean questions pass
    // in one round. The system's cost profile must reflect that.
    let mut paragraphs =
        vec!["Whiskers is a playful tabby cat. He has bright green eyes.".to_string()];
    for i in 0..12 {
        paragraphs.push(format!(
            "The fog settled over the valley on day {i}, as it had for many years."
        ));
    }
    let corpus = vec![paragraphs.join("\n")];
    let system = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &corpus,
    );
    let clean = system.answer(&Request::new("What is the color of Whiskers's eyes?")).unwrap();
    let hopeless = system.answer(&Request::new("Where was Dorinwick born?")).unwrap();
    // The judge accepts the grounded answer and rejects the hopeless one.
    assert!(clean.feedback_score.unwrap() >= 9, "clean score {:?}", clean.feedback_score);
    assert!(hopeless.feedback_score.unwrap() < 9, "hopeless score {:?}", hopeless.feedback_score);
    // The hopeless question retrieves a wider (all-chunk) context, so it
    // costs at least as much as the clean one.
    assert!(hopeless.selected.len() >= clean.selected.len());
    assert!(hopeless.cost.input_tokens >= clean.cost.input_tokens);
    assert_eq!(hopeless.answer.text, "unanswerable");
}

fn telemetry_corpus() -> Vec<String> {
    vec![
        "Whiskers is a playful tabby cat. He has bright green eyes. His fur is mostly gray.\n\
         The morning fog settled over the valley, as it had for many years.\n\
         Dorinwick was well known in the region. He lives in Ashford. He works as a baker."
            .to_string(),
    ]
}

#[test]
fn telemetry_observes_the_full_serving_path() {
    use std::time::Duration;
    let plain = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &telemetry_corpus(),
    );
    let mut system = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &telemetry_corpus(),
    );
    let hub = system.enable_telemetry();

    // Build stats carry real measured times, surfaced through the hub.
    let stats = system.build_stats();
    assert!(stats.segmentation_time > Duration::ZERO, "segmentation time not measured");
    assert!(stats.index_time > Duration::ZERO, "index time not measured");
    assert_eq!(hub.builds().len(), 1);
    assert!(hub.builds()[0].segmentation_ns > 0);

    let q = "What is the color of Whiskers's eyes?";
    let r = system.answer(&Request::new(q)).unwrap();
    // Observation must not change the answer.
    assert_eq!(r.answer.text, plain.answer(&Request::new(q)).unwrap().answer.text);

    // The query trace covers every serving stage.
    let jsonl = hub.traces_jsonl();
    for name in ["\"name\":\"retrieve\"", "\"name\":\"rerank\"", "\"name\":\"read\""] {
        assert!(jsonl.contains(name), "missing {name} in trace: {jsonl}");
    }

    // The ledger attributes exactly the tokens the query reported.
    let total = hub.ledger().total();
    assert_eq!(total.input_tokens + total.output_tokens, r.cost.total_tokens());
    assert_eq!(total.input_tokens, r.cost.input_tokens);

    // Histograms saw the stages and the query.
    assert!(hub.stage_snapshot(Stage::Retrieve).count() >= 1);
    assert!(hub.stage_snapshot(Stage::Read).count() >= 1);
    assert_eq!(hub.query_count(), 1);
    assert!(hub.query_snapshot().quantile(0.99) > 0);

    // Exporters reflect the same run.
    let summary = sage::telemetry::export::summary(&hub, None);
    assert!(summary.contains("segmentation"), "summary: {summary}");
    let prom = sage::telemetry::export::prometheus(&hub, None);
    assert!(prom.contains("# TYPE"), "prometheus dump lacks TYPE lines");
    assert!(prom.contains("sage_queries_total 1"), "prometheus: {prom}");
}

#[test]
fn brownout_reconciles_trace_counters_and_ledger() {
    use std::time::Duration;
    let mut system = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &telemetry_corpus(),
    );
    let hub = system.enable_telemetry();

    // A deadline that affords the read but not the feedback loop: the
    // planner must drop feedback (and nothing deeper).
    let before = sage::telemetry::metrics::BROWNOUT_TOTAL.total();
    let budget = QueryBudget::new(Duration::from_millis(2_500), 1_000_000);
    let q = "What is the color of Whiskers's eyes?";
    let r = system.answer(&Request { budget: Some(budget), ..Request::new(q) }).unwrap();
    assert!(r.brownout > BrownoutLevel::None, "tight deadline must brown out");
    assert_eq!(r.feedback_rounds, 0, "dropped feedback still ran rounds");

    // Every rung down to the final level appears as a degrade event, in
    // ladder order, each tagged with its budget-exhaustion error.
    let steps: Vec<u8> =
        r.degraded.events.iter().filter_map(|e| e.fallback.brownout_step()).collect();
    assert_eq!(
        steps,
        (1..=r.brownout.idx() as u8).collect::<Vec<u8>>(),
        "trace must record each ladder rung exactly once: {:?}",
        r.degraded.events
    );

    // The labelled Prometheus counter moved by exactly the steps taken,
    // and the exporter renders one sample per label.
    let delta = sage::telemetry::metrics::BROWNOUT_TOTAL.total() - before;
    assert_eq!(delta as usize, steps.len(), "sage_brownout_total out of sync with trace");
    let prom = sage::telemetry::export::prometheus(&hub, None);
    assert!(
        prom.contains("sage_brownout_total{stage=\"drop-feedback\"}"),
        "prometheus: {prom}"
    );

    // The same events are folded into the query trace JSONL with their
    // brownout fallback labels.
    let jsonl = hub.traces_jsonl();
    assert!(jsonl.contains("brownout:drop-feedback"), "trace: {jsonl}");

    // Cost-ledger reconciliation: the hub's ledger attributes exactly the
    // tokens the budgeted query reported.
    let total = hub.ledger().total();
    assert_eq!(total.input_tokens, r.cost.input_tokens);
    assert_eq!(total.input_tokens + total.output_tokens, r.cost.total_tokens());
}

// --- Golden equivalence: the executor must reproduce the seed inline
// path byte-for-byte. The reference below is a hand-inlined copy of the
// pre-refactor query loop (retrieve → rerank → gradient-select → read →
// self-feedback) composed from the public stage-level APIs; every
// deterministic `QueryResult` field must match exactly, including token
// costs, confidence bits, and the virtual latencies. Wall-clock fields
// (`retrieval_latency`) are excluded — they are measurements, not
// behaviour.

/// Snapshot of the deterministic fields of a query outcome.
#[derive(Debug, PartialEq)]
struct Golden {
    text: String,
    confidence_bits: u32,
    picked: Option<usize>,
    selected: Vec<usize>,
    cost: Cost,
    final_call_cost: Cost,
    feedback_rounds: usize,
    feedback_score: Option<u8>,
    answer_latency: std::time::Duration,
    feedback_latency: std::time::Duration,
    degrade_labels: Vec<&'static str>,
    brownout: BrownoutLevel,
}

impl Golden {
    fn of(r: &QueryResult) -> Self {
        Golden {
            text: r.answer.text.clone(),
            confidence_bits: r.answer.confidence.to_bits(),
            picked: r.picked_option,
            selected: r.selected.clone(),
            cost: r.cost,
            final_call_cost: r.answer.cost,
            feedback_rounds: r.feedback_rounds,
            feedback_score: r.feedback_score,
            answer_latency: r.answer_latency,
            feedback_latency: r.feedback_latency,
            degrade_labels: r.degraded.events.iter().map(|e| e.fallback.label()).collect(),
            brownout: r.brownout,
        }
    }
}

/// The seed pipeline's query loop, hand-inlined over public stage APIs —
/// the pre-refactor snapshot the executor is held to.
fn seed_inline_path(sys: &RagSystem, question: &str, options: Option<&[String]>) -> Golden {
    use sage::rerank::{gradient_select, SelectionConfig};
    use std::time::Duration;
    let cfg = *sys.config();
    let (cand_ids, ranked) = sys.candidates(question);
    let mut min_k = cfg.min_k;
    let mut total_cost = Cost::zero();
    let mut answer_latency = Duration::ZERO;
    let mut feedback_latency = Duration::ZERO;
    let rounds = if cfg.use_feedback { cfg.max_feedback_rounds } else { 1 };
    let mut best: Option<(u8, Answer, Option<usize>, Vec<usize>)> = None;
    let mut executed = 0usize;
    let mut last: Option<Vec<usize>> = None;
    for round in 0..rounds {
        let positions: Vec<usize> = if cfg.use_selection {
            let sel = SelectionConfig {
                min_k,
                gradient: cfg.gradient,
                max_k: cfg.candidates,
                ..SelectionConfig::default()
            };
            gradient_select(&ranked, sel).iter().map(|r| r.index).collect()
        } else {
            ranked.iter().take(min_k.max(1)).map(|r| r.index).collect()
        };
        if last.as_deref() == Some(&positions) {
            break;
        }
        last = Some(positions.clone());
        let selected: Vec<usize> = positions.iter().map(|&p| cand_ids[p]).collect();
        let context: Vec<String> = selected.iter().map(|&id| sys.chunks()[id].clone()).collect();
        let (picked, answer) = match options {
            Some(opts) => {
                let (i, a) = sys.llm().answer_multiple_choice(question, opts, &context);
                (Some(i), a)
            }
            None => (None, sys.llm().answer_open(question, &context)),
        };
        total_cost.merge(answer.cost);
        answer_latency += answer.latency;
        if !cfg.use_feedback {
            return Golden {
                text: answer.text.clone(),
                confidence_bits: answer.confidence.to_bits(),
                picked,
                selected,
                cost: total_cost,
                final_call_cost: answer.cost,
                feedback_rounds: executed,
                feedback_score: None,
                answer_latency,
                feedback_latency,
                degrade_labels: Vec::new(),
                brownout: BrownoutLevel::None,
            };
        }
        let fb = sys.llm().self_feedback(question, &context, &answer);
        executed += 1;
        total_cost.merge(fb.cost);
        feedback_latency += fb.latency;
        if best.as_ref().is_none_or(|(s, ..)| fb.score > *s) {
            best = Some((fb.score, answer, picked, selected));
        }
        if fb.score >= cfg.feedback_threshold || round + 1 == rounds {
            break;
        }
        let next = min_k as i64 + i64::from(fb.adjustment);
        min_k = next.clamp(1, cfg.candidates as i64) as usize;
    }
    let (score, answer, picked, selected) = match best {
        Some((s, a, p, sel)) => (Some(s), a, p, sel),
        None => (
            None,
            Answer {
                text: "unanswerable".to_string(),
                confidence: 0.0,
                cost: Cost::zero(),
                latency: Duration::ZERO,
            },
            None,
            Vec::new(),
        ),
    };
    Golden {
        text: answer.text.clone(),
        confidence_bits: answer.confidence.to_bits(),
        picked,
        selected,
        cost: total_cost,
        final_call_cost: answer.cost,
        feedback_rounds: executed,
        feedback_score: score,
        answer_latency,
        feedback_latency,
        degrade_labels: Vec::new(),
        brownout: BrownoutLevel::None,
    }
}

fn golden_corpus() -> Vec<String> {
    vec![
        "Whiskers is a playful tabby cat. He has bright green eyes. His fur is mostly gray.\n\
         The morning fog settled over the valley, as it had for many years.\n\
         Patchy is a ferret with a stubborn streak. Patchy has bright orange eyes.\n\
         Dorinwick was well known in the region. He lives in Ashford. He works as a baker."
            .to_string(),
    ]
}

const GOLDEN_QUESTIONS: [&str; 3] = [
    "What is the color of Whiskers's eyes?",
    "Where does Dorinwick live?",
    "Where was Dorinwick born?",
];

#[test]
fn golden_equivalence_executor_matches_seed_inline_path() {
    for (kind, cfg) in [
        (RetrieverKind::OpenAiSim, SageConfig::sage()),
        (RetrieverKind::Bm25, SageConfig::sage()),
        (RetrieverKind::OpenAiSim, SageConfig::naive_rag()),
    ] {
        let sys =
            RagSystem::build(models(), kind, cfg, LlmProfile::gpt4o_mini(), &golden_corpus());
        for q in GOLDEN_QUESTIONS {
            let golden = seed_inline_path(&sys, q, None);
            assert_eq!(
                Golden::of(&sys.answer(&Request::new(q)).unwrap()),
                golden,
                "{kind:?} open: {q}"
            );
        }
        let options: Vec<String> =
            ["orange", "green", "violet", "gray"].iter().map(|s| s.to_string()).collect();
        let q = "What is the color of Whiskers's eyes?";
        let golden = seed_inline_path(&sys, q, Some(&options));
        assert_eq!(
            Golden::of(
                &sys.answer(&Request { options: Some(&options), ..Request::new(q) }).unwrap()
            ),
            golden,
            "{kind:?} multiple-choice"
        );
    }
}

#[test]
fn golden_equivalence_under_fault_plan() {
    // A poisoned reranker must fall back to retrieval order, every run,
    // byte-for-byte — on the same system and on an identically-built twin.
    let build = || {
        let mut sys = RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &golden_corpus(),
        );
        let plan = FaultPlan::seeded(0x601D)
            .with(Component::Reranker, Rates { corrupt: 1.0, ..Rates::default() });
        sys.set_faults(plan);
        sys
    };
    let sys = build();
    let twin = build();
    for q in GOLDEN_QUESTIONS {
        let a = Golden::of(&sys.answer(&Request::new(q)).unwrap());
        let b = Golden::of(&sys.answer(&Request::new(q)).unwrap());
        let c = Golden::of(&twin.answer(&Request::new(q)).unwrap());
        assert_eq!(a, b, "same-system replay: {q}");
        assert_eq!(a, c, "twin-system replay: {q}");
        // Every feedback round re-selects over the degraded ranking; the
        // rerank fallback fires exactly once per query (the guard's
        // verdict is cached for the retrieval prefix).
        assert_eq!(a.degrade_labels, vec!["rerank->retrieval-order"], "{q}");
        assert_eq!(a.brownout, BrownoutLevel::None, "{q}");
    }

    // A fully-failed reader exhausts both contexts and degrades to the
    // well-formed unanswerable verdict with the documented event chain.
    let mut dead_reader = build();
    let plan = FaultPlan::seeded(0x601E)
        .with(Component::Reader, Rates { corrupt: 1.0, ..Rates::default() });
    dead_reader.set_faults(plan);
    let r = dead_reader.answer(&Request::new(GOLDEN_QUESTIONS[0])).unwrap();
    let g = Golden::of(&r);
    assert_eq!(g.text, "unanswerable");
    assert_eq!(g.feedback_rounds, 0);
    assert!(g.selected.is_empty());
    assert_eq!(g.degrade_labels, vec!["reader->second-best", "reader->unanswerable"]);
    // The unanswerable verdict's latency is the virtual backoff spent
    // discovering it, not a zero placeholder.
    assert_eq!(r.answer.latency, r.degraded.total_delay());
}

#[test]
fn golden_equivalence_under_tight_budget() {
    use std::time::Duration;
    let sys = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &golden_corpus(),
    );
    // A deadline that affords the read but not the feedback loop lands on
    // exactly DropFeedback, and the degraded query must equal — token for
    // token — the same system configured with feedback off.
    let no_feedback = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig { use_feedback: false, ..SageConfig::sage() },
        LlmProfile::gpt4o_mini(),
        &golden_corpus(),
    );
    for q in GOLDEN_QUESTIONS {
        let budget = QueryBudget::new(Duration::from_millis(2_500), 1_000_000);
        let r = sys.answer(&Request { budget: Some(budget), ..Request::new(q) }).unwrap();
        assert_eq!(r.brownout, BrownoutLevel::DropFeedback, "{q}");
        let steps: Vec<u8> =
            r.degraded.events.iter().filter_map(|e| e.fallback.brownout_step()).collect();
        assert_eq!(steps, vec![1], "{q}");
        let plain = no_feedback.answer(&Request::new(q)).unwrap();
        assert_eq!(r.answer.text, plain.answer.text, "{q}");
        assert_eq!(r.answer.confidence.to_bits(), plain.answer.confidence.to_bits(), "{q}");
        assert_eq!(r.cost, plain.cost, "{q}");
        assert_eq!(r.selected, plain.selected, "{q}");
        assert_eq!(r.feedback_rounds, 0, "{q}");
        assert_eq!(r.feedback_score, None, "{q}");
    }

    // A starvation deadline walks the full ladder to FlatTopK: selection
    // collapses to the flat min_k prefix of the first-stage order, and the
    // answer equals a direct read over exactly those chunks.
    let q = GOLDEN_QUESTIONS[0];
    let starved = QueryBudget::new(Duration::from_millis(1), 1_000_000);
    let r = sys.answer(&Request { budget: Some(starved), ..Request::new(q) }).unwrap();
    assert_eq!(r.brownout, BrownoutLevel::FlatTopK);
    let steps: Vec<u8> =
        r.degraded.events.iter().filter_map(|e| e.fallback.brownout_step()).collect();
    assert_eq!(steps, vec![1, 2]);
    let (cand_ids, _) = sys.candidates(q);
    let flat: Vec<usize> = cand_ids[..sys.config().min_k.min(cand_ids.len())].to_vec();
    assert_eq!(r.selected, flat);
    let direct = sys.answer(&Request { chunks: Some(&flat), ..Request::new(q) }).unwrap();
    assert_eq!(r.answer.text, direct.answer.text);
    assert_eq!(r.answer.cost, direct.answer.cost);
    assert_eq!(r.cost, direct.cost);
}

/// The golden system with resilience on under `plan`.
fn guarded(plan: FaultPlan) -> RagSystem {
    let mut sys = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &golden_corpus(),
    );
    sys.set_faults(plan);
    sys
}

#[test]
fn golden_equivalence_of_a_fixed_context_under_guards_and_budget() {
    let q = GOLDEN_QUESTIONS[0];
    let plain = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &golden_corpus(),
    );
    let ids: Vec<usize> = (0..plain.chunks().len()).collect();
    let fixed = Request { chunks: Some(&ids), ..Request::new(q) };
    let routed = plain.answer(&fixed).unwrap();
    // The engine's fixed plan makes the very read an inline call over the
    // same chunks makes, and reports exactly those chunks.
    let context: Vec<String> = ids.iter().map(|&id| plain.chunks()[id].clone()).collect();
    assert_eq!(routed.answer.text, plain.llm().answer_open(q, &context).text, "inline read");
    assert_eq!(routed.selected, ids);
    let golden = Golden::of(&routed);
    // Guards without faults only validate.
    let clean = guarded(FaultPlan::none());
    assert_eq!(Golden::of(&clean.answer(&fixed).unwrap()), golden, "guarded");
    // A generous budget takes no rung.
    let budgeted = Request { budget: Some(QueryBudget::generous()), ..fixed };
    assert_eq!(Golden::of(&plain.answer(&budgeted).unwrap()), golden, "budgeted");

    // An always-corrupt reader: the fixed context degrades through the
    // reader's fallbacks to a well-formed verdict instead of panicking.
    let plan = FaultPlan::seeded(0x601E)
        .with(Component::Reader, Rates { corrupt: 1.0, ..Rates::default() });
    let dead_reader = guarded(plan);
    let r = dead_reader.answer(&fixed).unwrap();
    assert!(r.answer.is_wellformed(), "{:?}", r.answer);
    assert_eq!(r.answer.text, "unanswerable");
    assert_eq!(r.answer.latency, r.degraded.total_delay());
    let g = Golden::of(&r);
    assert!(!g.degrade_labels.is_empty());
    assert!(g.degrade_labels.iter().all(|l| l.starts_with("reader->")), "{:?}", g.degrade_labels);
}

/// A fixed read has no feedback, rerank or selection to drop, so even a
/// starving budget plans no rung for it: no trace entry, no counter, and
/// the read an unbudgeted request makes.
#[test]
fn a_starved_fixed_context_plans_no_rung() {
    use std::time::Duration;
    let sys = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &golden_corpus(),
    );
    let ids = [0, 2];
    let fixed = Request { chunks: Some(&ids), ..Request::new(GOLDEN_QUESTIONS[0]) };
    let starved = QueryBudget::new(Duration::from_millis(1), 1_000_000);
    let r = sys.answer(&Request { budget: Some(starved), ..fixed }).unwrap();
    assert!(r.degraded.is_clean(), "{:?}", r.degraded.events);
    assert_eq!(r.brownout, BrownoutLevel::None);
    assert!(sys.fallback_counters().is_empty(), "{:?}", sys.fallback_counters());
    assert_eq!(Golden::of(&r), Golden::of(&sys.answer(&fixed).unwrap()));
}

#[test]
fn try_answer_open_is_answer_on_a_bare_request() {
    for kind in [RetrieverKind::OpenAiSim, RetrieverKind::Bm25] {
        let (config, profile) = (SageConfig::sage(), LlmProfile::gpt4o_mini());
        let sys = RagSystem::build(models(), kind, config, profile, &golden_corpus());
        for q in GOLDEN_QUESTIONS {
            let a = Golden::of(&sys.try_answer_open(q).unwrap());
            assert_eq!(a, Golden::of(&sys.answer(&Request::new(q)).unwrap()), "{kind:?}: {q}");
        }
    }
}

#[test]
fn degrade_events_are_folded_into_query_traces() {
    let mut system = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &telemetry_corpus(),
    );
    let plan = FaultPlan::seeded(0xDE6)
        .with(Component::Reranker, Rates { corrupt: 1.0, ..Rates::default() });
    system.set_faults(plan);
    let hub = system.enable_telemetry();

    let r = system.answer(&Request::new("What is the color of Whiskers's eyes?")).unwrap();
    assert!(!r.degraded.events.is_empty(), "always-corrupt reranker must degrade");

    // The degradation shows up inline in the same query trace, labelled
    // with the failing component and the fallback that served instead.
    let jsonl = hub.traces_jsonl();
    assert!(jsonl.contains("\"name\":\"degrade\""), "trace: {jsonl}");
    let e = &r.degraded.events[0];
    assert!(jsonl.contains(e.component.label()), "component label missing: {jsonl}");
    assert!(jsonl.contains(e.fallback.label()), "fallback label missing: {jsonl}");
    assert!(hub.degrade_count() >= r.degraded.events.len() as u64);
}

/// The trace skeleton of one request on a freshly instrumented system: one
/// line per span (name, `<parent>`, fields; the wall-clock `start_ns` and
/// `dur_ns` left out), each stage's histogram count and the ledger's
/// active stages.
fn trace_skeleton(mut sys: RagSystem, req: &Request<'_>) -> String {
    use sage::telemetry::FieldValue;
    use std::fmt::Write;
    let hub = sys.enable_telemetry();
    sys.answer(req).unwrap();
    let mut out = String::new();
    hub.with_traces(|traces| {
        for span in traces.iter().flat_map(|t| t.spans()) {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            write!(out, "{} <{parent}>", span.name).unwrap();
            for (key, value) in &span.fields {
                match value {
                    FieldValue::U64(v) => write!(out, " {key}={v}"),
                    FieldValue::I64(v) => write!(out, " {key}={v}"),
                    FieldValue::F64(v) => write!(out, " {key}={v}"),
                    FieldValue::Str(v) => write!(out, " {key}={v:?}"),
                }
                .unwrap();
            }
            out.push('\n');
        }
    });
    let counts: Vec<String> = Stage::ALL
        .iter()
        .map(|&s| format!("{}={}", s.label(), hub.stage_snapshot(s).count()))
        .collect();
    writeln!(out, "hist {} query={}", counts.join(" "), hub.query_count()).unwrap();
    for (stage, c) in hub.ledger().active_stages() {
        let (label, calls) = (stage.label(), c.calls);
        writeln!(out, "ledger {label} calls={calls} in={} out={}", c.input_tokens, c.output_tokens)
            .unwrap();
    }
    out
}

/// Which spans a query opens, how they nest and what they carry, which
/// stage histograms it feeds and which ledger stages it bills, over the
/// serving paths: SAGE dense, naive BM25, the dense → BM25 fallback, the
/// reader's second-best and unanswerable fallbacks, both brownout rungs
/// and a fixed context.
#[test]
fn trace_skeletons_are_pinned_per_serving_path() {
    use std::time::Duration;
    let golden = |kind, config| {
        RagSystem::build(models(), kind, config, LlmProfile::gpt4o_mini(), &golden_corpus())
    };
    let dense = || golden(RetrieverKind::OpenAiSim, SageConfig::sage());
    let faulted = |spec| {
        let mut sys = dense();
        sys.set_faults(FaultPlan::parse_spec(spec, 0).unwrap());
        sys
    };
    let budgeted = |deadline_ms| Request {
        budget: Some(QueryBudget::new(Duration::from_millis(deadline_ms), 1_000_000)),
        ..Request::new(GOLDEN_QUESTIONS[0])
    };
    let ids = [0, 2];
    let fixed = Request { chunks: Some(&ids), ..Request::new(GOLDEN_QUESTIONS[0]) };
    let skeletons = [
        trace_skeleton(dense(), &Request::new(GOLDEN_QUESTIONS[2])),
        trace_skeleton(
            golden(RetrieverKind::Bm25, SageConfig::naive_rag()),
            &Request::new(GOLDEN_QUESTIONS[1]),
        ),
        trace_skeleton(faulted("embedder=transient:1.0"), &Request::new(GOLDEN_QUESTIONS[0])),
        trace_skeleton(faulted("reader=transient:1.0"), &Request::new(GOLDEN_QUESTIONS[0])),
        trace_skeleton(dense(), &budgeted(2_500)),
        trace_skeleton(dense(), &budgeted(1)),
        trace_skeleton(dense(), &fixed),
    ];
    for (i, (got, want)) in skeletons.iter().zip(SKELETONS).enumerate() {
        assert_eq!(got, want, "request {i}:\n{got}");
    }
}

/// What [`trace_skeletons_are_pinned_per_serving_path`] records, request by
/// request.
const SKELETONS: [&str; 7] = [
    // SAGE dense, no faults.
    "retrieve <-> candidates=4
embed <0>
rerank <-> pairs=4
read <-> round=0 context_chunks=4 input_tokens=183 output_tokens=5
feedback <-> score=2 adjustment=1
hist segment=1 embed=1 index=1 retrieve=1 rerank=1 read=1 feedback=1 query=1
ledger read calls=1 in=183 out=5
ledger feedback calls=1 in=224 out=10
",
    // Naive BM25: no scorer, so no rerank span or sample.
    "retrieve <-> candidates=1
read <-> round=0 context_chunks=1 input_tokens=173 output_tokens=5
hist segment=1 embed=0 index=1 retrieve=1 rerank=0 read=1 feedback=0 query=1
ledger read calls=1 in=173 out=5
",
    // A dead embedder: BM25 serves inside the one retrieve span.
    "retrieve <-> candidates=4
embed <0>
rerank <-> pairs=4
read <-> round=0 context_chunks=4 input_tokens=187 output_tokens=5
feedback <-> score=10 adjustment=-1
degrade <-> component=\"embedder\" fallback=\"dense->bm25\" error=\"embedder failed after 3 attempt(s)\" attempts=3 virtual_delay_ns=140709675
hist segment=1 embed=1 index=1 retrieve=1 rerank=1 read=1 feedback=1 query=1
ledger read calls=1 in=187 out=5
ledger feedback calls=1 in=228 out=10
",
    // A dead reader: second-best, then unanswerable; nothing billed.
    "retrieve <-> candidates=4
embed <0>
rerank <-> pairs=4
read <-> round=0
degrade <-> component=\"reader\" fallback=\"reader->second-best\" error=\"reader failed after 3 attempt(s)\" attempts=3 virtual_delay_ns=126606392
degrade <-> component=\"reader\" fallback=\"reader->unanswerable\" error=\"reader circuit breaker is open\" attempts=2 virtual_delay_ns=124933799
hist segment=1 embed=1 index=1 retrieve=1 rerank=1 read=1 feedback=0 query=1
",
    // The DropFeedback rung.
    "retrieve <-> candidates=4
embed <0>
rerank <-> pairs=4
read <-> round=0 context_chunks=4 input_tokens=187 output_tokens=5
degrade <-> component=\"reader\" fallback=\"brownout:drop-feedback\" error=\"budget exhausted at the feedback stage\" attempts=0 virtual_delay_ns=0
hist segment=1 embed=1 index=1 retrieve=1 rerank=1 read=1 feedback=0 query=1
ledger read calls=1 in=187 out=5
",
    // The FlatTopK rung: rerank bypassed, but its stage still samples.
    "retrieve <-> candidates=4
embed <0>
read <-> round=0 context_chunks=4 input_tokens=187 output_tokens=5
degrade <-> component=\"reader\" fallback=\"brownout:drop-feedback\" error=\"budget exhausted at the feedback stage\" attempts=0 virtual_delay_ns=0
degrade <-> component=\"index\" fallback=\"brownout:flat-topk\" error=\"budget exhausted at the selection stage\" attempts=0 virtual_delay_ns=0
hist segment=1 embed=1 index=1 retrieve=1 rerank=1 read=1 feedback=0 query=1
ledger read calls=1 in=187 out=5
",
    // A fixed context: one read, no round.
    "read <-> context_chunks=2 input_tokens=137 output_tokens=5
hist segment=1 embed=0 index=1 retrieve=0 rerank=0 read=1 feedback=0 query=1
ledger read calls=1 in=137 out=5
",
];

// ---------------------------------------------------------------------------
// Live corpus: telemetry counters reconcile with commit reports
// ---------------------------------------------------------------------------

#[test]
fn live_corpus_metrics_reconcile_with_commit_reports() {
    use sage::core::live::{CorpusWriter, LiveConfig, LiveError, LiveOp};
    use sage::resilience::{CrashPlan, CrashPoint};
    use sage::telemetry::metrics;

    sage::telemetry::set_enabled(true);
    let before = (
        metrics::LIVE_COMMITS.get(),
        metrics::LIVE_DOCS_UPSERTED.get(),
        metrics::LIVE_DOCS_DELETED.get(),
        metrics::LIVE_CHUNKS_INDEXED.get(),
        metrics::LIVE_TOMBSTONES.get(),
        metrics::LIVE_COMPACTIONS.get(),
        metrics::LIVE_CRASHES_INJECTED.get(),
        metrics::LIVE_RECOVERIES.get(),
    );

    let dir = std::env::temp_dir().join("sage_e2e_live_metrics");
    std::fs::remove_dir_all(&dir).ok();
    let cfg = LiveConfig { compact_dead_fraction: 0.2, compact_min_dead: 1, ..LiveConfig::default() };
    let plan = CrashPlan::always(CrashPoint::PreRename);

    let (mut w, _) = CorpusWriter::open(&dir, cfg).unwrap();
    let reports = [
        w.commit(&[
            LiveOp::Upsert { doc_id: "a".into(), text: "First doc one sentence.".into() },
            LiveOp::Upsert { doc_id: "b".into(), text: "Second doc another sentence.".into() },
        ])
        .unwrap(),
        w.commit(&[
            LiveOp::Upsert { doc_id: "a".into(), text: "First doc, now revised text.".into() },
            LiveOp::Delete { doc_id: "b".into() },
        ])
        .unwrap(),
    ];
    drop(w);

    // One injected crash and its recovery drill.
    let (mut w, _) = CorpusWriter::open_with_crash_plan(&dir, cfg, plan).unwrap();
    let crashed = w.commit(&[LiveOp::Delete { doc_id: "a".into() }]);
    assert!(matches!(crashed, Err(LiveError::CrashInjected(_))));
    drop(w);
    let (w, _) = CorpusWriter::open(&dir, cfg).unwrap();
    assert_eq!(w.epoch(), 2);
    drop(w);
    std::fs::remove_dir_all(&dir).ok();

    // Counters are process-global and monotonic, so reconcile with >=:
    // deltas must cover at least everything the reports account for.
    let committed: u64 = reports.len() as u64;
    let upserted: u64 = reports.iter().map(|r| r.docs_upserted as u64).sum();
    let deleted: u64 = reports.iter().map(|r| r.docs_deleted as u64).sum();
    let chunks: u64 = reports.iter().map(|r| r.chunks_indexed as u64).sum();
    let tombstones: u64 = reports.iter().map(|r| r.tombstones as u64).sum();
    let compactions: u64 = reports.iter().filter(|r| r.compacted).count() as u64;
    assert!(upserted >= 3 && deleted >= 1 && tombstones >= 1, "workload sanity");

    assert!(metrics::LIVE_COMMITS.get() - before.0 >= committed);
    assert!(metrics::LIVE_DOCS_UPSERTED.get() - before.1 >= upserted);
    assert!(metrics::LIVE_DOCS_DELETED.get() - before.2 >= deleted);
    assert!(metrics::LIVE_CHUNKS_INDEXED.get() - before.3 >= chunks);
    assert!(metrics::LIVE_TOMBSTONES.get() - before.4 >= tombstones);
    assert!(metrics::LIVE_COMPACTIONS.get() - before.5 >= compactions);
    assert!(metrics::LIVE_CRASHES_INJECTED.get() - before.6 >= 1);
    // Every open is a recovery: initial, crash-plan reopen, final reopen.
    assert!(metrics::LIVE_RECOVERIES.get() - before.7 >= 3);
}

// ---------------------------------------------------------------------------
// Observability: scenario replay, the committed rows, and SLO reconciliation
// ---------------------------------------------------------------------------

#[test]
fn scenario_cells_replay_byte_for_byte_through_the_facade() {
    // A cell small enough to run twice: one document, a few seconds of
    // virtual time.
    let tiny = ScenarioCell {
        name: "e2e-tiny".to_string(),
        docs: 1,
        duration_s: 6,
        qps: 2,
        ..ScenarioCell::default()
    };
    let a = run_cell(models(), &tiny).expect("cell runs");
    let b = run_cell(models(), &tiny).expect("cell runs");
    // Every metric is a virtual-clock quantity: the rendered rows must be
    // byte-identical across runs, which is what lets the gate compare
    // them to a committed file.
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn scenario_grid_renders_the_committed_rows_byte_for_byte() {
    // The whole grid, under the models the CLI trains by default: what
    // `sage scenarios run scenarios.toml` prints is BENCH_scenarios.json.
    // Every field is modeled (virtual clock, model costs), so a
    // change to any of them shows up here as the row it moved;
    // re-baseline with `--out BENCH_scenarios.json` and explain the diff.
    let models = TrainedModels::train(TrainBudget::default());
    let cells = parse_scenarios(include_str!("../scenarios.toml")).expect("grid parses");
    let rows: Vec<BenchRow> =
        cells.iter().map(|cell| run_cell(&models, cell).expect("cell runs")).collect();
    let measured = render_rows(&rows);
    let committed = include_str!("../BENCH_scenarios.json");
    for (m, c) in measured.lines().zip(committed.lines()) {
        assert!(m == c, "BENCH_scenarios.json differs from a fresh run:\n- {c}\n+ {m}");
    }
    assert_eq!(measured, committed);
}

#[test]
fn slo_report_reconciles_with_recorder_counters_and_ledger() {
    use sage::telemetry::metrics::{BROWNOUT_TOTAL, SHED_TOTAL};
    use std::time::Duration;

    let ds = quality::generate(SizeConfig { num_docs: 2, questions_per_doc: 4, seed: 7 });
    let corpus: Vec<String> = ds.documents.iter().map(|d| d.text()).collect();
    let questions: Vec<String> = ds.tasks.iter().map(|t| t.item.question.clone()).collect();
    let mut system = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &corpus,
    );
    let hub = system.enable_telemetry();

    // Offered load past capacity with a tight deadline so the run sheds
    // and browns out — the interesting reconciliation cases.
    let shed0: u64 = (0..Priority::COUNT).map(|i| SHED_TOTAL.get(i)).sum();
    let brownout0 = BROWNOUT_TOTAL.total();
    let cfg = SoakConfig {
        seed: 0x510,
        duration: Duration::from_secs(15),
        qps: 8.0,
        capacity: 4,
        concurrency: 2,
        budget: Some(QueryBudget::new(Duration::from_millis(2_000), 50_000)),
        ..SoakConfig::default()
    };
    let soak = run_soak(&system, &questions, &cfg);
    assert!(soak.shed_total() > 0, "overload must shed: {:?}", soak.log);
    assert!(soak.browned_out() > 0, "tight deadline must brown out: {:?}", soak.log);

    // Every arrival ends in exactly one observation, admitted or shed.
    assert_eq!(soak.obs.len(), soak.arrivals);
    assert_eq!(soak.admitted() as u64 + soak.shed_total(), soak.arrivals as u64);

    // The process-global admission counters are monotonic and shared with
    // concurrently-running tests, so reconcile with >=: the deltas must
    // cover at least this run's events.
    let shed_delta: u64 = (0..Priority::COUNT).map(|i| SHED_TOTAL.get(i)).sum::<u64>() - shed0;
    assert!(shed_delta >= soak.shed_total(), "{shed_delta} < {}", soak.shed_total());
    let brownout_steps: u64 = soak
        .obs
        .iter()
        .filter(|o| o.outcome == Outcome::Done)
        .map(|o| u64::from(o.brownout))
        .sum();
    assert!(BROWNOUT_TOTAL.total() - brownout0 >= brownout_steps);

    // This system's cost ledger attributes exactly the tokens the
    // observation stream reports (the hub is per-system, so this is exact
    // even with other tests running).
    let obs_tokens: u64 = soak.obs.iter().map(|o| o.tokens).sum();
    assert_eq!(hub.ledger().total().total_tokens(), obs_tokens);
}
