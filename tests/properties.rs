//! Property-based tests (proptest) over the core data structures and
//! invariants: tokenization, segmentation coverage, selection, metrics,
//! vector search, and the cost model.

use proptest::prelude::*;
use sage::eval::{bleu, f1_match, meteor, rouge_l, Cost, PriceTable};
use sage::rerank::{gradient_select, RankedChunk, SelectionConfig};
use sage::segment::{Segmenter, SentenceSegmenter};
use sage::text::{count_tokens, normalize, split_sentences, stem, tokenize};
use sage::vecdb::{FlatIndex, VectorIndex};

/// Arbitrary "English-ish" text: words, punctuation, newlines.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            8 => "[a-zA-Z]{1,10}",
            1 => Just(".".to_string()),
            1 => Just(",".to_string()),
            1 => Just("\n".to_string()),
            1 => Just("!".to_string()),
        ],
        0..60,
    )
    .prop_map(|words| words.join(" "))
}

// Properties that once produced a counterexample are plain functions, so
// `recorded_counterexamples` can feed them that input on every run.

fn tokens_are_lowercase_nonempty(text: &str) {
    for tok in tokenize(text) {
        assert!(!tok.is_empty());
        assert_eq!(tok.clone(), tok.to_lowercase());
    }
}

fn tokenize_survives_join(text: &str) {
    let once = tokenize(text);
    let again = tokenize(&once.join(" "));
    assert_eq!(once, again);
}

fn normalize_is_a_fixpoint(text: &str) {
    let once = normalize(text);
    assert_eq!(normalize(&once), once);
}

fn sentences_nonempty_and_bounded(text: &str) {
    let sentences = split_sentences(text);
    let words = text.split_whitespace().count();
    assert!(sentences.len() <= words + 1);
    for s in &sentences {
        assert!(!s.trim().is_empty());
    }
}

fn segmenter_preserves_words(text: &str, budget: usize) {
    // Sentence counts can legitimately merge for unterminated
    // fragments, but the word sequence must survive exactly.
    let seg = SentenceSegmenter { max_tokens: budget };
    let chunks = seg.segment(text);
    let original: Vec<&str> = text.split_whitespace().collect();
    let rejoined = chunks.join(" ");
    let after: Vec<&str> = rejoined.split_whitespace().collect();
    assert_eq!(original, after);
}

fn metrics_perfect_on_identity(text: &str) {
    let refs = vec![text.to_string()];
    for metric in [rouge_l(text, &refs), f1_match(text, &refs)] {
        assert!((0.0..=1.0).contains(&metric));
        assert!(metric > 0.9, "identity should score ~1, got {metric}");
    }
    assert!(bleu(text, &refs, 1) > 0.9);
    // METEOR's fragmentation penalty caps very short identical strings
    // (a single matched token in a single chunk scores 0.5, as in the
    // reference implementation); only require near-1 on longer texts.
    let m = meteor(text, &refs);
    assert!((0.0..=1.0).contains(&m));
    if tokenize(text).len() >= 3 {
        assert!(m > 0.9, "identity meteor on long text: {m}");
    } else {
        assert!(m >= 0.5, "identity meteor on short text: {m}");
    }
}

/// Shrunk counterexamples these properties produced in the past. The
/// runner's seeded sampling will not draw inputs this small again, so they
/// are explicit. `text = "a"` is in the domain of every single-text
/// property, so all of them take it.
#[test]
fn recorded_counterexamples() {
    tokens_are_lowercase_nonempty("a");
    tokenize_survives_join("a");
    normalize_is_a_fixpoint("a");
    sentences_nonempty_and_bounded("a");
    metrics_perfect_on_identity("a");
    segmenter_preserves_words("a \n A", 5);
}

proptest! {
    #[test]
    fn tokenize_yields_lowercase_nonempty(text in text_strategy()) {
        tokens_are_lowercase_nonempty(&text);
    }

    #[test]
    fn tokenize_is_idempotent_through_join(text in text_strategy()) {
        tokenize_survives_join(&text);
    }

    #[test]
    fn normalize_is_idempotent(text in text_strategy()) {
        normalize_is_a_fixpoint(&text);
    }

    #[test]
    fn count_tokens_superadditive_parts(a in text_strategy(), b in text_strategy()) {
        // Concatenation can only merge at one word boundary, so the joint
        // count is close to the sum and never wildly above it.
        let joint = count_tokens(&format!("{a} {b}"));
        prop_assert!(joint <= count_tokens(&a) + count_tokens(&b) + 2);
        prop_assert!(joint + 2 >= count_tokens(&a).max(count_tokens(&b)));
    }

    #[test]
    fn stem_never_empties_long_words(word in "[a-z]{4,12}") {
        let s = stem(&word);
        prop_assert!(!s.is_empty());
        prop_assert!(s.len() <= word.len() + 1, "{word} -> {s}");
    }

    #[test]
    fn sentences_are_nonempty_and_bounded(text in text_strategy()) {
        sentences_nonempty_and_bounded(&text);
    }

    #[test]
    fn sentence_segmenter_preserves_words(
        text in text_strategy(),
        budget in 5usize..200,
    ) {
        segmenter_preserves_words(&text, budget);
    }

    #[test]
    fn gradient_select_invariants(
        mut scores in proptest::collection::vec(0.0f32..1.0, 0..30),
        min_k in 0usize..10,
        g in 0.05f32..0.95,
    ) {
        scores.sort_by(|a, b| b.total_cmp(a));
        let ranked: Vec<RankedChunk> = scores
            .iter()
            .enumerate()
            .map(|(index, &score)| RankedChunk { index, score })
            .collect();
        let cfg = SelectionConfig { min_k, gradient: g, max_k: 20, ..SelectionConfig::default() };
        let sel = gradient_select(&ranked, cfg);
        // Bounds.
        prop_assert!(sel.len() <= ranked.len().min(cfg.max_k));
        if !ranked.is_empty() {
            prop_assert!(sel.len() >= min_k.max(1).min(ranked.len()).min(cfg.max_k));
        }
        // Prefix property.
        for (i, s) in sel.iter().enumerate() {
            prop_assert_eq!(s.index, ranked[i].index);
        }
    }

    #[test]
    fn gradient_select_monotone_in_min_k(
        mut scores in proptest::collection::vec(0.0f32..1.0, 1..30),
        g in 0.05f32..0.95,
    ) {
        scores.sort_by(|a, b| b.total_cmp(a));
        let ranked: Vec<RankedChunk> = scores
            .iter()
            .enumerate()
            .map(|(index, &score)| RankedChunk { index, score })
            .collect();
        let mut last = 0usize;
        for min_k in 1..10usize {
            let cfg = SelectionConfig { min_k, gradient: g, max_k: 20, ..SelectionConfig::default() };
            let n = gradient_select(&ranked, cfg).len();
            prop_assert!(n >= last, "selection shrank as min_k grew");
            last = n;
        }
    }

    #[test]
    fn metrics_bounded_and_perfect_on_identity(text in "[a-z ]{1,40}") {
        prop_assume!(!tokenize(&text).is_empty());
        metrics_perfect_on_identity(&text);
    }

    #[test]
    fn metrics_bounded_on_arbitrary_pairs(a in text_strategy(), b in text_strategy()) {
        let refs = vec![b];
        for metric in [
            rouge_l(&a, &refs),
            f1_match(&a, &refs),
            meteor(&a, &refs),
            bleu(&a, &refs, 1),
            bleu(&a, &refs, 4),
        ] {
            prop_assert!((0.0..=1.0).contains(&metric), "metric {metric} out of range");
        }
    }

    #[test]
    fn flat_index_finds_stored_vector(
        vecs in proptest::collection::vec(
            proptest::collection::vec(-1.0f32..1.0, 4),
            1..40,
        ),
        probe in 0usize..40,
    ) {
        // Keep only vectors with nonzero norm.
        let vecs: Vec<Vec<f32>> = vecs
            .into_iter()
            .filter(|v| v.iter().map(|x| x * x).sum::<f32>() > 1e-3)
            .collect();
        prop_assume!(!vecs.is_empty());
        let probe = probe % vecs.len();
        let mut idx = FlatIndex::cosine();
        for v in &vecs {
            idx.add(v.clone());
        }
        let hits = idx.search(&vecs[probe], vecs.len());
        // Scores sorted descending; top hit has cosine ~1 (itself or a
        // colinear duplicate).
        prop_assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
        prop_assert!(hits[0].score > 0.999, "top score {}", hits[0].score);
    }

    #[test]
    fn cost_merge_is_additive(
        calls in proptest::collection::vec((0usize..10_000, 0usize..1_000), 0..20),
    ) {
        let mut total = Cost::zero();
        let mut sum_in = 0u64;
        let mut sum_out = 0u64;
        for (i, o) in calls {
            total.add_call(i, o);
            sum_in += i as u64;
            sum_out += o as u64;
        }
        prop_assert_eq!(total.input_tokens, sum_in);
        prop_assert_eq!(total.output_tokens, sum_out);
        prop_assert!(total.dollars(PriceTable::gpt4()) >= 0.0);
        // Dollars monotone in prices.
        prop_assert!(
            total.dollars(PriceTable::gpt4()) >= total.dollars(PriceTable::gpt4o_mini())
        );
    }
}

// --- Serialization round-trips -------------------------------------------

use sage::nn::io::BytesSerialize;
use sage::nn::matrix::Matrix;
use sage::nn::{Activation, EmbeddingTable, Mlp};

proptest! {
    #[test]
    fn matrix_roundtrips_for_any_shape(
        rows in 1usize..12,
        cols in 1usize..12,
        seed in 0u64..1000,
    ) {
        let m = Matrix::xavier(rows, cols, seed);
        let back = Matrix::from_bytes(&m.to_bytes()).expect("roundtrip");
        prop_assert_eq!(m, back);
    }

    #[test]
    fn mlp_roundtrip_preserves_inference(
        input in 1usize..8,
        hidden in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mlp = Mlp::new(&[input, hidden, 1], Activation::Tanh, Activation::Sigmoid, seed);
        let back = Mlp::from_bytes(&mlp.to_bytes()).expect("roundtrip");
        let x = Matrix::xavier(3, input, seed ^ 0xFF);
        prop_assert_eq!(mlp.infer(&x), back.infer(&x));
    }

    #[test]
    fn embedding_table_roundtrips(
        buckets in 1usize..64,
        dim in 1usize..16,
        seed in 0u64..1000,
    ) {
        let t = EmbeddingTable::new(buckets, dim, seed);
        let back = EmbeddingTable::from_bytes(&t.to_bytes()).expect("roundtrip");
        prop_assert_eq!(t.rows_flat(), back.rows_flat());
    }

    #[test]
    fn truncated_blobs_never_panic(
        rows in 1usize..6,
        cols in 1usize..6,
        cut in 0usize..40,
    ) {
        let m = Matrix::xavier(rows, cols, 1);
        let blob = m.to_bytes();
        let cut = cut.min(blob.len());
        // Must return None (or, for cut == len, Some) — never panic.
        let parsed = Matrix::from_bytes(&blob[..cut]);
        if cut == blob.len() {
            prop_assert!(parsed.is_some());
        } else {
            prop_assert!(parsed.is_none());
        }
    }

    #[test]
    fn resilience_spec_parser_never_panics(spec in "[a-z=:,.0-9]{0,40}") {
        // Arbitrary CLI fault specs must parse or error, never panic.
        let _ = sage::resilience::FaultPlan::parse_spec(&spec, 1);
    }

    #[test]
    fn retrieval_metrics_bounded(
        relevant in proptest::collection::vec(proptest::bool::ANY, 0..30),
        k in 1usize..35,
    ) {
        use sage::eval::{hit_rate_at_k, ndcg_at_k, precision_at_k, recall_at_k, reciprocal_rank};
        for v in [
            hit_rate_at_k(&relevant, k),
            precision_at_k(&relevant, k),
            recall_at_k(&relevant, k),
            reciprocal_rank(&relevant),
            ndcg_at_k(&relevant, k),
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "metric {v} out of range");
        }
        // Recall is monotone in k.
        prop_assert!(recall_at_k(&relevant, k) <= recall_at_k(&relevant, k + 5) + 1e-6);
    }
}

// --- Resilience determinism ----------------------------------------------
//
// The fault plan is a pure function of (seed, component, call key, attempt)
// and the guards' failure counts are scoped per query, so serving the same
// question on two independently built systems under the same plan must
// produce identical results — including the degradation trace.

use sage::prelude::{
    Component, FaultPlan, LlmProfile, QueryResult, RagSystem, Rates, Request,
    RetrieverKind, SageConfig, SageError, TrainBudget, TrainedModels,
};
use std::sync::OnceLock;

fn shared_models() -> &'static TrainedModels {
    static M: OnceLock<TrainedModels> = OnceLock::new();
    M.get_or_init(|| TrainedModels::train(TrainBudget::tiny()))
}

fn resilience_corpus() -> Vec<String> {
    vec![
        "Whiskers is a playful tabby cat. He has bright green eyes. His fur is mostly gray.\n\
         The morning fog settled over the valley, as it had for many years.\n\
         Patchy is a ferret with a stubborn streak. Patchy has bright orange eyes.\n\
         Dorinwick was well known in the region. He lives in Ashford. He works as a baker."
            .to_string(),
    ]
}

fn build_resilient(plan: FaultPlan) -> RagSystem {
    let mut system = RagSystem::build(
        shared_models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &resilience_corpus(),
    );
    system.set_faults(plan);
    system
}

/// Arbitrary per-component rates: all fault kinds except panics (which
/// escape `answer` by design), total mass < 1.
fn rates_strategy() -> impl Strategy<Value = Rates> {
    (0.0f64..0.4, 0.0f64..0.3, 0.0f64..0.3).prop_map(|(transient, timeout, corrupt)| Rates {
        panic: 0.0,
        corrupt,
        timeout,
        transient,
    })
}

proptest! {
    // Each case builds two full systems; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn same_fault_plan_reproduces_identical_results(
        seed in 0u64..1_000_000,
        embedder in rates_strategy(),
        index in rates_strategy(),
        reranker in rates_strategy(),
        reader in rates_strategy(),
        q_idx in 0usize..3,
    ) {
        let questions = [
            "What is the color of Whiskers's eyes?",
            "Where does Dorinwick live?",
            "What animal is Patchy?",
        ];
        let question = questions[q_idx];
        let plan = FaultPlan::seeded(seed)
            .with(Component::Embedder, embedder)
            .with(Component::IndexSearch, index)
            .with(Component::Reranker, reranker)
            .with(Component::Reader, reader);
        let a = build_resilient(plan.clone()).answer(&Request::new(question)).unwrap();
        let b = build_resilient(plan).answer(&Request::new(question)).unwrap();
        // Every deterministic field must match exactly (wall-clock
        // latencies are measurements, not outputs).
        prop_assert_eq!(&a.answer.text, &b.answer.text);
        prop_assert_eq!(a.answer.confidence, b.answer.confidence);
        prop_assert_eq!(a.picked_option, b.picked_option);
        prop_assert_eq!(&a.selected, &b.selected);
        prop_assert_eq!(a.cost.input_tokens, b.cost.input_tokens);
        prop_assert_eq!(a.cost.output_tokens, b.cost.output_tokens);
        prop_assert_eq!(a.feedback_rounds, b.feedback_rounds);
        prop_assert_eq!(a.feedback_score, b.feedback_score);
        prop_assert_eq!(&a.degraded, &b.degraded);
    }
}

// --- Batches --------------------------------------------------------------
//
// `try_answer_batch` answers many queries on strided run-to-completion
// worker threads. How the OS schedules those threads against each other
// must be invisible: every deterministic output field and the telemetry
// cost ledger must be byte-identical to a plain sequential loop over
// `try_answer_open`, at every worker count, every batch size, and under
// any fault plan — including injected panics, which fail exactly their
// own slot.

/// A batch cycling over the corpus facts: repeats put identical queries
/// on different workers without changing any single answer.
fn scheduler_questions() -> Vec<String> {
    let pool = [
        "What is the color of Whiskers's eyes?",
        "Where does Dorinwick live?",
        "What animal is Patchy?",
        "What is the color of Patchy's eyes?",
        "What does Dorinwick work as?",
        "What settled over the valley?",
    ];
    (0..16).map(|i| pool[i % pool.len()].to_string()).collect()
}

/// Every deterministic field of one batch slot, rendered for comparison.
/// Wall-clock latencies are measurements, not outputs, and are excluded.
fn slot_view(r: &Result<QueryResult, SageError>) -> String {
    match r {
        Ok(q) => format!(
            "ok|{}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}|{:?}",
            q.answer.text,
            q.answer.confidence,
            q.picked_option,
            q.selected,
            q.cost.input_tokens,
            q.cost.output_tokens,
            q.feedback_rounds,
            q.feedback_score,
            q.degraded,
        ),
        Err(e) => format!("err|{e:?}"),
    }
}

/// Per-stage cost ledger snapshot from a telemetry hub.
fn ledger_view(hub: &sage::telemetry::Telemetry) -> Vec<sage::telemetry::StageCost> {
    sage::telemetry::Stage::ALL.iter().map(|&s| hub.ledger().get(s)).collect()
}

/// The acceptance grid, exhaustively: workers {1,2,4,8} x batch {1,3,16}
/// under a fixed fault plan with every fault kind armed (panics included).
#[test]
fn batched_answers_equal_sequential_at_every_grid_point() {
    let questions = scheduler_questions();
    let plan = FaultPlan::seeded(7)
        .with(
            Component::Reader,
            Rates { panic: 0.10, corrupt: 0.10, timeout: 0.10, transient: 0.25 },
        )
        .with(
            Component::Embedder,
            Rates { panic: 0.0, corrupt: 0.05, timeout: 0.05, transient: 0.20 },
        );
    let mut system = build_resilient(plan);
    for cut in [1usize, 3, 16] {
        let qs = &questions[..cut];
        let hub = system.enable_telemetry();
        let seq: Vec<_> = qs.iter().map(|q| system.try_answer_open(q)).collect();
        let seq_cost = ledger_view(&hub);
        for workers in [1usize, 2, 4, 8] {
            let hub = system.enable_telemetry();
            let got = system.try_answer_batch(qs, workers);
            assert_eq!(got.len(), qs.len());
            for (i, (g, s)) in got.iter().zip(&seq).enumerate() {
                assert_eq!(
                    slot_view(g),
                    slot_view(s),
                    "slot {i} diverged at workers={workers} batch={cut}"
                );
            }
            assert_eq!(
                ledger_view(&hub),
                seq_cost,
                "cost ledger diverged at workers={workers} batch={cut}"
            );
        }
    }
}

/// Rates with panic mass: batch slots must fail independently.
fn panicky_rates_strategy() -> impl Strategy<Value = Rates> {
    (0.0f64..0.3, 0.0f64..0.2, 0.0f64..0.2, 0.0f64..0.25).prop_map(
        |(transient, timeout, corrupt, panic)| Rates { panic, corrupt, timeout, transient },
    )
}

proptest! {
    // Each case builds two full systems; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn scheduler_interleaving_is_invisible_under_any_fault_plan(
        seed in 0u64..1_000_000,
        embedder in rates_strategy(),
        reranker in rates_strategy(),
        reader in panicky_rates_strategy(),
        w_idx in 0usize..4,
        b_idx in 0usize..3,
    ) {
        let workers = [1usize, 2, 4, 8][w_idx];
        let cut = [1usize, 3, 16][b_idx];
        let questions = scheduler_questions();
        let qs = &questions[..cut];
        let plan = FaultPlan::seeded(seed)
            .with(Component::Embedder, embedder)
            .with(Component::Reranker, reranker)
            .with(Component::Reader, reader);

        let mut batch_sys = build_resilient(plan.clone());
        let batch_hub = batch_sys.enable_telemetry();
        let got = batch_sys.try_answer_batch(qs, workers);

        let mut seq_sys = build_resilient(plan);
        let seq_hub = seq_sys.enable_telemetry();
        let seq: Vec<_> = qs.iter().map(|q| seq_sys.try_answer_open(q)).collect();

        for (i, (g, s)) in got.iter().zip(&seq).enumerate() {
            prop_assert_eq!(
                slot_view(g),
                slot_view(s),
                "slot {} diverged at workers={} batch={}", i, workers, cut
            );
        }
        prop_assert_eq!(ledger_view(&batch_hub), ledger_view(&seq_hub));
    }
}

// --- telemetry -----------------------------------------------------------

fn histogram_snapshot_of(values: &[u64]) -> sage::telemetry::HistogramSnapshot {
    let h = sage::telemetry::Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(0u32..u32::MAX, 0..50),
        b in proptest::collection::vec(0u32..u32::MAX, 0..50),
        c in proptest::collection::vec(0u32..u32::MAX, 0..50),
    ) {
        let widen = |v: &[u32]| v.iter().map(|&x| x as u64).collect::<Vec<u64>>();
        let (sa, sb, sc) = (
            histogram_snapshot_of(&widen(&a)),
            histogram_snapshot_of(&widen(&b)),
            histogram_snapshot_of(&widen(&c)),
        );
        // (a + b) + c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a + (b + c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.count(), (a.len() + b.len() + c.len()) as u64);
        // Merging is exact: the merged snapshot equals one histogram fed
        // the concatenation.
        let mut all = widen(&a);
        all.extend(widen(&b));
        all.extend(widen(&c));
        prop_assert_eq!(left, histogram_snapshot_of(&all));
    }

    #[test]
    fn histogram_quantiles_land_in_the_true_bucket(
        mut values in proptest::collection::vec(0u64..1_000_000_000_000, 1..200),
        q in 0.0f64..1.0,
    ) {
        use sage::telemetry::hist::bucket_of;
        let s = histogram_snapshot_of(&values);
        values.sort_unstable();
        let n = values.len() as u64;
        // The estimate must fall in the same log-bucket as the true order
        // statistic of the same rank — i.e. within one bucket width.
        for q in [q, 0.50, 0.99] {
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let truth = values[(rank - 1) as usize];
            prop_assert_eq!(
                bucket_of(s.quantile(q)),
                bucket_of(truth),
                "q={} rank={} truth={} est={}", q, rank, truth, s.quantile(q)
            );
        }
    }

    #[test]
    fn histogram_merge_spans_disjoint_bucket_ranges(
        small in proptest::collection::vec(0u64..16, 1..40),
        huge in proptest::collection::vec((1u64 << 40)..(1u64 << 50), 1..16),
    ) {
        use sage::telemetry::hist::{bucket_of, bucket_upper};
        // The two snapshots occupy disjoint, differently-sized slices of
        // the bucket array: merge must be exact bucket-wise addition with
        // no renormalisation across the gap.
        let lo = histogram_snapshot_of(&small);
        let hi = histogram_snapshot_of(&huge);
        let mut merged = lo.clone();
        merged.merge(&hi);
        prop_assert_eq!(merged.count(), (small.len() + huge.len()) as u64);
        prop_assert_eq!(merged.sum, lo.sum + hi.sum);
        for i in 0..merged.counts.len() {
            prop_assert_eq!(merged.counts[i], lo.counts[i] + hi.counts[i]);
        }
        // The low tail still resolves to a small bucket and the high tail
        // to a huge one — neither population shadows the other.
        let small_max = *small.iter().max().unwrap();
        prop_assert!(merged.quantile(0.0) <= bucket_upper(bucket_of(small_max)));
        prop_assert!(merged.quantile(1.0) >= 1u64 << 40);
        // Merging with an empty snapshot is the identity.
        let empty = histogram_snapshot_of(&[]);
        let mut padded = merged.clone();
        padded.merge(&empty);
        prop_assert_eq!(padded, merged);
    }

    #[test]
    fn single_sample_quantiles_collapse_to_the_bucket_upper(v in 0u64..u64::MAX) {
        use sage::telemetry::hist::{bucket_of, bucket_upper};
        // With one sample every rank clamps to 1, so every quantile —
        // p99 included — is that sample's bucket upper bound.
        let s = histogram_snapshot_of(&[v]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            prop_assert_eq!(s.quantile(q), bucket_upper(bucket_of(v)), "q={} v={}", q, v);
        }
    }
}

#[test]
fn single_sample_p99_at_the_extreme_buckets() {
    use sage::telemetry::hist::{bucket_of, bucket_upper};
    // Edge buckets: zero lives in bucket 0 (upper bound 0) and u64::MAX
    // in the saturating top bucket (upper bound u64::MAX).
    assert_eq!(histogram_snapshot_of(&[0]).quantile(0.99), 0);
    assert_eq!(histogram_snapshot_of(&[1]).quantile(0.99), 1);
    assert_eq!(histogram_snapshot_of(&[u64::MAX]).quantile(0.99), u64::MAX);
    assert_eq!(bucket_upper(bucket_of(u64::MAX)), u64::MAX);
    // The empty histogram reports 0 rather than panicking on rank 0.
    assert_eq!(histogram_snapshot_of(&[]).quantile(0.99), 0);
}

/// Blank out the digit runs after the wall-clock keys (`"start_ns":` and
/// `"dur_ns":`) so two traces of the same run can be compared exactly.
fn strip_wallclock(s: &str) -> String {
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        let rest = &b[i..];
        let matched = [b"\"start_ns\":".as_slice(), b"\"dur_ns\":".as_slice()]
            .into_iter()
            .find(|k| rest.starts_with(k));
        if let Some(k) = matched {
            out.extend_from_slice(k);
            i += k.len();
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
        } else {
            out.push(b[i]);
            i += 1;
        }
    }
    String::from_utf8(out).expect("stripping ASCII digits keeps UTF-8 valid")
}

#[test]
fn telemetry_traces_are_deterministic_modulo_wallclock() {
    use sage::core::config::{RetrieverKind, SageConfig};
    use sage::core::models::{TrainBudget, TrainedModels};
    use sage::core::pipeline::RagSystem;
    use sage::llm::LlmProfile;

    let models = TrainedModels::train(TrainBudget::tiny());
    let corpus = vec![
        "Whiskers is a playful tabby cat. He has bright green eyes.\n\
         Dorinwick was well known in the region. He lives in Ashford."
            .to_string(),
    ];
    let trace_of = || {
        let mut system = RagSystem::build(
            &models,
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus,
        );
        let hub = system.enable_telemetry();
        system.answer(&Request::new("What is the color of Whiskers's eyes?")).unwrap();
        hub.traces_jsonl()
    };
    let a = trace_of();
    let b = trace_of();
    assert!(!a.is_empty(), "no trace recorded");
    // Identical builds + identical question -> identical span structure,
    // names, parents, and fields; only wall-clock readings may differ.
    assert_eq!(strip_wallclock(&a), strip_wallclock(&b));
    // Sanity: the stripper actually removed timing digits.
    assert_ne!(strip_wallclock(&a), a);
}

// --- Admission control ----------------------------------------------------
//
// The load-shedding decision is a pure function of (seed, sequence number,
// class, queue state) — no wall clock, no process randomness — so replaying
// the same operation sequence against two queues must produce the same
// decisions, and occupancy can never exceed capacity.

use sage::prelude::{AdmissionConfig, AdmissionQueue, BrownoutLevel, Priority, QueryBudget};
use std::time::Duration;

proptest! {
    #[test]
    fn admission_decisions_replay_identically(
        seed in 0u64..1_000_000,
        capacity in 1usize..32,
        ops in proptest::collection::vec((0u8..3, proptest::bool::ANY), 1..200),
    ) {
        let run = || {
            let mut q = AdmissionQueue::new(AdmissionConfig {
                capacity,
                seed,
                ..AdmissionConfig::default()
            });
            let mut decisions = Vec::new();
            for &(class, release) in &ops {
                let class = Priority::ALL[class as usize % Priority::COUNT];
                decisions.push(q.admit(class));
                // Depth is bounded by capacity at all times.
                assert!(q.depth() <= capacity, "depth {} > capacity {capacity}", q.depth());
                if release {
                    q.release();
                }
            }
            (decisions, q.depth(), q.shed_total(), q.admitted_total())
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn interactive_never_sheds_below_capacity(
        seed in 0u64..1_000_000,
        capacity in 2usize..32,
        fill in 0usize..32,
    ) {
        // Interactive's ramp starts at occupancy 1.0, so the only way to
        // shed it is a hard-full queue.
        let mut q = AdmissionQueue::new(AdmissionConfig {
            capacity,
            seed,
            ..AdmissionConfig::default()
        });
        for _ in 0..fill.min(capacity - 1) {
            q.admit(Priority::Interactive);
        }
        prop_assert_eq!(q.admit(Priority::Interactive), sage::admission::Decision::Admitted);
    }
}

// --- Brownout ladder monotonicity -----------------------------------------
//
// On a fixed system, shrinking the budget must only push queries *deeper*
// down the brownout ladder (never shallower) and never make them more
// expensive. The rung is planned once, at admission, and the plan is
// monotone to the nanosecond and the token (`budget.rs` pins each
// boundary), so the grids below are sparse only to keep the test fast.

fn budgeted_system() -> RagSystem {
    RagSystem::build(
        shared_models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &resilience_corpus(),
    )
}

#[test]
fn brownout_ladder_monotone_in_deadline() {
    let system = budgeted_system();
    for question in ["What is the color of Whiskers's eyes?", "Where does Dorinwick live?"] {
        // Ascending deadlines, generous token budget: the ladder level
        // must be non-increasing, the feedback rounds non-decreasing, and
        // the realized cost non-decreasing (modulo answer-length wiggle).
        let deadlines_ms = [500u64, 1_500, 2_500, 4_000, 8_000, 20_000, 120_000];
        let mut prev: Option<(BrownoutLevel, usize, u64)> = None;
        for ms in deadlines_ms {
            let budget = QueryBudget::new(Duration::from_millis(ms), 1_000_000);
            let r =
                system.answer(&Request { budget: Some(budget), ..Request::new(question) }).unwrap();
            let cost = r.cost.input_tokens + r.cost.output_tokens;
            if let Some((level, rounds, tokens)) = prev {
                assert!(
                    r.brownout <= level,
                    "{question}: ladder got deeper as deadline grew to {ms}ms \
                     ({level} -> {})",
                    r.brownout
                );
                assert!(
                    r.feedback_rounds >= rounds,
                    "{question}: feedback rounds shrank as deadline grew to {ms}ms"
                );
                assert!(
                    cost + 64 >= tokens,
                    "{question}: cost fell from {tokens} to {cost} as deadline grew to {ms}ms"
                );
            }
            prev = Some((r.brownout, r.feedback_rounds, cost));
        }
        // The extremes actually differ: the tightest budget browned out,
        // the loosest did not.
        let tight = QueryBudget::new(Duration::from_millis(500), 1_000_000);
        let tight =
            system.answer(&Request { budget: Some(tight), ..Request::new(question) }).unwrap();
        assert!(tight.brownout > BrownoutLevel::None);
        let loose = Request { budget: Some(QueryBudget::generous()), ..Request::new(question) };
        let loose = system.answer(&loose).unwrap();
        assert_eq!(loose.brownout, BrownoutLevel::None);
        assert_eq!(loose.answer.text, system.answer(&Request::new(question)).unwrap().answer.text);
    }
}

#[test]
fn brownout_ladder_monotone_in_token_budget() {
    let system = budgeted_system();
    let question = "What is the color of Whiskers's eyes?";
    let token_grid = [300u64, 1_300, 2_300, 5_300, 1_000_000];
    let mut prev: Option<BrownoutLevel> = None;
    for tokens in token_grid {
        let budget = QueryBudget::new(Duration::from_secs(120), tokens);
        let r = system.answer(&Request { budget: Some(budget), ..Request::new(question) }).unwrap();
        if let Some(level) = prev {
            assert!(
                r.brownout <= level,
                "ladder got deeper as tokens grew to {tokens}: {level} -> {}",
                r.brownout
            );
        }
        prev = Some(r.brownout);
    }
}

// --- Crash-safe persistence -----------------------------------------------
//
// A saved system file carries a CRC-32 trailer; flipping any single bit in
// the payload or the stored checksum must surface as a checksum error on
// load (never a panic, never a silent success).

fn saved_system_file() -> &'static Vec<u8> {
    static BLOB: OnceLock<Vec<u8>> = OnceLock::new();
    BLOB.get_or_init(|| {
        let system = RagSystem::build(
            shared_models(),
            RetrieverKind::Bm25,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &resilience_corpus(),
        );
        let path = std::env::temp_dir().join("sage_prop_persist.bin");
        system.save(&path).expect("save");
        let raw = std::fs::read(&path).expect("read saved file");
        std::fs::remove_file(&path).ok();
        raw
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_single_bit_flip_is_caught_by_the_checksum(
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let clean = saved_system_file();
        // Restrict flips to the payload + stored-CRC region (the last 8
        // bytes are the trailer magic; flipping those is the missing-
        // trailer error, covered by the test below).
        let region = clean.len() - 8;
        let pos = ((pos_frac * region as f64) as usize).min(region - 1);
        let mut torn = clean.clone();
        torn[pos] ^= 1 << bit;
        let path = std::env::temp_dir().join(format!("sage_prop_flip_{pos}_{bit}.bin"));
        std::fs::write(&path, &torn).expect("write");
        let result = RagSystem::load(&path, LlmProfile::gpt4o_mini());
        std::fs::remove_file(&path).ok();
        match result {
            Ok(_) => prop_assert!(false, "flip at {pos} bit {bit} loaded successfully"),
            Err(e) => prop_assert!(
                e.to_string().contains("checksum mismatch"),
                "flip at {} bit {}: expected checksum error, got: {}", pos, bit, e
            ),
        }
    }
}

#[test]
fn clean_saved_file_roundtrips_and_magic_flips_fail_closed() {
    let clean = saved_system_file();
    let path = std::env::temp_dir().join("sage_prop_persist_clean.bin");
    std::fs::write(&path, clean).expect("write");
    assert!(RagSystem::load(&path, LlmProfile::gpt4o_mini()).is_ok(), "clean file must load");
    // Corrupt the trailer magic itself: without it the CRC cannot be
    // checked, so the file is refused as having no trailer.
    let mut torn = clean.clone();
    let magic_pos = clean.len() - 3;
    torn[magic_pos] ^= 0x20;
    std::fs::write(&path, &torn).expect("write");
    match RagSystem::load(&path, LlmProfile::gpt4o_mini()) {
        Ok(_) => panic!("a file without the trailer magic must not load"),
        Err(e) => assert!(e.to_string().contains("missing SAGECRC1 trailer"), "got: {e}"),
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Live corpus: compaction equivalence and crash-point recovery
// ---------------------------------------------------------------------------

mod live_corpus {
    use super::*;
    use sage::core::live::{CorpusWriter, LiveConfig, LiveError, LiveOp};
    use sage::resilience::{CrashPlan, CrashPoint};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn scratch() -> std::path::PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("sage_prop_live_{}_{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Unique per (doc, revision) so score ties between distinct chunks
    /// cannot occur and every upsert is dirty.
    fn doc_text(doc: u8, rev: u32) -> String {
        format!(
            "Record {doc} revision {rev}. The committee filed item {}. \
             A further note covers shelf {} of archive {doc}.",
            u32::from(doc) * 31 + rev,
            rev + 1
        )
    }

    fn doc_id(doc: u8) -> String {
        format!("doc-{doc}")
    }

    /// Compact on every tombstone, so the store under test never carries
    /// dead slots across a commit boundary.
    fn eager_compaction() -> LiveConfig {
        LiveConfig { compact_dead_fraction: 0.0, compact_min_dead: 1, ..LiveConfig::default() }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// After any interleaving of upserts and deletes with eager
        /// compaction, the store is search-equivalent (bit-identical
        /// scores) to a fresh store built from scratch over the surviving
        /// documents in last-update order — compaction loses nothing and
        /// leaks nothing.
        #[test]
        fn compacted_store_equals_rebuild_over_survivors(
            ops in proptest::collection::vec((0u8..8, proptest::bool::ANY), 1..40),
        ) {
            let dir = scratch();
            let (mut w, _) = CorpusWriter::open(&dir, eager_compaction()).expect("open");
            let mut revs = [0u32; 8];
            let mut order: Vec<u8> = Vec::new(); // docs by last dirty upsert
            for batch_ops in ops.chunks(3) {
                let batch: Vec<LiveOp> = batch_ops
                    .iter()
                    .map(|&(doc, delete)| {
                        order.retain(|&d| d != doc);
                        if delete {
                            LiveOp::Delete { doc_id: doc_id(doc) }
                        } else {
                            revs[doc as usize] += 1;
                            order.push(doc);
                            LiveOp::Upsert {
                                doc_id: doc_id(doc),
                                text: doc_text(doc, revs[doc as usize]),
                            }
                        }
                    })
                    .collect();
                w.commit(&batch).expect("commit");
            }

            let dir2 = scratch();
            let (mut fresh, _) = CorpusWriter::open(&dir2, eager_compaction()).expect("open");
            let rebuild: Vec<LiveOp> = order
                .iter()
                .map(|&doc| LiveOp::Upsert {
                    doc_id: doc_id(doc),
                    text: doc_text(doc, revs[doc as usize]),
                })
                .collect();
            if !rebuild.is_empty() {
                fresh.commit(&rebuild).expect("rebuild commit");
            }

            let (a, b) = (w.snapshot(), fresh.snapshot());
            prop_assert_eq!(a.doc_count(), b.doc_count());
            prop_assert_eq!(a.live_chunks(), b.live_chunks());
            for q in ["committee filed item", "note covers shelf", "record archive revision"] {
                let ha: Vec<(String, String, u32)> = a
                    .search(q, 6)
                    .into_iter()
                    .map(|h| (h.doc_id, h.chunk, h.score.to_bits()))
                    .collect();
                let hb: Vec<(String, String, u32)> = b
                    .search(q, 6)
                    .into_iter()
                    .map(|h| (h.doc_id, h.chunk, h.score.to_bits()))
                    .collect();
                prop_assert_eq!(ha, hb, "query {:?} diverged after compaction", q);
            }
            std::fs::remove_dir_all(&dir).ok();
            std::fs::remove_dir_all(&dir2).ok();
        }

        /// Whatever history preceded it, a crash injected at any of the
        /// five write barriers recovers to exactly the last committed
        /// epoch with an identical content digest.
        #[test]
        fn any_crash_point_recovers_to_last_committed_epoch(
            ops in proptest::collection::vec((0u8..6, proptest::bool::ANY), 1..20),
            point_idx in 0usize..5,
        ) {
            let point = CrashPoint::ALL[point_idx];
            let dir = scratch();
            let cfg = LiveConfig::default();
            let (mut w, _) = CorpusWriter::open(&dir, cfg).expect("open");
            let mut revs = [0u32; 6];
            for batch_ops in ops.chunks(4) {
                let batch: Vec<LiveOp> = batch_ops
                    .iter()
                    .map(|&(doc, delete)| {
                        if delete {
                            LiveOp::Delete { doc_id: doc_id(doc) }
                        } else {
                            revs[doc as usize] += 1;
                            LiveOp::Upsert {
                                doc_id: doc_id(doc),
                                text: doc_text(doc, revs[doc as usize]),
                            }
                        }
                    })
                    .collect();
                w.commit(&batch).expect("commit");
            }
            let (epoch, digest) = (w.epoch(), w.digest());
            drop(w);

            let (mut w, _) =
                CorpusWriter::open_with_crash_plan(&dir, cfg, CrashPlan::always(point))
                    .expect("reopen with plan");
            let crashed = w.commit(&[LiveOp::Upsert {
                doc_id: "doc-crash".to_string(),
                text: "This batch must never become visible.".to_string(),
            }]);
            prop_assert!(
                matches!(crashed, Err(LiveError::CrashInjected(p)) if p == point),
                "expected injected crash at {point}"
            );
            drop(w);

            let (w, rec) = CorpusWriter::open(&dir, cfg).expect("recover");
            prop_assert_eq!(rec.epoch, epoch);
            prop_assert_eq!(w.epoch(), epoch);
            prop_assert_eq!(w.digest(), digest, "recovered state diverged at {}", point);
            prop_assert!(w.snapshot().doc_fingerprint("doc-crash").is_none());
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
