//! CLI subcommand implementations.

use crate::args::Flags;
use sage::core::exec::QueryPlan;
use sage::corpus::datasets::{narrativeqa, qasper, quality, SizeConfig};
use sage::prelude::*;
use std::sync::OnceLock;

/// Models are trained once per process (deterministic, a few seconds), or
/// loaded from a `--models` file written by `sage train`.
fn models() -> &'static TrainedModels {
    static M: OnceLock<TrainedModels> = OnceLock::new();
    M.get_or_init(|| {
        eprintln!("training models (one-time, deterministic)...");
        TrainedModels::train(TrainBudget::default())
    })
}

/// Resolve the model bundle: `--models <path>` loads a saved bundle,
/// otherwise models are trained in-process.
fn resolve_models(flags: &Flags) -> Result<&'static TrainedModels, String> {
    match flags.get("models") {
        Some(path) if !path.is_empty() => {
            static LOADED: OnceLock<TrainedModels> = OnceLock::new();
            if LOADED.get().is_none() {
                let loaded = TrainedModels::load(std::path::Path::new(path))
                    .map_err(|e| format!("cannot load models from {path}: {e}"))?;
                let _ = LOADED.set(loaded);
            }
            Ok(LOADED.get().expect("just set"))
        }
        _ => Ok(models()),
    }
}

/// `sage index` — build a system over a corpus file and save it.
pub fn index(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown("index", &["file", "out", "retriever", "naive", "models"])?;
    let corpus = load_corpus(flags.require("file")?)?;
    let out = flags.require("out")?;
    let retriever = parse_retriever(flags.get_or("retriever", "openai"))?;
    let config = if flags.has("naive") { SageConfig::naive_rag() } else { SageConfig::sage() };
    let system = RagSystem::build(
        resolve_models(flags)?,
        retriever,
        config,
        LlmProfile::gpt4o_mini(), // placeholder; `query` rebinds the reader
        &corpus,
    );
    system.save(std::path::Path::new(out)).map_err(|e| format!("cannot write {out}: {e}"))?;
    let stats = system.build_stats();
    eprintln!(
        "indexed {} chunks ({} corpus tokens) -> {out}",
        stats.chunk_count, stats.corpus_tokens
    );
    Ok(())
}

/// `sage query` — answer a question against a saved index.
pub fn query(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown(
        "query",
        &[
            "index", "question", "llm", "faults", "fault-seed", "telemetry", "trace-out",
            "metrics-out",
        ],
    )?;
    let path = flags.require("index")?;
    let question = flags.require("question")?;
    let profile = parse_llm(flags.get_or("llm", "gpt4o-mini"))?;
    let mut system = RagSystem::load(std::path::Path::new(path), profile)
        .map_err(|e| format!("cannot load index {path}: {e}"))?;
    apply_faults(flags, &mut system)?;
    apply_telemetry(flags, &mut system);
    let result = system.answer(&Request::new(question)).map_err(|e| e.to_string())?;
    println!("{}", result.answer.text);
    eprintln!(
        "confidence {:.2} | {} chunks | {} tokens | ${:.6}",
        result.answer.confidence,
        result.selected.len(),
        result.cost.total_tokens(),
        result.cost.dollars(profile.prices),
    );
    report_degradation(flags, &result.degraded, &system);
    report_telemetry(flags, &system, profile)?;
    Ok(())
}

/// `sage train` — train the model bundle and save it for reuse.
pub fn train(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown("train", &["out"])?;
    let out = flags.require("out")?;
    let m = models();
    m.save(std::path::Path::new(out)).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("saved trained models to {out}");
    Ok(())
}

/// Load a text file as one corpus document: blank-line-separated paragraphs
/// become '\n'-separated paragraphs (the format the pipeline expects);
/// single newlines inside a paragraph are unwrapped to spaces.
fn load_corpus(path: &str) -> Result<Vec<String>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let paragraphs: Vec<String> = raw
        .split("\n\n")
        .map(|p| p.split_whitespace().collect::<Vec<_>>().join(" "))
        .filter(|p| !p.is_empty())
        .collect();
    if paragraphs.is_empty() {
        return Err(format!("{path} contains no text"));
    }
    Ok(vec![paragraphs.join("\n")])
}

/// Apply the fault flags: `--faults <spec>` (e.g.
/// `reader=transient:0.5,embedder=timeout:1.0`) with `--fault-seed <n>`
/// (injection seed). Without `--faults` the system keeps its default plan,
/// which injects nothing.
fn apply_faults(flags: &Flags, system: &mut RagSystem) -> Result<(), String> {
    let Some(spec) = flags.get("faults") else { return Ok(()) };
    let seed: u64 = flags.get_parse("fault-seed", 0u64)?;
    system.set_faults(FaultPlan::parse_spec(spec, seed)?);
    Ok(())
}

/// Apply the telemetry flags: any of `--telemetry` (stderr summary),
/// `--trace-out <path>` (JSONL query traces), `--metrics-out <path>`
/// (Prometheus text dump) attaches a recording hub to the system.
fn apply_telemetry(flags: &Flags, system: &mut RagSystem) {
    if flags.has("telemetry") || flags.has("trace-out") || flags.has("metrics-out") {
        system.enable_telemetry();
    }
}

/// Write out whatever the telemetry flags asked for. No-op when no hub is
/// attached.
fn report_telemetry(flags: &Flags, system: &RagSystem, profile: LlmProfile) -> Result<(), String> {
    let Some(hub) = system.telemetry() else { return Ok(()) };
    let prices = sage::telemetry::export::Prices {
        input_per_token: profile.prices.input_per_token,
        output_per_token: profile.prices.output_per_token,
    };
    if let Some(path) = flags.get("trace-out").filter(|p| !p.is_empty()) {
        std::fs::write(path, hub.traces_jsonl())
            .map_err(|e| format!("cannot write trace file {path}: {e}"))?;
        eprintln!("wrote {} trace(s) -> {path}", hub.trace_count());
    }
    if let Some(path) = flags.get("metrics-out").filter(|p| !p.is_empty()) {
        let text = sage::telemetry::export::prometheus(hub, Some(prices));
        std::fs::write(path, text)
            .map_err(|e| format!("cannot write metrics file {path}: {e}"))?;
        eprintln!("wrote metrics -> {path}");
    }
    if flags.has("telemetry") {
        eprint!("{}", sage::telemetry::export::summary(hub, Some(prices)));
    }
    Ok(())
}

/// Report degraded-mode serving: the per-query trace, then, when `--faults`
/// was given, the system-wide fallback counters.
fn report_degradation(flags: &Flags, trace: &DegradeTrace, system: &RagSystem) {
    for e in &trace.events {
        eprintln!(
            "degraded: {:?} -> {} after {} attempt(s) (+{:.0?} virtual delay)",
            e.component, e.fallback, e.attempts, e.delay
        );
    }
    if flags.has("faults") {
        let counters = system.fallback_counters();
        if counters.is_empty() {
            eprintln!("fallbacks: none (served on the primary path)");
        } else {
            let parts: Vec<String> =
                counters.iter().map(|(label, n)| format!("{label}={n}")).collect();
            eprintln!("fallbacks: {}", parts.join(" "));
        }
    }
}

fn parse_retriever(name: &str) -> Result<RetrieverKind, String> {
    RetrieverKind::parse(name)
        .ok_or_else(|| format!("unknown retriever `{name}` (openai|sbert|dpr|bm25)"))
}

/// `--duration <seconds>` (default 30) of `soak` and `report`.
fn parse_duration(flags: &Flags) -> Result<std::time::Duration, String> {
    std::time::Duration::try_from_secs_f64(flags.get_parse("duration", 30.0f64)?)
        .map_err(|_| "--duration must be a finite, non-negative number of seconds".to_string())
}

fn parse_llm(name: &str) -> Result<LlmProfile, String> {
    match name {
        "gpt4" => Ok(LlmProfile::gpt4()),
        "gpt4o-mini" | "mini" => Ok(LlmProfile::gpt4o_mini()),
        "gpt3.5" | "gpt35" => Ok(LlmProfile::gpt35_turbo()),
        "unifiedqa" => Ok(LlmProfile::unifiedqa_3b()),
        other => Err(format!("unknown llm `{other}` (gpt4|gpt4o-mini|gpt3.5|unifiedqa)")),
    }
}

/// `--naive [tokens]`: bare is the paper's 200-token Naive RAG budget; a
/// value must be a positive integer.
fn naive_tokens(flags: &Flags) -> Result<usize, String> {
    match flags.get_or("naive", "") {
        "" => Ok(200),
        raw => raw
            .parse::<std::num::NonZeroUsize>()
            .map(std::num::NonZeroUsize::get)
            .map_err(|_| format!("invalid value for --naive: {raw}")),
    }
}

/// `sage segment` — show the semantic chunks of a corpus file.
pub fn segment(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown("segment", &["file", "threshold", "coarse", "naive", "models"])?;
    let corpus = load_corpus(flags.require("file")?)?;
    let threshold: f32 = flags.get_parse("threshold", 0.55)?;
    let coarse: usize = flags.get_parse("coarse", 400)?;
    let chunks = if flags.has("naive") {
        SentenceSegmenter { max_tokens: naive_tokens(flags)? }.segment(&corpus[0])
    } else {
        let segmenter = SemanticSegmenter::with_params(
            resolve_models(flags)?.segmentation.clone(),
            threshold,
            coarse,
        );
        segmenter.segment(&corpus[0])
    };
    for (i, chunk) in chunks.iter().enumerate() {
        println!("[{i:>3}] ({} tokens) {chunk}", sage::text::count_tokens(chunk));
    }
    eprintln!("{} chunks", chunks.len());
    Ok(())
}

/// `sage ask` — answer a question over a corpus file.
pub fn ask(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown(
        "ask",
        &[
            "file", "question", "retriever", "llm", "naive", "show-context", "models",
            "faults", "fault-seed", "telemetry", "trace-out", "metrics-out",
        ],
    )?;
    let corpus = load_corpus(flags.require("file")?)?;
    let question = flags.require("question")?;
    let retriever = parse_retriever(flags.get_or("retriever", "openai"))?;
    let profile = parse_llm(flags.get_or("llm", "gpt4o-mini"))?;
    let config = if flags.has("naive") { SageConfig::naive_rag() } else { SageConfig::sage() };

    let mut system = RagSystem::build(resolve_models(flags)?, retriever, config, profile, &corpus);
    apply_faults(flags, &mut system)?;
    apply_telemetry(flags, &mut system);
    let result = system.answer(&Request::new(question)).map_err(|e| e.to_string())?;
    println!("{}", result.answer.text);
    eprintln!(
        "confidence {:.2} | {} chunks | {} feedback rounds | {} tokens | ${:.6}",
        result.answer.confidence,
        result.selected.len(),
        result.feedback_rounds,
        result.cost.total_tokens(),
        result.cost.dollars(profile.prices),
    );
    if flags.has("show-context") {
        for &id in &result.selected {
            eprintln!("  [ctx {id}] {}", system.chunks()[id]);
        }
    }
    report_degradation(flags, &result.degraded, &system);
    report_telemetry(flags, &system, profile)?;
    Ok(())
}

/// `sage eval` — run a method over a generated dataset and print metrics.
pub fn eval(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown(
        "eval",
        &["dataset", "method", "docs", "questions", "retriever", "llm", "seed", "models"],
    )?;
    let dataset_name = flags.get_or("dataset", "quality");
    let docs: usize = flags.get_parse("docs", 6)?;
    let questions: usize = flags.get_parse("questions", 4)?;
    let seed: u64 = flags.get_parse("seed", 0xC11u64)?;
    let cfg = SizeConfig { num_docs: docs.max(1), questions_per_doc: questions.max(1), seed };
    let dataset = match dataset_name {
        "quality" => quality::generate(cfg),
        "qasper" => qasper::generate(cfg),
        "narrativeqa" => narrativeqa::generate(cfg),
        other => return Err(format!("unknown dataset `{other}` (quality|qasper|narrativeqa)")),
    };
    let retriever = parse_retriever(flags.get_or("retriever", "openai"))?;
    let method = match flags.get_or("method", "sage") {
        "sage" => Method::Sage(retriever),
        "naive" => Method::NaiveRag(retriever),
        "raptor" => Method::Raptor,
        "title-abstract" => Method::TitleAbstract,
        "bm25-bert" => Method::Bm25Bert,
        "summarize" => Method::RecursiveSummary,
        other => {
            return Err(format!(
                "unknown method `{other}` (sage|naive|raptor|title-abstract|bm25-bert|summarize)"
            ))
        }
    };
    let profile = parse_llm(flags.get_or("llm", "gpt4o-mini"))?;

    eprintln!(
        "evaluating {} on {dataset_name} ({} docs, {} questions, {} tokens)...",
        method.label(),
        dataset.documents.len(),
        dataset.tasks.len(),
        dataset.corpus_tokens()
    );
    let s = evaluate(method, resolve_models(flags)?, profile, &dataset);
    println!("method            {}", s.label);
    println!("llm               {}", s.llm);
    println!("questions         {}", s.n);
    if s.accuracy > 0.0 {
        println!("accuracy          {:.2}%", 100.0 * s.accuracy);
        println!("accuracy (hard)   {:.2}%", 100.0 * s.hard_accuracy);
    }
    if s.rouge > 0.0 {
        println!("ROUGE-L           {:.2}%", 100.0 * s.rouge);
        println!("BLEU-1            {:.2}%", 100.0 * s.bleu1);
        println!("BLEU-4            {:.2}%", 100.0 * s.bleu4);
        println!("METEOR            {:.2}%", 100.0 * s.meteor);
        println!("F1-Match          {:.2}%", 100.0 * s.f1);
    }
    println!("total tokens      {}", s.cost.total_tokens());
    println!("total cost        ${:.6}", s.dollars);
    println!("cost efficiency   {:.2}", s.efficiency());
    Ok(())
}

/// `sage soak` — replay a seeded open-loop arrival process against a
/// built system through admission control and per-query deadline budgets,
/// on a virtual clock. The event log (one line per arrival outcome) goes
/// to stdout so two runs with the same seed can be diffed bit-for-bit;
/// the summary and any invariant violations go to stderr. Exits nonzero
/// when an invariant is violated, so CI can gate on it.
///
/// Corpus: `--file <path>` with `--question "..."` replays one question
/// over a user corpus; otherwise a generated QuALITY-analog corpus
/// (`--docs N`) supplies both documents and questions. Faults compose:
/// `--faults`/`--fault-seed` work exactly as in `sage ask`.
pub fn soak(flags: &Flags) -> Result<(), String> {
    if flags.has("live") {
        return live_soak(flags);
    }
    flags.reject_unknown(
        "soak",
        &[
            "seed", "qps", "duration", "capacity", "concurrency", "deadline-ms", "token-budget",
            "no-budget", "docs", "file", "question", "max-shed-rate", "retriever", "llm", "models",
            "faults", "fault-seed", "telemetry", "trace-out", "metrics-out",
        ],
    )?;
    let (corpus, questions, cfg) = soak_run(flags)?;

    let retriever = parse_retriever(flags.get_or("retriever", "openai"))?;
    let profile = parse_llm(flags.get_or("llm", "gpt4o-mini"))?;
    let mut system =
        RagSystem::build(resolve_models(flags)?, retriever, SageConfig::sage(), profile, &corpus);
    apply_faults(flags, &mut system)?;
    apply_telemetry(flags, &mut system);

    eprintln!(
        "soak: seed {} | {:.0?} virtual @ {} qps | capacity {} | {} server(s) | {}",
        cfg.seed,
        cfg.duration,
        cfg.qps,
        cfg.capacity,
        cfg.concurrency,
        match cfg.budget {
            Some(b) => format!("deadline {:.0?}, {} tokens", b.deadline, b.max_tokens),
            None => "no budget".to_string(),
        }
    );
    let report = run_soak(&system, &questions, &cfg);
    for line in &report.log {
        println!("{line}");
    }
    eprint!("{}", report.summary());
    report_telemetry(flags, &system, profile)?;

    let max_shed: f64 = flags.get_parse("max-shed-rate", 0.9f64)?;
    let violations = report.check_invariants(&cfg, max_shed);
    // One machine-readable summary line closes the stdout stream; it is a
    // pure function of the report, so diffing two runs still works.
    println!("{}", report.json_summary(&violations));
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("soak invariants violated: {}", violations.join("; ")))
    }
}

/// The run `sage soak` and `sage report` share: the corpus and the
/// questions replayed over it (`--file <path>` with `--question "..."`, or
/// a generated QuALITY-analog corpus of `--docs N`), and the soak
/// configuration from the load-shape and budget flags. Each command's
/// `reject_unknown` list decides which of these flags it accepts.
fn soak_run(flags: &Flags) -> Result<(Vec<String>, Vec<String>, SoakConfig), String> {
    let seed: u64 = flags.get_parse("seed", 42u64)?;
    let (corpus, questions): (Vec<String>, Vec<String>) = match flags.get("file") {
        Some(path) if !path.is_empty() => {
            let corpus = load_corpus(path)?;
            let question = flags
                .require("question")
                .map_err(|_| "--file needs --question \"...\" (replayed per arrival)".to_string())?;
            (corpus, vec![question.to_string()])
        }
        _ => {
            let docs: usize = flags.get_parse("docs", 2usize)?;
            let dataset = quality::generate(SizeConfig {
                num_docs: docs.max(1),
                questions_per_doc: 4,
                seed,
            });
            let corpus: Vec<String> = dataset.documents.iter().map(|d| d.text()).collect();
            let questions: Vec<String> =
                dataset.tasks.iter().map(|t| t.item.question.clone()).collect();
            (corpus, questions)
        }
    };
    let deadline_ms: u64 = flags.get_parse("deadline-ms", 8_000u64)?;
    let token_budget: u64 = flags.get_parse("token-budget", 50_000u64)?;
    let cfg = SoakConfig {
        seed,
        duration: parse_duration(flags)?,
        qps: flags.get_parse("qps", 4.0f64)?,
        capacity: flags.get_parse("capacity", 8usize)?,
        concurrency: flags.get_parse("concurrency", 2usize)?,
        budget: if flags.has("no-budget") {
            None
        } else {
            Some(QueryBudget::new(std::time::Duration::from_millis(deadline_ms), token_budget))
        },
        ..SoakConfig::default()
    };
    Ok((corpus, questions, cfg))
}

/// `sage soak --live` — drive the live-corpus writer through a seeded
/// stream of upsert/delete batches interleaved with queries, optionally
/// under a crash plan injected at the commit write barriers. Every
/// injected crash is followed by a recovery drill (reopen, verify epoch
/// and digest, retry the batch). The event log goes to stdout — it
/// contains no wall-clock times or paths, so two runs with the same seeds
/// are byte-identical even in different `--live-dir`s; the summary goes
/// to stderr. Exits nonzero on invariant violations.
fn live_soak(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown(
        "soak --live",
        &[
            "live", "live-dir", "ops", "batch", "docs", "queries", "seed", "retriever", "crash",
            "crash-seed",
        ],
    )?;
    let seed: u64 = flags.get_parse("seed", 42u64)?;
    let dir = match flags.get("live-dir") {
        Some(d) if !d.is_empty() => std::path::PathBuf::from(d),
        _ => std::env::temp_dir().join(format!("sage-live-soak-{seed}")),
    };
    let crash_seed: u64 = flags.get_parse("crash-seed", 7u64)?;
    let crash = match flags.get("crash") {
        Some(spec) if !spec.is_empty() => CrashPlan::parse_spec(spec, crash_seed)
            .map_err(|e| format!("bad --crash spec: {e}"))?,
        _ => CrashPlan::none(),
    };
    let name = flags.get_or("retriever", "hashed");
    let retriever = LiveRetrieverKind::parse(name)
        .ok_or_else(|| format!("bad --retriever {name:?} for --live (hashed|bm25)"))?;
    let cfg = LiveSoakConfig {
        seed,
        commits: flags.get_parse("ops", 24usize)?,
        batch: flags.get_parse("batch", 4usize)?,
        doc_pool: flags.get_parse("docs", 16usize)?,
        queries_per_commit: flags.get_parse("queries", 2usize)?,
        crash,
        live: LiveConfig { retriever, ..LiveConfig::default() },
    };
    eprintln!(
        "live soak: seed {} | {} commits x {} ops | pool {} | retriever {} | crash seed {}",
        cfg.seed,
        cfg.commits,
        cfg.batch,
        cfg.doc_pool,
        retriever.label(),
        crash.seed(),
    );
    let report = run_live_soak(&dir, &cfg).map_err(|e| format!("live soak failed: {e}"))?;
    print!("{}", report.log);
    println!("{}", report.json_summary());
    eprintln!("{}", report.summary());
    if report.violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "live soak invariants violated: {}",
            report.violations.join("; ")
        ))
    }
}

/// `sage demo` — the quickstart corpus, end to end.
pub fn demo() -> Result<(), String> {
    let corpus = vec![
        "Whiskers is a playful tabby cat. He has bright green eyes. His fur is mostly gray.\n\
         The morning fog settled over the valley, as it had for many years.\n\
         Dorinwick was well known in the region. He lives in Ashford. He works as a baker."
            .to_string(),
    ];
    let system = RagSystem::build(
        models(),
        RetrieverKind::OpenAiSim,
        SageConfig::sage(),
        LlmProfile::gpt4o_mini(),
        &corpus,
    );
    for q in [
        "What is the color of Whiskers's eyes?",
        "Where does Dorinwick live?",
        "What is Dorinwick's profession?",
    ] {
        let r = system.answer(&Request::new(q)).map_err(|e| e.to_string())?;
        println!("Q: {q}\nA: {}\n", r.answer.text);
    }
    Ok(())
}

/// `sage explain` — print the query plan a question would execute:
/// resolved stages, the telemetry each stage records, and the rewrite each
/// brownout rung applies. Pure plan resolution — no models are trained and
/// no index is built.
pub fn explain(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown("explain", &["question", "retriever", "naive"])?;
    let retriever = parse_retriever(flags.get_or("retriever", "openai"))?;
    let config = if flags.has("naive") { SageConfig::naive_rag() } else { SageConfig::sage() };
    if let Some(q) = flags.get("question").filter(|q| !q.is_empty()) {
        println!("question: {q}");
    }
    println!(
        "config: {} | retriever: {}",
        if flags.has("naive") { "naive-rag" } else { "sage" },
        flags.get_or("retriever", "openai"),
    );
    print!("{}", QueryPlan::for_kind(&config, retriever).explain());
    Ok(())
}

/// `sage report` — run a recorded soak and emit one diagnostics bundle:
/// every per-query observation, the soak summary with its invariant
/// verdict, the telemetry histograms and cost ledger, and a reconciliation
/// section proving the layers agree (the stream's shed / brownout counts
/// vs the admission counters, ledger tokens vs per-query observations).
/// The bundle is one JSON object on stdout (or `--out`); the telemetry
/// summary goes to stderr.
pub fn report(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown(
        "report",
        &[
            "seed", "qps", "duration", "capacity", "concurrency", "deadline-ms", "token-budget",
            "docs", "out", "metrics-out", "retriever", "llm", "models",
        ],
    )?;
    let (corpus, questions, cfg) = soak_run(flags)?;

    let retriever = parse_retriever(flags.get_or("retriever", "openai"))?;
    let profile = parse_llm(flags.get_or("llm", "gpt4o-mini"))?;
    let mut system =
        RagSystem::build(resolve_models(flags)?, retriever, SageConfig::sage(), profile, &corpus);
    let hub = system.enable_telemetry();

    // The shed/brownout counters are process-global; reconcile against
    // this run's deltas, not absolute values.
    use sage::telemetry::metrics::{BROWNOUT_TOTAL, SHED_TOTAL};
    let shed0: Vec<u64> = (0..Priority::COUNT).map(|i| SHED_TOTAL.get(i)).collect();
    let brownout0 = BROWNOUT_TOTAL.total();

    eprintln!("report: seed {} | {:.0?} virtual @ {} qps", cfg.seed, cfg.duration, cfg.qps);
    let soak = run_soak(&system, &questions, &cfg);

    let shed_delta: u64 = (0..Priority::COUNT).map(|i| SHED_TOTAL.get(i) - shed0[i]).sum();
    let brownout_delta = BROWNOUT_TOTAL.total() - brownout0;
    let brownout_steps: u64 =
        soak.obs.iter().filter(|o| o.outcome == Outcome::Done).map(|o| u64::from(o.brownout)).sum();
    let obs_tokens: u64 = soak.obs.iter().map(|o| o.tokens).sum();
    let ledger = hub.ledger().total();
    let reconciliation = sage::telemetry::Reconciliation {
        shed_counters_match: shed_delta == soak.shed_total(),
        brownout_counters_match: brownout_delta == brownout_steps,
        ledger_tokens_match: ledger.total_tokens() == obs_tokens,
    };

    let mut observations = String::from("[");
    for (i, o) in soak.obs.iter().enumerate() {
        if i > 0 {
            observations.push(',');
        }
        o.write_json(&mut observations);
    }
    observations.push(']');

    let mut bundle = sage::telemetry::Bundle::new();
    bundle.push_raw("run", run_section(&cfg, corpus.len()));
    bundle.push_raw("soak", soak.json_summary(&soak.check_invariants(&cfg, 1.0)));
    bundle.push_raw("observations", observations);
    bundle.push_histogram("query_latency_ns", &hub.query_snapshot());
    bundle.push_u64("ledger_calls", ledger.calls);
    bundle.push_u64("ledger_tokens", ledger.total_tokens());
    bundle.push_raw("reconciliation", reconciliation.to_json());
    let rendered = bundle.render();

    match flags.get("out").filter(|p| !p.is_empty()) {
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| format!("cannot write bundle to {path}: {e}"))?;
            eprintln!("wrote diagnostics bundle -> {path}");
        }
        None => print!("{rendered}"),
    }
    let prices = sage::telemetry::export::Prices {
        input_per_token: profile.prices.input_per_token,
        output_per_token: profile.prices.output_per_token,
    };
    if let Some(path) = flags.get("metrics-out").filter(|p| !p.is_empty()) {
        let text = sage::telemetry::export::prometheus(&hub, Some(prices));
        std::fs::write(path, text).map_err(|e| format!("cannot write metrics file {path}: {e}"))?;
        eprintln!("wrote metrics -> {path}");
    }
    eprint!("{}", sage::telemetry::export::summary(&hub, Some(prices)));
    if !reconciliation.clean() {
        return Err(format!("report reconciliation failed: {}", reconciliation.to_json()));
    }
    Ok(())
}

/// The bundle's `run` section: the soak's configuration and corpus size.
/// `duration_s` keeps a fractional `--duration` (`2.5`, not `2`).
fn run_section(cfg: &SoakConfig, docs: usize) -> String {
    format!(
        "{{\"seed\": {}, \"qps\": {}, \"duration_s\": {}, \"capacity\": {}, \
         \"concurrency\": {}, \"deadline_ms\": {}, \"docs\": {}}}",
        cfg.seed,
        cfg.qps,
        cfg.duration.as_secs_f64(),
        cfg.capacity,
        cfg.concurrency,
        cfg.budget.map_or(0, |b| b.deadline.as_millis()),
        docs
    )
}

/// `sage scenarios run <grid.toml>` — execute a declarative scenario
/// matrix and print one metrics row per cell (or write them to `--out`).
/// With `--baseline F` every measured row must occur byte for byte in `F`
/// — and an unfiltered run must render `F` exactly — or the command
/// prints the differing lines and exits nonzero. Re-baselining is
/// `--out BENCH_scenarios.json`.
pub fn scenarios(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown("scenarios", &["file", "baseline", "filter", "out", "models"])?;
    let file = flags.require("file").map_err(|_| {
        "usage: sage scenarios run <scenarios.toml> [--filter S] [--out F] [--baseline F]"
            .to_string()
    })?;
    let text = std::fs::read_to_string(file)
        .map_err(|e| format!("cannot read scenario grid {file}: {e}"))?;
    let grid = parse_scenarios(&text).map_err(|e| format!("{file}: {e}"))?;
    let filter = flags.get("filter").filter(|f| !f.is_empty());
    let cells: Vec<&ScenarioCell> =
        grid.iter().filter(|c| filter.is_none_or(|f| c.name.contains(f))).collect();
    if cells.is_empty() {
        return Err(match filter {
            Some(f) => format!("no cell in {file} matches --filter {f}"),
            None => format!("{file} defines no cells"),
        });
    }

    let models = resolve_models(flags)?;
    let mut rows = Vec::new();
    for cell in &cells {
        eprintln!(
            "scenario {}: {} x{} | {} | faults `{}` | {}s @ {} qps",
            cell.name, cell.dataset, cell.docs, cell.retriever, cell.faults, cell.duration_s,
            cell.qps
        );
        rows.push(run_cell(models, cell)?);
    }
    let rendered = render_rows(&rows);
    if let Some(path) = flags.get("out").filter(|p| !p.is_empty()) {
        std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote measured rows -> {path}");
    } else {
        print!("{rendered}");
    }

    if let Some(path) = flags.get("baseline").filter(|p| !p.is_empty()) {
        check_baseline(path, &rows, filter.is_some())?;
        eprintln!("scenarios: {} cell(s) byte-identical to {path}", rows.len());
    }
    Ok(())
}

/// Require every row of `rows` to occur byte for byte in the committed
/// file at `path`, and an unfiltered run to render that file exactly. The
/// error lists each differing row as its `- committed` / `+ measured` line
/// pair.
fn check_baseline(path: &str, rows: &[BenchRow], filtered: bool) -> Result<(), String> {
    let baseline =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let committed: Vec<&str> = baseline
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with('{'))
        .collect();
    let mut diff = Vec::new();
    for row in rows {
        let measured = row.to_json();
        if committed.contains(&measured.as_str()) {
            continue;
        }
        // `{"name": "<name>"` — the closing quote makes the prefix unambiguous.
        let named = BenchRow::new(&row.name).to_json();
        if let Some(old) = committed.iter().find(|l| l.starts_with(named.trim_end_matches('}'))) {
            diff.push(format!("- {old}"));
        }
        diff.push(format!("+ {measured}"));
    }
    if !filtered && diff.is_empty() && render_rows(rows) != baseline {
        diff.push("(the file holds every measured row, and other rows or another order)".to_string());
    }
    if diff.is_empty() {
        return Ok(());
    }
    Err(format!(
        "measured rows differ from {path} (if intended, re-baseline with --out and read \
         `git diff`):\n{}",
        diff.join("\n")
    ))
}

/// Print usage.
pub fn print_help() {
    println!(
        "sage — SAGE precise-retrieval RAG (ICDE 2025 reproduction)

USAGE:
  sage segment --file <path> [--threshold 0.55] [--coarse 400] [--naive [tokens]]
  sage ask     --file <path> --question \"...\" [--retriever openai|sbert|dpr|bm25]
               [--llm gpt4|gpt4o-mini|gpt3.5|unifiedqa] [--naive] [--show-context]
               [--telemetry] [--trace-out <path>] [--metrics-out <path>]
  sage eval    [--dataset quality|qasper|narrativeqa] [--method sage|naive|raptor|
               title-abstract|bm25-bert|summarize] [--docs N] [--questions M]
               [--retriever R] [--llm L] [--seed S]
  sage index   --file <path> --out <index> [--retriever R] [--naive]
  sage query   --index <index> --question \"...\" [--llm L]
  sage train   --out <path>         # save the trained model bundle
  sage soak    [--seed 42] [--qps 4] [--duration 30] [--capacity 8]
               [--concurrency 2] [--deadline-ms 8000] [--token-budget 50000]
               [--no-budget] [--docs N | --file <path> --question \"...\"]
               [--max-shed-rate 0.9] [--faults <spec>] [--fault-seed <n>]
  sage soak --live [--live-dir <dir>] [--ops 24] [--batch 4] [--docs 16]
               [--queries 2] [--seed 42] [--retriever hashed|bm25]
               [--crash <spec>] [--crash-seed 7]
  sage explain [\"question\"] [--retriever R] [--naive]
               # print the resolved query plan: its stages (each opens
               # and closes its own telemetry span) and the rewrite each
               # brownout rung applies once, before retrieval
  sage report  [--seed 42] [--qps 4] [--duration 30] [--docs N]
               [--out <bundle>] [--metrics-out <path>]
  sage scenarios run <grid.toml> [--filter <substr>] [--out <path>]
               [--baseline <path>]
  sage demo
  sage help

Commands that train models at startup (segment, ask, eval, index, soak,
report, scenarios) accept --models <path> to reuse a saved bundle. A flag
a command does not read is an error, not ignored.

RESILIENCE (ask, query, soak):
  Every query runs behind guarded component boundaries (retry + a
  per-query failure cap) and degrades instead of failing.
  --faults <spec>       inject deterministic faults, e.g.
                        \"reader=transient:0.5,embedder=timeout:1.0\"
                        (components: embedder|index|reranker|reader;
                         kinds: transient|timeout|corrupt|panic)
  --fault-seed <n>      seed for the injection stream (default 0)
  Degraded-mode events and fallback counters are reported on stderr.

TELEMETRY (ask, query, soak):
  --telemetry           print a serving-path summary on stderr after the
                        answer: per-stage latency histograms (p50/p90/p99),
                        the token/dollar cost ledger, and counters
  --trace-out <path>    write per-query span traces as JSON Lines
                        (one trace object per query; spans carry parent
                        links, start/duration in ns, and key=value fields);
                        the most recent 4,096 are kept, older ones are
                        dropped and counted on the summary's last line
  --metrics-out <path>  write a Prometheus text-format dump of all
                        counters, histograms, and cost gauges
  Any telemetry flag attaches the recorder; overhead when none is given
  is a single relaxed atomic load per instrumentation site.

SOAK:
  sage soak replays a seeded open-loop arrival process (exponential
  gaps, weighted priority classes) against a built system through a
  bounded admission queue and per-query deadline budgets, entirely on a
  virtual clock: same seed, same log, bit for bit. The event log goes
  to stdout (diff two runs to check determinism); the summary — sheds
  by class, brownout ladder histogram, p50/p99 sojourn — goes to
  stderr. Queue waits consume each query's deadline, so overload pushes
  queries down the brownout ladder (drop feedback -> flat top-k)
  instead of failing them. Exits nonzero if a soak invariant is
  violated (panics, excess shed, out-of-order brownout, unbounded
  p99). Fault flags compose with the soak.

LIVE SOAK:
  sage soak --live drives the live-corpus writer (epoch snapshots,
  incremental segment files + manifest) through a seeded stream of
  document upserts/deletes interleaved with retrieval queries. --crash
  injects deterministic crashes at the commit write barriers, e.g.
  \"pre-rename,post-tmp:0.5\" (points: pre-tmp|post-tmp|pre-rename|
  post-rename|pre-manifest-commit; bare point = always). Every injected
  crash is followed by a recovery drill: reopen, verify the store is at
  the last committed epoch with an identical content digest, retry.
  The stdout log carries no times or paths — same seeds, same bytes,
  even across different --live-dir. Exits nonzero if any invariant
  (recovery, snapshot isolation, hit validity, sublinear updates) is
  violated.

OBSERVABILITY:
  sage report runs a recorded soak and emits one diagnostics bundle
  (JSON): the soak summary and its invariant verdict, every query's
  observation in terminal-event order, latency histograms and the cost
  ledger, plus a reconciliation section proving the layers agree. The
  one-screen dashboard (stage latency quantiles, cost ledger, counters)
  goes to stderr; --metrics-out writes the Prometheus dump.

SCENARIOS:
  sage scenarios run <grid.toml> executes a declarative matrix of
  dataset x retriever x fault-plan x budget x load-shape cells
  ([defaults] / [[cell]] sections) through the soak and eval machinery
  and prints one metrics row per cell. Rows are modeled virtual-clock
  quantities: same grid, same bytes. --baseline <path> requires every
  measured row to occur byte for byte in that file (the whole file,
  when unfiltered) and exits nonzero with the differing lines
  otherwise; --out BENCH_scenarios.json re-baselines.

Corpus files: paragraphs separated by blank lines."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_retriever_accepts_all_kinds() {
        assert_eq!(parse_retriever("openai").unwrap(), RetrieverKind::OpenAiSim);
        assert_eq!(parse_retriever("sbert").unwrap(), RetrieverKind::Sbert);
        assert_eq!(parse_retriever("dpr").unwrap(), RetrieverKind::Dpr);
        assert_eq!(parse_retriever("bm25").unwrap(), RetrieverKind::Bm25);
        assert!(parse_retriever("faiss").is_err());
    }

    #[test]
    fn duration_flag_rejects_what_a_duration_cannot_hold() {
        let parse = |value: &str| {
            let argv = ["--duration".to_string(), value.to_string()];
            parse_duration(&crate::args::parse_flags(&argv).unwrap())
        };
        for bad in ["-1", "nan", "1e30"] {
            assert_eq!(
                parse(bad).unwrap_err(),
                "--duration must be a finite, non-negative number of seconds",
                "--duration {bad}"
            );
        }
        assert_eq!(parse("10").unwrap(), std::time::Duration::from_secs(10));
        assert_eq!(parse("abc").unwrap_err(), "invalid value for --duration: abc");
    }

    #[test]
    fn run_section_keeps_fractional_durations() {
        let section = |secs: f64| {
            let cfg = SoakConfig {
                duration: std::time::Duration::from_secs_f64(secs),
                ..SoakConfig::default()
            };
            run_section(&cfg, 2)
        };
        assert!(section(2.5).contains("\"duration_s\": 2.5,"), "{}", section(2.5));
        assert!(section(0.5).contains("\"duration_s\": 0.5,"), "{}", section(0.5));
        assert!(section(10.0).contains("\"duration_s\": 10,"), "{}", section(10.0));
        assert!(section(10.0).ends_with("\"docs\": 2}"), "{}", section(10.0));
    }

    #[test]
    fn parse_llm_accepts_aliases() {
        assert_eq!(parse_llm("mini").unwrap().name, LlmProfile::gpt4o_mini().name);
        assert_eq!(parse_llm("gpt35").unwrap().name, LlmProfile::gpt35_turbo().name);
        assert!(parse_llm("claude").is_err());
    }

    #[test]
    fn load_corpus_unwraps_paragraphs() {
        let path = std::env::temp_dir().join("sage_cli_test_corpus.txt");
        std::fs::write(&path, "line one\nline two\n\nsecond para").unwrap();
        let corpus = load_corpus(path.to_str().unwrap()).unwrap();
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus[0], "line one line two\nsecond para");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resilience_flags_enable_guards_and_reject_bad_specs() {
        let models = TrainedModels::train(TrainBudget::tiny());
        let corpus = vec!["Whiskers is a playful tabby cat. He has bright green eyes.".to_string()];
        let mut system = RagSystem::build(
            &models,
            RetrieverKind::Bm25,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &corpus,
        );
        let argv = |items: &[&str]| -> Vec<String> { items.iter().map(|s| s.to_string()).collect() };

        let q = "What is the color of Whiskers's eyes?";

        // No flags: the guards run with no faults to inject.
        let none = crate::args::parse_flags(&[]).unwrap();
        apply_faults(&none, &mut system).unwrap();
        assert!(system.answer(&Request::new(q)).unwrap().degraded.is_clean());
        assert!(system.fallback_counters().is_empty());

        // A fault spec arms the guards with it.
        let f = crate::args::parse_flags(&argv(&[
            "--faults",
            "reader=transient:1.0",
            "--fault-seed",
            "7",
        ]))
        .unwrap();
        apply_faults(&f, &mut system).unwrap();
        let r = system.answer(&Request::new(q)).unwrap();
        assert_eq!(r.answer.text, "unanswerable");
        assert_eq!(system.fallback_counters(), vec![("reader->unanswerable", 1)]);

        // Malformed specs surface as CLI errors, not panics.
        let bad = crate::args::parse_flags(&argv(&["--faults", "reader=warp:0.5"])).unwrap();
        assert!(apply_faults(&bad, &mut system).is_err());
    }

    #[test]
    fn baseline_check_is_byte_exact() {
        let row = |name: &str, p99: u64| {
            let mut r = BenchRow::new(name);
            r.push_u64("p99_us", p99);
            r
        };
        let committed = [row("a", 10), row("b", 20)];
        let path = std::env::temp_dir().join("sage_cli_test_baseline.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, render_rows(&committed)).unwrap();

        // Match: the full grid renders the file; a filtered run needs only
        // its own rows to occur in it.
        assert_eq!(check_baseline(path, &committed, false), Ok(()));
        assert_eq!(check_baseline(path, &committed[1..], true), Ok(()));

        // Mismatch: the smallest drift fails, and the error carries the
        // committed and the measured line of the row that moved.
        let err = check_baseline(path, &[row("a", 10), row("b", 21)], false).unwrap_err();
        assert!(err.contains("- {\"name\": \"b\", \"p99_us\": 20}"), "{err}");
        assert!(err.contains("+ {\"name\": \"b\", \"p99_us\": 21}"), "{err}");
        assert!(!err.contains("\"a\""), "unchanged rows stay out of the diff: {err}");
        // An unfiltered run that measures fewer rows than are committed,
        // or a row the file does not have, is a mismatch too.
        let err = check_baseline(path, &committed[..1], false).unwrap_err();
        assert!(err.contains("and other rows"), "{err}");
        let err = check_baseline(path, &[row("c", 1)], true).unwrap_err();
        assert!(err.contains("+ {\"name\": \"c\", \"p99_us\": 1}") && !err.contains("\n- "), "{err}");
        std::fs::remove_file(path).ok();

        // Missing file: an error, never a silently created baseline.
        let err = check_baseline(path, &committed, false).unwrap_err();
        assert!(err.starts_with("cannot read baseline"), "{err}");
        assert!(!std::path::Path::new(path).exists());
    }

    #[test]
    fn naive_budget_is_200_bare_and_a_positive_integer_otherwise() {
        let tokens = |args: &[&str]| {
            let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            naive_tokens(&crate::args::parse_flags(&argv).unwrap())
        };
        assert_eq!(tokens(&["--naive"]), Ok(200));
        assert_eq!(tokens(&["--naive", "--file", "x"]), Ok(200));
        assert_eq!(tokens(&["--naive", "50"]), Ok(50));
        for bad in ["abc", "0", "-3", "1.5"] {
            assert_eq!(tokens(&["--naive", bad]), Err(format!("invalid value for --naive: {bad}")));
        }
    }

    #[test]
    fn load_corpus_errors() {
        assert!(load_corpus("/nonexistent/definitely/missing.txt").is_err());
        let path = std::env::temp_dir().join("sage_cli_test_empty.txt");
        std::fs::write(&path, "   \n\n  ").unwrap();
        assert!(load_corpus(path.to_str().unwrap()).is_err());
        std::fs::remove_file(&path).ok();
    }
}
