//! Scenario-matrix grammar, baseline format, and regression differ.
//!
//! A scenario file is a declarative grid of cells, each one a point in
//! dataset × retriever × fault-plan × budget × load-shape space. This
//! module owns the *pure* half of the harness: parsing the file
//! (a small TOML subset — no TOML dependency), rendering result rows to
//! the committed `BENCH_scenarios.json` baseline format, parsing a
//! baseline back, and diffing two row sets under per-metric tolerance
//! bands. Actually *running* a cell needs the pipeline and lives in
//! `sage-core`; the CLI glues the two together.
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
//!
//! [tolerance]           # optional; relative bands per metric (0 = exact)
//! p99_us = 0.10
//! ```
//!
//! Values are quoted strings, integers, floats, or `true`/`false`.
//! Unknown keys are errors — a typo must not silently widen a band or
//! drop an axis.

use std::collections::BTreeMap;

/// One cell of the scenario grid, fully resolved against `[defaults]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCell {
    /// Unique row name; keys the baseline diff and metric labels.
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
    /// Shard fault domains (scatter-gather serving + per-shard soak
    /// pools); 1 = unsharded.
    pub shards: u64,
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
            shards: 1,
            deadline_ms: 8_000,
            max_tokens: 4_000,
        }
    }
}

/// A parsed scenario file: the resolved grid plus tolerance bands.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioFile {
    /// Grid rows in file order.
    pub cells: Vec<ScenarioCell>,
    /// Relative tolerance per metric name (absent = exact match).
    pub tolerance: BTreeMap<String, f64>,
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
    Bool(bool),
}

fn parse_value(raw: &str, line_no: usize) -> Result<Value, String> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| format!("line {line_no}: unterminated string {raw}"))?;
        if inner.contains('"') {
            return Err(format!("line {line_no}: embedded quote in string {raw}"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    raw.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("line {line_no}: bad value `{raw}` (string, number, or bool)"))
}

fn as_str(v: &Value, key: &str) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("key `{key}` expects a quoted string")),
    }
}

fn as_u64(v: &Value, key: &str) -> Result<u64, String> {
    match v {
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        _ => Err(format!("key `{key}` expects a non-negative integer")),
    }
}

fn apply(cell: &mut ScenarioCell, key: &str, v: &Value) -> Result<(), String> {
    match key {
        "name" => cell.name = as_str(v, key)?,
        "dataset" => cell.dataset = as_str(v, key)?,
        "docs" => cell.docs = as_u64(v, key)?,
        "retriever" => cell.retriever = as_str(v, key)?,
        "faults" => cell.faults = as_str(v, key)?,
        "seed" => cell.seed = as_u64(v, key)?,
        "duration_s" => cell.duration_s = as_u64(v, key)?,
        "qps" => cell.qps = as_u64(v, key)?,
        "capacity" => cell.capacity = as_u64(v, key)?,
        "concurrency" => cell.concurrency = as_u64(v, key)?,
        "shards" => cell.shards = as_u64(v, key)?,
        "deadline_ms" => cell.deadline_ms = as_u64(v, key)?,
        "max_tokens" => cell.max_tokens = as_u64(v, key)?,
        other => return Err(format!("unknown cell key `{other}`")),
    }
    Ok(())
}

/// Parse a scenario file. Errors carry line numbers and never panic on
/// hostile input.
pub fn parse_scenarios(text: &str) -> Result<ScenarioFile, String> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Defaults,
        Cell,
        Tolerance,
    }
    let mut section = Section::None;
    let mut defaults = ScenarioCell::default();
    let mut raw_cells: Vec<Vec<(String, Value, usize)>> = Vec::new();
    let mut tolerance = BTreeMap::new();

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
            "[tolerance]" => section = Section::Tolerance,
            _ if line.starts_with('[') => {
                return Err(format!("line {line_no}: unknown section {line}"));
            }
            _ => {
                let (key, value) = line
                    .split_once('=')
                    .ok_or_else(|| format!("line {line_no}: expected key = value, got `{line}`"))?;
                let key = key.trim().to_string();
                let value = parse_value(value, line_no)?;
                match section {
                    Section::None => {
                        return Err(format!("line {line_no}: key outside any section"));
                    }
                    Section::Defaults => {
                        if key == "name" {
                            return Err(format!("line {line_no}: `name` not allowed in [defaults]"));
                        }
                        apply(&mut defaults, &key, &value)
                            .map_err(|e| format!("line {line_no}: {e}"))?;
                    }
                    Section::Cell => {
                        if let Some(cell) = raw_cells.last_mut() {
                            cell.push((key, value, line_no));
                        }
                    }
                    Section::Tolerance => match value {
                        Value::Num(n) if (0.0..=1.0).contains(&n) => {
                            tolerance.insert(key, n);
                        }
                        _ => {
                            return Err(format!(
                                "line {line_no}: tolerance for `{key}` must be in [0, 1]"
                            ));
                        }
                    },
                }
            }
        }
    }

    let mut cells = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (idx, raw) in raw_cells.into_iter().enumerate() {
        let mut cell = defaults.clone();
        for (key, value, line_no) in &raw {
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
    Ok(ScenarioFile { cells, tolerance })
}

/// One measured grid row: the cell name plus ordered metric pairs. Metric
/// values are stored as their *rendered* strings so baseline bytes are
/// exactly reproducible; the differ parses them back to numbers.
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

    /// Metric value parsed as a number, if present.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.parse().ok())
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

/// Render rows as the committed `BENCH_scenarios.json` baseline: a JSON
/// array, one object per row, stable formatting.
pub fn render_rows(rows: &[BenchRow]) -> String {
    let body: Vec<String> = rows.iter().map(|r| r.to_json()).collect();
    format!("[\n  {}\n]\n", body.join(",\n  "))
}

/// Parse a baseline produced by [`render_rows`]. Tolerates arbitrary
/// whitespace but requires the same flat shape: an array of objects whose
/// values are strings or numbers.
pub fn parse_rows(text: &str) -> Result<Vec<BenchRow>, String> {
    let mut rows = Vec::new();
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if bytes.get(*i) != Some(&'"') {
            return Err(format!("expected string at offset {i:?}"));
        }
        *i += 1;
        let mut s = String::new();
        while let Some(&c) = bytes.get(*i) {
            *i += 1;
            match c {
                '"' => return Ok(s),
                '\\' => {
                    let esc = bytes.get(*i).copied().ok_or("truncated escape")?;
                    *i += 1;
                    s.push(match esc {
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        other => other,
                    });
                }
                c => s.push(c),
            }
        }
        Err("unterminated string".to_string())
    };

    skip_ws(&mut i);
    if bytes.get(i) != Some(&'[') {
        return Err("baseline must be a JSON array".to_string());
    }
    i += 1;
    loop {
        skip_ws(&mut i);
        match bytes.get(i) {
            Some(']') => break,
            Some(',') => {
                i += 1;
                continue;
            }
            Some('{') => {
                i += 1;
                let mut row = BenchRow::new("");
                loop {
                    skip_ws(&mut i);
                    match bytes.get(i) {
                        Some('}') => {
                            i += 1;
                            break;
                        }
                        Some(',') => {
                            i += 1;
                            continue;
                        }
                        Some('"') => {
                            let key = parse_string(&mut i)?;
                            skip_ws(&mut i);
                            if bytes.get(i) != Some(&':') {
                                return Err(format!("missing `:` after key {key}"));
                            }
                            i += 1;
                            skip_ws(&mut i);
                            if bytes.get(i) == Some(&'"') {
                                let v = parse_string(&mut i)?;
                                if key == "name" {
                                    row.name = v;
                                } else {
                                    row.metrics.push((key, v));
                                }
                            } else {
                                let start = i;
                                while bytes
                                    .get(i)
                                    .is_some_and(|c| !c.is_whitespace() && *c != ',' && *c != '}')
                                {
                                    i += 1;
                                }
                                let raw: String = bytes[start..i].iter().collect();
                                raw.parse::<f64>()
                                    .map_err(|_| format!("bad number `{raw}` for {key}"))?;
                                row.metrics.push((key, raw));
                            }
                        }
                        other => return Err(format!("unexpected {other:?} in row")),
                    }
                }
                if row.name.is_empty() {
                    return Err("row without a name".to_string());
                }
                rows.push(row);
            }
            other => return Err(format!("unexpected {other:?} in baseline")),
        }
    }
    Ok(rows)
}

/// Compare measured rows against a baseline under per-metric relative
/// tolerance bands. Returns human-readable regression lines; empty means
/// the run matches the committed trajectory. When `filtered` is true only
/// rows present in *both* sets are compared (a `--filter` run legitimately
/// measures a subset); otherwise the row-name sets must match exactly.
pub fn diff_rows(
    baseline: &[BenchRow],
    current: &[BenchRow],
    tolerance: &BTreeMap<String, f64>,
    filtered: bool,
) -> Vec<String> {
    let mut out = Vec::new();
    let base_by: BTreeMap<&str, &BenchRow> =
        baseline.iter().map(|r| (r.name.as_str(), r)).collect();
    let cur_by: BTreeMap<&str, &BenchRow> = current.iter().map(|r| (r.name.as_str(), r)).collect();

    if !filtered {
        for name in base_by.keys() {
            if !cur_by.contains_key(name) {
                out.push(format!("row `{name}`: in baseline but not measured"));
            }
        }
        for name in cur_by.keys() {
            if !base_by.contains_key(name) {
                out.push(format!("row `{name}`: measured but missing from baseline (re-run with --update)"));
            }
        }
    }

    for (name, cur) in &cur_by {
        let Some(base) = base_by.get(name) else { continue };
        for (key, base_raw) in &base.metrics {
            let Some(cur_val) = cur.get(key) else {
                out.push(format!("row `{name}`: metric `{key}` disappeared"));
                continue;
            };
            let base_val: f64 = match base_raw.parse() {
                Ok(v) => v,
                Err(_) => {
                    out.push(format!("row `{name}`: baseline metric `{key}` is not numeric"));
                    continue;
                }
            };
            let tol = tolerance.get(key).copied().unwrap_or(0.0);
            let band = tol * base_val.abs().max(f64::EPSILON);
            if (cur_val - base_val).abs() > band {
                let pct = if base_val.abs() > f64::EPSILON {
                    format!("{:+.1}%", (cur_val - base_val) / base_val.abs() * 100.0)
                } else {
                    "n/a".to_string()
                };
                out.push(format!(
                    "row `{name}`: {key} baseline {base_raw} -> measured {cur_val} ({pct}, tolerance {:.1}%)",
                    tol * 100.0
                ));
            }
        }
        for (key, _) in &cur.metrics {
            if base.get(key).is_none() {
                out.push(format!("row `{name}`: new metric `{key}` not in baseline"));
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

[tolerance]
p99_us = 0.10
"#;

    #[test]
    fn parses_defaults_cells_and_tolerance() {
        let f = parse_scenarios(SAMPLE).unwrap();
        assert_eq!(f.cells.len(), 2);
        assert_eq!(f.cells[0].name, "smoke-base");
        assert_eq!(f.cells[0].qps, 3);
        assert_eq!(f.cells[0].duration_s, 10);
        assert_eq!(f.cells[1].retriever, "bm25");
        assert_eq!(f.cells[1].faults, "embed:0.2");
        assert_eq!(f.cells[1].seed, 7);
        assert_eq!(f.tolerance.get("p99_us"), Some(&0.10));
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
        assert!(
            parse_scenarios("[[cell]]\nname = \"a\"\n[tolerance]\nx = 2.0\n").is_err(),
            "tolerance out of range"
        );
    }

    #[test]
    fn comments_do_not_eat_quoted_hashes() {
        let f = parse_scenarios("[[cell]]\nname = \"has#hash\"  # trailing\n").unwrap();
        assert_eq!(f.cells[0].name, "has#hash");
    }

    fn row(name: &str, p99: u64, acc: f64) -> BenchRow {
        let mut r = BenchRow::new(name);
        r.push_u64("p99_us", p99);
        r.push_f64("accuracy", acc);
        r
    }

    #[test]
    fn rows_round_trip_byte_stable() {
        let rows = vec![row("a", 1200, 0.75), row("b \"q\"", 90, 0.5)];
        let text = render_rows(&rows);
        let parsed = parse_rows(&text).unwrap();
        assert_eq!(parsed, rows);
        assert_eq!(render_rows(&parsed), text, "render∘parse must be identity");
    }

    #[test]
    fn diff_flags_regressions_and_respects_tolerance() {
        let base = vec![row("a", 1000, 0.75)];
        let tol = BTreeMap::from([("p99_us".to_string(), 0.10)]);
        // Inside the band: clean.
        assert!(diff_rows(&base, &[row("a", 1050, 0.75)], &tol, false).is_empty());
        // Outside the band: flagged, readable.
        let d = diff_rows(&base, &[row("a", 1200, 0.75)], &tol, false);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("p99_us") && d[0].contains("+20.0%"), "{}", d[0]);
        // Exact metric with no band: any drift is flagged.
        let d = diff_rows(&base, &[row("a", 1000, 0.7)], &tol, false);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("accuracy"), "{}", d[0]);
    }

    #[test]
    fn diff_checks_row_sets_unless_filtered() {
        let base = vec![row("a", 1, 0.5), row("b", 2, 0.5)];
        let cur = vec![row("a", 1, 0.5)];
        let strict = diff_rows(&base, &cur, &BTreeMap::new(), false);
        assert!(strict.iter().any(|l| l.contains("`b`")), "{strict:?}");
        assert!(diff_rows(&base, &cur, &BTreeMap::new(), true).is_empty());
    }
}
