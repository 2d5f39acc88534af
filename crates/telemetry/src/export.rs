//! Exporters: Prometheus text exposition and a human-readable summary.
//!
//! (The third export format, JSONL traces, lives on the hub itself as
//! [`Telemetry::traces_jsonl`](crate::Telemetry::traces_jsonl) because it
//! is a straight serialisation of the stored traces.)
//!
//! Both exporters here are pure string builders over a hub snapshot, so
//! they can run at any point without pausing collection.

use crate::hist::{bucket_upper, HistogramSnapshot, BUCKETS};
use crate::{metrics, Stage, Telemetry};

/// Per-token prices for converting the ledger to simulated dollars.
///
/// Kept as plain floats (rather than depending on `sage-eval`'s
/// `PriceTable`) so this crate stays dependency-free; callers copy the
/// two fields over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prices {
    /// Dollars per prompt token.
    pub input_per_token: f64,
    /// Dollars per completion token.
    pub output_per_token: f64,
}

/// Render the hub as Prometheus text exposition format.
///
/// Emits `# TYPE` metadata for every family, histogram families with
/// cumulative `_bucket{le=...}` series plus `_sum`/`_count`, the global
/// substrate counters, the per-stage cost ledger, and gauges for build
/// statistics. Zero-count buckets are skipped (cumulative counts stay
/// correct); every exported value is finite.
pub fn prometheus(t: &Telemetry, prices: Option<Prices>) -> String {
    let mut out = String::new();

    // Global substrate counters.
    for c in metrics::all() {
        push_meta(&mut out, c.name(), "counter", c.help());
        out.push_str(&format!("{} {}\n", c.name(), c.get()));
    }

    // Labelled counter families (brownout ladder steps, admission sheds):
    // one # TYPE line per family, one sample per label value.
    for f in metrics::labeled() {
        push_meta(&mut out, f.name(), "counter", f.help());
        for (label, value) in f.entries() {
            out.push_str(&format!(
                "{}{{{}=\"{}\"}} {}\n",
                f.name(),
                f.key(),
                escape_label_value(label),
                value
            ));
        }
    }

    // Query-level counters.
    push_meta(&mut out, "sage_queries_total", "counter", "Queries answered");
    out.push_str(&format!("sage_queries_total {}\n", t.query_count()));
    push_meta(
        &mut out,
        "sage_degrade_events_total",
        "counter",
        "Resilience degradation events folded into query traces",
    );
    out.push_str(&format!("sage_degrade_events_total {}\n", t.degrade_count()));

    // Latency histograms.
    push_meta(
        &mut out,
        "sage_stage_latency_ns",
        "histogram",
        "Per-stage wall-clock latency in nanoseconds",
    );
    for stage in Stage::ALL {
        let snap = t.stage_snapshot(stage);
        if snap.count() > 0 {
            push_histogram(&mut out, "sage_stage_latency_ns", &[("stage", stage.label())], &snap);
        }
    }
    push_meta(
        &mut out,
        "sage_query_latency_ns",
        "histogram",
        "End-to-end query latency in nanoseconds",
    );
    push_histogram(&mut out, "sage_query_latency_ns", &[], &t.query_snapshot());

    // Cost ledger.
    push_meta(
        &mut out,
        "sage_cost_calls_total",
        "counter",
        "LLM calls attributed to each pipeline stage",
    );
    push_meta(
        &mut out,
        "sage_cost_tokens_total",
        "counter",
        "Tokens attributed to each pipeline stage, by direction",
    );
    if prices.is_some() {
        push_meta(
            &mut out,
            "sage_cost_dollars",
            "gauge",
            "Simulated dollars attributed to each pipeline stage",
        );
    }
    for (stage, cost) in t.ledger().active_stages() {
        let stage_label = escape_label_value(stage.label());
        out.push_str(&format!(
            "sage_cost_calls_total{{stage=\"{stage_label}\"}} {}\n",
            cost.calls
        ));
        out.push_str(&format!(
            "sage_cost_tokens_total{{stage=\"{stage_label}\",direction=\"input\"}} {}\n",
            cost.input_tokens
        ));
        out.push_str(&format!(
            "sage_cost_tokens_total{{stage=\"{stage_label}\",direction=\"output\"}} {}\n",
            cost.output_tokens
        ));
        if let Some(p) = prices {
            out.push_str(&format!(
                "sage_cost_dollars{{stage=\"{stage_label}\"}} {:.9}\n",
                cost.dollars(p.input_per_token, p.output_per_token)
            ));
        }
    }

    // Build statistics (summed over recorded builds).
    let builds = t.builds();
    if !builds.is_empty() {
        let gauges: [(&str, &str, u64); 5] = [
            ("sage_build_chunks", "Chunks produced by segmentation", sum(&builds, |b| b.chunk_count)),
            ("sage_build_corpus_tokens", "Whitespace tokens in built corpora", sum(&builds, |b| b.corpus_tokens)),
            ("sage_build_memory_bytes", "Bytes held by retriever indexes", sum(&builds, |b| b.memory_bytes)),
            ("sage_build_segmentation_ns", "Wall-clock spent segmenting", sum(&builds, |b| b.segmentation_ns)),
            ("sage_build_index_ns", "Wall-clock spent embedding and indexing", sum(&builds, |b| b.index_ns)),
        ];
        for (name, help, value) in gauges {
            push_meta(&mut out, name, "gauge", help);
            out.push_str(&format!("{name} {value}\n"));
        }
    }

    out
}

fn sum(builds: &[crate::BuildRecord], f: impl Fn(&crate::BuildRecord) -> u64) -> u64 {
    builds.iter().map(f).sum()
}

fn push_meta(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline must be backslash-escaped inside
/// the quoted label value. Every label interpolation in this module (and
/// in downstream exporters building on it) must pass through here —
/// today's label values are static idents, but scenario names and other
/// user-controlled strings also travel this path.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn push_histogram(out: &mut String, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
    let extra = |more: &str| -> String {
        let mut parts: Vec<String> =
            labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
        if !more.is_empty() {
            parts.push(more.to_string());
        }
        if parts.is_empty() { String::new() } else { format!("{{{}}}", parts.join(",")) }
    };
    let mut cumulative = 0u64;
    for i in 0..BUCKETS {
        let c = snap.counts[i];
        if c == 0 {
            continue;
        }
        cumulative += c;
        out.push_str(&format!(
            "{name}_bucket{} {cumulative}\n",
            extra(&format!("le=\"{}\"", bucket_upper(i)))
        ));
    }
    out.push_str(&format!("{name}_bucket{} {}\n", extra("le=\"+Inf\""), snap.count()));
    out.push_str(&format!("{name}_sum{} {}\n", extra(""), snap.sum));
    out.push_str(&format!("{name}_count{} {}\n", extra(""), snap.count()));
}

/// Render the hub as a human-readable per-run summary table.
///
/// Intended for stderr under the CLI's `--telemetry` flag: build
/// statistics (segmentation/index wall-clock), per-stage latency
/// percentiles, the token-cost ledger (with dollars when prices are
/// given), and the substrate counters that moved.
pub fn summary(t: &Telemetry, prices: Option<Prices>) -> String {
    let mut out = String::new();
    out.push_str("=== sage telemetry ===\n");

    for (i, b) in t.builds().iter().enumerate() {
        out.push_str(&format!(
            "build[{i}]   {} chunks | {} corpus tokens | {} index | segmentation {} | indexing {}\n",
            b.chunk_count,
            b.corpus_tokens,
            bytes(b.memory_bytes),
            ns(b.segmentation_ns),
            ns(b.index_ns),
        ));
    }

    out.push_str(&format!(
        "{:<10} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
        "stage", "count", "p50", "p90", "p99", "mean"
    ));
    let mut rows: Vec<(&str, HistogramSnapshot)> = Vec::new();
    for stage in Stage::ALL {
        let snap = t.stage_snapshot(stage);
        if snap.count() > 0 {
            rows.push((stage.label(), snap));
        }
    }
    rows.push(("query", t.query_snapshot()));
    for (label, snap) in rows {
        let (p50, p90, p99) = snap.percentiles();
        out.push_str(&format!(
            "{:<10} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            label,
            snap.count(),
            ns(p50),
            ns(p90),
            ns(p99),
            ns(snap.mean() as u64),
        ));
    }

    let ledger = t.ledger();
    let total = ledger.total();
    if total.calls > 0 {
        out.push_str("cost ledger:\n");
        for (stage, cost) in ledger.active_stages() {
            out.push_str(&format!(
                "  {:<9} {} calls | {} in + {} out tokens",
                stage.label(),
                cost.calls,
                cost.input_tokens,
                cost.output_tokens
            ));
            if let Some(p) = prices {
                out.push_str(&format!(
                    " | ${:.6}",
                    cost.dollars(p.input_per_token, p.output_per_token)
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  {:<9} {} calls | {} tokens",
            "total", total.calls, total.total_tokens()
        ));
        if let Some(p) = prices {
            out.push_str(&format!(
                " | ${:.6}",
                total.dollars(p.input_per_token, p.output_per_token)
            ));
        }
        out.push('\n');
    }

    let mut moved: Vec<String> = metrics::all()
        .iter()
        .filter(|c| c.get() > 0)
        .map(|c| format!("{}={}", c.name(), c.get()))
        .collect();
    for f in metrics::labeled() {
        for (label, value) in f.entries() {
            if value > 0 {
                moved.push(format!("{}{{{}={}}}={}", f.name(), f.key(), label, value));
            }
        }
    }
    if !moved.is_empty() {
        out.push_str(&format!("counters: {}\n", moved.join(" ")));
    }
    out.push_str(&format!(
        "queries: {} | traces: {} held, {} dropped | degrade events: {}\n",
        t.query_count(),
        t.trace_count(),
        t.traces_dropped(),
        t.degrade_count()
    ));
    out
}

/// Human formatting for a nanosecond quantity.
fn ns(v: u64) -> String {
    if v >= 1_000_000_000 {
        format!("{:.2}s", v as f64 / 1e9)
    } else if v >= 1_000_000 {
        format!("{:.2}ms", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.2}us", v as f64 / 1e3)
    } else {
        format!("{v}ns")
    }
}

/// Human formatting for a byte quantity.
fn bytes(v: u64) -> String {
    if v >= 1 << 20 {
        format!("{:.1} MB", v as f64 / (1u64 << 20) as f64)
    } else if v >= 1 << 10 {
        format!("{:.1} KB", v as f64 / 1024.0)
    } else {
        format!("{v} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuildRecord;
    use std::time::Duration;

    fn hub() -> Telemetry {
        let t = Telemetry::new();
        t.record_stage(Stage::Retrieve, Duration::from_micros(120));
        t.record_stage(Stage::Read, Duration::from_micros(800));
        t.record_query(Duration::from_millis(1));
        t.record_cost(Stage::Read, 200, 40);
        t.record_build(BuildRecord {
            chunk_count: 12,
            corpus_tokens: 900,
            memory_bytes: 4096,
            segmentation_ns: 1_000_000,
            index_ns: 2_000_000,
        });
        t
    }

    #[test]
    fn prometheus_dump_is_well_formed() {
        let t = hub();
        let text = prometheus(&t, Some(Prices { input_per_token: 1e-6, output_per_token: 2e-6 }));
        // Unique # TYPE names.
        let mut seen = std::collections::HashSet::new();
        let mut types = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(seen.insert(name.to_string()), "duplicate # TYPE {name}");
                types += 1;
            } else if !line.starts_with('#') && !line.is_empty() {
                // Every sample's value parses as a finite number.
                let value = line.rsplit(' ').next().unwrap();
                let parsed: f64 = value.parse().unwrap_or_else(|_| panic!("bad value: {line}"));
                assert!(parsed.is_finite(), "non-finite sample: {line}");
            }
        }
        assert!(types > 5, "expected several families, got {types}");
        assert!(text.contains("sage_queries_total 1"));
        assert!(text.contains("sage_stage_latency_ns_bucket{stage=\"retrieve\",le=\""));
        assert!(text.contains("sage_cost_tokens_total{stage=\"read\",direction=\"input\"} 200"));
        assert!(text.contains("sage_cost_dollars{stage=\"read\"}"));
        assert!(text.contains("sage_build_segmentation_ns 1000000"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        // Hostile label through a histogram family: the output must stay
        // one sample per line with a parseable quoted value.
        let t = Telemetry::new();
        t.record_query(Duration::from_nanos(100));
        let mut out = String::new();
        push_histogram(&mut out, "m", &[("who", "ev\"il\\name\nx")], &t.query_snapshot());
        for line in out.lines() {
            assert!(line.contains("who=\"ev\\\"il\\\\name\\nx\""), "{line}");
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().unwrap().is_finite(), "{line}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let t = Telemetry::new();
        t.record_query(Duration::from_nanos(10));
        t.record_query(Duration::from_nanos(1000));
        let text = prometheus(&t, None);
        let count_line = text
            .lines()
            .find(|l| l.starts_with("sage_query_latency_ns_count"))
            .unwrap();
        assert!(count_line.ends_with(" 2"), "{count_line}");
        let inf_line = text
            .lines()
            .find(|l| l.starts_with("sage_query_latency_ns_bucket{le=\"+Inf\"}"))
            .unwrap();
        assert!(inf_line.ends_with(" 2"), "{inf_line}");
    }

    #[test]
    fn summary_mentions_build_timings_and_ledger() {
        let t = hub();
        let text = summary(&t, Some(Prices { input_per_token: 1e-6, output_per_token: 2e-6 }));
        assert!(text.contains("segmentation 1.00ms"), "{text}");
        assert!(text.contains("indexing 2.00ms"), "{text}");
        assert!(text.contains("cost ledger:"), "{text}");
        assert!(text.contains("read"), "{text}");
        assert!(text.contains("queries: 1"), "{text}");
    }
}
