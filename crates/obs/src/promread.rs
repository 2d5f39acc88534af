//! Read-side of the Prometheus text exposition format, plus the `sage
//! top` dashboard renderer.
//!
//! The exporter in `sage-telemetry` writes metrics; nothing in the repo
//! could *read* them back. `sage top --from metrics.prom` closes the loop:
//! parse a scrape, reconstruct per-family samples (including histogram
//! quantiles from cumulative `_bucket` series), and render a one-screen
//! operator view. The parser is single-shot and tolerant: `# HELP`/`#
//! TYPE` metadata is kept for display, unknown lines are skipped with a
//! count rather than an error, and escaped label values (`\\`, `\"`,
//! `\n`) are unescaped — the inverse of the exporter's
//! [`escape_label_value`](sage_telemetry::export::escape_label_value).

use std::collections::BTreeMap;

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (family name for `_bucket`/`_sum`/`_count` series).
    pub name: String,
    /// Label pairs in appearance order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// Label value for `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A parsed scrape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    /// All samples, in file order.
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations: family name -> kind.
    pub types: BTreeMap<String, String>,
    /// Lines that did not parse (kept as a count, not an error: a scrape
    /// with one mangled line is still mostly useful).
    pub skipped: usize,
}

impl Scrape {
    /// First sample with this exact name and no label constraints.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples.iter().find(|s| s.name == name).map(|s| s.value)
    }

    /// Sum of all samples of a family (across label values).
    pub fn family_sum(&self, name: &str) -> f64 {
        self.samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
    }
}

fn unescape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Split `name{labels}` into name and label pairs. Respects quoting and
/// escapes inside label values.
fn parse_series(head: &str) -> Option<(String, Vec<(String, String)>)> {
    let Some(brace) = head.find('{') else {
        return Some((head.trim().to_string(), Vec::new()));
    };
    let name = head[..brace].trim().to_string();
    let rest = head[brace + 1..].trim_end();
    let body = rest.strip_suffix('}')?;
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while chars.peek() == Some(&',') || chars.peek() == Some(&' ') {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return None;
        }
        let mut raw = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => {
                    raw.push('\\');
                    if let Some(n) = chars.next() {
                        raw.push(n);
                    }
                }
                '"' => {
                    closed = true;
                    break;
                }
                c => raw.push(c),
            }
        }
        if !closed {
            return None;
        }
        labels.push((key.trim().to_string(), unescape(&raw)));
    }
    Some((name, labels))
}

/// Parse a text-exposition scrape.
pub fn parse_scrape(text: &str) -> Scrape {
    let mut out = Scrape::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix("# TYPE ") {
            let mut it = meta.split_whitespace();
            if let (Some(name), Some(kind)) = (it.next(), it.next()) {
                out.types.insert(name.to_string(), kind.to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Value is the last whitespace-separated token; the series part is
        // everything before it (label values may themselves hold spaces).
        let Some(split_at) = line.rfind(|c: char| c.is_whitespace()) else {
            out.skipped += 1;
            continue;
        };
        let (head, value_str) = line.split_at(split_at);
        let Ok(value) = value_str.trim().parse::<f64>() else {
            out.skipped += 1;
            continue;
        };
        match parse_series(head) {
            Some((name, labels)) => out.samples.push(Sample { name, labels, value }),
            None => out.skipped += 1,
        }
    }
    out
}

/// Estimate a quantile from a family's cumulative `_bucket` samples
/// (optionally constrained to one label pair). Returns the `le` upper
/// bound of the bucket containing the quantile rank.
pub fn bucket_quantile(scrape: &Scrape, family: &str, want: Option<(&str, &str)>, q: f64) -> Option<f64> {
    let bucket_name = format!("{family}_bucket");
    let mut buckets: Vec<(f64, f64)> = scrape
        .samples
        .iter()
        .filter(|s| s.name == bucket_name)
        .filter(|s| want.is_none_or(|(k, v)| s.label(k) == Some(v)))
        .filter_map(|s| {
            let le = s.label("le")?;
            let le = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
            Some((le, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = (q * total).ceil().max(1.0);
    buckets.iter().find(|(_, cum)| *cum >= rank).map(|(le, _)| *le)
}

fn fmt_ns(v: f64) -> String {
    if !v.is_finite() {
        return "inf".to_string();
    }
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}us", v / 1e3)
    } else {
        format!("{v:.0}ns")
    }
}

/// Render the `sage top` dashboard from a parsed scrape: query volume,
/// end-to-end and per-stage latency quantiles, admission/brownout
/// pressure, cost, and any SLO burn gauges present.
pub fn dashboard(scrape: &Scrape) -> String {
    let mut out = String::new();
    out.push_str("=== sage top ===\n");

    let queries = scrape.value("sage_queries_total").unwrap_or(0.0);
    let degrades = scrape.value("sage_degrade_events_total").unwrap_or(0.0);
    out.push_str(&format!("queries {queries:.0} | degrade events {degrades:.0}\n"));

    // End-to-end latency.
    if let Some(p50) = bucket_quantile(scrape, "sage_query_latency_ns", None, 0.50) {
        let p90 = bucket_quantile(scrape, "sage_query_latency_ns", None, 0.90).unwrap_or(p50);
        let p99 = bucket_quantile(scrape, "sage_query_latency_ns", None, 0.99).unwrap_or(p90);
        out.push_str(&format!(
            "query latency  p50 {} | p90 {} | p99 {}\n",
            fmt_ns(p50),
            fmt_ns(p90),
            fmt_ns(p99)
        ));
    }

    // Per-stage p99s, one line each, stages in scrape order.
    let mut seen_stage = Vec::new();
    for s in &scrape.samples {
        if s.name == "sage_stage_latency_ns_count" {
            if let Some(stage) = s.label("stage") {
                if !seen_stage.iter().any(|x| x == stage) {
                    seen_stage.push(stage.to_string());
                }
            }
        }
    }
    for stage in &seen_stage {
        if let Some(p99) =
            bucket_quantile(scrape, "sage_stage_latency_ns", Some(("stage", stage)), 0.99)
        {
            out.push_str(&format!("  stage {stage:<10} p99 {}\n", fmt_ns(p99)));
        }
    }

    // Admission & brownout pressure.
    let shed = scrape.family_sum("sage_shed_total");
    let brown = scrape.family_sum("sage_brownout_total");
    let mut pressure: Vec<String> = Vec::new();
    for s in &scrape.samples {
        if s.name == "sage_shed_total" && s.value > 0.0 {
            if let Some(class) = s.label("class") {
                pressure.push(format!("shed[{class}]={:.0}", s.value));
            }
        }
        if s.name == "sage_brownout_total" && s.value > 0.0 {
            if let Some(stage) = s.label("stage") {
                pressure.push(format!("brownout[{stage}]={:.0}", s.value));
            }
        }
    }
    out.push_str(&format!("pressure       shed {shed:.0} | brownout steps {brown:.0}"));
    if !pressure.is_empty() {
        out.push_str(&format!("  ({})", pressure.join(" ")));
    }
    out.push('\n');

    // Cost.
    let calls = scrape.family_sum("sage_cost_calls_total");
    let tokens = scrape.family_sum("sage_cost_tokens_total");
    if calls > 0.0 {
        out.push_str(&format!("cost           {calls:.0} calls | {tokens:.0} tokens"));
        let dollars = scrape.family_sum("sage_cost_dollars");
        if dollars > 0.0 {
            out.push_str(&format!(" | ${dollars:.6}"));
        }
        out.push('\n');
    }

    // SLO gauges, if the scrape carries them.
    let mut slo_lines = Vec::new();
    for s in &scrape.samples {
        if s.name == "sage_slo_burn_rate" {
            if let Some(obj) = s.label("objective") {
                slo_lines.push(format!("  slo {obj:<20} burn {:.2}", s.value));
            }
        }
    }
    if !slo_lines.is_empty() {
        out.push_str("slo burn rates\n");
        for l in slo_lines {
            out.push_str(&l);
            out.push('\n');
        }
    }

    if scrape.skipped > 0 {
        out.push_str(&format!("({} unparseable line(s) skipped)\n", scrape.skipped));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRAPE: &str = "\
# HELP sage_queries_total Queries answered
# TYPE sage_queries_total counter
sage_queries_total 12
# TYPE sage_query_latency_ns histogram
sage_query_latency_ns_bucket{le=\"1023\"} 6
sage_query_latency_ns_bucket{le=\"4095\"} 11
sage_query_latency_ns_bucket{le=\"+Inf\"} 12
sage_query_latency_ns_sum 30000
sage_query_latency_ns_count 12
sage_shed_total{class=\"interactive\"} 3
sage_slo_burn_rate{objective=\"shed\"} 1.50
";

    #[test]
    fn parses_names_labels_and_values() {
        let s = parse_scrape(SCRAPE);
        assert_eq!(s.skipped, 0);
        assert_eq!(s.value("sage_queries_total"), Some(12.0));
        assert_eq!(s.types.get("sage_queries_total").map(String::as_str), Some("counter"));
        let shed = s.samples.iter().find(|x| x.name == "sage_shed_total").unwrap();
        assert_eq!(shed.label("class"), Some("interactive"));
    }

    #[test]
    fn unescapes_hostile_label_values() {
        let escaped = sage_telemetry::export::escape_label_value("ev\"il\\x\ny");
        let text = format!("m{{who=\"{escaped}\"}} 1\n");
        let s = parse_scrape(&text);
        assert_eq!(s.skipped, 0, "{text}");
        assert_eq!(s.samples[0].label("who"), Some("ev\"il\\x\ny"));
    }

    #[test]
    fn quantiles_from_cumulative_buckets() {
        let s = parse_scrape(SCRAPE);
        assert_eq!(bucket_quantile(&s, "sage_query_latency_ns", None, 0.50), Some(1023.0));
        assert_eq!(bucket_quantile(&s, "sage_query_latency_ns", None, 0.90), Some(4095.0));
        assert_eq!(
            bucket_quantile(&s, "sage_query_latency_ns", None, 0.999),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn dashboard_renders_key_sections() {
        let text = dashboard(&parse_scrape(SCRAPE));
        assert!(text.contains("queries 12"), "{text}");
        assert!(text.contains("query latency  p50 1.02us"), "{text}");
        assert!(text.contains("shed 3"), "{text}");
        assert!(text.contains("slo shed"), "{text}");
    }

    #[test]
    fn mangled_lines_are_counted_not_fatal(){
        let s = parse_scrape("good 1\nbad_line_no_value\nworse{unclosed 2\n");
        assert_eq!(s.samples.len(), 1);
        assert_eq!(s.skipped, 2);
    }
}
