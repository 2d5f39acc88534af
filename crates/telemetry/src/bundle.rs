//! Diagnostics-bundle assembly for `sage report`.
//!
//! A bundle is one JSON object gathering everything needed for a
//! post-hoc investigation: run metadata, the soak summary, every
//! per-query observation, histogram snapshots, the cost ledger, and a
//! `reconciliation` section of named booleans that cross-check the
//! observation stream against the records kept apart from it (the
//! admission and brownout counters, the cost ledger).
//! Tests and CI assert those booleans instead of re-deriving the
//! arithmetic.
//!
//! The builder is deliberately dumb: callers push sections as
//! pre-rendered JSON values (or via typed helpers) and the builder only
//! guarantees well-formed assembly and stable ordering. That keeps this
//! module free of any knowledge about pipeline internals.

use crate::hist::{bucket_upper, HistogramSnapshot};
use crate::span::write_json_str;

/// Accumulates `key: value` sections and renders one JSON object.
#[derive(Debug, Default)]
pub struct Bundle {
    sections: Vec<(String, String)>,
}

impl Bundle {
    /// Empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a section whose value is already-rendered JSON (object, array,
    /// number, bool). The caller vouches for its well-formedness.
    pub fn push_raw(&mut self, key: &str, json: impl Into<String>) {
        self.sections.push((key.to_string(), json.into()));
    }

    /// Add an unsigned-integer section.
    pub fn push_u64(&mut self, key: &str, v: u64) {
        self.sections.push((key.to_string(), v.to_string()));
    }

    /// Add a histogram snapshot as `{count, sum, buckets: [[upper, n]..]}`
    /// (occupied buckets only).
    pub fn push_histogram(&mut self, key: &str, snap: &HistogramSnapshot) {
        let mut buckets = Vec::new();
        for (i, &c) in snap.counts.iter().enumerate() {
            if c > 0 {
                buckets.push(format!("[{},{}]", bucket_upper(i), c));
            }
        }
        self.push_raw(
            key,
            format!(
                "{{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                snap.count(),
                snap.sum,
                buckets.join(",")
            ),
        );
    }

    /// Render the bundle as one JSON object (sections in insertion
    /// order), trailing newline included.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  ");
            write_json_str(k, &mut out);
            out.push_str(": ");
            out.push_str(v);
        }
        out.push_str("\n}\n");
        out
    }
}

/// The cross-layer checks `sage report` performs; each boolean is a named
/// claim the bundle's readers can rely on. Rendered as the
/// `reconciliation` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reconciliation {
    /// Shed observations == the admission shed counters' delta.
    pub shed_counters_match: bool,
    /// Brownout rungs of completed observations == the brownout counter's
    /// delta.
    pub brownout_counters_match: bool,
    /// Ledger token total == the sum of per-query token observations.
    pub ledger_tokens_match: bool,
}

impl Reconciliation {
    /// All checks passed.
    pub fn clean(&self) -> bool {
        self.shed_counters_match
            && self.brownout_counters_match
            && self.ledger_tokens_match
    }

    /// Render as a JSON object for the bundle.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"shed_counters_match\": {}, \"brownout_counters_match\": {}, \
             \"ledger_tokens_match\": {}, \"clean\": {}}}",
            self.shed_counters_match,
            self.brownout_counters_match,
            self.ledger_tokens_match,
            self.clean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_sections_in_order() {
        let mut b = Bundle::new();
        b.push_raw("tool", "\"sage report\"");
        b.push_u64("seed", 42);
        b.push_raw("soak", "{\"arrivals\": 3}");
        b.push_raw("traces", "[{\"a\":1},{\"b\":2}]");
        let out = b.render();
        assert!(out.starts_with("{\n  \"tool\": \"sage report\""), "{out}");
        assert!(out.contains("\"seed\": 42"), "{out}");
        assert!(out.contains("\"traces\": [{\"a\":1},{\"b\":2}]"), "{out}");
        let tool = out.find("\"tool\"").unwrap();
        let soak = out.find("\"soak\"").unwrap();
        assert!(tool < soak, "insertion order preserved");
    }

    #[test]
    fn histogram_section_keeps_count_and_occupied_buckets() {
        let h = crate::hist::Histogram::new();
        h.record(3);
        h.record(1000);
        let mut b = Bundle::new();
        b.push_histogram("lat", &h.snapshot());
        let out = b.render();
        assert!(out.contains("\"count\": 2"), "{out}");
        assert!(out.contains("\"sum\": 1003"), "{out}");
    }

    #[test]
    fn reconciliation_clean_requires_every_check() {
        let ok = Reconciliation {
            shed_counters_match: true,
            brownout_counters_match: true,
            ledger_tokens_match: true,
        };
        assert!(ok.clean());
        let bad = Reconciliation { ledger_tokens_match: false, ..ok };
        assert!(!bad.clean());
        assert!(bad.to_json().contains("\"ledger_tokens_match\": false"));
        assert!(bad.to_json().contains("\"clean\": false"));
    }
}
