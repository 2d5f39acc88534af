//! The flight recorder: a bounded ring of recent query observations with
//! deterministic tail-based retention.
//!
//! The recorder answers "what did the slowest or strangest recent queries
//! actually do?" after the fact without keeping every trace. Retention is
//! a pure function of the observation stream — never of wall-clock time or
//! arrival rate — so folding a replayed soak's observation stream retains
//! byte-identical records across runs:
//!
//! 1. **Flagged queries always survive** (until capacity forces the oldest
//!    flagged out): shed, expired, errored, panicked, browned-out,
//!    degraded, or deadline-missed queries. These are the records an
//!    incident review needs.
//! 2. **Per-window latency top-K**: capture counts are divided into fixed
//!    windows of `window` observations; when a window seals, its K highest
//!    *virtual* latencies are promoted and the rest demoted. Virtual
//!    latency (simulated service + degradation delay) is deterministic;
//!    measured wall time never influences retention.
//! 3. **Eviction order** is `(tier, seq)`: plain sealed records go first,
//!    then unsealed, then top-K, then flagged — oldest first within a
//!    tier.

use std::fmt::Write as _;

/// Outcome of one observed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// Completed with a result.
    Done,
    /// Refused by admission control.
    Shed,
    /// Deadline expired while queued; never ran.
    Expired,
    /// Returned a structured error.
    Error,
    /// Panicked (isolated by the serving path).
    Panicked,
}

impl Outcome {
    /// Stable lower-case label for logs and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Done => "done",
            Outcome::Shed => "shed",
            Outcome::Expired => "expired",
            Outcome::Error => "error",
            Outcome::Panicked => "panicked",
        }
    }
}

/// One query as the serving path observed it. All quantities are virtual
/// (simulated latencies, token counts) or structural (class, rung), so an
/// observation stream is deterministic under a fixed seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryObs {
    /// Sequence number within the run (arrival order).
    pub seq: u64,
    /// Priority class label (`interactive`/`batch`/`background`, or `-`
    /// outside the admission path).
    pub class: &'static str,
    /// Virtual arrival offset, microseconds.
    pub arrival_us: u64,
    /// Virtual completion (or shed/expiry decision) offset, microseconds.
    pub end_us: u64,
    /// Virtual sojourn (arrival → completion) in nanoseconds; 0 for
    /// queries that never ran.
    pub sojourn_ns: u64,
    /// Virtual service latency in nanoseconds (excludes queue wait).
    pub service_ns: u64,
    /// What happened.
    pub outcome: Outcome,
    /// Final brownout rung (0 = full fidelity).
    pub brownout: u8,
    /// Degradation events recorded on the query's trace.
    pub degraded: u32,
    /// Whether the deadline budget was missed or expired.
    pub deadline_missed: bool,
    /// Total tokens charged (input + output).
    pub tokens: u64,
    /// Answer confidence in milli-units (0..=1000); 0 when unanswered.
    pub confidence_milli: u32,
    /// The question asked (or a shed/error note).
    pub question: String,
}

impl QueryObs {
    /// Is this observation one the recorder must keep (tier 3)?
    pub fn flagged(&self) -> bool {
        self.outcome != Outcome::Done
            || self.brownout > 0
            || self.degraded > 0
            || self.deadline_missed
    }
}

/// One retained record: the observation plus its retention bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRecord {
    /// The observation itself.
    pub obs: QueryObs,
    /// Capture ordinal (0-based; drives windowing and eviction order).
    pub capture: u64,
    /// Retention tier: 3 flagged, 2 window top-K, 1 unsealed, 0 plain.
    pub tier: u8,
}

/// Flight-recorder sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Maximum retained records.
    pub capacity: usize,
    /// Captures per latency window.
    pub window: usize,
    /// Records promoted per sealed window (highest virtual latency).
    pub topk: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self { capacity: 256, window: 64, topk: 4 }
    }
}

/// Running totals the recorder keeps about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Observations offered to the recorder.
    pub captured: u64,
    /// Records evicted to stay within capacity.
    pub evicted: u64,
    /// Windows sealed so far.
    pub windows_sealed: u64,
}

/// Bounded ring of recent query observations.
///
/// Mutation happens through [`capture_query`](Self::capture_query) only;
/// everything else is read-only.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    cfg: RecorderConfig,
    records: Vec<QueryRecord>,
    stats: RecorderStats,
}

impl FlightRecorder {
    /// Recorder with the given sizing (capacity is clamped to ≥ 1).
    pub fn new(cfg: RecorderConfig) -> Self {
        let cfg = RecorderConfig {
            capacity: cfg.capacity.max(1),
            window: cfg.window.max(1),
            topk: cfg.topk.max(1),
            };
        Self { cfg, records: Vec::new(), stats: RecorderStats::default() }
    }

    /// The sizing in effect.
    pub fn config(&self) -> RecorderConfig {
        self.cfg
    }

    /// Capture one observation (it may be evicted immediately when the
    /// buffer is full of higher-tier records).
    pub fn capture_query(&mut self, obs: &QueryObs) {
        let capture = self.stats.captured;
        self.stats.captured += 1;
        let tier = if obs.flagged() { 3 } else { 1 };
        self.records.push(QueryRecord { obs: obs.clone(), capture, tier });
        // Seal the window this capture completed, if any.
        if (capture + 1).is_multiple_of(self.cfg.window as u64) {
            self.roll_window(capture / self.cfg.window as u64);
        }
        while self.records.len() > self.cfg.capacity {
            self.evict_one();
        }
    }

    /// Seal window `w`: among its unsealed (tier-1) records, promote the
    /// `topk` highest virtual latencies to tier 2 and demote the rest to
    /// tier 0. Pure in the capture stream.
    fn roll_window(&mut self, w: u64) {
        let window = self.cfg.window as u64;
        let lo = w * window;
        let hi = lo + window;
        // Indices of this window's unsealed records, best latency first;
        // ties break to the earlier capture so the cut is deterministic.
        let mut members: Vec<usize> = (0..self.records.len())
            .filter(|&i| {
                let r = &self.records[i];
                r.tier == 1 && r.capture >= lo && r.capture < hi
            })
            .collect();
        members.sort_by(|&a, &b| {
            let (ra, rb) = (&self.records[a], &self.records[b]);
            rb.obs.service_ns.cmp(&ra.obs.service_ns).then(ra.capture.cmp(&rb.capture))
        });
        for (rank, &i) in members.iter().enumerate() {
            self.records[i].tier = if rank < self.cfg.topk { 2 } else { 0 };
        }
        self.stats.windows_sealed += 1;
    }

    /// Evict the least-retained record: minimum `(tier, capture)`.
    fn evict_one(&mut self) {
        let Some(victim) = (0..self.records.len())
            .min_by_key(|&i| (self.records[i].tier, self.records[i].capture))
        else {
            return;
        };
        self.records.swap_remove(victim);
        self.stats.evicted += 1;
    }

    /// Retained records in capture order (oldest first).
    pub fn records(&self) -> Vec<&QueryRecord> {
        let mut out: Vec<&QueryRecord> = self.records.iter().collect();
        out.sort_by_key(|r| r.capture);
        out
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Recorder self-accounting.
    pub fn stats(&self) -> RecorderStats {
        self.stats
    }

    /// Serialise the retained records as JSON Lines, one record per line,
    /// in capture order. Deterministic for a deterministic capture stream.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            write_record_json(r, &mut out);
            out.push('\n');
        }
        out
    }
}

/// One record as a JSON object (no trailing newline).
pub fn write_record_json(r: &QueryRecord, out: &mut String) {
    let o = &r.obs;
    out.push_str("{\"seq\":");
    let _ = write!(out, "{}", o.seq);
    let _ = write!(out, ",\"tier\":{},\"class\":\"{}\"", r.tier, o.class);
    let _ = write!(out, ",\"outcome\":\"{}\"", o.outcome.label());
    let _ = write!(out, ",\"arrival_us\":{},\"end_us\":{}", o.arrival_us, o.end_us);
    let _ = write!(out, ",\"sojourn_ns\":{},\"service_ns\":{}", o.sojourn_ns, o.service_ns);
    let _ = write!(
        out,
        ",\"brownout\":{},\"degraded\":{},\"deadline_missed\":{}",
        o.brownout, o.degraded, o.deadline_missed
    );
    let _ = write!(out, ",\"tokens\":{},\"confidence_milli\":{}", o.tokens, o.confidence_milli);
    out.push_str(",\"question\":");
    sage_telemetry::span::write_json_str(&o.question, out);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(seq: u64, service_ns: u64) -> QueryObs {
        QueryObs {
            seq,
            class: "batch",
            arrival_us: seq * 100,
            end_us: seq * 100 + service_ns / 1000,
            sojourn_ns: service_ns,
            service_ns,
            outcome: Outcome::Done,
            brownout: 0,
            degraded: 0,
            deadline_missed: false,
            tokens: 10,
            confidence_milli: 900,
            question: format!("q{seq}"),
        }
    }

    fn flagged(seq: u64) -> QueryObs {
        QueryObs { brownout: 2, ..obs(seq, 1_000) }
    }

    #[test]
    fn flagged_records_outlive_plain_ones() {
        let mut r = FlightRecorder::new(RecorderConfig { capacity: 8, window: 4, topk: 1 });
        for s in 0..4 {
            r.capture_query(&flagged(s));
        }
        for s in 4..40 {
            r.capture_query(&obs(s, s * 10));
        }
        let kept: Vec<u64> = r.records().iter().map(|x| x.obs.seq).collect();
        for s in 0..4 {
            assert!(kept.contains(&s), "flagged seq {s} evicted: {kept:?}");
        }
        assert_eq!(r.len(), 8);
    }

    #[test]
    fn window_topk_promotes_slowest() {
        let mut r = FlightRecorder::new(RecorderConfig { capacity: 64, window: 8, topk: 2 });
        for s in 0..8 {
            // Latencies 0, 1000, 2000, ... — the top-2 are seqs 6 and 7.
            r.capture_query(&obs(s, s * 1000));
        }
        let tiers: Vec<(u64, u8)> = r.records().iter().map(|x| (x.obs.seq, x.tier)).collect();
        for (seq, tier) in tiers {
            if seq >= 6 {
                assert_eq!(tier, 2, "seq {seq}");
            } else {
                assert_eq!(tier, 0, "seq {seq}");
            }
        }
        assert_eq!(r.stats().windows_sealed, 1);
    }

    #[test]
    fn retention_is_deterministic() {
        let run = || {
            let mut r = FlightRecorder::new(RecorderConfig { capacity: 16, window: 8, topk: 2 });
            for s in 0..200u64 {
                if s % 17 == 0 {
                    r.capture_query(&flagged(s));
                } else {
                    r.capture_query(&obs(s, (s * 7919) % 100_000));
                }
            }
            r.to_jsonl()
        };
        assert_eq!(run(), run(), "same capture stream must retain identically");
    }

    #[test]
    fn jsonl_escapes_questions() {
        let mut r = FlightRecorder::new(RecorderConfig::default());
        r.capture_query(&QueryObs { question: "evil \"q\"\\n".to_string(), ..obs(0, 5) });
        let line = r.to_jsonl();
        assert!(line.contains("\"question\":\"evil \\\"q\\\"\\\\n\""), "{line}");
    }
}
