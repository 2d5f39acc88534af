//! The per-query observation: what the soak records about every arrival.
//!
//! A soak's [`QueryObs`] stream (`SoakReport::obs`) holds one observation
//! per arrival in terminal-event order. Every quantity is virtual or
//! structural, so a replayed soak yields the same stream and `sage report`
//! writes it, one [`QueryObs::write_json`] object per entry, byte for byte.

use std::fmt::Write as _;

/// Outcome of one observed query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// Completed with a result.
    #[default]
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// Append this observation as one JSON object (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"seq\":{},\"class\":\"{}\",\"outcome\":\"{}\",\"arrival_us\":{},\"end_us\":{},\
             \"sojourn_ns\":{},\"service_ns\":{},\"brownout\":{},\"degraded\":{},\
             \"deadline_missed\":{},\"tokens\":{},\"confidence_milli\":{},\"question\":",
            self.seq,
            self.class,
            self.outcome.label(),
            self.arrival_us,
            self.end_us,
            self.sojourn_ns,
            self.service_ns,
            self.brownout,
            self.degraded,
            self.deadline_missed,
            self.tokens,
            self.confidence_milli
        );
        crate::span::write_json_str(&self.question, out);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_escapes_questions() {
        let o = QueryObs {
            class: "batch",
            question: "evil \"q\"\\n".to_string(),
            ..QueryObs::default()
        };
        let mut line = String::new();
        o.write_json(&mut line);
        assert!(
            line.starts_with("{\"seq\":0,\"class\":\"batch\",\"outcome\":\"done\""),
            "{line}"
        );
        assert!(
            line.ends_with(",\"question\":\"evil \\\"q\\\"\\\\n\"}"),
            "{line}"
        );
    }
}
