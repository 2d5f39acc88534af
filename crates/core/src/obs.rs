//! Core ↔ `sage-obs` bridge: the single place the pipeline touches the
//! flight recorder.
//!
//! The attached recorder is a private field of [`ObsState`], so recorder
//! mutation (`capture_query`/`capture_shed`/`roll_window`) happens only
//! here; the executor and the soak harness call the narrow helpers below
//! instead. Two capture paths feed
//! the recorder:
//!
//! - **Ad-hoc queries** (`answer_open` and friends): the executor's
//!   `finalize` middleware calls [`observe_adhoc`] once per query. The
//!   observation is built from *virtual* quantities only (simulated
//!   latencies, token counts), so retention stays deterministic.
//! - **Driven runs** (the soak harness): the loop owns richer context
//!   (arrival clock, class, deadline) and records complete observations
//!   through [`observe`]/[`observe_shed`]; it brackets the run with
//!   [`set_driven`] so the ad-hoc hook stays silent and nothing is
//!   double-counted.

use crate::pipeline::RagSystem;
use crate::QueryResult;
use sage_obs::{FlightRecorder, Outcome, QueryObs, RecorderConfig, RecorderStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Recorder state hung off a [`RagSystem`].
#[derive(Debug)]
pub struct ObsState {
    recorder: Mutex<FlightRecorder>,
    /// True while an external driver (the soak loop) is supplying
    /// observations; suppresses the executor's ad-hoc capture.
    driven: AtomicBool,
}

impl RagSystem {
    /// Attach a flight recorder. Subsequent queries are observed by the
    /// executor; `run_soak` supplies its own richer observations.
    pub fn enable_recorder(&mut self, cfg: RecorderConfig) {
        self.obs = Some(ObsState {
            recorder: Mutex::new(FlightRecorder::new(cfg)),
            driven: AtomicBool::new(false),
        });
    }

    /// Detach the recorder, dropping retained records.
    pub fn disable_recorder(&mut self) {
        self.obs = None;
    }

    /// Whether a recorder is attached.
    pub fn recorder_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Recorder self-accounting, if attached.
    pub fn recorder_stats(&self) -> Option<RecorderStats> {
        self.with_recorder(|r| r.stats())
    }

    /// Retained records as JSON Lines, if attached.
    pub fn recorder_jsonl(&self) -> Option<String> {
        self.with_recorder(|r| r.to_jsonl())
    }

    /// Run `f` against the recorder under its lock, if attached.
    pub fn with_recorder<R>(&self, f: impl FnOnce(&FlightRecorder) -> R) -> Option<R> {
        let state = self.obs.as_ref()?;
        let rec = state.recorder.lock().unwrap_or_else(|e| e.into_inner());
        Some(f(&rec))
    }
}

/// Virtual service latency of a completed query in nanoseconds: simulated
/// LLM latencies plus degradation delays. The same formula the soak
/// harness charges its virtual servers with — wall-clock never appears.
pub fn virtual_service_ns(result: &QueryResult) -> u64 {
    (result.answer_latency + result.feedback_latency + result.degraded.total_delay()).as_nanos()
        as u64
}

/// Reader confidence as milli-units in `[0, 1000]`.
pub fn confidence_milli(confidence: f32) -> u32 {
    (confidence.clamp(0.0, 1.0) * 1000.0).round() as u32
}

/// The executor's per-query hook: capture an ad-hoc observation unless an
/// external driver owns observation for this system.
pub(crate) fn observe_adhoc(sys: &RagSystem, question: &str, result: &QueryResult) {
    let Some(state) = &sys.obs else { return };
    // sage-lint: allow(relaxed-atomics-confined) - a telemetry-style suppression flag: the soak driver toggles it around a single-threaded loop and no data is published under it
    if state.driven.load(Ordering::Relaxed) {
        return;
    }
    let mut rec = state.recorder.lock().unwrap_or_else(|e| e.into_inner());
    let service = virtual_service_ns(result);
    let obs = QueryObs {
        seq: rec.stats().captured,
        class: "adhoc",
        arrival_us: 0,
        end_us: 0,
        sojourn_ns: service,
        service_ns: service,
        outcome: Outcome::Done,
        brownout: result.brownout.idx() as u8,
        degraded: result.degraded.events.len() as u32,
        deadline_missed: false,
        tokens: result.cost.input_tokens + result.cost.output_tokens,
        confidence_milli: confidence_milli(result.answer.confidence),
        question: question.to_string(),
    };
    rec.capture_query(&obs);
}

/// Record one externally-built observation (the soak loop's terminal
/// events). No-op when no recorder is attached.
pub(crate) fn observe(sys: &RagSystem, obs: &QueryObs) {
    if let Some(state) = &sys.obs {
        let mut rec = state.recorder.lock().unwrap_or_else(|e| e.into_inner());
        rec.capture_query(obs);
    }
}

/// Mark the system as externally driven (or not). While driven, the
/// executor's ad-hoc hook is suppressed so the driver's observations are
/// the only ones captured.
pub(crate) fn set_driven(sys: &RagSystem, driven: bool) {
    if let Some(state) = &sys.obs {
        // sage-lint: allow(relaxed-atomics-confined) - see the load above: a flag with no ordering dependency, set and read on the driving thread
        state.driven.store(driven, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RetrieverKind, SageConfig};
    use crate::models::{TrainBudget, TrainedModels};
    use sage_llm::LlmProfile;
    use std::sync::OnceLock;

    fn models() -> &'static TrainedModels {
        static M: OnceLock<TrainedModels> = OnceLock::new();
        M.get_or_init(|| TrainedModels::train(TrainBudget::tiny()))
    }

    fn system() -> RagSystem {
        RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &["Whiskers is a playful tabby cat. He has bright green eyes.".to_string()],
        )
    }

    #[test]
    fn adhoc_queries_are_captured_once() {
        let mut sys = system();
        sys.enable_recorder(RecorderConfig::default());
        sys.answer_open("What color are Whiskers's eyes?");
        sys.answer_open("What animal is Whiskers?");
        let stats = sys.recorder_stats().unwrap();
        assert_eq!(stats.captured, 2);
        let jsonl = sys.recorder_jsonl().unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"class\":\"adhoc\""), "{jsonl}");
    }

    #[test]
    fn detached_system_records_nothing() {
        let sys = system();
        sys.answer_open("What color are Whiskers's eyes?");
        assert!(sys.recorder_stats().is_none());
    }

    #[test]
    fn driven_mode_suppresses_adhoc_capture() {
        let mut sys = system();
        sys.enable_recorder(RecorderConfig::default());
        set_driven(&sys, true);
        sys.answer_open("What color are Whiskers's eyes?");
        assert_eq!(sys.recorder_stats().unwrap().captured, 0);
        set_driven(&sys, false);
        sys.answer_open("What color are Whiskers's eyes?");
        assert_eq!(sys.recorder_stats().unwrap().captured, 1);
    }

    #[test]
    fn adhoc_capture_is_deterministic() {
        let capture = || {
            let mut sys = system();
            sys.enable_recorder(RecorderConfig::default());
            sys.answer_open("What color are Whiskers's eyes?");
            sys.recorder_jsonl().unwrap()
        };
        assert_eq!(capture(), capture());
    }
}
