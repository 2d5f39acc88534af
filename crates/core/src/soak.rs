//! Deterministic overload soak harness.
//!
//! Replays a seeded open-loop arrival process ([`sage_admission::soak`])
//! against a built [`RagSystem`] through a bounded admission queue and
//! per-query deadline budgets — entirely on a **virtual clock**. Queries
//! execute sequentially on the caller's thread; "concurrency" is a set of
//! virtual servers whose busy intervals are computed from each query's
//! simulated latencies. Two runs with the same configuration therefore
//! produce bit-identical event logs and reports, which is what the
//! `sage soak` CLI subcommand and the CI smoke step diff.
//!
//! With `cfg.shards > 1` the server set splits into per-shard pools
//! (`concurrency` servers each): a job routes to its home pool by a
//! stable hash of its sequence number, so a shard slowed by a fault plan
//! queues its own jobs instead of silently borrowing capacity from
//! healthy shards. `shards <= 1` is the historical single-pool model,
//! byte-identical to the logs that predate sharding.
//!
//! The queue-wait → brownout coupling falls out naturally: a query's
//! absolute deadline is fixed at arrival, so time spent waiting in the
//! admission queue shrinks the deadline budget its pipeline run receives,
//! and deeper queues push queries further down the brownout ladder.

use crate::exec::execute_caught;
use crate::pipeline::RagSystem;
use sage_admission::{
    arrival_plan, AdmissionConfig, AdmissionQueue, Decision, Priority, QueryBudget, ShedReason,
    SoakConfig,
};
use sage_obs::{Outcome, QueryObs};
use sage_vecdb::ShardRouter;
use std::collections::VecDeque;
use std::time::Duration;

/// Virtual service time charged for a query that returned a structured
/// error instead of a result (isolated panic, shed-free error paths).
const ERROR_SERVICE: Duration = Duration::from_millis(10);

/// What one soak run did, with enough detail to assert the overload
/// invariants and to diff two runs for determinism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakReport {
    /// Arrivals planned by the seeded process.
    pub arrivals: usize,
    /// Queries the admission queue accepted.
    pub admitted: usize,
    /// Queries shed, by priority class (stable [`Priority`] order).
    pub shed: [u64; Priority::COUNT],
    /// Admitted queries whose deadline expired while queued (never run).
    pub expired: usize,
    /// Queries that completed with a result.
    pub completed: usize,
    /// Queries that returned a structured error (not shed, not panic).
    pub errors: usize,
    /// Queries that panicked (isolated by the serving path). Always zero
    /// unless something is broken — the first soak invariant.
    pub panics: usize,
    /// Completed queries served from shard survivors under a
    /// `shard-partial:<m>/<N>` rung (sharded serving with shard faults).
    pub shard_partial: usize,
    /// Completed queries by final brownout level (ladder order; index 0 is
    /// full fidelity).
    pub brownout: [u64; 5],
    /// Completed queries whose brownout events were out of ladder order.
    /// Always zero — the ladder only ratchets downward in fidelity.
    pub ladder_violations: usize,
    /// Median sojourn (arrival → virtual completion) of completed queries.
    pub p50_sojourn: Duration,
    /// 99th-percentile sojourn of completed queries.
    pub p99_sojourn: Duration,
    /// Deepest queue depth observed.
    pub max_depth: usize,
    /// Deterministic event log, one line per arrival/start/finish.
    pub log: Vec<String>,
    /// Per-query observations in terminal-event order (shed, expiry,
    /// completion, error) — the one stream both the flight recorder
    /// (`FlightRecorder::capture_query`) and the SLO accounting
    /// (`evaluate_slo`) fold over. Virtual quantities only, so it replays
    /// bit-for-bit like the log.
    pub obs: Vec<QueryObs>,
}

impl SoakReport {
    /// Total shed across classes.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Shed fraction of all arrivals (0 when nothing arrived).
    pub fn shed_rate(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        self.shed_total() as f64 / self.arrivals as f64
    }

    /// Completed queries that browned out at least one rung.
    pub fn browned_out(&self) -> u64 {
        self.brownout.iter().skip(1).sum()
    }

    /// Check the soak invariants; returns one line per violation (empty
    /// when the run is healthy):
    ///
    /// 1. zero panics;
    /// 2. shed rate within `max_shed_rate`;
    /// 3. brownout steps applied in ladder order on every query;
    /// 4. when budgets are on, p99 sojourn bounded by the deadline plus a
    ///    generous service allowance (a query admitted just before its
    ///    deadline still runs to completion).
    pub fn check_invariants(&self, cfg: &SoakConfig, max_shed_rate: f64) -> Vec<String> {
        let mut violations = Vec::new();
        if self.panics > 0 {
            violations.push(format!("{} queries panicked", self.panics));
        }
        if self.shed_rate() > max_shed_rate {
            violations.push(format!(
                "shed rate {:.3} exceeds bound {:.3}",
                self.shed_rate(),
                max_shed_rate
            ));
        }
        if self.ladder_violations > 0 {
            violations
                .push(format!("{} queries browned out out of order", self.ladder_violations));
        }
        if let Some(budget) = cfg.budget {
            let service_ceiling = Duration::from_secs(30);
            let bound = budget.deadline + service_ceiling;
            if self.completed > 0 && self.p99_sojourn > bound {
                violations.push(format!(
                    "p99 sojourn {:?} exceeds deadline+ceiling {:?}",
                    self.p99_sojourn, bound
                ));
            }
        }
        violations
    }

    /// Multi-line human summary (the `sage soak` stderr report).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "arrivals {}  admitted {}  shed {} (interactive {} / batch {} / background {})\n",
            self.arrivals,
            self.admitted,
            self.shed_total(),
            self.shed[0],
            self.shed[1],
            self.shed[2]
        ));
        out.push_str(&format!(
            "completed {}  expired {}  errors {}  panics {}  shard-partial {}\n",
            self.completed, self.expired, self.errors, self.panics, self.shard_partial
        ));
        out.push_str(&format!(
            "brownout none {} / drop-feedback {} / shrink-rerank {} / skip-rerank {} / flat-topk {}\n",
            self.brownout[0], self.brownout[1], self.brownout[2], self.brownout[3],
            self.brownout[4]
        ));
        out.push_str(&format!(
            "p50 sojourn {}  p99 sojourn {}  max depth {}\n",
            fmt_t(self.p50_sojourn),
            fmt_t(self.p99_sojourn),
            self.max_depth
        ));
        out
    }

    /// One-line machine-readable summary (virtual quantities only, so it
    /// is byte-identical across same-seed replays). The scenario harness
    /// and CI parse this instead of scraping the human summary;
    /// `violations` is whatever [`SoakReport::check_invariants`] returned.
    pub fn json_summary(&self, violations: &[String]) -> String {
        let mut out = String::from("{\"tool\": \"soak\"");
        out.push_str(&format!(", \"arrivals\": {}", self.arrivals));
        out.push_str(&format!(", \"admitted\": {}", self.admitted));
        out.push_str(&format!(
            ", \"shed\": {{\"interactive\": {}, \"batch\": {}, \"background\": {}, \"total\": {}}}",
            self.shed[0],
            self.shed[1],
            self.shed[2],
            self.shed_total()
        ));
        out.push_str(&format!(", \"expired\": {}", self.expired));
        out.push_str(&format!(", \"completed\": {}", self.completed));
        out.push_str(&format!(", \"errors\": {}", self.errors));
        out.push_str(&format!(", \"panics\": {}", self.panics));
        out.push_str(&format!(", \"shard_partial\": {}", self.shard_partial));
        out.push_str(&format!(
            ", \"brownout\": [{}, {}, {}, {}, {}]",
            self.brownout[0], self.brownout[1], self.brownout[2], self.brownout[3],
            self.brownout[4]
        ));
        out.push_str(&format!(", \"browned_out\": {}", self.browned_out()));
        out.push_str(&format!(", \"ladder_violations\": {}", self.ladder_violations));
        out.push_str(&format!(", \"p50_sojourn_us\": {}", self.p50_sojourn.as_micros()));
        out.push_str(&format!(", \"p99_sojourn_us\": {}", self.p99_sojourn.as_micros()));
        out.push_str(&format!(", \"max_depth\": {}", self.max_depth));
        out.push_str(", \"violations\": [");
        for (i, v) in violations.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            sage_telemetry::span::write_json_str(v, &mut out);
        }
        out.push_str("]}");
        out
    }
}

/// One admitted query waiting for a virtual server.
struct Job {
    /// Index into the arrival plan (also the log's query id).
    seq: usize,
    /// Arrival offset.
    at: Duration,
    class: Priority,
    /// Absolute deadline (`at + budget.deadline`); `None` when budgets are
    /// off.
    deadline: Option<Duration>,
}

/// Reader confidence as milli-units in `[0, 1000]`.
fn confidence_milli(confidence: f32) -> u32 {
    (confidence.clamp(0.0, 1.0) * 1000.0).round() as u32
}

/// Fixed-width virtual timestamp (micros), so logs diff cleanly.
fn fmt_t(d: Duration) -> String {
    format!("{}.{:06}s", d.as_secs(), d.subsec_micros())
}

/// Replay the soak configured by `cfg` against `sys`, cycling through
/// `questions` in arrival order. Pure virtual time: the call is CPU-bound
/// and returns a deterministic [`SoakReport`].
pub fn run_soak(sys: &RagSystem, questions: &[String], cfg: &SoakConfig) -> SoakReport {
    let plan = arrival_plan(cfg);
    let mut report = SoakReport {
        arrivals: plan.len(),
        admitted: 0,
        shed: [0; Priority::COUNT],
        expired: 0,
        completed: 0,
        errors: 0,
        panics: 0,
        shard_partial: 0,
        brownout: [0; 5],
        ladder_violations: 0,
        p50_sojourn: Duration::ZERO,
        p99_sojourn: Duration::ZERO,
        max_depth: 0,
        log: Vec::new(),
        obs: Vec::new(),
    };
    if questions.is_empty() || plan.is_empty() {
        return report;
    }

    let mut queue = AdmissionQueue::new(AdmissionConfig {
        capacity: cfg.capacity,
        seed: cfg.seed,
        ramp_start: cfg.ramp_start,
    });
    let mut pending: VecDeque<Job> = VecDeque::new();
    // One virtual-server pool per shard fault domain (single pool below 2
    // shards). A job's home pool is a stable hash of its sequence number,
    // so shard-slow faults queue their own shard's jobs.
    let router = ShardRouter::new(cfg.shards.max(1));
    let mut free_at: Vec<Vec<Duration>> =
        vec![vec![Duration::ZERO; cfg.concurrency.max(1)]; router.shards() as usize];
    let mut sojourns: Vec<Duration> = Vec::new();

    let mut state = SimState {
        sys,
        questions,
        base_budget: cfg.budget,
        router,
        queue: &mut queue,
        pending: &mut pending,
        free_at: &mut free_at,
        sojourns: &mut sojourns,
        report: &mut report,
    };

    for (seq, arrival) in plan.iter().enumerate() {
        state.dispatch_until(arrival.at);
        state.offer(seq, arrival.at, arrival.class);
    }
    // Drain: virtual time runs on until every queued job started.
    state.dispatch_until(Duration::MAX);

    sojourns.sort_unstable();
    if !sojourns.is_empty() {
        report.p50_sojourn = sojourns[(sojourns.len() - 1) / 2];
        report.p99_sojourn = sojourns[(sojourns.len() - 1) * 99 / 100];
    }
    report
}

/// The mutable halves of the simulation, grouped so the dispatch loop can
/// borrow them together.
struct SimState<'a> {
    sys: &'a RagSystem,
    questions: &'a [String],
    base_budget: Option<QueryBudget>,
    /// Routes each job to its home server pool (identity at one shard).
    router: ShardRouter,
    queue: &'a mut AdmissionQueue,
    pending: &'a mut VecDeque<Job>,
    /// Per-shard pools of virtual-server busy horizons.
    free_at: &'a mut Vec<Vec<Duration>>,
    sojourns: &'a mut Vec<Duration>,
    report: &'a mut SoakReport,
}

impl SimState<'_> {
    /// Offer one arrival to the admission queue.
    fn offer(&mut self, seq: usize, at: Duration, class: Priority) {
        match self.queue.admit(class) {
            Decision::Admitted => {
                self.report.admitted += 1;
                self.report.max_depth = self.report.max_depth.max(self.queue.depth());
                let deadline = self.base_budget.map(|b| at + b.deadline);
                self.pending.push_back(Job { seq, at, class, deadline });
                self.report.log.push(format!(
                    "[{}] admit q={} class={} depth={}",
                    fmt_t(at),
                    seq,
                    class,
                    self.queue.depth()
                ));
            }
            Decision::Shed(reason) => {
                self.report.shed[class.idx()] += 1;
                sage_telemetry::metrics::SHED_TOTAL.inc(class.idx());
                let label = match reason {
                    ShedReason::QueueFull => "queue-full",
                    ShedReason::EarlyDrop => "early-drop",
                };
                self.report.log.push(format!(
                    "[{}] shed q={} class={} reason={} depth={}",
                    fmt_t(at),
                    seq,
                    class,
                    label,
                    self.queue.depth()
                ));
                self.report.obs.push(QueryObs {
                    seq: seq as u64,
                    class: class.label(),
                    arrival_us: at.as_micros() as u64,
                    end_us: at.as_micros() as u64,
                    sojourn_ns: 0,
                    service_ns: 0,
                    outcome: Outcome::Shed,
                    brownout: 0,
                    degraded: 0,
                    deadline_missed: false,
                    tokens: 0,
                    confidence_milli: 0,
                    question: label.to_string(),
                });
            }
        }
    }

    /// The (start, home pool, slot) placement the front job would get from
    /// the current busy horizons: home pool by stable hash of the sequence
    /// number, then the earliest-free server within it; ties break to the
    /// lowest slot (first minimum wins).
    fn place(&self, job: &Job) -> (Duration, usize, usize) {
        let home = self.router.route_id(job.seq) as usize;
        let pool = &self.free_at[home];
        let slot = pool
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| **f)
            .map(|(i, _)| i)
            .unwrap_or(0);
        (pool[slot].max(job.at), home, slot)
    }

    /// Start every pending job whose virtual start time lands before
    /// `now`, in FIFO order. A job starts when the earliest-free server of
    /// its *home shard's* pool is available *and* the job has arrived; its
    /// pipeline runs to completion on this thread before the next job is
    /// placed.
    fn dispatch_until(&mut self, now: Duration) {
        while let Some(job) = self.pending.front() {
            let (start, home, slot) = self.place(job);
            if start >= now {
                break;
            }
            let Some(job) = self.pending.pop_front() else { break };
            self.queue.release();
            if job.deadline.is_some_and(|d| start >= d) {
                self.expire(job, start);
                continue;
            }
            // The budget is fixed at placement time: whatever the queue
            // wait left of the absolute deadline.
            let budget = match (self.base_budget, job.deadline) {
                (Some(base), Some(deadline)) => {
                    Some(QueryBudget::new(deadline.saturating_sub(start), base.max_tokens))
                }
                _ => None,
            };
            let question = &self.questions[job.seq % self.questions.len()];
            let outcome = execute_caught(self.sys, question, None, budget);
            self.settle(job, start, home, slot, outcome);
        }
    }

    /// Bookkeeping for a job whose deadline passed while it queued.
    fn expire(&mut self, job: Job, start: Duration) {
        let wait = start.saturating_sub(job.at);
        self.report.expired += 1;
        self.report.log.push(format!(
            "[{}] expire q={} class={} waited={}",
            fmt_t(start),
            job.seq,
            job.class,
            fmt_t(wait)
        ));
        self.report.obs.push(QueryObs {
            seq: job.seq as u64,
            class: job.class.label(),
            arrival_us: job.at.as_micros() as u64,
            end_us: start.as_micros() as u64,
            sojourn_ns: wait.as_nanos() as u64,
            service_ns: 0,
            outcome: Outcome::Expired,
            brownout: 0,
            degraded: 0,
            deadline_missed: true,
            tokens: 0,
            confidence_milli: 0,
            question: self.questions[job.seq % self.questions.len()].clone(),
        });
    }

    /// Fold one finished pipeline outcome into the simulation: advance the
    /// server's busy horizon by the virtual service time and write the
    /// job's log line and observation.
    fn settle(
        &mut self,
        job: Job,
        start: Duration,
        home: usize,
        slot: usize,
        outcome: Result<crate::QueryResult, sage_resilience::SageError>,
    ) {
        let wait = start.saturating_sub(job.at);
        let question = &self.questions[job.seq % self.questions.len()];
        let service = match &outcome {
            Ok(r) => r.answer_latency + r.feedback_latency + r.degraded.total_delay(),
            Err(_) => ERROR_SERVICE,
        };
        let finish = start + service;
        self.free_at[home][slot] = finish;
        match outcome {
            Ok(r) => {
                self.report.completed += 1;
                self.report.brownout[r.brownout.idx()] += 1;
                // Ladder order: the steps recorded on the trace must be
                // strictly increasing.
                let steps: Vec<u8> =
                    r.degraded.events.iter().filter_map(|e| e.fallback.brownout_step()).collect();
                if !steps.windows(2).all(|w| w[0] < w[1]) {
                    self.report.ladder_violations += 1;
                }
                // A query served from shard survivors documents its rung
                // on the done line; unsharded (or clean) runs append
                // nothing, keeping historical logs byte-identical.
                let rung = r
                    .degraded
                    .events
                    .iter()
                    .find(|e| e.fallback.is_shard_partial())
                    .map(|e| format!(" rung={}", e.fallback))
                    .unwrap_or_default();
                if !rung.is_empty() {
                    self.report.shard_partial += 1;
                }
                self.sojourns.push(finish.saturating_sub(job.at));
                self.report.log.push(format!(
                    "[{}] done q={} class={} waited={} service={} level={} cost={}{}",
                    fmt_t(finish),
                    job.seq,
                    job.class,
                    fmt_t(wait),
                    fmt_t(service),
                    r.brownout,
                    r.cost.input_tokens + r.cost.output_tokens,
                    rung
                ));
                self.report.obs.push(QueryObs {
                    seq: job.seq as u64,
                    class: job.class.label(),
                    arrival_us: job.at.as_micros() as u64,
                    end_us: finish.as_micros() as u64,
                    sojourn_ns: finish.saturating_sub(job.at).as_nanos() as u64,
                    service_ns: service.as_nanos() as u64,
                    outcome: Outcome::Done,
                    brownout: r.brownout.idx() as u8,
                    degraded: r.degraded.events.len() as u32,
                    deadline_missed: job.deadline.is_some_and(|d| finish > d),
                    tokens: r.cost.input_tokens + r.cost.output_tokens,
                    confidence_milli: confidence_milli(r.answer.confidence),
                    question: question.clone(),
                });
            }
            Err(e) => {
                let panicked = matches!(e, sage_resilience::SageError::Panicked { .. });
                if panicked {
                    self.report.panics += 1;
                } else {
                    self.report.errors += 1;
                }
                self.report.log.push(format!(
                    "[{}] error q={} class={} err={}",
                    fmt_t(finish),
                    job.seq,
                    job.class,
                    e
                ));
                self.report.obs.push(QueryObs {
                    seq: job.seq as u64,
                    class: job.class.label(),
                    arrival_us: job.at.as_micros() as u64,
                    end_us: finish.as_micros() as u64,
                    sojourn_ns: finish.saturating_sub(job.at).as_nanos() as u64,
                    service_ns: service.as_nanos() as u64,
                    outcome: if panicked { Outcome::Panicked } else { Outcome::Error },
                    brownout: 0,
                    degraded: 0,
                    deadline_missed: false,
                    tokens: 0,
                    confidence_milli: 0,
                    question: question.clone(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RetrieverKind, SageConfig};
    use crate::models::tiny_models as models;
    use sage_llm::LlmProfile;

    fn system() -> RagSystem {
        RagSystem::build(
            models(),
            RetrieverKind::OpenAiSim,
            SageConfig::sage(),
            LlmProfile::gpt4o_mini(),
            &[
                "Whiskers is a playful tabby cat. He has bright green eyes.\n\
                 Patchy is a ferret with a stubborn streak. Patchy has bright orange eyes.\n\
                 Dorinwick was well known in the region. He lives in Ashford."
                    .to_string(),
            ],
        )
    }

    fn questions() -> Vec<String> {
        vec![
            "What is the color of Whiskers's eyes?".to_string(),
            "Where does Dorinwick live?".to_string(),
            "What animal is Patchy?".to_string(),
        ]
    }

    fn quick_cfg() -> SoakConfig {
        SoakConfig {
            seed: 7,
            duration: Duration::from_secs(20),
            qps: 2.0,
            capacity: 4,
            concurrency: 2,
            ..SoakConfig::default()
        }
    }

    #[test]
    fn soak_replays_bit_for_bit() {
        let sys = system();
        let a = run_soak(&sys, &questions(), &quick_cfg());
        let b = run_soak(&sys, &questions(), &quick_cfg());
        assert_eq!(a, b, "same seed must replay identically");
        assert!(a.completed > 0);
        assert!(a.check_invariants(&quick_cfg(), 0.9).is_empty(), "{:?}", a.log);
    }

    #[test]
    fn obs_stream_reconciles_with_report_counts() {
        let sys = system();
        let cfg = quick_cfg();
        let r = run_soak(&sys, &questions(), &cfg);
        let count = |o: Outcome| r.obs.iter().filter(|x| x.outcome == o).count();
        assert_eq!(count(Outcome::Done), r.completed);
        assert_eq!(count(Outcome::Shed) as u64, r.shed_total());
        assert_eq!(count(Outcome::Expired), r.expired);
        assert_eq!(count(Outcome::Error), r.errors);
        assert_eq!(count(Outcome::Panicked), r.panics);
        // The flight recorder is a fold over the same stream: it captures
        // every observation, retains flagged ones up to capacity, and a
        // replayed run folds to the same bytes.
        let rec_cfg = sage_obs::RecorderConfig { capacity: 8, window: 4, topk: 1 };
        let fold = |obs: &[QueryObs]| {
            let mut rec = sage_obs::FlightRecorder::new(rec_cfg);
            for o in obs {
                rec.capture_query(o);
            }
            rec
        };
        let rec = fold(&r.obs);
        assert_eq!(rec.stats().captured as usize, r.obs.len());
        let flagged = r.obs.iter().filter(|o| o.flagged()).count();
        let retained = rec.records().iter().filter(|x| x.obs.flagged()).count();
        assert_eq!(retained, flagged.min(rec_cfg.capacity));
        assert_eq!(rec.to_jsonl(), fold(&run_soak(&sys, &questions(), &cfg).obs).to_jsonl());
        let js = r.json_summary(&r.check_invariants(&cfg, 0.9));
        assert!(js.starts_with("{\"tool\": \"soak\""), "{js}");
        assert!(js.contains("\"violations\": []"), "{js}");
        assert!(!js.contains('\n'), "summary must be one line");
    }

    #[test]
    fn different_seeds_differ() {
        let sys = system();
        let a = run_soak(&sys, &questions(), &quick_cfg());
        let b = run_soak(&sys, &questions(), &SoakConfig { seed: 8, ..quick_cfg() });
        assert_ne!(a.log, b.log);
    }

    #[test]
    fn queue_pressure_drives_brownout() {
        let sys = system();
        // One server and a tight deadline: queue wait eats the budget.
        let cfg = SoakConfig {
            seed: 11,
            duration: Duration::from_secs(30),
            qps: 3.0,
            capacity: 6,
            concurrency: 1,
            budget: Some(QueryBudget::new(Duration::from_secs(6), 50_000)),
            ..SoakConfig::default()
        };
        let r = run_soak(&sys, &questions(), &cfg);
        assert!(r.completed > 0);
        assert!(
            r.browned_out() > 0 || r.expired > 0 || r.shed_total() > 0,
            "overload must leave a trace: {:?}",
            r.summary()
        );
        assert_eq!(r.ladder_violations, 0);
        assert_eq!(r.panics, 0);
    }

    #[test]
    fn no_budget_means_no_brownout() {
        let sys = system();
        let cfg = SoakConfig { budget: None, ..quick_cfg() };
        let r = run_soak(&sys, &questions(), &cfg);
        assert!(r.completed > 0);
        assert_eq!(r.browned_out(), 0);
        assert_eq!(r.expired, 0);
    }

    #[test]
    fn one_shard_pool_matches_the_historical_model() {
        // `shards: 1` must be the exact single-pool model: byte-identical
        // report (log included) to a config that never mentions shards.
        let sys = system();
        let a = run_soak(&sys, &questions(), &quick_cfg());
        let b = run_soak(&sys, &questions(), &SoakConfig { shards: 1, ..quick_cfg() });
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_pools_replay_bit_for_bit() {
        let sys = system();
        let cfg = SoakConfig { shards: 4, ..quick_cfg() };
        let a = run_soak(&sys, &questions(), &cfg);
        let b = run_soak(&sys, &questions(), &cfg);
        assert_eq!(a, b, "per-shard pools must stay deterministic");
        assert!(a.completed > 0);
        assert_eq!(a.panics, 0);
        assert_eq!(a.shard_partial, 0, "no faults, no partial serves");
    }

    #[test]
    fn shard_fault_surfaces_partial_rungs_without_panics() {
        use crate::resilience::ResilienceConfig;
        use sage_resilience::{FaultPlan, Rates};
        let mut sys = system();
        sys.enable_resilience(ResilienceConfig::with_plan(
            FaultPlan::seeded(7).with_shard(1, Rates { timeout: 1.0, ..Rates::default() }),
        ));
        sys.enable_sharding(4, None);
        let cfg = SoakConfig { shards: 4, ..quick_cfg() };
        let r = run_soak(&sys, &questions(), &cfg);
        assert_eq!(r.panics, 0, "shard loss must never panic the serving path");
        assert!(r.completed > 0);
        assert!(r.shard_partial > 0, "dead shard must surface partial serves: {}", r.summary());
        assert!(
            r.log.iter().any(|l| l.contains("rung=shard-partial:1/4")),
            "done lines must document the rung"
        );
        // Determinism holds under faults too.
        assert_eq!(r, run_soak(&sys, &questions(), &cfg));
    }

    #[test]
    fn empty_inputs_yield_empty_reports() {
        let sys = system();
        let r = run_soak(&sys, &[], &quick_cfg());
        assert_eq!(r.completed, 0);
        assert!(r.arrivals > 0, "plan still generated");
        let r2 = run_soak(&sys, &questions(), &SoakConfig { qps: 0.0, ..quick_cfg() });
        assert_eq!(r2.arrivals, 0);
    }
}
