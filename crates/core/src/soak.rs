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
//! The queue-wait → brownout coupling falls out naturally: a query's
//! absolute deadline is fixed at arrival, so time spent waiting in the
//! admission queue shrinks the deadline budget its pipeline run receives,
//! and deeper queues push queries further down the brownout ladder.

use crate::pipeline::{RagSystem, Request};
use sage_admission::{
    arrival_plan, AdmissionConfig, AdmissionQueue, BrownoutLevel, Decision, Priority, QueryBudget,
    SoakConfig,
};
use sage_telemetry::{Outcome, QueryObs};
use std::collections::VecDeque;
use std::time::Duration;

/// Virtual service time charged for a query that returned a structured
/// error instead of a result (isolated panic, shed-free error paths).
const ERROR_SERVICE: Duration = Duration::from_millis(10);

/// What one soak run did, with enough detail to assert the overload
/// invariants and to diff two runs for determinism. Every per-outcome
/// tally is a fold over [`obs`](Self::obs); the fields hold only what the
/// observation stream cannot give.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakReport {
    /// Arrivals planned by the seeded process.
    pub arrivals: usize,
    /// Deepest queue depth observed.
    pub max_depth: usize,
    /// Completed queries whose brownout events were out of ladder order.
    /// Always zero — the ladder only ratchets downward in fidelity.
    pub ladder_violations: usize,
    /// Deterministic event log, one line per arrival/start/finish.
    pub log: Vec<String>,
    /// Per-query observations in terminal-event order (shed, expiry,
    /// completion, error), one per arrival offered to the queue — the one
    /// stream the tallies below fold over and `sage report` writes in
    /// full. Virtual quantities only, so it replays bit-for-bit like the
    /// log.
    pub obs: Vec<QueryObs>,
}

impl SoakReport {
    /// Observations that ended in `outcome`.
    fn count(&self, outcome: Outcome) -> usize {
        self.obs.iter().filter(|o| o.outcome == outcome).count()
    }

    /// Observations of completed queries.
    fn done(&self) -> impl Iterator<Item = &QueryObs> {
        self.obs.iter().filter(|o| o.outcome == Outcome::Done)
    }

    /// Queries the admission queue accepted: every observation but a shed
    /// one (an empty question list offers nothing, whatever the plan).
    pub fn admitted(&self) -> usize {
        self.obs.len() - self.count(Outcome::Shed)
    }

    /// Queries shed, by priority class (stable [`Priority`] order).
    pub fn shed(&self) -> [u64; Priority::COUNT] {
        Priority::ALL.map(|class| {
            let shed = |o: &&QueryObs| o.outcome == Outcome::Shed && o.class == class.label();
            self.obs.iter().filter(shed).count() as u64
        })
    }

    /// Total shed across classes.
    pub fn shed_total(&self) -> u64 {
        self.count(Outcome::Shed) as u64
    }

    /// Admitted queries whose deadline expired while queued (never run).
    pub fn expired(&self) -> usize {
        self.count(Outcome::Expired)
    }

    /// Queries that completed with a result.
    pub fn completed(&self) -> usize {
        self.count(Outcome::Done)
    }

    /// Queries that returned a structured error (not shed, not panic).
    pub fn errors(&self) -> usize {
        self.count(Outcome::Error)
    }

    /// Queries that panicked (isolated by the serving path). Always zero
    /// unless something is broken — the first soak invariant.
    pub fn panics(&self) -> usize {
        self.count(Outcome::Panicked)
    }

    /// Completed queries by final brownout level (ladder order; index 0 is
    /// full fidelity).
    pub fn brownout(&self) -> [u64; BrownoutLevel::ALL.len()] {
        std::array::from_fn(|level| {
            self.done().filter(|o| usize::from(o.brownout) == level).count() as u64
        })
    }

    /// Median sojourn (arrival → virtual completion) of completed queries.
    pub fn p50_sojourn(&self) -> Duration {
        self.sojourn(50)
    }

    /// 99th-percentile sojourn of completed queries.
    pub fn p99_sojourn(&self) -> Duration {
        self.sojourn(99)
    }

    /// Element `(n - 1) * pct / 100` of the `n` sorted completed sojourns.
    fn sojourn(&self, pct: usize) -> Duration {
        let mut sojourns: Vec<u64> = self.done().map(|o| o.sojourn_ns).collect();
        sojourns.sort_unstable();
        let at = sojourns.len().saturating_sub(1) * pct / 100;
        sojourns.get(at).map_or(Duration::ZERO, |&ns| Duration::from_nanos(ns))
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
        self.brownout().iter().skip(1).sum()
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
        if self.panics() > 0 {
            violations.push(format!("{} queries panicked", self.panics()));
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
            let p99 = self.p99_sojourn();
            if self.completed() > 0 && p99 > bound {
                violations.push(format!(
                    "p99 sojourn {p99:?} exceeds deadline+ceiling {bound:?}"
                ));
            }
        }
        violations
    }

    /// Multi-line human summary (the `sage soak` stderr report).
    pub fn summary(&self) -> String {
        let (shed, brownout) = (self.shed(), self.brownout());
        let mut out = String::new();
        out.push_str(&format!(
            "arrivals {}  admitted {}  shed {} (interactive {} / batch {} / background {})\n",
            self.arrivals,
            self.admitted(),
            self.shed_total(),
            shed[0],
            shed[1],
            shed[2]
        ));
        out.push_str(&format!(
            "completed {}  expired {}  errors {}  panics {}\n",
            self.completed(),
            self.expired(),
            self.errors(),
            self.panics()
        ));
        out.push_str(&format!(
            "brownout none {} / drop-feedback {} / flat-topk {}\n",
            brownout[0], brownout[1], brownout[2]
        ));
        out.push_str(&format!(
            "p50 sojourn {}  p99 sojourn {}  max depth {}\n",
            fmt_t(self.p50_sojourn()),
            fmt_t(self.p99_sojourn()),
            self.max_depth
        ));
        out
    }

    /// One-line machine-readable summary (virtual quantities only, so it
    /// is byte-identical across same-seed replays). The scenario harness
    /// and CI parse this instead of scraping the human summary;
    /// `violations` is whatever [`SoakReport::check_invariants`] returned.
    pub fn json_summary(&self, violations: &[String]) -> String {
        let (shed, brownout) = (self.shed(), self.brownout());
        let mut out = String::from("{\"tool\": \"soak\"");
        out.push_str(&format!(", \"arrivals\": {}", self.arrivals));
        out.push_str(&format!(", \"admitted\": {}", self.admitted()));
        out.push_str(&format!(
            ", \"shed\": {{\"interactive\": {}, \"batch\": {}, \"background\": {}, \"total\": {}}}",
            shed[0],
            shed[1],
            shed[2],
            self.shed_total()
        ));
        out.push_str(&format!(", \"expired\": {}", self.expired()));
        out.push_str(&format!(", \"completed\": {}", self.completed()));
        out.push_str(&format!(", \"errors\": {}", self.errors()));
        out.push_str(&format!(", \"panics\": {}", self.panics()));
        out.push_str(&format!(
            ", \"brownout\": [{}, {}, {}]",
            brownout[0], brownout[1], brownout[2]
        ));
        out.push_str(&format!(", \"browned_out\": {}", self.browned_out()));
        out.push_str(&format!(", \"ladder_violations\": {}", self.ladder_violations));
        out.push_str(&format!(", \"p50_sojourn_us\": {}", self.p50_sojourn().as_micros()));
        out.push_str(&format!(", \"p99_sojourn_us\": {}", self.p99_sojourn().as_micros()));
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

/// One arrival: offered to the queue, then (if admitted) waiting for a
/// virtual server.
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

impl Job {
    /// This query's observation, ending at `end` with `outcome` and nothing
    /// charged; each terminal event fills in the rest.
    fn observe(&self, end: Duration, outcome: Outcome, question: String) -> QueryObs {
        QueryObs {
            seq: self.seq as u64,
            class: self.class.label(),
            arrival_us: self.at.as_micros() as u64,
            end_us: end.as_micros() as u64,
            sojourn_ns: end.saturating_sub(self.at).as_nanos() as u64,
            outcome,
            question,
            ..QueryObs::default()
        }
    }
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
    let report = SoakReport {
        arrivals: plan.len(),
        max_depth: 0,
        ladder_violations: 0,
        log: Vec::new(),
        obs: Vec::new(),
    };
    if questions.is_empty() || plan.is_empty() {
        return report;
    }

    let mut state = SimState {
        sys,
        questions,
        base_budget: cfg.budget,
        queue: AdmissionQueue::new(AdmissionConfig {
            capacity: cfg.capacity,
            seed: cfg.seed,
            ..AdmissionConfig::default()
        }),
        pending: VecDeque::new(),
        free_at: vec![Duration::ZERO; cfg.concurrency.max(1)],
        report,
    };
    for (seq, arrival) in plan.iter().enumerate() {
        state.dispatch_until(arrival.at);
        state.offer(seq, arrival.at, arrival.class);
    }
    // Drain: virtual time runs on until every queued job started.
    state.dispatch_until(Duration::MAX);
    state.report
}

/// The simulation: the system under test, the queue and the virtual
/// servers, and the report being written.
struct SimState<'a> {
    sys: &'a RagSystem,
    questions: &'a [String],
    base_budget: Option<QueryBudget>,
    queue: AdmissionQueue,
    pending: VecDeque<Job>,
    /// Virtual-server busy horizons.
    free_at: Vec<Duration>,
    report: SoakReport,
}

impl SimState<'_> {
    /// The question job `seq` asks.
    fn question(&self, seq: usize) -> &str {
        &self.questions[seq % self.questions.len()]
    }

    /// Offer one arrival to the admission queue.
    fn offer(&mut self, seq: usize, at: Duration, class: Priority) {
        let job = Job { seq, at, class, deadline: self.base_budget.map(|b| at + b.deadline) };
        match self.queue.admit(class) {
            Decision::Admitted => {
                self.report.max_depth = self.report.max_depth.max(self.queue.depth());
                self.pending.push_back(job);
                self.report.log.push(format!(
                    "[{}] admit q={} class={} depth={}",
                    fmt_t(at),
                    seq,
                    class,
                    self.queue.depth()
                ));
            }
            Decision::Shed(reason) => {
                sage_telemetry::metrics::SHED_TOTAL.inc(class.idx());
                let label = reason.label();
                self.report.log.push(format!(
                    "[{}] shed q={} class={} reason={} depth={}",
                    fmt_t(at),
                    seq,
                    class,
                    label,
                    self.queue.depth()
                ));
                self.report.obs.push(job.observe(at, Outcome::Shed, label.to_string()));
            }
        }
    }

    /// The (start, slot) placement the front job would get from the current
    /// busy horizons: the earliest-free server; ties break to the lowest
    /// slot (first minimum wins).
    fn place(&self, job: &Job) -> (Duration, usize) {
        let slot = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| **f)
            .map(|(i, _)| i)
            .unwrap_or(0);
        (self.free_at[slot].max(job.at), slot)
    }

    /// Start every pending job whose virtual start time lands before
    /// `now`, in FIFO order. A job starts when the earliest-free server is
    /// available *and* the job has arrived; its pipeline runs to
    /// completion on this thread before the next job is placed.
    fn dispatch_until(&mut self, now: Duration) {
        while let Some(job) = self.pending.front() {
            let (start, slot) = self.place(job);
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
            let request = Request { budget, ..Request::new(self.question(job.seq)) };
            let outcome = self.sys.answer(&request);
            self.settle(job, start, slot, outcome);
        }
    }

    /// Bookkeeping for a job whose deadline passed while it queued.
    fn expire(&mut self, job: Job, start: Duration) {
        self.report.log.push(format!(
            "[{}] expire q={} class={} waited={}",
            fmt_t(start),
            job.seq,
            job.class,
            fmt_t(start.saturating_sub(job.at))
        ));
        let obs = job.observe(start, Outcome::Expired, self.question(job.seq).to_string());
        self.report.obs.push(QueryObs { deadline_missed: true, ..obs });
    }

    /// Fold one finished pipeline outcome into the simulation: advance the
    /// server's busy horizon by the virtual service time and write the
    /// job's log line and observation.
    fn settle(
        &mut self,
        job: Job,
        start: Duration,
        slot: usize,
        outcome: Result<crate::QueryResult, sage_resilience::SageError>,
    ) {
        let wait = start.saturating_sub(job.at);
        let question = self.question(job.seq).to_string();
        let service = match &outcome {
            Ok(r) => r.answer_latency + r.feedback_latency + r.degraded.total_delay(),
            Err(_) => ERROR_SERVICE,
        };
        let finish = start + service;
        self.free_at[slot] = finish;
        let service_ns = service.as_nanos() as u64;
        match outcome {
            Ok(r) => {
                // Ladder order: the steps recorded on the trace must be
                // strictly increasing.
                let steps: Vec<u8> =
                    r.degraded.events.iter().filter_map(|e| e.fallback.brownout_step()).collect();
                if !steps.windows(2).all(|w| w[0] < w[1]) {
                    self.report.ladder_violations += 1;
                }
                let tokens = r.cost.input_tokens + r.cost.output_tokens;
                self.report.log.push(format!(
                    "[{}] done q={} class={} waited={} service={} level={} cost={}",
                    fmt_t(finish),
                    job.seq,
                    job.class,
                    fmt_t(wait),
                    fmt_t(service),
                    r.brownout,
                    tokens
                ));
                let obs = job.observe(finish, Outcome::Done, question);
                self.report.obs.push(QueryObs {
                    service_ns,
                    brownout: r.brownout.idx() as u8,
                    degraded: r.degraded.events.len() as u32,
                    deadline_missed: job.deadline.is_some_and(|d| finish > d),
                    tokens,
                    confidence_milli: confidence_milli(r.answer.confidence),
                    ..obs
                });
            }
            Err(e) => {
                self.report.log.push(format!(
                    "[{}] error q={} class={} err={}",
                    fmt_t(finish),
                    job.seq,
                    job.class,
                    e
                ));
                let outcome = match e {
                    sage_resilience::SageError::Panicked { .. } => Outcome::Panicked,
                    _ => Outcome::Error,
                };
                self.report.obs.push(QueryObs { service_ns, ..job.observe(finish, outcome, question) });
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
        assert!(a.completed() > 0);
        assert!(a.check_invariants(&quick_cfg(), 0.9).is_empty(), "{:?}", a.log);
    }

    #[test]
    fn obs_stream_reconciles_with_report_counts() {
        let sys = system();
        let cfg = quick_cfg();
        let r = run_soak(&sys, &questions(), &cfg);
        // Every arrival ends in exactly one observation: admitted or shed.
        assert!(r.arrivals > 0);
        assert_eq!(r.obs.len(), r.arrivals);
        assert_eq!(r.admitted() as u64 + r.shed_total(), r.arrivals as u64);
        let js = r.json_summary(&r.check_invariants(&cfg, 0.9));
        assert!(js.starts_with("{\"tool\": \"soak\""), "{js}");
        assert!(js.contains("\"violations\": []"), "{js}");
        assert!(!js.contains('\n'), "summary must be one line");
    }

    /// A report over `obs` alone: one arrival per observation.
    fn report_of(obs: Vec<QueryObs>) -> SoakReport {
        SoakReport { arrivals: obs.len(), max_depth: 0, ladder_violations: 0, log: Vec::new(), obs }
    }

    fn ended(outcome: Outcome, sojourn: Duration) -> QueryObs {
        QueryObs { outcome, sojourn_ns: sojourn.as_nanos() as u64, ..QueryObs::default() }
    }

    #[test]
    fn invariants_report_a_panic() {
        let r = report_of(vec![
            ended(Outcome::Done, Duration::from_secs(1)),
            ended(Outcome::Panicked, Duration::ZERO),
        ]);
        assert_eq!(r.check_invariants(&quick_cfg(), 0.9), ["1 queries panicked"]);
    }

    #[test]
    fn invariants_report_a_shed_rate_above_the_bound() {
        let shed = ended(Outcome::Shed, Duration::ZERO);
        let r = report_of(vec![
            ended(Outcome::Done, Duration::from_secs(1)),
            shed.clone(),
            shed.clone(),
            shed,
        ]);
        assert_eq!(r.check_invariants(&quick_cfg(), 0.5), ["shed rate 0.750 exceeds bound 0.500"]);
        assert!(r.check_invariants(&quick_cfg(), 0.75).is_empty(), "the bound is inclusive");
    }

    #[test]
    fn invariants_bound_p99_sojourn_by_deadline_plus_ceiling() {
        let cfg = SoakConfig {
            budget: Some(QueryBudget::new(Duration::from_secs(8), 50_000)),
            ..quick_cfg()
        };
        let at_bound = report_of(vec![ended(Outcome::Done, Duration::from_secs(38))]);
        assert!(at_bound.check_invariants(&cfg, 0.9).is_empty());
        let late = Duration::from_secs(38) + Duration::from_nanos(1);
        let r = report_of(vec![ended(Outcome::Done, late)]);
        assert_eq!(
            r.check_invariants(&cfg, 0.9),
            ["p99 sojourn 38.000000001s exceeds deadline+ceiling 38s"]
        );
        // Without budgets there is no deadline to bound the sojourn by.
        let unbudgeted = SoakConfig { budget: None, ..cfg };
        assert!(r.check_invariants(&unbudgeted, 0.9).is_empty());
    }

    #[test]
    fn json_summary_escapes_violations() {
        let r = report_of(Vec::new());
        let js = r.json_summary(&["bad \"q\"".to_string()]);
        assert!(js.ends_with("\"violations\": [\"bad \\\"q\\\"\"]}"), "{js}");
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
        assert!(r.completed() > 0);
        assert!(
            r.browned_out() > 0 || r.expired() > 0 || r.shed_total() > 0,
            "overload must leave a trace: {:?}",
            r.summary()
        );
        assert_eq!(r.ladder_violations, 0);
        assert_eq!(r.panics(), 0);
    }

    #[test]
    fn no_budget_means_no_brownout() {
        let sys = system();
        let cfg = SoakConfig { budget: None, ..quick_cfg() };
        let r = run_soak(&sys, &questions(), &cfg);
        assert!(r.completed() > 0);
        assert_eq!(r.browned_out(), 0);
        assert_eq!(r.expired(), 0);
    }

    #[test]
    fn empty_inputs_yield_empty_reports() {
        let sys = system();
        let r = run_soak(&sys, &[], &quick_cfg());
        assert_eq!(r.completed(), 0);
        assert!(r.arrivals > 0, "plan still generated");
        assert_eq!(r.admitted(), 0, "nothing is offered without questions");
        let r2 = run_soak(&sys, &questions(), &SoakConfig { qps: 0.0, ..quick_cfg() });
        assert_eq!(r2.arrivals, 0);
    }
}
