//! `QueryBudget::plan` against the per-checkpoint meter it replaced, kept
//! here verbatim as the oracle: `PlanStage`, `CostModel` (estimates and
//! charges, the half-read `FlatTopK` price included) and `BudgetMeter`
//! (charge, replan, ratchet). Each walk drives the meter through the
//! checkpoint sequence the replaced executor issued for one query — start,
//! rerank, then select, read and feedback per round, a judged round
//! settling its feedback — and asserts that the meter's level at every
//! checkpoint is the level `plan` picks once at admission. The walks cover
//! full plans with and without feedback, fixed-context plans, a judge that
//! stops the loop early, a repeated selection, and a read that fails, over
//! a grid of deadlines, token budgets, candidate counts and 0–4 rounds
//! that straddles every boundary of the plan.

use sage_admission::{BrownoutLevel, QueryBudget};
use std::time::Duration;

/// Pipeline checkpoints where the meter charges and replans
/// ([`BudgetMeter::checkpoint`]); each names the work that is still
/// *ahead* of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStage {
    /// Before retrieval: the whole query is ahead.
    Start,
    /// After first-stage retrieval, before reranking.
    Rerank,
    /// After reranking, before selection.
    Select,
    /// After selection, before the reader call.
    Read,
    /// After a read that produced an answer, deciding whether a feedback
    /// round is affordable.
    Feedback,
}

/// Deterministic virtual costs of the pipeline stages, used for budget
/// planning. These are *model* values, not measurements: charging the
/// model (rather than per-level actuals) keeps the virtual spend identical
/// across budgets up to each checkpoint, which is what makes the planner
/// monotone in the budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Query embedding.
    pub embed_time: Duration,
    /// Vector-index (or BM25) search.
    pub search_time: Duration,
    /// Cross-scorer cost per question/chunk pair.
    pub rerank_pair_time: Duration,
    /// Gradient selection.
    pub select_time: Duration,
    /// One reader (generation) call.
    pub read_time: Duration,
    /// One feedback round: the judge call plus loop bookkeeping.
    pub feedback_round_time: Duration,
    /// Token estimate of one reader call at full fidelity.
    pub read_tokens: u64,
    /// Token estimate of one feedback judge call.
    pub feedback_round_tokens: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            embed_time: Duration::from_millis(2),
            search_time: Duration::from_millis(3),
            rerank_pair_time: Duration::from_micros(500),
            select_time: Duration::from_micros(100),
            read_time: Duration::from_secs(2),
            feedback_round_time: Duration::from_secs(2),
            read_tokens: 500,
            feedback_round_tokens: 500,
        }
    }
}

impl CostModel {
    /// Estimated rerank cost at `level` over `candidates` candidates. Also
    /// the amount charged once the rerank stage runs, so the plan and the
    /// spend agree.
    fn rerank_cost(&self, level: BrownoutLevel, candidates: usize) -> Duration {
        let pairs = match level {
            BrownoutLevel::None | BrownoutLevel::DropFeedback => candidates,
            BrownoutLevel::FlatTopK => 0,
        };
        self.rerank_pair_time * pairs as u32
    }

    /// Model tokens of one reader call at `level` (the flat prefix is
    /// modeled as half a read). Also the per-read token charge.
    fn read_tokens_at(&self, level: BrownoutLevel) -> u64 {
        match level {
            BrownoutLevel::None | BrownoutLevel::DropFeedback => self.read_tokens,
            BrownoutLevel::FlatTopK => self.read_tokens / 2,
        }
    }

    /// Estimated feedback-loop cost beyond the first read: `rounds` judge
    /// calls plus the extra read+select of each later round. Zero once the
    /// ladder drops feedback. Including the follow-on read/select makes the
    /// per-round gate telescope exactly against the per-checkpoint charges:
    /// a plan that fits at `Start` keeps fitting at every later checkpoint.
    fn feedback_cost(&self, level: BrownoutLevel, rounds: u32) -> Duration {
        if level >= BrownoutLevel::DropFeedback || rounds == 0 {
            return Duration::ZERO;
        }
        self.feedback_round_time * rounds
            + (self.read_time + self.select_time) * rounds.saturating_sub(1)
    }

    /// Estimated virtual time of everything ahead of `stage` at `level`.
    /// Non-increasing in `level` at every stage.
    fn time_from(
        &self,
        stage: PlanStage,
        level: BrownoutLevel,
        candidates: usize,
        rounds: u32,
    ) -> Duration {
        let select = if level >= BrownoutLevel::FlatTopK {
            Duration::ZERO
        } else {
            self.select_time
        };
        let fb = self.feedback_cost(level, rounds);
        match stage {
            PlanStage::Start => {
                self.embed_time
                    + self.search_time
                    + self.rerank_cost(level, candidates)
                    + select
                    + self.read_time
                    + fb
            }
            PlanStage::Rerank => {
                self.rerank_cost(level, candidates) + select + self.read_time + fb
            }
            PlanStage::Select => select + self.read_time + fb,
            PlanStage::Read => self.read_time + fb,
            // Per-round gate: the whole remaining loop must be affordable,
            // not just the next judge call — otherwise a query could pass
            // the gate and strand itself without budget for the read the
            // judge triggers.
            PlanStage::Feedback => self.feedback_cost(level, rounds),
        }
    }

    /// Estimated tokens of everything ahead of `stage` at `level`.
    /// Non-increasing in `level` at every stage (deeper levels select
    /// smaller contexts).
    fn tokens_from(
        &self,
        stage: PlanStage,
        level: BrownoutLevel,
        rounds: u32,
    ) -> u64 {
        let read = self.read_tokens_at(level);
        let fb = if level >= BrownoutLevel::DropFeedback || rounds == 0 {
            0
        } else {
            self.feedback_round_tokens * u64::from(rounds)
                + read * u64::from(rounds.saturating_sub(1))
        };
        match stage {
            PlanStage::Start | PlanStage::Rerank | PlanStage::Select => read + fb,
            PlanStage::Read => read + fb,
            // Whole remaining loop, mirroring the time-side gate.
            PlanStage::Feedback => fb,
        }
    }
}

/// Tracks a query's spend against its [`QueryBudget`] and ratchets the
/// [`BrownoutLevel`] as the remainder shrinks.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    budget: QueryBudget,
    model: CostModel,
    /// Candidate-pool size the rerank estimate and charge are taken over.
    candidates: usize,
    /// Feedback rounds the configuration would run at full fidelity.
    planned_rounds: u32,
    /// Feedback rounds settled so far.
    executed_feedback: u32,
    spent_time: Duration,
    spent_tokens: u64,
    level: BrownoutLevel,
}

impl BudgetMeter {
    /// A fresh meter at [`BrownoutLevel::None`] for a query that reranks
    /// `candidates` chunks and would judge up to `planned_rounds` answers.
    pub fn new(budget: QueryBudget, candidates: usize, planned_rounds: u32) -> Self {
        Self {
            budget,
            model: CostModel::default(),
            candidates,
            planned_rounds,
            executed_feedback: 0,
            spent_time: Duration::ZERO,
            spent_tokens: 0,
            level: BrownoutLevel::None,
        }
    }

    /// The current (ratcheted) brownout level.
    pub fn level(&self) -> BrownoutLevel {
        self.level
    }

    /// Run the checkpoint at `stage`: charge the work the stage settles at
    /// the cost model and replan. Returns the ratcheted level.
    ///
    /// The charge/replan order per stage is load-bearing. Rerank charges
    /// the first-stage work, *then* replans, *then* charges its own work at
    /// the level just decided; selection replans first and charges only
    /// when the gradient pass will actually run; a read is charged after it
    /// produced an answer, at the `Feedback` checkpoint that decides
    /// whether the loop may still afford judging it.
    pub fn checkpoint(&mut self, stage: PlanStage) -> BrownoutLevel {
        let model = self.model;
        match stage {
            PlanStage::Start | PlanStage::Read => self.replan(stage),
            PlanStage::Rerank => {
                self.charge_time(model.embed_time + model.search_time);
                let level = self.replan(stage);
                self.charge_time(model.rerank_cost(level, self.candidates));
                level
            }
            PlanStage::Select => {
                let level = self.replan(stage);
                if level < BrownoutLevel::FlatTopK {
                    self.charge_time(model.select_time);
                }
                level
            }
            PlanStage::Feedback => {
                self.charge_time(model.read_time);
                self.charge_tokens(model.read_tokens_at(self.level));
                self.replan(stage)
            }
        }
    }

    /// Settle one finished feedback round: charge the judge call and count
    /// the round against the planned ones.
    pub fn settle_feedback(&mut self) {
        self.charge_time(self.model.feedback_round_time);
        self.charge_tokens(self.model.feedback_round_tokens);
        self.executed_feedback += 1;
    }

    fn charge_time(&mut self, d: Duration) {
        self.spent_time += d;
    }

    fn charge_tokens(&mut self, n: u64) {
        self.spent_tokens += n;
    }

    fn remaining_time(&self) -> Duration {
        self.budget.deadline.saturating_sub(self.spent_time)
    }

    fn remaining_tokens(&self) -> u64 {
        self.budget.max_tokens.saturating_sub(self.spent_tokens)
    }

    /// Re-plan at a checkpoint: ratchet to the shallowest level — at or
    /// above the current one — whose estimated remaining cost (with the
    /// judge calls still ahead) fits the remaining budget;
    /// [`BrownoutLevel::FlatTopK`] if none fits.
    fn replan(&mut self, stage: PlanStage) -> BrownoutLevel {
        let rounds = self.planned_rounds.saturating_sub(self.executed_feedback);
        let time_left = self.remaining_time();
        let tokens_left = self.remaining_tokens();
        for level in BrownoutLevel::ALL {
            if level < self.level {
                continue;
            }
            let fits = self.model.time_from(stage, level, self.candidates, rounds) <= time_left
                && self.model.tokens_from(stage, level, rounds) <= tokens_left;
            if fits {
                self.level = level;
                return level;
            }
        }
        self.level = BrownoutLevel::FlatTopK;
        self.level
    }
}
/// The shape of the plan a walk executes.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A resolved plan: prelude, then up to `max_rounds` rounds, each
    /// judged when `feedback` is on and the rung keeps it.
    Full { feedback: bool, max_rounds: u32 },
    /// A request that names its chunks: one read, no prelude.
    Fixed,
}

/// What ends a walk before its last round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Every round runs.
    Nothing,
    /// The judge scores round `r` at threshold.
    JudgeStops(u32),
    /// The reader exhausts its fallbacks in round `r`.
    ReadFails(u32),
    /// Round `r` selects what round `r - 1` did.
    SelectionRepeats(u32),
}

/// One checkpoint of a walk: the meter's level must be the planned one.
fn step(
    meter: &mut BudgetMeter,
    stage: PlanStage,
    planned: BrownoutLevel,
    walk: &dyn Fn() -> String,
) {
    let level = meter.checkpoint(stage);
    assert_eq!(level, planned, "{stage:?} of {}", walk());
}

/// Drive the meter through one query's checkpoints, in the replaced
/// executor's order, and return the planned level.
fn walk(
    budget: QueryBudget,
    candidates: usize,
    rounds: u32,
    shape: Shape,
    event: Event,
) -> BrownoutLevel {
    let planned = budget.plan(candidates, rounds);
    let describe =
        || format!("{budget:?} candidates={candidates} rounds={rounds} {shape:?} {event:?}");
    let mut meter = BudgetMeter::new(budget, candidates, rounds);
    step(&mut meter, PlanStage::Start, planned, &describe);
    let (fixed, feedback, max_rounds) = match shape {
        Shape::Full { feedback, max_rounds } => (false, feedback, max_rounds),
        Shape::Fixed => (true, false, 1),
    };
    if !fixed {
        step(&mut meter, PlanStage::Rerank, planned, &describe);
    }
    for round in 0..max_rounds {
        if !fixed {
            step(&mut meter, PlanStage::Select, planned, &describe);
            if event == Event::SelectionRepeats(round) {
                break;
            }
        }
        step(&mut meter, PlanStage::Read, planned, &describe);
        // A read that produced nothing charges nothing and ends the loop.
        if event == Event::ReadFails(round) {
            break;
        }
        step(&mut meter, PlanStage::Feedback, planned, &describe);
        // The rung the feedback checkpoint left decides whether the round
        // is judged; an unjudged round is final.
        if !feedback || meter.level() >= BrownoutLevel::DropFeedback {
            break;
        }
        meter.settle_feedback();
        if event == Event::JudgeStops(round) {
            break;
        }
    }
    assert_eq!(meter.level(), planned, "end of {}", describe());
    planned
}

/// Every plan shape a configuration with `rounds` feedback rounds runs,
/// paired with the feedback rounds the meter is told about.
fn shapes(rounds: u32) -> Vec<(Shape, u32)> {
    let mut out =
        vec![(Shape::Full { feedback: true, max_rounds: rounds }, rounds), (Shape::Fixed, rounds)];
    if rounds == 0 {
        // Feedback off: one unjudged round, no rounds planned.
        out.push((Shape::Full { feedback: false, max_rounds: 1 }, 0));
    }
    out
}

/// Every way a walk of `shape` can end.
fn events(shape: Shape) -> Vec<Event> {
    let max_rounds = match shape {
        Shape::Full { max_rounds, .. } => max_rounds,
        Shape::Fixed => 1,
    };
    let mut out = vec![Event::Nothing];
    for r in 0..max_rounds {
        out.push(Event::ReadFails(r));
        if matches!(shape, Shape::Full { feedback: true, .. }) {
            out.push(Event::JudgeStops(r));
        }
        if r > 0 && !matches!(shape, Shape::Fixed) {
            out.push(Event::SelectionRepeats(r));
        }
    }
    out
}

/// The deadlines a walk over `candidates` and `rounds` runs under: a sweep
/// past the full-fidelity estimate plus each of the meter's two planning
/// thresholds and a nanosecond either side.
fn deadlines(candidates: usize, rounds: u32) -> Vec<Duration> {
    let model = CostModel::default();
    let full = model.time_from(PlanStage::Start, BrownoutLevel::None, candidates, rounds);
    let one_read =
        model.time_from(PlanStage::Start, BrownoutLevel::DropFeedback, candidates, rounds);
    let ns = Duration::from_nanos(1);
    let mut out: Vec<Duration> = (0..=360).map(|i| Duration::from_millis(i * 50)).collect();
    out.extend([full - ns, full, full + ns, one_read - ns, one_read, one_read + ns]);
    out
}

/// The token budgets a walk with `rounds` runs under: a sweep plus each
/// planning threshold and one token either side.
fn token_budgets(rounds: u32) -> Vec<u64> {
    let model = CostModel::default();
    let full = model.tokens_from(PlanStage::Start, BrownoutLevel::None, rounds);
    let one_read = model.tokens_from(PlanStage::Start, BrownoutLevel::DropFeedback, rounds);
    let mut out: Vec<u64> = (0..=12).map(|i| i * 300).collect();
    out.extend([full - 1, full, full + 1, one_read - 1, one_read, one_read + 1, u64::MAX]);
    out
}

#[test]
fn plan_is_the_meter_level_at_every_checkpoint() {
    let mut walks = 0u64;
    let mut reached = [0u64; 3];
    for candidates in [0, 1, 5, 20, 32, 64] {
        for rounds in 0..=4 {
            for (shape, planned_rounds) in shapes(rounds) {
                for event in events(shape) {
                    for &deadline in &deadlines(candidates, planned_rounds) {
                        for &tokens in &token_budgets(planned_rounds) {
                            let budget = QueryBudget::new(deadline, tokens);
                            let level = walk(budget, candidates, planned_rounds, shape, event);
                            reached[level.idx()] += 1;
                            walks += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(walks >= 1_000_000, "only {walks} walks");
    assert!(reached.iter().all(|&n| n > 0), "a level is never planned: {reached:?}");
}
