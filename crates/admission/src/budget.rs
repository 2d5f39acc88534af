//! Per-query deadline/token budgets and the brownout ladder.
//!
//! ## Determinism
//!
//! A [`BudgetMeter`] never reads the wall clock. Both what a stage is
//! *estimated* to cost ([`CostModel`]) and what the meter *charges* once it
//! runs ([`BudgetMeter::checkpoint`]) are the same fixed per-stage virtual
//! costs, defined in this file and nowhere else. The same query with the
//! same budget therefore replays the same brownout decisions bit-for-bit,
//! regardless of machine load.
//!
//! ## Monotonicity
//!
//! The planner walks the ladder from the current level upward and stops at
//! the first level whose *estimated remaining cost* fits the remaining
//! budget. Estimates are non-increasing along the ladder by construction,
//! so for a fixed spend a smaller remaining budget can only produce an
//! equal or deeper level — and the level itself only ever ratchets upward
//! within a query. Two properties in `tests/properties.rs` pin this down.

use std::time::Duration;

/// Per-query resource envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBudget {
    /// Virtual-time deadline for the whole query.
    pub deadline: Duration,
    /// Combined input+output LLM token allowance.
    pub max_tokens: u64,
}

impl QueryBudget {
    /// A budget from explicit parts.
    pub fn new(deadline: Duration, max_tokens: u64) -> Self {
        Self { deadline, max_tokens }
    }

    /// A budget generous enough that a healthy query never browns out
    /// (admission enabled, zero pressure).
    pub fn generous() -> Self {
        Self { deadline: Duration::from_secs(120), max_tokens: 1_000_000 }
    }
}

/// The brownout ladder, least to most degraded. Each level implies every
/// mitigation below it (level 3 also drops feedback, for example).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BrownoutLevel {
    /// Full-fidelity pipeline.
    None,
    /// Skip the self-feedback loop: one read, no judge calls.
    DropFeedback,
    /// Rerank only the top half of the candidate pool.
    ShrinkRerank,
    /// Skip reranking; keep the first-stage retrieval order.
    SkipRerank,
    /// Flat top-`min_k` prefix instead of gradient selection.
    FlatTopK,
}

impl BrownoutLevel {
    /// All levels, ladder order.
    pub const ALL: [BrownoutLevel; 5] = [
        BrownoutLevel::None,
        BrownoutLevel::DropFeedback,
        BrownoutLevel::ShrinkRerank,
        BrownoutLevel::SkipRerank,
        BrownoutLevel::FlatTopK,
    ];

    /// Stable index (ladder position).
    pub fn idx(self) -> usize {
        match self {
            BrownoutLevel::None => 0,
            BrownoutLevel::DropFeedback => 1,
            BrownoutLevel::ShrinkRerank => 2,
            BrownoutLevel::SkipRerank => 3,
            BrownoutLevel::FlatTopK => 4,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            BrownoutLevel::None => "none",
            BrownoutLevel::DropFeedback => "drop-feedback",
            BrownoutLevel::ShrinkRerank => "shrink-rerank",
            BrownoutLevel::SkipRerank => "skip-rerank",
            BrownoutLevel::FlatTopK => "flat-topk",
        }
    }
}

impl std::fmt::Display for BrownoutLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

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
            BrownoutLevel::ShrinkRerank => candidates / 2,
            BrownoutLevel::SkipRerank | BrownoutLevel::FlatTopK => 0,
        };
        self.rerank_pair_time * pairs as u32
    }

    /// Model tokens of one reader call at `level` (deeper levels select
    /// smaller contexts). Also the per-read token charge.
    fn read_tokens_at(&self, level: BrownoutLevel) -> u64 {
        match level {
            BrownoutLevel::None | BrownoutLevel::DropFeedback => self.read_tokens,
            BrownoutLevel::ShrinkRerank => self.read_tokens * 3 / 4,
            BrownoutLevel::SkipRerank => self.read_tokens * 5 / 8,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn meter(deadline_ms: u64, tokens: u64) -> BudgetMeter {
        BudgetMeter::new(QueryBudget::new(Duration::from_millis(deadline_ms), tokens), 32, 3)
    }

    #[test]
    fn generous_budget_plans_full_fidelity() {
        let mut m = BudgetMeter::new(QueryBudget::generous(), 32, 3);
        assert_eq!(m.replan(PlanStage::Start), BrownoutLevel::None);
    }

    #[test]
    fn tight_deadline_walks_the_ladder() {
        // Full fidelity with 3 rounds estimates ~2s(read) + 3*2s(fb) +
        // 2*2s(extra reads) ≈ 12s; drop-feedback ≈ 2s; flat ≈ 2s.
        assert_eq!(meter(60_000, u64::MAX).replan(PlanStage::Start), BrownoutLevel::None);
        assert_eq!(
            meter(5_000, u64::MAX).replan(PlanStage::Start),
            BrownoutLevel::DropFeedback
        );
        assert_eq!(
            meter(500, u64::MAX).replan(PlanStage::Start),
            BrownoutLevel::FlatTopK,
            "deadline below one read bottoms out the ladder"
        );
    }

    #[test]
    fn token_budget_alone_can_drop_feedback() {
        // 3 rounds ≈ 500 + 3*500 + 2*500 = 3000 tokens; one read ≈ 500.
        let mut m = meter(600_000, 1_000);
        assert_eq!(m.replan(PlanStage::Start), BrownoutLevel::DropFeedback);
    }

    #[test]
    fn level_only_ratchets_upward() {
        let mut m = meter(5_000, u64::MAX);
        assert_eq!(m.replan(PlanStage::Start), BrownoutLevel::DropFeedback);
        // Budget is still fine for a single read at every later stage; the
        // level must not fall back to None.
        assert_eq!(m.replan(PlanStage::Read), BrownoutLevel::DropFeedback);
        m.charge_time(Duration::from_secs(4));
        assert!(m.replan(PlanStage::Read) >= BrownoutLevel::DropFeedback);
    }

    #[test]
    fn estimates_are_non_increasing_along_the_ladder() {
        let model = CostModel::default();
        for stage in [
            PlanStage::Start,
            PlanStage::Rerank,
            PlanStage::Select,
            PlanStage::Read,
            PlanStage::Feedback,
        ] {
            for pair in BrownoutLevel::ALL.windows(2) {
                assert!(
                    model.time_from(stage, pair[1], 32, 3)
                        <= model.time_from(stage, pair[0], 32, 3),
                    "time estimate must not grow from {:?} to {:?} at {stage:?}",
                    pair[0],
                    pair[1]
                );
                assert!(
                    model.tokens_from(stage, pair[1], 3) <= model.tokens_from(stage, pair[0], 3),
                    "token estimate must not grow from {:?} to {:?} at {stage:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn planner_is_monotone_in_the_budget() {
        // Denser grid than the property test, but same claim: a smaller
        // budget never plans a shallower level.
        let mut grid: Vec<(u64, u64)> = Vec::new();
        for ms in [100, 1_000, 2_500, 4_000, 6_000, 9_000, 15_000, 60_000] {
            for tok in [100, 600, 1_500, 2_500, 5_000, 50_000] {
                grid.push((ms, tok));
            }
        }
        for &(ms_a, tok_a) in &grid {
            for &(ms_b, tok_b) in &grid {
                if ms_a <= ms_b && tok_a <= tok_b {
                    let a = meter(ms_a, tok_a).replan(PlanStage::Start);
                    let b = meter(ms_b, tok_b).replan(PlanStage::Start);
                    assert!(
                        a >= b,
                        "budget ({ms_a}ms,{tok_a}tok) planned {a:?}, \
                         larger ({ms_b}ms,{tok_b}tok) planned {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn charges_accumulate_and_saturate() {
        let mut m = meter(1_000, 100);
        m.charge_time(Duration::from_millis(400));
        m.charge_tokens(40);
        assert_eq!(m.remaining_time(), Duration::from_millis(600));
        assert_eq!(m.remaining_tokens(), 60);
        m.charge_time(Duration::from_secs(5));
        m.charge_tokens(1_000);
        assert_eq!(m.remaining_time(), Duration::ZERO);
        assert_eq!(m.remaining_tokens(), 0);
        assert_eq!(m.spent_tokens, 1_040);
    }

    #[test]
    fn checkpoints_charge_the_schedule_of_a_three_round_query() {
        // One full-fidelity query, 20 candidates, three judged rounds,
        // through every checkpoint in executor order.
        let c = CostModel::default();
        let mut m = BudgetMeter::new(QueryBudget::generous(), 20, 3);
        m.checkpoint(PlanStage::Start);
        assert_eq!((m.spent_time, m.spent_tokens), (Duration::ZERO, 0), "Start only plans");
        m.checkpoint(PlanStage::Rerank);
        assert_eq!(m.spent_time, c.embed_time + c.search_time + c.rerank_pair_time * 20);
        for round in 1..=3u32 {
            m.checkpoint(PlanStage::Select);
            m.checkpoint(PlanStage::Read);
            let before_read = m.spent_time;
            m.checkpoint(PlanStage::Feedback);
            assert_eq!(m.spent_time - before_read, c.read_time, "the read settles at Feedback");
            m.settle_feedback();
            assert_eq!(m.planned_rounds - m.executed_feedback, 3 - round);
        }
        assert_eq!(m.level(), BrownoutLevel::None);
        assert_eq!(
            m.spent_time,
            c.embed_time
                + c.search_time
                + c.rerank_pair_time * 20
                + (c.select_time + c.read_time + c.feedback_round_time) * 3
        );
        assert_eq!(m.spent_tokens, (c.read_tokens + c.feedback_round_tokens) * 3);

        // The same walk at the bottom of the ladder: no rerank pairs, no
        // gradient pass, a half-size read and no judge.
        let mut m = BudgetMeter::new(QueryBudget::new(Duration::from_millis(100), u64::MAX), 20, 3);
        assert_eq!(m.checkpoint(PlanStage::Start), BrownoutLevel::FlatTopK);
        for stage in [PlanStage::Rerank, PlanStage::Select, PlanStage::Read, PlanStage::Feedback] {
            m.checkpoint(stage);
        }
        assert_eq!(m.spent_time, c.embed_time + c.search_time + c.read_time);
        assert_eq!(m.spent_tokens, c.read_tokens / 2);
    }
}
