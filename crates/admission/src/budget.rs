//! Per-query deadline/token budgets and the brownout ladder.
//!
//! ## Determinism
//!
//! [`QueryBudget::plan`] never reads the wall clock. It compares the
//! budget against fixed per-stage *model* costs (the constants below, the
//! only copy), so the same query with the same budget plans the same rung
//! bit for bit, regardless of machine load.
//!
//! ## One decision per query
//!
//! The rung is picked once, at admission, and applied to the whole plan
//! before its first stage runs. Nothing is charged as stages finish: a
//! plan that fits at admission keeps fitting, so no later stage could
//! change the rung. `crates/admission/tests/oracle.rs` keeps the
//! per-checkpoint meter this replaced and checks that it never does.
//!
//! ## Monotonicity
//!
//! The whole-query estimate covers the one-read estimate, so a smaller
//! budget can only plan an equal or deeper rung. Two properties in
//! `tests/properties.rs` pin this down end to end.

use std::time::Duration;

// Modeled virtual costs of the pipeline stages. These are *model* values,
// not measurements.
/// Query embedding.
const EMBED_TIME: Duration = Duration::from_millis(2);
/// Vector-index (or BM25) search.
const SEARCH_TIME: Duration = Duration::from_millis(3);
/// Cross-scorer cost per question/chunk pair.
const RERANK_PAIR_TIME: Duration = Duration::from_micros(500);
/// Gradient selection.
const SELECT_TIME: Duration = Duration::from_micros(100);
/// One reader (generation) call.
const READ_TIME: Duration = Duration::from_secs(2);
/// One feedback round: the judge call plus loop bookkeeping.
const FEEDBACK_ROUND_TIME: Duration = Duration::from_secs(2);
/// Tokens of one reader call.
const READ_TOKENS: u64 = 500;
/// Tokens of one feedback judge call.
const FEEDBACK_ROUND_TOKENS: u64 = 500;

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

    /// The brownout rung a query that reranks `candidates` chunks and
    /// would judge up to `rounds` answers runs at under this budget:
    /// [`BrownoutLevel::None`] if the whole query fits,
    /// [`BrownoutLevel::DropFeedback`] if one read with rerank and
    /// selection does, [`BrownoutLevel::FlatTopK`] otherwise.
    pub fn plan(&self, candidates: usize, rounds: u32) -> BrownoutLevel {
        let (read_time, read_tokens) = one_read(candidates);
        let (loop_time, loop_tokens) = feedback_loop(rounds);
        if self.fits(read_time + loop_time, read_tokens + loop_tokens) {
            BrownoutLevel::None
        } else if self.fits(read_time, read_tokens) {
            BrownoutLevel::DropFeedback
        } else {
            BrownoutLevel::FlatTopK
        }
    }

    fn fits(&self, time: Duration, tokens: u64) -> bool {
        time <= self.deadline && tokens <= self.max_tokens
    }
}

/// Modeled time and tokens of retrieval, rerank over `candidates`,
/// selection and one read.
fn one_read(candidates: usize) -> (Duration, u64) {
    let time =
        EMBED_TIME + SEARCH_TIME + RERANK_PAIR_TIME * candidates as u32 + SELECT_TIME + READ_TIME;
    (time, READ_TOKENS)
}

/// Modeled time and tokens of the feedback loop beyond the first read:
/// `rounds` judge calls plus the selection and read of each later round.
fn feedback_loop(rounds: u32) -> (Duration, u64) {
    let later = rounds.saturating_sub(1);
    let time = FEEDBACK_ROUND_TIME * rounds + (READ_TIME + SELECT_TIME) * later;
    let tokens = FEEDBACK_ROUND_TOKENS * u64::from(rounds) + READ_TOKENS * u64::from(later);
    (time, tokens)
}

/// The brownout ladder, least to most degraded. Each level implies every
/// mitigation below it (flat top-k also drops feedback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BrownoutLevel {
    /// Full-fidelity pipeline.
    None,
    /// Skip the self-feedback loop: one read, no judge calls.
    DropFeedback,
    /// Skip reranking and take a flat top-`min_k` prefix of the
    /// first-stage retrieval order instead of gradient selection.
    FlatTopK,
}

impl BrownoutLevel {
    /// All levels, ladder order.
    pub const ALL: [BrownoutLevel; 3] =
        [BrownoutLevel::None, BrownoutLevel::DropFeedback, BrownoutLevel::FlatTopK];

    /// Stable index (ladder position).
    pub fn idx(self) -> usize {
        match self {
            BrownoutLevel::None => 0,
            BrownoutLevel::DropFeedback => 1,
            BrownoutLevel::FlatTopK => 2,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            BrownoutLevel::None => "none",
            BrownoutLevel::DropFeedback => "drop-feedback",
            BrownoutLevel::FlatTopK => "flat-topk",
        }
    }
}

impl std::fmt::Display for BrownoutLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(deadline_ms: u64, tokens: u64) -> QueryBudget {
        QueryBudget::new(Duration::from_millis(deadline_ms), tokens)
    }

    #[test]
    fn generous_budget_plans_full_fidelity() {
        assert_eq!(QueryBudget::generous().plan(32, 3), BrownoutLevel::None);
    }

    #[test]
    fn tight_deadline_walks_the_ladder() {
        // Full fidelity with 3 rounds estimates ~2s(read) + 3*2s(fb) +
        // 2*2s(extra reads) ≈ 12s; drop-feedback ≈ 2s; flat ≈ 2s.
        assert_eq!(budget(60_000, u64::MAX).plan(32, 3), BrownoutLevel::None);
        assert_eq!(budget(5_000, u64::MAX).plan(32, 3), BrownoutLevel::DropFeedback);
        assert_eq!(
            budget(500, u64::MAX).plan(32, 3),
            BrownoutLevel::FlatTopK,
            "deadline below one read bottoms out the ladder"
        );
    }

    #[test]
    fn token_budget_alone_can_drop_feedback() {
        // 3 rounds ≈ 500 + 3*500 + 2*500 = 3000 tokens; one read ≈ 500.
        assert_eq!(budget(600_000, 1_000).plan(32, 3), BrownoutLevel::DropFeedback);
    }

    #[test]
    fn estimates_are_non_increasing_along_the_ladder() {
        // The whole-query estimate covers the one-read estimate, which is
        // what makes the plan monotone in the budget.
        for candidates in [0, 1, 20, 32, 64] {
            for rounds in 0..=4 {
                let (read_time, read_tokens) = one_read(candidates);
                let (loop_time, loop_tokens) = feedback_loop(rounds);
                assert!(read_time + loop_time >= read_time);
                assert!(read_tokens + loop_tokens >= read_tokens);
                assert_eq!(rounds == 0, loop_time.is_zero() && loop_tokens == 0);
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
                    let a = budget(ms_a, tok_a).plan(32, 3);
                    let b = budget(ms_b, tok_b).plan(32, 3);
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
    fn each_boundary_is_inclusive() {
        // A budget exactly equal to a rung's estimate plans that rung; one
        // nanosecond or one token less plans the next one down.
        const NS: Duration = Duration::from_nanos(1);
        let (candidates, rounds) = (20, 3);
        let (read_time, read_tokens) = one_read(candidates);
        let (loop_time, loop_tokens) = feedback_loop(rounds);
        let (full_time, full_tokens) = (read_time + loop_time, read_tokens + loop_tokens);
        assert_eq!((read_time, read_tokens), (Duration::from_micros(2_015_100), 500));
        assert_eq!((full_time, full_tokens), (Duration::from_micros(12_015_300), 3_000));
        let plan = |deadline, tokens| QueryBudget::new(deadline, tokens).plan(candidates, rounds);
        let (ample_time, ample_tokens) = (Duration::from_secs(3_600), u64::MAX);

        assert_eq!(plan(full_time, ample_tokens), BrownoutLevel::None);
        assert_eq!(plan(full_time - NS, ample_tokens), BrownoutLevel::DropFeedback);
        assert_eq!(plan(read_time, ample_tokens), BrownoutLevel::DropFeedback);
        assert_eq!(plan(read_time - NS, ample_tokens), BrownoutLevel::FlatTopK);

        assert_eq!(plan(ample_time, full_tokens), BrownoutLevel::None);
        assert_eq!(plan(ample_time, full_tokens - 1), BrownoutLevel::DropFeedback);
        assert_eq!(plan(ample_time, read_tokens), BrownoutLevel::DropFeedback);
        assert_eq!(plan(ample_time, read_tokens - 1), BrownoutLevel::FlatTopK);

        // Both boundaries at once: the tighter of the two decides.
        assert_eq!(plan(full_time, full_tokens), BrownoutLevel::None);
        assert_eq!(plan(read_time, read_tokens), BrownoutLevel::DropFeedback);
        assert_eq!(plan(full_time, read_tokens - 1), BrownoutLevel::FlatTopK);
        assert_eq!(plan(read_time - NS, full_tokens), BrownoutLevel::FlatTopK);
    }
}
