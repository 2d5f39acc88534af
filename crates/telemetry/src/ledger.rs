//! Token-cost ledger: tokens and calls attributed to pipeline stages.
//!
//! The paper's Table XI accounts for cost per configuration; this ledger
//! does the same per [`Stage`] so exporters can show where tokens (and
//! simulated dollars) go. Updates are lock-free relaxed adds.

use crate::Stage;
use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregated cost attributed to one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCost {
    /// Calls recorded against the stage.
    pub calls: u64,
    /// Prompt tokens consumed.
    pub input_tokens: u64,
    /// Completion tokens produced.
    pub output_tokens: u64,
}

impl StageCost {
    /// Total tokens in both directions.
    pub fn total_tokens(&self) -> u64 {
        self.input_tokens + self.output_tokens
    }

    /// Simulated dollars at the given per-token prices.
    pub fn dollars(&self, input_per_token: f64, output_per_token: f64) -> f64 {
        self.input_tokens as f64 * input_per_token + self.output_tokens as f64 * output_per_token
    }
}

/// Per-stage `(calls, input_tokens, output_tokens)` cells.
pub struct CostLedger {
    cells: [[AtomicU64; 3]; Stage::COUNT],
}

impl Default for CostLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl CostLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self { cells: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))) }
    }

    /// Attribute one call with the given token counts to `stage`.
    pub fn record(&self, stage: Stage, input_tokens: u64, output_tokens: u64) {
        let cell = &self.cells[stage.idx()];
        cell[0].fetch_add(1, Ordering::Relaxed);
        cell[1].fetch_add(input_tokens, Ordering::Relaxed);
        cell[2].fetch_add(output_tokens, Ordering::Relaxed);
    }

    /// Cost recorded against one stage.
    pub fn get(&self, stage: Stage) -> StageCost {
        let cell = &self.cells[stage.idx()];
        StageCost {
            calls: cell[0].load(Ordering::Relaxed),
            input_tokens: cell[1].load(Ordering::Relaxed),
            output_tokens: cell[2].load(Ordering::Relaxed),
        }
    }

    /// Sum over all stages.
    pub fn total(&self) -> StageCost {
        let mut total = StageCost::default();
        for stage in Stage::ALL {
            let c = self.get(stage);
            total.calls += c.calls;
            total.input_tokens += c.input_tokens;
            total.output_tokens += c.output_tokens;
        }
        total
    }

    /// Stages with at least one recorded call, in pipeline order.
    pub fn active_stages(&self) -> Vec<(Stage, StageCost)> {
        Stage::ALL
            .iter()
            .map(|&s| (s, self.get(s)))
            .filter(|(_, c)| c.calls > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals_per_stage() {
        let l = CostLedger::new();
        l.record(Stage::Read, 100, 20);
        l.record(Stage::Read, 50, 10);
        l.record(Stage::Feedback, 30, 5);
        assert_eq!(l.get(Stage::Read), StageCost { calls: 2, input_tokens: 150, output_tokens: 30 });
        assert_eq!(l.get(Stage::Rerank).calls, 0);
        let total = l.total();
        assert_eq!(total.calls, 3);
        assert_eq!(total.total_tokens(), 215);
        let active: Vec<Stage> = l.active_stages().into_iter().map(|(s, _)| s).collect();
        assert_eq!(active, vec![Stage::Read, Stage::Feedback]);
    }

    #[test]
    fn dollars_multiply_per_direction() {
        let c = StageCost { calls: 1, input_tokens: 1000, output_tokens: 100 };
        let d = c.dollars(0.001, 0.002);
        assert!((d - 1.2).abs() < 1e-9);
    }
}
