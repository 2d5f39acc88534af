//! LLM inference cost (paper Eq. 1) and cost-efficiency (Eq. 2).

/// Per-token prices in dollars (the paper quotes GPT-4 at $10/M input and
/// $30/M output).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceTable {
    /// Dollars per input token (`c_i`).
    pub input_per_token: f64,
    /// Dollars per output token (`c_o`).
    pub output_per_token: f64,
}

impl PriceTable {
    /// GPT-4 pricing from §I/§II-B: $10 / 1M input, $30 / 1M output.
    pub fn gpt4() -> Self {
        Self { input_per_token: 10.0 / 1e6, output_per_token: 30.0 / 1e6 }
    }

    /// GPT-4o-mini pricing (public list price at the time of the paper:
    /// $0.15 / 1M input, $0.60 / 1M output).
    pub fn gpt4o_mini() -> Self {
        Self { input_per_token: 0.15 / 1e6, output_per_token: 0.60 / 1e6 }
    }

    /// GPT-3.5-turbo pricing ($0.50 / 1M input, $1.50 / 1M output).
    pub fn gpt35_turbo() -> Self {
        Self { input_per_token: 0.50 / 1e6, output_per_token: 1.50 / 1e6 }
    }

    /// A local model has no per-token API fee.
    pub fn free() -> Self {
        Self { input_per_token: 0.0, output_per_token: 0.0 }
    }
}

/// Accumulated token usage for a sequence of LLM calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Total input tokens (`I_t`).
    pub input_tokens: u64,
    /// Total output tokens (`O_t`).
    pub output_tokens: u64,
}

impl Cost {
    /// No usage.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Record one call.
    pub fn add_call(&mut self, input_tokens: usize, output_tokens: usize) {
        self.input_tokens += input_tokens as u64;
        self.output_tokens += output_tokens as u64;
    }

    /// Merge another accumulator.
    pub fn merge(&mut self, other: Cost) {
        self.input_tokens += other.input_tokens;
        self.output_tokens += other.output_tokens;
    }

    /// Total tokens, input + output.
    pub fn total_tokens(&self) -> u64 {
        self.input_tokens + self.output_tokens
    }

    /// Eq. 1: `Cost = I_t * c_i + O_t * c_o`, in dollars.
    pub fn dollars(&self, prices: PriceTable) -> f64 {
        self.input_tokens as f64 * prices.input_per_token
            + self.output_tokens as f64 * prices.output_per_token
    }
}

/// Eq. 2: `Cost-efficiency = Acc / Cost`. Returns `f64::INFINITY` for zero
/// cost with positive accuracy, 0 for zero accuracy.
pub fn cost_efficiency(accuracy: f64, cost_dollars: f64) -> f64 {
    if accuracy <= 0.0 {
        0.0
    } else if cost_dollars <= 0.0 {
        f64::INFINITY
    } else {
        accuracy / cost_dollars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_worked_example() {
        // 1M input + 1M output tokens at GPT-4 prices = $40.
        let mut cost = Cost::zero();
        cost.add_call(1_000_000, 1_000_000);
        assert!((cost.dollars(PriceTable::gpt4()) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn accumulation_and_merge() {
        let mut a = Cost::zero();
        a.add_call(100, 10);
        a.add_call(50, 5);
        let mut b = Cost::zero();
        b.add_call(25, 2);
        a.merge(b);
        assert_eq!(a.input_tokens, 175);
        assert_eq!(a.output_tokens, 17);
        assert_eq!(a.total_tokens(), 192);
    }

    #[test]
    fn price_ordering_matches_reality() {
        let c = {
            let mut c = Cost::zero();
            c.add_call(10_000, 1_000);
            c
        };
        let gpt4 = c.dollars(PriceTable::gpt4());
        let gpt35 = c.dollars(PriceTable::gpt35_turbo());
        let mini = c.dollars(PriceTable::gpt4o_mini());
        assert!(gpt4 > gpt35 && gpt35 > mini && mini > 0.0);
        assert_eq!(c.dollars(PriceTable::free()), 0.0);
    }

    #[test]
    fn eq2_behaviour() {
        assert!((cost_efficiency(0.8, 0.4) - 2.0).abs() < 1e-9);
        assert_eq!(cost_efficiency(0.0, 1.0), 0.0);
        assert_eq!(cost_efficiency(0.5, 0.0), f64::INFINITY);
    }

    #[test]
    fn higher_accuracy_lower_cost_wins() {
        let sage = cost_efficiency(0.75, 0.010);
        let baseline = cost_efficiency(0.65, 0.014);
        assert!(sage > baseline);
    }
}
