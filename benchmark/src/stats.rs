//! The harness's own arithmetic: nearest-rank quantiles, the quiet-side
//! quartile used to summarise rounds, and the FNV-1a output digest.

/// Nearest-rank quantile: the value at 1-based rank `ceil(p * n)` of the
/// ascending sort (rank 1 for `p = 0`). `values` must be non-empty.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The quartile on a metric's *quiet* side across rounds: the nearest-rank
/// lower quartile of a time, the mirror image for a rate. Summarises the
/// traced run's per-round layer values (with two rounds: the better one).
pub fn quiet_quartile(per_round: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => nearest_rank(per_round, 0.25),
        Better::Higher => {
            let negated: Vec<f64> = per_round.iter().map(|v| -v).collect();
            -nearest_rank(&negated, 0.25)
        }
    }
}

/// The fastest repetition of every operation: `rounds[r][i]` is how long
/// operation `i` took in round `r`, and element `i` of the result is the
/// minimum of that column. Neighbours on this shared VM slow memory-bound
/// code by 1.4x for ten seconds to a minute at a time, with short let-ups;
/// they only ever add time. A sum of per-operation minima needs one quiet
/// repetition of each operation, where any statistic of per-round sums
/// needs whole quiet rounds, and summing over hundreds of operations
/// averages out the luck a single minimum would carry. Columns stop at the
/// shortest round.
pub fn fastest_per_op(rounds: &[&[f64]]) -> Vec<f64> {
    let ops = rounds.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..ops).map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min)).collect()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when `b`
/// is better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// FNV-1a over everything a round produced (answers, chosen chunk ids);
/// equal digests across rounds are the determinism check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

/// SplitMix64: the harness's only source of pseudo-randomness (which
/// documents a live step touches), seeded from `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[cfg_attr(test, test)]
pub fn nearest_rank_matches_hand_computed_ranks() {
    let six = [6.0, 1.0, 5.0, 2.0, 4.0, 3.0];
    assert_eq!(nearest_rank(&six, 0.25), 2.0, "2nd-fastest of 6");
    assert_eq!(nearest_rank(&six, 0.5), 3.0);
    assert_eq!(nearest_rank(&six, 0.9), 6.0);
    assert_eq!(nearest_rank(&six, 0.0), 1.0);
    assert_eq!(nearest_rank(&six, 1.0), 6.0);
    assert_eq!(nearest_rank(&[7.0], 0.25), 7.0);
    let four = [4.0, 3.0, 2.0, 1.0];
    assert_eq!(nearest_rank(&four, 0.25), 1.0);
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(nearest_rank(&ten, 0.5), 5.0);
    assert_eq!(nearest_rank(&ten, 0.9), 9.0);
    assert_eq!(nearest_rank(&ten, 0.91), 10.0);
}

#[cfg_attr(test, test)]
pub fn quiet_quartile_mirrors_for_rates() {
    let times = [3.0, 1.0, 9.0, 2.0, 8.0, 7.0];
    assert_eq!(quiet_quartile(&times, Better::Lower), 2.0);
    let rates = [30.0, 10.0, 90.0, 20.0, 80.0, 70.0];
    assert_eq!(quiet_quartile(&rates, Better::Higher), 80.0);
    assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
    assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
    assert!(worsening(100.0, 90.0, Better::Lower) < 0.0);
}

#[cfg_attr(test, test)]
pub fn fastest_per_op_ignores_disturbed_repetitions() {
    // Four rounds of three operations; each round is slow somewhere.
    let rounds: [&[f64]; 4] = [&[9.0, 2.0, 3.0], &[1.0, 9.0, 3.5], &[1.0, 2.0, 9.0], &[1.5, 2.5, 3.0]];
    assert_eq!(fastest_per_op(&rounds), vec![1.0, 2.0, 3.0]);
    // Per-round sums are 14, 13.5, 12 and 7: none of them is near 6.
    assert_eq!(fastest_per_op(&[&[1.0, 2.0], &[3.0]]), vec![1.0]);
    assert!(fastest_per_op(&[]).is_empty());
}
