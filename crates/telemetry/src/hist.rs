//! Log-bucketed latency histograms.
//!
//! Values (nanoseconds in practice) are bucketed by bit length: bucket 0
//! holds the value 0 and bucket `i` (1 ≤ i ≤ 64) holds values in
//! `[2^(i-1), 2^i)`. Recording is a single relaxed `fetch_add`, so the
//! histogram can be shared across threads without locking; quantile
//! estimates come from immutable [`HistogramSnapshot`]s, which merge
//! exactly (bucket-wise addition) and therefore associatively.
//!
//! A quantile estimate returns the upper bound of the bucket holding the
//! rank, so it is always within one bucket width (a factor of two) of the
//! true order statistic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per bit length of a `u64`.
pub const BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, otherwise its bit length.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Largest value that lands in bucket `i` (inclusive upper bound).
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Smallest value that lands in bucket `i` (inclusive lower bound).
pub fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => 1u64 << 63,
        _ => 1u64 << (i - 1),
    }
}

/// Lock-free concurrent histogram with power-of-two buckets.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self { counts: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Immutable copy of the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (dst, src) in counts.iter_mut().zip(&self.counts) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot { counts, sum: self.sum.load(Ordering::Relaxed) }
    }
}

/// Frozen bucket counts; the unit of merging and quantile estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count per bucket (see [`bucket_of`]).
    pub counts: [u64; BUCKETS],
    /// Sum of all recorded values (for means).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// Snapshot with no observations.
    pub fn empty() -> Self {
        Self { counts: [0; BUCKETS], sum: 0 }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fold another snapshot into this one (exact, associative).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.sum += other.sum;
    }

    /// Mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Quantile estimate for `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the observation of rank `ceil(q * count)`.
    ///
    /// The true order statistic lies in the same bucket, so the estimate
    /// errs by less than one bucket width. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Convenience triple `(p50, p90, p99)`.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.90), self.quantile(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_lower(i)), i, "lower bound of bucket {i}");
            assert_eq!(bucket_of(bucket_upper(i)), i, "upper bound of bucket {i}");
        }
    }

    #[test]
    fn record_and_quantiles_on_known_distribution() {
        let h = Histogram::new();
        // 100 observations: 1..=100.
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum, 5050);
        // True p50 is 50 (bucket 6: 32..=63); estimate is the bucket cap.
        assert_eq!(s.quantile(0.50), 63);
        // True p99 is 99 (bucket 7: 64..=127).
        assert_eq!(s.quantile(0.99), 127);
        assert_eq!(bucket_of(s.quantile(0.50)), bucket_of(50));
        assert_eq!(bucket_of(s.quantile(0.99)), bucket_of(99));
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        a.record(9);
        b.record(5);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert_eq!(m.sum, 19);
        assert_eq!(m.counts[bucket_of(5)], 2);
    }

    #[test]
    fn empty_snapshot_is_identity_for_merge() {
        let h = Histogram::new();
        h.record(7);
        let s = h.snapshot();
        let mut m = s.clone();
        m.merge(&HistogramSnapshot::empty());
        assert_eq!(m, s);
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), 0);
        assert_eq!(HistogramSnapshot::empty().mean(), 0.0);
    }
}
