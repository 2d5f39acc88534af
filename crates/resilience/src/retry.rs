//! Bounded retries with exponential backoff over a virtual clock.
//!
//! Real serving stacks sleep between attempts; a test harness must not.
//! [`VirtualClock`] accumulates the *would-have-slept* durations on an
//! atomic counter, so the retry ladder (and the circuit breaker's cooldown
//! arithmetic) behaves exactly as in production while tests run at full
//! speed. Jitter comes from the fault plan's deterministic per-call RNG,
//! never from entropy.

// `Relaxed` is confined by `relaxed_ordering_is_confined` (tests/static_analysis.rs).
// Here: the virtual clock is a single-writer accumulator per query (no
// cross-thread handoff); counters are telemetry-style monotonic totals.

use crate::rng::DetRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Retry configuration for one guarded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Cap on any single backoff.
    pub max_delay: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// deterministic factor drawn from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Virtual deadline charged when a timeout fault fires.
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter: 0.2,
            timeout: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// The backoff to charge after failed attempt `attempt` (0-based):
    /// `base * 2^attempt`, capped at `max_delay`, scaled by deterministic
    /// jitter from `rng`.
    pub fn backoff(&self, attempt: u32, rng: &mut DetRng) -> Duration {
        let exp = self.base_delay.as_secs_f64() * 2f64.powi(attempt.min(16) as i32);
        let capped = exp.min(self.max_delay.as_secs_f64());
        let jitter = self.jitter.clamp(0.0, 1.0);
        let factor =
            if jitter > 0.0 { rng.range_f64(1.0 - jitter, 1.0 + jitter) } else { 1.0 };
        Duration::from_secs_f64(capped * factor)
    }
}

/// A monotonically advancing virtual clock (nanoseconds on an atomic).
///
/// Shared by the retry layer (which charges backoff and timeout penalties)
/// and the circuit breakers (whose cooldowns are measured against it).
/// Thread-safe; `advance` from any worker is visible to all.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// Advance the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(450),
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = DetRng::seed_from_u64(0);
        assert_eq!(p.backoff(0, &mut rng), Duration::from_millis(100));
        assert_eq!(p.backoff(1, &mut rng), Duration::from_millis(200));
        assert_eq!(p.backoff(2, &mut rng), Duration::from_millis(400));
        assert_eq!(p.backoff(3, &mut rng), Duration::from_millis(450), "capped");
        assert_eq!(p.backoff(40, &mut rng), Duration::from_millis(450), "huge attempt capped");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy { jitter: 0.5, ..RetryPolicy::default() };
        let base = p.base_delay.as_secs_f64();
        let mut a = DetRng::seed_from_u64(9);
        let mut b = DetRng::seed_from_u64(9);
        let da = p.backoff(0, &mut a);
        let db = p.backoff(0, &mut b);
        assert_eq!(da, db, "same rng seed, same jitter");
        assert!(da.as_secs_f64() >= base * 0.5 - 1e-9);
        assert!(da.as_secs_f64() <= base * 1.5 + 1e-9);
    }

    #[test]
    fn clock_advances_without_sleeping() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        let wall = std::time::Instant::now();
        clock.advance(Duration::from_secs(3600));
        assert_eq!(clock.now(), Duration::from_secs(3600));
        assert!(wall.elapsed() < Duration::from_secs(1), "no real sleep");
    }
}
