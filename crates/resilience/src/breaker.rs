//! Per-component circuit breakers over virtual time.
//!
//! Classic three-state breaker: `Closed` (normal), `Open` (fast-fail to the
//! fallback without attempting the primary), `HalfOpen` (after the cooldown
//! one trial call probes the primary; success closes, failure re-opens).
//! Time is the shared [`crate::VirtualClock`], so breaker behaviour is as
//! deterministic as the fault plan driving it.

use crate::retry::VirtualClock;
use std::sync::Mutex;
use std::time::Duration;

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Virtual-time cooldown before a half-open probe is allowed.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { failure_threshold: 5, cooldown: Duration::from_secs(10) }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow to the primary.
    Closed,
    /// Primary is skipped; callers go straight to the fallback.
    Open,
    /// Cooldown elapsed; the next call probes the primary.
    HalfOpen,
}

#[derive(Debug)]
struct Inner {
    consecutive_failures: u32,
    /// `Some(t)` while open: fast-fail until virtual time `t`.
    open_until: Option<Duration>,
    half_open: bool,
}

/// A thread-safe circuit breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            inner: Mutex::new(Inner {
                consecutive_failures: 0,
                open_until: None,
                half_open: false,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding this short lock cannot leave the breaker
        // logically corrupt; recover the poisoned guard.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The current state at virtual time `now` (transitions Open→HalfOpen
    /// when the cooldown has elapsed).
    pub fn state(&self, now: Duration) -> BreakerState {
        let mut inner = self.lock();
        match inner.open_until {
            Some(t) if now < t => BreakerState::Open,
            Some(_) => {
                inner.open_until = None;
                inner.half_open = true;
                BreakerState::HalfOpen
            }
            None if inner.half_open => BreakerState::HalfOpen,
            None => BreakerState::Closed,
        }
    }

    /// Whether the primary should be skipped right now.
    pub fn is_open(&self, clock: &VirtualClock) -> bool {
        self.state(clock.now()) == BreakerState::Open
    }

    /// Record a successful primary call: close the breaker.
    pub fn record_success(&self) {
        let mut inner = self.lock();
        inner.consecutive_failures = 0;
        inner.open_until = None;
        inner.half_open = false;
    }

    /// Record a failed primary call at virtual time `now`. A failure in
    /// half-open re-opens immediately; otherwise the consecutive-failure
    /// count trips the breaker at the threshold.
    pub fn record_failure(&self, now: Duration) {
        let mut inner = self.lock();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let trip = inner.half_open
            || inner.consecutive_failures >= self.config.failure_threshold;
        if trip {
            inner.open_until = Some(now + self.config.cooldown);
            inner.half_open = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig { failure_threshold: 3, cooldown: Duration::from_secs(10) }
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let clock = VirtualClock::new();
        let b = CircuitBreaker::new(cfg());
        b.record_failure(clock.now());
        b.record_failure(clock.now());
        assert!(!b.is_open(&clock), "below threshold stays closed");
        b.record_failure(clock.now());
        assert!(b.is_open(&clock), "threshold trips the breaker");
    }

    #[test]
    fn success_resets_the_streak() {
        let clock = VirtualClock::new();
        let b = CircuitBreaker::new(cfg());
        b.record_failure(clock.now());
        b.record_failure(clock.now());
        b.record_success();
        b.record_failure(clock.now());
        b.record_failure(clock.now());
        assert!(!b.is_open(&clock), "streak was reset by the success");
    }

    #[test]
    fn cooldown_leads_to_half_open_then_close_or_reopen() {
        let clock = VirtualClock::new();
        let b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.record_failure(clock.now());
        }
        assert_eq!(b.state(clock.now()), BreakerState::Open);
        clock.advance(Duration::from_secs(11));
        assert_eq!(b.state(clock.now()), BreakerState::HalfOpen, "cooldown elapsed");
        // A half-open failure re-opens immediately (one strike).
        b.record_failure(clock.now());
        assert_eq!(b.state(clock.now()), BreakerState::Open);
        clock.advance(Duration::from_secs(11));
        assert_eq!(b.state(clock.now()), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(clock.now()), BreakerState::Closed);
    }
}
