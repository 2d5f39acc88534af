//! The boundary wrapper: fault roll → breaker check → call → validate →
//! retry with backoff → structured failure.

use crate::breaker::CircuitBreaker;
use crate::error::SageError;
use crate::fault::{Component, FaultKind, FaultPlan};
use crate::retry::{RetryPolicy, VirtualClock};
use std::time::Duration;

/// Everything a failed guarded call can tell its caller (feeds a
/// `DegradeEvent`).
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// The terminal error.
    pub error: SageError,
    /// Attempts actually made (0 when the breaker fast-failed).
    pub attempts: u32,
    /// Virtual backoff/timeout time charged.
    pub delay: Duration,
}

/// A guarded component boundary: shares one fault plan, retry policy,
/// clock, and per-component breaker.
pub struct Guard<'a> {
    /// The fault plan consulted per attempt.
    pub plan: &'a FaultPlan,
    /// Retry/backoff policy.
    pub policy: &'a RetryPolicy,
    /// The shared virtual clock.
    pub clock: &'a VirtualClock,
    /// This component's breaker.
    pub breaker: &'a CircuitBreaker,
}

impl Guard<'_> {
    /// Run `op` at the `component` boundary under the fault plan.
    ///
    /// * `key` identifies the call content (determinism handle).
    /// * `corrupt` mutates the result the way an injected corrupt response
    ///   would (truncation, NaN poisoning, ...).
    /// * `valid` is the caller's response validation; corrupt responses —
    ///   injected or organic — must fail it to be caught.
    ///
    /// Injected [`FaultKind::Panic`] faults panic out of this function by
    /// design: panic isolation is the *batch* layer's job (`catch_unwind`
    /// around each question), and the panic must travel through the whole
    /// stack to prove that layer works.
    #[expect(
        clippy::unreachable,
        reason = "max_attempts >= 1 and the last attempt returns on every arm"
    )]
    pub fn run<T>(
        &self,
        component: Component,
        key: &str,
        mut op: impl FnMut() -> T,
        corrupt: impl Fn(&mut T),
        valid: impl Fn(&T) -> bool,
    ) -> Result<T, Failure> {
        let mut delay = Duration::ZERO;
        let max_attempts = self.policy.max_attempts.max(1);
        for attempt in 0..max_attempts {
            if self.breaker.is_open(self.clock) {
                return Err(Failure {
                    error: SageError::CircuitOpen { component },
                    attempts: attempt,
                    delay,
                });
            }
            let fault = self.plan.inject(component, key, attempt);
            let outcome: Result<T, SageError> = match fault {
                #[expect(
                    clippy::panic,
                    reason = "the fault injector's deliberate panic: it is what the catch_unwind boundaries are drilled against"
                )]
                Some(FaultKind::Panic) => {
                    panic!("injected panic at {component} for call {key:?}")
                }
                Some(FaultKind::Transient) => {
                    Err(SageError::ComponentFailed { component, attempts: attempt + 1 })
                }
                Some(FaultKind::Timeout) => {
                    self.clock.advance(self.policy.timeout);
                    delay += self.policy.timeout;
                    Err(SageError::ComponentFailed { component, attempts: attempt + 1 })
                }
                Some(FaultKind::Corrupt) => {
                    let mut value = op();
                    corrupt(&mut value);
                    if valid(&value) {
                        // Corruption the validator cannot see is
                        // indistinguishable from success; let it through
                        // (this mirrors reality — undetectable corruption
                        // is a validation gap, not a retry trigger).
                        Ok(value)
                    } else {
                        Err(SageError::Corrupted { component })
                    }
                }
                None => {
                    let value = op();
                    if valid(&value) {
                        Ok(value)
                    } else {
                        Err(SageError::Corrupted { component })
                    }
                }
            };
            match outcome {
                Ok(value) => {
                    self.breaker.record_success();
                    return Ok(value);
                }
                Err(error) => {
                    self.breaker.record_failure(self.clock.now());
                    if attempt + 1 < max_attempts {
                        let mut rng = self.plan.call_rng(component, key, attempt | 0x8000_0000);
                        let backoff = self.policy.backoff(attempt, &mut rng);
                        self.clock.advance(backoff);
                        delay += backoff;
                    } else {
                        return Err(Failure {
                            error: match error {
                                SageError::Corrupted { .. } => error,
                                _ => SageError::ComponentFailed {
                                    component,
                                    attempts: max_attempts,
                                },
                            },
                            attempts: max_attempts,
                            delay,
                        });
                    }
                }
            }
        }
        unreachable!("loop always returns");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::fault::Rates;

    fn harness(plan: FaultPlan) -> (FaultPlan, RetryPolicy, VirtualClock, CircuitBreaker) {
        (plan, RetryPolicy::default(), VirtualClock::new(), CircuitBreaker::new(BreakerConfig::default()))
    }

    fn no_corrupt(_: &mut u32) {}
    fn always_valid(_: &u32) -> bool {
        true
    }

    #[test]
    fn clean_call_passes_through_once() {
        let (plan, policy, clock, breaker) = harness(FaultPlan::none());
        let guard = Guard { plan: &plan, policy: &policy, clock: &clock, breaker: &breaker };
        let mut calls = 0;
        let out = guard.run(
            Component::Embedder,
            "k",
            || {
                calls += 1;
                7u32
            },
            no_corrupt,
            always_valid,
        );
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls, 1);
        assert_eq!(clock.now(), Duration::ZERO, "no backoff charged");
    }

    #[test]
    fn permanent_fault_exhausts_retries_with_virtual_backoff() {
        let (plan, policy, clock, breaker) =
            harness(FaultPlan::failing(Component::Reader, FaultKind::Transient));
        let guard = Guard { plan: &plan, policy: &policy, clock: &clock, breaker: &breaker };
        let out = guard.run(Component::Reader, "k", || 1u32, no_corrupt, always_valid);
        let failure = out.unwrap_err();
        assert_eq!(
            failure.error,
            SageError::ComponentFailed { component: Component::Reader, attempts: 3 }
        );
        assert_eq!(failure.attempts, 3);
        assert!(failure.delay > Duration::ZERO, "backoff was charged");
        assert_eq!(clock.now(), failure.delay, "clock advanced by exactly the backoff");
    }

    #[test]
    fn transient_fault_clears_on_retry() {
        // Find a key where attempt 0 faults but attempt 1 does not.
        let plan = FaultPlan::seeded(3)
            .with(Component::Reader, Rates { transient: 0.5, ..Rates::default() });
        let key = (0..200)
            .map(|i| format!("q{i}"))
            .find(|k| {
                plan.inject(Component::Reader, k, 0).is_some()
                    && plan.inject(Component::Reader, k, 1).is_none()
            })
            .expect("some key recovers on retry");
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let breaker = CircuitBreaker::new(BreakerConfig::default());
        let guard = Guard { plan: &plan, policy: &policy, clock: &clock, breaker: &breaker };
        let mut calls = 0;
        let out = guard.run(
            Component::Reader,
            &key,
            || {
                calls += 1;
                9u32
            },
            no_corrupt,
            always_valid,
        );
        assert_eq!(out.unwrap(), 9);
        assert_eq!(calls, 1, "faulted attempts never reach the op");
        assert!(clock.now() > Duration::ZERO, "one backoff charged");
    }

    #[test]
    fn corrupt_fault_is_caught_by_validation() {
        let (plan, policy, clock, breaker) =
            harness(FaultPlan::failing(Component::Embedder, FaultKind::Corrupt));
        let guard = Guard { plan: &plan, policy: &policy, clock: &clock, breaker: &breaker };
        let out = guard.run(
            Component::Embedder,
            "k",
            || 5u32,
            |v| *v = u32::MAX,
            |v| *v != u32::MAX,
        );
        assert_eq!(
            out.unwrap_err().error,
            SageError::Corrupted { component: Component::Embedder }
        );
    }

    #[test]
    fn undetectable_corruption_passes_validation() {
        let (plan, policy, clock, breaker) =
            harness(FaultPlan::failing(Component::Embedder, FaultKind::Corrupt));
        let guard = Guard { plan: &plan, policy: &policy, clock: &clock, breaker: &breaker };
        let out =
            guard.run(Component::Embedder, "k", || 5u32, |_| {}, always_valid);
        assert_eq!(out.unwrap(), 5, "no-op corruption is invisible");
    }

    #[test]
    #[should_panic(expected = "injected panic at reader")]
    fn panic_fault_propagates() {
        let (plan, policy, clock, breaker) =
            harness(FaultPlan::failing(Component::Reader, FaultKind::Panic));
        let guard = Guard { plan: &plan, policy: &policy, clock: &clock, breaker: &breaker };
        let _ = guard.run(Component::Reader, "k", || 1u32, no_corrupt, always_valid);
    }

    #[test]
    fn open_breaker_fast_fails_without_calling() {
        let (plan, policy, clock, breaker) = harness(FaultPlan::none());
        for _ in 0..BreakerConfig::default().failure_threshold {
            breaker.record_failure(clock.now());
        }
        let guard = Guard { plan: &plan, policy: &policy, clock: &clock, breaker: &breaker };
        let mut calls = 0;
        let out = guard.run(
            Component::IndexSearch,
            "k",
            || {
                calls += 1;
                1u32
            },
            no_corrupt,
            always_valid,
        );
        assert_eq!(
            out.unwrap_err().error,
            SageError::CircuitOpen { component: Component::IndexSearch }
        );
        assert_eq!(calls, 0, "primary skipped while open");
    }

    #[test]
    fn breaker_recovers_through_half_open() {
        let (plan, policy, clock, breaker) = harness(FaultPlan::none());
        for _ in 0..5 {
            breaker.record_failure(clock.now());
        }
        assert!(breaker.is_open(&clock));
        clock.advance(BreakerConfig::default().cooldown + Duration::from_secs(1));
        let guard = Guard { plan: &plan, policy: &policy, clock: &clock, breaker: &breaker };
        let out = guard.run(Component::IndexSearch, "k", || 2u32, no_corrupt, always_valid);
        assert_eq!(out.unwrap(), 2, "half-open probe succeeds and closes");
        assert!(!breaker.is_open(&clock));
    }

    #[test]
    fn timeout_fault_charges_the_deadline() {
        let plan = FaultPlan::failing(Component::Reranker, FaultKind::Timeout);
        let policy = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
        let clock = VirtualClock::new();
        let breaker = CircuitBreaker::new(BreakerConfig::default());
        let guard = Guard { plan: &plan, policy: &policy, clock: &clock, breaker: &breaker };
        let out = guard.run(Component::Reranker, "k", || 1u32, no_corrupt, always_valid);
        assert!(out.is_err());
        assert_eq!(clock.now(), policy.timeout, "deadline charged on the virtual clock");
    }
}
