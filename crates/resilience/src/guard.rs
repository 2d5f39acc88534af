//! The boundary wrapper: fault roll → breaker check → call → validate →
//! retry with backoff → structured failure.

use crate::breaker::{BreakerConfig, CircuitBreaker};
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

/// One query's guards: the fault plan, the retry policy, a fresh virtual
/// clock and one circuit breaker per [`Component`].
///
/// Scoped per query, not shared across a batch: a shared breaker would make
/// one question's degradation trace depend on which other questions ran
/// first on the same worker pool. Per-query scoping keeps every result a
/// pure function of `(system, fault plan, question)`.
pub struct Guards<'a> {
    plan: &'a FaultPlan,
    retry: RetryPolicy,
    clock: VirtualClock,
    breakers: [CircuitBreaker; 4],
}

impl<'a> Guards<'a> {
    /// Fresh guards under `plan`, with the default retry and breaker tuning.
    pub fn new(plan: &'a FaultPlan) -> Self {
        Self {
            plan,
            retry: RetryPolicy::default(),
            clock: VirtualClock::new(),
            breakers: std::array::from_fn(|_| CircuitBreaker::new(BreakerConfig::default())),
        }
    }

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
        let breaker = &self.breakers[component.idx()];
        let mut delay = Duration::ZERO;
        let max_attempts = self.retry.max_attempts.max(1);
        for attempt in 0..max_attempts {
            if breaker.is_open(&self.clock) {
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
                    self.clock.advance(self.retry.timeout);
                    delay += self.retry.timeout;
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
                    breaker.record_success();
                    return Ok(value);
                }
                Err(error) => {
                    breaker.record_failure(self.clock.now());
                    if attempt + 1 < max_attempts {
                        let mut rng = self.plan.call_rng(component, key, attempt | 0x8000_0000);
                        let backoff = self.retry.backoff(attempt, &mut rng);
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
    use crate::fault::Rates;

    fn no_corrupt(_: &mut u32) {}
    fn always_valid(_: &u32) -> bool {
        true
    }

    /// Trip `component`'s breaker open at the current virtual time.
    fn trip(g: &Guards<'_>, component: Component) {
        for _ in 0..BreakerConfig::default().failure_threshold {
            g.breakers[component.idx()].record_failure(g.clock.now());
        }
    }

    #[test]
    fn clean_call_passes_through_once() {
        let plan = FaultPlan::none();
        let g = Guards::new(&plan);
        let mut calls = 0;
        let out = g.run(
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
        assert_eq!(g.clock.now(), Duration::ZERO, "no backoff charged");
    }

    #[test]
    fn permanent_fault_exhausts_retries_with_virtual_backoff() {
        let plan = FaultPlan::failing(Component::Reader, FaultKind::Transient);
        let g = Guards::new(&plan);
        let out = g.run(Component::Reader, "k", || 1u32, no_corrupt, always_valid);
        let failure = out.unwrap_err();
        assert_eq!(
            failure.error,
            SageError::ComponentFailed { component: Component::Reader, attempts: 3 }
        );
        assert_eq!(failure.attempts, 3);
        assert!(failure.delay > Duration::ZERO, "backoff was charged");
        assert_eq!(g.clock.now(), failure.delay, "clock advanced by exactly the backoff");
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
        let g = Guards::new(&plan);
        let mut calls = 0;
        let out = g.run(
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
        assert!(g.clock.now() > Duration::ZERO, "one backoff charged");
    }

    #[test]
    fn corrupt_fault_is_caught_by_validation() {
        let plan = FaultPlan::failing(Component::Embedder, FaultKind::Corrupt);
        let g = Guards::new(&plan);
        let out = g.run(Component::Embedder, "k", || 5u32, |v| *v = u32::MAX, |v| *v != u32::MAX);
        assert_eq!(
            out.unwrap_err().error,
            SageError::Corrupted { component: Component::Embedder }
        );
    }

    #[test]
    fn undetectable_corruption_passes_validation() {
        let plan = FaultPlan::failing(Component::Embedder, FaultKind::Corrupt);
        let g = Guards::new(&plan);
        let out = g.run(Component::Embedder, "k", || 5u32, |_| {}, always_valid);
        assert_eq!(out.unwrap(), 5, "no-op corruption is invisible");
    }

    #[test]
    #[should_panic(expected = "injected panic at reader")]
    fn panic_fault_propagates() {
        let plan = FaultPlan::failing(Component::Reader, FaultKind::Panic);
        let _ = Guards::new(&plan).run(Component::Reader, "k", || 1u32, no_corrupt, always_valid);
    }

    #[test]
    fn open_breaker_fast_fails_without_calling() {
        let plan = FaultPlan::none();
        let g = Guards::new(&plan);
        trip(&g, Component::IndexSearch);
        let mut calls = 0;
        let out = g.run(
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
        // Only that component's breaker is open.
        assert_eq!(g.run(Component::Reranker, "k", || 3u32, no_corrupt, always_valid), Ok(3));
    }

    #[test]
    fn breaker_recovers_through_half_open() {
        let plan = FaultPlan::none();
        let g = Guards::new(&plan);
        trip(&g, Component::IndexSearch);
        let breaker = &g.breakers[Component::IndexSearch.idx()];
        assert!(breaker.is_open(&g.clock));
        g.clock.advance(BreakerConfig::default().cooldown + Duration::from_secs(1));
        let out = g.run(Component::IndexSearch, "k", || 2u32, no_corrupt, always_valid);
        assert_eq!(out.unwrap(), 2, "half-open probe succeeds and closes");
        assert!(!breaker.is_open(&g.clock));
    }

    #[test]
    fn timeout_fault_charges_the_deadline() {
        let plan = FaultPlan::failing(Component::Reranker, FaultKind::Timeout);
        let retry = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
        let g = Guards { retry, ..Guards::new(&plan) };
        let out = g.run(Component::Reranker, "k", || 1u32, no_corrupt, always_valid);
        assert!(out.is_err());
        assert_eq!(g.clock.now(), g.retry.timeout, "deadline charged on the virtual clock");
    }

    #[test]
    fn guards_are_independent_per_query() {
        let plan = FaultPlan::none();
        let a = Guards::new(&plan);
        let b = Guards::new(&plan);
        // Tripping one query's breaker leaves the other's closed.
        trip(&a, Component::Embedder);
        let embedder = Component::Embedder.idx();
        assert!(a.breakers[embedder].is_open(&a.clock));
        assert!(!b.breakers[embedder].is_open(&b.clock));
    }
}
