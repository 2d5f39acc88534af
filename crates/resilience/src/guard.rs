//! The boundary wrapper: failure cap → fault roll → call → validate →
//! retry with backoff → structured failure.

use crate::breaker::FailureCap;
use crate::error::SageError;
use crate::fault::{Component, FaultKind, FaultPlan};
use crate::retry::{backoff, MAX_ATTEMPTS, TIMEOUT};
use std::time::Duration;

/// Everything a failed guarded call can tell its caller (feeds a
/// `DegradeEvent`).
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// The terminal error.
    pub error: SageError,
    /// Attempts actually made (fewer than three when the cap fast-failed).
    pub attempts: u32,
    /// Virtual backoff/timeout time charged.
    pub delay: Duration,
}

/// One query's guards: the fault plan and one consecutive-failure count
/// per [`Component`].
///
/// Scoped per query, not shared across a batch: a shared count would make
/// one question's degradation trace depend on which other questions ran
/// first on the same worker pool. Per-query scoping keeps every result a
/// pure function of `(system, fault plan, question)`.
pub struct Guards<'a> {
    plan: &'a FaultPlan,
    failures: FailureCap,
}

impl<'a> Guards<'a> {
    /// Fresh guards under `plan`, every failure count at zero.
    pub fn new(plan: &'a FaultPlan) -> Self {
        Self { plan, failures: Default::default() }
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
    pub fn run<T>(
        &self,
        component: Component,
        key: &str,
        mut op: impl FnMut() -> T,
        corrupt: impl Fn(&mut T),
        valid: impl Fn(&T) -> bool,
    ) -> Result<T, Failure> {
        let mut delay = Duration::ZERO;
        // The last attempt's error is the call's: `ComponentFailed` with
        // all three attempts, or `Corrupted`.
        let mut error = SageError::ComponentFailed { component, attempts: MAX_ATTEMPTS };
        for attempt in 0..MAX_ATTEMPTS {
            if self.failures.is_open(component) {
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
                    delay += TIMEOUT;
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
                    self.failures.record(component, true);
                    return Ok(value);
                }
                Err(e) => {
                    self.failures.record(component, false);
                    if attempt + 1 < MAX_ATTEMPTS {
                        let mut rng = self.plan.call_rng(component, key, attempt | 0x8000_0000);
                        delay += backoff(attempt, &mut rng);
                    }
                    error = e;
                }
            }
        }
        Err(Failure { error, attempts: MAX_ATTEMPTS, delay })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::FAILURE_CAP;
    use crate::fault::Rates;

    fn no_corrupt(_: &mut u32) {}
    fn always_valid(_: &u32) -> bool {
        true
    }

    /// Bring `component` to the failure cap.
    fn trip(g: &Guards<'_>, component: Component) {
        g.failures.0[component.idx()].set(FAILURE_CAP);
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
        assert_eq!(g.failures.0[Component::Embedder.idx()].get(), 0, "nothing counted");
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
        // Two backoffs, 50 ms then 100 ms, each jittered by at most 20 %.
        assert!(failure.delay >= Duration::from_millis(120), "{:?}", failure.delay);
        assert!(failure.delay <= Duration::from_millis(180), "{:?}", failure.delay);
        // The jitter is a pure function of the call: a replay charges the
        // same delay to the nanosecond.
        let again = Guards::new(&plan).run(Component::Reader, "k", || 1u32, no_corrupt, always_valid);
        assert_eq!(again.unwrap_err().delay, failure.delay);
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
        assert_eq!(g.failures.0[Component::Reader.idx()].get(), 0, "the success reset the count");
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
        // Five consecutive failures reach the cap.
        let plan = FaultPlan::failing(Component::Reader, FaultKind::Transient);
        let g = Guards::new(&plan);
        let failed = g.run(Component::Reader, "k", || 1u32, no_corrupt, always_valid);
        assert_eq!(failed.unwrap_err().attempts, 3);
        let capped = g.run(Component::Reader, "k", || 1u32, no_corrupt, always_valid);
        let capped = capped.unwrap_err();
        assert_eq!(capped.error, SageError::CircuitOpen { component: Component::Reader });
        assert_eq!(capped.attempts, 2, "the fifth failure caps the second call");

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
        let failure = out.unwrap_err();
        assert_eq!(failure.error, SageError::CircuitOpen { component: Component::IndexSearch });
        assert_eq!((failure.attempts, failure.delay), (0, Duration::ZERO));
        assert_eq!(calls, 0, "primary skipped at the cap");
        // Only that component is capped.
        assert_eq!(g.run(Component::Reranker, "k", || 3u32, no_corrupt, always_valid), Ok(3));
    }

    #[test]
    fn timeout_fault_charges_the_deadline() {
        let plan = FaultPlan::failing(Component::Reranker, FaultKind::Timeout);
        let g = Guards::new(&plan);
        let out = g.run(Component::Reranker, "k", || 1u32, no_corrupt, always_valid);
        let delay = out.unwrap_err().delay;
        assert!(delay >= TIMEOUT * 3 + Duration::from_millis(120), "{delay:?}");
        assert!(delay <= TIMEOUT * 3 + Duration::from_millis(180), "{delay:?}");
    }

    #[test]
    fn guards_are_independent_per_query() {
        let plan = FaultPlan::none();
        let a = Guards::new(&plan);
        let b = Guards::new(&plan);
        // Capping one query's embedder leaves the other's untouched.
        trip(&a, Component::Embedder);
        assert!(a.run(Component::Embedder, "k", || 1u32, no_corrupt, always_valid).is_err());
        assert_eq!(b.run(Component::Embedder, "k", || 1u32, no_corrupt, always_valid), Ok(1));
    }
}
