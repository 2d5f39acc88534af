//! The failure cap: one consecutive-failure count per [`Component`] for
//! one query's guards. No clock, cooldown or half-open state.

use crate::fault::Component;
use std::cell::Cell;

/// Consecutive failures after which a component fails fast.
pub(crate) const FAILURE_CAP: u32 = 5;

/// One consecutive-failure count per [`Component`].
#[derive(Default)]
pub(crate) struct FailureCap(pub(crate) [Cell<u32>; Component::ALL.len()]);

impl FailureCap {
    /// Whether `component` has reached the cap.
    pub(crate) fn is_open(&self, component: Component) -> bool {
        self.0[component.idx()].get() >= FAILURE_CAP
    }

    /// Count a failure of `component`, or reset its count on success.
    pub(crate) fn record(&self, component: Component, ok: bool) {
        let count = &self.0[component.idx()];
        count.set(if ok { 0 } else { count.get() + 1 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let cap = FailureCap::default();
        (1..FAILURE_CAP).for_each(|_| cap.record(Component::Reader, false));
        assert!(!cap.is_open(Component::Reader), "below the cap stays closed");
        cap.record(Component::Reader, false);
        assert!(cap.is_open(Component::Reader), "the cap trips");
        assert!(!cap.is_open(Component::Embedder), "only that component");
    }

    #[test]
    fn success_resets_the_streak() {
        let cap = FailureCap::default();
        (1..FAILURE_CAP).for_each(|_| cap.record(Component::Reader, false));
        cap.record(Component::Reader, true);
        assert_eq!(cap.0[Component::Reader.idx()].get(), 0, "a success resets the count");
        (1..FAILURE_CAP).for_each(|_| cap.record(Component::Reader, false));
        assert!(!cap.is_open(Component::Reader), "streak was reset by the success");
    }
}
