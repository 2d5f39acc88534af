//! # sage-admission
//!
//! Overload robustness for the SAGE serving path: admission control,
//! per-query deadline/token budgets, and the brownout ladder.
//!
//! The ROADMAP's north star is serving heavy traffic; PR 1's resilience
//! layer covers *component failure*, but an overloaded system that accepts
//! unbounded work still falls over instead of degrading. This crate makes
//! overload a first-class, deterministic, testable input:
//!
//! * [`AdmissionQueue`] — a bounded queue with [`Priority`] classes and
//!   deterministic RED-style load shedding. A shed decision is a pure
//!   function of `(seed, admission sequence number, occupancy, class)`, so
//!   the same arrival sequence reproduces the same decisions bit-for-bit.
//! * [`QueryBudget`] — per-query deadline and token budgets. Time is
//!   *virtual*: [`QueryBudget::plan`] compares the budget against fixed
//!   model costs once, at admission, so budget decisions never read the
//!   wall clock and replay identically.
//! * [`BrownoutLevel`] — the brownout ladder a query runs at when its
//!   budget is short: drop feedback rounds → skip rerank and take a flat
//!   top-k. The plan is monotone: a smaller budget never yields a
//!   less-degraded level.
//! * [`SoakConfig`] + [`arrival_plan`] — a seeded open-loop arrival
//!   process (exponential inter-arrivals, weighted priority classes) for
//!   the deterministic soak harness in `sage-core`.
//!
//! Like `sage-resilience` and `sage-telemetry`, this crate has no external
//! dependencies; it reuses the resilience crate's deterministic RNG.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod budget;
pub mod queue;
pub mod soak;

pub use budget::{BrownoutLevel, QueryBudget};
pub use queue::{AdmissionConfig, AdmissionQueue, Decision, Priority, ShedReason};
pub use soak::{arrival_plan, Arrival, SoakConfig};
