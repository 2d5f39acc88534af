//! `sage-obs`: the second observability layer, built on `sage-telemetry`.
//!
//! Where `sage-telemetry` collects (histograms, counters, traces, the
//! cost ledger), this crate *interprets*: it keeps the evidence for the
//! queries that matter (the flight recorder), judges the stream against
//! declared objectives (SLO burn-rate accounting), and assembles both into
//! the `sage report` bundle. Everything here is deterministic by
//! construction — retention and windows are pure functions of
//! virtual-clock observations, so soak replays and CI reruns are
//! byte-comparable.
//!
//! - [`recorder`]: bounded ring of recent query
//!   observations with tail-based retention — a fold over the soak's
//!   observation stream (`SoakReport::obs`), like the SLO evaluator.
//! - [`slo`]: declarative SLO specs, multi-window burn-rate alerts.
//! - [`bundle`]: `sage report` diagnostics-bundle assembly and the
//!   cross-layer reconciliation checks.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

pub mod bundle;
pub mod recorder;
pub mod slo;

pub use bundle::{Bundle, Reconciliation};
pub use recorder::{FlightRecorder, Outcome, QueryObs, RecorderConfig, RecorderStats};
pub use slo::{evaluate_slo, Objective, SloAlert, SloReport, SloSpec};
