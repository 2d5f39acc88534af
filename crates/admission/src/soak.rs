//! Seeded open-loop arrival process for the soak harness.
//!
//! The plan is generated up front as plain data: exponential
//! inter-arrival gaps at a target rate, each arrival tagged with a
//! priority class drawn from configurable weights. The event-driven
//! replay (which needs a built `RagSystem`) lives in `sage-core`; this
//! module owns the part that is pure arithmetic so it can be tested — and
//! reused — without a corpus.

use crate::queue::Priority;
use crate::QueryBudget;
use sage_resilience::DetRng;
use std::time::Duration;

/// Configuration of one soak run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakConfig {
    /// Seed for arrivals, classes, and the admission queue's drop coin.
    pub seed: u64,
    /// Virtual length of the arrival window.
    pub duration: Duration,
    /// Mean arrival rate (queries per virtual second).
    pub qps: f64,
    /// Admission queue capacity (waiting room).
    pub capacity: usize,
    /// Virtual servers draining the queue — per shard pool when `shards`
    /// is above 1.
    pub concurrency: usize,
    /// Shard fault domains: each shard gets its own pool of `concurrency`
    /// virtual servers, and jobs route to a pool by a stable hash of their
    /// sequence number — so a slow shard queues its own jobs instead of
    /// borrowing capacity from healthy shards. `1` (the default) is the
    /// single-pool model and replays historical logs byte-for-byte.
    pub shards: u32,
    /// Per-class early-drop ramp starts (see `AdmissionConfig`).
    pub ramp_start: [f64; Priority::COUNT],
    /// Relative class weights `[interactive, batch, background]`.
    pub class_weights: [f64; Priority::COUNT],
    /// Per-query budget; `None` serves every query at full fidelity.
    pub budget: Option<QueryBudget>,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            duration: Duration::from_secs(60),
            qps: 4.0,
            capacity: 8,
            concurrency: 2,
            shards: 1,
            ramp_start: [1.0, 0.85, 0.70],
            class_weights: [0.5, 0.3, 0.2],
            budget: Some(QueryBudget::new(Duration::from_secs(8), 4_000)),
        }
    }
}

/// One planned arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual offset from the start of the run.
    pub at: Duration,
    /// Priority class of the query.
    pub class: Priority,
}

/// Generate the deterministic arrival plan for `cfg`: exponential
/// inter-arrival gaps at `cfg.qps`, classes drawn from
/// `cfg.class_weights`, until `cfg.duration` is exhausted. The plan is a
/// pure function of the config.
pub fn arrival_plan(cfg: &SoakConfig) -> Vec<Arrival> {
    let mut rng = DetRng::seed_from_u64(cfg.seed ^ 0x5041_4745_u64);
    let mut plan = Vec::new();
    if cfg.qps <= 0.0 || !cfg.qps.is_finite() {
        return plan;
    }
    let total: f64 = cfg.class_weights.iter().copied().filter(|w| *w > 0.0).sum();
    let mut t = Duration::ZERO;
    loop {
        // Exponential gap via inverse transform; clamp the uniform draw
        // away from 1.0 so ln() stays finite.
        let u = rng.next_f64().min(0.999_999_999);
        let gap = -(1.0 - u).ln() / cfg.qps;
        t += Duration::from_secs_f64(gap);
        if t >= cfg.duration {
            return plan;
        }
        let class = if total > 0.0 {
            let mut roll = rng.next_f64() * total;
            let mut picked = Priority::Interactive;
            for c in Priority::ALL {
                let w = cfg.class_weights[c.idx()].max(0.0);
                picked = c;
                if roll < w {
                    break;
                }
                roll -= w;
            }
            picked
        } else {
            Priority::Interactive
        };
        plan.push(Arrival { at: t, class });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_seed_sensitive() {
        let cfg = SoakConfig::default();
        assert_eq!(arrival_plan(&cfg), arrival_plan(&cfg));
        let other = SoakConfig { seed: 43, ..cfg };
        assert_ne!(arrival_plan(&cfg), arrival_plan(&other));
    }

    #[test]
    fn plan_is_ordered_and_bounded() {
        let cfg = SoakConfig { duration: Duration::from_secs(30), qps: 10.0, ..Default::default() };
        let plan = arrival_plan(&cfg);
        assert!(plan.windows(2).all(|w| w[0].at <= w[1].at), "arrivals must be time-ordered");
        assert!(plan.iter().all(|a| a.at < cfg.duration));
        // 30s at 10 qps: expect ~300 arrivals; allow a wide band.
        assert!(plan.len() > 150 && plan.len() < 600, "got {}", plan.len());
    }

    #[test]
    fn class_weights_are_respected() {
        let cfg = SoakConfig {
            duration: Duration::from_secs(200),
            qps: 10.0,
            class_weights: [0.0, 1.0, 0.0],
            ..Default::default()
        };
        let plan = arrival_plan(&cfg);
        assert!(!plan.is_empty());
        assert!(plan.iter().all(|a| a.class == Priority::Batch));
    }

    #[test]
    fn degenerate_rates_yield_empty_plans() {
        for qps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = SoakConfig { qps, ..Default::default() };
            assert!(arrival_plan(&cfg).is_empty(), "qps={qps}");
        }
    }
}
