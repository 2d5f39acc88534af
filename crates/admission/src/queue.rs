//! Bounded admission queue with priority classes and deterministic
//! RED-style load shedding.
//!
//! The queue tracks *occupancy*, not payloads: callers ask for admission,
//! hold a slot while their query is in flight (or waiting), and release it
//! when done. Decisions are a pure function of
//! `(seed, admission sequence number, occupancy, priority class)` — no
//! wall clock, no thread identity — so a fixed arrival sequence replays
//! the same admit/shed log bit-for-bit.

use sage_resilience::DetRng;

/// Priority class of a query, in descending order of protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// User-facing requests: shed only when the queue is hard-full.
    Interactive,
    /// Bulk API traffic (batched answering): sheds earlier.
    Batch,
    /// Best-effort maintenance traffic: first to go under pressure.
    Background,
}

impl Priority {
    /// Number of priority classes (stable counter layout).
    pub const COUNT: usize = 3;

    /// All classes, most protected first.
    pub const ALL: [Priority; Priority::COUNT] =
        [Priority::Interactive, Priority::Batch, Priority::Background];

    /// Stable index into per-class arrays.
    pub fn idx(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::Background => 2,
        }
    }

    /// Display label (also the Prometheus `class` label value).
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Background => "background",
        }
    }

    /// Parse a class label (as accepted on CLI flags).
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            "background" => Some(Priority::Background),
            _ => None,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a query was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Occupancy reached capacity: hard shed, all classes.
    QueueFull,
    /// The class's early-drop ramp fired below capacity (RED-style).
    EarlyDrop,
}

impl ShedReason {
    /// Display label for logs.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::EarlyDrop => "early-drop",
        }
    }
}

/// Outcome of one admission request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The query holds a queue slot; call [`AdmissionQueue::release`] when
    /// it finishes (or starts service, if the queue models waiting only).
    Admitted,
    /// The query was refused and must not run.
    Shed(ShedReason),
}

/// Configuration of an [`AdmissionQueue`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum concurrent slots; occupancy at capacity sheds everything.
    pub capacity: usize,
    /// Seed of the deterministic early-drop coin.
    pub seed: u64,
    /// Per-class occupancy fraction where the early-drop ramp starts
    /// (indexed by [`Priority::idx`]). `>= 1.0` disables early drop for
    /// that class, leaving only the hard-full shed.
    pub ramp_start: [f64; Priority::COUNT],
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        // Interactive traffic is never early-dropped; batch and background
        // start shedding probabilistically at 85% / 70% occupancy.
        Self { capacity: 64, seed: 0, ramp_start: [1.0, 0.85, 0.70] }
    }
}

/// Bounded admission queue; see the module docs for the determinism
/// contract. Not internally synchronised — callers that admit from
/// multiple threads must serialise access (decision order is part of the
/// deterministic input).
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    config: AdmissionConfig,
    depth: usize,
    seq: u64,
    admitted: u64,
    shed: [u64; Priority::COUNT],
}

impl AdmissionQueue {
    /// An empty queue.
    pub fn new(config: AdmissionConfig) -> Self {
        Self { config, depth: 0, seq: 0, admitted: 0, shed: [0; Priority::COUNT] }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Current occupancy (admitted and not yet released).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Occupancy as a fraction of capacity.
    pub fn occupancy(&self) -> f64 {
        if self.config.capacity == 0 {
            1.0
        } else {
            self.depth as f64 / self.config.capacity as f64
        }
    }

    /// Request admission for one query of class `class`. On `Admitted` the
    /// query holds a slot until [`release`](AdmissionQueue::release).
    pub fn admit(&mut self, class: Priority) -> Decision {
        self.seq += 1;
        if self.depth >= self.config.capacity {
            self.shed[class.idx()] += 1;
            return Decision::Shed(ShedReason::QueueFull);
        }
        let start = self.config.ramp_start[class.idx()];
        if start < 1.0 {
            let occ = self.occupancy();
            if occ >= start {
                // Linear drop ramp from 0 at `start` to 1 at full, decided
                // by a per-admission deterministic coin.
                let p = ((occ - start) / (1.0 - start)).clamp(0.0, 1.0);
                let mut rng = DetRng::seed_from_u64(
                    self.config
                        .seed
                        .wrapping_add(self.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        ^ (class.idx() as u64) << 56,
                );
                if rng.next_f64() < p {
                    self.shed[class.idx()] += 1;
                    return Decision::Shed(ShedReason::EarlyDrop);
                }
            }
        }
        self.depth += 1;
        self.admitted += 1;
        Decision::Admitted
    }

    /// Release one slot held by an admitted query.
    pub fn release(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Total queries admitted so far.
    pub fn admitted_total(&self) -> u64 {
        self.admitted
    }

    /// Total queries shed across classes.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut AdmissionQueue) {
        while q.depth() > 0 {
            q.release();
        }
    }

    #[test]
    fn admits_until_capacity_then_sheds_hard() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            capacity: 4,
            seed: 1,
            ramp_start: [1.0, 1.0, 1.0],
        });
        for _ in 0..4 {
            assert_eq!(q.admit(Priority::Interactive), Decision::Admitted);
        }
        assert_eq!(q.admit(Priority::Interactive), Decision::Shed(ShedReason::QueueFull));
        assert_eq!(q.depth(), 4);
        q.release();
        assert_eq!(q.admit(Priority::Interactive), Decision::Admitted);
        assert_eq!(q.admitted_total(), 5);
        assert_eq!(q.shed_total(), 1);
    }

    #[test]
    fn decisions_replay_bit_for_bit() {
        let cfg = AdmissionConfig { capacity: 8, seed: 42, ramp_start: [1.0, 0.5, 0.25] };
        let classes = [Priority::Background, Priority::Batch, Priority::Interactive];
        let run = |cfg: AdmissionConfig| {
            let mut q = AdmissionQueue::new(cfg);
            let mut log = Vec::new();
            for i in 0..200u32 {
                let class = classes[(i % 3) as usize];
                log.push(q.admit(class));
                if i % 5 == 0 {
                    q.release();
                }
            }
            log
        };
        assert_eq!(run(cfg), run(cfg), "same seed, same decision log");
        let other = run(AdmissionConfig { seed: 43, ..cfg });
        assert_ne!(run(cfg), other, "different seed, different early drops");
    }

    #[test]
    fn lower_priority_sheds_earlier() {
        let cfg = AdmissionConfig { capacity: 16, seed: 7, ramp_start: [1.0, 0.5, 0.25] };
        let mut shed_by_class = [0u64; Priority::COUNT];
        for class in Priority::ALL {
            let mut q = AdmissionQueue::new(cfg);
            // Hold the queue at 75% occupancy and offer 500 arrivals.
            for _ in 0..12 {
                assert_eq!(q.admit(Priority::Interactive), Decision::Admitted);
            }
            let held = q.depth();
            for _ in 0..500 {
                if q.admit(class) == Decision::Admitted {
                    q.release();
                }
            }
            drain(&mut q);
            assert_eq!(held, 12);
            shed_by_class[class.idx()] = q.shed_total();
        }
        assert_eq!(shed_by_class[0], 0, "interactive never early-drops");
        assert!(
            shed_by_class[2] > shed_by_class[1],
            "background {} should shed more than batch {}",
            shed_by_class[2],
            shed_by_class[1]
        );
        assert!(shed_by_class[1] > 0);
    }

    #[test]
    fn empty_queue_admits_everything() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        for class in Priority::ALL {
            for _ in 0..100 {
                assert_eq!(q.admit(class), Decision::Admitted);
                q.release();
            }
        }
        assert_eq!(q.shed_total(), 0);
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            capacity: 0,
            ..AdmissionConfig::default()
        });
        assert_eq!(q.admit(Priority::Interactive), Decision::Shed(ShedReason::QueueFull));
        q.release(); // must not underflow
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn priority_labels_parse_back() {
        for c in Priority::ALL {
            assert_eq!(Priority::parse(c.label()), Some(c));
        }
        assert_eq!(Priority::parse("bogus"), None);
    }
}
