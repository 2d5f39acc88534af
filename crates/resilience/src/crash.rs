//! Deterministic crash-point injection for durable-write barriers.
//!
//! A [`CrashPlan`] decides, per write barrier, whether the process "crashes"
//! at that barrier. Like [`FaultPlan`](crate::FaultPlan), the decision is a
//! pure function of `(seed, crash point, commit key)` — never of wall-clock
//! time or global counters — so a soak run that crashes during epoch 17's
//! pre-rename barrier crashes there on every replay.
//!
//! A "crash" is cooperative: the storage layer consults the plan at each
//! barrier of its commit protocol and, when told to crash, abandons the
//! commit *leaving the filesystem exactly as a real crash at that barrier
//! would* (torn tmp file, renamed-but-unreferenced segment, ...). Recovery
//! drills then reopen the store and must find the last committed epoch.

use crate::fnv1a;
use crate::rng::DetRng;

/// The write barriers of the atomic commit protocol
/// (tmp write → fsync → rename → dir fsync → manifest commit) where a
/// crash can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Before the tmp file is created: nothing of this commit reaches disk.
    PreTmp,
    /// After the tmp file is written and fsynced, before the rename: a
    /// stray `*.tmp` file is left behind.
    PostTmp,
    /// Immediately before the rename (same disk state as [`Self::PostTmp`],
    /// but models a crash between the fsync and the rename syscall).
    PreRename,
    /// After the rename and directory fsync: the segment file exists but no
    /// manifest references it — an orphan that recovery must discard.
    PostRename,
    /// Before the manifest is committed: same orphaned-segment state, at
    /// the last instant before the commit becomes durable.
    PreManifest,
}

impl CrashPoint {
    /// All crash points, in barrier order.
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::PreTmp,
        CrashPoint::PostTmp,
        CrashPoint::PreRename,
        CrashPoint::PostRename,
        CrashPoint::PreManifest,
    ];

    /// Stable index for per-point tables.
    pub fn idx(self) -> usize {
        match self {
            CrashPoint::PreTmp => 0,
            CrashPoint::PostTmp => 1,
            CrashPoint::PreRename => 2,
            CrashPoint::PostRename => 3,
            CrashPoint::PreManifest => 4,
        }
    }

    /// Display label ("pre-tmp", "post-tmp", ...).
    pub fn label(self) -> &'static str {
        match self {
            CrashPoint::PreTmp => "pre-tmp",
            CrashPoint::PostTmp => "post-tmp",
            CrashPoint::PreRename => "pre-rename",
            CrashPoint::PostRename => "post-rename",
            CrashPoint::PreManifest => "pre-manifest",
        }
    }

    /// Parse a CLI token ("pre-tmp" | "post-tmp" | "pre-rename" |
    /// "post-rename" | "pre-manifest").
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pre-tmp" => Some(CrashPoint::PreTmp),
            "post-tmp" => Some(CrashPoint::PostTmp),
            "pre-rename" => Some(CrashPoint::PreRename),
            "post-rename" => Some(CrashPoint::PostRename),
            "pre-manifest" | "pre-manifest-commit" => Some(CrashPoint::PreManifest),
            _ => None,
        }
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A deterministic crash-injection plan over all five write barriers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPlan {
    seed: u64,
    rates: [f64; 5],
}

impl CrashPlan {
    /// A plan that never crashes (the production default).
    pub fn none() -> Self {
        Self { seed: 0, rates: [0.0; 5] }
    }

    /// An empty plan with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, rates: [0.0; 5] }
    }

    /// Builder: set the crash probability for one barrier.
    pub fn with(mut self, point: CrashPoint, rate: f64) -> Self {
        self.rates[point.idx()] = rate;
        self
    }

    /// Convenience: a plan where 100% of commits crash at `point`.
    pub fn always(point: CrashPoint) -> Self {
        Self::seeded(0).with(point, 1.0)
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The crash rate configured for `point`.
    pub fn rate(&self, point: CrashPoint) -> f64 {
        self.rates[point.idx()]
    }

    /// Whether any barrier has a nonzero crash rate.
    pub fn is_active(&self) -> bool {
        self.rates.iter().any(|&r| r > 0.0)
    }

    /// Parse a CLI crash spec: comma-separated `point[:rate]` entries,
    /// e.g. `"pre-rename,post-tmp:0.5"`. The rate defaults to `1.0`.
    pub fn parse_spec(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = CrashPlan::seeded(seed);
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (point_s, rate_s) = match entry.split_once(':') {
                Some((p, r)) => (p.trim(), Some(r.trim())),
                None => (entry, None),
            };
            let point = CrashPoint::parse(point_s).ok_or_else(|| {
                format!(
                    "unknown crash point {point_s:?} \
                     (pre-tmp|post-tmp|pre-rename|post-rename|pre-manifest)"
                )
            })?;
            let rate: f64 = match rate_s {
                Some(r) => r.parse().map_err(|_| format!("bad crash rate {r:?}"))?,
                None => 1.0,
            };
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("crash rate {rate} out of [0, 1]"));
            }
            plan = plan.with(point, rate);
        }
        Ok(plan)
    }

    /// Decide whether the commit identified by `key` (typically
    /// `"epoch:<n>"`) crashes at `point`. Pure in `(seed, point, key)`.
    pub fn crashes_at(&self, point: CrashPoint, key: &str) -> bool {
        let rate = self.rates[point.idx()];
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let mut h = fnv1a(key.as_bytes(), self.seed);
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add((point.idx() as u64) << 32);
        let mut rng = DetRng::seed_from_u64(h);
        rng.next_f64() < rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_crashes() {
        let plan = CrashPlan::none();
        for p in CrashPoint::ALL {
            assert!(!plan.crashes_at(p, "epoch:1"));
        }
        assert!(!plan.is_active());
    }

    #[test]
    fn always_crashes_only_at_that_point() {
        let plan = CrashPlan::always(CrashPoint::PreRename);
        assert!(plan.crashes_at(CrashPoint::PreRename, "epoch:3"));
        assert!(!plan.crashes_at(CrashPoint::PostRename, "epoch:3"));
        assert!(plan.is_active());
    }

    #[test]
    fn decisions_are_deterministic_and_key_dependent() {
        let plan = CrashPlan::seeded(42).with(CrashPoint::PostTmp, 0.5);
        let a = plan.crashes_at(CrashPoint::PostTmp, "epoch:9");
        let b = plan.crashes_at(CrashPoint::PostTmp, "epoch:9");
        assert_eq!(a, b, "same key must decide identically");
        let fired = (0..200)
            .filter(|i| plan.crashes_at(CrashPoint::PostTmp, &format!("epoch:{i}")))
            .count();
        assert!((40..160).contains(&fired), "rate 0.5 fired {fired}/200");
    }

    #[test]
    fn seeds_change_decisions() {
        let a = CrashPlan::seeded(1).with(CrashPoint::PreManifest, 0.5);
        let b = CrashPlan::seeded(2).with(CrashPoint::PreManifest, 0.5);
        let differs = (0..100).any(|i| {
            let k = format!("epoch:{i}");
            a.crashes_at(CrashPoint::PreManifest, &k) != b.crashes_at(CrashPoint::PreManifest, &k)
        });
        assert!(differs, "different seeds should differ somewhere");
    }

    #[test]
    fn points_parse_and_display() {
        for p in CrashPoint::ALL {
            assert_eq!(CrashPoint::parse(p.label()), Some(p));
        }
        assert_eq!(CrashPoint::parse("pre-manifest-commit"), Some(CrashPoint::PreManifest));
        assert_eq!(CrashPoint::parse("nope"), None);
        assert_eq!(CrashPoint::PostRename.to_string(), "post-rename");
    }

    #[test]
    fn specs_parse_and_reject() {
        let plan = CrashPlan::parse_spec("pre-rename,post-tmp:0.5", 7).unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.rate(CrashPoint::PreRename), 1.0);
        assert_eq!(plan.rate(CrashPoint::PostTmp), 0.5);
        assert!(!CrashPlan::parse_spec("", 0).unwrap().is_active());
        for bad in ["nope", "pre-tmp:2.0", "pre-tmp:x"] {
            assert!(CrashPlan::parse_spec(bad, 0).is_err(), "{bad:?} should be rejected");
        }
    }
}
