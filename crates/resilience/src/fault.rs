//! Deterministic, seeded fault plans.
//!
//! A [`FaultPlan`] decides, per component call, whether to inject a fault
//! and which kind. The decision is a pure function of the plan seed, the
//! component, a caller-supplied *call key* (typically the question or call
//! content), and the attempt number — never of wall-clock time, thread
//! scheduling, or global counters. Two runs of the same workload under the
//! same plan therefore fault identically, which is what makes degraded-mode
//! behaviour unit-testable.

use crate::fnv1a;
use crate::rng::DetRng;

/// The serving-path component boundaries where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Query embedding (the dense retriever's encoder call).
    Embedder,
    /// Vector-index search (the exact flat scan).
    IndexSearch,
    /// Second-stage reranking.
    Reranker,
    /// The (simulated) LLM generation call.
    Reader,
}

impl Component {
    /// All components, in injection order.
    pub const ALL: [Component; 4] =
        [Component::Embedder, Component::IndexSearch, Component::Reranker, Component::Reader];

    /// Stable index for per-component tables: the position in [`Self::ALL`].
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Display label ("embedder", "index", ...).
    pub fn label(self) -> &'static str {
        match self {
            Component::Embedder => "embedder",
            Component::IndexSearch => "index",
            Component::Reranker => "reranker",
            Component::Reader => "reader",
        }
    }

    /// Parse a CLI token ("embedder" | "index" | "reranker" | "reader").
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "embedder" | "embed" => Some(Component::Embedder),
            "index" | "search" => Some(Component::IndexSearch),
            "reranker" | "rerank" => Some(Component::Reranker),
            "reader" | "llm" => Some(Component::Reader),
            _ => None,
        }
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The kinds of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The call fails outright but may succeed on retry.
    Transient,
    /// The call exceeds its deadline (virtual time is charged).
    Timeout,
    /// The call returns a truncated/corrupt response that validation must
    /// catch.
    Corrupt,
    /// The call panics (exercises the panic-isolation layer).
    Panic,
}

impl FaultKind {
    /// Parse a CLI token ("transient" | "timeout" | "corrupt" | "panic").
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "transient" | "fail" => Some(FaultKind::Transient),
            "timeout" => Some(FaultKind::Timeout),
            "corrupt" => Some(FaultKind::Corrupt),
            "panic" => Some(FaultKind::Panic),
            _ => None,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Timeout => "timeout",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Panic => "panic",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-component fault probabilities in `[0, 1]`. Checked in order
/// panic → corrupt → timeout → transient against one uniform draw, so the
/// rates are cumulative mass, not independent coins.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rates {
    /// Probability of an injected panic.
    pub panic: f64,
    /// Probability of a corrupt response.
    pub corrupt: f64,
    /// Probability of a (virtual) timeout.
    pub timeout: f64,
    /// Probability of a transient failure.
    pub transient: f64,
}

impl Rates {
    /// 100% of calls suffer `kind`.
    pub fn always(kind: FaultKind) -> Self {
        let mut r = Self::default();
        match kind {
            FaultKind::Transient => r.transient = 1.0,
            FaultKind::Timeout => r.timeout = 1.0,
            FaultKind::Corrupt => r.corrupt = 1.0,
            FaultKind::Panic => r.panic = 1.0,
        }
        r
    }

    fn total(&self) -> f64 {
        self.panic + self.corrupt + self.timeout + self.transient
    }
}

/// A deterministic fault-injection plan over all four components.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: [Rates; 4],
}

impl FaultPlan {
    /// A plan that injects nothing (the production default: the resilience
    /// machinery runs, but every call succeeds on the first attempt).
    pub fn none() -> Self {
        Self::seeded(0)
    }

    /// An empty plan with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, rates: [Rates::default(); 4] }
    }

    /// Builder: set the rates for one component.
    pub fn with(mut self, component: Component, rates: Rates) -> Self {
        self.rates[component.idx()] = rates;
        self
    }

    /// Convenience: a plan where 100% of `component` calls suffer `kind`.
    pub fn failing(component: Component, kind: FaultKind) -> Self {
        Self::seeded(0).with(component, Rates::always(kind))
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rates configured for `component`.
    pub fn rates(&self, component: Component) -> Rates {
        self.rates[component.idx()]
    }

    /// Whether any component has a nonzero fault rate.
    pub fn is_active(&self) -> bool {
        self.rates.iter().any(|r| r.total() > 0.0)
    }

    /// Deterministic per-call RNG for `(component, key, attempt)` — also
    /// used by the retry layer for backoff jitter.
    pub fn call_rng(&self, component: Component, key: &str, attempt: u32) -> DetRng {
        let mut h = fnv1a(key.as_bytes(), self.seed);
        h = h
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((component.idx() as u64) << 32) | u64::from(attempt));
        DetRng::seed_from_u64(h)
    }

    /// Parse a CLI fault spec: comma-separated `component=kind[:rate]`
    /// entries, e.g. `"reader=transient:1.0,embedder=timeout:0.5"`. The
    /// rate defaults to `1.0`; repeated entries for one component stack
    /// (cumulative mass, capped at 1 total by validation).
    pub fn parse_spec(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::seeded(seed);
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (comp_s, rest) = entry
                .split_once('=')
                .ok_or_else(|| format!("bad fault entry {entry:?}: want component=kind[:rate]"))?;
            let component = Component::parse(comp_s.trim())
                .ok_or_else(|| format!("unknown component {:?} (embedder|index|reranker|reader)", comp_s.trim()))?;
            let (kind_s, rate_s) = match rest.split_once(':') {
                Some((k, r)) => (k.trim(), Some(r.trim())),
                None => (rest.trim(), None),
            };
            let kind = FaultKind::parse(kind_s)
                .ok_or_else(|| format!("unknown fault kind {kind_s:?} (transient|timeout|corrupt|panic)"))?;
            let rate: f64 = match rate_s {
                Some(r) => r.parse().map_err(|_| format!("bad fault rate {r:?}"))?,
                None => 1.0,
            };
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} out of [0, 1]"));
            }
            let mut rates = plan.rates(component);
            match kind {
                FaultKind::Transient => rates.transient += rate,
                FaultKind::Timeout => rates.timeout += rate,
                FaultKind::Corrupt => rates.corrupt += rate,
                FaultKind::Panic => rates.panic += rate,
            }
            if rates.total() > 1.0 + 1e-9 {
                return Err(format!("total fault mass for {component} exceeds 1"));
            }
            plan = plan.with(component, rates);
        }
        Ok(plan)
    }

    /// Decide whether the call identified by `(component, key, attempt)`
    /// faults, and how: one cumulative-mass draw in the documented order
    /// panic → corrupt → timeout → transient.
    pub fn inject(&self, component: Component, key: &str, attempt: u32) -> Option<FaultKind> {
        let rates = self.rates[component.idx()];
        if rates.total() <= 0.0 {
            return None;
        }
        let u: f64 = self.call_rng(component, key, attempt).next_f64();
        let mut acc = rates.panic;
        if u < acc {
            return Some(FaultKind::Panic);
        }
        acc += rates.corrupt;
        if u < acc {
            return Some(FaultKind::Corrupt);
        }
        acc += rates.timeout;
        if u < acc {
            return Some(FaultKind::Timeout);
        }
        acc += rates.transient;
        if u < acc {
            return Some(FaultKind::Transient);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::none();
        for c in Component::ALL {
            for a in 0..4 {
                assert_eq!(plan.inject(c, "any key", a), None);
            }
        }
        assert!(!plan.is_active());
    }

    #[test]
    fn an_empty_plan_injects_no_faults() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for component in Component::ALL {
            for attempt in 0..4 {
                assert_eq!(plan.inject(component, "q", attempt), None, "{component}");
            }
        }
    }

    #[test]
    fn full_rate_always_faults_with_that_kind() {
        let plan = FaultPlan::failing(Component::Reader, FaultKind::Transient);
        for a in 0..4 {
            assert_eq!(plan.inject(Component::Reader, "q", a), Some(FaultKind::Transient));
        }
        // Other components are untouched.
        assert_eq!(plan.inject(Component::Embedder, "q", 0), None);
        assert!(plan.is_active());
    }

    #[test]
    fn decisions_are_deterministic_and_key_dependent() {
        let plan = FaultPlan::seeded(42)
            .with(Component::Embedder, Rates { transient: 0.5, ..Rates::default() });
        let a = plan.inject(Component::Embedder, "question one", 0);
        let b = plan.inject(Component::Embedder, "question one", 0);
        assert_eq!(a, b, "same key must fault identically");
        // Across many keys roughly half fault (loose bounds).
        let fired = (0..200)
            .filter(|i| plan.inject(Component::Embedder, &format!("k{i}"), 0).is_some())
            .count();
        assert!((40..160).contains(&fired), "rate 0.5 fired {fired}/200");
    }

    #[test]
    fn attempts_are_independent_draws() {
        let plan = FaultPlan::seeded(7)
            .with(Component::Reader, Rates { transient: 0.5, ..Rates::default() });
        // Some key must exist where attempt 0 faults but a later attempt
        // succeeds — that's what makes retries meaningful.
        let recovered = (0..100).any(|i| {
            let key = format!("q{i}");
            plan.inject(Component::Reader, &key, 0).is_some()
                && (1..4).any(|a| plan.inject(Component::Reader, &key, a).is_none())
        });
        assert!(recovered, "retries must be able to clear transient faults");
    }

    #[test]
    fn kinds_parse_and_display() {
        for kind in [FaultKind::Transient, FaultKind::Timeout, FaultKind::Corrupt, FaultKind::Panic]
        {
            assert_eq!(FaultKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(FaultKind::parse("nope"), None);
        assert_eq!(Component::Reader.to_string(), "reader");
    }

    #[test]
    fn specs_parse_and_reject() {
        let plan = FaultPlan::parse_spec("reader=transient:1.0,embedder=timeout:0.5", 7).unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.rates(Component::Reader).transient, 1.0);
        assert_eq!(plan.rates(Component::Embedder).timeout, 0.5);
        // Default rate is 1.0; aliases accepted.
        let plan = FaultPlan::parse_spec("rerank=corrupt", 0).unwrap();
        assert_eq!(plan.rates(Component::Reranker).corrupt, 1.0);
        // Empty spec → inactive plan.
        assert!(!FaultPlan::parse_spec("", 0).unwrap().is_active());
        for bad in ["nope=transient", "reader=nope", "reader=transient:2.0", "reader",
                    "reader=transient:0.7,reader=timeout:0.7"] {
            assert!(FaultPlan::parse_spec(bad, 0).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn removed_shard_entries_are_refused_by_name() {
        for entry in ["shard:1:down", "shard:2:slow:0.5"] {
            assert_eq!(
                FaultPlan::parse_spec(entry, 0),
                Err(format!("bad fault entry {entry:?}: want component=kind[:rate]"))
            );
        }
        // Beside a valid entry the whole spec is still refused.
        let err = FaultPlan::parse_spec("reader=transient:0.3,shard:1:down", 0).unwrap_err();
        assert!(err.contains("\"shard:1:down\""), "{err}");
    }

    #[test]
    fn seeds_change_decisions() {
        let r = Rates { transient: 0.5, ..Rates::default() };
        let a = FaultPlan::seeded(1).with(Component::Reranker, r);
        let b = FaultPlan::seeded(2).with(Component::Reranker, r);
        let differs = (0..100).any(|i| {
            let k = format!("k{i}");
            a.inject(Component::Reranker, &k, 0) != b.inject(Component::Reranker, &k, 0)
        });
        assert!(differs, "different seeds should differ somewhere");
    }
}
