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
    /// Vector-index search (the ANN / flat lookup).
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

    /// Stable index for per-component tables.
    pub fn idx(self) -> usize {
        match self {
            Component::Embedder => 0,
            Component::IndexSearch => 1,
            Component::Reranker => 2,
            Component::Reader => 3,
        }
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
    /// No faults.
    pub fn none() -> Self {
        Self::default()
    }

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

/// The maximum shard index a shard-scoped fault entry may target. High
/// enough for the throughput-scaling grid (1/2/4/8 shards) with headroom;
/// fixed so the plan stays a flat value type.
pub const MAX_FAULT_SHARDS: usize = 16;

/// A deterministic fault-injection plan over all four components, plus
/// optional *shard-scoped* rates: `shard:<idx>:<kind>[:<rate>]` entries
/// target one fault domain of the scatter-gather layer instead of a whole
/// component, so a drill can take down shard 2 while its siblings serve.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: [Rates; 4],
    shard_rates: [Rates; MAX_FAULT_SHARDS],
}

impl FaultPlan {
    /// A plan that injects nothing (the production default: the resilience
    /// machinery runs, but every call succeeds on the first attempt).
    pub fn none() -> Self {
        Self::seeded(0)
    }

    /// An empty plan with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            rates: [Rates::default(); 4],
            shard_rates: [Rates::default(); MAX_FAULT_SHARDS],
        }
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

    /// Builder: set the shard-scoped rates for one fault domain.
    pub fn with_shard(mut self, shard: u32, rates: Rates) -> Self {
        if let Some(slot) = self.shard_rates.get_mut(shard as usize) {
            *slot = rates;
        }
        self
    }

    /// The rates configured for fault domain `shard` (zero for shards
    /// beyond [`MAX_FAULT_SHARDS`]).
    pub fn shard_rates(&self, shard: u32) -> Rates {
        self.shard_rates.get(shard as usize).copied().unwrap_or_default()
    }

    /// Whether any component or shard has a nonzero fault rate.
    pub fn is_active(&self) -> bool {
        self.rates.iter().any(|r| r.total() > 0.0) || self.has_shard_faults()
    }

    /// Whether any shard-scoped entry is configured.
    pub fn has_shard_faults(&self) -> bool {
        self.shard_rates.iter().any(|r| r.total() > 0.0)
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
            // Shard-scoped grammar: `shard:<idx>:<kind>[:<rate>]`, e.g.
            // `shard:2:slow` or `shard:0:down:0.5`. Parsed before the
            // component split because these entries carry no `=`.
            if let Some(rest) = entry.strip_prefix("shard:") {
                plan = plan.parse_shard_entry(rest, entry)?;
                continue;
            }
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

    /// One `shard:`-stripped spec entry: `<idx>:<kind>[:<rate>]`. Shard
    /// kinds accept serving-oriented aliases on top of the component kinds:
    /// `slow` (timeout) and `down` (transient/unavailable).
    fn parse_shard_entry(self, rest: &str, entry: &str) -> Result<Self, String> {
        let mut parts = rest.splitn(3, ':').map(str::trim);
        let idx_s = parts.next().unwrap_or("");
        let shard: u32 = idx_s
            .parse()
            .map_err(|_| format!("bad shard index {idx_s:?} in {entry:?}"))?;
        if shard as usize >= MAX_FAULT_SHARDS {
            return Err(format!("shard index {shard} out of range (max {})", MAX_FAULT_SHARDS - 1));
        }
        let kind_s = parts
            .next()
            .ok_or_else(|| format!("bad shard entry {entry:?}: want shard:<idx>:<kind>[:<rate>]"))?;
        let kind = match kind_s {
            "slow" => FaultKind::Timeout,
            "down" => FaultKind::Transient,
            other => FaultKind::parse(other).ok_or_else(|| {
                format!("unknown shard fault kind {other:?} (slow|down|transient|timeout|corrupt|panic)")
            })?,
        };
        let rate: f64 = match parts.next() {
            Some(r) => r.parse().map_err(|_| format!("bad fault rate {r:?}"))?,
            None => 1.0,
        };
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate {rate} out of [0, 1]"));
        }
        let mut rates = self.shard_rates(shard);
        match kind {
            FaultKind::Transient => rates.transient += rate,
            FaultKind::Timeout => rates.timeout += rate,
            FaultKind::Corrupt => rates.corrupt += rate,
            FaultKind::Panic => rates.panic += rate,
        }
        if rates.total() > 1.0 + 1e-9 {
            return Err(format!("total fault mass for shard {shard} exceeds 1"));
        }
        Ok(self.with_shard(shard, rates))
    }

    /// Decide whether the call identified by `(component, key, attempt)`
    /// faults, and how.
    pub fn inject(&self, component: Component, key: &str, attempt: u32) -> Option<FaultKind> {
        let rates = self.rates[component.idx()];
        if rates.total() <= 0.0 {
            return None;
        }
        Self::draw(rates, self.call_rng(component, key, attempt))
    }

    /// Deterministic per-probe RNG for `(shard, key, attempt)`. Mixed with
    /// a shard-distinct constant so a shard-scoped stream never collides
    /// with a component stream for the same key.
    pub fn shard_rng(&self, shard: u32, key: &str, attempt: u32) -> DetRng {
        let mut h = fnv1a(key.as_bytes(), self.seed ^ 0x5348_4152_4400_0000); // "SHARD"
        h = h
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((u64::from(shard) << 32) | u64::from(attempt));
        DetRng::seed_from_u64(h)
    }

    /// Decide whether the probe of fault domain `shard` identified by
    /// `(key, attempt)` faults, and how. Attempt 1 is the hedged replica
    /// probe — an independent draw, so a transient shard fault can clear
    /// on the hedge exactly like a component retry.
    pub fn inject_shard(&self, shard: u32, key: &str, attempt: u32) -> Option<FaultKind> {
        let rates = self.shard_rates(shard);
        if rates.total() <= 0.0 {
            return None;
        }
        Self::draw(rates, self.shard_rng(shard, key, attempt))
    }

    /// One cumulative-mass draw in the documented order
    /// panic → corrupt → timeout → transient.
    fn draw(rates: Rates, mut rng: DetRng) -> Option<FaultKind> {
        let u: f64 = rng.next_f64();
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
    fn shard_specs_parse_and_reject() {
        let plan = FaultPlan::parse_spec("shard:2:slow,shard:0:down:0.5", 9).unwrap();
        assert_eq!(plan.shard_rates(2).timeout, 1.0, "slow aliases timeout");
        assert_eq!(plan.shard_rates(0).transient, 0.5, "down aliases transient");
        assert!(plan.is_active() && plan.has_shard_faults());
        // Shard entries compose with component entries in one spec.
        let mixed = FaultPlan::parse_spec("reader=transient:0.3,shard:1:corrupt", 0).unwrap();
        assert_eq!(mixed.rates(Component::Reader).transient, 0.3);
        assert_eq!(mixed.shard_rates(1).corrupt, 1.0);
        for bad in ["shard:x:slow", "shard:1:warp", "shard:1", "shard:99:slow",
                    "shard:1:slow:2.0", "shard:1:slow:0.7,shard:1:down:0.7"] {
            assert!(FaultPlan::parse_spec(bad, 0).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn shard_injection_is_deterministic_and_scoped() {
        let plan = FaultPlan::parse_spec("shard:1:down", 42).unwrap();
        assert_eq!(plan.inject_shard(1, "q", 0), Some(FaultKind::Transient));
        assert_eq!(plan.inject_shard(1, "q", 0), plan.inject_shard(1, "q", 0));
        assert_eq!(plan.inject_shard(0, "q", 0), None, "other shards untouched");
        assert_eq!(plan.inject(Component::IndexSearch, "q", 0), None, "components untouched");
        // A fractional rate must let the hedged probe (attempt 1) clear
        // faults for some keys — that's what makes hedging meaningful.
        let flaky = FaultPlan::parse_spec("shard:1:down:0.5", 7).unwrap();
        let recovered = (0..100).any(|i| {
            let key = format!("q{i}");
            flaky.inject_shard(1, &key, 0).is_some() && flaky.inject_shard(1, &key, 1).is_none()
        });
        assert!(recovered, "hedged probes must be independent draws");
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
