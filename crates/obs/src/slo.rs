//! Declarative SLOs evaluated over virtual-clock windows, with
//! multi-window burn-rate alerting.
//!
//! An [`SloSpec`] names objectives over the per-query observation stream
//! ([`QueryObs`]): a p99 sojourn ceiling (overall and per-class for
//! interactive traffic), a shed-rate ceiling, a brownout-depth ceiling,
//! and an answer-quality floor. Each objective is evaluated as an *error
//! budget*: the allowed fraction of bad events. The **burn rate** of a
//! window is `bad_fraction / budget` — burn 1.0 consumes the budget
//! exactly, burn 2.0 twice as fast.
//!
//! Alerting follows the multi-window rule: an alert fires at the end of a
//! short window whose burn is ≥ the threshold **and** whose enclosing long
//! window also burns ≥ the threshold. The short window makes alerts
//! responsive; the long window suppresses one-off blips. All windows are
//! cut on the **virtual clock** (query completion offsets), so evaluation
//! is a pure function of the observation stream and replays exactly.

use crate::recorder::{Outcome, QueryObs};

/// One declarative SLO document: objectives plus window/alert tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Sojourn ceiling in milliseconds breached by at most `budget` of
    /// queries (the "p99" target when `budget` is 0.01).
    pub latency_ms: Option<u64>,
    /// Sojourn ceiling for the interactive class only.
    pub interactive_ms: Option<u64>,
    /// Allowed shed fraction of arrivals.
    pub shed_rate: Option<f64>,
    /// Deepest allowed brownout rung (queries beyond it are bad events).
    pub brownout_rung: Option<u8>,
    /// Answer-quality floor: completed queries whose confidence
    /// (milli-units) falls below this are bad events.
    pub min_confidence_milli: Option<u32>,
    /// Short alert window, virtual seconds.
    pub short_s: u64,
    /// Long alert window, virtual seconds.
    pub long_s: u64,
    /// Burn-rate threshold for alerting (both windows must exceed it).
    pub burn_threshold: f64,
    /// Error budget: allowed bad-event fraction for the latency, brownout
    /// and quality objectives (shed has its own explicit rate).
    pub budget: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        Self {
            latency_ms: Some(30_000),
            interactive_ms: Some(15_000),
            shed_rate: Some(0.5),
            brownout_rung: Some(3),
            min_confidence_milli: Some(1),
            short_s: 5,
            long_s: 30,
            burn_threshold: 1.0,
            budget: 0.01,
        }
    }
}

impl SloSpec {
    /// Parse a `key=value,key=value` spec, e.g.
    /// `latency_ms=250,interactive_ms=100,shed_rate=0.2,brownout_rung=2,`
    /// `min_confidence=500,short_s=5,long_s=30,burn=2,budget=0.01`.
    /// Omitted keys keep their defaults; `off` disables an objective.
    pub fn parse(spec: &str) -> Result<SloSpec, String> {
        // Milliseconds and seconds are scaled by 10^6 when judged.
        const MAX_TIME: u64 = u64::MAX / 1_000_000;
        let mut out = SloSpec::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad SLO clause `{part}` (expected key=value)"))?;
            let (key, value) = (key.trim(), value.trim());
            let off = value == "off";
            let num = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .ok()
                    .filter(|n| n.is_finite())
                    .ok_or_else(|| format!("bad SLO value `{v}` for `{key}`"))
            };
            // A whole number in `[0, max]`.
            let whole = |max: u64| -> Result<u64, String> {
                let n = num(value)?;
                if n < 0.0 || n.fract() != 0.0 || n > max as f64 {
                    return Err(format!("SLO {key} must be a whole number in [0, {max}], got {n}"));
                }
                Ok(n as u64)
            };
            match key {
                "latency_ms" => out.latency_ms = (!off).then(|| whole(MAX_TIME)).transpose()?,
                "interactive_ms" => {
                    out.interactive_ms = (!off).then(|| whole(MAX_TIME)).transpose()?
                }
                "shed_rate" => {
                    out.shed_rate = (!off).then(|| num(value)).transpose()?;
                    if out.shed_rate.is_some_and(|r| r <= 0.0 || r > 1.0) {
                        return Err(format!("SLO shed_rate must be in (0, 1], got {value}"));
                    }
                }
                "brownout_rung" => {
                    out.brownout_rung = (!off).then(|| whole(4)).transpose()?.map(|n| n as u8)
                }
                "min_confidence" => {
                    out.min_confidence_milli =
                        (!off).then(|| whole(1000)).transpose()?.map(|n| n as u32)
                }
                "short_s" => out.short_s = whole(MAX_TIME)?.max(1),
                "long_s" => out.long_s = whole(MAX_TIME)?.max(1),
                "burn" => {
                    out.burn_threshold = num(value)?;
                    if out.burn_threshold <= 0.0 {
                        return Err(format!("SLO burn must be > 0, got {value}"));
                    }
                }
                "budget" => {
                    let b = num(value)?;
                    if b <= 0.0 || b > 1.0 {
                        return Err(format!("SLO budget must be in (0, 1], got {b}"));
                    }
                    out.budget = b;
                }
                other => return Err(format!("unknown SLO key `{other}`")),
            }
        }
        if out.long_s < out.short_s {
            return Err(format!(
                "SLO long window ({}s) must be >= short window ({}s)",
                out.long_s, out.short_s
            ));
        }
        Ok(out)
    }

    /// The objectives this spec activates, with their error budgets.
    fn objectives(&self) -> Vec<(Objective, f64)> {
        let mut out = Vec::new();
        if self.latency_ms.is_some() {
            out.push((Objective::Latency, self.budget));
        }
        if self.interactive_ms.is_some() {
            out.push((Objective::InteractiveLatency, self.budget));
        }
        if let Some(rate) = self.shed_rate {
            out.push((Objective::Shed, rate.max(f64::EPSILON)));
        }
        if self.brownout_rung.is_some() {
            out.push((Objective::Brownout, self.budget));
        }
        if self.min_confidence_milli.is_some() {
            out.push((Objective::Quality, self.budget));
        }
        out
    }
}

/// The SLO dimensions a spec may activate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Overall sojourn ceiling.
    Latency,
    /// Interactive-class sojourn ceiling.
    InteractiveLatency,
    /// Admission shed rate.
    Shed,
    /// Brownout depth ceiling.
    Brownout,
    /// Answer-quality floor.
    Quality,
}

impl Objective {
    /// Stable label used in gauges, trace events, and reports.
    pub fn label(self) -> &'static str {
        match self {
            Objective::Latency => "latency",
            Objective::InteractiveLatency => "latency-interactive",
            Objective::Shed => "shed",
            Objective::Brownout => "brownout",
            Objective::Quality => "quality",
        }
    }
}

/// Per-objective totals over the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveReport {
    /// Which objective.
    pub objective: Objective,
    /// Events the objective applied to.
    pub total: u64,
    /// Events that violated it.
    pub bad: u64,
    /// Error budget in effect.
    pub budget: f64,
    /// Worst short-window burn rate observed.
    pub max_burn: f64,
    /// Alerts attributed to this objective.
    pub alerts: u64,
}

impl ObjectiveReport {
    /// Whole-run burn rate: bad fraction over budget.
    pub fn run_burn(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.bad as f64 / self.total as f64) / self.budget
    }
}

/// One multi-window burn alert.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// Virtual time (microseconds) of the short window's end.
    pub at_us: u64,
    /// The objective that burned.
    pub objective: Objective,
    /// Burn over the short window ending at `at_us`.
    pub short_burn: f64,
    /// Burn over the long window ending at `at_us`.
    pub long_burn: f64,
}

/// The result of evaluating one spec against one observation stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The spec evaluated.
    pub spec: SloSpec,
    /// Per-objective totals.
    pub objectives: Vec<ObjectiveReport>,
    /// Multi-window alerts, in virtual-time order.
    pub alerts: Vec<SloAlert>,
    /// Observations evaluated.
    pub observed: u64,
    /// Shed events counted (for reconciliation against the admission
    /// counters and the soak report).
    pub shed_seen: u64,
    /// Brownout steps beyond rung 0 counted (reconciles against the
    /// brownout ladder counters' per-query final levels).
    pub browned_out_seen: u64,
}

impl SloReport {
    /// Whether any alert fired.
    pub fn alerting(&self) -> bool {
        !self.alerts.is_empty()
    }

    /// Render the report's gauges as Prometheus text exposition lines
    /// (appended to the telemetry exporter's output by `sage report`).
    pub fn gauges(&self) -> String {
        let mut out = String::new();
        out.push_str("# HELP sage_slo_burn_rate Whole-run SLO burn rate by objective\n");
        out.push_str("# TYPE sage_slo_burn_rate gauge\n");
        for o in &self.objectives {
            out.push_str(&format!(
                "sage_slo_burn_rate{{objective=\"{}\"}} {:.6}\n",
                sage_telemetry::export::escape_label_value(o.objective.label()),
                o.run_burn()
            ));
        }
        out.push_str("# HELP sage_slo_alerts_total Multi-window burn alerts by objective\n");
        out.push_str("# TYPE sage_slo_alerts_total counter\n");
        for o in &self.objectives {
            out.push_str(&format!(
                "sage_slo_alerts_total{{objective=\"{}\"}} {}\n",
                sage_telemetry::export::escape_label_value(o.objective.label()),
                o.alerts
            ));
        }
        out
    }

    /// Record every alert as an event on a synthetic trace, so alert
    /// history travels with the JSONL trace export. The caller pushes the
    /// returned trace into a [`sage_telemetry::Telemetry`] hub.
    pub fn alert_trace(&self) -> Option<sage_telemetry::Trace> {
        if self.alerts.is_empty() {
            return None;
        }
        let mut t = sage_telemetry::Trace::start("slo-alerts");
        for a in &self.alerts {
            let id = t.event("slo-burn-alert");
            t.field(id, "objective", a.objective.label());
            t.field(id, "at_us", a.at_us);
            t.field(id, "short_burn", a.short_burn);
            t.field(id, "long_burn", a.long_burn);
        }
        Some(t)
    }

    /// Multi-line human summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "slo: {} observation(s), {} alert(s)\n",
            self.observed,
            self.alerts.len()
        ));
        for o in &self.objectives {
            out.push_str(&format!(
                "  {:<20} bad {}/{} | budget {:.3} | run burn {:.2} | max short burn {:.2} | alerts {}\n",
                o.objective.label(),
                o.bad,
                o.total,
                o.budget,
                o.run_burn(),
                o.max_burn,
                o.alerts
            ));
        }
        out
    }
}

/// Is `obs` a bad event for `objective` under `spec`? `None` when the
/// objective does not apply to this observation (it is excluded from the
/// window's total).
fn judge(spec: &SloSpec, objective: Objective, obs: &QueryObs) -> Option<bool> {
    let ran = matches!(obs.outcome, Outcome::Done | Outcome::Error | Outcome::Panicked);
    match objective {
        Objective::Latency => {
            let ceiling = spec.latency_ms?;
            ran.then(|| obs.sojourn_ns > ceiling * 1_000_000)
        }
        Objective::InteractiveLatency => {
            let ceiling = spec.interactive_ms?;
            (ran && obs.class == "interactive").then(|| obs.sojourn_ns > ceiling * 1_000_000)
        }
        // Every arrival counts; shed/expired are the bad ones.
        Objective::Shed => Some(matches!(obs.outcome, Outcome::Shed | Outcome::Expired)),
        Objective::Brownout => {
            let rung = spec.brownout_rung?;
            (obs.outcome == Outcome::Done).then_some(obs.brownout > rung)
        }
        Objective::Quality => {
            let floor = spec.min_confidence_milli?;
            (obs.outcome == Outcome::Done).then_some(obs.confidence_milli < floor)
        }
    }
}

/// Evaluate `spec` over an observation stream. Pure: windows are cut on
/// the virtual completion clock (`end_us`), so two identical streams
/// produce identical reports, alerts included.
pub fn evaluate_slo(spec: &SloSpec, observations: &[QueryObs]) -> SloReport {
    let objectives = spec.objectives();
    let mut reports: Vec<ObjectiveReport> = objectives
        .iter()
        .map(|&(objective, budget)| ObjectiveReport {
            objective,
            total: 0,
            bad: 0,
            budget,
            max_burn: 0.0,
            alerts: 0,
        })
        .collect();
    let mut alerts: Vec<SloAlert> = Vec::new();
    let mut shed_seen = 0u64;
    let mut browned_out_seen = 0u64;

    let horizon_us = observations.iter().map(|o| o.end_us).max().unwrap_or(0);
    let short_us = spec.short_s * 1_000_000;
    let long_us = spec.long_s * 1_000_000;

    for obs in observations {
        if matches!(obs.outcome, Outcome::Shed | Outcome::Expired) {
            shed_seen += 1;
        }
        if obs.outcome == Outcome::Done && obs.brownout > 0 {
            browned_out_seen += 1;
        }
        for rep in reports.iter_mut() {
            if let Some(bad) = judge(spec, rep.objective, obs) {
                rep.total += 1;
                rep.bad += u64::from(bad);
            }
        }
    }

    // Walk short-window boundaries over the virtual horizon. Windows are
    // aligned to the short width, so the grid (and therefore every alert
    // time) is a pure function of the stream.
    let mut end = short_us;
    while end <= horizon_us + short_us {
        for rep in reports.iter_mut() {
            let burn_over = |from: u64, to: u64| -> f64 {
                let mut total = 0u64;
                let mut bad = 0u64;
                for obs in observations {
                    if obs.end_us >= from && obs.end_us < to {
                        if let Some(b) = judge(spec, rep.objective, obs) {
                            total += 1;
                            bad += u64::from(b);
                        }
                    }
                }
                if total == 0 {
                    0.0
                } else {
                    (bad as f64 / total as f64) / rep.budget
                }
            };
            let short_burn = burn_over(end.saturating_sub(short_us), end);
            let long_burn = burn_over(end.saturating_sub(long_us), end);
            if short_burn > rep.max_burn {
                rep.max_burn = short_burn;
            }
            if short_burn >= spec.burn_threshold && long_burn >= spec.burn_threshold {
                rep.alerts += 1;
                alerts.push(SloAlert { at_us: end, objective: rep.objective, short_burn, long_burn });
            }
        }
        end += short_us;
    }
    alerts.sort_by(|a, b| a.at_us.cmp(&b.at_us).then(a.objective.label().cmp(b.objective.label())));

    SloReport {
        spec: spec.clone(),
        objectives: reports,
        alerts,
        observed: observations.len() as u64,
        shed_seen,
        browned_out_seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(seq: u64, end_us: u64, sojourn_ms: u64) -> QueryObs {
        QueryObs {
            seq,
            class: "batch",
            arrival_us: end_us.saturating_sub(sojourn_ms * 1000),
            end_us,
            sojourn_ns: sojourn_ms * 1_000_000,
            service_ns: sojourn_ms * 1_000_000,
            outcome: Outcome::Done,
            brownout: 0,
            degraded: 0,
            deadline_missed: false,
            tokens: 10,
            confidence_milli: 800,
            question: String::new(),
        }
    }

    fn shed(seq: u64, end_us: u64) -> QueryObs {
        QueryObs {
            outcome: Outcome::Shed,
            sojourn_ns: 0,
            service_ns: 0,
            confidence_milli: 0,
            ..done(seq, end_us, 0)
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let s = SloSpec::parse("latency_ms=250,shed_rate=0.2,burn=2,budget=0.05").unwrap();
        assert_eq!(s.latency_ms, Some(250));
        assert_eq!(s.shed_rate, Some(0.2));
        assert_eq!(s.burn_threshold, 2.0);
        assert_eq!(s.budget, 0.05);
        let off = SloSpec::parse("latency_ms=off").unwrap();
        assert_eq!(off.latency_ms, None);
        assert!(SloSpec::parse("latency_ms").is_err());
        assert!(SloSpec::parse("nope=1").is_err());
        assert!(SloSpec::parse("budget=0").is_err());
        assert!(SloSpec::parse("short_s=10,long_s=5").is_err());
    }

    #[test]
    fn parse_rejects_values_that_would_silently_disable_alerting() {
        // A NaN threshold compares false forever, `-5 as u64` is a 0 ms
        // ceiling and a negative shed budget becomes epsilon.
        for (clause, names) in [
            ("burn=nan", "`burn`"),
            ("latency_ms=-5", "SLO latency_ms must be a whole number"),
            ("shed_rate=-1", "SLO shed_rate must be in (0, 1]"),
            ("burn=0", "SLO burn must be > 0"),
            ("budget=nan", "`budget`"),
            ("shed_rate=inf", "`shed_rate`"),
            ("interactive_ms=2.5", "SLO interactive_ms must be a whole number"),
            ("short_s=1e30", "SLO short_s must be a whole number"),
            ("brownout_rung=5", "SLO brownout_rung must be a whole number in [0, 4]"),
            ("min_confidence=1001", "SLO min_confidence must be a whole number in [0, 1000]"),
        ] {
            let err = SloSpec::parse(clause).unwrap_err();
            assert!(err.contains(names), "{clause}: {err}");
        }
        // Every clause of the doc comment's example still parses.
        let s = SloSpec::parse(
            "latency_ms=250,interactive_ms=100,shed_rate=0.2,brownout_rung=2,\
             min_confidence=500,short_s=5,long_s=30,burn=2,budget=0.01",
        )
        .unwrap();
        assert_eq!((s.latency_ms, s.interactive_ms), (Some(250), Some(100)));
        assert_eq!((s.shed_rate, s.brownout_rung), (Some(0.2), Some(2)));
        assert_eq!((s.min_confidence_milli, s.short_s, s.long_s), (Some(500), 5, 30));
        assert_eq!((s.burn_threshold, s.budget), (2.0, 0.01));
    }

    #[test]
    fn healthy_stream_never_alerts() {
        let spec = SloSpec::parse("latency_ms=1000,shed_rate=0.5").unwrap();
        let obs: Vec<QueryObs> = (0..100).map(|s| done(s, s * 200_000, 10)).collect();
        let r = evaluate_slo(&spec, &obs);
        assert!(!r.alerting(), "{:?}", r.alerts);
        assert_eq!(r.shed_seen, 0);
        for o in &r.objectives {
            assert_eq!(o.bad, 0);
        }
    }

    #[test]
    fn sustained_shedding_fires_multi_window_alert() {
        let spec = SloSpec::parse("shed_rate=0.1,short_s=5,long_s=10,burn=1").unwrap();
        // 50% shed for 60 virtual seconds: burns 5x budget everywhere.
        let mut obs = Vec::new();
        for s in 0..120u64 {
            let end = s * 500_000;
            if s % 2 == 0 {
                obs.push(shed(s, end));
            } else {
                obs.push(done(s, end, 10));
            }
        }
        let r = evaluate_slo(&spec, &obs);
        assert!(r.alerting());
        let shed_rep =
            r.objectives.iter().find(|o| o.objective == Objective::Shed).unwrap();
        assert!(shed_rep.alerts > 1, "sustained burn must alert repeatedly");
        assert!(shed_rep.max_burn > 4.0);
        assert_eq!(r.shed_seen, 60);
    }

    #[test]
    fn short_blip_is_suppressed_by_long_window() {
        let spec = SloSpec::parse("shed_rate=0.1,short_s=5,long_s=60,burn=1").unwrap();
        // One bad short window inside a long healthy run.
        let mut obs = Vec::new();
        for s in 0..600u64 {
            let end = s * 100_000; // 10 per second for 60s
            if (100..110).contains(&s) {
                obs.push(shed(s, end));
            } else {
                obs.push(done(s, end, 10));
            }
        }
        let r = evaluate_slo(&spec, &obs);
        let shed_rep =
            r.objectives.iter().find(|o| o.objective == Objective::Shed).unwrap();
        assert!(shed_rep.max_burn >= 1.0, "short window did burn");
        assert_eq!(shed_rep.alerts, 0, "long window must suppress the blip");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let spec = SloSpec::default();
        let obs: Vec<QueryObs> =
            (0..50).map(|s| if s % 7 == 0 { shed(s, s * 90_000) } else { done(s, s * 90_000, 20) }).collect();
        assert_eq!(evaluate_slo(&spec, &obs), evaluate_slo(&spec, &obs));
    }

    #[test]
    fn gauges_and_trace_render() {
        let spec = SloSpec::parse("shed_rate=0.01,short_s=1,long_s=1,burn=1").unwrap();
        let obs: Vec<QueryObs> = (0..10).map(|s| shed(s, s * 100_000)).collect();
        let r = evaluate_slo(&spec, &obs);
        let g = r.gauges();
        assert!(g.contains("sage_slo_burn_rate{objective=\"shed\"}"), "{g}");
        assert!(g.contains("sage_slo_alerts_total{objective=\"shed\"}"), "{g}");
        let t = r.alert_trace().expect("alerts fired");
        let mut json = String::new();
        t.write_json(&mut json);
        assert!(json.contains("slo-burn-alert"), "{json}");
    }
}
