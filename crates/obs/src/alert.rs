//! Declarative threshold alerting over the metrics registry.
//!
//! A rule is one line of text — `<metric> <op> <threshold> [for <dur>]` —
//! evaluated against the live registry on every collector pass (i.e. on
//! every `/metrics`, `/analyze`, or `/snapshot` scrape and every sampler
//! tick). Examples:
//!
//! ```text
//! rho > 0.9 for 5s
//! rho(sel_expensive) > 0.95 for 2s
//! headroom < 1.5
//! queue.a->b.occupancy >= 400 for 500ms
//! egress.egress.e2e_latency_ns:p99 > 50000000
//! supervisor_restarts_total > 0
//! ```
//!
//! Metric references resolve as:
//!
//! * `rho` → `capacity.max_rho_ppm` scaled by 1e-6 (the graph-wide
//!   saturation fraction from the [capacity analyzer](crate::capacity)),
//! * `rho(NODE)` → `capacity.node.NODE.rho_ppm` × 1e-6,
//! * `headroom` → `capacity.headroom_ppm` × 1e-6,
//! * `NAME:pNN` → quantile NN of histogram `NAME`,
//! * anything else → the metric's [`MetricValue::as_f64`] (counters and
//!   gauges verbatim, histograms their mean).
//!
//! Raise/clear are symmetric with hysteresis: the condition must hold
//! continuously for the `for` duration before `alert-raised` fires, and
//! must then *fail* continuously for the same duration before
//! `alert-cleared` fires. A missing metric counts as condition-false.
//! Transitions land in the scheduler journal and flip an
//! `alert.<rule>.active` gauge, so alert state is visible in `/metrics`,
//! `/healthz`, and post-hoc event dumps alike.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::registry::{quantile_from_cumulative, Lookup};
use crate::{MetricValue, Obs, SchedEvent};

/// Comparison operator of a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    Gt,
    Ge,
    Lt,
    Le,
}

impl Cmp {
    fn eval(self, value: f64, threshold: f64) -> bool {
        match self {
            Cmp::Gt => value > threshold,
            Cmp::Ge => value >= threshold,
            Cmp::Lt => value < threshold,
            Cmp::Le => value <= threshold,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }
}

/// What a rule's left-hand side reads from a metrics snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricRef {
    /// `rho` — graph-wide max utilization from the capacity analyzer.
    MaxRho,
    /// `rho(NODE)` — one node's utilization.
    NodeRho(String),
    /// `headroom` — multiplicative ingest headroom.
    Headroom,
    /// `NAME:pNN` — a histogram quantile (q in (0, 1)).
    Quantile(String, f64),
    /// Any registered metric by name, via [`MetricValue::as_f64`].
    Plain(String),
}

impl MetricRef {
    fn parse(token: &str) -> Result<MetricRef, String> {
        if token == "rho" {
            return Ok(MetricRef::MaxRho);
        }
        if token == "headroom" {
            return Ok(MetricRef::Headroom);
        }
        if let Some(node) = token.strip_prefix("rho(").and_then(|r| r.strip_suffix(')')) {
            if node.is_empty() {
                return Err("rho() needs a node name, e.g. rho(sel_expensive)".to_string());
            }
            return Ok(MetricRef::NodeRho(node.to_string()));
        }
        if let Some((name, q)) = token.rsplit_once(":p") {
            if let Ok(pct) = q.parse::<f64>() {
                if !(0.0..100.0).contains(&pct) || pct <= 0.0 {
                    return Err(format!("quantile p{q} out of range (0, 100)"));
                }
                if name.is_empty() {
                    return Err(format!("missing histogram name before :p{q}"));
                }
                return Ok(MetricRef::Quantile(name.to_string(), pct / 100.0));
            }
        }
        Ok(MetricRef::Plain(token.to_string()))
    }

    /// Reads the referenced value out of a snapshot; `None` when the
    /// metric is absent (treated as condition-false by the evaluator).
    pub fn resolve(&self, metrics: &[(String, MetricValue)]) -> Option<f64> {
        let m = Lookup(metrics);
        match self {
            MetricRef::MaxRho => m.get("capacity.max_rho_ppm").map(|v| v.as_f64() * 1e-6),
            MetricRef::NodeRho(node) => {
                m.get(&format!("capacity.node.{node}.rho_ppm")).map(|v| v.as_f64() * 1e-6)
            }
            MetricRef::Headroom => m.get("capacity.headroom_ppm").map(|v| v.as_f64() * 1e-6),
            MetricRef::Quantile(name, q) => m
                .histogram(name)
                .filter(|(count, _)| *count > 0)
                .map(|(count, buckets)| quantile_from_cumulative(count, buckets, *q) as f64),
            MetricRef::Plain(name) => m.get(name).map(|v| v.as_f64()),
        }
    }
}

/// One parsed threshold rule.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertRule {
    /// Canonical rule text (used as the journal/gauge identity).
    pub expr: String,
    /// Left-hand side.
    pub metric: MetricRef,
    /// Comparison.
    pub cmp: Cmp,
    /// Right-hand side.
    pub threshold: f64,
    /// Hysteresis window: how long the condition must hold (resp. fail)
    /// before raising (resp. clearing). Zero means transition on the
    /// first evaluation.
    pub hold: Duration,
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    let (num, unit) = match s.find(|c: char| c.is_ascii_alphabetic()) {
        Some(i) => s.split_at(i),
        None => return Err(format!("duration `{s}` needs a unit (ms, s, or m)")),
    };
    let value: f64 = num.parse().map_err(|_| format!("bad duration value `{num}` in `{s}`"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("duration `{s}` must be finite and non-negative"));
    }
    let ms = match unit {
        "ms" => value,
        "s" => value * 1_000.0,
        "m" => value * 60_000.0,
        other => return Err(format!("unknown duration unit `{other}` (use ms, s, or m)")),
    };
    Ok(Duration::from_millis(ms as u64))
}

impl AlertRule {
    /// Parses `<metric> <op> <threshold> [for <dur>]`. Every failure mode
    /// is an `Err` with a human-readable message; this never panics.
    pub fn parse(expr: &str) -> Result<AlertRule, String> {
        let tokens: Vec<&str> = expr.split_whitespace().collect();
        if tokens.len() != 3 && tokens.len() != 5 {
            return Err(format!(
                "alert rule `{expr}` must be `<metric> <op> <threshold> [for <dur>]`"
            ));
        }
        let metric = MetricRef::parse(tokens[0])?;
        let cmp = match tokens[1] {
            ">" => Cmp::Gt,
            ">=" => Cmp::Ge,
            "<" => Cmp::Lt,
            "<=" => Cmp::Le,
            other => {
                return Err(format!("unknown operator `{other}` (use >, >=, <, or <=)"));
            }
        };
        let threshold: f64 =
            tokens[2].parse().map_err(|_| format!("bad threshold `{}` in `{expr}`", tokens[2]))?;
        if !threshold.is_finite() {
            return Err(format!("threshold in `{expr}` must be finite"));
        }
        let hold = if tokens.len() == 5 {
            if tokens[3] != "for" {
                return Err(format!("expected `for <dur>`, found `{} {}`", tokens[3], tokens[4]));
            }
            parse_duration(tokens[4])?
        } else {
            Duration::ZERO
        };
        let expr = format!(
            "{} {} {}{}",
            tokens[0],
            cmp.as_str(),
            tokens[2],
            if hold > Duration::ZERO { format!(" for {}", tokens[4]) } else { String::new() }
        );
        Ok(AlertRule { expr, metric, cmp, threshold, hold })
    }
}

/// A currently firing alert, as shown in `/healthz`.
#[derive(Clone, Debug)]
pub struct ActiveAlert {
    /// Canonical rule text.
    pub expr: String,
    /// Elapsed-since-obs-epoch time at which the alert raised.
    pub since: Duration,
    /// The reading that tripped the rule.
    pub value: f64,
}

struct RuleState {
    rule: AlertRule,
    active: bool,
    /// When the raise (inactive) or clear (active) condition started
    /// holding continuously; `None` while it is not holding.
    pending_since: Option<Duration>,
    raised_at: Duration,
    raised_value: f64,
}

/// Evaluates a fixed set of rules against registry snapshots, with
/// journal + gauge side effects on transitions. All state sits behind one
/// mutex so concurrent admin scrapes never double-emit a transition.
pub struct AlertEngine {
    obs: Obs,
    rules: Arc<Mutex<Vec<RuleState>>>,
}

impl AlertEngine {
    /// Builds an engine over parsed rules. The `alert.<rule>.active`
    /// gauges are registered (at 0) immediately so the rule set is
    /// discoverable from `/metrics` before anything fires.
    pub fn new(obs: &Obs, rules: Vec<AlertRule>) -> AlertEngine {
        for r in &rules {
            obs.gauge(&format!("alert.{}.active", r.expr)).set(0);
        }
        let states = rules
            .into_iter()
            .map(|rule| RuleState {
                rule,
                active: false,
                pending_since: None,
                raised_at: Duration::ZERO,
                raised_value: 0.0,
            })
            .collect();
        AlertEngine { obs: obs.clone(), rules: Arc::new(Mutex::new(states)) }
    }

    /// Evaluates every rule against `metrics` at elapsed time `now`,
    /// firing journal events and flipping gauges on transitions.
    pub fn evaluate_snapshot(&self, metrics: &[(String, MetricValue)], now: Duration) {
        let mut rules = self.rules.lock();
        for st in rules.iter_mut() {
            let value = st.rule.metric.resolve(metrics);
            let cond = value.is_some_and(|v| st.rule.cmp.eval(v, st.rule.threshold));
            // Hysteresis is symmetric: `cond` must hold (when inactive) or
            // fail (when active) continuously for `hold` before we flip.
            let wants_flip = cond != st.active;
            if !wants_flip {
                st.pending_since = None;
                continue;
            }
            let since = *st.pending_since.get_or_insert(now);
            if now.saturating_sub(since) < st.rule.hold {
                continue;
            }
            st.pending_since = None;
            st.active = !st.active;
            let gauge = self.obs.gauge(&format!("alert.{}.active", st.rule.expr));
            if st.active {
                let v = value.unwrap_or(f64::NAN);
                st.raised_at = now;
                st.raised_value = v;
                gauge.set(1);
                self.obs.emit(SchedEvent::AlertRaised { rule: st.rule.expr.clone(), value: v });
            } else {
                gauge.set(0);
                self.obs.emit(SchedEvent::AlertCleared { rule: st.rule.expr.clone() });
            }
        }
    }

    /// Convenience: evaluate against a fresh registry snapshot now.
    pub fn evaluate(&self) {
        self.evaluate_snapshot(&self.obs.metrics_snapshot(), self.obs.elapsed());
    }

    /// Currently firing alerts, oldest raise first.
    pub fn active(&self) -> Vec<ActiveAlert> {
        let rules = self.rules.lock();
        let mut out: Vec<ActiveAlert> = rules
            .iter()
            .filter(|st| st.active)
            .map(|st| ActiveAlert {
                expr: st.rule.expr.clone(),
                since: st.raised_at,
                value: st.raised_value,
            })
            .collect();
        out.sort_by_key(|a| a.since);
        out
    }

    /// Installs this engine as a pinned collector: every collector pass
    /// (admin scrape or sampler tick) re-evaluates the rules after the
    /// capacity analyzer and the engine's own collectors have refreshed
    /// their gauges. Returns a handle for `/healthz` reporting. No-op
    /// wiring on a disabled `Obs`.
    pub fn install(obs: &Obs, rules: Vec<AlertRule>) -> Arc<AlertEngine> {
        let engine = Arc::new(AlertEngine::new(obs, rules));
        if obs.is_enabled() {
            let e = Arc::clone(&engine);
            obs.add_pinned_collector(move || e.evaluate());
        }
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        let r = AlertRule::parse("rho > 0.9 for 5s").unwrap();
        assert_eq!(r.metric, MetricRef::MaxRho);
        assert_eq!(r.cmp, Cmp::Gt);
        assert!((r.threshold - 0.9).abs() < 1e-12);
        assert_eq!(r.hold, Duration::from_secs(5));
        assert_eq!(r.expr, "rho > 0.9 for 5s");

        let r = AlertRule::parse("rho(sel_expensive) >= 0.95").unwrap();
        assert_eq!(r.metric, MetricRef::NodeRho("sel_expensive".to_string()));
        assert_eq!(r.hold, Duration::ZERO);

        let r = AlertRule::parse("headroom < 1.5 for 250ms").unwrap();
        assert_eq!(r.metric, MetricRef::Headroom);
        assert_eq!(r.hold, Duration::from_millis(250));

        let r = AlertRule::parse("egress.x.e2e_latency_ns:p99 > 5e7 for 1m").unwrap();
        assert_eq!(r.metric, MetricRef::Quantile("egress.x.e2e_latency_ns".to_string(), 0.99));
        assert_eq!(r.hold, Duration::from_secs(60));

        let r = AlertRule::parse("queue.a->b.occupancy <= 400").unwrap();
        assert_eq!(r.metric, MetricRef::Plain("queue.a->b.occupancy".to_string()));
        assert_eq!(r.cmp, Cmp::Le);
    }

    #[test]
    fn parse_errors_are_messages_not_panics() {
        for bad in [
            "",
            "rho",
            "rho >",
            "rho > fast",
            "rho ~ 0.9",
            "rho > 0.9 for",
            "rho > 0.9 in 5s",
            "rho > 0.9 for 5",
            "rho > 0.9 for 5parsecs",
            "rho > 0.9 for -1s",
            "rho() > 0.9",
            "rho > inf",
            ":p99 > 5",
            "lat:p0 > 5",
            "lat:p200 > 5",
        ] {
            let err = AlertRule::parse(bad).expect_err(bad);
            assert!(!err.is_empty(), "error for `{bad}` carries a message");
        }
    }

    #[test]
    fn resolves_aliases_quantiles_and_plain_metrics() {
        let obs = Obs::enabled();
        obs.gauge("capacity.max_rho_ppm").set(930_000);
        obs.gauge("capacity.node.agg.rho_ppm").set(450_000);
        obs.gauge("capacity.headroom_ppm").set(1_075_000);
        obs.counter("restarts").add(3);
        let h = obs.histogram("lat");
        h.record(100);
        h.record(1_000);
        h.record(1_000_000);
        let m = obs.metrics_snapshot();

        let v = |s: &str| MetricRef::parse(s).unwrap().resolve(&m);
        assert!((v("rho").unwrap() - 0.93).abs() < 1e-9);
        assert!((v("rho(agg)").unwrap() - 0.45).abs() < 1e-9);
        assert!((v("headroom").unwrap() - 1.075).abs() < 1e-9);
        assert_eq!(v("restarts"), Some(3.0));
        assert!(v("lat:p99").unwrap() >= 1_000_000.0);
        assert!(v("lat:p50").unwrap() < v("lat:p99").unwrap());
        assert_eq!(v("rho(missing)"), None);
        assert_eq!(v("nonexistent"), None);
        assert_eq!(v("restarts:p99"), None, "quantile of a non-histogram is absent");
    }

    #[test]
    fn raise_clear_hysteresis() {
        let obs = Obs::enabled();
        let g = obs.gauge("depth");
        let engine =
            AlertEngine::new(&obs, vec![AlertRule::parse("depth > 10 for 100ms").unwrap()]);
        let at = |ms: u64| Duration::from_millis(ms);
        let eval = |t: u64| engine.evaluate_snapshot(&obs.metrics_snapshot(), at(t));

        // Condition true but not yet held long enough: no alert.
        g.set(50);
        eval(0);
        eval(50);
        assert!(engine.active().is_empty());
        // Held for >= 100ms: raised exactly once.
        eval(120);
        eval(130);
        let active = engine.active();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].expr, "depth > 10 for 100ms");
        assert_eq!(active[0].since, at(120));
        assert!((active[0].value - 50.0).abs() < 1e-9);

        // A dip shorter than the hold must NOT clear.
        g.set(0);
        eval(150);
        g.set(50);
        eval(200);
        assert_eq!(engine.active().len(), 1, "short dip cleared the alert");

        // Condition false continuously for >= hold: cleared.
        g.set(0);
        eval(300);
        eval(420);
        assert!(engine.active().is_empty());

        // Exactly one raise + one clear in the journal, and the gauge is 0.
        let kinds: Vec<&str> = obs.journal_snapshot().iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds, vec!["alert-raised", "alert-cleared"]);
        assert_eq!(obs.gauge("alert.depth > 10 for 100ms.active").get(), 0);
    }

    #[test]
    fn zero_hold_transitions_immediately_and_missing_metric_is_false() {
        let obs = Obs::enabled();
        let engine = AlertEngine::new(&obs, vec![AlertRule::parse("ghost > 1").unwrap()]);
        engine.evaluate_snapshot(&obs.metrics_snapshot(), Duration::from_millis(1));
        assert!(engine.active().is_empty(), "missing metric never fires");

        obs.gauge("ghost").set(5);
        engine.evaluate_snapshot(&obs.metrics_snapshot(), Duration::from_millis(2));
        assert_eq!(engine.active().len(), 1, "zero hold raises on first true eval");
        assert_eq!(obs.gauge("alert.ghost > 1.active").get(), 1);
        // Metric vanishing (snapshot without it) clears immediately too.
        engine.evaluate_snapshot(&[], Duration::from_millis(3));
        assert!(engine.active().is_empty());
    }

    #[test]
    fn install_evaluates_on_collector_pass_and_survives_clear() {
        let obs = Obs::enabled();
        obs.gauge("q").set(99);
        let engine = AlertEngine::install(&obs, vec![AlertRule::parse("q > 10").unwrap()]);
        obs.clear_collectors(); // engine teardown must not kill alerting
        obs.run_collectors();
        assert_eq!(engine.active().len(), 1);
        assert_eq!(
            obs.journal_snapshot().iter().filter(|r| r.event.kind() == "alert-raised").count(),
            1
        );
    }

    #[test]
    fn concurrent_evaluation_emits_each_transition_once() {
        let obs = Obs::enabled();
        obs.gauge("hot").set(7);
        let engine = Arc::new(AlertEngine::new(&obs, vec![AlertRule::parse("hot > 1").unwrap()]));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let e = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        e.evaluate();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("evaluator thread");
        }
        let raised =
            obs.journal_snapshot().iter().filter(|r| r.event.kind() == "alert-raised").count();
        assert_eq!(raised, 1, "800 concurrent evaluations produced {raised} raises");
    }

    #[test]
    fn disabled_obs_engine_is_inert() {
        let obs = Obs::disabled();
        let engine = AlertEngine::install(&obs, vec![AlertRule::parse("rho > 0.5").unwrap()]);
        obs.run_collectors();
        engine.evaluate();
        assert!(engine.active().is_empty());
        assert!(obs.journal_snapshot().is_empty());
    }
}
