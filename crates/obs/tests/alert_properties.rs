//! Hostile input for the alert-rule parser. `AlertRule::parse` reads text
//! an operator typed (`serve --alert`): whatever the text, it answers `Ok`
//! or `Err` and never panics. An `Ok` rule has a finite threshold and, for
//! a `NAME:pNN` reference, a quantile inside (0, 1); its canonical `expr`
//! parses back to the same rule.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use hmts_obs::alert::{AlertRule, MetricRef};

/// Tokens at the edges of the grammar's numbers, quantiles and durations.
const HOSTILE: [&str; 24] = [
    "1e309",
    "-1e309",
    "NaN",
    "-0",
    "inf",
    "-inf",
    "1e300s",
    "5",
    "5µs",
    "5sµ",
    "µ",
    ":p0",
    ":p100",
    "x:p0",
    "x:p100",
    "x:pNaN",
    "x:p1e-323",
    "x:p99.99999999999999",
    "x:p-0",
    "rho()",
    "rho(",
    "for",
    ">",
    "",
];

/// Valid rules, one piece per slot: metric, operator, threshold, hold.
const METRICS: [&str; 5] =
    ["rho", "headroom", "rho(agg[0])", "queue.a->b.occupancy", "egress.x.e2e_latency_ns:p99"];
const OPS: [&str; 4] = [">", ">=", "<", "<="];
const THRESHOLDS: [&str; 4] = ["0.9", "5e7", "-3", "0"];
const HOLDS: [&str; 5] = ["", "5s", "500ms", "1m", "0s"];

/// Checks the parser's contract on `text`.
fn check(text: &str) -> Result<(), TestCaseError> {
    let Ok(rule) = AlertRule::parse(text) else { return Ok(()) };
    prop_assert!(rule.threshold.is_finite(), "{text:?} parsed to {rule:?}");
    if let MetricRef::Quantile(_, q) = rule.metric {
        prop_assert!(q > 0.0 && q < 1.0, "{text:?} parsed to quantile {q}");
    }
    prop_assert_eq!(AlertRule::parse(&rule.expr), Ok(rule.clone()), "{text:?}");
    Ok(())
}

/// A valid rule with the token at `at` (of its 3 or 5) replaced by `token`.
fn one_token_replaced(pick: (usize, usize, usize, usize), at: usize, token: &str) -> String {
    let (m, o, t, h) = pick;
    let mut tokens = vec![METRICS[m], OPS[o], THRESHOLDS[t]];
    if !HOLDS[h].is_empty() {
        tokens.extend(["for", HOLDS[h]]);
    }
    let at = at % tokens.len();
    tokens[at] = token;
    tokens.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_text_is_answered_without_a_panic(
        grammar in "[ a-z0-9().:<>=_µ-]{0,40}",
        codes in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        check(&grammar)?;
        let unicode: String = codes.iter().filter_map(|&c| char::from_u32(c % 0x11_0000)).collect();
        check(&unicode)?;
    }

    #[test]
    fn a_valid_rule_with_one_hostile_token_stays_in_contract(
        pick in (0..METRICS.len(), 0..OPS.len(), 0..THRESHOLDS.len(), 0..HOLDS.len()),
        at in 0..5usize,
        hostile in 0..HOSTILE.len(),
        suffix in prop_oneof![Just(""), Just("s"), Just("ms"), Just("µs")],
    ) {
        check(&one_token_replaced(pick, at, HOSTILE[hostile]))?;
        // The hostile token glued to a unit, for the duration slot.
        check(&one_token_replaced(pick, at, &format!("{}{suffix}", HOSTILE[hostile])))?;
    }

    #[test]
    fn a_valid_rule_round_trips_through_its_canonical_text(
        pick in (0..METRICS.len(), 0..OPS.len(), 0..THRESHOLDS.len(), 0..HOLDS.len()),
    ) {
        let text = one_token_replaced(pick, 0, METRICS[pick.0]);
        prop_assert!(AlertRule::parse(&text).is_ok(), "{text:?}");
        check(&text)?;
    }
}
