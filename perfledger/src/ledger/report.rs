//! The metric catalogue (the names, units, directions and bounds that
//! `BENCHMARK.json` repeats) and the result rendering.

/// Median of the values; sorts them. The mean of the middle two for an
/// even count. `NaN` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Mean of the best quarter of the values (at least one): the passes that
/// ran while the host was in its fast state, see `ledger/host.rs`. Sorts
/// them. `NaN` when empty.
pub fn best_quarter(values: &mut [f64], better: Better) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    if better == Better::Higher {
        values.reverse();
    }
    let best = &values[..values.len().div_ceil(4)];
    best.iter().sum::<f64>() / best.len() as f64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the engine sees; reported by every workload with
/// `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_tps", "tuples/s", Higher, 0.15),
    e2e("lat_lo_p50_us", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers; reported by every workload with `--trace 1`. Counts and
/// busy times are 0 on a workload that does not run the layer.
pub const PER_LAYER: &[MetricDef] = &[
    layer("lat_lo_p99_us", "us", Lower),
    layer("lat_hi_p50_us", "us", Lower),
    layer("lat_hi_p99_us", "us", Lower),
    layer("workload.source.emit_s", "s", Lower),
    layer("workload.source.lag_max_ms", "ms", Lower),
    layer("streams.queue.transfers", "count", Lower),
    layer("streams.queue.peak_depth", "count", Lower),
    layer("streams.queue.dropped", "count", Lower),
    layer("streams.queue.push_pop_ns", "ns", Lower),
    layer("streams.queue.push_peek_pop_ns", "ns", Lower),
    layer("streams.queue.xthread_ns", "ns", Lower),
    layer("streams.queue.bounded_block_ns", "ns", Lower),
    layer("core.executor.di_hop_ns", "ns", Lower),
    layer("core.executor.di_hop_stats_ns", "ns", Lower),
    layer("core.executor.queue_hop_ns", "ns", Lower),
    layer("core.executor.overhead_s", "s", Lower),
    layer("core.executor.overhead_ns_per_tuple", "ns", Lower),
    layer("core.strategy.select_ns.fifo_6", "ns", Lower),
    layer("core.strategy.select_ns.chain_6", "ns", Lower),
    layer("core.thread_scheduler.dispatches", "count", Lower),
    layer("core.thread_scheduler.preemptions", "count", Lower),
    layer("core.thread_scheduler.dispatches_per_ktuple", "ratio", Lower),
    layer("core.partition.utilization.max", "ratio", Lower),
    layer("operators.busy_s", "s", Lower),
    layer("operators.busy_frac", "ratio", Lower),
    layer("operators.tuples_in", "count", Lower),
    layer("operators.tuples_out", "count", Lower),
    layer("operators.expr.eval_ns", "ns", Lower),
    layer("operators.filter.process_ns", "ns", Lower),
    layer("operators.aggregate.process_ns", "ns", Lower),
    layer("operators.shj.process_ns", "ns", Lower),
    layer("shard.split_merge_ns", "ns", Lower),
    layer("shard.imbalance", "ratio", Lower),
    layer("shard.replica_tuples.max", "count", Lower),
    layer("shard.speedup_vs_unsharded", "ratio", Higher),
    layer("net.wire.encode_ns", "ns", Lower),
    layer("net.wire.decode_ns", "ns", Lower),
    layer("net.wire.bytes_per_tuple", "bytes", Lower),
    layer("net.ingest.tuples", "count", Higher),
    layer("net.ingest.bytes", "count", Lower),
    layer("net.ingest.stall_frac", "ratio", Lower),
    layer("net.egress.tuples", "count", Higher),
    layer("net.client.rtt_p50_us", "us", Lower),
    layer("net.client.rtt_p99_us", "us", Lower),
    layer("obs.overhead_frac", "ratio", Lower),
    layer("obs.span_ns", "ns", Lower),
    layer("reconcile.predicted_s", "s", Lower),
    layer("reconcile.gap_frac", "ratio", Lower),
    layer("host.speed", "ratio", Higher),
];

/// What one invocation measured.
pub struct Outcome {
    /// Results the reference expected, over all passes.
    pub attempted: u64,
    /// Missing + wrong + dropped results, engine errors, worker panics.
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Further `"key": <json>` fields of the `--out` record: pass counts,
    /// sample counts, frozen sizes.
    pub detail: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The metrics in catalogue order as a JSON object; an error names the
    /// first metric that is missing or not a finite number.
    fn metrics_json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(defs.len());
        for d in defs {
            let v =
                self.value(d.name).ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is {v}", d.name));
            }
            fields.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }

    /// The one-line result the driver reads off the end of stdout.
    pub fn result_line(&self, defs: &[MetricDef]) -> Result<String, String> {
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics_json(defs)?
        ))
    }

    /// The full record written to `--out`: the result plus what it was
    /// measured on. Ends with `"claim": null` — a ledger states no gain.
    pub fn record(
        &self,
        defs: &[MetricDef],
        context: &[(&'static str, String)],
    ) -> Result<String, String> {
        let mut fields: Vec<String> =
            context.iter().chain(&self.detail).map(|(k, v)| format!("  \"{k}\": {v}")).collect();
        fields.push(format!("  \"correct\": {}", self.failed == 0));
        fields.push(format!("  \"attempted\": {}", self.attempted));
        fields.push(format!("  \"failed\": {}", self.failed));
        fields.push(format!(
            "  \"failed_frac\": {}",
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        fields.push(format!("  \"metrics\": {}", self.metrics_json(defs)?));
        fields.push("  \"claim\": null".to_string());
        Ok(format!("{{\n{}\n}}\n", fields.join(",\n")))
    }
}

/// A JSON string literal (names and versions here are plain ASCII; quotes,
/// backslashes and control characters are escaped all the same).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn best_quarter_takes_the_right_end() {
        let mut v = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0];
        assert_eq!(best_quarter(&mut v, Better::Lower), 2.0); // 1, 2, 3
        assert_eq!(best_quarter(&mut v, Better::Higher), 8.0); // 9, 8, 7
        assert_eq!(best_quarter(&mut [4.0], Better::Higher), 4.0);
        assert!(best_quarter(&mut [], Better::Lower).is_nan());
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics: END_TO_END.iter().map(|d| (d.name, 1.25)).collect(),
            detail: vec![("passes", "3".into())],
        };
        let line = outcome.result_line(END_TO_END).unwrap();
        let json = hmts::obs::json::parse(&line).unwrap();
        let keys: Vec<&str> = json.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = json.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m["setup_s"].get("unit").unwrap().as_str(), Some("s"));
        let record = outcome.record(END_TO_END, &[("workload", json_string("w\"x"))]).unwrap();
        assert!(record.trim_end().ends_with("\"claim\": null\n}"));
        assert!(hmts::obs::json::parse(&record).is_ok(), "{record}");

        let mut broken = outcome;
        broken.metrics[0].1 = f64::NAN;
        assert!(broken.result_line(END_TO_END).is_err());
        broken.metrics.remove(0);
        assert!(broken.result_line(END_TO_END).is_err());
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }
}
