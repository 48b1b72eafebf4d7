//! One invocation of the benchmark on one workload: the end-to-end run
//! (`--trace 0`) and the traced run (`--trace 1`), each a sequence of
//! passes inside the `--seconds` budget, reduced to medians.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use super::gen::sub_seed;
use super::host;
use super::probes;
use super::report::{best_quarter, median, Better, Outcome};
use super::workloads::{run_pass, Load, PassResult, PassSpec, TraceData, Workload};

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// How long to measure for.
    pub seconds: f64,
    /// Multiplies every frozen tuple count (1.0 except in smoke tests).
    pub scale: f64,
    /// Where the traced run writes its kept spans, as JSON lines.
    pub trace_out: Option<PathBuf>,
}

/// Scheduled length of one paced pass, and of the two untraced passes the
/// traced run takes the 99th percentiles from (which need more samples).
const PACED_PASS_S: f64 = 0.3;
const TAIL_PASS_S: f64 = 1.0;
/// Rounds behind every reported median, whatever the budget.
const MIN_ROUNDS: usize = 3;
/// Share of `--seconds` the traced run spends on saturation passes.
const TRACED_SATURATION_SHARE: f64 = 0.3;

// Phase tags of the per-pass sub-seeds.
const WARM_UP: u64 = 0;
const SATURATION: u64 = 1;
const LOW_RATE: u64 = 2;
const HIGH_RATE: u64 = 3;
const TRACED: u64 = 16;

impl RunConfig {
    fn scaled(&self, tuples: f64) -> usize {
        ((tuples * self.scale) as usize).max(64)
    }

    fn saturation_tuples(&self) -> usize {
        self.scaled(self.workload.saturation_tuples() as f64)
    }

    fn saturation(&self, phase: u64, pass: u64, traced: bool) -> PassSpec {
        PassSpec {
            workload: self.workload,
            load: Load::Saturate,
            tuples: self.saturation_tuples(),
            seed: sub_seed(self.seed, phase, pass),
            traced,
        }
    }

    fn paced(&self, phase: u64, pass: u64, rate: f64, seconds: f64, traced: bool) -> PassSpec {
        PassSpec {
            workload: self.workload,
            load: Load::Paced { rate },
            tuples: self.scaled(rate * seconds),
            seed: sub_seed(self.seed, phase, pass),
            traced,
        }
    }
}

/// Runs passes, counting what they attempted and what failed, and keeping
/// the host calibrations taken before each.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    host_ns: Vec<f64>,
}

impl Tally {
    /// Runs the pass and reports it on stderr, one line per pass.
    fn run(&mut self, spec: PassSpec) -> PassResult {
        let pass = run_pass(spec);
        self.attempted += pass.expected_results;
        self.failed += pass.failures;
        self.host_ns.extend(&pass.host_ns);
        let host_ns = pass.host_ns.iter().copied().fold(f64::INFINITY, f64::min);
        let p50 = pass.latencies.as_ref().and_then(|l| l.quantile(0.5).ok());
        eprintln!(
            "pass {:?}{} host_speed {:.3} tuples {} setup_s {:.4} wall_s {:.4} tps {:.0} p50_ns {} \
             failures {}",
            spec.load,
            if spec.traced { " traced" } else { "" },
            host::REFERENCE_NS / host_ns,
            spec.tuples,
            pass.setup_s,
            pass.wall_s,
            pass.throughput_tps(),
            p50.map_or("-".to_string(), |ns| ns.to_string()),
            pass.failures,
        );
        pass
    }

    /// One untimed pass at 5 % scale: fills allocator caches and faults in
    /// the code before anything is measured.
    fn warm_up(&mut self, cfg: &RunConfig) {
        let mut spec = cfg.saturation(WARM_UP, 0, false);
        spec.tuples = (spec.tuples / 20).max(64);
        self.run(spec);
    }

    /// The speed of the host's fast state over the passes so far, as a share
    /// of the reference host's: 1.0 there, about 0.71 while both of its
    /// vCPUs are in their slow state.
    fn host_speed(&self) -> f64 {
        host::REFERENCE_NS / best_quarter(&mut self.host_ns.clone(), Better::Lower)
    }

    /// The pass's `q`-quantile in µs. A pass too short to support the
    /// quantile counts as a failure.
    fn latency_us(&mut self, pass: &PassResult, q: f64) -> Option<f64> {
        let ns = pass.latencies.as_ref().and_then(|l| l.quantile(q).ok());
        self.failed += u64::from(ns.is_none());
        ns.map(|ns| ns as f64 / 1e3)
    }
}

/// Sum from +0.0 (`Iterator::sum` starts from −0.0, which prints as `-0`).
fn sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

fn median_of(passes: &[PassResult], value: impl Fn(&PassResult) -> f64) -> f64 {
    median(&mut passes.iter().map(value).collect::<Vec<_>>())
}

fn samples(passes: &[PassResult]) -> usize {
    passes.iter().filter_map(|p| p.latencies.as_ref()).map(|l| l.len()).sum()
}

/// The mean over the best quarter of the passes.
fn best_of(passes: &[PassResult], better: Better, value: impl Fn(&PassResult) -> f64) -> f64 {
    best_quarter(&mut passes.iter().map(value).collect::<Vec<_>>(), better)
}

/// `--trace 0`: rounds of one saturation pass (for `throughput_tps` and
/// `setup_s`) and one open-loop pass at the low frozen rate (for latency),
/// until `--seconds` leaves no room for another round. Each metric is the
/// mean over the best quarter of its passes, at reference speed — see
/// `ledger/host.rs` for why not the median, and why scaled.
pub fn end_to_end(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    tally.warm_up(cfg);
    let (lo, _) = cfg.workload.paced_rates();
    let started = Instant::now();
    let (mut sat, mut low) = (Vec::new(), Vec::new());
    loop {
        let began = Instant::now();
        let round = sat.len() as u64;
        sat.push(tally.run(cfg.saturation(SATURATION, round, false)));
        low.push(tally.run(cfg.paced(LOW_RATE, round, lo, PACED_PASS_S, false)));
        let next_would_end = started.elapsed() + began.elapsed();
        if sat.len() >= MIN_ROUNDS && next_would_end.as_secs_f64() > cfg.seconds {
            break;
        }
    }

    let speed = tally.host_speed();
    let mut p50s: Vec<f64> = low.iter().filter_map(|p| tally.latency_us(p, 0.5)).collect();
    let raw_tps = best_of(&sat, Better::Higher, PassResult::throughput_tps);
    let raw_lat = best_quarter(&mut p50s, Better::Lower);
    let raw_setup = best_of(&sat, Better::Lower, |p| p.setup_s);
    let metrics = vec![
        ("throughput_tps", raw_tps / speed),
        ("lat_lo_p50_us", raw_lat * speed),
        ("setup_s", raw_setup * speed),
    ];
    let detail = vec![
        ("rounds", sat.len().to_string()),
        ("saturation_tuples_per_pass", cfg.saturation_tuples().to_string()),
        ("rate_lo_tps", lo.to_string()),
        ("lat_lo_samples", samples(&low).to_string()),
        ("host_speed", speed.to_string()),
        ("raw_throughput_tps", raw_tps.to_string()),
        ("raw_lat_lo_p50_us", raw_lat.to_string()),
        ("raw_setup_s", raw_setup.to_string()),
        ("median_throughput_tps", median_of(&sat, PassResult::throughput_tps).to_string()),
    ];
    Outcome { attempted: tally.attempted, failed: tally.failed, metrics, detail }
}

/// The span name of a graph node: the shard rewrite names replica `i` of
/// `op` `op[i]`, while its span wrapper is `op` (the original, `i = 0`) or
/// `op#i` (a copy made by `replicate`).
fn span_name(graph_name: &str) -> String {
    match hmts_shard::names::parse_replica(graph_name) {
        Some((base, 0)) => base.to_string(),
        Some((base, i)) => format!("{base}#{i}"),
        None => graph_name.to_string(),
    }
}

/// Share of the pass that the operator spans of its busiest virtual
/// operator cover.
fn max_partition_utilization(pass: &PassResult, trace: &TraceData) -> f64 {
    trace
        .partitions
        .iter()
        .map(|members| {
            let names: Vec<String> = members.iter().map(|m| span_name(m)).collect();
            let ns: u64 =
                trace.nodes.iter().filter(|n| names.contains(&n.name)).map(|n| n.total_ns).sum();
            ns as f64 / 1e9 / pass.wall_s
        })
        .fold(0.0, f64::max)
}

/// The values of the engine's `Obs` registry whose names match.
fn registry<'a>(
    trace: &'a TraceData,
    matches: impl Fn(&str) -> bool + 'a,
) -> impl Iterator<Item = f64> + 'a {
    trace.metrics.iter().filter(move |(k, _)| matches(k)).map(|(_, v)| *v)
}

/// Counts and busy times of one traced saturation pass, and the
/// reconciliation of its wall against them and the probes' prices.
fn layer_metrics(
    pass: &PassResult,
    trace: &TraceData,
    probe: impl Fn(&str) -> f64,
) -> Vec<(&'static str, f64)> {
    let nodes = &trace.nodes;
    let total = |source: bool, field: fn(&super::spans::NodeTotals) -> u64| -> f64 {
        sum(nodes.iter().filter(|n| n.is_source == source).map(|n| field(n) as f64))
    };
    let (emit_ns, busy_ns) = (total(true, |n| n.total_ns), total(false, |n| n.total_ns));
    let (source_calls, calls_in) = (total(true, |n| n.calls), total(false, |n| n.calls));
    let counter = |name: &'static str| sum(registry(trace, move |k| k == name));
    let tuples = pass.spec.tuples as f64;
    let transfers = pass.transfers as f64;

    // The driving thread is the one with the most span time on it: the
    // source thread under DI, the worker under GTS.
    let mut by_thread = HashMap::<u32, u64>::new();
    for (thread, ns) in nodes.iter().flat_map(|n| &n.by_thread) {
        *by_thread.entry(*thread).or_default() += ns;
    }
    let driving_ns = by_thread.values().copied().max().unwrap_or(0) as f64;
    let overhead_s = pass.wall_s - driving_ns / 1e9;

    let replicas: Vec<f64> = nodes
        .iter()
        .filter(|n| n.name == "agg" || n.name.starts_with("agg#"))
        .map(|n| n.calls as f64)
        .collect();
    let (imbalance, replica_max) = if replicas.len() > 1 {
        let max = replicas.iter().copied().fold(0.0, f64::max);
        (max / (sum(replicas.iter().copied()) / replicas.len() as f64), max)
    } else {
        (0.0, 0.0)
    };

    // Each queued message pays a queue hop, each other operator call a DI
    // hop (both net of the passing selection the probes carry), each call
    // of a wrapped node a span; the operators and the source themselves
    // are the measured spans.
    let hop = |gross: &str| (probe(gross) - probe("operators.filter.process_ns")).max(0.0);
    let predicted_s = (emit_ns
        + busy_ns
        + transfers * hop("core.executor.queue_hop_ns")
        + (calls_in - transfers).max(0.0) * hop("core.executor.di_hop_stats_ns")
        + (calls_in + source_calls) * probe("obs.span_ns"))
        / 1e9;

    vec![
        ("workload.source.emit_s", emit_ns / 1e9),
        ("streams.queue.transfers", transfers),
        (
            "streams.queue.peak_depth",
            registry(trace, |k| k.ends_with(".high_water")).fold(0.0, f64::max),
        ),
        (
            "streams.queue.dropped",
            sum(registry(trace, |k| k.starts_with("queue.") && k.ends_with(".dropped"))),
        ),
        ("core.executor.overhead_s", overhead_s),
        ("core.executor.overhead_ns_per_tuple", overhead_s * 1e9 / tuples),
        ("core.thread_scheduler.dispatches", counter("ts.dispatches")),
        ("core.thread_scheduler.preemptions", counter("ts.preemptions")),
        ("core.thread_scheduler.dispatches_per_ktuple", counter("ts.dispatches") / (tuples / 1e3)),
        ("operators.busy_s", busy_ns / 1e9),
        ("operators.busy_frac", busy_ns / 1e9 / pass.wall_s),
        ("operators.tuples_in", calls_in),
        ("operators.tuples_out", total(false, |n| n.outputs)),
        ("shard.imbalance", imbalance),
        ("shard.replica_tuples.max", replica_max),
        ("net.ingest.tuples", pass.net.ingest_tuples as f64),
        ("net.ingest.bytes", pass.net.ingest_bytes as f64),
        ("net.ingest.stall_frac", pass.net.ingest_stall_ns as f64 / 1e9 / pass.wall_s),
        ("net.egress.tuples", pass.net.egress_tuples as f64),
        ("reconcile.predicted_s", predicted_s),
        ("reconcile.gap_frac", (pass.wall_s - predicted_s) / pass.wall_s),
    ]
}

/// `--trace 1`: the workload again with `Obs::enabled()` and a span around
/// every source and operator, alternating with untraced passes (the two
/// walls give `obs.overhead_frac`); the demoted latencies from untraced
/// paced passes; then the probes and the reconciliation row.
pub fn traced(cfg: &RunConfig) -> Outcome {
    let w = cfg.workload;
    let mut tally = Tally::default();
    tally.warm_up(cfg);
    let (lo, hi) = w.paced_rates();
    let started = Instant::now();

    let (mut bare, mut spanned) = (Vec::new(), Vec::new());
    loop {
        let began = Instant::now();
        let pair = bare.len() as u64;
        bare.push(tally.run(cfg.saturation(SATURATION, pair, false)));
        spanned.push(tally.run(cfg.saturation(SATURATION + TRACED, pair, true)));
        let next_would_end = (started.elapsed() + began.elapsed()).as_secs_f64();
        if bare.len() >= 2 && next_would_end > cfg.seconds * TRACED_SATURATION_SHARE {
            break;
        }
    }
    let low_tail = tally.run(cfg.paced(LOW_RATE, 0, lo, TAIL_PASS_S, false));
    let high_tail = tally.run(cfg.paced(HIGH_RATE, 0, hi, TAIL_PASS_S, false));
    let high_spanned = tally.run(cfg.paced(HIGH_RATE + TRACED, 0, hi, PACED_PASS_S, true));
    let bare_tps = median_of(&bare, PassResult::throughput_tps);
    let speedup = if w == Workload::KeyedAggShard2 {
        // Same rows, unsharded: the base of the ratio.
        let unsharded =
            PassSpec { workload: Workload::KeyedAgg, ..cfg.saturation(SATURATION, 0, false) };
        bare_tps / tally.run(unsharded).throughput_tps()
    } else {
        0.0
    };

    let remaining = (cfg.seconds - started.elapsed().as_secs_f64()).max(0.0);
    let per_probe = Duration::from_secs_f64(remaining / probes::TIMED_PROBES as f64);
    let mut metrics = probes::run_all(cfg.seed, per_probe);

    let pass = spanned.last().expect("at least two traced passes ran");
    let trace = pass.trace.as_ref().expect("a traced pass carries its trace");
    let high_trace = high_spanned.trace.as_ref().expect("a traced pass carries its trace");
    let probe = |name: &str| {
        metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v).expect("probe is in the list")
    };
    let from_pass = layer_metrics(pass, trace, probe);
    metrics.extend(from_pass);
    let (bare_wall, spanned_wall) =
        (median_of(&bare, |p| p.wall_s), median_of(&spanned, |p| p.wall_s));
    metrics.extend([
        ("lat_lo_p99_us", tally.latency_us(&low_tail, 0.99).unwrap_or(f64::NAN)),
        ("lat_hi_p50_us", tally.latency_us(&high_tail, 0.5).unwrap_or(f64::NAN)),
        ("lat_hi_p99_us", tally.latency_us(&high_tail, 0.99).unwrap_or(f64::NAN)),
        ("workload.source.lag_max_ms", high_spanned.source_lag_max_ns as f64 / 1e6),
        ("core.partition.utilization.max", max_partition_utilization(&high_spanned, high_trace)),
        ("shard.speedup_vs_unsharded", speedup),
        ("obs.overhead_frac", (spanned_wall - bare_wall) / bare_wall),
        ("host.speed", tally.host_speed()),
    ]);

    if let Some(path) = &cfg.trace_out {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            trace.recorder.write_jsonl(w.name(), &mut out)?;
            high_trace.recorder.write_jsonl(w.name(), &mut out)?;
            out.flush()
        });
        if let Err(e) = written {
            eprintln!("benchmark: cannot write spans to {}: {e}", path.display());
            tally.failed += 1;
        }
    }

    let mut barrier_rtt: Vec<f64> = pass.net.rtt_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let barrier_rtt_p50 = if barrier_rtt.is_empty() {
        "null".to_string()
    } else {
        median(&mut barrier_rtt).to_string()
    };
    let detail = vec![
        ("saturation_pass_pairs", bare.len().to_string()),
        ("saturation_tuples_per_pass", cfg.saturation_tuples().to_string()),
        ("rate_lo_tps", lo.to_string()),
        ("rate_hi_tps", hi.to_string()),
        ("untraced_wall_s", bare_wall.to_string()),
        ("traced_wall_s", spanned_wall.to_string()),
        ("reconciled_wall_s", pass.wall_s.to_string()),
        ("lat_lo_samples", samples(std::slice::from_ref(&low_tail)).to_string()),
        ("lat_hi_samples", samples(std::slice::from_ref(&high_tail)).to_string()),
        ("shard_speedup_base", "\"keyed_agg throughput_tps on the same rows\"".to_string()),
        ("obs_overhead_base", "\"untraced wall of the same workload\"".to_string()),
        ("served_barrier_rtt_p50_us", barrier_rtt_p50),
    ];
    Outcome { attempted: tally.attempted, failed: tally.failed, metrics, detail }
}
