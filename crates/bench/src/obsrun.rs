//! Shared `--metrics <dir>` / `--trace <dir>` runners for the figure
//! binaries.
//!
//! Every figure binary accepts both flags; each passes its own
//! representative workload (graph + plan + engine config) here.
//! [`metrics_run`] executes it with the full observability stack on and
//! writes the Prometheus snapshot, the JSON scheduler-event journal, and
//! the CSV sampler series; [`trace_run`] executes it with sampled
//! per-tuple tracing and writes the Chrome/Perfetto timeline plus the
//! per-operator latency breakdown. [`run_traced`] is the `--trace` run the
//! Fig. 9/10 chain binaries share.

use std::path::Path;
use std::time::Duration;

use hmts::obs::export::{latency_breakdown, OpLatency};
use hmts::prelude::*;
use hmts::workload::scenarios::{fig9_chain, Fig9Params};

use crate::{fmt_secs, table};

/// Runs `graph` under `plan` with metrics, journal, and sampler enabled,
/// then writes the snapshot files under `dir`. Panics on engine errors —
/// these runs guard figure reproductions, so failing loudly is a feature.
pub fn metrics_run(
    dir: &Path,
    label: &str,
    graph: QueryGraph,
    plan: ExecutionPlan,
    base_cfg: EngineConfig,
) -> EngineReport {
    eprintln!("{label}: instrumented run, metrics snapshot -> {} ...", dir.display());
    let obs = Obs::enabled();
    let cfg = EngineConfig { obs: obs.clone(), ..base_cfg };
    let sampler = obs.start_sampler(Duration::from_millis(2));
    let report = Engine::run_with_config(graph, plan, cfg).expect("engine runs");
    drop(sampler);
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    let paths =
        obs.write_snapshot(dir).expect("write metrics snapshot").expect("observability enabled");
    let journal = obs.journal_snapshot();
    let mut kinds: std::collections::BTreeMap<&str, usize> = Default::default();
    for r in &journal {
        *kinds.entry(r.event.kind()).or_default() += 1;
    }
    let counts: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!(
        "{label}: instrumented run finished in {}: {} metrics, {} journal events ({})",
        fmt_secs(report.elapsed.as_secs_f64()),
        obs.metrics_snapshot().len(),
        journal.len(),
        counts.join(" "),
    );
    println!(
        "wrote {} / {} / {}",
        paths.metrics_prom.display(),
        paths.events_json.display(),
        paths.series_csv.display(),
    );
    report
}

/// Runs `graph` under `plan` with 1-in-`sample_every` tuple tracing and
/// writes `trace.json` + `latency_breakdown.csv` under `dir`. Returns the
/// per-operator latency rows.
pub fn trace_run(
    dir: &Path,
    label: &str,
    sample_every: u64,
    seed: u64,
    graph: QueryGraph,
    plan: ExecutionPlan,
    base_cfg: EngineConfig,
) -> Vec<OpLatency> {
    eprintln!("{label}: traced run (1-in-{sample_every} sampling) -> {} ...", dir.display());
    let obs = Obs::with_config(ObsConfig {
        journal_capacity: 1 << 16,
        trace: Some(TraceConfig { sample_every, seed, buffer_capacity: 1 << 18 }),
    });
    let cfg = EngineConfig { obs: obs.clone(), ..base_cfg };
    let report = Engine::run_with_config(graph, plan, cfg).expect("engine runs");
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    let spans = obs.trace_snapshot();
    let paths = obs.write_trace(dir).expect("write trace files").expect("tracing was enabled");
    let rows = latency_breakdown(&spans);
    println!(
        "{label}: traced run finished in {}: {} spans recorded ({} dropped)",
        fmt_secs(report.elapsed.as_secs_f64()),
        spans.len(),
        obs.tracer().map(|t| t.dropped()).unwrap_or(0),
    );
    println!("{}", breakdown_table(&rows));
    println!(
        "wrote {} (open in ui.perfetto.dev or chrome://tracing) and {}",
        paths.trace_json.display(),
        paths.breakdown_csv.display(),
    );
    rows
}

/// Tuple-trace sampling rate used by the `--trace` runs: with ≈70 000
/// source elements, 1-in-16 keeps the span buffer comfortably inside its
/// ring while still giving every operator thousands of samples.
pub const TRACE_SAMPLE_EVERY: u64 = 16;

/// Replays the Fig. 9/10 chain on the real engine under a two-partition
/// HMTS plan with per-tuple trace sampling, through [`trace_run`], and
/// returns the per-operator rows so callers can fold them into their own
/// summaries. The run is heavily time-compressed: the point is latency
/// *attribution* under the paper's bursty workload, not the paper-scale
/// completion gap.
pub fn run_traced(dir: &Path, seed: u64) -> Vec<OpLatency> {
    let s = fig9_chain(&Fig9Params { speedup: 2_000.0, seed, ..Fig9Params::default() }).chain;
    // The paper's Fig. 9 placement: {projection, cheap selection} and
    // {expensive selection, sink} as two virtual operators on a two-worker
    // pool, so the trace shows both intra-partition DI hops and the
    // decoupling queue between the partitions.
    let part = s.two_vos();
    trace_run(
        dir,
        "fig9 chain",
        TRACE_SAMPLE_EVERY,
        seed,
        s.graph,
        ExecutionPlan::hmts(part, StrategyKind::Fifo, 2),
        EngineConfig::default(),
    )
}

/// Renders per-operator latency rows as an aligned terminal table.
pub fn breakdown_table(rows: &[OpLatency]) -> String {
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.site.to_string(),
                if r.partition == u32::MAX { "-".into() } else { r.partition.to_string() },
                r.processed.to_string(),
                fmt_secs(r.processing_ns[0] as f64 * 1e-9),
                fmt_secs(r.processing_ns[2] as f64 * 1e-9),
                fmt_secs(r.queue_wait_ns[0] as f64 * 1e-9),
                fmt_secs(r.queue_wait_ns[2] as f64 * 1e-9),
            ]
        })
        .collect();
    table(
        &["operator", "part", "tuples", "proc p50", "proc p99", "wait p50", "wait p99"],
        &rendered,
    )
}
