//! **Figure 9 — HMTS vs GTS: queue memory over time.**
//!
//! See `hmts_bench::fig9` for the experiment description and the overhead
//! calibration. This binary emits the memory-over-time series of GTS-FIFO,
//! GTS-Chain, and HMTS (2 threads) on the 2-core simulator at paper scale,
//! plus an optional real-engine GTS run (`--scale k`, default 100×
//! compression) to confirm the burst/drain shape on real queues.

use hmts::prelude::*;
use hmts::workload::scenarios::{fig9_chain, Fig9Params, Fig9Scenario};
use hmts_bench::fig9::{run_all, Fig9Run};
use hmts_bench::{emit_csv, fmt_secs, parse_args, table};
use std::fmt::Write as _;

/// Runs the Fig. 9 chain on the real engine with observability enabled,
/// forcing one runtime GTS → HMTS placement switch, and writes the
/// Prometheus / JSON-journal / CSV-series snapshot under `dir`.
fn run_instrumented(dir: &std::path::Path, seed: u64) {
    use std::time::Duration;
    eprintln!("fig09: instrumented real-engine run (GTS -> HMTS switch) ...");
    // Heavy time compression: the observability demo cares about the
    // scheduler's decisions, not the paper-scale memory curve.
    let p = Fig9Params { speedup: 2_000.0, seed, ..Fig9Params::default() };
    let Fig9Scenario { chain: s, handle } = fig9_chain(&p);
    let topo = Topology::of(&s.graph);
    let obs = Obs::enabled();
    let cfg = EngineConfig { obs: obs.clone(), stall_threshold: 500, ..EngineConfig::default() };
    let mut engine =
        Engine::with_config(s.graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo), cfg)
            .expect("valid graph and plan");
    engine.start().expect("engine starts");
    let sampler = obs.start_sampler(Duration::from_millis(2));
    std::thread::sleep(Duration::from_millis(25));
    // One adaptive round journals a `repartition` decision once the cost
    // model has samples; if it did not switch, force the measured
    // stall-avoiding placement so the journal always holds a mode switch.
    let adaptation =
        adapt_once(&mut engine, &AdaptiveConfig { min_samples: 1, ..AdaptiveConfig::default() })
            .expect("adaptation round");
    if adaptation != Adaptation::Switched {
        let groups = stall_avoiding(&engine.cost_graph());
        engine
            .switch_plan(ExecutionPlan::hmts(to_partitioning(&groups), StrategyKind::Fifo, 2))
            .expect("runtime switch");
    }
    let report = engine.wait();
    drop(sampler);
    let paths =
        obs.write_snapshot(dir).expect("write metrics snapshot").expect("observability enabled");
    let journal = obs.journal_snapshot();
    let mut kinds: std::collections::BTreeMap<&str, usize> = Default::default();
    for r in &journal {
        *kinds.entry(r.event.kind()).or_default() += 1;
    }
    println!(
        "instrumented run: {} results in {}, {} metrics, {} journal events",
        handle.count(),
        fmt_secs(report.elapsed.as_secs_f64()),
        obs.metrics_snapshot().len(),
        journal.len(),
    );
    let counts: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!("journal events: {}", counts.join(" "));
    println!(
        "wrote {} / {} / {}",
        paths.metrics_prom.display(),
        paths.events_json.display(),
        paths.series_csv.display(),
    );
}

fn main() {
    let args = parse_args(100.0);
    let m = if args.paper { 10 } else { 1 };
    eprintln!("fig09: simulating {} elements on 2 virtual cores...", 70_000 * m);
    let runs = run_all(m, args.seed);

    // Memory-over-time CSV (long format: strategy,time_s,queued_elements).
    let mut csv = String::from("strategy,time_s,queued_elements\n");
    for Fig9Run { name, result } in &runs {
        for &(t, mem) in &result.memory_timeline {
            let _ = writeln!(csv, "{name},{t:.3},{mem}");
        }
    }
    emit_csv(&args.out, "fig09_memory.csv", &csv);

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.result.peak_memory.to_string(),
                fmt_secs(r.result.completion_time),
                r.result.outputs.to_string(),
            ]
        })
        .collect();
    println!("\n{}", table(&["strategy", "peak_queued", "completion", "results"], &rows));
    println!(
        "Paper's claims to check: all curves start at ≈{} queued elements (the \
         first burst); Chain's memory stays below FIFO's; HMTS finishes at ≈162 s \
         while GTS needs ≈260 s.",
        10_000 * m
    );

    if let Some(dir) = &args.metrics {
        run_instrumented(dir, args.seed);
    }

    // Optional real-engine shape check (time-compressed; single core, so
    // only the memory shape — burst to ~10 000, drain, second burst — is
    // comparable, not the HMTS-vs-GTS completion gap).
    if args.scale > 1.0 {
        let p = Fig9Params { speedup: args.scale, seed: args.seed, ..Fig9Params::default() };
        eprintln!(
            "fig09: real-engine GTS-FIFO run at {}x compression (~{}s wall)...",
            args.scale,
            (160.0 / args.scale * 1.3).ceil()
        );
        let Fig9Scenario { chain: s, handle } = fig9_chain(&p);
        let topo = Topology::of(&s.graph);
        let cfg = EngineConfig {
            memory_sample_interval: Some(std::time::Duration::from_secs_f64(
                (1.0 / args.scale).max(0.002),
            )),
            ..EngineConfig::default()
        };
        let report =
            Engine::run_with_config(s.graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo), cfg)
                .expect("engine runs");
        assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
        let mut csv = String::from("time_s,queued_elements\n");
        for &(t, v) in report.memory_series.samples() {
            let _ = writeln!(csv, "{:.4},{v}", t.as_secs_f64() * args.scale);
        }
        emit_csv(&args.out, "fig09_memory_real_gts.csv", &csv);
        println!(
            "real GTS-FIFO: peak_queued={} results={} wall={} (times in the CSV are \
             re-expanded to paper scale)",
            report.peak_queue_memory,
            handle.count(),
            fmt_secs(report.elapsed.as_secs_f64()),
        );
    }
}
