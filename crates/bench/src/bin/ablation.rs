//! Ablations of the framework's own design choices (DESIGN.md §5, "beyond
//! the paper"). All runs use the deterministic 2–4-virtual-core simulator,
//! so the numbers are exactly reproducible.
//!
//! * **A — executor batch size**: how many elements a domain pops per
//!   scheduling decision. Larger batches amortize the dispatch cost but
//!   coarsen preemption.
//! * **B — level-3 worker count**: pool threads for a graph of parallel
//!   chains; completion should improve until `min(cores, parallelism)`.
//! * **C — placement algorithm, end-to-end**: the Fig. 11 comparison run
//!   *through the scheduler*. Finding: Algorithm 1's fewer/larger VOs pay
//!   the fewest queue transfers (its objective), but they run closer to
//!   saturation, so under real execution overheads their transient queue
//!   memory is *higher* than the baselines' over-split placements — the
//!   classic fusion-vs-parallelism trade-off, quantified.
//! * **D — level-2 strategy**: FIFO vs Chain vs an inverted-Chain strawman
//!   on the Fig. 9 workload (peak and average queue memory).

use hmts::prelude::*;
use hmts::scheduler::chain::compute_chain_segments;
use hmts::sim::{simulate, SimConfig, SimPolicy, SimStrategy, SimThreading};
use hmts::workload::random_dag::{random_cost_graph, RandomDagConfig};
use hmts_bench::fig9;
use hmts_bench::{emit_csv, fmt_secs, parse_args, table};
use std::fmt::Write as _;

fn avg_memory(tl: &[(f64, usize)]) -> f64 {
    let mut area = 0.0;
    for w in tl.windows(2) {
        area += w[0].1 as f64 * (w[1].0 - w[0].0);
    }
    area / tl.last().map(|p| p.0).unwrap_or(1.0).max(1e-9)
}

fn ablation_batch(csv: &mut String) -> Vec<Vec<String>> {
    let g = fig9::cost_graph();
    let sched = fig9::schedule(1);
    let mut rows = Vec::new();
    for batch in [1usize, 4, 16, 64, 256] {
        let cfg = SimConfig { batch, ..fig9::pipes_config(1) };
        let r = simulate(
            &g,
            std::slice::from_ref(&sched),
            &SimPolicy::gts(&g, SimStrategy::Fifo),
            &cfg,
        );
        let _ = writeln!(csv, "batch,{batch},{},{}", r.completion_time, r.peak_memory);
        rows.push(vec![
            batch.to_string(),
            fmt_secs(r.completion_time),
            r.peak_memory.to_string(),
            r.ctx_switches.to_string(),
        ]);
    }
    rows
}

fn ablation_workers(csv: &mut String) -> Vec<Vec<String>> {
    // 8 parallel chains of one moderately expensive operator each, on 4
    // virtual cores.
    let chains = 8usize;
    let n = chains * 3;
    let mut edges = Vec::new();
    let mut cost = vec![0.0; n];
    let sel = vec![1.0; n];
    let mut src = vec![None; n];
    for c in 0..chains {
        let base = c * 3;
        src[base] = Some(1_000.0);
        edges.push((base, base + 1));
        edges.push((base + 1, base + 2));
        cost[base + 1] = 700e-6; // 0.7 utilization per chain
        cost[base + 2] = 1e-7;
    }
    let g = hmts::graph::cost::CostGraph::from_parts(n, edges, cost, sel, src);
    let schedules: Vec<Vec<f64>> =
        (0..chains).map(|_| (1..=2_000).map(|i| i as f64 / 1_000.0).collect()).collect();
    let partitions: Vec<Vec<usize>> = (0..chains).map(|c| vec![c * 3 + 1, c * 3 + 2]).collect();
    let mut rows = Vec::new();
    for workers in [1usize, 2, 3, 4, 6] {
        let policy = SimPolicy {
            partitions: partitions.clone(),
            domains: (0..chains).map(|i| vec![i]).collect(),
            threading: SimThreading::Pool { workers, priorities: vec![0.0; chains] },
            strategy: SimStrategy::Fifo,
        };
        let cfg = SimConfig::with_cores(4);
        let r = simulate(&g, &schedules, &policy, &cfg);
        let _ = writeln!(csv, "workers,{workers},{},{}", r.completion_time, r.peak_memory);
        rows.push(vec![
            workers.to_string(),
            fmt_secs(r.completion_time),
            r.peak_memory.to_string(),
        ]);
    }
    rows
}

fn ablation_placement(csv: &mut String, seed: u64) -> Vec<Vec<String>> {
    type Algo = (&'static str, fn(&CostGraph) -> Vec<Vec<usize>>);
    let algos: [Algo; 3] = [
        ("stall_avoiding", stall_avoiding),
        ("segment", simplified_segment),
        ("chain", chain_based),
    ];
    // A random DAG executed for 4 virtual seconds on 2 cores; queue and
    // dispatch overheads at the defaults.
    let g = random_cost_graph(&RandomDagConfig::new(40, seed));
    let schedules: Vec<Vec<f64>> = g
        .sources()
        .iter()
        .map(|&s| {
            let rate = g.input_rates()[s];
            let count = (rate * 4.0) as u64;
            (1..=count).map(|i| i as f64 / rate).collect()
        })
        .collect();
    let mut rows = Vec::new();
    for (name, algo) in algos {
        let partitions = algo(&g);
        let workers = suggest_workers(&g, &partitions).min(4);
        let policy = SimPolicy::hmts_pooled(partitions.clone(), SimStrategy::Fifo, workers);
        let r = simulate(&g, &schedules, &policy, &SimConfig::with_cores(4));
        let _ = writeln!(
            csv,
            "placement,{name},{},{},{}",
            r.completion_time, r.peak_memory, r.queue_transfers
        );
        rows.push(vec![
            name.to_string(),
            partitions.len().to_string(),
            workers.to_string(),
            fmt_secs(r.completion_time),
            r.queue_transfers.to_string(),
            r.peak_memory.to_string(),
            format!("{:.0}", avg_memory(&r.memory_timeline)),
            r.outputs.to_string(),
        ]);
    }
    rows
}

fn ablation_strategy(csv: &mut String) -> Vec<Vec<String>> {
    let g = fig9::cost_graph();
    let sched = fig9::schedule(1);
    let cfg = fig9::pipes_config(1);
    let segments = compute_chain_segments(&g);
    let chain_prio: Vec<f64> = (0..g.node_count()).map(|v| segments.priority_of(v)).collect();
    // Longest-queue / round-robin are not native sim strategies; FIFO and
    // Chain (priority) are the paper's pair, plus a reversed-priority
    // strawman showing how bad an inverted schedule gets.
    let inverted: Vec<f64> = chain_prio.iter().map(|p| -p).collect();
    let strategies: [(&str, SimStrategy); 3] = [
        ("fifo", SimStrategy::Fifo),
        ("chain", SimStrategy::Priority(chain_prio)),
        ("inverted_chain", SimStrategy::Priority(inverted)),
    ];
    let mut rows = Vec::new();
    for (name, strategy) in strategies {
        let r = simulate(&g, std::slice::from_ref(&sched), &SimPolicy::gts(&g, strategy), &cfg);
        let _ = writeln!(csv, "strategy,{name},{},{}", r.completion_time, r.peak_memory);
        rows.push(vec![
            name.to_string(),
            fmt_secs(r.completion_time),
            r.peak_memory.to_string(),
            format!("{:.0}", avg_memory(&r.memory_timeline)),
        ]);
    }
    rows
}

fn main() {
    let args = parse_args(1.0);
    let mut csv = String::from("ablation,variant,completion_s,peak_memory,extra\n");

    println!("A — executor batch size (Fig. 9 workload, GTS, 2 cores):");
    let rows = ablation_batch(&mut csv);
    println!("{}", table(&["batch", "completion", "peak_queued", "ctx_switches"], &rows));

    println!("B — level-3 worker count (8 × 0.7-utilization chains, 4 cores):");
    let rows = ablation_workers(&mut csv);
    println!("{}", table(&["workers", "completion", "peak_queued"], &rows));

    println!(
        "C — placement algorithm end-to-end (random DAG, 4 cores) — fewer VOs ⇒ \
         fewer transfers but tighter capacity headroom:"
    );
    let rows = ablation_placement(&mut csv, args.seed);
    println!(
        "{}",
        table(
            &[
                "placement",
                "VOs",
                "workers",
                "completion",
                "transfers",
                "peak",
                "avg_mem",
                "outputs"
            ],
            &rows
        )
    );

    println!("D — level-2 strategy (Fig. 9 workload, GTS):");
    let rows = ablation_strategy(&mut csv);
    println!("{}", table(&["strategy", "completion", "peak_queued", "avg_mem"], &rows));

    emit_csv(&args.out, "ablation.csv", &csv);

    // The ablations themselves are simulator-only; `--metrics` / `--trace`
    // instrument a real-engine run of the same Fig. 9 workload the
    // ablations study, under the paper's two-VO HMTS placement.
    if let Some(dir) = &args.metrics {
        use hmts::workload::scenarios::{fig9_chain, Fig9Params};
        let p = Fig9Params { speedup: 2_000.0, seed: args.seed, ..Fig9Params::default() };
        let s = fig9_chain(&p).chain;
        let part = s.two_vos();
        hmts_bench::obsrun::metrics_run(
            dir,
            "ablation",
            s.graph,
            ExecutionPlan::hmts(part, StrategyKind::Fifo, 2),
            EngineConfig::default(),
        );
    }
    if let Some(dir) = &args.trace {
        hmts_bench::obsrun::run_traced(dir, args.seed);
    }
}
