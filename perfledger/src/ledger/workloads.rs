//! The six workloads and the one thing they all do: run a *pass* — generate
//! inputs from a seed, compute the reference, build graph, plan and engine
//! (all of that is set-up), then time `Engine::start()` → `wait()`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hmts::operators::traits::{Operator, Source};
use hmts::prelude::*;
use hmts_shard::{remap_partitioning, shard_by_name, ShardSpec};

use super::check::{
    chain_thresholds, Expected, LedgerSink, Observed, CHAIN_SELECTIVITIES, KEYED_FILTER_BELOW,
    KEYED_WINDOW_US,
};
use super::clock::LedgerClock;
use super::gen::Inputs;
use super::host;
use super::latency::SortedLatencies;
use super::served;
use super::spans::{NodeTotals, SpanRecorder};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChainDi,
    ChainGts,
    ChainHmts,
    KeyedAgg,
    KeyedAggShard2,
    ServedLoopback,
}

/// How a pass offers its input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// As fast as the engine takes it: unpaced source, or — over loopback —
    /// a closed loop with [`served::WINDOW`] tuples per ping/pong barrier.
    Saturate,
    /// Open loop on a Poisson schedule at this many tuples per second.
    Paced { rate: f64 },
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ChainDi,
        Workload::ChainGts,
        Workload::ChainHmts,
        Workload::KeyedAgg,
        Workload::KeyedAggShard2,
        Workload::ServedLoopback,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainDi => "chain_di",
            Workload::ChainGts => "chain_gts",
            Workload::ChainHmts => "chain_hmts",
            Workload::KeyedAgg => "keyed_agg",
            Workload::KeyedAggShard2 => "keyed_agg_shard2",
            Workload::ServedLoopback => "served_loopback",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input tuples of one saturation pass, sized on the 2-core reference
    /// host so that a pass runs for about 0.35 s: short enough that some
    /// passes of a run fall wholly into the host's fast state. Frozen:
    /// changing one changes what every later measurement is compared
    /// against.
    pub fn saturation_tuples(self) -> usize {
        match self {
            Workload::ChainDi => 250_000,
            Workload::ChainGts => 75_000,
            Workload::ChainHmts => 110_000,
            Workload::KeyedAgg => 400_000,
            Workload::KeyedAggShard2 => 100_000,
            Workload::ServedLoopback => 35_000,
        }
    }

    /// The low and high open-loop rates, frozen at 25 % and 50 % of the
    /// workload's own saturation `throughput_tps` on the seed commit
    /// (2 significant digits). At 75 % the spin-paced source and the
    /// workers no longer fit the reference host's two cores, and the
    /// median latency of a pass varies several-fold between passes.
    pub fn paced_rates(self) -> (f64, f64) {
        match self {
            Workload::ChainDi => (190_000.0, 390_000.0),
            Workload::ChainGts => (56_000.0, 110_000.0),
            Workload::ChainHmts => (83_000.0, 170_000.0),
            Workload::KeyedAgg => (310_000.0, 630_000.0),
            Workload::KeyedAggShard2 => (74_000.0, 150_000.0),
            Workload::ServedLoopback => (26_000.0, 53_000.0),
        }
    }

    fn is_keyed(self) -> bool {
        matches!(self, Workload::KeyedAgg | Workload::KeyedAggShard2)
    }

    /// Generates the pass's rows and their reference results.
    pub fn generate(self, seed: u64, tuples: usize, load: Load) -> (Inputs, Expected) {
        let rate = match load {
            Load::Saturate => None,
            Load::Paced { rate } => Some(rate),
        };
        if self.is_keyed() {
            let inputs = Inputs::keyed(seed, tuples, rate);
            let expected = Expected::keyed(&inputs);
            (inputs, expected)
        } else {
            let inputs = Inputs::chain(seed, tuples, rate);
            let expected = Expected::chain(&inputs);
            (inputs, expected)
        }
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct PassSpec {
    pub workload: Workload,
    pub load: Load,
    pub tuples: usize,
    pub seed: u64,
    /// `Obs::enabled()` plus a span around every source and operator.
    pub traced: bool,
}

/// What the traced wrappers and the engine's registry saw in one pass.
pub struct TraceData {
    pub recorder: Arc<SpanRecorder>,
    pub nodes: Vec<NodeTotals>,
    /// Node names of each virtual operator of the plan.
    pub partitions: Vec<Vec<String>>,
    /// The engine's `Obs` registry after `wait()`.
    pub metrics: Vec<(String, f64)>,
}

/// Counters of the network layer (zero for the in-process workloads).
#[derive(Debug, Default, Clone)]
pub struct NetCounts {
    pub ingest_tuples: u64,
    pub ingest_bytes: u64,
    pub ingest_stall_ns: u64,
    pub egress_tuples: u64,
    /// Ping → pong round trips of the sender's window barriers.
    pub rtt_ns: Vec<u64>,
}

pub struct PassResult {
    pub spec: PassSpec,
    /// What the host's calibration work took on each vCPU right before the
    /// pass, in ns (see [`host`]).
    pub host_ns: Vec<f64>,
    /// Input generation + reference + graph/plan build + engine
    /// construction (+ bind/connect over loopback).
    pub setup_s: f64,
    /// `Engine::start()` → `wait()` return.
    pub wall_s: f64,
    pub expected_results: u64,
    /// Count and order-sensitive checksum of the results that arrived.
    pub observed_results: (u64, u64),
    /// Missing + wrong + dropped results, engine errors, worker panics.
    pub failures: u64,
    pub latencies: Option<SortedLatencies>,
    /// Messages that passed through decoupling queues.
    pub transfers: u64,
    /// How far the source ran behind its schedule at worst (paced passes).
    pub source_lag_max_ns: u64,
    pub net: NetCounts,
    pub trace: Option<TraceData>,
}

impl PassResult {
    pub fn throughput_tps(&self) -> f64 {
        self.spec.tuples as f64 / self.wall_s
    }
}

/// Boxes an operator, spanned when the pass is traced.
pub fn boxed_op<O: Operator + 'static>(
    op: O,
    rec: Option<&Arc<SpanRecorder>>,
) -> Box<dyn Operator> {
    match rec {
        Some(rec) => Box::new(rec.operator(op)),
        None => Box::new(op),
    }
}

pub fn boxed_source<S: Source + 'static>(
    source: S,
    rec: Option<&Arc<SpanRecorder>>,
) -> Box<dyn Source> {
    match rec {
        Some(rec) => Box::new(rec.source(source)),
        None => Box::new(source),
    }
}

/// The paper's Fig. 7 query around any source and sink: five selections
/// with conditional selectivities 0.998 … 0.990. Returns the selections
/// and the sink node.
pub fn chain_graph(
    source: Box<dyn Source>,
    sink: Box<dyn Operator>,
    rec: Option<&Arc<SpanRecorder>>,
) -> (QueryGraph, Vec<NodeId>, NodeId) {
    let mut graph = QueryGraph::new();
    let mut prev = graph.add_source(source);
    let mut selections = Vec::new();
    for (i, (threshold, s)) in chain_thresholds().into_iter().zip(CHAIN_SELECTIVITIES).enumerate() {
        let f = Filter::new(format!("sel{i}"), Expr::field(0).lt(Expr::int(threshold)))
            .with_selectivity_hint(s);
        let id = graph.add_operator(boxed_op(f, rec));
        graph.connect(prev, id);
        selections.push(id);
        prev = id;
    }
    let sink = graph.add_operator(sink);
    graph.connect(prev, sink);
    (graph, selections, sink)
}

/// The two virtual operators `{sel0..2 | sel3..4, sink}` of the HMTS
/// workloads.
pub fn two_vo(selections: &[NodeId], sink: NodeId) -> Partitioning {
    let mut second = selections[3..].to_vec();
    second.push(sink);
    Partitioning::new(vec![selections[..3].to_vec(), second])
}

fn build(
    w: Workload,
    inputs: &Inputs,
    sink: LedgerSink,
    rec: Option<&Arc<SpanRecorder>>,
) -> (QueryGraph, ExecutionPlan) {
    let source = boxed_source(VecSource::new("src", inputs.items()), rec);
    let sink = boxed_op(sink, rec);
    if !w.is_keyed() {
        let (graph, selections, sink) = chain_graph(source, sink, rec);
        let topo = Topology::of(&graph);
        let plan = match w {
            Workload::ChainDi => ExecutionPlan::di(&topo),
            Workload::ChainGts => ExecutionPlan::gts(&topo, StrategyKind::Fifo),
            _ => ExecutionPlan::hmts(two_vo(&selections, sink), StrategyKind::Fifo, 1),
        };
        return (graph, plan);
    }
    let mut graph = QueryGraph::new();
    let src = graph.add_source(source);
    let flt = graph.add_operator(boxed_op(
        Filter::new("flt", Expr::field(1).lt(Expr::int(KEYED_FILTER_BELOW))),
        rec,
    ));
    let agg = graph.add_operator(boxed_op(
        WindowAggregate::new(
            "agg",
            AggregateFunction::Sum(1),
            Duration::from_micros(KEYED_WINDOW_US),
        )
        .group_by(Expr::field(0)),
        rec,
    ));
    let sink = graph.add_operator(sink);
    graph.connect(src, flt);
    graph.connect(flt, agg);
    graph.connect(agg, sink);
    if w == Workload::KeyedAgg {
        let plan = ExecutionPlan::di(&Topology::of(&graph));
        return (graph, plan);
    }
    // The aggregate is wrapped *before* the rewrite, so the rewrite meets
    // `shard_key` and `replicate` through the span wrapper; the splitter
    // and the merge only exist afterwards and are wrapped in place.
    let unsharded = Partitioning::new(vec![vec![flt], vec![agg, sink]]);
    let mut rw = shard_by_name(graph, "agg", &ShardSpec::auto(2)).expect("the aggregate shards");
    let partitioning = remap_partitioning(&unsharded, &rw);
    if let Some(rec) = rec {
        for trio in rw.sharded.values() {
            for id in [trio.split, trio.merge] {
                let node = rw.graph.node_mut(id);
                if let hmts::graph::graph::NodeKind::Operator(op) = &mut node.kind {
                    let bare = std::mem::replace(op, Box::new(NullSink::new("placeholder")));
                    *op = Box::new(rec.operator(bare));
                }
            }
        }
    }
    (rw.graph, ExecutionPlan::hmts(partitioning, StrategyKind::Fifo, 2))
}

/// Largest `sample time − due time` over the engine's source timeline
/// (one point per `tuples / 4096` emissions).
fn source_lag_max_ns(report: &EngineReport, inputs: &Inputs) -> u64 {
    let Some(due) = &inputs.due_ns else { return 0 };
    report
        .source_timelines
        .iter()
        .flat_map(|t| t.samples().iter())
        .filter_map(|&(at, emitted)| {
            let last = (emitted as usize).checked_sub(1)?;
            Some((at.as_micros() * 1000).saturating_sub(*due.get(last)?))
        })
        .max()
        .unwrap_or(0)
}

/// What the sink (or the subscriber) concluded about a pass.
pub struct Verdict {
    pub failures: u64,
    pub observed_results: (u64, u64),
    pub latencies: Option<SortedLatencies>,
}

/// A sink that never saw end-of-stream left no observation, and then every
/// expected result is missing.
pub fn verdict(observed: Option<Observed>, expected: &Expected) -> Verdict {
    match observed {
        Some(mut o) => Verdict {
            failures: o.failures(expected),
            observed_results: (o.count, o.checksum),
            latencies: o.latencies.take().map(|l| l.finish()),
        },
        None => Verdict { failures: expected.count + 1, observed_results: (0, 0), latencies: None },
    }
}

/// Runs one pass, after calibrating the host.
pub fn run_pass(spec: PassSpec) -> PassResult {
    let host_ns = host::calibrate();
    if spec.workload == Workload::ServedLoopback {
        return served::run_pass(spec, host_ns);
    }
    let setup = Instant::now();
    let clock = Arc::new(LedgerClock::new());
    let (inputs, expected) = spec.workload.generate(spec.seed, spec.tuples, spec.load);
    let rec = spec.traced.then(|| SpanRecorder::new(clock.clone(), spec.tuples));
    let (sink, slot) = LedgerSink::new(&expected, clock.clone());
    let (graph, plan) = build(spec.workload, &inputs, sink, rec.as_ref());
    let partitions = partition_names(&graph, &plan);
    let obs = if spec.traced { Obs::enabled() } else { Obs::disabled() };
    let cfg = EngineConfig {
        pace_sources: matches!(spec.load, Load::Paced { .. }),
        clock: Some(clock.clone()),
        obs: obs.clone(),
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_config(graph, plan, cfg).expect("graph and plan are valid");
    let setup_s = setup.elapsed().as_secs_f64();

    clock.arm();
    let timed = Instant::now();
    engine.start().expect("a fresh engine starts");
    let report = engine.wait();
    let wall_s = timed.elapsed().as_secs_f64();

    let observed = slot.lock().expect("sink slot lock poisoned").take();
    let verdict = verdict(observed, &expected);
    PassResult {
        spec,
        host_ns,
        setup_s,
        wall_s,
        expected_results: expected.count,
        observed_results: verdict.observed_results,
        failures: verdict.failures + report.errors.len() as u64 + report.worker_panics.len() as u64,
        latencies: verdict.latencies,
        transfers: report.total_enqueued,
        source_lag_max_ns: source_lag_max_ns(&report, &inputs),
        net: NetCounts::default(),
        trace: rec.map(|recorder| trace_data(recorder, partitions, &obs)),
    }
}

pub fn partition_names(graph: &QueryGraph, plan: &ExecutionPlan) -> Vec<Vec<String>> {
    plan.partitioning
        .groups()
        .iter()
        .map(|g| g.iter().map(|&id| graph.node(id).name.clone()).collect())
        .collect()
}

/// Collects what the wrappers published when the engine dropped them.
pub fn trace_data(
    recorder: Arc<SpanRecorder>,
    partitions: Vec<Vec<String>>,
    obs: &Obs,
) -> TraceData {
    let metrics = obs.metrics_snapshot().into_iter().map(|(k, v)| (k, v.as_f64())).collect();
    TraceData { nodes: recorder.totals(), recorder, partitions, metrics }
}
