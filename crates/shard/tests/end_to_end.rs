//! Engine-level acceptance for the sharding rewrite: the same keyed
//! aggregate chain is run unsharded and sharded (N = 3) through the real
//! engine — multi-threaded, queued, with the remapped partitioning — and
//! the collected outputs must be identical, element for element.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use hmts::operators::traits::{Operator, Output};
use hmts::prelude::*;
use hmts_shard::{remap_partitioning, shard_by_name, ShardSpec};

const KEYS: i64 = 7;
const N: u64 = 4_000;

fn keyed_tuples() -> Vec<(Timestamp, Tuple)> {
    // Deterministic keyed stream with non-decreasing timestamps: key
    // cycles, payload is the sequence number.
    (0..N)
        .map(|i| (Timestamp::from_micros(i * 3), Tuple::pair((i as i64) % KEYS, i as i64)))
        .collect()
}

/// src → filter → `op` → collecting sink.
fn chain_around(op: impl Operator + 'static) -> (QueryGraph, SinkHandle) {
    let (sink, handle) = CollectingSink::new("sink");
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::new("src", keyed_tuples()));
    let pre = b.op_after(Filter::new("pre", Expr::bool(true)), src);
    let op = b.op_after(op, pre);
    b.op_after(sink, op);
    (b.build().expect("valid graph"), handle)
}

/// src → filter → keyed window aggregate → collecting sink.
fn chain() -> (QueryGraph, SinkHandle) {
    chain_around(
        WindowAggregate::new("agg", AggregateFunction::Sum(1), Duration::from_millis(5))
            .group_by(Expr::field(0)),
    )
}

/// `graph` with `node` sharded `spec`'s way and a partitioning that seats
/// every replica in a partition of its own.
fn sharded(graph: QueryGraph, node: &str, spec: &ShardSpec) -> (QueryGraph, Partitioning) {
    let ids: std::collections::HashMap<String, NodeId> =
        graph.nodes().iter().map(|n| (n.name.clone(), n.id)).collect();
    let p = Partitioning::new(vec![vec![ids["pre"]], vec![ids[node], ids["sink"]]]);
    let rw = shard_by_name(graph, node, spec).unwrap();
    let p = remap_partitioning(&p, &rw);
    assert!(p.validate(&rw.graph).is_empty());
    (rw.graph, p)
}

fn run(graph: QueryGraph, partitioning: Option<Partitioning>) -> EngineReport {
    let topo = Topology::of(&graph);
    let plan = match partitioning {
        Some(p) => ExecutionPlan::hmts(p, StrategyKind::RoundRobin, 3),
        None => ExecutionPlan::di_decoupled(&topo),
    };
    let cfg = EngineConfig { pace_sources: false, ..EngineConfig::default() };
    let mut engine = Engine::with_config(graph, plan, cfg).unwrap();
    engine.start().unwrap();
    engine.wait()
}

#[test]
fn sharded_engine_output_matches_unsharded() {
    // Unsharded baseline.
    let (graph, baseline) = chain();
    let report = run(graph, None);
    assert!(report.errors.is_empty(), "baseline errors: {:?}", report.errors);
    assert!(baseline.is_done());
    let expected = baseline.elements();
    assert_eq!(expected.len() as u64, N, "one aggregate per input element");

    // Sharded: rewrite agg into split → 3 replicas → merge, carry a
    // partitioning across so each replica is its own L1 partition.
    let (graph, collected) = chain();
    let (graph, p) = sharded(graph, "agg", &ShardSpec::auto(3));
    let report = run(graph, Some(p));
    assert!(report.errors.is_empty(), "sharded errors: {:?}", report.errors);
    assert!(collected.is_done());
    let actual = collected.elements();

    assert_eq!(actual, expected, "sharded output must be identical to unsharded");
}

#[test]
fn the_run_length_changes_nothing_behind_a_sharded_operator() {
    // Split → replicas → merge under DI, GTS and HMTS, with the source
    // handing over (and every executor popping) 1, 7 or 32 elements at a
    // time and a watermark ending a run every 50 elements: the merge puts
    // the replicas' results back into arrival order, so the sink sees the
    // sequence the unsharded operator produces one element at a time.
    let run = |graph: QueryGraph, plan: ExecutionPlan, batch: usize| {
        let cfg = EngineConfig {
            pace_sources: false,
            batch,
            watermark_interval: Some(Duration::from_micros(150)),
            ..EngineConfig::default()
        };
        let report = Engine::run_with_config(graph, plan, cfg).expect("engine runs");
        assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    };
    let (graph, unsharded) = chain();
    let plan = ExecutionPlan::di(&Topology::of(&graph));
    run(graph, plan, 1);
    let want = unsharded.elements();
    assert_eq!(want.len() as u64, N);
    for mode in ["di", "gts", "hmts"] {
        for batch in [1, 7, 32] {
            let (graph, handle) = chain();
            let (graph, partitioning) = sharded(graph, "agg", &ShardSpec::auto(3));
            let topo = Topology::of(&graph);
            let plan = match mode {
                "di" => ExecutionPlan::di(&topo),
                "gts" => ExecutionPlan::gts(&topo, StrategyKind::Fifo),
                _ => ExecutionPlan::hmts(partitioning, StrategyKind::Fifo, 2),
            };
            run(graph, plan, batch);
            assert!(handle.is_done(), "{mode} {batch}: sink saw EOS");
            assert!(handle.elements() == want, "sharded under {mode} with batch {batch}");
        }
    }
}

#[test]
fn single_replica_shard_is_transparent() {
    // N = 1 degenerates to a tag/untag pass-through; still identical.
    let (graph, baseline) = chain();
    run(graph, None);
    let (graph, sharded) = chain();
    let rw = shard_by_name(graph, "agg", &ShardSpec::auto(1)).unwrap();
    let report = run(rw.graph, None);
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    assert_eq!(sharded.elements(), baseline.elements());
}

/// What a [`Recorder`] (and every replica of it) was handed: arity and
/// tuple of each input.
type Seen = Arc<Mutex<Vec<(usize, Tuple)>>>;

/// Passes its input on and notes what it looked like.
struct Recorder(Seen);

impl Operator for Recorder {
    fn name(&self) -> &str {
        "rec"
    }

    fn process(
        &mut self,
        _port: usize,
        e: &Element,
        out: &mut Output,
    ) -> hmts::streams::error::Result<()> {
        self.0.lock().unwrap().push((e.tuple.arity(), e.tuple.clone()));
        out.push(e.clone());
        Ok(())
    }

    fn replicate(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(Recorder(Arc::clone(&self.0))))
    }
}

#[test]
fn replicas_see_the_unsharded_tuples_and_no_sequence_tag_reaches_the_sink() {
    let seen = Seen::default();
    let (graph, baseline) = chain_around(Recorder(Arc::clone(&seen)));
    let report = run(graph, None);
    assert!(report.errors.is_empty(), "baseline errors: {:?}", report.errors);
    let mut unsharded = std::mem::take(&mut *seen.lock().unwrap());
    assert_eq!(unsharded.len() as u64, N);

    let (graph, collected) = chain_around(Recorder(Arc::clone(&seen)));
    let (graph, p) = sharded(graph, "rec", &ShardSpec::on_key(3, Expr::field(0)));
    let report = run(graph, Some(p));
    assert!(report.errors.is_empty(), "sharded errors: {:?}", report.errors);
    let mut replicas = std::mem::take(&mut *seen.lock().unwrap());

    // Between them the replicas saw the unsharded operator's inputs, arity
    // and all (in an order of their own: they run in parallel). Each came
    // with its sequence tag beside the tuple, which the contract lets an
    // operator see; the tuple carries nothing of it.
    assert!(replicas.iter().all(|(arity, _)| *arity == 2));
    unsharded.sort_by(|a, b| a.1.cmp(&b.1));
    replicas.sort_by(|a, b| a.1.cmp(&b.1));
    assert_eq!(replicas, unsharded);
    // Nor does a tag survive the merge, and the results are the same.
    assert!(collected.elements().iter().all(|e| e.seq.is_none()));
    assert_eq!(collected.elements(), baseline.elements());
}
