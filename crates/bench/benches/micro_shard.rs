//! Micro-benchmark: what sharding an operator adds to it. The keyed
//! aggregate of the ledger's `keyed_agg` workload (a sum over an 8 192 µs
//! window, grouped by a Zipf(1.0) key over 1 024 values) takes runs of 32,
//! once bare (`aggregate_run32`) and once split two ways — splitter, two
//! replicas, order-restoring merge, each handed its runs through
//! `process_batch` as the executor hands them, on one thread
//! (`shard_trio_run32`). Both are reported per element; the difference is
//! the trio's own cost, with neither the queues nor the second core that
//! would pay for it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::prelude::*;
use std::hint::black_box;
use std::time::Duration;

use hmts::operators::traits::{Operator, Output};
use hmts::prelude::*;
use hmts_shard::{OrderedMerge, ShardReplica, ShardSplit};

const RUN: usize = 32;
const KEYS: usize = 1024;

fn aggregate() -> WindowAggregate {
    WindowAggregate::new("agg", AggregateFunction::Sum(1), Duration::from_micros(8_192))
        .group_by(Expr::field(0))
}

/// `(key, value)` rows with Zipf(1.0) keys, to be stamped one microsecond
/// apart as they are fed.
fn rows() -> Vec<Tuple> {
    let weights: Vec<f64> = (1..=KEYS).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(KEYS);
    let mut acc = 0.0;
    for w in weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut rng = StdRng::seed_from_u64(7);
    (0..4096)
        .map(|_| {
            let u: f64 = rng.gen();
            let key = cdf.partition_point(|c| *c < u).min(KEYS - 1) as i64;
            Tuple::pair(key, rng.gen_range(0..1_000_000i64))
        })
        .collect()
}

/// Fills `run` with the next 32 rows, timestamped on from `*clock`.
fn next_run(rows: &[Tuple], clock: &mut u64, run: &mut Vec<Element>) {
    for _ in 0..RUN {
        let row = rows[*clock as usize % rows.len()].clone();
        run.push(Element::new(row, Timestamp::from_micros(*clock)));
        *clock += 1;
    }
}

/// Splitter, two replicas of the aggregate and the merge, with the buffers
/// the executor would keep between them.
struct Trio {
    split: ShardSplit,
    replicas: [ShardReplica; 2],
    merge: OrderedMerge,
    routed: Output,
    routes: Vec<u32>,
    shares: [Vec<Element>; 2],
    tagged: Output,
    merged: Output,
}

impl Trio {
    fn new() -> Trio {
        Trio {
            split: ShardSplit::new("agg.split", Expr::field(0), 2),
            replicas: [0, 1].map(|i| ShardReplica::new(format!("agg[{i}]"), Box::new(aggregate()))),
            merge: OrderedMerge::new("agg.merge", 2),
            routed: Output::new(),
            routes: Vec::new(),
            shares: [Vec::new(), Vec::new()],
            tagged: Output::new(),
            merged: Output::new(),
        }
    }

    /// One run through the trio: split, each replica's share through the
    /// replica, each replica's results through its merge port.
    fn run(&mut self, run: &mut Vec<Element>) {
        self.split.process_batch(0, run, &mut self.routed).unwrap();
        self.routed.swap_routes(&mut self.routes);
        for (e, shard) in self.routed.drain().zip(&self.routes) {
            self.shares[*shard as usize].push(e);
        }
        for (port, replica) in self.replicas.iter_mut().enumerate() {
            replica.process_batch(0, &mut self.shares[port], &mut self.tagged).unwrap();
            let mut results = std::mem::take(&mut self.shares[port]);
            self.tagged.swap_elements(&mut results);
            self.merge.process_batch(port, &mut results, &mut self.merged).unwrap();
            self.shares[port] = results;
        }
        black_box(self.merged.len());
        self.merged.clear();
    }
}

fn shard(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_shard");
    g.throughput(Throughput::Elements(RUN as u64));
    let rows = rows();

    g.bench_function("aggregate_run32", |b| {
        let (mut agg, mut out, mut run, mut clock) = (aggregate(), Output::new(), Vec::new(), 0);
        b.iter(|| {
            next_run(&rows, &mut clock, &mut run);
            agg.process_batch(0, black_box(&mut run), &mut out).unwrap();
            black_box(out.len());
            out.clear();
        })
    });

    g.bench_function("shard_trio_run32", |b| {
        let (mut trio, mut run, mut clock) = (Trio::new(), Vec::new(), 0);
        b.iter(|| {
            next_run(&rows, &mut clock, &mut run);
            trio.run(black_box(&mut run));
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(60)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    targets = shard
}
criterion_main!(benches);
