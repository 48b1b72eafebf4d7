//! Micro-benchmark: what a tuple costs to build, move across a thread and
//! drop — the payload's share of a queue hop, beside `micro_handoff`'s
//! wake-up and `micro_queue_vs_di`'s transfer. Every case handles runs of
//! `RUN` key/value pairs (the aggregate's result shape); a figure is per
//! tuple.
//!
//! - `pair_build_drop`: a pair built and dropped on one thread.
//! - `pair_build_drop_across_threads`: a pair built on this thread and
//!   dropped on another, as a queue hop does: full runs go to a dropping
//!   thread and come back empty, two in flight, so only the tuples' own
//!   memory moves between the threads.
//! - `pair_clone_broadcast2`: a pair cloned into two runs and both clones
//!   dropped, as a two-way broadcast does.
//!
//! The `str_pair_*` cases are the same three with a string key: the price
//! of a string's own block (built from a `&str`, freed by the thread that
//! drops its last handle, a count moved by a clone).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::mpsc::sync_channel;
use std::time::Duration;

use hmts::prelude::*;

/// Tuples per run.
const RUN: usize = 1024;

/// String keys, each of a length a sensor or host name might have.
const KEYS: [&str; 4] = ["sensor-17", "eu-west-1/host-042", "k", "tcp:10.0.0.7:443"];

/// A run of pairs, keyed by position.
fn fill(run: &mut Vec<Tuple>) {
    run.extend((0..RUN as i64).map(|i| Tuple::pair(black_box(i), 3 * i)));
}

/// A run of pairs, keyed by a string chosen by position.
fn fill_str(run: &mut Vec<Tuple>) {
    run.extend((0..RUN as i64).map(|i| Tuple::pair(black_box(KEYS[i as usize % 4]), 3 * i)));
}

fn tuples(c: &mut Criterion) {
    let mut g = c.benchmark_group("tuple");
    g.throughput(Throughput::Elements(RUN as u64));
    cases(&mut g, "pair", fill);
    cases(&mut g, "str_pair", fill_str);
    g.finish();
}

/// The three cases over runs that `fill` makes, named `<name>_<case>`.
fn cases(g: &mut criterion::BenchmarkGroup<'_>, name: &str, fill: fn(&mut Vec<Tuple>)) {
    let mut run = Vec::with_capacity(RUN);
    g.bench_function(format!("{name}_build_drop"), |b| {
        b.iter(|| {
            fill(&mut run);
            black_box(&run);
            run.clear();
        })
    });

    let (full_tx, full_rx) = sync_channel::<Vec<Tuple>>(2);
    let (empty_tx, empty_rx) = sync_channel::<Vec<Tuple>>(2);
    for _ in 0..2 {
        empty_tx.send(Vec::with_capacity(RUN)).expect("dropper is alive");
    }
    let dropper = std::thread::spawn(move || {
        for mut run in full_rx {
            run.clear();
            if empty_tx.send(run).is_err() {
                break;
            }
        }
    });
    g.bench_function(format!("{name}_build_drop_across_threads"), |b| {
        b.iter(|| {
            let mut run = empty_rx.recv().expect("dropper is alive");
            fill(&mut run);
            full_tx.send(run).expect("dropper is alive");
        })
    });
    drop(full_tx);
    dropper.join().expect("dropper panicked");

    let mut source = Vec::with_capacity(RUN);
    fill(&mut source);
    let (mut left, mut right) = (Vec::with_capacity(RUN), Vec::with_capacity(RUN));
    g.bench_function(format!("{name}_clone_broadcast2"), |b| {
        b.iter(|| {
            left.extend(source.iter().cloned());
            right.extend(source.iter().cloned());
            black_box((&left, &right));
            left.clear();
            right.clear();
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .measurement_time(Duration::from_millis(500))
        .warm_up_time(Duration::from_millis(200));
    targets = tuples
}
criterion_main!(benches);
