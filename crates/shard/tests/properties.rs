//! Property tests for the shard subsystem:
//!
//! * the hash partitioner is stable — same-key tuples always route to the
//!   same shard, across partitioner instances and re-partitionings;
//! * the merge against a model: whatever the interleaving of its ports,
//!   with or without a port dying early, with or without a snapshot/restore
//!   in the middle, it emits the delivered groups in sequence order;
//! * the merged output of a sharded operator — a keyed aggregate, a filter
//!   (every other group a marker), a fan-out (multi-element groups) — is
//!   byte-identical to the unsharded run under random arrival
//!   interleavings of the replica streams;
//! * a damaged `ShardSplit` or `OrderedMerge` snapshot is refused with a
//!   typed error or restores to exactly what it says.
//!
//! The vendored proptest does not shrink: a failing case prints the seed
//! its inputs were derived from; `PROPTEST_SEED` replays a whole test.

use std::collections::VecDeque;
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::prelude::*;

use hmts_operators::aggregate::{AggregateFunction, WindowAggregate};
use hmts_operators::expr::Expr;
use hmts_operators::filter::Filter;
use hmts_operators::traits::{Operator, Output};
use hmts_shard::names;
use hmts_shard::{HashPartitioner, OrderedMerge, ShardReplica, ShardSplit};
use hmts_state::codec::BlobWriter;
use hmts_state::{StateBlob, StatefulOperator};
use hmts_streams::element::{Element, SeqKind, SeqTag};
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;
use hmts_streams::value::Value;

/// A keyed stream with non-decreasing timestamps (the ordering guarantee
/// assumes timestamp-monotone input, as produced by every source here).
fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<Element>> {
    proptest::collection::vec((0i64..16, 0i64..1000, 0u64..500), 0..max_len).prop_map(|items| {
        let mut ts = 0u64;
        items
            .into_iter()
            .map(|(key, payload, gap)| {
                ts += gap;
                Element::new(Tuple::pair(key, payload), Timestamp::from_micros(ts))
            })
            .collect()
    })
}

/// Emits `payload % 4` copies of its input, numbered: groups of 0–3.
struct FanOut;

impl Operator for FanOut {
    fn name(&self) -> &str {
        "fan"
    }

    fn process(
        &mut self,
        _port: usize,
        e: &Element,
        out: &mut Output,
    ) -> hmts_streams::error::Result<()> {
        let payload = e.tuple.field(1).as_int()?;
        for copy in 0..payload % 4 {
            out.emit(
                Tuple::new([e.tuple.field(0).clone(), Value::Int(payload), copy.into()]),
                e.ts,
            );
        }
        Ok(())
    }
}

/// The sharded plan around `make()`'s operator, by direct calls — split →
/// per-shard replica → per-port FIFO → merge, the merge consuming its ports
/// in the order `interleave` picks — against the bare operator.
fn check_sharded_is_byte_identical(
    make: impl Fn() -> Box<dyn Operator>,
    stream: &[Element],
    n: usize,
    interleave: Vec<usize>,
) -> Result<(), TestCaseError> {
    // Unsharded reference run.
    let mut reference = make();
    let mut out = Output::new();
    let mut expected: Vec<Element> = Vec::new();
    for e in stream {
        reference.process(0, e, &mut out).unwrap();
        expected.extend(out.drain());
    }

    let mut split = ShardSplit::new(names::split("op"), Expr::field(0), n);
    let mut replicas: Vec<ShardReplica> =
        (0..n).map(|i| ShardReplica::new(names::replica("op", i), make())).collect();
    let mut merge = OrderedMerge::new(names::merge("op"), n);

    let mut to_merge: Vec<VecDeque<Element>> = vec![VecDeque::new(); n];
    for e in stream {
        split.process(0, e, &mut out).unwrap();
        let routes = out.take_routes();
        for (i, routed) in out.drain().enumerate() {
            let shard = routes[i] as usize;
            let mut replica_out = Output::new();
            replicas[shard].process(0, &routed, &mut replica_out).unwrap();
            to_merge[shard].extend(replica_out.drain());
        }
    }

    // Drain the per-port queues into the merge in an adversarial, randomly
    // chosen port order (per-port FIFO preserved — that is what the
    // engine's queues guarantee).
    let mut actual: Vec<Element> = Vec::new();
    let mut picks = interleave.into_iter().cycle();
    while to_merge.iter().any(|q| !q.is_empty()) {
        let live: Vec<usize> = (0..n).filter(|p| !to_merge[*p].is_empty()).collect();
        let p = live[picks.next().unwrap_or(0) % live.len()];
        let e = to_merge[p].pop_front().unwrap();
        merge.process(p, &e, &mut out).unwrap();
        actual.extend(out.drain());
    }
    prop_assert_eq!(merge.pending_groups(), 0, "merge retained groups after full drain");
    merge.flush(&mut out).unwrap();
    prop_assert!(out.is_empty(), "nothing was left for the flush");

    // Byte-identical: equal under the state encoding, not just Eq — and
    // not a tag left on anything.
    prop_assert!(actual.iter().all(|e| e.seq.is_none()));
    prop_assert_eq!(&actual, &expected);
    let encode = |els: &[Element]| {
        let mut w = BlobWriter::new();
        for e in els {
            w.put_element(e);
        }
        w.finish()
    };
    prop_assert_eq!(encode(&actual), encode(&expected));
    Ok(())
}

/// One replica output as the model sees it: `(seq, payload)`; a marker has
/// no payload.
fn group_elements(seq: u64, size: usize) -> Vec<Element> {
    let ts = Timestamp::from_micros(seq);
    if size == 0 {
        let marker = Element::new(Tuple::empty(), ts);
        return vec![marker.with_seq(SeqTag::new(seq, SeqKind::Empty))];
    }
    (0..size)
        .map(|i| {
            let kind = if i + 1 == size { SeqKind::Last } else { SeqKind::More };
            Element::new(Tuple::pair(seq as i64, i as i64), ts).with_seq(SeqTag::new(seq, kind))
        })
        .collect()
}

/// The model check behind `merge_emits_delivered_groups_in_sequence_order`,
/// on inputs derived from `seed`; `Err` describes the disagreement.
fn merge_against_model(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ports = rng.gen_range(1..=5usize);
    let groups = rng.gen_range(0..80u64);
    let partitioner = HashPartitioner::new(ports);

    // What each replica will deliver, as whole groups in sequence order.
    let mut queues: Vec<VecDeque<Vec<Element>>> = vec![VecDeque::new(); ports];
    let mut sizes = Vec::new();
    for seq in 0..groups {
        let port = partitioner.shard_of(&Value::Int(rng.gen_range(0..64))) as usize;
        sizes.push(rng.gen_range(0..=3usize));
        queues[port].push_back(group_elements(seq, sizes[seq as usize]));
    }
    // Optionally one port dies after delivering only some of its groups (a
    // replica emits a group in one call, so it dies between groups).
    let dead = rng.gen_bool(0.5).then(|| rng.gen_range(0..ports));
    let mut lost = Vec::new();
    if let Some(d) = dead {
        let keep = rng.gen_range(0..=queues[d].len());
        lost = queues[d].drain(keep..).map(|g| g[0].seq.position().unwrap().0).collect();
    }
    let expected: Vec<(i64, i64)> = (0..groups)
        .filter(|seq| !lost.contains(seq))
        .flat_map(|seq| (0..sizes[seq as usize] as i64).map(move |i| (seq as i64, i)))
        .collect();

    let mut flat: Vec<VecDeque<Element>> =
        queues.into_iter().map(|q| q.into_iter().flatten().collect()).collect();
    let deliveries: usize = flat.iter().map(VecDeque::len).sum();
    let restore_at = rng.gen_bool(0.5).then(|| rng.gen_range(0..=deliveries));

    let mut merge = OrderedMerge::new("m", ports);
    let mut out = Output::new();
    let mut actual = Vec::new();
    let mut closed = vec![false; ports];
    for step in 0..=deliveries {
        if restore_at == Some(step) {
            let blob = merge.snapshot();
            let mut fresh = OrderedMerge::new("m", ports);
            fresh.restore(blob.clone()).map_err(|e| format!("restore at {step}: {e}"))?;
            if fresh.snapshot().payload() != blob.payload() {
                return Err(format!("snapshot at {step} did not survive its restore"));
            }
            merge = fresh;
            // End-of-stream is not checkpointed (recovery reopens every
            // port); a port that had closed closes again.
            for p in (0..ports).filter(|p| closed[*p]) {
                merge.on_eos(p, &mut out).unwrap();
            }
        }
        // The dead port closes some time after its last delivery.
        if let Some(d) = dead.filter(|d| !closed[*d] && flat[*d].is_empty()) {
            if step == deliveries || rng.gen_bool(0.2) {
                closed[d] = true;
                merge.on_eos(d, &mut out).unwrap();
            }
        }
        let live: Vec<usize> = (0..ports).filter(|p| !flat[*p].is_empty()).collect();
        if !live.is_empty() {
            let p = live[rng.gen_range(0..live.len())];
            let e = flat[p].pop_front().expect("live");
            merge.process(p, &e, &mut out).map_err(|e| format!("step {step}: {e}"))?;
        }
        actual.extend(out.drain());
    }
    // The stream ends: every port closes, in any order, and nothing that
    // was delivered is still held when the last one has.
    let mut rest: Vec<usize> = (0..ports).filter(|p| !closed[*p]).collect();
    while !rest.is_empty() {
        let p = rest.swap_remove(rng.gen_range(0..rest.len()));
        merge.on_eos(p, &mut out).unwrap();
        actual.extend(out.drain());
    }
    if merge.pending_groups() != 0 {
        return Err(format!(
            "{} groups still held after every port closed",
            merge.pending_groups()
        ));
    }
    if let Some(tagged) = actual.iter().find(|e| !e.seq.is_none()) {
        return Err(format!("emitted {tagged} with tag {:?}", tagged.seq));
    }
    let actual: Vec<(i64, i64)> = actual
        .iter()
        .map(|e| (e.tuple.field(0).as_int().unwrap(), e.tuple.field(1).as_int().unwrap()))
        .collect();
    if actual != expected {
        return Err(format!(
            "{ports} ports, dead {dead:?}, lost {lost:?}, restore at {restore_at:?}:\n  \
             expected {expected:?}\n  actual   {actual:?}"
        ));
    }
    Ok(())
}

/// Makes an operator with nothing in its state.
type Fresh = fn() -> Box<dyn Operator>;

/// A splitter and a merge with something in every part of their state, as
/// `(fresh operator, its snapshot)` factories for the hostile-blob check.
fn snapshot_subjects() -> Vec<(Fresh, StateBlob)> {
    let mut split = ShardSplit::new("s", Expr::field(0), 3);
    let mut out = Output::new();
    for i in 0..300 {
        split.process(0, &Element::single(i, Timestamp::from_micros(i as u64)), &mut out).unwrap();
    }
    let mut merge = OrderedMerge::new("m", 3);
    out.clear();
    for g in [group_elements(1, 2), group_elements(4, 0), group_elements(5, 1)] {
        for e in g {
            merge.process(1, &e, &mut out).unwrap();
        }
    }
    for e in group_elements(3, 3).into_iter().take(2) {
        merge.process(2, &e, &mut out).unwrap();
    }
    let flushed = Element::new(Tuple::pair("late", 2.5), Timestamp::from_secs(1));
    merge.process(0, &flushed.with_seq(SeqTag::FLUSH), &mut out).unwrap();
    assert!(out.is_empty() && merge.pending_groups() == 4);
    let fresh_split: Fresh = || Box::new(ShardSplit::new("s", Expr::field(0), 3));
    let fresh_merge: Fresh = || Box::new(OrderedMerge::new("m", 3));
    vec![(fresh_split, split.snapshot()), (fresh_merge, merge.snapshot())]
}

/// Restores `payload` into a fresh operator: a typed refusal, or a state
/// that writes the very same bytes back.
fn restores_or_refuses(fresh: Fresh, version: u16, payload: Vec<u8>) -> Result<(), String> {
    let mut op = fresh();
    let state = op.stateful().expect("stateful");
    match state.restore(StateBlob::new(version, payload.clone())) {
        Err(_) => Ok(()),
        Ok(()) if state.snapshot().payload() == payload => Ok(()),
        Ok(()) => Err(format!("accepted {payload:?} but snapshots back {:?}", state.snapshot())),
    }
}

proptest! {
    #[test]
    fn partitioner_is_stable_across_instances(keys in proptest::collection::vec(-1000i64..1000, 1..64), n in 1usize..8) {
        let a = HashPartitioner::new(n);
        let b = HashPartitioner::new(n);
        for k in &keys {
            let v = Value::Int(*k);
            let shard = a.shard_of(&v);
            // In range, and identical for an independently built
            // partitioner (nothing process-random leaks in).
            prop_assert!((shard as usize) < n);
            prop_assert_eq!(shard, b.shard_of(&v));
            // Same key → same shard, trivially but importantly: routing is
            // a pure function of (key, n).
            prop_assert_eq!(shard, a.shard_of(&Value::Int(*k)));
        }
    }

    #[test]
    fn repartitioning_keeps_keys_together(stream in arb_stream(128), n in 1usize..6, m in 1usize..6) {
        // Re-partitioning from n to m shards: each key maps to exactly one
        // shard under either layout — elements of one key never diverge.
        let before = HashPartitioner::new(n);
        let after = HashPartitioner::new(m);
        for e in &stream {
            let k = e.tuple.field(0);
            for other in &stream {
                if other.tuple.field(0) == k {
                    prop_assert_eq!(before.shard_of(k), before.shard_of(other.tuple.field(0)));
                    prop_assert_eq!(after.shard_of(k), after.shard_of(other.tuple.field(0)));
                }
            }
        }
    }

    #[test]
    fn merge_emits_delivered_groups_in_sequence_order(seed in any::<u64>()) {
        if let Err(why) = merge_against_model(seed) {
            return Err(TestCaseError::fail(format!("seed {seed}: {why}")));
        }
    }

    #[test]
    fn sharded_aggregate_is_byte_identical_to_unsharded(
        stream in arb_stream(96),
        n in 1usize..5,
        interleave in proptest::collection::vec(0usize..64, 0..512),
    ) {
        let make = || -> Box<dyn Operator> {
            Box::new(
                WindowAggregate::new("agg", AggregateFunction::Sum(1), Duration::from_millis(20))
                    .group_by(Expr::field(0)),
            )
        };
        check_sharded_is_byte_identical(make, &stream, n, interleave)?;
    }

    #[test]
    fn sharded_filter_is_byte_identical_to_unsharded(
        stream in arb_stream(96),
        n in 1usize..5,
        interleave in proptest::collection::vec(0usize..64, 0..512),
    ) {
        // Selectivity ≈ 0.5: every other group reaches the merge as an
        // `empty` marker — the path no ledger workload runs.
        let make = || -> Box<dyn Operator> {
            Box::new(Filter::new("half", Expr::field(1).lt(Expr::int(500))))
        };
        check_sharded_is_byte_identical(make, &stream, n, interleave)?;
    }

    #[test]
    fn sharded_fan_out_is_byte_identical_to_unsharded(
        stream in arb_stream(96),
        n in 1usize..5,
        interleave in proptest::collection::vec(0usize..64, 0..512),
    ) {
        check_sharded_is_byte_identical(|| Box::new(FanOut), &stream, n, interleave)?;
    }
}

#[test]
fn damaged_snapshots_are_refused_or_restored_exactly() {
    for (fresh, blob) in snapshot_subjects() {
        let intact = blob.payload().to_vec();
        restores_or_refuses(fresh, blob.version(), intact.clone()).unwrap();
        // Any other version is refused outright.
        for version in [0, blob.version() - 1, blob.version() + 1] {
            let other = StateBlob::new(version, intact.clone());
            assert!(fresh().stateful().unwrap().restore(other).is_err(), "version {version}");
        }
        // Every truncation, and every value of every byte.
        for at in 0..intact.len() {
            restores_or_refuses(fresh, blob.version(), intact[..at].to_vec())
                .unwrap_or_else(|why| panic!("cut at {at}: {why}"));
            for byte in 0..=u8::MAX {
                let mut mutated = intact.clone();
                mutated[at] = byte;
                restores_or_refuses(fresh, blob.version(), mutated)
                    .unwrap_or_else(|why| panic!("byte {at} = {byte}: {why}"));
            }
        }
    }
}
