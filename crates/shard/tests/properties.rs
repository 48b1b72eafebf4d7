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
//!   interleavings of the replica streams, one element per call;
//! * the same through `process_batch` at every hop, the executor's path:
//!   runs of random length into the splitter, each replica handed its
//!   share as a run, the merge fed its ports' results in runs of random
//!   length, interleaved with the splitting;
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
use hmts_operators::map::Map;
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

/// `elements` under the state encoding: byte-identical means equal here,
/// not just `Eq`.
fn encode(elements: &[Element]) -> Vec<u8> {
    let mut w = BlobWriter::new();
    for e in elements {
        w.put_element(e);
    }
    w.finish()
}

/// The bare operator's results for `stream`, one element at a time.
fn unsharded(make: &dyn Fn() -> Box<dyn Operator>, stream: &[Element]) -> Vec<Element> {
    let (mut op, mut out) = (make(), Output::new());
    for e in stream {
        op.process(0, e, &mut out).unwrap();
    }
    out.drain().collect()
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
    let expected = unsharded(&make, stream);
    let mut out = Output::new();
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
    prop_assert_eq!(encode(&actual), encode(&expected));
    Ok(())
}

/// The sharded plan around `make()`'s operator driven the executor's way,
/// on a stream and a schedule derived from `seed`: runs of 1–64 elements
/// through `ShardSplit::process_batch`, each replica's share through
/// `ShardReplica::process_batch` onto its port, and between the runs the
/// merge fed a port's queued results in a run of 1–64 through
/// `OrderedMerge::process_batch`. The merged output must be byte-identical
/// to the bare operator's, with no tag left on it.
fn sharded_runs_against_unsharded(
    make: &dyn Fn() -> Box<dyn Operator>,
    seed: u64,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = 0u64;
    let stream: Vec<Element> = (0..rng.gen_range(0..300))
        .map(|_| {
            ts += rng.gen_range(0..500u64);
            let row = Tuple::pair(rng.gen_range(0..16i64), rng.gen_range(0..1000i64));
            Element::new(row, Timestamp::from_micros(ts))
        })
        .collect();
    let n = rng.gen_range(1..=4usize);
    let expected = unsharded(make, &stream);

    let mut split = ShardSplit::new(names::split("op"), Expr::field(0), n);
    let mut replicas: Vec<ShardReplica> =
        (0..n).map(|i| ShardReplica::new(names::replica("op", i), make())).collect();
    let mut merge = OrderedMerge::new(names::merge("op"), n);
    let (mut routed, mut tags, mut tagged, mut merged) =
        (Output::new(), Vec::new(), Output::new(), Output::new());
    let mut shares: Vec<Vec<Element>> = vec![Vec::new(); n];
    let mut ports: Vec<VecDeque<Element>> = vec![VecDeque::new(); n];
    let mut run = Vec::new();
    let mut rest = &stream[..];
    while !rest.is_empty() || ports.iter().any(|q| !q.is_empty()) {
        if !rest.is_empty() && rng.gen_bool(0.6) {
            let (head, tail) = rest.split_at(rng.gen_range(1..=64usize).min(rest.len()));
            rest = tail;
            run.extend(head.iter().cloned());
            split.process_batch(0, &mut run, &mut routed).map_err(|e| e.to_string())?;
            routed.swap_routes(&mut tags);
            for (e, shard) in routed.drain().zip(&tags) {
                shares[*shard as usize].push(e);
            }
            for (replica, (share, port)) in
                replicas.iter_mut().zip(shares.iter_mut().zip(&mut ports))
            {
                replica.process_batch(0, share, &mut tagged).map_err(|e| e.to_string())?;
                port.extend(tagged.drain());
            }
        } else {
            let live: Vec<usize> = (0..n).filter(|p| !ports[*p].is_empty()).collect();
            let Some(&port) = live.get(rng.gen_range(0..live.len().max(1))) else { continue };
            let take = rng.gen_range(1..=64usize).min(ports[port].len());
            run.extend(ports[port].drain(..take));
            merge.process_batch(port, &mut run, &mut merged).map_err(|e| e.to_string())?;
        }
        if !run.is_empty() {
            return Err("a run was left behind".into());
        }
    }
    if merge.pending_groups() != 0 {
        return Err(format!("{} groups held after the last run", merge.pending_groups()));
    }
    merge.flush(&mut merged).map_err(|e| e.to_string())?;
    let actual: Vec<Element> = merged.drain().collect();
    if let Some(e) = actual.iter().find(|e| !e.seq.is_none() || e.trace.is_sampled()) {
        return Err(format!("emitted {e} with tags {:?} {:?}", e.seq, e.trace));
    }
    if encode(&actual) != encode(&expected) {
        return Err(format!(
            "{} elements over {n} shards:\n  expected {expected:?}\n  actual   {actual:?}",
            stream.len()
        ));
    }
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
    fn sharded_runs_of_a_filter_are_byte_identical_to_unsharded(seed in any::<u64>()) {
        // About half the inputs pass: the rest reach the merge as markers.
        let make = || -> Box<dyn Operator> {
            Box::new(Filter::new("half", Expr::field(1).lt(Expr::int(500))))
        };
        if let Err(why) = sharded_runs_against_unsharded(&make, seed) {
            return Err(TestCaseError::fail(format!("seed {seed}: {why}")));
        }
    }

    #[test]
    fn sharded_runs_of_a_flat_map_are_byte_identical_to_unsharded(seed in any::<u64>()) {
        // 0–3 results per input: markers, and groups of `more` … `last`.
        let make = || -> Box<dyn Operator> {
            Box::new(Map::new("fan", |e, out| {
                let payload = e.tuple.field(1).as_int()?;
                for copy in 0..payload % 4 {
                    let key = e.tuple.field(0).clone();
                    out.emit(Tuple::new([key, Value::Int(payload), copy.into()]), e.ts);
                }
                Ok(())
            }))
        };
        if let Err(why) = sharded_runs_against_unsharded(&make, seed) {
            return Err(TestCaseError::fail(format!("seed {seed}: {why}")));
        }
    }

    #[test]
    fn sharded_runs_of_a_keyed_aggregate_are_byte_identical_to_unsharded(seed in any::<u64>()) {
        let make = || -> Box<dyn Operator> {
            Box::new(
                WindowAggregate::new("agg", AggregateFunction::Sum(1), Duration::from_millis(20))
                    .group_by(Expr::field(0)),
            )
        };
        if let Err(why) = sharded_runs_against_unsharded(&make, seed) {
            return Err(TestCaseError::fail(format!("seed {seed}: {why}")));
        }
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
