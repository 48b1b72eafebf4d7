//! Every in-repo operator wrapper hands every `Operator` method on to the
//! operator it wraps. One table, walked once per wrapper: a method added to
//! the trait gets a row here, and a wrapper that forgets it — as the sink's
//! end-of-slice hook and `on_eos` were forgotten before — fails its walk.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use hmts::operators::aggregate::{AggregateFunction, WindowAggregate};
use hmts::operators::cost::{CostMode, Costed};
use hmts::operators::expr::Expr;
use hmts::operators::project::Project;
use hmts::operators::traits::{Operator, Output};
use hmts::state::{StateBlob, StateError, StatefulOperator};
use hmts::streams::element::{Element, SeqKind, SeqTag, TraceTag};
use hmts::streams::error::Result;
use hmts::streams::time::Timestamp;
use hmts::streams::tuple::Tuple;
use hmts_shard::ShardReplica;

type Log = Arc<Mutex<Vec<&'static str>>>;

/// Writes down the name of every method called on it.
struct Recorder(Log);

impl Recorder {
    fn note(&self, method: &'static str) {
        self.0.lock().unwrap().push(method);
    }
}

impl Operator for Recorder {
    fn name(&self) -> &str {
        self.note("name");
        "recorder"
    }

    fn input_arity(&self) -> usize {
        self.note("input_arity");
        3
    }

    fn process(&mut self, _port: usize, _element: &Element, _out: &mut Output) -> Result<()> {
        self.note("process");
        Ok(())
    }

    fn process_batch(
        &mut self,
        _port: usize,
        run: &mut Vec<Element>,
        _out: &mut Output,
    ) -> Result<()> {
        self.note("process_batch");
        run.clear();
        Ok(())
    }

    fn on_watermark(&mut self, _port: usize, _wm: Timestamp, _out: &mut Output) -> Result<()> {
        self.note("on_watermark");
        Ok(())
    }

    fn flush(&mut self, _out: &mut Output) -> Result<()> {
        self.note("flush");
        Ok(())
    }

    fn cost_hint(&self) -> Option<Duration> {
        self.note("cost_hint");
        None
    }

    fn selectivity_hint(&self) -> Option<f64> {
        self.note("selectivity_hint");
        None
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulOperator> {
        self.note("stateful");
        Some(self)
    }

    fn shard_key(&self, _port: usize) -> Option<Expr> {
        self.note("shard_key");
        None
    }

    fn replicate(&self) -> Option<Box<dyn Operator>> {
        self.note("replicate");
        Some(Box::new(Recorder(Arc::clone(&self.0))))
    }

    fn on_eos(&mut self, _port: usize, _out: &mut Output) -> Result<()> {
        self.note("on_eos");
        Ok(())
    }

    fn end_slice(&mut self) {
        self.note("end_slice");
    }
}

impl StatefulOperator for Recorder {
    fn snapshot(&self) -> StateBlob {
        StateBlob::new(1, Vec::new())
    }

    fn restore(&mut self, _blob: StateBlob) -> std::result::Result<(), StateError> {
        Ok(())
    }
}

/// Two elements as a replica expects them: carrying a sequence tag.
fn run() -> Vec<Element> {
    (0..2u64)
        .map(|seq| {
            Element::single(seq as i64, Timestamp::from_micros(seq))
                .with_seq(SeqTag::new(seq, SeqKind::Last))
        })
        .collect()
}

/// A method's name and a call of it.
type Method = (&'static str, fn(&mut dyn Operator));

/// One row per `Operator` method — the required two and every provided one.
const METHODS: &[Method] = &[
    ("name", |op| assert!(!op.name().is_empty())),
    ("input_arity", |op| assert_eq!(op.input_arity(), 3)),
    ("process", |op| op.process(0, &run()[0], &mut Output::new()).unwrap()),
    ("process_batch", |op| {
        let mut run = run();
        op.process_batch(0, &mut run, &mut Output::new()).unwrap();
        assert!(run.is_empty());
    }),
    ("on_watermark", |op| op.on_watermark(0, Timestamp::ZERO, &mut Output::new()).unwrap()),
    ("flush", |op| op.flush(&mut Output::new()).unwrap()),
    ("cost_hint", |op| {
        let _ = op.cost_hint();
    }),
    ("selectivity_hint", |op| {
        let _ = op.selectivity_hint();
    }),
    ("stateful", |op| assert!(op.stateful().is_some())),
    ("shard_key", |op| drop(op.shard_key(0))),
    ("replicate", |op| drop(op.replicate())),
    ("on_eos", |op| op.on_eos(0, &mut Output::new()).unwrap()),
    ("end_slice", |op| op.end_slice()),
];

/// The operator `keyed_agg_shard2` shards, under its replica wrapper: the
/// replica hands it one element at a time, and what comes out — results,
/// refusals, state — is what the bare aggregate makes of the same run, its
/// results tagged as the last of their input's sequence group.
#[test]
fn a_window_aggregate_under_a_replica_computes_what_it_computes_bare() {
    let build = || {
        WindowAggregate::new("agg", AggregateFunction::Sum(1), Duration::from_micros(40))
            .group_by(Expr::field(0))
    };
    let stream: Vec<Element> = (0..200u64)
        .map(|i| {
            // Element 77 has no value to sum: both refuse it.
            let row =
                if i == 77 { Tuple::single(1) } else { Tuple::pair((i * 7 % 5) as i64, i as i64) };
            Element::new(row, Timestamp::from_micros(i * 3)).with_seq(SeqTag::new(i, SeqKind::Last))
        })
        .collect();
    // Feeds `stream` in runs of 32, skipping the refused element.
    let feed = |op: &mut dyn Operator| {
        let mut out = Output::new();
        let mut refused = Vec::new();
        for chunk in stream.chunks(32) {
            let mut run = chunk.to_vec();
            while op.process_batch(0, &mut run, &mut out).is_err() {
                refused.push(run.remove(0).seq);
            }
        }
        (out, refused)
    };
    let mut bare = build();
    let (want, bare_refused) = feed(&mut bare);
    let mut replica = ShardReplica::new("agg[0]", Box::new(build()));
    let (got, refused) = feed(&mut replica);

    assert_eq!(refused, bare_refused);
    assert_eq!(refused, [SeqTag::new(77, SeqKind::Last)]);
    assert_eq!(got.elements(), want.elements(), "the same results, in order");
    let seqs: Vec<_> = got.elements().iter().map(|e| e.seq.position()).collect();
    let inputs = (0..200).filter(|&i| i != 77).map(|i| Some((i, SeqKind::Last)));
    assert!(seqs.into_iter().eq(inputs), "one result per input, tagged as its last");
    let blob = |op: &mut dyn Operator| op.stateful().unwrap().snapshot().payload().to_vec();
    assert_eq!(blob(&mut replica), blob(&mut bare));
}

#[test]
fn every_wrapper_hands_every_operator_method_on() {
    type Wrap = fn(Recorder) -> Box<dyn Operator>;
    // `forwards_runs`: whether the wrapped operator is handed a run as a
    // run. A wrapper that does something per element — charge a cost, tag
    // the results — gets the provided loop and hands on elements.
    let wrappers: [(&str, Wrap, bool); 3] = [
        // A box in a box, so the call goes through the forwarding impl and
        // not straight through the vtable of the inner box.
        ("Box<dyn Operator>", |r| Box::new(Box::new(r) as Box<dyn Operator>), true),
        ("Costed", |r| Box::new(Costed::new(r, CostMode::Virtual(Duration::ZERO))), false),
        ("ShardReplica", |r| Box::new(ShardReplica::new("recorder[0]", Box::new(r))), false),
    ];
    for (wrapper, wrap, forwards_runs) in wrappers {
        let log = Log::default();
        let mut op = wrap(Recorder(Arc::clone(&log)));
        for (method, call) in METHODS {
            log.lock().unwrap().clear();
            call(&mut *op);
            let seen = std::mem::take(&mut *log.lock().unwrap());
            match (*method, forwards_runs) {
                // A replica has a name of its own and is not sharded again:
                // the three methods it answers itself.
                ("name" | "shard_key" | "replicate", _) if wrapper == "ShardReplica" => {
                    assert_eq!(seen, [""; 0], "{wrapper}::{method}");
                    assert_eq!(op.name(), "recorder[0]");
                }
                ("process_batch", false) => assert_eq!(seen, ["process", "process"], "{wrapper}"),
                _ => assert_eq!(seen, [*method], "{wrapper}::{method}"),
            }
        }
    }
}

/// A wrapper that hands the operator it wraps one element at a time owes
/// the tag duty of `process_batch`: the results of a sampled element carry
/// its tag, also where the wrapped operator builds them from scratch.
#[test]
fn a_wrapper_tags_what_a_sampled_element_produced() {
    let project = || Box::new(Project::new("p", vec![0])) as Box<dyn Operator>;
    let wrappers: [(&str, Box<dyn Operator>); 2] = [
        ("Costed", Box::new(Costed::new(project(), CostMode::Virtual(Duration::ZERO)))),
        ("ShardReplica", Box::new(ShardReplica::new("p[0]", project()))),
    ];
    for (wrapper, mut op) in wrappers {
        // The first element is not sampled, the second is.
        let mut run: Vec<Element> = run()
            .into_iter()
            .zip([0, 7])
            .map(|(el, id)| el.with_trace(TraceTag::new(id)))
            .collect();
        let tags: Vec<TraceTag> = run.iter().map(|el| el.trace).collect();
        let mut out = Output::new();
        op.process_batch(0, &mut run, &mut out).unwrap();
        let got: Vec<TraceTag> = out.elements().iter().map(|el| el.trace).collect();
        assert_eq!(got, tags, "{wrapper}");
    }
}
