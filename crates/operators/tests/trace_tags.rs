//! The operator contract's tag duty, as one table: a run in which some
//! elements carry a sampled trace tag and some a shard sequence tag goes
//! through each operator's `process_batch`, and every output carries the
//! tags of the input that produced it — whether the operator moves its
//! input on, clones it, or builds the result from scratch — so an input
//! without a tag gives results without one.

use std::time::Duration;

use hmts_operators::aggregate::{AggregateFunction, WindowAggregate};
use hmts_operators::dedup::Dedup;
use hmts_operators::expr::Expr;
use hmts_operators::filter::Filter;
use hmts_operators::join::{JoinCondition, SymmetricHashJoin, SymmetricNestedLoopsJoin};
use hmts_operators::map::Map;
use hmts_operators::project::Project;
use hmts_operators::traits::{Operator, Output};
use hmts_operators::union::Union;
use hmts_streams::element::{Element, SeqKind, SeqTag, TraceTag};
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;

/// Elements `(i % 3, i)` for `i` in `ids`, every other one sampled (tag
/// `1000 + i`), four in five carrying sequence number `i`.
fn run(ids: std::ops::Range<i64>) -> Vec<Element> {
    ids.map(|i| {
        let tag = TraceTag::new(if i % 2 == 1 { 1000 + i as u64 } else { 0 });
        let seq = if i % 5 == 0 { SeqTag::NONE } else { SeqTag::new(i as u64, SeqKind::Last) };
        Element::new(Tuple::pair(i % 3, i), Timestamp::from_micros(i as u64))
            .with_trace(tag)
            .with_seq(seq)
    })
    .collect()
}

/// A row: the operator, built fresh for each side of the comparison, and
/// the runs it is fed, by port.
type Row = (&'static str, fn() -> Box<dyn Operator>, Vec<(usize, Vec<Element>)>);

fn rows() -> Vec<Row> {
    vec![
        ("Project", || Box::new(Project::new("p", vec![1, 0])), vec![(0, run(0..16))]),
        (
            "Map",
            || {
                Box::new(Map::new("m", |el, out| {
                    let v = el.tuple.field(1).as_int()?;
                    for k in 0..v % 3 {
                        out.emit(Tuple::pair(v, k), el.ts);
                    }
                    Ok(())
                }))
            },
            vec![(0, run(0..16))],
        ),
        (
            "SymmetricHashJoin",
            || Box::new(SymmetricHashJoin::on_field("shj", 0, Duration::from_secs(1))),
            vec![(0, run(0..8)), (1, run(8..16)), (0, run(16..24))],
        ),
        (
            "SymmetricNestedLoopsJoin",
            || {
                let on = JoinCondition::on_field(0);
                Box::new(SymmetricNestedLoopsJoin::new("snj", on, Duration::from_secs(1)))
            },
            vec![(0, run(0..8)), (1, run(8..16)), (0, run(16..24))],
        ),
        (
            "Dedup",
            || Box::new(Dedup::new("d", Expr::field(0), Duration::from_micros(4))),
            vec![(0, run(0..16))],
        ),
        ("Union", || Box::new(Union::new("u", 2)), vec![(0, run(0..8)), (1, run(8..16))]),
        (
            "WindowAggregate",
            || {
                let sum = AggregateFunction::Sum(1);
                Box::new(
                    WindowAggregate::new("a", sum, Duration::from_micros(5))
                        .group_by(Expr::field(0)),
                )
            },
            vec![(0, run(0..16))],
        ),
        (
            "Filter",
            || Box::new(Filter::new("f", Expr::field(0).lt(Expr::int(2)))),
            vec![(0, run(0..16))],
        ),
    ]
}

#[test]
fn every_output_of_a_run_carries_the_tag_of_the_input_that_produced_it() {
    for (name, build, runs) in rows() {
        // One element at a time through `process`, each output written down
        // with the tag of the element it came from.
        let (mut op, mut out, mut want) = (build(), Output::new(), Vec::new());
        for (port, run) in &runs {
            for el in run {
                op.process(*port, el, &mut out).unwrap();
                want.extend(out.drain().map(|o| (o, el.trace, el.seq)));
            }
        }
        // The same runs through `process_batch`.
        let (mut op, mut out) = (build(), Output::new());
        for (port, run) in &runs {
            op.process_batch(*port, &mut run.clone(), &mut out).unwrap();
        }
        let got = out.elements();
        assert_eq!(got.len(), want.len(), "{name}: outputs");
        for (i, (el, (expected, trace, seq))) in got.iter().zip(&want).enumerate() {
            assert_eq!(el, expected, "{name}: output {i}");
            assert_eq!(el.trace, *trace, "{name}: output {i} carries its input's trace tag");
            assert_eq!(el.seq, *seq, "{name}: output {i} carries its input's sequence tag");
        }
        assert!(want.iter().any(|(_, t, _)| t.is_sampled()), "{name}: a sampled input produced");
        assert!(want.iter().any(|(_, _, s)| !s.is_none()), "{name}: a sequenced input produced");
        assert!(want.iter().any(|(_, _, s)| s.is_none()), "{name}: an untagged input produced");
    }
}
