//! A DI hop moves the run it was given: from `inject_batch` through five
//! passing selections into a sink, the steady state allocates nothing —
//! a selection moves what passes into the output buffer, the output buffer
//! becomes the next selection's run by a swap (three buffers trade places
//! down the chain), and a statistics cell is written through its writer's
//! mirror from a reused list of timestamps. That holds whatever the run's
//! length, a run of one included. Counted under a global allocator that
//! keeps one counter per thread, which is why this test has a binary of
//! its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hmts::engine::executor::{DomainExecutor, ExecConfig, SlotInit, SlotState, Target};
use hmts::prelude::*;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// thread-local `Cell` with a const initialiser, which neither allocates nor
// registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HOPS: usize = 5;

/// Five selections that pass everything, inline one after the other, into
/// a counting sink — each slot observed by a statistics cell, as under the
/// engine's default configuration.
fn chain() -> (DomainExecutor, SinkHandle) {
    let (sink, handle) = CountingSink::new("sink");
    let mut slots: Vec<SlotInit> = (0..HOPS)
        .map(|i| {
            let pass = Filter::new(format!("f{i}"), Expr::field(0).ge(Expr::int(0)));
            let next = Target::Inline { node: NodeId(i + 1), port: 0 };
            SlotInit::new(SlotState::new(NodeId(i), Box::new(pass)), vec![next])
        })
        .collect();
    slots.push(SlotInit::new(SlotState::new(NodeId(HOPS), Box::new(sink)), vec![]));
    for slot in &mut slots {
        slot.stats = Some(hmts::stats::shared_node_stats());
    }
    let exec = DomainExecutor::new(
        "chain",
        slots,
        vec![],
        StrategyKind::Fifo.build(None),
        ExecConfig::default(),
    );
    (exec, handle)
}

#[test]
fn a_run_through_five_selections_allocates_nothing_per_element() {
    let pool: Vec<Element> = (0..4096u64)
        .map(|i| Element::new(Tuple::pair((i % 1000) as i64, i as i64), Timestamp::from_micros(i)))
        .collect();
    for run_len in [32, 1] {
        let (mut exec, handle) = chain();
        let mut run: Vec<Message> = Vec::with_capacity(run_len);
        let mut pass = |exec: &mut DomainExecutor| {
            for chunk in pool.chunks(run_len) {
                run.extend(chunk.iter().cloned().map(Message::Data));
                exec.inject_batch(NodeId(0), 0, &mut run);
            }
        };
        // Warm-up: every reused buffer reaches its steady size.
        pass(&mut exec);
        let before = handle.count();
        ALLOCATIONS.with(|a| a.set(0));
        for _ in 0..25 {
            pass(&mut exec);
        }
        let count = ALLOCATIONS.with(Cell::get);
        let elements = 25 * pool.len() as u64;
        assert_eq!(handle.count() - before, elements, "every element reached the sink");
        assert!(exec.error().is_none());
        assert_eq!(count, 0, "allocations for {elements} elements in runs of {run_len}");
    }
}
