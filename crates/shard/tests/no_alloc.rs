//! The shard path moves the tuple it was given: between the splitter
//! receiving an element and the merge emitting it, the steady state
//! allocates nothing — a tuple is an `Arc` pointer copy per hop, the
//! sequence tag a word beside it, the route tags two buffers swapped back
//! and forth. Counted under a global allocator that keeps one counter per
//! thread, so the tests of this binary do not see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hmts_operators::expr::Expr;
use hmts_operators::filter::Filter;
use hmts_operators::traits::{Operator, Output};
use hmts_shard::{OrderedMerge, ShardReplica, ShardSplit};
use hmts_state::{StateBlob, StatefulOperator};
use hmts_streams::element::{Element, SeqKind, SeqTag};
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;

thread_local! {
    /// Allocations made by this thread, and the largest one's size.
    static ALLOCATIONS: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// thread-local `Cell` with a const initialiser, which neither allocates nor
// registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| {
            let (count, largest) = a.get();
            a.set((count + 1, largest.max(layout.size())));
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|a| {
            let (count, largest) = a.get();
            a.set((count + 1, largest.max(new_size)));
        });
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, largest size)` this thread made while running `f`.
fn allocations_during(f: impl FnOnce()) -> (u64, usize) {
    ALLOCATIONS.with(|a| a.set((0, 0)));
    f();
    ALLOCATIONS.with(Cell::get)
}

/// Split → two replicas around a passing filter → merge, the way the
/// executor drives them: a batch through the splitter element by element,
/// the route tags swapped out after each, each replica's share through the
/// replica, each replica's results through the merge port by port (so the
/// merge queues one port's batch until the other's arrives).
struct ShardPath {
    split: ShardSplit,
    replicas: Vec<ShardReplica>,
    merge: OrderedMerge,
    routed: Output,
    tags: Vec<u32>,
    to_replica: Vec<Vec<Element>>,
    tagged: Output,
    to_merge: Vec<Vec<Element>>,
    merged: Output,
    emitted: usize,
}

impl ShardPath {
    fn new(shards: usize) -> ShardPath {
        let pass = || Box::new(Filter::new("pass", Expr::field(1).ge(Expr::int(0))));
        ShardPath {
            split: ShardSplit::new("p.split", Expr::field(0), shards),
            replicas: (0..shards).map(|i| ShardReplica::new(format!("p[{i}]"), pass())).collect(),
            merge: OrderedMerge::new("p.merge", shards),
            routed: Output::new(),
            tags: Vec::new(),
            to_replica: vec![Vec::new(); shards],
            tagged: Output::new(),
            to_merge: vec![Vec::new(); shards],
            merged: Output::new(),
            emitted: 0,
        }
    }

    fn batch(&mut self, batch: &[Element]) {
        for e in batch {
            self.split.process(0, e, &mut self.routed).unwrap();
            self.routed.swap_routes(&mut self.tags);
            for (e, shard) in self.routed.drain().zip(&self.tags) {
                self.to_replica[*shard as usize].push(e);
            }
        }
        for (shard, replica) in self.replicas.iter_mut().enumerate() {
            for e in self.to_replica[shard].drain(..) {
                replica.process(0, &e, &mut self.tagged).unwrap();
            }
            self.to_merge[shard].extend(self.tagged.drain());
        }
        for (port, results) in self.to_merge.iter_mut().enumerate() {
            for e in results.drain(..) {
                self.merge.process(port, &e, &mut self.merged).unwrap();
            }
        }
        self.emitted += self.merged.len();
        self.merged.clear();
    }
}

#[test]
fn the_shard_path_allocates_nothing_per_element() {
    const BATCH: usize = 32;
    let pool: Vec<Element> = (0..4096u64)
        .map(|i| {
            Element::new(Tuple::pair((i * 7 % 13) as i64, i as i64), Timestamp::from_micros(i))
        })
        .collect();
    let mut path = ShardPath::new(2);
    // Warm-up: every reused buffer reaches its steady size.
    for batch in pool.chunks(BATCH) {
        path.batch(batch);
    }
    let before = path.emitted;
    let (count, _) = allocations_during(|| {
        for _ in 0..25 {
            for batch in pool.chunks(BATCH) {
                path.batch(batch);
            }
        }
    });
    assert_eq!(path.emitted - before, 25 * pool.len(), "every element came out of the merge");
    assert!(25 * pool.len() >= 100_000);
    assert_eq!(count, 0, "allocations on the shard path for {} elements", 25 * pool.len());
}

/// A length a blob claims is never what gets allocated: with 2³⁰ written
/// over any four bytes of a merge snapshot — each length prefix among them —
/// the restore ends having allocated next to nothing at once.
#[test]
fn a_claimed_length_is_not_allocated() {
    let mut merge = OrderedMerge::new("m", 2);
    let mut out = Output::new();
    let held = Element::new(Tuple::pair(1, "held"), Timestamp::ZERO);
    merge.process(1, &held.clone().with_seq(SeqTag::new(3, SeqKind::Last)), &mut out).unwrap();
    merge.process(0, &held.with_seq(SeqTag::FLUSH), &mut out).unwrap();
    let honest = merge.snapshot();
    for at in 0..honest.payload().len() - 3 {
        let mut claimed = honest.payload().to_vec();
        claimed[at..at + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let blob = StateBlob::new(honest.version(), claimed);
        let mut fresh = OrderedMerge::new("m", 2);
        let (_, largest) = allocations_during(|| drop(fresh.restore(blob)));
        assert!(largest <= 4096, "2^30 at byte {at}: allocated {largest} bytes at once");
    }
}
