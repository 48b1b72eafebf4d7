//! `SharedStr`'s blocks, counted under a global allocator: each string is
//! one allocation however it is built, and each is freed exactly once
//! however its clones are spread over threads and dropped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use hmts_streams::shared_str::SharedStr;
use hmts_streams::value::Value;

/// A string length no other allocation of this binary has: the blocks of
/// strings this long are the ones counted.
const LEN: usize = 1013;
/// The size of such a block: the count and the length, then the bytes.
const BLOCK: usize = 16 + LEN;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// atomics, which neither allocate nor block.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == BLOCK {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() == BLOCK {
            FREES.fetch_add(1, Ordering::SeqCst);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::SeqCst), FREES.load(Ordering::SeqCst))
}

#[test]
fn clones_dropped_across_threads_free_each_block_once() {
    const STRINGS: usize = 200;
    const THREADS: usize = 2;
    const CLONES: usize = 50;
    let text = |i: usize| format!("{i:0LEN$}");
    let (allocs, frees) = counts();

    // Built from a `&str`, from a `String`, and as a `Value`: one block each.
    let strings: Vec<SharedStr> = (0..STRINGS)
        .map(|i| if i % 2 == 0 { SharedStr::from(text(i).as_str()) } else { text(i).into() })
        .collect();
    let value = Value::from(text(STRINGS));
    assert_eq!(counts(), (allocs + STRINGS as u64 + 1, frees));

    // Each thread gets clones of every string, and the last handle of a
    // block may be any thread's.
    let start = Arc::new(Barrier::new(THREADS + 1));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let mine: Vec<SharedStr> =
                strings.iter().flat_map(|s| (0..CLONES).map(|_| s.clone())).collect();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for (n, s) in mine.into_iter().enumerate() {
                    assert_eq!(s.len(), LEN);
                    assert_eq!(s.as_str(), text(n / CLONES));
                }
            })
        })
        .collect();
    assert_eq!(counts(), (allocs + STRINGS as u64 + 1, frees), "a clone allocates nothing");
    start.wait();
    drop(strings);
    for worker in workers {
        worker.join().unwrap();
    }
    assert_eq!(counts(), (allocs + STRINGS as u64 + 1, frees + STRINGS as u64));

    let copy = value.clone();
    drop(value);
    assert_eq!(copy.as_str().unwrap(), text(STRINGS));
    drop(copy);
    assert_eq!(counts(), (allocs + STRINGS as u64 + 1, frees + STRINGS as u64 + 1));
}
