//! Observability overhead: the cost of an instrumented operator invocation
//! with observability disabled (the default) versus enabled, and the cost
//! of the per-tuple trace hook in its three states — disabled (no tracer),
//! unsampled (tracer installed, tuple not sampled), and sampled (a span is
//! recorded).
//!
//! The disabled paths are the acceptance-critical ones — an engine built
//! without an [`Obs`] handle must pay only a `None` branch per emit guard
//! plus a relaxed atomic per detached counter, and the executor's trace
//! hook must cost one tag test when the tuple is untraced. Before the
//! timed benches run, `main` uses a counting global allocator to assert
//! the disabled and unsampled hook paths perform **zero allocations** —
//! the acceptance bound of the tracing tentpole. The `hmts-obs` unit test
//! `disabled_path_is_near_zero_cost` asserts the journal-side bound
//! (< 50 ns) without criterion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, Criterion, Throughput};
use hmts::checkpoint::CheckpointShared;
use hmts::obs::alert::{AlertEngine, AlertRule};
use hmts::obs::capacity::{self, CapacityConfig};
use hmts::obs::{trace_id, Histogram, HopKind, Obs, SchedEvent, TraceConfig, Tracer, NO_PARTITION};
use hmts::streams::element::TraceTag;

/// A pass-through allocator that counts allocation calls so the harness
/// can prove the untraced hot path never touches the heap.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// What an instrumented hot path does once per operator invocation: one
/// journal emit guard and one counter update.
fn instrumented_op(obs: &Obs, counter: &hmts::obs::Counter, i: usize) {
    obs.emit_with(|| SchedEvent::Dispatch { domain: i, worker: 0, priority: 0 });
    counter.inc();
}

/// The executor's per-element trace hook, verbatim: a tag test, an
/// `Option` branch, and — only for sampled tuples — a span record against
/// a pre-interned site name.
#[inline]
fn trace_hook(tag: TraceTag, tracer: &Option<Arc<Tracer>>, site: &Arc<str>) {
    if tag.is_sampled() {
        if let Some(t) = tracer {
            t.record(tag.id(), HopKind::ProcessStart, site, 0);
        }
    }
}

fn sampling_tracer(sample_every: u64) -> Option<Arc<Tracer>> {
    let cfg = TraceConfig { sample_every, seed: 1, buffer_capacity: 1 << 10 };
    Some(Arc::new(Tracer::new(cfg, Instant::now())))
}

/// The egress sink's per-delivery SLO hook, verbatim: for untraced
/// tuples with observability off it is one tag test plus two `Option`
/// branches — no clock read, no histogram touch, no heap.
#[inline]
fn egress_slo_hook(
    trace: TraceTag,
    tracer: &Option<Arc<Tracer>>,
    site: &Arc<str>,
    e2e: &Option<Histogram>,
    now_ns: u128,
    ts_ns: u128,
) {
    if trace.is_sampled() {
        if let Some(t) = tracer {
            t.record(trace.id(), HopKind::NetSend, site, NO_PARTITION);
        }
    }
    if let Some(h) = e2e {
        h.record(now_ns.saturating_sub(ts_ns).min(u128::from(u64::MAX)) as u64);
    }
}

/// The source driver's per-element admission-tag resolution, verbatim:
/// an inbound (wire-carried) sampled tag wins; otherwise local sampling
/// decides. With tracing off both arms collapse to a tag test and an
/// `Option` branch.
#[inline]
fn admission_tag_hook(inbound: TraceTag, local: &Option<(Arc<Tracer>, u32)>, seq: u64) -> TraceTag {
    if inbound.is_sampled() {
        inbound
    } else {
        match local {
            Some((t, source)) if t.sampled(seq) => TraceTag::new(trace_id(*source, seq)),
            _ => TraceTag::NONE,
        }
    }
}

/// The source driver's per-element barrier poll, verbatim: with
/// checkpointing off the emission loop pays one `Option` branch; with it
/// on but no checkpoint in flight, one relaxed atomic load and a compare
/// against the last-seen barrier id.
#[inline]
fn checkpoint_poll(ck: &Option<Arc<CheckpointShared>>, last_barrier: &mut u64) -> bool {
    if let Some(ck) = ck {
        let id = ck.requested();
        if id != *last_barrier {
            *last_barrier = id;
            return id != 0;
        }
    }
    false
}

/// Asserts the acceptance bound of the tracing tentpole: with tracing
/// disabled or the tuple unsampled, the hook performs zero heap
/// allocations per element.
fn assert_untraced_hook_allocates_nothing() {
    const N: u64 = 100_000;
    let site: Arc<str> = Arc::from("sel_cheap");

    let disabled: Option<Arc<Tracer>> = None;
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..N {
        trace_hook(black_box(TraceTag::NONE), black_box(&disabled), &site);
    }
    let disabled_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    let unsampled = sampling_tracer(u64::MAX);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..N {
        trace_hook(black_box(TraceTag::NONE), black_box(&unsampled), &site);
    }
    let unsampled_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    assert_eq!(disabled_allocs, 0, "disabled trace hook must not allocate");
    assert_eq!(unsampled_allocs, 0, "unsampled trace hook must not allocate");
    assert_eq!(
        unsampled.as_ref().map(|t| t.recorded()),
        Some(0),
        "unsampled tuples record no spans"
    );
    println!("untraced hot path: 0 allocations over {N} disabled and {N} unsampled elements\n");
}

/// The checkpoint analogue: a source without checkpointing (the default)
/// and one with the coordinator attached but no barrier in flight must
/// both stay off the heap — the `hmts-state` acceptance bound for the
/// per-element poll.
fn assert_checkpoint_hook_allocates_nothing() {
    const N: u64 = 100_000;

    let disabled: Option<Arc<CheckpointShared>> = None;
    let mut last = 0u64;
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..N {
        black_box(checkpoint_poll(black_box(&disabled), &mut last));
    }
    let disabled_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    let idle = Some(CheckpointShared::new(Obs::disabled()));
    let mut last = 0u64;
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..N {
        black_box(checkpoint_poll(black_box(&idle), &mut last));
    }
    let idle_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    assert_eq!(disabled_allocs, 0, "disabled checkpoint poll must not allocate");
    assert_eq!(idle_allocs, 0, "idle checkpoint poll must not allocate");
    println!("checkpoint poll: 0 allocations over {N} disabled and {N} idle elements\n");
}

/// The capacity/alert analogue: with observability disabled, installing
/// the analyzer and an alert engine wires nothing into the collector
/// chain, so the recurring paths — `run_collectors` (which would drive
/// both when enabled) and a direct `evaluate` round — must stay off the
/// heap entirely. This is the "alerting costs nothing unless you turn
/// observability on" bound of the capacity-analyzer tentpole.
fn assert_disabled_alert_and_capacity_paths_allocate_nothing() {
    const N: u64 = 100_000;
    let obs = Obs::disabled();
    capacity::install(&obs, CapacityConfig::default());
    let engine = AlertEngine::install(
        &obs,
        vec![AlertRule::parse("rho > 0.9 for 5s").expect("rule parses")],
    );

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..N {
        obs.run_collectors();
        engine.evaluate();
        black_box(&engine);
    }
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "disabled capacity/alert evaluation must not allocate");
    println!("capacity/alert disabled path: 0 allocations over {N} evaluation rounds\n");
}

/// The SLO-accounting analogue of the tracing bound: the egress
/// delivery hook and the source admission-tag hook must stay off the
/// heap when observability is disabled, and when enabled-but-unsampled.
fn assert_slo_hooks_allocate_nothing() {
    const N: u64 = 100_000;
    let site: Arc<str> = Arc::from("egress");

    // Disabled: no tracer, no histogram (what `Obs::disabled()` yields).
    let no_tracer: Option<Arc<Tracer>> = None;
    let no_hist: Option<Histogram> = None;
    let no_local: Option<(Arc<Tracer>, u32)> = None;
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for i in 0..N {
        egress_slo_hook(black_box(TraceTag::NONE), &no_tracer, &site, &no_hist, 0, 0);
        black_box(admission_tag_hook(black_box(TraceTag::NONE), black_box(&no_local), i));
    }
    let disabled_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    // Enabled but unsampled: tracer installed, every tuple misses the
    // modulus; the histogram arm records (atomics only — still no heap).
    let tracer = sampling_tracer(u64::MAX);
    let local = tracer.clone().map(|t| (t, 7u32));
    let obs = Obs::enabled();
    let hist = Some(obs.histogram("egress.results.e2e_latency_ns"));
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for i in 0..N {
        egress_slo_hook(black_box(TraceTag::NONE), &tracer, &site, &hist, 5_000, 1_000);
        black_box(admission_tag_hook(black_box(TraceTag::NONE), black_box(&local), i));
    }
    let unsampled_allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    assert_eq!(disabled_allocs, 0, "disabled SLO hooks must not allocate");
    assert_eq!(unsampled_allocs, 0, "unsampled SLO hooks must not allocate");
    println!(
        "SLO hooks: 0 allocations over {N} disabled and {N} unsampled deliveries
"
    );
}

fn obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead");
    g.throughput(Throughput::Elements(1));

    g.bench_function("disabled_emit_and_count", |b| {
        let obs = Obs::disabled();
        let counter = obs.counter("hot");
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            instrumented_op(black_box(&obs), &counter, i);
        });
    });

    g.bench_function("enabled_emit_and_count", |b| {
        let obs = Obs::enabled();
        let counter = obs.counter("hot");
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            instrumented_op(black_box(&obs), &counter, i);
        });
    });

    g.bench_function("enabled_histogram_record", |b| {
        let obs = Obs::enabled();
        let h = obs.histogram("lat");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            h.record(black_box(i));
        });
    });

    g.finish();
}

fn slo_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("slo_hook");
    g.throughput(Throughput::Elements(1));
    let site: Arc<str> = Arc::from("egress");

    g.bench_function("disabled", |b| {
        let tracer: Option<Arc<Tracer>> = None;
        let hist: Option<Histogram> = None;
        b.iter(|| egress_slo_hook(black_box(TraceTag::NONE), &tracer, &site, &hist, 0, 0));
    });

    g.bench_function("enabled_unsampled", |b| {
        let tracer = sampling_tracer(u64::MAX);
        let obs = Obs::enabled();
        let hist = Some(obs.histogram("egress.results.e2e_latency_ns"));
        let mut now = 0u128;
        b.iter(|| {
            now += 1_000;
            egress_slo_hook(black_box(TraceTag::NONE), &tracer, &site, &hist, now, 500);
        });
    });

    g.finish();
}

fn trace_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_hook");
    g.throughput(Throughput::Elements(1));
    let site: Arc<str> = Arc::from("sel_cheap");

    g.bench_function("disabled", |b| {
        let tracer: Option<Arc<Tracer>> = None;
        b.iter(|| trace_hook(black_box(TraceTag::NONE), black_box(&tracer), &site));
    });

    g.bench_function("unsampled", |b| {
        let tracer = sampling_tracer(u64::MAX);
        b.iter(|| trace_hook(black_box(TraceTag::NONE), black_box(&tracer), &site));
    });

    g.bench_function("sampled_record", |b| {
        let tracer = sampling_tracer(1);
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            trace_hook(black_box(TraceTag::new(seq)), black_box(&tracer), &site);
        });
    });

    g.finish();
}

fn unwind_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("unwind_boundary");
    g.throughput(Throughput::Elements(1));

    // The panic-isolation boundary every operator run crosses:
    // `catch_unwind` around a call that does not unwind.
    g.bench_function("catch_unwind_no_panic", |b| {
        let mut acc = 0u64;
        b.iter(|| {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                acc = acc.wrapping_add(black_box(1));
                acc
            }));
            black_box(r.unwrap_or(0))
        });
    });

    g.finish();
}

fn checkpoint_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint_poll");
    g.throughput(Throughput::Elements(1));

    g.bench_function("disabled", |b| {
        let ck: Option<Arc<CheckpointShared>> = None;
        let mut last = 0u64;
        b.iter(|| checkpoint_poll(black_box(&ck), &mut last));
    });

    g.bench_function("enabled_idle", |b| {
        let ck = Some(CheckpointShared::new(Obs::disabled()));
        let mut last = 0u64;
        b.iter(|| checkpoint_poll(black_box(&ck), &mut last));
    });

    g.finish();
}

criterion_group!(
    benches,
    obs_overhead,
    slo_overhead,
    trace_overhead,
    unwind_overhead,
    checkpoint_overhead
);

fn main() {
    // `cargo bench` passes flags like `--bench`; nothing to parse.
    let _ = std::env::args();
    assert_untraced_hook_allocates_nothing();
    assert_slo_hooks_allocate_nothing();
    assert_checkpoint_hook_allocates_nothing();
    assert_disabled_alert_and_capacity_paths_allocate_nothing();
    benches();
}
