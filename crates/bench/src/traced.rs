//! Shared `--trace <dir>` runner for the figure binaries.
//!
//! Replays the Fig. 9/10 chain on the *real* engine under a two-partition
//! HMTS plan with per-tuple trace sampling enabled, through
//! [`trace_run`](crate::obsrun::trace_run). The run is heavily
//! time-compressed: the point is latency *attribution* under the paper's
//! bursty workload, not the paper-scale completion gap.

use std::path::Path;

use hmts::obs::export::OpLatency;
use hmts::prelude::*;
use hmts::workload::scenarios::{fig9_chain, Fig9Params};

/// Tuple-trace sampling rate used by the `--trace` runs: with ≈70 000
/// source elements, 1-in-16 keeps the span buffer comfortably inside its
/// ring while still giving every operator thousands of samples.
pub const TRACE_SAMPLE_EVERY: u64 = 16;

/// Runs the traced Fig. 9/10 experiment and writes `trace.json` +
/// `latency_breakdown.csv` under `dir`. Returns the per-operator rows so
/// callers can fold them into their own summaries.
pub fn run_traced(dir: &Path, seed: u64) -> Vec<OpLatency> {
    let s = fig9_chain(&Fig9Params { speedup: 2_000.0, seed, ..Fig9Params::default() });
    // The paper's Fig. 9 placement: {projection, cheap selection} and
    // {expensive selection, sink} as two virtual operators on a two-worker
    // pool, so the trace shows both intra-partition DI hops and the
    // decoupling queue between the partitions.
    let part = Partitioning::new(vec![
        vec![s.projection, s.cheap_selection],
        vec![s.expensive_selection, s.sink],
    ]);
    crate::obsrun::trace_run(
        dir,
        "fig9 chain",
        TRACE_SAMPLE_EVERY,
        seed,
        s.graph,
        ExecutionPlan::hmts(part, StrategyKind::Fifo, 2),
        EngineConfig::default(),
    )
}
