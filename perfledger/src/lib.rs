//! The repository's perf ledger: six saturation/latency workloads driven
//! through the engine's public API, per-layer probes and spans that
//! reconcile against the end-to-end wall, and the `benchmark` command that
//! `BENCHMARK.json` names. See `BENCHMARK.md`.

pub mod ledger;
