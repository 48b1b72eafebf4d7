//! Runs every workload end to end and traced at a twentieth of its size,
//! and holds the result against `BENCHMARK.json`: every workload and metric
//! named there is produced, with its unit, and nothing failed. Also pins
//! what makes the ledger discriminate — which layers run on which workload.

use std::collections::BTreeMap;
use std::process::Command;

use hmts::obs::json::{self, Json};
use hmts_perfledger::ledger::report::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use hmts_perfledger::ledger::run::{end_to_end, traced, RunConfig};
use hmts_perfledger::ledger::workloads::{run_pass, Load, PassSpec, Workload};

/// Small enough to be quick, large enough that the low-rate pass of the
/// slowest workload still has the 1000 samples a 99th percentile needs.
const SCALE: f64 = 0.05;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn named<'a>(bench: &'a Json, list: &str) -> Vec<&'a BTreeMap<String, Json>> {
    let entries = bench.get(list).and_then(Json::as_arr).expect("a list");
    entries.iter().map(|e| e.as_obj().expect("an object")).collect()
}

fn config(workload: Workload) -> RunConfig {
    RunConfig { workload, seed: 7, seconds: 0.2, scale: SCALE, trace_out: None }
}

/// Parses the result line and checks it against the metrics `BENCHMARK.json`
/// names in `list`; returns the values by name.
fn check_result(
    outcome: &Outcome,
    defs: &[MetricDef],
    bench: &Json,
    list: &str,
) -> BTreeMap<String, f64> {
    let line = outcome.result_line(defs).expect("every metric measured and finite");
    let result = json::parse(&line).expect("the result line is JSON");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{line}");
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let metrics = result.get("metrics").and_then(Json::as_obj).expect("metrics object");
    let declared = named(bench, list);
    assert_eq!(metrics.len(), declared.len(), "exactly the declared metrics");
    declared
        .iter()
        .map(|d| {
            let name = d["name"].as_str().unwrap();
            let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing from {line}"));
            assert_eq!(m.get("unit").and_then(Json::as_str), d["unit"].as_str(), "{name}");
            (name.to_string(), m.get("value").and_then(Json::as_f64).expect("a number"))
        })
        .collect()
}

#[test]
fn catalogue_and_benchmark_json_agree() {
    let bench = benchmark_json();
    let workloads: Vec<&str> =
        named(&bench, "workloads").iter().map(|w| w["name"].as_str().unwrap()).collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    for (list, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = named(&bench, list);
        assert_eq!(declared.len(), defs.len(), "{list}");
        for (d, def) in declared.iter().zip(defs) {
            assert_eq!(d["name"].as_str(), Some(def.name));
            assert_eq!(d["unit"].as_str(), Some(def.unit), "{}", def.name);
            assert_eq!(d["better"].as_str(), Some(def.better.as_str()), "{}", def.name);
            assert_eq!(d.get("bound").and_then(Json::as_f64), def.bound, "{}", def.name);
        }
    }
    assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
}

#[test]
fn every_workload_reports_every_named_metric() {
    let bench = benchmark_json();
    for w in Workload::ALL {
        let e2e = check_result(&end_to_end(&config(w)), END_TO_END, &bench, "end_to_end");
        assert!(e2e.values().all(|&v| v > 0.0), "{}: end-to-end metrics are never 0", w.name());

        let layers = check_result(&traced(&config(w)), PER_LAYER, &bench, "per_layer");
        let at = |name: &str| layers[name];
        let queued = !matches!(w, Workload::ChainDi | Workload::KeyedAgg);
        assert_eq!(at("streams.queue.transfers") > 0.0, queued, "{}", w.name());
        if w == Workload::ChainGts {
            // A queue before every operator: every operator input was a
            // transfer (the few more are the end-of-stream messages).
            let extra = at("streams.queue.transfers") - at("operators.tuples_in");
            assert!((0.0..=6.0).contains(&extra), "{extra}");
        }
        let pooled = !matches!(w, Workload::ChainDi | Workload::ChainGts | Workload::KeyedAgg);
        assert_eq!(at("core.thread_scheduler.dispatches") > 0.0, pooled, "{}", w.name());
        let served = w == Workload::ServedLoopback;
        for count in ["net.ingest.tuples", "net.ingest.bytes", "net.egress.tuples"] {
            assert_eq!(at(count) > 0.0, served, "{} {count}", w.name());
        }
        let sharded = w == Workload::KeyedAggShard2;
        assert_eq!(at("shard.replica_tuples.max") > 0.0, sharded, "{}", w.name());
        assert_eq!(at("shard.speedup_vs_unsharded") > 0.0, sharded, "{}", w.name());
        assert!(at("operators.tuples_in") > 0.0 && at("operators.busy_s") > 0.0);
        assert!(at("reconcile.predicted_s") > 0.0);
    }
}

/// The span wrappers forward `shard_key`, `replicate` and the rest, so the
/// shard rewrite and the engine compute the same results with and without
/// them — and the same as the unsharded aggregate.
#[test]
fn spans_change_no_result() {
    let spec = |workload, traced| PassSpec {
        workload,
        load: Load::Saturate,
        tuples: 2_000,
        seed: 11,
        traced,
    };
    let bare = run_pass(spec(Workload::KeyedAggShard2, false));
    let spanned = run_pass(spec(Workload::KeyedAggShard2, true));
    let unsharded = run_pass(spec(Workload::KeyedAgg, false));
    for pass in [&bare, &spanned, &unsharded] {
        assert_eq!(pass.failures, 0);
        assert_eq!(pass.observed_results, bare.observed_results);
    }
    assert!(bare.observed_results.0 > 100);
    let trace = spanned.trace.expect("the traced pass recorded spans");
    let names: Vec<&str> = trace.nodes.iter().map(|n| n.name.as_str()).collect();
    assert_eq!(names, ["src", "sink", "flt", "agg", "agg#1", "agg.split", "agg.merge"]);
    let calls = |name: &str| trace.nodes.iter().find(|n| n.name == name).unwrap().calls;
    assert_eq!(
        calls("agg") + calls("agg#1"),
        calls("agg.split"),
        "every routed row reached a replica"
    );
}

/// The command itself: a debug build refuses to measure; a release build
/// prints the result as the last line of stdout. Bad arguments exit with 2.
#[test]
fn command_line() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_benchmark")).args(args).output().expect("benchmark runs")
    };
    let measured = run(&[
        "--workload",
        "chain_di",
        "--seed",
        "5",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--scale",
        "0.02",
    ]);
    if cfg!(debug_assertions) {
        assert_eq!(measured.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&measured.stderr).contains("debug build"));
        return;
    }
    assert!(measured.status.success(), "{}", String::from_utf8_lossy(&measured.stderr));
    let stdout = String::from_utf8_lossy(&measured.stdout);
    let result = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let keys: Vec<&str> = result.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(run(&["--workload", "no_such_workload"]).status.code(), Some(2));
    assert_eq!(run(&["--seconds", "12"]).status.code(), Some(2));
}
