//! Serves the paper's Fig. 9/10 query chain over TCP: tuples in through
//! the backpressured ingest server, results out through the egress
//! fan-out, the HMTS engine in between.
//!
//! With `--switch-after-ms` the engine starts under single-threaded GTS
//! and performs a *runtime* switch to the paper's two-VO HMTS plan while
//! external load is flowing — the live-mode-switch demonstration from
//! §5/§6.6, driven over loopback by `netgen`.
//!
//! ```text
//! serve --ingest 127.0.0.1:7071 --egress 127.0.0.1:7072 --speedup 50000
//! ```

use std::process::exit;
use std::time::Duration;

use hmts::obs::alert::{AlertEngine, AlertRule};
use hmts::obs::capacity::{self, CapacityConfig};
use hmts::obs::{export, AdminServer};
use hmts::prelude::*;
use hmts::workload::scenarios::{fig9_chain_into, Fig9Params};
use hmts_net::{EgressServer, IngestConfig, IngestServer, SlowConsumerPolicy, StreamSpec};
use hmts_shard::{remap_partitioning, shard_by_name, ShardSpec};

struct Args {
    ingest: String,
    egress: String,
    stream: String,
    speedup: f64,
    queue_capacity: usize,
    producers: usize,
    workers: usize,
    slow_consumer: String,
    switch_after_ms: u64,
    metrics: Option<std::path::PathBuf>,
    checkpoint_dir: Option<std::path::PathBuf>,
    checkpoint_interval_ms: u64,
    recover: bool,
    admin: Option<String>,
    alerts: Vec<String>,
    trace_every: u64,
    spans_out: Option<std::path::PathBuf>,
    shard: Vec<ShardArg>,
}

/// One `--shard NODE=N[:FIELD]` request: shard `node` into `n` replicas,
/// keyed on tuple field `key_field` (falling back to the operator's own
/// declared shard key when omitted).
struct ShardArg {
    node: String,
    n: usize,
    key_field: Option<usize>,
}

fn parse_shard(spec: &str) -> ShardArg {
    let bad = || -> ! {
        eprintln!("bad --shard {spec:?}: want NODE=N or NODE=N:FIELD\n{USAGE}");
        exit(2);
    };
    let Some((node, rest)) = spec.split_once('=') else { bad() };
    let (n, key_field) = match rest.split_once(':') {
        Some((n, f)) => (n.parse().ok(), Some(f.parse().unwrap_or_else(|_| bad()))),
        None => (rest.parse().ok(), None),
    };
    let Some(n) = n.filter(|&n| n >= 1) else { bad() };
    if node.is_empty() {
        bad()
    }
    ShardArg { node: node.to_string(), n, key_field }
}

const USAGE: &str = "serve [--ingest HOST:PORT] [--egress HOST:PORT] [--stream NAME] \
[--speedup K] [--queue-capacity N] [--producers N] [--workers N] \
[--slow-consumer block|disconnect:MS] [--switch-after-ms N] [--metrics DIR] \
[--checkpoint-dir DIR] [--checkpoint-interval-ms N] [--recover] [--admin HOST:PORT] \
[--alert \"EXPR\"] [--trace-every N] [--spans-out FILE] [--shard NODE=N[:FIELD]]
  --speedup K          divide the paper's operator costs by K (default 50000)
  --queue-capacity N   bound of the ingest queue; fullness becomes TCP backpressure
  --producers N        ingest connections expected before the stream ends
  --switch-after-ms N  start under GTS, switch to two-VO HMTS after N ms of load
  --metrics DIR        enable observability and write a snapshot to DIR
  --checkpoint-dir DIR         aligned checkpoints into DIR (turns on resume mode)
  --checkpoint-interval-ms N   checkpoint cadence (default 500)
  --recover            restore operator state + ingest offsets from the latest
                       complete checkpoint in --checkpoint-dir before serving
  --admin HOST:PORT    live observability plane: GET /metrics, /healthz,
                       /snapshot, /analyze, /trace?last=N while the engine runs
  --alert EXPR         threshold alert rule `<metric> <op> <value> [for <dur>]`,
                       e.g. \"rho > 0.9 for 5s\" or
                       \"queue.proj->sel.occupancy > 1000 for 500ms\";
                       repeatable; fires alert-raised/-cleared journal events
                       and an active-alerts section in /healthz
  --trace-every N      sample every Nth tuple through the per-hop tracer
                       (also honours trace tags arriving on the wire)
  --spans-out FILE     write this process's trace spans as spans.json on
                       exit (mergeable with netgen's --spans-out)
  --shard NODE=N[:FIELD]  rewrite NODE into a hash-partitioning splitter,
                       N parallel replicas, and an order-restoring merge
                       (output stays identical to the unsharded plan);
                       keys on tuple field FIELD, or the operator's own
                       declared shard key when omitted; repeatable";

fn parse_args() -> Args {
    let mut args = Args {
        ingest: "127.0.0.1:7071".into(),
        egress: "127.0.0.1:7072".into(),
        stream: "bursty".into(),
        speedup: 50_000.0,
        queue_capacity: 4096,
        producers: 1,
        workers: 2,
        slow_consumer: "block".into(),
        switch_after_ms: 0,
        metrics: None,
        checkpoint_dir: None,
        checkpoint_interval_ms: 500,
        recover: false,
        admin: None,
        alerts: Vec::new(),
        trace_every: 0,
        spans_out: None,
        shard: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}\n{USAGE}");
                exit(2);
            })
        };
        match flag.as_str() {
            "--ingest" => args.ingest = val("--ingest"),
            "--egress" => args.egress = val("--egress"),
            "--stream" => args.stream = val("--stream"),
            "--speedup" => args.speedup = val("--speedup").parse().expect("--speedup"),
            "--queue-capacity" => {
                args.queue_capacity = val("--queue-capacity").parse().expect("--queue-capacity")
            }
            "--producers" => args.producers = val("--producers").parse().expect("--producers"),
            "--workers" => args.workers = val("--workers").parse().expect("--workers"),
            "--slow-consumer" => args.slow_consumer = val("--slow-consumer"),
            "--switch-after-ms" => {
                args.switch_after_ms = val("--switch-after-ms").parse().expect("--switch-after-ms")
            }
            "--metrics" => args.metrics = Some(val("--metrics").into()),
            "--checkpoint-dir" => args.checkpoint_dir = Some(val("--checkpoint-dir").into()),
            "--checkpoint-interval-ms" => {
                args.checkpoint_interval_ms =
                    val("--checkpoint-interval-ms").parse().expect("--checkpoint-interval-ms")
            }
            "--recover" => args.recover = true,
            "--admin" => args.admin = Some(val("--admin")),
            "--alert" => args.alerts.push(val("--alert")),
            "--trace-every" => {
                args.trace_every = val("--trace-every").parse().expect("--trace-every")
            }
            "--spans-out" => args.spans_out = Some(val("--spans-out").into()),
            "--shard" => args.shard.push(parse_shard(&val("--shard"))),
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                exit(2);
            }
        }
    }
    args
}

fn parse_policy(spec: &str) -> SlowConsumerPolicy {
    if spec == "block" {
        return SlowConsumerPolicy::Block;
    }
    if let Some(("disconnect", ms)) = spec.split_once(':') {
        if let Ok(ms) = ms.parse::<u64>() {
            return SlowConsumerPolicy::Disconnect { timeout: Duration::from_millis(ms.max(1)) };
        }
    }
    eprintln!("bad --slow-consumer {spec:?}: want block or disconnect:MS");
    exit(2);
}

fn main() {
    let args = parse_args();
    // Reject malformed alert rules before anything binds.
    let alert_rules: Vec<AlertRule> = args
        .alerts
        .iter()
        .map(|expr| {
            AlertRule::parse(expr).unwrap_or_else(|e| {
                eprintln!("serve: bad --alert rule: {e}\n{USAGE}");
                exit(2);
            })
        })
        .collect();
    // A journal big enough that the plan-switch record survives the
    // dispatch/yield flood of a multi-second serving run.
    let obs = if args.metrics.is_some()
        || args.admin.is_some()
        || args.trace_every > 0
        || !alert_rules.is_empty()
    {
        Obs::with_config(ObsConfig {
            journal_capacity: 1 << 16,
            trace: (args.trace_every > 0)
                .then(|| TraceConfig { sample_every: args.trace_every, ..TraceConfig::default() }),
        })
    } else {
        Obs::disabled()
    };

    // Load the latest complete checkpoint before anything binds: the ingest
    // server needs the checkpointed per-stream offsets so resuming clients
    // replay exactly the suffix the restored engine has not seen.
    let recovered = if args.recover {
        let dir = args.checkpoint_dir.clone().unwrap_or_else(|| {
            eprintln!("serve: --recover requires --checkpoint-dir\n{USAGE}");
            exit(2);
        });
        match CheckpointStore::new(&dir, 3).load_latest() {
            Ok(ck) => {
                match &ck {
                    Some(c) => println!(
                        "serve: recovering from checkpoint {} ({} operator blobs, offsets {:?})",
                        c.id,
                        c.operators.len(),
                        c.sources
                    ),
                    None => println!("serve: --recover but no complete checkpoint yet; cold start"),
                }
                ck
            }
            Err(e) => {
                eprintln!("serve: cannot load checkpoint: {e}");
                exit(1);
            }
        }
    } else {
        None
    };

    let ingest = IngestServer::bind(
        &args.ingest as &str,
        vec![StreamSpec::new(&args.stream).with_producers(args.producers)],
        IngestConfig {
            queue_capacity: Some(args.queue_capacity),
            obs: obs.clone(),
            resume: args.checkpoint_dir.is_some(),
            initial_offsets: recovered.as_ref().map(|c| c.sources.clone()).unwrap_or_default(),
            ..IngestConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("serve: cannot bind ingest {}: {e}", args.ingest);
        exit(1);
    });
    let egress =
        EgressServer::bind(&args.egress as &str, parse_policy(&args.slow_consumer), obs.clone())
            .unwrap_or_else(|e| {
                eprintln!("serve: cannot bind egress {}: {e}", args.egress);
                exit(1);
            });
    println!(
        "serve: ingest on {} (stream {:?}, queue {} x Block), egress on {}",
        ingest.local_addr(),
        args.stream,
        args.queue_capacity,
        egress.local_addr()
    );

    let source = ingest.source(&args.stream).expect("stream just registered");
    let chain = fig9_chain_into(
        &Fig9Params { speedup: args.speedup, ..Fig9Params::default() },
        Box::new(source),
        Box::new(egress.sink("egress")),
    );
    // Sharding rewrites must run before the topology and engine exist, on
    // cold start and recovery alike: checkpoint blobs are keyed by node
    // name, so a recovering run only finds per-replica state if the graph
    // carries the same `node[i]`/`node.split`/`node.merge` nodes that
    // wrote it.
    let mut partitioning = chain.two_vos();
    let mut graph = chain.graph;
    for s in &args.shard {
        let spec = match s.key_field {
            Some(f) => ShardSpec::on_key(s.n, Expr::field(f)),
            None => ShardSpec::auto(s.n),
        };
        let rw = shard_by_name(graph, &s.node, &spec).unwrap_or_else(|e| {
            eprintln!("serve: {e}\n(hint: --shard NODE=N:FIELD supplies an explicit key)");
            exit(2);
        });
        partitioning = remap_partitioning(&partitioning, &rw);
        graph = rw.graph;
        println!("serve: sharded {:?} into {} replicas", s.node, s.n);
    }
    let topo = Topology::of(&graph);
    let hmts_plan =
        || ExecutionPlan::hmts(partitioning.clone(), StrategyKind::Fifo, args.workers.max(1));
    let initial = if args.switch_after_ms > 0 {
        ExecutionPlan::gts(&topo, StrategyKind::Fifo)
    } else {
        hmts_plan()
    };

    let cfg = EngineConfig {
        pace_sources: false,
        obs: obs.clone(),
        checkpoint: args.checkpoint_dir.as_ref().map(|d| {
            CheckpointConfig::new(d)
                .with_interval(Duration::from_millis(args.checkpoint_interval_ms.max(1)))
        }),
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_config(graph, initial, cfg).unwrap_or_else(|e| {
        eprintln!("serve: invalid plan: {e}");
        exit(1);
    });
    // Capacity analyzer + alert rules evaluate on every collector pass
    // (admin scrape or sampler tick); both survive plan switches. The plan
    // they and the admin plane see is the view the engine itself publishes
    // on `obs`, at construction and on every re-wiring.
    capacity::install(&obs, CapacityConfig::default());
    let _alerts = AlertEngine::install(&obs, alert_rules);
    let _admin = args.admin.as_ref().map(|addr| {
        let server = AdminServer::bind(addr, obs.clone()).unwrap_or_else(|e| {
            eprintln!("serve: cannot bind admin endpoint {addr}: {e}");
            exit(1);
        });
        println!("serve: admin endpoint on http://{}/", server.addr());
        server
    });
    if let Some(ck) = &recovered {
        engine.restore_checkpoint(ck).unwrap_or_else(|e| {
            eprintln!("serve: checkpoint restore failed: {e}");
            exit(1);
        });
    }
    engine.start().expect("engine starts");
    let sampler = obs.start_sampler(Duration::from_millis(5));

    if args.switch_after_ms > 0 {
        std::thread::sleep(Duration::from_millis(args.switch_after_ms));
        println!("serve: switching GTS -> HMTS ({} workers) under load", args.workers.max(1));
        engine.switch_plan(hmts_plan()).expect("runtime plan switch");
    }

    // The engine finishes once all expected producers disconnected and the
    // chain drained; then stop accepting and report.
    let report = engine.wait();
    drop(sampler);
    ingest.shutdown();
    egress.shutdown();

    let stats = ingest.stats();
    let rel = std::sync::atomic::Ordering::Relaxed;
    println!("serve: done in {:.3}s, {} errors", report.elapsed.as_secs_f64(), report.errors.len());
    println!(
        "ingest: {} tuples, {} bytes, {} decode errors, backpressure stalls {:.3}s",
        stats.tuples.load(rel),
        stats.bytes.load(rel),
        stats.decode_errors.load(rel),
        stats.backpressure_stall_ns.load(rel) as f64 / 1e9
    );
    println!(
        "egress: {} result tuples to {} subscriber(s), {} slow-consumer disconnects",
        egress.tuples_sent(),
        egress.subscriber_count(),
        egress.slow_disconnects()
    );
    if let Some(dir) = &args.metrics {
        match obs.write_snapshot(dir) {
            Ok(Some(paths)) => println!(
                "wrote {} / {} / {}",
                paths.metrics_prom.display(),
                paths.events_json.display(),
                paths.series_csv.display()
            ),
            Ok(None) => {}
            Err(e) => eprintln!("serve: cannot write metrics snapshot: {e}"),
        }
        match obs.write_trace(dir) {
            Ok(Some(paths)) => println!("wrote {}", paths.trace_json.display()),
            Ok(None) => {}
            Err(e) => eprintln!("serve: cannot write trace: {e}"),
        }
    }
    if let Some(path) = &args.spans_out {
        let spans = obs.trace_snapshot();
        match std::fs::write(path, export::spans_json("serve", &spans)) {
            Ok(()) => println!("serve: wrote {} trace spans to {}", spans.len(), path.display()),
            Err(e) => eprintln!("serve: cannot write {}: {e}", path.display()),
        }
    }
}
