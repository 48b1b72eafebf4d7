//! End-to-end observability: a small query runs through a runtime
//! GTS → HMTS switch with an enabled [`Obs`] handle, and the test checks
//! the two acceptance properties of the observability layer:
//!
//! * the scheduler-event journal holds the switch in causal order —
//!   the `mode-switch` record precedes the `queue-drain` records of the
//!   torn-down wiring, which precede every `dispatch` of domain 1 (GTS
//!   has one domain, so only the HMTS wiring has a domain 1), and the
//!   thread scheduler dispatches after the drain,
//! * counts are exact and costs are sampled: the `node.<name>.processed`
//!   gauge ends on exactly the elements each operator processed
//!   (cross-checked against the engine's own stats), and the
//!   `op.<name>.latency_ns` histogram holds one sample per *timed*
//!   invocation — the first of each wiring and every `COST_STRIDE`-th
//!   after it.

#[path = "common/mod.rs"]
mod common;

use common::collected_values;
use hmts::obs::json::{self, Json};
use hmts::obs::AdminServer;
use hmts::prelude::*;
use std::io::{Read, Write};
use std::time::Duration;

fn paced_graph(count: u64, rate: f64) -> (QueryGraph, SinkHandle) {
    let mut b = GraphBuilder::new();
    let src = b.source(VecSource::counting("src", count, rate));
    let f1 = b
        .op_after(Filter::new("keep_even", Expr::field(0).rem(Expr::int(2)).eq(Expr::int(0))), src);
    let f2 = b.op_after(Filter::new("pass", Expr::bool(true)), f1);
    let (sink, handle) = CollectingSink::new("out");
    b.op_after(sink, f2);
    (b.build().expect("valid graph"), handle)
}

#[test]
fn journal_orders_switch_causally_and_histograms_match_stats() {
    const COUNT: u64 = 6_000;
    let (graph, handle) = paced_graph(COUNT, 20_000.0);
    let topo = Topology::of(&graph);
    // A large ring so the post-switch dispatch/yield flood cannot evict
    // the one mode-switch record this test is about.
    let obs = Obs::with_config(ObsConfig { journal_capacity: 1 << 17, ..ObsConfig::default() });
    let cfg = EngineConfig { obs: obs.clone(), ..EngineConfig::default() };
    let mut engine = Engine::with_config(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo), cfg)
        .expect("engine builds");
    engine.start().expect("engine starts");

    // Let GTS process part of the stream, then switch the running engine
    // to a two-VO HMTS plan on two pooled workers.
    std::thread::sleep(Duration::from_millis(80));
    let ops = topo.operators();
    let part = Partitioning::new(vec![vec![ops[0]], vec![ops[1], ops[2]]]);
    engine.switch_plan(ExecutionPlan::hmts(part, StrategyKind::Fifo, 2)).expect("runtime switch");
    let report = engine.wait();
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    let want: Vec<i64> = (0..COUNT as i64).filter(|v| v % 2 == 0).collect();
    assert_eq!(collected_values(&handle), want, "exactly-once across the switch");

    // --- causal order in the journal -----------------------------------
    let journal = obs.journal_snapshot();
    let switch_seq = journal
        .iter()
        .find(|r| r.event.kind() == "mode-switch")
        .map(|r| r.seq)
        .expect("journal records the mode switch");
    let drains: Vec<u64> =
        journal.iter().filter(|r| r.event.kind() == "queue-drain").map(|r| r.seq).collect();
    assert!(!drains.is_empty(), "the switch drains the old wiring's queues");
    assert!(drains.iter().all(|&s| s > switch_seq), "a queue drain precedes the mode switch");
    let drain_seq = drains.iter().copied().max().expect("not empty");
    // GTS runs on the thread scheduler too, so dispatches of its one
    // domain come before the switch. Domain 1 exists only in the HMTS
    // wiring: *every* dispatch of it postdates the drain, not just the
    // first.
    let dispatches = || journal.iter().filter(|r| r.event.kind() == "dispatch");
    let of_domain_1 = |r: &&EventRecord| matches!(r.event, SchedEvent::Dispatch { domain: 1, .. });
    let first_of_1 = dispatches()
        .find(of_domain_1)
        .map(|r| r.seq)
        .expect("HMTS's second domain goes through the thread scheduler");
    assert!(
        drain_seq < first_of_1,
        "causal order violated: mode-switch seq {switch_seq}, last queue-drain seq \
         {drain_seq}, first dispatch of domain 1 seq {first_of_1}"
    );
    assert!(
        dispatches().filter(of_domain_1).all(|r| r.seq > drain_seq),
        "no dispatch of domain 1 may precede the GTS -> HMTS switch's drain"
    );

    // --- gauge == elements processed, histogram == timed invocations ----
    let stats = &report.stats;
    let metrics = obs.metrics_snapshot();
    let metric = |name: &str| {
        metrics
            .iter()
            .find_map(|(n, v)| (n == name).then_some(v))
            .unwrap_or_else(|| panic!("metric {name} registered"))
    };
    let stride = u64::from(hmts::engine::executor::COST_STRIDE);
    for &op in &ops {
        let name = topo.name(op);
        let node = stats.nodes.iter().find(|n| n.name == name).expect("stats cover every operator");
        assert!(node.processed > 0, "operator {name} saw elements");
        match metric(&format!("node.{name}.processed")) {
            MetricValue::Gauge(v) => {
                assert_eq!(*v as u64, node.processed, "node.{name}.processed counts every element")
            }
            other => panic!("node.{name}.processed is a gauge, not {other:?}"),
        }
        let timed = match metric(&format!("op.{name}.latency_ns")) {
            MetricValue::Histogram(count, _, _) => *count,
            other => panic!("op.{name}.latency_ns is a histogram, not {other:?}"),
        };
        // Two wirings (GTS, then HMTS) each time their first invocation and
        // every `stride`-th after it: n1 + n2 = processed, so the count is
        // ceil(n1 / stride) + ceil(n2 / stride).
        let floor = node.processed.div_ceil(stride);
        assert!(
            (floor..=floor + 1).contains(&timed),
            "op.{name}.latency_ns holds {timed} samples for {} elements at 1 in {stride}",
            node.processed
        );
    }
}

#[test]
fn default_engine_config_keeps_observability_off() {
    let (graph, handle) = paced_graph(500, 1e9);
    let topo = Topology::of(&graph);
    let cfg = EngineConfig { pace_sources: false, ..EngineConfig::default() };
    assert!(!cfg.obs.is_enabled(), "observability is opt-in");
    let report = Engine::run_with_config(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo), cfg)
        .expect("engine runs");
    assert!(report.errors.is_empty());
    assert_eq!(handle.count(), 250);
}

fn scrape(addr: std::net::SocketAddr, target: &str) -> Json {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect admin endpoint");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200 "), "GET {target}: {raw}");
    json::parse(raw.split_once("\r\n\r\n").expect("a body").1).expect("body is JSON")
}

/// `/analyze` and `/snapshot` must describe `engine.plan()` as it is now.
fn assert_admin_plane_shows_plan(addr: std::net::SocketAddr, engine: &Engine, when: &str) {
    let plan = engine.plan();
    let topo = engine.topology();
    let want: Vec<Vec<&str>> = plan
        .partitioning
        .groups()
        .iter()
        .map(|g| g.iter().map(|&v| topo.name(v)).collect())
        .collect();
    let analyze = scrape(addr, "/analyze");
    let got: Vec<Vec<&str>> = analyze
        .get("partitions")
        .and_then(Json::as_arr)
        .expect("partitions array")
        .iter()
        .map(|p| {
            let nodes = p.get("nodes").and_then(Json::as_arr).expect("nodes array");
            nodes.iter().map(|n| n.as_str().expect("node name")).collect()
        })
        .collect();
    assert_eq!(got, want, "{when}: /analyze partitions");

    let snapshot = scrape(addr, "/snapshot");
    let status = |key: &str| snapshot.get("status").and_then(|s| s.get(key)?.as_str());
    assert_eq!(status("plan"), Some(describe_plan(plan).as_str()), "{when}: status.plan");
    let assignments = status("assignments").expect("status.assignments");
    assert_eq!(assignments.split("; ").count(), plan.domains.len(), "{when}: {assignments}");
    for d in &plan.domains {
        let entry = format!("{}: partitions {:?} ({:?})", d.name, d.partitions, d.execution);
        assert!(assignments.contains(&entry), "{when}: {entry:?} not in {assignments:?}");
    }
}

/// `/snapshot` lists exactly the running wiring's queues — one on every
/// source edge and every edge between two virtual operators — and
/// `/analyze` gives a queue depth to exactly the nodes one of them feeds,
/// however many queues earlier wirings had.
fn assert_admin_plane_shows_queues(addr: std::net::SocketAddr, engine: &Engine, when: &str) {
    let (plan, topo) = (engine.plan(), engine.topology());
    let group = |v| plan.partitioning.group_of(v);
    let queued: Vec<_> = topo
        .edges()
        .iter()
        .filter(|e| topo.is_source(e.from) || group(e.from) != group(e.to))
        .collect();
    let mut want: Vec<String> =
        queued.iter().map(|e| format!("{}->{}", topo.name(e.from), topo.name(e.to))).collect();
    want.sort();
    let snapshot = scrape(addr, "/snapshot");
    let got: Vec<&String> =
        snapshot.get("queues").and_then(Json::as_obj).expect("queues object").keys().collect();
    assert_eq!(got, want.iter().collect::<Vec<_>>(), "{when}: /snapshot queues");

    let analyze = scrape(addr, "/analyze");
    for node in analyze.get("nodes").and_then(Json::as_arr).expect("nodes array") {
        let name = node.get("name").and_then(Json::as_str).expect("node name");
        let fed = queued.iter().any(|e| topo.name(e.to) == name);
        let depth = node.get("queue_depth").expect("queue_depth member");
        assert_eq!(depth != &Json::Null, fed, "{when}: {name}'s queue_depth is {depth:?}");
    }
}

/// The admin plane follows the plan by itself: nothing here publishes
/// anything, yet every scrape — before `start`, under GTS, after a switch to
/// two-VO HMTS, after a runtime queue insertion or removal — shows the live
/// plan and only the live plan's queues.
#[test]
fn admin_plane_follows_plan_changes_with_no_host_call() {
    let (graph, _handle) = paced_graph(200_000, 20_000.0);
    let topo = Topology::of(&graph);
    let obs = Obs::enabled();
    let cfg = EngineConfig { obs: obs.clone(), ..EngineConfig::default() };
    let mut engine = Engine::with_config(graph, ExecutionPlan::gts(&topo, StrategyKind::Fifo), cfg)
        .expect("engine builds");
    let admin = AdminServer::bind("127.0.0.1:0", obs).expect("admin binds");
    assert_admin_plane_shows_plan(admin.addr(), &engine, "before start");
    engine.start().expect("engine starts");
    assert_admin_plane_shows_plan(admin.addr(), &engine, "under GTS");
    assert_admin_plane_shows_queues(admin.addr(), &engine, "under GTS");

    let ops = topo.operators();
    let part = Partitioning::new(vec![vec![ops[0]], vec![ops[1], ops[2]]]);
    engine.switch_plan(ExecutionPlan::hmts(part, StrategyKind::Fifo, 2)).expect("runtime switch");
    assert_eq!(engine.plan().partitioning.groups().len(), 2);
    assert_admin_plane_shows_plan(admin.addr(), &engine, "after switch_plan");
    assert_admin_plane_shows_queues(admin.addr(), &engine, "after switch_plan");

    assert!(engine.insert_queue(ops[1], ops[2]).expect("queue insertion"), "VO was split");
    assert_eq!(engine.plan().partitioning.groups().len(), 3);
    assert_admin_plane_shows_plan(admin.addr(), &engine, "after insert_queue");
    assert_admin_plane_shows_queues(admin.addr(), &engine, "after insert_queue");

    assert!(engine.remove_queue(ops[0], ops[1]).expect("queue removal"), "VOs were merged");
    assert_admin_plane_shows_plan(admin.addr(), &engine, "after remove_queue");
    assert_admin_plane_shows_queues(admin.addr(), &engine, "after remove_queue");
    engine.abort();
}

/// A union fed by two queues under HMTS — `fast` at 200 k/s and `slow` at
/// 100 k/s, `count` elements each — run to the end: the rates of the two
/// sources and of the union, `source.<name>.rate` and `node.u.rate`.
fn union_rates(fast_count: u64, slow_count: u64) -> (f64, f64, f64) {
    let mut b = GraphBuilder::new();
    let fast = b.source(VecSource::counting("fast", fast_count, 200_000.0));
    let slow = b.source(VecSource::counting("slow", slow_count, 100_000.0));
    let u = b.op(Union::new("u", 2));
    b.connect_port(fast, u, 0).connect_port(slow, u, 1);
    let (sink, handle) = CollectingSink::new("out");
    let out = b.op_after(sink, u);
    let graph = b.build().expect("valid graph");
    let obs = Obs::enabled();
    let cfg = EngineConfig { obs: obs.clone(), pace_sources: false, ..EngineConfig::default() };
    let plan = ExecutionPlan::hmts(Partitioning::new(vec![vec![u, out]]), StrategyKind::Fifo, 1);
    let report = Engine::run_with_config(graph, plan, cfg).expect("engine runs");
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    assert_eq!(handle.count(), fast_count + slow_count);
    let metrics = obs.metrics_snapshot();
    let rate = |name: &str| match metrics.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Gauge(v))) => *v as f64,
        other => panic!("{name} is a gauge, not {other:?}"),
    };
    (rate("source.fast.rate"), rate("source.slow.rate"), rate("node.u.rate"))
}

/// Its domain pops one queue's run at a time, so the union's two ports'
/// arrivals come in turns of up to a batch each, out of stamp order. With
/// both inputs spanning the same stream time (0.2 s), `node.u.rate` still
/// reads the sum of the two sources' rates.
#[test]
fn a_union_fed_by_two_queues_reports_the_sum_of_its_sources_rates() {
    let (fast, slow, union) = union_rates(40_000, 20_000);
    let sum = fast + slow;
    assert!((sum / 300_000.0 - 1.0).abs() < 0.01, "the sources offer {sum}/s");
    assert!((union / sum - 1.0).abs() < 0.1, "node.u.rate {union}/s, its sources {sum}/s");
}

/// `slow` ends at 0.05 s of stream time and `fast` goes on to 0.2 s: from
/// then on the union is fed by `fast` alone, and `node.u.rate` reads its
/// rate, not the sum.
#[test]
fn a_union_whose_one_input_ended_reports_the_live_inputs_rate() {
    let (fast, _, union) = union_rates(40_000, 5_000);
    assert!((fast / 200_000.0 - 1.0).abs() < 0.01, "fast offers {fast}/s");
    assert!((union / fast - 1.0).abs() < 0.1, "node.u.rate {union}/s, the live input {fast}/s");
}
