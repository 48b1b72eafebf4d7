//! The capacity analyzer against a *live* served Fig. 9/10 chain. Under
//! steady Poisson load, `GET /analyze` is polled until it has something to
//! judge (a measured cost for every operator, 200 results in the egress
//! histogram); that report must then name the operator with the dominant
//! measured `c(v)` as the bottleneck, and carry a drift entry for the
//! egress whose predicted/measured p50 and p99 ratios the test prints
//! without bounding them: live, the measured side is a power-of-two
//! histogram bucket edge and the host's scheduling tail, so a band here
//! tests the ruler and the host (DESIGN.md §8.2). The bands themselves —
//! mean within ±40 %, p99 within a factor of 2 — are held deterministically
//! by `crates/sim/tests/capacity_validation.rs`. A subsequent overload
//! burst must raise a queue-occupancy alert (visible in `/healthz` and the
//! journal) that clears once the backlog drains.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hmts::obs::alert::{AlertEngine, AlertRule};
use hmts::obs::capacity::{self, CapacityConfig};
use hmts::obs::{json, AdminServer, ObsConfig, SchedEvent};
use hmts::prelude::*;
use hmts::workload::arrival::{ArrivalProcess, Phase};
use hmts::workload::scenarios::{fig9_chain_into, Fig9Params};
use hmts_net::{
    run_load, EgressServer, IngestConfig, IngestServer, LoadConfig, SlowConsumerPolicy, StreamSpec,
    SubscriberClient,
};

fn http_get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin endpoint");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let code = raw.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
    (code, raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default())
}

/// Polls `/analyze` until every operator reports a measured cost and the
/// egress drift entry rests on at least `min_results` results; returns that
/// report and its body, or panics with the last body at the deadline. What
/// the test asserts is thereby a condition of the engine, not of how far a
/// fixed sleep got on this host.
fn poll_analyze(
    addr: std::net::SocketAddr,
    min_results: f64,
    deadline: Duration,
) -> (json::Json, String) {
    let start = Instant::now();
    loop {
        let (code, body) = http_get(addr, "/analyze");
        assert_eq!(code, 200, "{body}");
        let report = json::parse(&body).expect("/analyze is JSON");
        let costed = report.get("nodes").and_then(|n| n.as_arr()).is_some_and(|nodes| {
            !nodes.is_empty()
                && nodes.iter().all(|x| x.get("cost_ns").and_then(|c| c.as_f64()) > Some(0.0))
        });
        let results = report
            .get("drift")
            .and_then(|d| d.as_arr())
            .and_then(|d| {
                d.iter().find(|d| d.get("terminal").and_then(|t| t.as_str()) == Some("egress"))
            })
            .and_then(|d| d.get("measured_count"))
            .and_then(|v| v.as_f64());
        if costed && results >= Some(min_results) {
            return (report, body);
        }
        assert!(start.elapsed() < deadline, "/analyze never had enough to judge: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Polls `/healthz` (each scrape runs the collectors, driving alert
/// evaluation) until the active-alert list matches `want_active`.
fn poll_alerts(addr: std::net::SocketAddr, want_active: bool, deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        let (code, body) = http_get(addr, "/healthz");
        assert_eq!(code, 200, "{body}");
        let health = json::parse(&body).expect("healthz is JSON");
        let active = health
            .get("alerts")
            .and_then(|a| a.get("active"))
            .and_then(|a| a.as_arr())
            .map(|a| !a.is_empty())
            .unwrap_or(false);
        if active == want_active {
            return true;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    false
}

#[test]
fn analyze_names_bottleneck_predicts_p99_and_alert_fires_and_clears() {
    // speedup 20 000 makes sel_expensive cost ~100 µs; with values in
    // [1, 10 000] the cheap selection passes ~0.9, so Poisson 6 000 el/s
    // puts sel_expensive at rho ≈ 6 000 · 0.9 · 100 µs ≈ 0.54 and its
    // partition (which also pays the egress sink's socket writes) around
    // 0.7 — loaded enough to queue, stable enough not to build a backlog
    // that would swamp the steady-state prediction.
    const SPEEDUP: f64 = 20_000.0;
    const RANGE: i64 = 10_000;
    const RATE: f64 = 6_000.0;
    const STEADY: u64 = 12_000; // 2 s of steady load: the /analyze report is taken here
    const BURST: u64 = 12_000; // then ~0.4 s at 30k el/s into ~9k el/s of capacity

    // A roomy journal: under burst load the engine journals thousands of
    // scheduling events per second, and the alert transitions must still
    // be in the ring when the test snapshots it.
    let obs = Obs::with_config(ObsConfig { journal_capacity: 65_536, ..ObsConfig::default() });
    let ingest = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new("bursty")],
        IngestConfig { obs: obs.clone(), ..IngestConfig::default() },
    )
    .unwrap();
    let egress = EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, obs.clone()).unwrap();
    let subscriber = SubscriberClient::connect(egress.local_addr(), "results").unwrap();
    assert!(egress.wait_for_subscribers(1, Duration::from_secs(5)));
    let subscriber = std::thread::spawn(move || subscriber.collect_all());

    let chain = fig9_chain_into(
        &Fig9Params { speedup: SPEEDUP, ..Fig9Params::default() },
        Box::new(ingest.source("bursty").unwrap()),
        Box::new(egress.sink("egress")),
    );
    let plan = ExecutionPlan::hmts(chain.two_vos(), StrategyKind::Fifo, 2);
    let cfg = EngineConfig { pace_sources: false, obs: obs.clone(), ..EngineConfig::default() };
    let mut engine = Engine::with_config(chain.graph, plan, cfg).unwrap();
    engine.start().unwrap();

    // The analyzer and an overload alert as pinned collectors; the
    // topology they read is the view the engine published on `obs`.
    capacity::install(&obs, CapacityConfig::default());
    let rule = AlertRule::parse("queue.sel_cheap->sel_expensive.occupancy > 150 for 150ms")
        .expect("alert rule parses");
    let _alerts = AlertEngine::install(&obs, vec![rule]);
    let admin = AdminServer::bind("127.0.0.1:0", obs.clone()).unwrap();
    let addr = admin.addr();

    // One client run, two phases (a second connection would find the
    // stream closed by the first run's Eos): steady load for the
    // /analyze scrape, then an overload burst for the alert.
    let ingest_addr = ingest.local_addr();
    let ts_offset = obs.elapsed(); // align client stamps with the server epoch
    let load = std::thread::spawn(move || {
        let cfg = LoadConfig {
            arrivals: ArrivalProcess::bursty(vec![
                Phase::new(STEADY, RATE),
                Phase::new(BURST, 30_000.0),
            ]),
            ..LoadConfig::constant("bursty", RATE, RANGE, STEADY + BURST, 42)
        }
        .with_ts_offset(ts_offset);
        run_load(ingest_addr, &cfg).unwrap()
    });

    // ---- Steady phase: /analyze mid-flight, once it can judge. ----
    let (report, body) = poll_analyze(addr, 200.0, Duration::from_secs(10));

    // Bottleneck attribution: the expensive selection's measured c(v)
    // dwarfs the cheap one's, and so it dominates rho.
    let nodes = report.get("nodes").and_then(|n| n.as_arr()).expect("nodes");
    let cost_of = |name: &str| {
        nodes
            .iter()
            .find(|x| x.get("name").and_then(|v| v.as_str()) == Some(name))
            .and_then(|x| x.get("cost_ns"))
            .and_then(|c| c.as_f64())
            .unwrap_or_else(|| panic!("no cost for {name}: {body}"))
    };
    let (cheap, expensive) = (cost_of("sel_cheap"), cost_of("sel_expensive"));
    assert!(expensive > 10.0 * cheap, "c(sel_expensive) {expensive} vs c(sel_cheap) {cheap}");
    assert_eq!(report.get("bottleneck").and_then(|b| b.as_str()), Some("sel_expensive"), "{body}");
    let top = nodes.first().expect("ranked nodes");
    assert_eq!(top.get("name").and_then(|v| v.as_str()), Some("sel_expensive"), "{body}");
    let max_rho = report.get("max_rho").and_then(|v| v.as_f64()).expect("max_rho");
    assert!(max_rho > 0.0, "a loaded system has a utilization: {body}");

    // Latency prediction vs the measured egress histogram.
    let drift = report.get("drift").and_then(|d| d.as_arr()).expect("drift");
    let egress_drift = drift
        .iter()
        .find(|d| d.get("terminal").and_then(|t| t.as_str()) == Some("egress"))
        .unwrap_or_else(|| panic!("no drift entry for egress: {body}"));
    // Reported, not asserted: the measured quantiles are read off
    // power-of-two histogram buckets, so a ratio can be off by up to 2× for
    // the ruler alone. The deterministic bands are capacity_validation's.
    let field = |k: &str| egress_drift.get(k).and_then(|v| v.as_f64()).expect("drift field");
    let p50_ratio = field("predicted_p50_ns") / field("measured_p50_ns");
    let p99_ratio = field("p99_ratio");
    assert!(p50_ratio > 0.0 && p99_ratio > 0.0, "a prediction and a measurement: {body}");
    println!("predicted/measured egress latency: p50 {p50_ratio:.3}, p99 {p99_ratio:.3}");

    // The capacity gauges are on /metrics too.
    let (code, prom) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    assert!(prom.contains("capacity_max_rho_ppm"), "capacity gauges exported");

    // ---- Burst phase: the occupancy alert fires, then clears. ----
    assert!(!poll_alerts(addr, true, Duration::from_millis(1)), "no alert during steady load");
    assert!(
        poll_alerts(addr, true, Duration::from_secs(15)),
        "occupancy alert must raise during a 30k el/s burst into ~9k el/s capacity"
    );
    // Snapshot right away: the ring still holds the raise record.
    let raised = obs.journal_snapshot().iter().any(
        |r| matches!(&r.event, SchedEvent::AlertRaised { rule, .. } if rule.contains("occupancy")),
    );
    assert!(raised, "journal records alert-raised");
    // The backlog drains while the engine is still running; keep polling
    // (each scrape re-evaluates the rule) until the alert clears.
    assert!(
        poll_alerts(addr, false, Duration::from_secs(15)),
        "alert must clear once the backlog drains"
    );
    let cleared = obs.journal_snapshot().iter().any(
        |r| matches!(&r.event, SchedEvent::AlertCleared { rule } if rule.contains("occupancy")),
    );
    assert!(cleared, "journal records alert-cleared");
    let report1 = load.join().unwrap();
    assert_eq!(report1.sent, STEADY + BURST);

    let engine_report = engine.wait();
    assert!(engine_report.errors.is_empty(), "{:?}", engine_report.errors);
    subscriber.join().unwrap().unwrap();
    ingest.shutdown();
    egress.shutdown();
}
