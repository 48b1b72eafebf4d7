//! The admin endpoint against a *live* served Fig. 9/10 chain: while
//! load flows client → ingest → HMTS engine → egress, `GET /snapshot`
//! must report real queue depths and a sane checkpoint age, `/healthz`
//! must report liveness, and `/metrics` must expose the engine's
//! registry — all parsed with the repo's own strict JSON parser, no
//! external HTTP client.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use hmts::obs::{json, AdminServer};
use hmts::prelude::*;
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

#[test]
fn snapshot_reports_live_queue_depths_and_checkpoint_age() {
    const COUNT: u64 = 20_000;
    const RATE: f64 = 20_000.0; // ~1 s of load: scrapes land mid-run.

    let dir = std::env::temp_dir().join(format!("hmts-admin-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let obs = Obs::enabled();

    let ingest = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new("bursty")],
        IngestConfig { queue_capacity: Some(512), obs: obs.clone(), ..IngestConfig::default() },
    )
    .unwrap();
    let egress = EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, obs.clone()).unwrap();
    let subscriber = SubscriberClient::connect(egress.local_addr(), "results").unwrap();
    assert!(egress.wait_for_subscribers(1, Duration::from_secs(5)));
    let subscriber = std::thread::spawn(move || subscriber.collect_all());

    let chain = fig9_chain_into(
        &Fig9Params { speedup: 50_000.0, ..Fig9Params::default() },
        Box::new(ingest.source("bursty").unwrap()),
        Box::new(egress.sink("egress")),
    );
    let plan = ExecutionPlan::hmts(chain.two_vos(), StrategyKind::Fifo, 2);
    let cfg = EngineConfig {
        pace_sources: false,
        obs: obs.clone(),
        checkpoint: Some(CheckpointConfig::new(&dir).with_interval(Duration::from_millis(50))),
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_config(chain.graph, plan, cfg).unwrap();
    engine.start().unwrap();

    let admin = AdminServer::bind("127.0.0.1:0", obs.clone()).unwrap();
    let addr = admin.addr();

    let ingest_addr = ingest.local_addr();
    let load = std::thread::spawn(move || {
        run_load(ingest_addr, &LoadConfig::constant("bursty", RATE, 10_000, COUNT, 42)).unwrap()
    });

    // Let load and at least a few checkpoint rounds establish themselves,
    // then scrape mid-flight.
    std::thread::sleep(Duration::from_millis(400));

    let (code, body) = http_get(addr, "/healthz");
    assert_eq!(code, 200, "{body}");
    let health = json::parse(&body).expect("healthz is JSON");
    assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ok"), "{body}");

    let (code, body) = http_get(addr, "/snapshot");
    assert_eq!(code, 200, "{body}");
    let snap = json::parse(&body).expect("snapshot is JSON");
    let uptime = snap.get("uptime_ms").and_then(|v| v.as_f64()).expect("uptime_ms");
    assert!(uptime >= 400.0, "scrape happened mid-run: uptime {uptime}");

    // Queue depths: the engine's collectors publish every engine queue;
    // under live load the chain has seen traffic, so at least one queue
    // reports elements enqueued, and every entry carries sane gauges.
    let queues = snap.get("queues").and_then(|q| q.as_obj()).expect("queues object");
    assert!(!queues.is_empty(), "no queues in snapshot: {body}");
    let mut total_enqueued = 0.0;
    for (name, fields) in queues {
        let occupancy = fields
            .get("occupancy")
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("queue {name} missing occupancy: {body}"));
        assert!(occupancy >= 0.0, "queue {name} occupancy {occupancy}");
        let high_water = fields.get("high_water").and_then(|v| v.as_f64()).unwrap_or(0.0);
        assert!(high_water >= occupancy, "queue {name}: high water below current depth");
        total_enqueued += fields.get("enqueued").and_then(|v| v.as_f64()).unwrap_or(0.0);
    }
    assert!(total_enqueued > 0.0, "live chain must have enqueued tuples: {body}");

    // Checkpoint age: with a 50 ms cadence and 400 ms of runtime, at
    // least one checkpoint completed and its age is a sane fraction of
    // the uptime.
    let ckpt = snap.get("checkpoint").expect("checkpoint block");
    let id = ckpt.get("last_id").and_then(|v| v.as_u64()).expect("checkpoint id");
    assert!(id >= 1, "no checkpoint completed in 400 ms at 50 ms cadence");
    let age = ckpt.get("age_ms").and_then(|v| v.as_f64()).expect("checkpoint age");
    assert!((0.0..=uptime).contains(&age), "age {age} outside [0, {uptime}]");

    // The status block comes from the engine's own plan view; this test
    // published nothing.
    let status = |key: &str| snap.get("status").and_then(|s| s.get(key)?.as_str());
    assert_eq!(status("strategy"), Some("Fifo"));
    assert_eq!(status("plan"), Some(describe_plan(engine.plan()).as_str()));

    // And the Prometheus view of the same state.
    let (code, prom) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    assert!(prom.contains("# TYPE"), "exposition has metadata");
    assert!(prom.contains("checkpoint_last_id"), "checkpoint gauge exported: {prom}");

    let report = load.join().unwrap();
    assert_eq!(report.sent, COUNT);
    let engine_report = engine.wait();
    assert!(engine_report.errors.is_empty(), "{:?}", engine_report.errors);
    subscriber.join().unwrap().unwrap();
    ingest.shutdown();
    egress.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
