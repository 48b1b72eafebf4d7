//! Cross-process trace propagation, end to end: a netgen-shaped client
//! samples tuples, stamps their trace tags on the wire, and records its
//! own net-send hops into a *client* span buffer; the served engine
//! honours the inbound tags, records ingest/queue/operator/egress hops
//! into a *server* span buffer; and the two processes' span exports merge
//! into one connected Perfetto timeline.
//!
//! This is the acceptance criterion for the observability plane: one
//! sampled tuple is visible client send → serve ingest → every operator
//! hop → egress delivery across process boundaries.

use std::collections::BTreeMap;
use std::time::Duration;

use hmts::obs::export::{self, ProcessTrace};
use hmts::prelude::*;
use hmts::workload::scenarios::{fig9_chain_into, Fig9Params};
use hmts_net::{
    run_load, EgressServer, IngestConfig, IngestServer, LoadConfig, LoadTrace, SlowConsumerPolicy,
    StreamSpec, SubscriberClient,
};

const COUNT: u64 = 3_000;
const RANGE: i64 = 10_000;
const SAMPLE_EVERY: u64 = 50;
const CLIENT_SOURCE: u32 = 63;

#[test]
fn sampled_tuple_is_traced_across_both_processes() {
    // "netgen process": its own Obs handle, sampling 1-in-50.
    let client_obs = Obs::with_config(ObsConfig {
        trace: Some(TraceConfig { sample_every: SAMPLE_EVERY, ..TraceConfig::default() }),
        ..ObsConfig::default()
    });
    // "serve process": a separate Obs. Local sampling is effectively off
    // (enormous modulus); every span it records for this stream exists
    // because a sampled tag *arrived on the wire*.
    let server_obs = Obs::with_config(ObsConfig {
        trace: Some(TraceConfig { sample_every: 1 << 60, ..TraceConfig::default() }),
        ..ObsConfig::default()
    });

    let ingest = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new("bursty")],
        IngestConfig {
            queue_capacity: Some(256),
            obs: server_obs.clone(),
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let egress =
        EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, server_obs.clone()).unwrap();
    let subscriber = SubscriberClient::connect(egress.local_addr(), "results").unwrap();
    assert!(egress.wait_for_subscribers(1, Duration::from_secs(5)));
    let subscriber = std::thread::spawn(move || subscriber.collect_all());

    let chain = fig9_chain_into(
        &Fig9Params { speedup: 50_000.0, ..Fig9Params::default() },
        Box::new(ingest.source("bursty").unwrap()),
        Box::new(egress.sink("egress")),
    );
    let plan = ExecutionPlan::hmts(chain.two_vos(), StrategyKind::Fifo, 2);
    let cfg =
        EngineConfig { pace_sources: false, obs: server_obs.clone(), ..EngineConfig::default() };
    let mut engine = Engine::with_config(chain.graph, plan, cfg).unwrap();
    engine.start().unwrap();

    let mut load = LoadConfig::constant("bursty", 1e6, RANGE, COUNT, 42);
    load.trace = Some(LoadTrace {
        tracer: client_obs.tracer().expect("client tracing on"),
        source: CLIENT_SOURCE,
    });
    let report = run_load(ingest.local_addr(), &load).unwrap();
    assert_eq!(report.sent, COUNT);
    let engine_report = engine.wait();
    assert!(engine_report.errors.is_empty(), "{:?}", engine_report.errors);
    subscriber.join().unwrap().unwrap();

    // Each process exports its spans the way the binaries do
    // (`--spans-out`), and the merge consumes the parsed files — the
    // full cross-process file format round-trips through this test.
    let client_file = export::spans_json("netgen", &client_obs.trace_snapshot());
    let server_file = export::spans_json("serve", &server_obs.trace_snapshot());
    let (client_name, client_spans) = export::parse_spans_json(&client_file).unwrap();
    let (server_name, server_spans) = export::parse_spans_json(&server_file).unwrap();
    assert_eq!((client_name.as_str(), server_name.as_str()), ("netgen", "serve"));

    let expected_sampled = COUNT.div_ceil(SAMPLE_EVERY);
    assert_eq!(
        client_spans.len() as u64,
        expected_sampled,
        "client records exactly one net-send hop per sampled tuple"
    );
    assert!(client_spans
        .iter()
        .all(|s| s.kind == HopKind::NetSend && s.site.starts_with("netgen:")));

    // Index the server's spans by trace id and check connectivity: every
    // client-sampled trace must continue on the server with an ingest
    // net-recv followed by operator processing hops, and the tuples that
    // survive both selections must close with an egress net-send.
    let mut by_trace: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for s in &server_spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }

    let mut complete_paths = 0usize;
    for c in &client_spans {
        let hops = by_trace
            .get(&c.trace_id)
            .unwrap_or_else(|| panic!("trace {} never reached the server", c.trace_id));
        assert!(
            hops.iter().any(|h| h.kind == HopKind::NetRecv && h.site.starts_with("ingest:")),
            "trace {} missing the ingest net-recv hop: {hops:?}",
            c.trace_id
        );
        let starts: Vec<&str> =
            hops.iter().filter(|h| h.kind == HopKind::ProcessStart).map(|h| &*h.site).collect();
        assert!(!starts.is_empty(), "trace {} has no operator hops: {hops:?}", c.trace_id);
        let delivered =
            hops.iter().any(|h| h.kind == HopKind::NetSend && h.site.starts_with("egress"));
        if delivered {
            // A delivered tuple passed through the whole chain: both
            // selections and the projection each left a processing hop.
            for op in ["proj", "sel_cheap", "sel_expensive", "egress"] {
                assert!(
                    starts.contains(&op),
                    "delivered trace {} skipped {op:?}: sites {starts:?}",
                    c.trace_id
                );
            }
            complete_paths += 1;
        }
    }
    assert!(
        complete_paths > 0,
        "at least one sampled tuple must survive the selections and reach egress"
    );

    // The merged Perfetto export stitches both processes: per-process
    // metadata tracks plus paired async net events under one id.
    let merged = export::chrome_trace_json_multi(&[
        ProcessTrace { pid: 1, name: &client_name, spans: &client_spans, journal: &[] },
        ProcessTrace { pid: 2, name: &server_name, spans: &server_spans, journal: &[] },
    ]);
    let json = hmts::obs::json::parse(&merged).expect("merged trace is valid JSON");
    let events = json.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents");
    let has = |pid: f64, ph: &str| {
        events.iter().any(|e| {
            e.get("pid").and_then(|p| p.as_f64()) == Some(pid)
                && e.get("ph").and_then(|p| p.as_str()) == Some(ph)
        })
    };
    assert!(has(1.0, "b"), "client pid contributes async net-send begins");
    assert!(has(2.0, "e"), "server pid contributes async net-recv ends");
    assert!(has(2.0, "X"), "server pid contributes operator duration slices");
    // One sampled tuple's id appears under both pids — the stitch itself.
    let sample_id = client_spans[0].trace_id as f64;
    let pids_with_id: Vec<f64> = events
        .iter()
        .filter(|e| e.get("id").and_then(|i| i.as_f64()) == Some(sample_id))
        .filter_map(|e| e.get("pid").and_then(|p| p.as_f64()))
        .collect();
    assert!(
        pids_with_id.contains(&1.0) && pids_with_id.contains(&2.0),
        "trace id {sample_id} must appear under both processes: {pids_with_id:?}"
    );
}
