//! Same documents, one writer.
//!
//! `fixtures/parent/*.json` are the six admin-plane and export documents
//! exactly as the hand-formatting code of the parent commit (`701ba85`)
//! rendered them for the fixed registry, plan, journal and span set built
//! below (there the plan went in as free-form status strings: the plan
//! summary, strategy and assignments for `/snapshot`, the `a->b;b->c`
//! shape encoding for `/analyze`). The same inputs rendered through
//! `json::Writer` must parse to the same values. What may differ, and
//! nothing else:
//!
//! * digits of an `f64` past the third decimal — the parent's `/analyze`
//!   rounded with `{:.3}`, the one number rule writes shortest round-trip
//!   digits;
//! * the `name` of Perfetto instant events (`"ph":"i"`), now the event's
//!   kind followed by its field values;
//! * wall-clock members (`uptime_ms`, `age_ms`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use hmts_obs::export::{self, ProcessTrace};
use hmts_obs::json::{self, Json};
use hmts_obs::{
    trace_id, AdminServer, DomainView, EventRecord, Field, HopKind, Obs, PlanView, QueueSpec,
    SchedEvent, SpanEvent, TopologySpec, NO_PARTITION,
};

fn fill_registry(obs: &Obs) {
    for (name, v) in [
        ("queue.src->f.enqueued", 7),
        ("queue.src->f.dequeued", 5),
        ("queue.src->f.dropped", 0),
        ("engine.plan_switches", 1),
        ("supervisor_restarts", 2),
        ("supervisor_panics", 3),
        ("supervisor_stalls", 1),
    ] {
        obs.counter(name).add(v);
    }
    for (name, v) in [
        ("queue.src->f.occupancy", 2),
        ("queue.src->f.high_water", 4),
        ("queue.we\"ird\\q.occupancy", 1),
        ("node.f.cost_ns", 1_200),
        ("node.f.rate", 1_000),
        ("node.f.selectivity_ppm", 333_333),
        ("node.f.processed", 5),
        ("node.agg.split.rate", 1_000),
        ("node.agg.split.cost_ns", 100),
        ("node.agg[0].cost_ns", 400_000),
        ("node.agg[0].rate", 700),
        ("node.agg[1].cost_ns", 400_000),
        ("node.agg[1].rate", 300),
        ("node.agg.merge.cost_ns", 150),
        ("source.src.rate", 1_000),
        ("source.src.watermark_lag_ms", -3),
        ("engine.domains", 3),
        ("engine.queues", 4),
        ("engine.queued_elements", 2),
        ("checkpoint.last_id", 4),
        ("checkpoint.last_at_ms", 0),
        ("supervisor_quarantined", 1),
        ("alert.rho > 0.9 for 5s.active", 1),
        ("alert.quiet \"rule\".active", 0),
    ] {
        obs.gauge(name).set(v);
    }
    for v in [5_000, 9_000, 1_000_000] {
        obs.histogram("egress.agg.merge.e2e_latency_ns").record(v);
    }
    for v in [1, 2] {
        obs.histogram("node.f.svc_ns").record(v);
    }
}

const NODES: [&str; 6] = ["src", "f", "agg.split", "agg[0]", "agg[1]", "agg.merge"];
const EDGES: [(usize, usize); 6] = [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)];
const PARTITIONS: [&[usize]; 3] = [&[1, 2], &[3], &[4, 5]];

fn plan_view() -> PlanView {
    let queue = |name: &str, from, to| QueueSpec { name: name.into(), from, to };
    PlanView {
        topology: TopologySpec {
            nodes: NODES.iter().map(|v| v.to_string()).collect(),
            sources: vec![0],
            edges: EDGES.to_vec(),
            partitions: PARTITIONS.iter().map(|g| g.to_vec()).collect(),
            // The hostile name feeds the source, so no operator's
            // `queue_depth` moves.
            queues: vec![queue("src->f", 0, 1), queue("we\"ird\\q", 0, 0)],
        },
        summary: "3 domains (3 pooled) x2 workers".into(),
        domains: (0..3)
            .map(|i| DomainView {
                name: format!("vo{i}"),
                strategy: "Fifo".into(),
                execution: "Pooled".into(),
                partitions: vec![i],
            })
            .collect(),
    }
}

/// One record of every `SchedEvent` variant, hostile strings included.
fn journal() -> Vec<EventRecord> {
    let s = |text: &str| text.to_string();
    let events = vec![
        SchedEvent::Dispatch { domain: 0, worker: 1, priority: -2 },
        SchedEvent::Yield { domain: 0, outcome: "budget" },
        SchedEvent::Preempt { domain: 1, victim: 0 },
        SchedEvent::AgingBoost { domain: 1, effective_priority: 9 },
        SchedEvent::ModeSwitch { from: s("1 domains (1 dedicated)"), to: s("gts \"g\"\t\\") },
        SchedEvent::QueueInsert { queue: s("f->agg.split") },
        SchedEvent::QueueRemove { queue: s("f->agg.split") },
        SchedEvent::QueueDrain { queue: s("src->f"), drained: 12 },
        SchedEvent::StallDetected { queue: s("src->f"), occupancy: 4096 },
        SchedEvent::Repartition { domains: 3, action: s("split\nmerge") },
        SchedEvent::OperatorPanic { operator: s("f"), payload: s("boom \u{1} \u{1F980}") },
        SchedEvent::OperatorRestart { operator: s("f"), attempt: 2, backoff_ms: 40 },
        SchedEvent::OperatorQuarantined { operator: s("f"), failures: 5 },
        SchedEvent::HeartbeatStall { domain: s("vo1"), idle_ms: 250 },
        SchedEvent::NetDisconnect { peer: s("127.0.0.1:9"), reason: s("eof") },
        SchedEvent::NetReconnect { stream: s("bursty"), resume_seq: u64::MAX },
        SchedEvent::CheckpointStart { id: 4 },
        SchedEvent::CheckpointComplete { id: 4, bytes: 2048, duration_ms: 3 },
        SchedEvent::CheckpointAbort { id: 5, reason: s("alignment timeout") },
        SchedEvent::OperatorSnapshot { id: 4, operator: s("agg[0]"), bytes: 512 },
        SchedEvent::OperatorRollback { id: 4, operator: s("agg[0]") },
        SchedEvent::AlertRaised { rule: s("rho > 0.9 for 5s"), value: 0.953125 },
        SchedEvent::AlertRaised { rule: s("nan"), value: f64::NAN },
        SchedEvent::AlertCleared { rule: s("rho > 0.9 for 5s") },
        // A dispatch whose slice is still running at snapshot time.
        SchedEvent::Dispatch { domain: 2, worker: 0, priority: 0 },
    ];
    events
        .into_iter()
        .enumerate()
        .map(|(i, event)| EventRecord {
            seq: i as u64,
            thread: 2 + (i as u64 % 2) * 5,
            elapsed_ns: 1_500 * (i as u64 + 1),
            event,
        })
        .collect()
}

fn span(seq: u64, id: u64, kind: HopKind, site: &str, part: u32, thread: u64, t: u64) -> SpanEvent {
    SpanEvent { seq, trace_id: id, kind, site: site.into(), partition: part, thread, t_ns: t }
}

fn client_spans() -> Vec<SpanEvent> {
    vec![span(0, trace_id(0, 7), HopKind::NetSend, "netgen:bursty", NO_PARTITION, 1, 1_000)]
}

fn server_spans() -> Vec<SpanEvent> {
    let id = trace_id(0, 7);
    vec![
        span(0, id, HopKind::NetRecv, "ingest:bursty", NO_PARTITION, 9, 1_400),
        span(1, id, HopKind::QueueEnter, "src->f", NO_PARTITION, 9, 1_500),
        span(2, id, HopKind::QueueExit, "src->f", 0, 2, 2_750),
        span(3, id, HopKind::ProcessStart, "f", 0, 2, 2_800),
        span(4, id, HopKind::ProcessEnd, "f", 0, 2, 3_333),
        span(5, id, HopKind::ProcessStart, "op \"x\"", 1, 7, 4_000),
        span(6, id, HopKind::ProcessEnd, "op \"x\"", 1, 7, 4_001),
        span(7, trace_id(3, 1 << 39), HopKind::ProcessStart, "f", 0, 2, 5_000),
        span(8, trace_id(3, 1 << 39), HopKind::ProcessEnd, "f", 0, 2, 6_000),
    ]
}

fn http_body(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200 "), "GET {target}: {raw}");
    raw.split_once("\r\n\r\n").expect("a body").1.to_string()
}

/// The six documents, by fixture file name.
fn documents() -> Vec<(&'static str, String)> {
    let obs = Obs::enabled();
    fill_registry(&obs);
    obs.set_plan_view(plan_view);
    let admin = AdminServer::bind("127.0.0.1:0", obs).expect("admin binds");
    let (journal, client, server) = (journal(), client_spans(), server_spans());
    let trace = export::chrome_trace_json_multi(&[
        ProcessTrace { pid: 1, name: "netgen", spans: &client, journal: &[] },
        ProcessTrace { pid: 2, name: "serve \"2\"", spans: &server, journal: &journal },
    ]);
    vec![
        ("healthz", http_body(admin.addr(), "/healthz")),
        ("snapshot", http_body(admin.addr(), "/snapshot")),
        ("analyze", http_body(admin.addr(), "/analyze")),
        ("events", export::events_json(&journal)),
        ("spans", export::spans_json("serve", &server)),
        ("trace", trace),
    ]
}

/// Asserts `new` is `old` up to the differences the module doc permits.
fn assert_same(path: &str, old: &Json, new: &Json) {
    match (old, new) {
        (Json::Obj(old), Json::Obj(new)) => {
            assert_eq!(old.keys().collect::<Vec<_>>(), new.keys().collect::<Vec<_>>(), "{path}");
            let instant = old.get("ph").and_then(Json::as_str) == Some("i");
            for key in old.keys() {
                let permitted =
                    matches!(key.as_str(), "uptime_ms" | "age_ms") || (instant && key == "name");
                if !permitted {
                    assert_same(&format!("{path}.{key}"), &old[key], &new[key]);
                }
            }
        }
        (Json::Arr(old), Json::Arr(new)) => {
            assert_eq!(old.len(), new.len(), "{path}: length");
            for (i, (a, b)) in old.iter().zip(new).enumerate() {
                assert_same(&format!("{path}[{i}]"), a, b);
            }
        }
        (Json::UInt(a), Json::UInt(b)) => assert_eq!(a, b, "{path}"),
        (Json::UInt(_) | Json::Num(_), _) => {
            let (a, b) = (old.as_f64().unwrap(), new.as_f64().expect(path));
            assert!((a - b).abs() <= 5e-4, "{path}: {a} vs {b}");
        }
        _ => assert_eq!(old, new, "{path}"),
    }
}

#[test]
fn documents_equal_the_parent_commits_as_values() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent");
    for (name, text) in documents() {
        let fixture = std::fs::read_to_string(dir.join(format!("{name}.json"))).expect(name);
        let old = json::parse(&fixture).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
        let new = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
        assert_same(name, &old, &new);
    }
}

/// The one `SchedEvent` description drives every export: one kind per
/// variant, and the kind and every described field come out of
/// `events_json` as valid JSON under the described key.
#[test]
fn every_event_variant_is_described_once_and_renders_as_json() {
    use std::collections::HashSet;
    let records = journal();
    let variants: HashSet<_> = records.iter().map(|r| std::mem::discriminant(&r.event)).collect();
    let kinds: HashSet<_> = records.iter().map(|r| r.event.kind()).collect();
    assert_eq!(variants.len(), 23, "journal() holds every variant");
    assert_eq!(kinds.len(), variants.len(), "one kind per variant");

    let text = export::events_json(&records);
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    for (record, obj) in records.iter().zip(doc.as_arr().expect("an array")) {
        let (kind, fields) = record.event.describe();
        assert_eq!(obj.get("kind").and_then(Json::as_str), Some(kind));
        for (key, value) in fields {
            let got = obj.get(key).unwrap_or_else(|| panic!("{kind}: no {key:?} in {obj:?}"));
            match value {
                Field::Int(v) if v >= 0 => assert_eq!(got.as_u64(), Some(v as u64), "{kind}.{key}"),
                Field::Int(v) => assert_eq!(got.as_f64(), Some(v as f64), "{kind}.{key}"),
                Field::F(v) if v.is_finite() => assert_eq!(got.as_f64(), Some(v), "{kind}.{key}"),
                Field::F(_) => assert_eq!(got, &Json::Null, "{kind}.{key}"),
                Field::S(v) => assert_eq!(got.as_str(), Some(v), "{kind}.{key}"),
            }
        }
    }
}
