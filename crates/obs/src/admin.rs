//! Live observability plane: a dependency-free HTTP/1.1 admin endpoint.
//!
//! [`AdminServer`] serves the state of one [`Obs`] handle over plain
//! `std::net::TcpListener` — no async runtime, no serde, one thread per
//! server and one short-lived thread per connection:
//!
//! * `GET /metrics` — Prometheus text exposition of the full registry.
//! * `GET /healthz` — JSON liveness summary: uptime plus the
//!   `supervisor_*` restart/panic/stall counters and the quarantine
//!   gauge. Status degrades to `"degraded"` while operators sit in
//!   quarantine.
//! * `GET /snapshot` — structured JSON runtime snapshot: depth/high-water/
//!   drops of the running wiring's queues, per-operator cost and
//!   selectivity estimates, shard replicas grouped under their logical node
//!   (`"shards":{"agg":{"display":"agg[0..3]",…}}`), checkpoint id and
//!   age, engine-level gauges, and a `status` block (plan shape, strategy,
//!   domain assignments).
//! * `GET /analyze` — the capacity analyzer's report
//!   ([`crate::capacity`]): per-node utilization table ranked by ρ,
//!   per-partition utilization, bottleneck + headroom, predicted
//!   end-to-end p50/p99 per source→terminal path, and model-vs-measured
//!   drift, over the [`PlanView`]'s topology (`{"topology":false}` until an
//!   engine has published one).
//! * `GET /trace?last=N` — the most recent `N` completed tuple spans in
//!   the same `spans.json` shape as [`export::spans_json`].
//!
//! The server holds only an [`Obs`] clone, so it observes whatever the
//! engine publishes without any direct coupling to engine types. What
//! exists — queues, operators, sources, terminals — comes from the
//! [`PlanView`] the engine replaces on every re-wiring; the registry only
//! supplies their values, by the collectors' naming conventions
//! (`queue.<name>.<field>`, `node.<name>.<field>`, `checkpoint.*`,
//! `engine.*`). The host publishes nothing.
//!
//! Requests are read bounded: at most 8 KiB of request line and 32 KiB /
//! 64 header lines in total, all within 2 s of the accept; a request over
//! a cap is answered `431`, a malformed one `400`, a slow one `408`, and
//! the connection is closed.
//!
//! [`PlanView`]: crate::PlanView

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::capacity::{self, CapacityConfig};
use crate::export;
use crate::json::Writer;
use crate::registry::{quantile_from_cumulative, Lookup};
use crate::{MetricValue, Obs, TopologySpec};

/// Longest accepted request line (method, target, version), in bytes.
const MAX_REQUEST_LINE: u64 = 8 * 1024;
/// Most bytes read of one request's line and headers together.
const MAX_HEAD: u64 = 32 * 1024;
/// Most header lines accepted.
const MAX_HEADERS: usize = 64;
/// How long a client has, from accept, to deliver its request head.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// A running admin HTTP server. Dropping the handle (or calling
/// [`AdminServer::shutdown`]) stops the accept loop and joins it.
#[derive(Debug)]
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` and starts serving `obs` immediately. `addr` may use
    /// port 0 to let the OS pick; the bound address is available via
    /// [`AdminServer::addr`].
    pub fn bind(addr: &str, obs: Obs) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("hmts-admin".into())
            .spawn(move || accept_loop(listener, obs, accept_stop))?;
        Ok(AdminServer { addr: local, stop, accept_thread: Some(accept_thread) })
    }

    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and waits for it to exit. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock a parked `accept` by connecting to ourselves; the
        // handler sees the stop flag before serving.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, obs: Obs, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let obs = obs.clone();
        // One short-lived thread per request keeps a slow client from
        // blocking the accept loop; admin traffic is a handful of
        // scrapes per second at most.
        let _ = std::thread::Builder::new()
            .name("hmts-admin-conn".into())
            .spawn(move || serve_connection(stream, &obs));
    }
}

/// A socket whose every read is cut off at one fixed deadline, however
/// slowly the peer drips bytes.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one request head — the request line plus headers up to the blank
/// line (or end of input) — within the byte, count and time caps, and
/// returns the request's `(method, target)`; `Err` carries the status to
/// refuse with. Nothing past a cap is ever buffered.
fn read_head(stream: &TcpStream) -> Result<(String, String), u16> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut head = BufReader::new(Deadlined { stream, deadline }).take(MAX_HEAD);
    let refusal = |e: io::Error| -> u16 {
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => 408,
            _ => 400,
        }
    };
    let mut line = Vec::new();
    (&mut head).take(MAX_REQUEST_LINE).read_until(b'\n', &mut line).map_err(refusal)?;
    if !line.ends_with(b"\n") {
        return Err(if line.len() as u64 == MAX_REQUEST_LINE { 431 } else { 400 });
    }
    let request_line = String::from_utf8(std::mem::take(&mut line)).map_err(|_| 400u16)?;
    let mut parts = request_line.split_whitespace().map(str::to_owned);
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else { return Err(400) };
    for _ in 0..=MAX_HEADERS {
        line.clear();
        let n = head.read_until(b'\n', &mut line).map_err(refusal)?;
        let end_of_input = n == 0 && head.limit() > 0;
        if end_of_input || line == b"\r\n" || line == b"\n" {
            return Ok((method, target));
        }
        if !line.ends_with(b"\n") {
            return Err(if head.limit() == 0 { 431 } else { 400 });
        }
    }
    Err(431)
}

fn serve_connection(mut stream: TcpStream, obs: &Obs) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let (text, json) = ("text/plain; charset=utf-8", "application/json");
    let (method, target) = match read_head(&stream) {
        Ok(request) => request,
        Err(code) => return respond(&mut stream, code, text, "bad request\n"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, text, "method not allowed\n");
    }
    let (path, query) = target.split_once('?').unwrap_or((&target, ""));
    match path {
        "/metrics" | "/analyze" if !obs.is_enabled() => {
            respond(&mut stream, 503, text, "observability disabled\n")
        }
        "/metrics" => {
            obs.run_collectors();
            let body = export::prometheus_text(&obs.metrics_snapshot());
            respond(&mut stream, 200, "text/plain; version=0.0.4; charset=utf-8", &body);
        }
        "/healthz" => {
            // Refresh collectors so alert rules evaluate at scrape time
            // and the active-alerts section is current.
            obs.run_collectors();
            respond(&mut stream, 200, json, &healthz_json(obs));
        }
        "/analyze" => {
            obs.run_collectors();
            respond(&mut stream, 200, json, &analyze_json(obs));
        }
        "/snapshot" => {
            obs.run_collectors();
            respond(&mut stream, 200, json, &snapshot_json(obs));
        }
        "/trace" => {
            let last = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("last="))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(256);
            let mut spans = obs.trace_snapshot();
            if spans.len() > last {
                spans.drain(..spans.len() - last);
            }
            respond(&mut stream, 200, json, &export::spans_json("admin", &spans));
        }
        _ => respond(&mut stream, 404, text, "not found\n"),
    }
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    // One write: a refused client may still be sending, and closing on
    // unread input resets the connection — what is not on the wire by then
    // is lost.
    let response = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

fn uptime_ms(obs: &Obs) -> u64 {
    obs.elapsed().as_millis() as u64
}

fn healthz_json(obs: &Obs) -> String {
    if !obs.is_enabled() {
        return Writer::object(|w| {
            w.key("status").str("ok");
            w.key("observability").str("disabled");
        });
    }
    let metrics = obs.metrics_snapshot();
    let m = Lookup(&metrics);
    let quarantined = m.gauge("supervisor_quarantined").unwrap_or(0);
    Writer::object(|w| {
        w.key("status").str(if quarantined > 0 { "degraded" } else { "ok" });
        w.key("uptime_ms").int(uptime_ms(obs));
        w.key("supervisor").obj(|w| {
            w.key("restarts").int(m.counter("supervisor_restarts"));
            w.key("panics").int(m.counter("supervisor_panics"));
            w.key("stalls").int(m.counter("supervisor_stalls"));
            w.key("quarantined").int(quarantined);
        });
        // Active alerts are reconstructed from the `alert.<rule>.active`
        // gauges the alert engine maintains, so /healthz needs no reference
        // to the engine itself.
        let active = metrics.iter().filter_map(|(name, value)| {
            let rule = name.strip_prefix("alert.")?.strip_suffix(".active")?;
            (value.as_f64() > 0.0).then_some(rule)
        });
        w.key("alerts").obj(|w| w.key("active").strs(active));
    })
}

/// Body of `GET /analyze`: the capacity report over the engine's current
/// plan view, or a `topology:false` stub while no engine has published one.
fn analyze_json(obs: &Obs) -> String {
    match obs.plan_view() {
        Some(view) => {
            let cfg = CapacityConfig::default();
            let report = capacity::analyze(&obs.metrics_snapshot(), &view.topology, &cfg);
            capacity::report_json(&report, uptime_ms(obs))
        }
        None => Writer::object(|w| w.key("topology").bool(false)),
    }
}

/// A metric's value: counters and gauges as the integers they are,
/// histograms as their mean.
fn metric_value(w: &mut Writer, value: &MetricValue) {
    match value {
        MetricValue::Counter(c) => w.int(*c),
        MetricValue::Gauge(g) => w.int(*g),
        MetricValue::Histogram(..) => w.f64(value.as_f64()),
    }
}

/// One object per entity that has `<kind>.<entity>.<field>` values in the
/// registry snapshot (sorted by name, as the registry keeps it), entities
/// in name order; only the final `.<field>` segment splits, so any entity
/// name passes through.
fn write_entities<'a>(
    w: &mut Writer,
    metrics: &[(String, MetricValue)],
    kind: &str,
    entities: impl Iterator<Item = &'a str>,
) {
    let mut entities: Vec<&str> = entities.collect();
    entities.sort_unstable();
    w.obj(|w| {
        for entity in entities {
            let head = format!("{kind}.{entity}.");
            let from = metrics.partition_point(|(name, _)| *name < head);
            let fields: Vec<_> = metrics[from..]
                .iter()
                .map_while(|(name, value)| Some((name.strip_prefix(&head)?, value)))
                .filter(|(field, _)| !field.is_empty() && !field.contains('.'))
                .collect();
            if !fields.is_empty() {
                w.key(entity).obj(|w| fields.iter().for_each(|(f, v)| metric_value(w.key(f), v)));
            }
        }
    });
}

fn snapshot_json(obs: &Obs) -> String {
    if !obs.is_enabled() {
        return Writer::object(|w| w.key("enabled").bool(false));
    }
    let metrics = obs.metrics_snapshot();
    let m = Lookup(&metrics);
    let view = obs.plan_view();
    let no_plan = TopologySpec::default();
    let topo = view.as_ref().map_or(&no_plan, |v| &v.topology);
    let name = |i: usize| topo.nodes[i].as_str();
    let operators = (0..topo.nodes.len()).filter(|i| !topo.sources.contains(i)).map(name);
    let terminals = (0..topo.nodes.len()).filter(|&i| topo.edges.iter().all(|e| e.0 != i));
    let shards = capacity::analyze(&metrics, topo, &CapacityConfig::default()).shards;
    let uptime = uptime_ms(obs);
    Writer::object(|w| {
        w.key("enabled").bool(true);
        w.key("uptime_ms").int(uptime);
        write_entities(w.key("queues"), &metrics, "queue", topo.queues.iter().map(|q| &*q.name));
        write_entities(w.key("operators"), &metrics, "node", operators);
        // Shard replicas under their logical node, as the analyzer rolls
        // them up; the replicas' own entries stay under `operators`.
        w.key("shards").obj(|w| {
            for s in &shards {
                let rate = s.replicas.iter().filter_map(|r| m.get(&format!("node.{r}.rate")));
                w.key(&s.logical).obj(|w| {
                    w.key("display").str(&s.display);
                    w.key("replicas").strs(&s.replicas);
                    w.key("rate").f64(rate.map(MetricValue::as_f64).sum());
                });
            }
        });
        write_entities(w.key("sources"), &metrics, "source", topo.sources.iter().map(|&i| name(i)));
        // Engine-level metrics are flat (`engine.domains`), not per-entity.
        w.key("engine").obj(|w| {
            for (name, value) in &metrics {
                if let Some(field) = name.strip_prefix("engine.").filter(|f| !f.contains('.')) {
                    metric_value(w.key(field), value);
                }
            }
        });
        match m.gauge("checkpoint.last_id") {
            Some(id) => w.key("checkpoint").obj(|w| {
                let at = m.gauge("checkpoint.last_at_ms").unwrap_or(0);
                w.key("last_id").int(id);
                w.key("last_at_ms").int(at);
                w.key("age_ms").int((uptime as i64).saturating_sub(at).max(0));
            }),
            None => w.key("checkpoint").null(),
        }
        // End-to-end latency quantiles per terminal with an egress histogram.
        let mut terminals: Vec<&str> = terminals.map(name).collect();
        terminals.sort_unstable();
        w.key("e2e_latency").obj(|w| {
            for t in terminals {
                let Some((count, buckets)) = m.histogram(&format!("egress.{t}.e2e_latency_ns"))
                else {
                    continue;
                };
                w.key(t).obj(|w| {
                    w.key("count").int(count);
                    w.key("p50_ns").int(quantile_from_cumulative(count, buckets, 0.50));
                    w.key("p99_ns").int(quantile_from_cumulative(count, buckets, 0.99));
                });
            }
        });
        // The plan as the engine last published it; empty until it has.
        w.key("status").obj(|w| {
            let Some(view) = &view else { return };
            w.key("plan").str(&view.summary);
            if let Some(d) = view.domains.first() {
                w.key("strategy").str(&d.strategy);
            }
            let assignments: Vec<String> = view
                .domains
                .iter()
                .map(|d| format!("{}: partitions {:?} ({})", d.name, d.partitions, d.execution))
                .collect();
            w.key("assignments").str(&assignments.join("; "));
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{trace_id, TraceConfig};
    use crate::{DomainView, HopKind, ObsConfig, PlanView, QueueSpec};

    /// Publishes a view the way the engine does under GTS: the shape (nodes
    /// numbered in order of first mention, `source` first), a queue on
    /// every edge, and one domain.
    fn publish(obs: &Obs, edges: &[(&str, &str)], source: &str) {
        let mut nodes = vec![source];
        for &(a, b) in edges {
            for v in [a, b] {
                if !nodes.contains(&v) {
                    nodes.push(v);
                }
            }
        }
        let index = |v: &str| nodes.iter().position(|&x| x == v).expect("a node of the graph");
        let queue = |&(a, b): &(&str, &str)| QueueSpec {
            name: format!("{a}->{b}"),
            from: index(a),
            to: index(b),
        };
        let topology = TopologySpec {
            edges: edges.iter().map(|&(a, b)| (index(a), index(b))).collect(),
            sources: vec![0],
            partitions: Vec::new(),
            queues: edges.iter().map(queue).collect(),
            nodes: nodes.iter().map(|v| v.to_string()).collect(),
        };
        obs.set_plan_view(|| PlanView {
            topology,
            summary: "1 domains (1 pooled) x2 workers".into(),
            domains: vec![DomainView {
                name: "vo0".into(),
                strategy: "Fifo".into(),
                execution: "Pooled".into(),
                partitions: vec![0],
            }],
        });
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect admin");
        write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let code: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (code, body)
    }

    #[test]
    fn serves_metrics_healthz_snapshot_and_trace() {
        let obs = Obs::with_config(ObsConfig {
            trace: Some(TraceConfig::default()),
            ..ObsConfig::default()
        });
        obs.counter("queue.a->b.enqueued").add(7);
        obs.gauge("queue.a->b.occupancy").set(3);
        obs.gauge("node.select.cost_ns").set(1200);
        obs.gauge("checkpoint.last_id").set(4);
        obs.gauge("checkpoint.last_at_ms").set(0);
        obs.histogram("egress.q1.e2e_latency_ns").record(5_000);
        let tracer = obs.tracer().unwrap();
        tracer.record_site(trace_id(0, 0), HopKind::NetRecv, "ingest:s", crate::NO_PARTITION);

        publish(&obs, &[("a", "b"), ("b", "q1")], "a");
        let server = AdminServer::bind("127.0.0.1:0", obs.clone()).expect("bind");
        let addr = server.addr();

        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("queue_a__b_enqueued_total 7"), "{body}");
        assert!(body.contains("# TYPE"), "{body}");

        let (code, body) = get(addr, "/healthz");
        assert_eq!(code, 200);
        let health = crate::json::parse(&body).expect("healthz is JSON");
        assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ok"));

        let (code, body) = get(addr, "/snapshot");
        assert_eq!(code, 200, "{body}");
        let snap = crate::json::parse(&body).expect("snapshot is JSON");
        let queues = snap.get("queues").expect("queues");
        let q = queues.get("a->b").expect("queue entry");
        assert_eq!(q.get("occupancy").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(q.get("enqueued").and_then(|v| v.as_f64()), Some(7.0));
        let ckpt = snap.get("checkpoint").expect("checkpoint");
        assert_eq!(ckpt.get("last_id").and_then(|v| v.as_u64()), Some(4));
        assert!(ckpt.get("age_ms").and_then(|v| v.as_f64()).is_some());
        let status = |key: &str| snap.get("status").and_then(|s| s.get(key)?.as_str());
        assert_eq!(status("plan"), Some("1 domains (1 pooled) x2 workers"));
        assert_eq!(status("strategy"), Some("Fifo"));
        assert_eq!(status("assignments"), Some("vo0: partitions [0] (Pooled)"));
        let lat = snap.get("e2e_latency").and_then(|l| l.get("q1")).expect("latency entry");
        assert_eq!(lat.get("count").and_then(|v| v.as_u64()), Some(1));

        let (code, body) = get(addr, "/trace?last=10");
        assert_eq!(code, 200);
        let (_, spans) = export::parse_spans_json(&body).expect("trace is spans JSON");
        assert_eq!(spans.len(), 1);
        assert_eq!(&*spans[0].site, "ingest:s");

        let (code, _) = get(addr, "/nope");
        assert_eq!(code, 404);
    }

    #[test]
    fn disabled_obs_reports_503_metrics_and_healthy_liveness() {
        let mut server = AdminServer::bind("127.0.0.1:0", Obs::disabled()).unwrap();
        let (code, _) = get(server.addr(), "/metrics");
        assert_eq!(code, 503);
        let (code, body) = get(server.addr(), "/healthz");
        assert_eq!(code, 200);
        assert!(body.contains("\"disabled\""), "{body}");
        let (code, body) = get(server.addr(), "/snapshot");
        assert_eq!(code, 200);
        assert!(body.contains("\"enabled\":false"), "{body}");
        server.shutdown();
        server.shutdown(); // idempotent
        assert!(
            TcpStream::connect(server.addr()).is_err() || {
                // The OS may accept briefly during teardown; a request must fail.
                get_after_shutdown(server.addr())
            }
        );
    }

    fn get_after_shutdown(addr: SocketAddr) -> bool {
        match TcpStream::connect(addr) {
            Err(_) => true,
            Ok(mut s) => {
                let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
                let mut out = String::new();
                s.read_to_string(&mut out).ok();
                out.is_empty()
            }
        }
    }

    #[test]
    fn analyze_reports_bottleneck_and_refreshes_collectors_per_scrape() {
        use std::sync::atomic::AtomicI64;

        let obs = Obs::enabled();
        publish(&obs, &[("src", "f"), ("f", "g")], "src");
        obs.gauge("source.src.rate").set(1_000);
        obs.gauge("node.g.cost_ns").set(800_000); // ρ = 0.8 — the bottleneck
        obs.gauge("node.g.rate").set(1_000);
        obs.gauge("node.f.cost_ns").set(1_000);

        // Live rate source behind a regular collector: each scrape must
        // re-run collectors, so back-to-back scrapes see advancing rates.
        let live_rate = Arc::new(AtomicI64::new(1_000));
        let rate_src = Arc::clone(&live_rate);
        let rate_gauge = obs.gauge("node.f.rate");
        obs.add_collector(move || rate_gauge.set(rate_src.load(Ordering::Relaxed)));

        let server = AdminServer::bind("127.0.0.1:0", obs.clone()).expect("bind");
        let addr = server.addr();

        let (code, body) = get(addr, "/analyze");
        assert_eq!(code, 200, "{body}");
        let doc = crate::json::parse(&body).expect("analyze is JSON");
        assert_eq!(doc.get("bottleneck").and_then(|b| b.as_str()), Some("g"), "{body}");
        let nodes = doc.get("nodes").and_then(|x| x.as_arr()).expect("nodes");
        assert_eq!(nodes[0].get("name").and_then(|v| v.as_str()), Some("g"));
        assert!(nodes[0].get("rho").and_then(|v| v.as_f64()).unwrap() > 0.7, "{body}");
        assert!(doc.get("headroom").and_then(|v| v.as_f64()).unwrap() > 1.0, "{body}");
        let f_rate_1 = nodes
            .iter()
            .find(|x| x.get("name").and_then(|v| v.as_str()) == Some("f"))
            .and_then(|x| x.get("rate"))
            .and_then(|v| v.as_f64())
            .expect("f rate");
        assert!((f_rate_1 - 1_000.0).abs() < 1e-9, "{body}");

        // The "load" advances; the very next scrape must see it.
        live_rate.store(2_500, Ordering::Relaxed);
        let (code, body) = get(addr, "/analyze");
        assert_eq!(code, 200);
        let doc = crate::json::parse(&body).expect("analyze is JSON");
        let f_rate_2 = doc
            .get("nodes")
            .and_then(|x| x.as_arr())
            .and_then(|nodes| {
                nodes
                    .iter()
                    .find(|x| x.get("name").and_then(|v| v.as_str()) == Some("f"))
                    .and_then(|x| x.get("rate"))
                    .and_then(|v| v.as_f64())
            })
            .expect("f rate after advance");
        assert!(f_rate_2 > f_rate_1, "second scrape saw stale rate: {f_rate_1} then {f_rate_2}");
    }

    /// `/snapshot` groups shard replicas under the logical node and
    /// `/analyze` carries the per-shard utilization table, so a sharded
    /// station stays legible on the admin plane.
    #[test]
    fn snapshot_and_analyze_group_shard_replicas() {
        let obs = Obs::enabled();
        obs.gauge("source.src.rate").set(1_000);
        obs.gauge("node.agg.split.rate").set(1_000);
        for (name, rate) in [("agg[0]", 700), ("agg[1]", 300)] {
            obs.gauge(&format!("node.{name}.cost_ns")).set(400_000);
            obs.gauge(&format!("node.{name}.rate")).set(rate);
        }
        let edges = [
            ("src", "agg.split"),
            ("agg.split", "agg[0]"),
            ("agg.split", "agg[1]"),
            ("agg[0]", "agg.merge"),
            ("agg[1]", "agg.merge"),
        ];
        publish(&obs, &edges, "src");
        let server = AdminServer::bind("127.0.0.1:0", obs.clone()).expect("bind");

        let (code, body) = get(server.addr(), "/snapshot");
        assert_eq!(code, 200, "{body}");
        let snap = crate::json::parse(&body).expect("snapshot is JSON");
        let agg = snap.get("shards").and_then(|s| s.get("agg")).expect("agg shard group");
        assert_eq!(agg.get("display").and_then(|v| v.as_str()), Some("agg[0..2]"));
        let replicas = agg.get("replicas").and_then(|r| r.as_arr()).expect("replicas");
        assert_eq!(replicas.len(), 2);
        assert_eq!(replicas[0].as_str(), Some("agg[0]"));
        assert_eq!(agg.get("rate").and_then(|v| v.as_f64()), Some(1_000.0));

        let (code, body) = get(server.addr(), "/analyze");
        assert_eq!(code, 200, "{body}");
        let doc = crate::json::parse(&body).expect("analyze is JSON");
        let shards = doc.get("shards").and_then(|s| s.as_arr()).expect("shards array");
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].get("logical").and_then(|v| v.as_str()), Some("agg"));
        let rho = shards[0].get("max_rho").and_then(|v| v.as_f64()).expect("max_rho");
        assert!((rho - 0.28).abs() < 1e-6, "hottest replica ρ 700×400µs: {rho}");
    }

    #[test]
    fn analyze_without_topology_or_obs_degrades_cleanly() {
        let server = AdminServer::bind("127.0.0.1:0", Obs::enabled()).unwrap();
        let (code, body) = get(server.addr(), "/analyze");
        assert_eq!(code, 200);
        assert!(body.contains("\"topology\":false"), "{body}");

        let server = AdminServer::bind("127.0.0.1:0", Obs::disabled()).unwrap();
        let (code, _) = get(server.addr(), "/analyze");
        assert_eq!(code, 503);
    }

    #[test]
    fn healthz_lists_active_alerts_evaluated_at_scrape_time() {
        use crate::alert::{AlertEngine, AlertRule};

        let obs = Obs::enabled();
        let depth = obs.gauge("queue.a->b.occupancy");
        let _engine = AlertEngine::install(
            &obs,
            vec![AlertRule::parse("queue.a->b.occupancy > 100").expect("rule parses")],
        );
        let server = AdminServer::bind("127.0.0.1:0", obs.clone()).unwrap();

        let (_, body) = get(server.addr(), "/healthz");
        let health = crate::json::parse(&body).expect("healthz is JSON");
        let active = |h: &crate::json::Json| {
            h.get("alerts")
                .and_then(|a| a.get("active"))
                .and_then(|a| a.as_arr())
                .map(|a| a.len())
                .expect("alerts.active array")
        };
        assert_eq!(active(&health), 0, "{body}");

        // Breach: the scrape itself evaluates the rule and reports it.
        depth.set(500);
        let (_, body) = get(server.addr(), "/healthz");
        let health = crate::json::parse(&body).expect("healthz is JSON");
        assert_eq!(active(&health), 1, "{body}");
        assert!(body.contains("queue.a->b.occupancy > 100"), "{body}");

        // Recovery clears it on the next scrape.
        depth.set(0);
        let (_, body) = get(server.addr(), "/healthz");
        let health = crate::json::parse(&body).expect("healthz is JSON");
        assert_eq!(active(&health), 0, "{body}");
    }

    #[test]
    fn quarantine_degrades_health() {
        let obs = Obs::enabled();
        obs.gauge("supervisor_quarantined").set(2);
        obs.counter("supervisor_panics").add(3);
        let server = AdminServer::bind("127.0.0.1:0", obs).unwrap();
        let (code, body) = get(server.addr(), "/healthz");
        assert_eq!(code, 200);
        let health = crate::json::parse(&body).unwrap();
        assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("degraded"));
        assert_eq!(
            health.get("supervisor").and_then(|s| s.get("panics")).and_then(|v| v.as_u64()),
            Some(3)
        );
    }

    /// Node names are opaque to the typed view: one made of every former
    /// separator reaches `/analyze` intact.
    #[test]
    fn separator_characters_in_node_names_survive_into_analyze() {
        const NAME: &str = "a;b->c,d|e";
        let obs = Obs::enabled();
        publish(&obs, &[("src", NAME)], "src");
        obs.gauge("source.src.rate").set(1_000);
        obs.gauge(&format!("node.{NAME}.cost_ns")).set(500_000);
        let server = AdminServer::bind("127.0.0.1:0", obs).unwrap();
        let (code, body) = get(server.addr(), "/analyze");
        assert_eq!(code, 200, "{body}");
        let doc = crate::json::parse(&body).expect("analyze is JSON");
        assert_eq!(doc.get("bottleneck").and_then(|b| b.as_str()), Some(NAME), "{body}");
        let path = &doc.get("paths").and_then(|p| p.as_arr()).expect("paths")[0];
        assert_eq!(path.get("terminal").and_then(|t| t.as_str()), Some(NAME), "{body}");
    }

    /// Sends `payload` raw — tolerating a server that hangs up mid-write —
    /// and returns the status of whatever came back.
    fn raw_status(addr: SocketAddr, payload: Vec<u8>) -> Option<u16> {
        let stream = TcpStream::connect(addr).expect("connect admin");
        let mut tx = stream.try_clone().unwrap();
        let writer = std::thread::spawn(move || {
            let _ = tx.write_all(&payload);
        });
        let mut raw = Vec::new();
        // A reset after the response still leaves the response in `raw`.
        let _ = (&stream).read_to_end(&mut raw);
        writer.join().unwrap();
        String::from_utf8_lossy(&raw).split_whitespace().nth(1)?.parse().ok()
    }

    #[test]
    fn oversized_heads_are_refused_without_being_buffered() {
        const SENT: usize = 1 << 20;
        // At the reader: a 1 MiB newline-free request line is given up on
        // after the line cap (plus at most one `BufReader` fill); the rest
        // is still in the socket.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let sender = std::thread::spawn(move || client.write_all(&vec![b'x'; SENT]).unwrap());
        let (mut accepted, _) = listener.accept().unwrap();
        assert_eq!(read_head(&accepted), Err(431));
        let mut rest = Vec::new();
        accepted.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        accepted.read_to_end(&mut rest).unwrap();
        sender.join().unwrap();
        let consumed = SENT - rest.len();
        assert!(consumed as u64 <= MAX_REQUEST_LINE + 8 * 1024, "read_head consumed {consumed}");

        // At the server: the same request and one with too many headers get
        // 431, and the server keeps answering.
        let server = AdminServer::bind("127.0.0.1:0", Obs::enabled()).unwrap();
        assert_eq!(raw_status(server.addr(), vec![b'x'; SENT]), Some(431));
        let mut many = b"GET /healthz HTTP/1.1\r\n".to_vec();
        many.extend(b"X-Pad: 1\r\n".repeat(MAX_HEADERS + 1));
        many.extend(b"\r\n");
        assert_eq!(raw_status(server.addr(), many), Some(431));
        assert_eq!(raw_status(server.addr(), b"\r\n".to_vec()), Some(400));
        assert_eq!(get(server.addr(), "/healthz").0, 200);
    }

    /// Sends `payload` and closes the write half, so the reader meets the
    /// end of input instead of its deadline; the peer may hang up early.
    fn send_all(stream: &TcpStream, payload: Vec<u8>) -> std::thread::JoinHandle<()> {
        let mut tx = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            let _ = tx.write_all(&payload);
            let _ = tx.shutdown(std::net::Shutdown::Write);
        })
    }

    /// Up to 40 KiB of request head: lines of random bytes (non-UTF-8
    /// included, some past the 8 KiB line cap) cut by random line breaks,
    /// after a well-formed request line or none.
    fn hostile_head() -> impl proptest::prelude::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        let line = (
            proptest::collection::vec(any::<u8>(), 0..10_000),
            prop_oneof![Just(&b""[..]), Just(&b"\n"[..]), Just(&b"\r\n"[..])],
        );
        (any::<bool>(), proptest::collection::vec(line, 0..12)).prop_map(|(valid, lines)| {
            let mut head = if valid { b"GET /healthz HTTP/1.1\r\n".to_vec() } else { Vec::new() };
            for (bytes, end) in lines {
                head.extend(bytes);
                head.extend(end);
            }
            head.truncate(40 * 1024);
            head
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn a_hostile_head_is_read_or_refused_and_the_server_keeps_answering(
            head in hostile_head(),
        ) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let sender = send_all(&client, head.clone());
            let (accepted, _) = listener.accept().unwrap();
            let read = read_head(&accepted);
            proptest::prop_assert!(matches!(read, Ok(_) | Err(400 | 431)), "{read:?}");
            drop(accepted);
            sender.join().unwrap();

            let server = AdminServer::bind("127.0.0.1:0", Obs::enabled()).unwrap();
            let stream = TcpStream::connect(server.addr()).unwrap();
            let sender = send_all(&stream, head);
            let _ = (&stream).read_to_end(&mut Vec::new());
            sender.join().unwrap();
            proptest::prop_assert_eq!(get(server.addr(), "/healthz").0, 200);
        }
    }

    #[test]
    fn header_drip_is_cut_at_the_deadline() {
        let server = AdminServer::bind("127.0.0.1:0", Obs::enabled()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let started = Instant::now();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        let mut tx = stream.try_clone().unwrap();
        // One short header every 50 ms, never the blank line: each read
        // succeeds well inside any per-read timeout.
        let dripper = std::thread::spawn(move || {
            while tx.write_all(b"X-Drip: 1\r\n").is_ok() {
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let took = started.elapsed();
        dripper.join().unwrap();
        let raw = String::from_utf8_lossy(&raw);
        assert!(raw.starts_with("HTTP/1.1 408 "), "{raw:?}");
        assert!(took >= REQUEST_DEADLINE, "cut early: {took:?}");
        assert!(took < REQUEST_DEADLINE + Duration::from_secs(2), "held for {took:?}");
        assert_eq!(get(server.addr(), "/healthz").0, 200);
    }
}
