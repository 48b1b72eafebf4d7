//! Capacity-model analyzer: bottleneck attribution, latency prediction,
//! and headroom estimation over the live metrics registry.
//!
//! The paper's cost model — measured per-element cost `c(v)`, mean
//! inter-arrival time `d(v)`, and selectivity-propagated rates — is fed
//! into the registry by the engine's collectors under the
//! `node.<name>.*` / `source.<name>.*` naming conventions, and the graph
//! shape comes typed: the [`TopologySpec`] inside the
//! [`PlanView`](crate::PlanView) the engine publishes on its [`Obs`] handle
//! whenever it (re-)wires a plan. This module turns those raw measurements
//! into operator-facing answers:
//!
//! * **per-node utilization** ρ(v) = λ(v) · c(v), the fraction of one
//!   core the operator consumes at the measured arrival rate;
//! * **predicted queueing delay** per decoupling-queue *station* from an
//!   M/G/1 waiting-time approximation,
//!   `W = ρ·c·(1+CV²) / (2·(1−ρ))` (Pollaczek–Khinchine mean wait; CV²
//!   is the squared coefficient of variation of service time, the one
//!   config knob — 1.0 models exponential service, 0.0 deterministic
//!   service);
//! * **predicted end-to-end p50/p99** per source→terminal path, modelling
//!   the total queueing wait as exponentially distributed around its
//!   mean: `p50 = D + W·ln 2`, `p99 = D + W·ln 100` where `D` is the
//!   deterministic service sum along the path;
//! * **bottleneck ranking and headroom**: nodes sorted by ρ, plus the
//!   multiplicative factor by which the ingest rate can grow before some
//!   partition (or node) saturates (ρ ≥ 1), since every λ in the graph
//!   scales linearly with the source rates;
//! * **model-vs-measured drift** against the real
//!   `egress.<terminal>.e2e_latency_ns` histograms.
//!
//! Inline operators (nodes inside a virtual operator, reached by direct
//! interoperability) contribute service time but no queueing wait — only
//! nodes that head a decoupling queue are stations. With an empty
//! partitioning every non-source node is treated as a station (the GTS
//! view).
//!
//! [`install`] registers a *pinned* collector (one that survives the
//! engine's `clear_collectors` on plan switches) publishing the analysis
//! as `capacity.*` gauges, so `/metrics` scrapes and alert rules see the
//! model without calling the analyzer directly.

use std::collections::BTreeMap;

use crate::json::Writer;
use crate::registry::{quantile_from_cumulative, Lookup};
use crate::{MetricValue, Obs};

/// Utilizations are clamped below this before the `1/(1−ρ)` pole, so an
/// overloaded station reports a large finite wait instead of NaN or
/// infinity.
const RHO_CLAMP: f64 = 0.999;
/// Upper bound on the reported headroom factor (an idle graph would
/// otherwise report infinity).
const HEADROOM_CAP: f64 = 1e6;

/// The knob of the queueing model.
#[derive(Clone, Debug)]
pub struct CapacityConfig {
    /// Squared coefficient of variation of service times (`CV² = Var/E²`)
    /// assumed by the Pollaczek–Khinchine wait formula. 1.0 (the default)
    /// models exponentially distributed service — conservative for this
    /// engine's near-deterministic operators; 0.0 models deterministic
    /// service (M/D/1).
    pub service_cv2: f64,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig { service_cv2: 1.0 }
    }
}

/// The query graph's shape and the current plan's virtual-operator groups,
/// by node name — what the analyzer needs besides the metrics. Names are
/// opaque: any character may appear in them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopologySpec {
    /// Directed edges by node name.
    pub edges: Vec<(String, String)>,
    /// Source node names.
    pub sources: Vec<String>,
    /// Virtual-operator groups by node name (empty = unknown).
    pub partitions: Vec<Vec<String>>,
}

impl TopologySpec {
    /// All node names, sources first, then operators in edge-discovery
    /// order.
    pub fn nodes(&self) -> Vec<String> {
        let mut out: Vec<String> = self.sources.clone();
        for (a, b) in &self.edges {
            for n in [a, b] {
                if !out.iter().any(|x| x == n) {
                    out.push(n.clone());
                }
            }
        }
        out
    }
}

/// Parses a shard-replica node name, `base[i]` → `(base, i)`.
///
/// Parsing only: replica names are *constructed* solely by
/// `hmts-shard`'s `names` module (a repo check gate keeps it that way);
/// the observability plane recognizes them to group replicas under
/// their logical operator without depending on the shard crate.
pub fn parse_replica(name: &str) -> Option<(&str, usize)> {
    let rest = name.strip_suffix(']')?;
    let (base, idx) = rest.rsplit_once('[')?;
    if base.is_empty() || idx.is_empty() || !idx.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((base, idx.parse().ok()?))
}

/// Whether a node is a shard splitter (`base.split` by the same naming
/// scheme). Splitters *route* rather than copy: their output rate divides
/// across their out-edges instead of duplicating onto each.
fn is_splitter(name: &str) -> bool {
    name.ends_with(".split")
}

/// One node's capacity picture.
#[derive(Clone, Debug)]
pub struct NodeCapacity {
    /// Operator name.
    pub name: String,
    /// Measured arrival rate λ(v) in elements/second.
    pub rate: f64,
    /// Measured per-element cost c(v) in nanoseconds.
    pub cost_ns: f64,
    /// Measured selectivity (outputs per input).
    pub selectivity: f64,
    /// Utilization ρ = λ · c (fraction of one core).
    pub rho: f64,
    /// Whether the node heads a decoupling queue (a queueing station).
    pub station: bool,
    /// Predicted M/G/1 mean queueing wait in nanoseconds (0 for inline
    /// nodes — they never wait in a queue of their own). When the node's
    /// partition is known, the wait is computed against the *partition's*
    /// utilization and effective service time: the entry queue is drained
    /// by the virtual operator's thread, whose per-element work covers
    /// every member downstream of the queue, not just this node.
    pub wait_ns: f64,
    /// Current occupancy of the node's entry queue(s), when published.
    pub queue_depth: Option<f64>,
}

/// One virtual operator's aggregate utilization: the busy fraction of the
/// single thread serving the whole partition, `Σ λ(v)·c(v)` over members.
#[derive(Clone, Debug)]
pub struct PartitionCapacity {
    /// Group index in the published partitioning.
    pub index: usize,
    /// Member node names.
    pub nodes: Vec<String>,
    /// Aggregate utilization of the partition's serving thread.
    pub rho: f64,
}

/// One sharded logical operator: its replicas' utilizations rolled up
/// under the pre-rewrite node name, so dashboards and `rho(<logical>)`
/// alert rules keep working after the sharding rewrite.
#[derive(Clone, Debug)]
pub struct ShardCapacity {
    /// Logical operator name (the pre-rewrite node, e.g. `agg`).
    pub logical: String,
    /// Display form grouping the replicas, e.g. `agg[0..3]`.
    pub display: String,
    /// Replica node names in shard-index order.
    pub replicas: Vec<String>,
    /// Per-replica utilization, aligned with `replicas`.
    pub rho: Vec<f64>,
    /// The hottest replica's ρ — the logical node saturates when any one
    /// replica does, so this is what `rho(<logical>)` resolves to.
    pub max_rho: f64,
    /// The hottest replica's predicted queueing wait (ns).
    pub max_wait_ns: f64,
    /// Combined arrival rate over all replicas (elements/second).
    pub rate: f64,
    /// `max ρ / mean ρ` — 1.0 means perfectly balanced keys; large values
    /// flag key skew concentrating load on one replica.
    pub imbalance: f64,
}

/// Predicted end-to-end latency along one source→terminal path.
#[derive(Clone, Debug)]
pub struct PathPrediction {
    /// Source node name.
    pub source: String,
    /// Terminal (sink) node name.
    pub terminal: String,
    /// Path node names, source first.
    pub nodes: Vec<String>,
    /// Deterministic service sum `D = Σ c(v)` (ns, sources excluded).
    pub service_ns: f64,
    /// Total predicted mean queueing wait `W = Σ W(v)` (ns).
    pub wait_ns: f64,
    /// Predicted mean end-to-end latency `D + W` (ns).
    pub mean_ns: f64,
    /// Predicted median, `D + W·ln 2` (ns).
    pub p50_ns: f64,
    /// Predicted 99th percentile, `D + W·ln 100` (ns).
    pub p99_ns: f64,
}

/// Model-vs-measured comparison for one terminal with a real egress
/// latency histogram.
#[derive(Clone, Debug)]
pub struct Drift {
    /// Terminal node name (the `egress.<terminal>.e2e_latency_ns` query).
    pub terminal: String,
    /// Predicted p50/p99 (ns).
    pub predicted_p50_ns: f64,
    /// Predicted p99 (ns).
    pub predicted_p99_ns: f64,
    /// Measured p50 from the histogram (bucket upper bound, ns).
    pub measured_p50_ns: u64,
    /// Measured p99 from the histogram (bucket upper bound, ns).
    pub measured_p99_ns: u64,
    /// Histogram sample count.
    pub measured_count: u64,
    /// `predicted_p99 / measured_p99` (> 1 = model over-predicts).
    pub p99_ratio: f64,
}

/// The full analysis document.
#[derive(Clone, Debug, Default)]
pub struct CapacityReport {
    /// Per-node table, ranked by ρ descending (the bottleneck ranking).
    pub nodes: Vec<NodeCapacity>,
    /// Per-partition utilization (empty when no partitioning published).
    pub partitions: Vec<PartitionCapacity>,
    /// Sharded logical operators (replica names grouped by base; empty
    /// when no node of the graph is sharded).
    pub shards: Vec<ShardCapacity>,
    /// Name of the operator with the highest measured ρ.
    pub bottleneck: Option<String>,
    /// The highest saturation fraction in the graph: max partition ρ when
    /// partitions are known (one thread serves the whole VO), else max
    /// node ρ.
    pub max_rho: f64,
    /// Multiplicative headroom: ingest can grow by this factor before
    /// `max_rho` reaches 1 (every rate in the graph scales linearly with
    /// the sources).
    pub headroom: f64,
    /// Total measured source rate (elements/second).
    pub ingest_rate: f64,
    /// `ingest_rate × headroom` — the predicted maximum sustainable
    /// ingest rate.
    pub max_sustainable_rate: f64,
    /// Per-path latency predictions.
    pub paths: Vec<PathPrediction>,
    /// Model-vs-measured drift per terminal with an egress histogram.
    pub drift: Vec<Drift>,
}

/// Runs the analyzer over a metrics snapshot and a published topology.
pub fn analyze(
    metrics: &[(String, MetricValue)],
    topo: &TopologySpec,
    cfg: &CapacityConfig,
) -> CapacityReport {
    let m = Lookup(metrics);
    let gauge = |name: String| m.gauge(&name).map(|g| g as f64);
    let names = topo.nodes();
    let idx_of = |n: &str| names.iter().position(|x| x == n);
    let n = names.len();
    let is_source = |i: usize| topo.sources.iter().any(|s| s == &names[i]);

    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in &topo.edges {
        if let (Some(u), Some(v)) = (idx_of(a), idx_of(b)) {
            preds[v].push(u);
            succs[u].push(v);
        }
    }
    let part_of: Vec<Option<usize>> = names
        .iter()
        .map(|name| topo.partitions.iter().position(|g| g.iter().any(|x| x == name)))
        .collect();

    // Measured inputs per node; arrival rates fall back to selectivity
    // propagation from upstream when a node has not published a rate yet.
    let cost_ns: Vec<f64> = names
        .iter()
        .map(|name| gauge(format!("node.{name}.cost_ns")).unwrap_or(0.0).max(0.0))
        .collect();
    let sel: Vec<f64> = names
        .iter()
        .map(|name| gauge(format!("node.{name}.selectivity_ppm")).map(|x| x / 1e6).unwrap_or(1.0))
        .collect();
    let mut rate: Vec<f64> = vec![0.0; n];
    // Topological order via Kahn (graphs are DAGs; a cycle just leaves
    // the affected rates at their measured/zero values).
    let mut indeg: Vec<usize> = preds.iter().map(|p| p.len()).collect();
    let mut order: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &v in &succs[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                order.push(v);
            }
        }
    }
    for &i in &order {
        let name = &names[i];
        let measured = if is_source(i) {
            gauge(format!("source.{name}.rate")).or_else(|| gauge(format!("node.{name}.rate")))
        } else {
            gauge(format!("node.{name}.rate"))
        };
        rate[i] = match measured {
            Some(r) if r > 0.0 => r,
            _ => preds[i]
                .iter()
                .map(|&u| {
                    // A shard splitter routes, it does not copy: its
                    // output divides across its out-edges (uniformly, as
                    // the model's best guess absent measured rates).
                    let fan = if is_splitter(&names[u]) { succs[u].len().max(1) } else { 1 };
                    rate[u] * sel[u] / fan as f64
                })
                .sum(),
        };
    }

    // Stations: nodes fed from a source or across a partition boundary.
    // With no partitioning published, every operator queues (GTS view).
    let station: Vec<bool> = (0..n)
        .map(|i| {
            !is_source(i)
                && (topo.partitions.is_empty()
                    || preds[i]
                        .iter()
                        .any(|&u| is_source(u) || part_of[u] != part_of[i] || part_of[i].is_none()))
        })
        .collect();

    let cv2 = cfg.service_cv2.max(0.0);
    // Per-partition busy nanoseconds per second of wall time: Σ λ·c over
    // members. A station's queue is served by the partition's thread, so
    // its wait must be computed against this aggregate, with an effective
    // service time of (partition work per second) / (station arrivals per
    // second) — the VO busy-time one arriving element induces.
    let part_busy_ns: Vec<f64> = topo
        .partitions
        .iter()
        .map(|group| {
            group
                .iter()
                .filter_map(|name| idx_of(name))
                .map(|i| rate[i] * cost_ns[i])
                .sum::<f64>()
                .max(0.0)
        })
        .collect();
    let mut nodes: Vec<NodeCapacity> = (0..n)
        .filter(|&i| !is_source(i))
        .map(|i| {
            let rho = (rate[i] * cost_ns[i] * 1e-9).max(0.0);
            let wait_ns = if station[i] {
                let (r_eff, service_ns) = match part_of[i] {
                    Some(p) if rate[i] > 0.0 => (part_busy_ns[p] * 1e-9, part_busy_ns[p] / rate[i]),
                    _ => (rho, cost_ns[i]),
                };
                let r = r_eff.clamp(0.0, RHO_CLAMP);
                r * service_ns * (1.0 + cv2) / (2.0 * (1.0 - r))
            } else {
                0.0
            };
            let queue_depth = preds[i]
                .iter()
                .filter_map(|&u| gauge(format!("queue.{}->{}.occupancy", names[u], names[i])))
                .reduce(|a, b| a + b);
            NodeCapacity {
                name: names[i].clone(),
                rate: rate[i],
                cost_ns: cost_ns[i],
                selectivity: sel[i],
                rho,
                station: station[i],
                wait_ns,
                queue_depth,
            }
        })
        .collect();
    nodes.sort_by(|a, b| b.rho.total_cmp(&a.rho));
    let bottleneck = nodes.first().filter(|x| x.rho > 0.0).map(|x| x.name.clone());

    // Roll shard replicas up under their logical (pre-rewrite) node.
    let mut by_base: BTreeMap<String, Vec<(usize, &NodeCapacity)>> = BTreeMap::new();
    for x in &nodes {
        if let Some((base, idx)) = parse_replica(&x.name) {
            by_base.entry(base.to_string()).or_default().push((idx, x));
        }
    }
    let shards: Vec<ShardCapacity> = by_base
        .into_iter()
        .map(|(logical, mut members)| {
            members.sort_by_key(|m| m.0);
            let count = members.len();
            let rho: Vec<f64> = members.iter().map(|m| m.1.rho).collect();
            let max_rho = rho.iter().copied().fold(0.0, f64::max);
            let mean = rho.iter().sum::<f64>() / count as f64;
            ShardCapacity {
                display: format!("{logical}[0..{count}]"),
                replicas: members.iter().map(|m| m.1.name.clone()).collect(),
                max_rho,
                max_wait_ns: members.iter().map(|m| m.1.wait_ns).fold(0.0, f64::max),
                rate: members.iter().map(|m| m.1.rate).sum(),
                imbalance: if mean > 0.0 { max_rho / mean } else { 1.0 },
                rho,
                logical,
            }
        })
        .collect();

    let partitions: Vec<PartitionCapacity> = topo
        .partitions
        .iter()
        .enumerate()
        .map(|(index, group)| {
            let rho = group
                .iter()
                .filter_map(|name| idx_of(name))
                .map(|i| rate[i] * cost_ns[i] * 1e-9)
                .sum();
            PartitionCapacity { index, nodes: group.clone(), rho }
        })
        .collect();

    let max_rho = if partitions.is_empty() {
        nodes.first().map(|x| x.rho).unwrap_or(0.0)
    } else {
        partitions.iter().map(|p| p.rho).fold(0.0, f64::max)
    };
    let headroom = if max_rho > 0.0 { (1.0 / max_rho).min(HEADROOM_CAP) } else { HEADROOM_CAP };
    let ingest_rate: f64 = (0..n).filter(|&i| is_source(i)).map(|i| rate[i]).sum();
    let max_sustainable_rate = ingest_rate * headroom;

    // Paths: every source→terminal chain (bounded DFS — query graphs are
    // small; the cap guards against pathological fan-out).
    let wait_of = |i: usize| -> f64 {
        nodes.iter().find(|x| x.name == names[i]).map(|x| x.wait_ns).unwrap_or(0.0)
    };
    let mut paths: Vec<PathPrediction> = Vec::new();
    const MAX_PATHS: usize = 64;
    for s in (0..n).filter(|&i| is_source(i)) {
        let mut stack: Vec<Vec<usize>> = vec![vec![s]];
        while let Some(path) = stack.pop() {
            if paths.len() >= MAX_PATHS {
                break;
            }
            let last = *path.last().expect("non-empty path");
            if succs[last].is_empty() && path.len() > 1 {
                let service_ns: f64 = path[1..].iter().map(|&i| cost_ns[i]).sum();
                let wait_ns: f64 = path[1..].iter().map(|&i| wait_of(i)).sum();
                paths.push(PathPrediction {
                    source: names[s].clone(),
                    terminal: names[last].clone(),
                    nodes: path.iter().map(|&i| names[i].clone()).collect(),
                    service_ns,
                    wait_ns,
                    mean_ns: service_ns + wait_ns,
                    p50_ns: service_ns + wait_ns * std::f64::consts::LN_2,
                    p99_ns: service_ns + wait_ns * 100f64.ln(),
                });
                continue;
            }
            for &v in &succs[last] {
                if path.contains(&v) {
                    continue; // cycle guard
                }
                let mut next = path.clone();
                next.push(v);
                stack.push(next);
            }
        }
    }

    let drift: Vec<Drift> = paths
        .iter()
        .filter_map(|p| {
            let (count, buckets) = m.histogram(&format!("egress.{}.e2e_latency_ns", p.terminal))?;
            if count == 0 {
                return None;
            }
            let measured_p50_ns = quantile_from_cumulative(count, buckets, 0.50);
            let measured_p99_ns = quantile_from_cumulative(count, buckets, 0.99);
            Some(Drift {
                terminal: p.terminal.clone(),
                predicted_p50_ns: p.p50_ns,
                predicted_p99_ns: p.p99_ns,
                measured_p50_ns,
                measured_p99_ns,
                measured_count: count,
                p99_ratio: if measured_p99_ns > 0 {
                    p.p99_ns / measured_p99_ns as f64
                } else {
                    f64::NAN
                },
            })
        })
        .collect();

    CapacityReport {
        nodes,
        partitions,
        shards,
        bottleneck,
        max_rho,
        headroom,
        ingest_rate,
        max_sustainable_rate,
        paths,
        drift,
    }
}

/// Renders the report as one JSON document (the `/analyze` body).
pub fn report_json(report: &CapacityReport, uptime_ms: u64) -> String {
    Writer::object(|w| {
        w.key("uptime_ms").int(uptime_ms);
        match &report.bottleneck {
            Some(name) => w.key("bottleneck").str(name),
            None => w.key("bottleneck").null(),
        }
        w.key("max_rho").f64(report.max_rho);
        w.key("headroom").f64(report.headroom);
        w.key("ingest_rate").f64(report.ingest_rate);
        w.key("max_sustainable_rate").f64(report.max_sustainable_rate);
        w.key("nodes").arr(|w| {
            for x in &report.nodes {
                w.obj(|w| {
                    w.key("name").str(&x.name);
                    w.key("rate").f64(x.rate);
                    w.key("cost_ns").f64(x.cost_ns);
                    w.key("selectivity").f64(x.selectivity);
                    w.key("rho").f64(x.rho);
                    w.key("station").bool(x.station);
                    w.key("wait_ns").f64(x.wait_ns);
                    match x.queue_depth {
                        Some(depth) => w.key("queue_depth").f64(depth),
                        None => w.key("queue_depth").null(),
                    }
                });
            }
        });
        w.key("partitions").arr(|w| {
            for p in &report.partitions {
                w.obj(|w| {
                    w.key("index").int(p.index as u64);
                    w.key("nodes").strs(&p.nodes);
                    w.key("rho").f64(p.rho);
                });
            }
        });
        w.key("shards").arr(|w| {
            for s in &report.shards {
                w.obj(|w| {
                    w.key("logical").str(&s.logical);
                    w.key("display").str(&s.display);
                    w.key("replicas").strs(&s.replicas);
                    w.key("rho").arr(|w| s.rho.iter().for_each(|r| w.f64(*r)));
                    w.key("max_rho").f64(s.max_rho);
                    w.key("max_wait_ns").f64(s.max_wait_ns);
                    w.key("rate").f64(s.rate);
                    w.key("imbalance").f64(s.imbalance);
                });
            }
        });
        w.key("paths").arr(|w| {
            for p in &report.paths {
                w.obj(|w| {
                    w.key("source").str(&p.source);
                    w.key("terminal").str(&p.terminal);
                    w.key("nodes").strs(&p.nodes);
                    w.key("service_ns").f64(p.service_ns);
                    w.key("wait_ns").f64(p.wait_ns);
                    w.key("mean_ns").f64(p.mean_ns);
                    w.key("p50_ns").f64(p.p50_ns);
                    w.key("p99_ns").f64(p.p99_ns);
                });
            }
        });
        w.key("drift").arr(|w| {
            for d in &report.drift {
                w.obj(|w| {
                    w.key("terminal").str(&d.terminal);
                    w.key("predicted_p50_ns").f64(d.predicted_p50_ns);
                    w.key("predicted_p99_ns").f64(d.predicted_p99_ns);
                    w.key("measured_p50_ns").int(d.measured_p50_ns);
                    w.key("measured_p99_ns").int(d.measured_p99_ns);
                    w.key("measured_count").int(d.measured_count);
                    w.key("p99_ratio").f64(d.p99_ratio);
                });
            }
        });
    })
}

/// Installs the periodic analyzer: a pinned collector (surviving engine
/// re-wirings) that runs [`analyze`] on every collector pass and
/// publishes the result as `capacity.*` gauges:
///
/// * `capacity.node.<name>.rho_ppm`, `capacity.node.<name>.wait_ns`
/// * `capacity.partition.<i>.rho_ppm`
/// * for sharded nodes, `capacity.node.<logical>.rho_ppm` /
///   `.wait_ns` (hottest replica, keeping `rho(<logical>)` alert rules
///   live) plus `capacity.shard.<logical>.replicas` and
///   `capacity.shard.<logical>.imbalance_ppm`
/// * `capacity.max_rho_ppm`, `capacity.headroom_ppm`,
///   `capacity.max_sustainable_rate`
/// * `capacity.path.<terminal>.predicted_{p50,p99,mean}_ns`
/// * `capacity.drift.<terminal>.p99_ratio_ppm`
///
/// The shape is whatever [`PlanView`](crate::PlanView) `obs` holds at each
/// pass, so the gauges follow plan switches; nothing is published until the
/// engine has published a view. No-op on a disabled handle.
pub fn install(obs: &Obs, cfg: CapacityConfig) {
    if !obs.is_enabled() {
        return;
    }
    let obs2 = obs.clone();
    obs.add_pinned_collector(move || {
        let Some(view) = obs2.plan_view() else { return };
        let report = analyze(&obs2.metrics_snapshot(), &view.topology, &cfg);
        let ppm = |x: f64| (x * 1e6).clamp(0.0, i64::MAX as f64) as i64;
        for x in &report.nodes {
            obs2.gauge(&format!("capacity.node.{}.rho_ppm", x.name)).set(ppm(x.rho));
            obs2.gauge(&format!("capacity.node.{}.wait_ns", x.name)).set(x.wait_ns as i64);
        }
        for p in &report.partitions {
            obs2.gauge(&format!("capacity.partition.{}.rho_ppm", p.index)).set(ppm(p.rho));
        }
        // Sharded logical nodes: re-publish the hottest replica under the
        // pre-rewrite name so existing `rho(<name>)` alert rules and
        // dashboards keep working across a sharding rewrite.
        for s in &report.shards {
            obs2.gauge(&format!("capacity.node.{}.rho_ppm", s.logical)).set(ppm(s.max_rho));
            obs2.gauge(&format!("capacity.node.{}.wait_ns", s.logical)).set(s.max_wait_ns as i64);
            obs2.gauge(&format!("capacity.shard.{}.replicas", s.logical))
                .set(s.replicas.len() as i64);
            obs2.gauge(&format!("capacity.shard.{}.imbalance_ppm", s.logical))
                .set(ppm(s.imbalance));
        }
        obs2.gauge("capacity.max_rho_ppm").set(ppm(report.max_rho));
        obs2.gauge("capacity.headroom_ppm").set(ppm(report.headroom));
        obs2.gauge("capacity.max_sustainable_rate").set(report.max_sustainable_rate as i64);
        for p in &report.paths {
            let base = format!("capacity.path.{}", p.terminal);
            obs2.gauge(&format!("{base}.predicted_p50_ns")).set(p.p50_ns as i64);
            obs2.gauge(&format!("{base}.predicted_p99_ns")).set(p.p99_ns as i64);
            obs2.gauge(&format!("{base}.predicted_mean_ns")).set(p.mean_ns as i64);
        }
        for d in &report.drift {
            if d.p99_ratio.is_finite() {
                obs2.gauge(&format!("capacity.drift.{}.p99_ratio_ppm", d.terminal))
                    .set(ppm(d.p99_ratio));
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanView;

    fn topo(edges: &[(&str, &str)], source: &str, partitions: &[&[&str]]) -> TopologySpec {
        let names = |group: &[&str]| group.iter().map(|n| n.to_string()).collect();
        TopologySpec {
            edges: edges.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect(),
            sources: vec![source.into()],
            partitions: partitions.iter().map(|g| names(g)).collect(),
        }
    }

    const SHARDED: [(&str, &str); 5] = [
        ("src", "agg.split"),
        ("agg.split", "agg[0]"),
        ("agg.split", "agg[1]"),
        ("agg[0]", "agg.merge"),
        ("agg[1]", "agg.merge"),
    ];

    /// src → a (cheap) → b (expensive): b must rank as the bottleneck and
    /// the path prediction must be the closed-form M/G/1 sum.
    #[test]
    fn ranks_bottleneck_and_predicts_path_latency() {
        let obs = Obs::enabled();
        obs.gauge("source.src.rate").set(1000);
        obs.gauge("node.a.cost_ns").set(10_000); // 10 µs → ρ=0.01
        obs.gauge("node.a.selectivity_ppm").set(1_000_000);
        obs.gauge("node.a.rate").set(1000);
        obs.gauge("node.b.cost_ns").set(500_000); // 500 µs → ρ=0.5
        obs.gauge("node.b.selectivity_ppm").set(1_000_000);
        obs.gauge("node.b.rate").set(1000);
        let shape = topo(&[("src", "a"), ("a", "b")], "src", &[&["a"], &["b"]]);
        let cfg = CapacityConfig { service_cv2: 0.0 };
        let report = analyze(&obs.metrics_snapshot(), &shape, &cfg);

        assert_eq!(report.bottleneck.as_deref(), Some("b"));
        assert_eq!(report.nodes[0].name, "b");
        assert!((report.nodes[0].rho - 0.5).abs() < 1e-9, "rho={}", report.nodes[0].rho);
        assert!((report.max_rho - 0.5).abs() < 1e-9);
        assert!((report.headroom - 2.0).abs() < 1e-9);
        assert!((report.ingest_rate - 1000.0).abs() < 1e-9);
        assert!((report.max_sustainable_rate - 2000.0).abs() < 1e-9);

        // M/D/1 waits: W_a = .01*10µs/(2*.99), W_b = .5*500µs/(2*.5).
        let w_a = 0.01 * 10_000.0 / (2.0 * 0.99);
        let w_b = 0.5 * 500_000.0 / (2.0 * 0.5);
        assert_eq!(report.paths.len(), 1);
        let p = &report.paths[0];
        assert_eq!(p.terminal, "b");
        assert!((p.service_ns - 510_000.0).abs() < 1.0);
        assert!((p.wait_ns - (w_a + w_b)).abs() < 1.0, "wait={} want={}", p.wait_ns, w_a + w_b);
        assert!((p.mean_ns - (p.service_ns + p.wait_ns)).abs() < 1e-6);
        assert!(p.p50_ns < p.p99_ns && p.p99_ns < p.service_ns + 5.0 * p.wait_ns);
    }

    /// Rates propagate through measured selectivities when a downstream
    /// node has not published its own rate.
    #[test]
    fn propagates_rates_through_selectivity() {
        let obs = Obs::enabled();
        obs.gauge("source.src.rate").set(10_000);
        obs.gauge("node.f.cost_ns").set(1_000);
        obs.gauge("node.f.selectivity_ppm").set(100_000); // 0.1
        obs.gauge("node.g.cost_ns").set(1_000_000);
        let shape = topo(&[("src", "f"), ("f", "g")], "src", &[]);
        let report = analyze(&obs.metrics_snapshot(), &shape, &CapacityConfig::default());
        let f = report.nodes.iter().find(|x| x.name == "f").unwrap();
        let g = report.nodes.iter().find(|x| x.name == "g").unwrap();
        assert!((f.rate - 10_000.0).abs() < 1e-9, "f propagated from source");
        assert!((g.rate - 1_000.0).abs() < 1e-9, "g thinned by f's selectivity");
        // No partitioning published: every operator is a station.
        assert!(f.station && g.station);
    }

    /// Inline nodes (inside a partition, not behind a queue) contribute
    /// service time but no queueing wait.
    #[test]
    fn inline_nodes_do_not_queue() {
        let obs = Obs::enabled();
        obs.gauge("source.s.rate").set(100);
        for n in ["a", "b"] {
            obs.gauge(&format!("node.{n}.cost_ns")).set(1_000_000);
            obs.gauge(&format!("node.{n}.rate")).set(100);
        }
        let shape = topo(&[("s", "a"), ("a", "b")], "s", &[&["a", "b"]]);
        let report = analyze(&obs.metrics_snapshot(), &shape, &CapacityConfig::default());
        let a = report.nodes.iter().find(|x| x.name == "a").unwrap();
        let b = report.nodes.iter().find(|x| x.name == "b").unwrap();
        assert!(a.station, "a heads the source-fed queue");
        assert!(!b.station, "b is inline behind a");
        assert!(a.wait_ns > 0.0);
        assert_eq!(b.wait_ns, 0.0);
        // Partition rho aggregates both members.
        assert_eq!(report.partitions.len(), 1);
        assert!((report.partitions[0].rho - 0.2).abs() < 1e-9);
    }

    /// Saturated stations clamp instead of dividing by zero, and drift
    /// compares against the measured egress histogram.
    #[test]
    fn clamps_overload_and_tracks_drift() {
        let obs = Obs::enabled();
        obs.gauge("source.s.rate").set(1_000_000);
        obs.gauge("node.op.cost_ns").set(1_000_000); // ρ = 1000 ≫ 1
        obs.gauge("node.op.rate").set(1_000_000);
        let h = obs.histogram("egress.op.e2e_latency_ns");
        for _ in 0..100 {
            h.record(1_000_000);
        }
        let shape = topo(&[("s", "op")], "s", &[]);
        let report = analyze(&obs.metrics_snapshot(), &shape, &CapacityConfig::default());
        let op = &report.nodes[0];
        assert!(op.rho > 1.0);
        assert!(op.wait_ns.is_finite() && op.wait_ns > 0.0);
        assert!(report.headroom < 1.0, "overloaded graph has sub-1 headroom");
        assert_eq!(report.drift.len(), 1);
        let d = &report.drift[0];
        assert_eq!(d.measured_count, 100);
        assert!(d.measured_p99_ns >= 1_000_000);
        assert!(d.p99_ratio.is_finite() && d.p99_ratio > 0.0);
    }

    #[test]
    fn report_json_is_parseable_and_names_bottleneck() {
        let obs = Obs::enabled();
        obs.gauge("source.s.rate").set(500);
        obs.gauge("node.hot.cost_ns").set(900_000);
        obs.gauge("node.hot.rate").set(500);
        let shape = topo(&[("s", "hot")], "s", &[&["hot"]]);
        let report = analyze(&obs.metrics_snapshot(), &shape, &CapacityConfig::default());
        let body = report_json(&report, 1234);
        let doc = crate::json::parse(&body).expect("valid JSON");
        assert_eq!(doc.get("bottleneck").and_then(|b| b.as_str()), Some("hot"));
        assert_eq!(doc.get("uptime_ms").and_then(|v| v.as_u64()), Some(1234));
        let nodes = doc.get("nodes").and_then(|x| x.as_arr()).expect("nodes array");
        assert_eq!(nodes.len(), 1);
        assert!(doc.get("max_rho").and_then(|v| v.as_f64()).unwrap() > 0.0);
    }

    #[test]
    fn install_publishes_capacity_gauges_surviving_collector_clears() {
        let obs = Obs::enabled();
        obs.gauge("source.s.rate").set(100);
        obs.gauge("node.x.cost_ns").set(2_000_000);
        obs.gauge("node.x.rate").set(100);
        let topology = topo(&[("s", "x")], "s", &[]);
        obs.set_plan_view(|| PlanView { topology, ..PlanView::default() });
        install(&obs, CapacityConfig::default());
        // A regular collector cleared by the engine must not take the
        // analyzer with it.
        obs.add_collector(|| {});
        obs.clear_collectors();
        obs.run_collectors();
        let m = obs.metrics_snapshot();
        let gauge = |name: &str| {
            m.iter().find_map(|(n, v)| match v {
                MetricValue::Gauge(g) if n == name => Some(*g),
                _ => None,
            })
        };
        let rho = gauge("capacity.node.x.rho_ppm").expect("rho gauge");
        assert!((rho - 200_000).abs() < 2_000, "ρ=0.2 → {rho} ppm");
        assert!(gauge("capacity.max_rho_ppm").is_some());
        assert!(gauge("capacity.headroom_ppm").unwrap() > 1_000_000);
        assert!(gauge("capacity.max_sustainable_rate").unwrap() > 100);
    }

    /// Shard replicas (`agg[i]`) roll up under the logical node: the
    /// report gains a `shards` entry, and `install` re-publishes the
    /// hottest replica's ρ as `capacity.node.agg.rho_ppm` so a
    /// `rho(agg)` alert rule survives the sharding rewrite unchanged.
    #[test]
    fn shard_replicas_roll_up_under_logical_node() {
        let obs = Obs::enabled();
        obs.gauge("source.src.rate").set(1_000);
        obs.gauge("node.agg.split.cost_ns").set(100);
        obs.gauge("node.agg.split.rate").set(1_000);
        for (name, rate) in [("agg[0]", 600), ("agg[1]", 400)] {
            obs.gauge(&format!("node.{name}.cost_ns")).set(500_000);
            obs.gauge(&format!("node.{name}.rate")).set(rate);
        }
        obs.gauge("node.agg.merge.cost_ns").set(100);
        let shape = topo(&SHARDED, "src", &[]);
        let report = analyze(&obs.metrics_snapshot(), &shape, &CapacityConfig::default());

        assert_eq!(report.shards.len(), 1);
        let s = &report.shards[0];
        assert_eq!(s.logical, "agg");
        assert_eq!(s.display, "agg[0..2]");
        assert_eq!(s.replicas, vec!["agg[0]".to_string(), "agg[1]".to_string()]);
        assert!((s.max_rho - 0.3).abs() < 1e-9, "hottest replica ρ: {}", s.max_rho);
        assert!((s.rate - 1_000.0).abs() < 1e-9);
        assert!((s.imbalance - 0.3 / 0.25).abs() < 1e-9, "imbalance: {}", s.imbalance);
        // The hot replica — not the logical rollup — is the bottleneck row.
        assert_eq!(report.bottleneck.as_deref(), Some("agg[0]"));

        // The JSON body carries the shards table.
        let body = report_json(&report, 1);
        let doc = crate::json::parse(&body).expect("valid JSON");
        let shards = doc.get("shards").and_then(|x| x.as_arr()).expect("shards array");
        assert_eq!(shards[0].get("display").and_then(|v| v.as_str()), Some("agg[0..2]"));

        // install() republishes under the logical name.
        obs.set_plan_view(|| PlanView { topology: shape, ..PlanView::default() });
        install(&obs, CapacityConfig::default());
        obs.run_collectors();
        let m = obs.metrics_snapshot();
        let gauge = |name: &str| {
            m.iter().find_map(|(n, v)| match v {
                MetricValue::Gauge(g) if n == name => Some(*g),
                _ => None,
            })
        };
        let rho = gauge("capacity.node.agg.rho_ppm").expect("logical rho gauge");
        assert!((rho - 300_000).abs() < 3_000, "max replica ρ=0.3 → {rho} ppm");
        assert_eq!(gauge("capacity.shard.agg.replicas"), Some(2));
        assert!(gauge("capacity.shard.agg.imbalance_ppm").unwrap() > 1_000_000);
    }

    /// A splitter's propagated rate divides across its out-edges (it
    /// routes, it does not broadcast), so un-measured replicas get the
    /// uniform share rather than the full input rate each.
    #[test]
    fn split_fanout_divides_propagated_rate() {
        let obs = Obs::enabled();
        obs.gauge("source.src.rate").set(1_000);
        obs.gauge("node.f.split.rate").set(1_000);
        for name in ["f[0]", "f[1]"] {
            obs.gauge(&format!("node.{name}.cost_ns")).set(100_000);
        }
        let shape =
            topo(&[("src", "f.split"), ("f.split", "f[0]"), ("f.split", "f[1]")], "src", &[]);
        let report = analyze(&obs.metrics_snapshot(), &shape, &CapacityConfig::default());
        for name in ["f[0]", "f[1]"] {
            let x = report.nodes.iter().find(|x| x.name == name).unwrap();
            assert!((x.rate - 500.0).abs() < 1e-9, "{name} rate: {}", x.rate);
        }
    }

    #[test]
    fn replica_name_parsing_is_strict() {
        assert_eq!(parse_replica("agg[0]"), Some(("agg", 0)));
        assert_eq!(parse_replica("a.b[12]"), Some(("a.b", 12)));
        for bad in ["agg", "agg[]", "agg[x]", "[3]", "agg[1", "agg1]"] {
            assert_eq!(parse_replica(bad), None, "{bad}");
        }
    }

    #[test]
    fn no_plan_view_means_no_capacity_gauges() {
        let obs = Obs::enabled();
        // install() before any engine published a view is inert but harmless.
        install(&obs, CapacityConfig::default());
        obs.run_collectors();
        assert!(obs.metrics_snapshot().iter().all(|(n, _)| !n.starts_with("capacity.")));
    }
}
