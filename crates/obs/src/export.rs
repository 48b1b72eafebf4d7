//! Exporters: Prometheus text exposition, JSON event journal, CSV series,
//! Chrome/Perfetto `trace_event` timelines, and per-operator latency
//! breakdowns from tuple trace spans.
//!
//! No serde in the dependency tree: the JSON documents are built with the
//! one [`crate::json::Writer`]; metric names are sanitised to the
//! Prometheus charset.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::journal::{EventRecord, Field, SchedEvent};
use crate::json::Writer;
use crate::registry::{quantile_from_cumulative, MetricValue};
use crate::sampler::SamplePoint;
use crate::trace::{HopKind, SpanEvent, NO_PARTITION};

/// Renders a registry snapshot in Prometheus text exposition format.
///
/// Counters get a `_total` suffix, histograms emit cumulative
/// `_bucket{le="..."}` lines plus `_sum` and `_count` plus estimated
/// `{quantile="..."}` gauges for p50/p95/p99, matching what a Prometheus
/// scrape endpoint would serve. Every family is announced with `# HELP`
/// and `# TYPE` lines; the help text quotes the registry name verbatim
/// (escaped per the exposition format), which preserves characters the
/// metric-name sanitiser had to fold away (`queue.src->map` and the like).
pub fn prometheus_text(snapshot: &[(String, MetricValue)]) -> String {
    let mut out = String::new();
    for (raw_name, value) in snapshot {
        let name = sanitize_metric_name(raw_name);
        let help = escape_help_text(raw_name);
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# HELP {name}_total hmts counter {help}\n"));
                out.push_str(&format!("# TYPE {name}_total counter\n"));
                out.push_str(&format!("{name}_total {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# HELP {name} hmts gauge {help}\n"));
                out.push_str(&format!("# TYPE {name} gauge\n"));
                out.push_str(&format!("{name} {v}\n"));
            }
            MetricValue::Histogram(count, sum, buckets) => {
                out.push_str(&format!("# HELP {name} hmts histogram {help}\n"));
                out.push_str(&format!("# TYPE {name} histogram\n"));
                for (le, cum) in buckets {
                    let le = escape_label_value(&le.to_string());
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
                out.push_str(&format!("{name}_sum {sum}\n"));
                out.push_str(&format!("{name}_count {count}\n"));
                // Bucket-resolution quantile estimates, exposed as a
                // summary-style gauge family next to the histogram.
                out.push_str(&format!("# HELP {name}_quantile hmts quantile estimates {help}\n"));
                out.push_str(&format!("# TYPE {name}_quantile gauge\n"));
                for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                    let v = quantile_from_cumulative(*count, buckets, q);
                    out.push_str(&format!("{name}_quantile{{quantile=\"{label}\"}} {v}\n"));
                }
            }
        }
    }
    out
}

/// Escapes a string for use as a Prometheus label *value*: the exposition
/// format requires `\\`, `\"`, and `\n` to be backslash-escaped inside the
/// double-quoted value.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a string for use in a `# HELP` line: backslashes and line feeds
/// must be escaped (quotes are fine in help text).
fn escape_help_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Maps arbitrary metric names onto `[a-zA-Z0-9_:]` as Prometheus requires
/// (queue names like `"src->filter"` become `src__filter`).
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders journal records as a JSON array (one object per event, one
/// event per line): the record's ordering metadata, the event's kind, then
/// its fields in description order.
pub fn events_json(records: &[EventRecord]) -> String {
    Writer::document(|w| {
        w.arr(|w| {
            for r in records {
                let (kind, fields) = r.event.describe();
                w.line();
                w.obj(|w| {
                    w.key("seq").int(r.seq);
                    w.key("thread").int(r.thread);
                    w.key("elapsed_ns").int(r.elapsed_ns);
                    w.key("kind").str(kind);
                    for (key, value) in fields {
                        match value {
                            Field::Int(v) => w.key(key).int(v),
                            Field::F(v) => w.key(key).f64(v),
                            Field::S(v) => w.key(key).str(v),
                        }
                    }
                });
            }
        })
    })
}

/// Renders a sampled time series as CSV: one row per tick, one column per
/// metric (histograms export their mean). The column set is the union of
/// metric names across all samples, so late-registered metrics appear with
/// empty leading cells.
pub fn series_csv(series: &[SamplePoint]) -> String {
    let mut columns: Vec<String> = Vec::new();
    for point in series {
        for (name, _) in &point.metrics {
            if !columns.contains(name) {
                columns.push(name.clone());
            }
        }
    }
    columns.sort();

    let mut out = String::from("elapsed_ms");
    for c in &columns {
        out.push(',');
        // CSV-quote names containing separators (queue names may hold '>').
        if c.contains(',') || c.contains('"') {
            out.push('"');
            out.push_str(&c.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(c);
        }
    }
    out.push('\n');

    for point in series {
        out.push_str(&format!("{:.3}", point.elapsed.as_secs_f64() * 1e3));
        for c in &columns {
            out.push(',');
            if let Some((_, v)) = point.metrics.iter().find(|(n, _)| n == c) {
                out.push_str(&format!("{}", v.as_f64()));
            }
        }
        out.push('\n');
    }
    out
}

/// Paths produced by [`write_snapshot_files`].
#[derive(Debug, Clone)]
pub struct SnapshotPaths {
    pub metrics_prom: PathBuf,
    pub events_json: PathBuf,
    pub series_csv: PathBuf,
}

/// Writes `metrics.prom`, `events.json`, and `series.csv` under `dir`
/// (created if missing) from the given snapshot pieces.
pub fn write_snapshot_files(
    dir: &Path,
    snapshot: &[(String, MetricValue)],
    events: &[EventRecord],
    series: &[SamplePoint],
) -> io::Result<SnapshotPaths> {
    std::fs::create_dir_all(dir)?;
    let paths = SnapshotPaths {
        metrics_prom: dir.join("metrics.prom"),
        events_json: dir.join("events.json"),
        series_csv: dir.join("series.csv"),
    };
    std::fs::write(&paths.metrics_prom, prometheus_text(snapshot))?;
    std::fs::write(&paths.events_json, events_json(events))?;
    std::fs::write(&paths.series_csv, series_csv(series))?;
    Ok(paths)
}

// ---------------------------------------------------------------------------
// Chrome/Perfetto trace_event export
// ---------------------------------------------------------------------------

/// Nanoseconds as the microseconds `trace_event` timestamps are in.
fn us(t_ns: u64) -> f64 {
    t_ns as f64 / 1000.0
}

/// One process's contribution to a merged multi-process timeline: its
/// sampled tuple spans and scheduler journal, plus the pid/name Perfetto
/// should group its tracks under.
#[derive(Debug, Clone, Copy)]
pub struct ProcessTrace<'a> {
    /// Perfetto process id (pick distinct small integers per process).
    pub pid: u32,
    /// Human-readable process name shown on the track group.
    pub name: &'a str,
    /// Tuple trace spans recorded by this process.
    pub spans: &'a [SpanEvent],
    /// Scheduler event journal recorded by this process.
    pub journal: &'a [EventRecord],
}

/// Renders tuple trace spans merged with the scheduler event journal as
/// Chrome `trace_event`-format JSON (the legacy format Perfetto's
/// ui.perfetto.dev and `chrome://tracing` both open).
///
/// Single-process convenience wrapper over [`chrome_trace_json_multi`];
/// everything lands under pid 1 / process name `hmts`.
pub fn chrome_trace_json(spans: &[SpanEvent], journal: &[EventRecord]) -> String {
    chrome_trace_json_multi(&[ProcessTrace { pid: 1, name: "hmts", spans, journal }])
}

/// Renders span + journal exports from several processes as one Chrome
/// `trace_event` JSON document with per-process track groups, so a tuple
/// sampled at a `netgen` client can be followed across the wire into the
/// `serve` engine and out through egress on a single timeline.
///
/// Track model, per process: one track per engine thread (pool worker or
/// source thread), identified by the shared
/// per-thread token. On those tracks:
///
/// * `ph:"X"` complete events for each operator-processing span of a
///   sampled tuple (`cat:"tuple"`) and for each dispatch→yield executor
///   slice paired from the journal (`cat:"sched"`),
/// * `ph:"b"`/`ph:"e"` async events (`cat:"queue"`, id = trace id) for
///   queue residency, which Perfetto draws as arrows/flows across the
///   producer and consumer threads,
/// * `ph:"b"`/`ph:"e"` async events (`cat:"net"`, id = trace id) for
///   network transit: a `net-send` hop opens the async span in the sending
///   process and the matching `net-recv` hop closes it in the receiving
///   process — because async events pair by id *globally*, this is the
///   link that stitches the per-process tracks together,
/// * `ph:"i"` instant events for the remaining scheduler decisions
///   (dispatch, preempt, aging-boost, mode-switch, stalls, queue
///   lifecycle).
///
/// Timestamps are per-process elapsed-since-start; co-started processes
/// (the loopback harness, or `netgen` pointed at a freshly started
/// `serve`) line up within startup skew.
pub fn chrome_trace_json_multi(procs: &[ProcessTrace<'_>]) -> String {
    Writer::object(|w| {
        w.key("displayTimeUnit").str("ms");
        w.key("traceEvents").arr(|w| procs.iter().for_each(|p| process_events(w, p)));
    })
}

fn process_events(w: &mut Writer, p: &ProcessTrace<'_>) {
    let ProcessTrace { pid, name, spans, journal } = *p;
    // One `trace_event` on its own line: the members every event carries,
    // then whatever `rest` adds.
    type Rest<'a> = &'a dyn Fn(&mut Writer);
    let event =
        |w: &mut Writer, name: &str, cat: &str, ph: &str, t_ns: u64, tid: u64, rest: Rest| {
            w.line();
            w.obj(|w| {
                w.key("name").str(name);
                w.key("cat").str(cat);
                w.key("ph").str(ph);
                w.key("ts").f64(us(t_ns));
                w.key("pid").int(pid);
                w.key("tid").int(tid);
                rest(w);
            });
        };
    // A thread-scoped instant named by the event's kind and field values.
    let instant = |w: &mut Writer, r: &EventRecord| {
        let (kind, fields) = r.event.describe();
        let mut name = kind.to_string();
        for (_, value) in &fields {
            let _ = write!(name, " {value}");
        }
        event(w, &name, "sched", "i", r.elapsed_ns, r.thread, &|w| w.key("s").str("t"));
    };

    // Thread metadata: name every referenced track.
    let mut threads: Vec<u64> =
        spans.iter().map(|s| s.thread).chain(journal.iter().map(|r| r.thread)).collect();
    threads.sort_unstable();
    threads.dedup();
    let mut metadata = |what: &str, tid: u64, label: &str| {
        w.line();
        w.obj(|w| {
            w.key("name").str(what);
            w.key("ph").str("M");
            w.key("pid").int(pid);
            w.key("tid").int(tid);
            w.key("args").obj(|w| w.key("name").str(label));
        });
    };
    metadata("process_name", 0, name);
    for &t in &threads {
        metadata("thread_name", t, &format!("engine thread {t}"));
    }

    // Tuple spans: pair process-start/process-end per trace into complete
    // events; queue enter/exit become async begin/end keyed by trace id.
    let partition_arg = |w: &mut Writer, partition: u32| {
        let partition = if partition == NO_PARTITION { -1 } else { i64::from(partition) };
        w.key("partition").int(partition);
    };
    let mut by_trace: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    for hops in by_trace.values_mut() {
        hops.sort_by_key(|s| (s.t_ns, s.seq));
        let mut open: Option<&SpanEvent> = None;
        for h in hops.iter() {
            match h.kind {
                HopKind::ProcessStart => open = Some(h),
                HopKind::ProcessEnd => {
                    if let Some(start) = open.take().filter(|start| start.site == h.site) {
                        event(w, &h.site, "tuple", "X", start.t_ns, h.thread, &|w| {
                            w.key("dur").f64(us(h.t_ns.saturating_sub(start.t_ns)));
                            w.key("args").obj(|w| {
                                w.key("trace_id").int(h.trace_id);
                                partition_arg(w, h.partition);
                            });
                        });
                    }
                }
                HopKind::QueueEnter | HopKind::QueueExit => {
                    let ph = if h.kind == HopKind::QueueEnter { "b" } else { "e" };
                    event(w, &h.site, "queue", ph, h.t_ns, h.thread, &|w| {
                        w.key("id").int(h.trace_id);
                        w.key("args").obj(|w| partition_arg(w, h.partition));
                    });
                }
                HopKind::NetSend | HopKind::NetRecv => {
                    // One async span per wire transit: the send side opens
                    // it, the receive side (possibly in another process)
                    // closes it. Constant name so the b/e events pair.
                    let ph = if h.kind == HopKind::NetSend { "b" } else { "e" };
                    event(w, "net", "net", ph, h.t_ns, h.thread, &|w| {
                        w.key("id").int(h.trace_id);
                        w.key("args").obj(|w| w.key("site").str(&h.site));
                    });
                }
            }
        }
    }

    // Scheduler timeline: dispatch→yield pairs become per-thread slices,
    // every other event an instant.
    let mut sorted: Vec<&EventRecord> = journal.iter().collect();
    sorted.sort_by_key(|r| r.seq);
    let mut open_dispatch: BTreeMap<u64, (&EventRecord, usize)> = BTreeMap::new();
    for r in sorted {
        match &r.event {
            SchedEvent::Dispatch { domain, .. } => {
                open_dispatch.insert(r.thread, (r, *domain));
            }
            SchedEvent::Yield { domain, outcome } => {
                let paired = open_dispatch.remove(&r.thread).filter(|(_, d)| d == domain);
                if let Some((start, _)) = paired {
                    let name = format!("run d{domain}");
                    event(w, &name, "sched", "X", start.elapsed_ns, r.thread, &|w| {
                        w.key("dur").f64(us(r.elapsed_ns.saturating_sub(start.elapsed_ns)));
                        w.key("args").obj(|w| w.key("outcome").str(outcome));
                    });
                }
            }
            _ => instant(w, r),
        }
    }
    // Unpaired dispatches (slice still running at snapshot time) surface
    // as instants so they are not silently invisible.
    for (start, _) in open_dispatch.values() {
        instant(w, start);
    }
}

// ---------------------------------------------------------------------------
// Span file export / import (for offline multi-process merging)
// ---------------------------------------------------------------------------

/// Renders a process's raw trace spans as a standalone JSON document
/// (`{"process": ..., "spans": [...]}`), suitable for writing next to the
/// metrics snapshot and later merging with other processes' exports via
/// [`parse_spans_json`] + [`chrome_trace_json_multi`].
pub fn spans_json(process: &str, spans: &[SpanEvent]) -> String {
    Writer::object(|w| {
        w.key("process").str(process);
        w.key("spans").arr(|w| {
            for s in spans {
                w.line();
                w.obj(|w| {
                    w.key("seq").int(s.seq);
                    w.key("trace_id").int(s.trace_id);
                    w.key("kind").str(s.kind.kind());
                    w.key("site").str(&s.site);
                    w.key("partition").int(s.partition);
                    w.key("thread").int(s.thread);
                    w.key("t_ns").int(s.t_ns);
                });
            }
        });
    })
}

/// Parses a [`spans_json`] document back into `(process name, spans)`.
///
/// Strict: unknown hop kinds, missing fields, or non-integer numerics are
/// errors, never panics — this is the ingestion path for files produced by
/// *other* processes.
pub fn parse_spans_json(text: &str) -> Result<(String, Vec<SpanEvent>), String> {
    let doc = crate::json::parse(text)?;
    let process = doc
        .get("process")
        .and_then(|j| j.as_str())
        .ok_or_else(|| "spans file: missing \"process\" string".to_string())?
        .to_string();
    let arr = doc
        .get("spans")
        .and_then(|j| j.as_arr())
        .ok_or_else(|| "spans file: missing \"spans\" array".to_string())?;
    let mut spans = Vec::with_capacity(arr.len());
    for (i, item) in arr.iter().enumerate() {
        let field_u64 = |key: &str| -> Result<u64, String> {
            item.get(key)
                .and_then(|j| j.as_u64())
                .ok_or_else(|| format!("spans file: span {i}: missing u64 \"{key}\""))
        };
        let kind_tag = item
            .get("kind")
            .and_then(|j| j.as_str())
            .ok_or_else(|| format!("spans file: span {i}: missing \"kind\""))?;
        let kind = HopKind::from_kind(kind_tag)
            .ok_or_else(|| format!("spans file: span {i}: unknown hop kind {kind_tag:?}"))?;
        let site = item
            .get("site")
            .and_then(|j| j.as_str())
            .ok_or_else(|| format!("spans file: span {i}: missing \"site\""))?;
        let partition = field_u64("partition")?;
        if partition > u64::from(u32::MAX) {
            return Err(format!("spans file: span {i}: partition {partition} out of range"));
        }
        spans.push(SpanEvent {
            seq: field_u64("seq")?,
            trace_id: field_u64("trace_id")?,
            kind,
            site: site.into(),
            partition: partition as u32,
            thread: field_u64("thread")?,
            t_ns: field_u64("t_ns")?,
        });
    }
    Ok((process, spans))
}

// ---------------------------------------------------------------------------
// Per-operator latency breakdown
// ---------------------------------------------------------------------------

/// Queue-wait vs processing latency of one operator in one partition,
/// aggregated over all sampled tuples (exact quantiles over the sample).
#[derive(Clone, Debug)]
pub struct OpLatency {
    /// Operator name.
    pub site: String,
    /// Executor partition (domain index), or [`NO_PARTITION`].
    pub partition: u32,
    /// Number of measured processing spans.
    pub processed: u64,
    /// `[p50, p95, p99]` processing time in nanoseconds.
    pub processing_ns: [u64; 3],
    /// Number of measured queue waits attributed to this operator.
    pub queue_waits: u64,
    /// `[p50, p95, p99]` queue-wait time in nanoseconds.
    pub queue_wait_ns: [u64; 3],
}

fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Reassembles raw spans into per-(operator, partition) latency
/// attribution: how long sampled tuples waited in the operator's inbound
/// queue versus how long the operator spent processing them.
///
/// A queue wait is attributed to the operator whose processing span
/// immediately follows the dequeue in the tuple's hop chain — i.e. the
/// consumer that the paper's cost model charges the wait to. Tuples that
/// stay inside one partition (direct interoperability) have processing
/// spans but no queue waits, which is exactly the effect queue placement
/// is supposed to have.
pub fn latency_breakdown(spans: &[SpanEvent]) -> Vec<OpLatency> {
    #[derive(Default)]
    struct Agg {
        waits: Vec<u64>,
        procs: Vec<u64>,
    }
    let mut by_trace: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut agg: BTreeMap<(String, u32), Agg> = BTreeMap::new();
    for hops in by_trace.values_mut() {
        hops.sort_by_key(|s| (s.t_ns, s.seq));
        let mut enters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut pending_wait: Option<u64> = None;
        let mut open: Option<(&SpanEvent, Option<u64>)> = None;
        for h in hops.iter() {
            match h.kind {
                HopKind::QueueEnter => {
                    enters.insert(&h.site, h.t_ns);
                }
                HopKind::QueueExit => {
                    if let Some(t0) = enters.remove(&*h.site) {
                        pending_wait = Some(h.t_ns.saturating_sub(t0));
                    }
                }
                HopKind::ProcessStart => {
                    open = Some((h, pending_wait.take()));
                }
                HopKind::ProcessEnd => {
                    if let Some((start, wait)) = open.take() {
                        if start.site == h.site {
                            let e = agg.entry((h.site.to_string(), h.partition)).or_default();
                            e.procs.push(h.t_ns.saturating_sub(start.t_ns));
                            if let Some(w) = wait {
                                e.waits.push(w);
                            }
                        }
                    }
                }
                // Network transit is attributed on the merged timeline,
                // not to any single operator's queue/processing split.
                HopKind::NetSend | HopKind::NetRecv => {}
            }
        }
    }
    agg.into_iter()
        .map(|((site, partition), mut a)| {
            a.waits.sort_unstable();
            a.procs.sort_unstable();
            OpLatency {
                site,
                partition,
                processed: a.procs.len() as u64,
                processing_ns: [
                    exact_percentile(&a.procs, 0.50),
                    exact_percentile(&a.procs, 0.95),
                    exact_percentile(&a.procs, 0.99),
                ],
                queue_waits: a.waits.len() as u64,
                queue_wait_ns: [
                    exact_percentile(&a.waits, 0.50),
                    exact_percentile(&a.waits, 0.95),
                    exact_percentile(&a.waits, 0.99),
                ],
            }
        })
        .collect()
}

/// Renders a latency breakdown as CSV (one row per operator × partition).
pub fn latency_breakdown_csv(rows: &[OpLatency]) -> String {
    let mut out = String::from(
        "operator,partition,processed,proc_p50_ns,proc_p95_ns,proc_p99_ns,\
         queue_waits,wait_p50_ns,wait_p95_ns,wait_p99_ns\n",
    );
    for r in rows {
        let partition =
            if r.partition == NO_PARTITION { "-".to_string() } else { r.partition.to_string() };
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            r.site,
            partition,
            r.processed,
            r.processing_ns[0],
            r.processing_ns[1],
            r.processing_ns[2],
            r.queue_waits,
            r.queue_wait_ns[0],
            r.queue_wait_ns[1],
            r.queue_wait_ns[2],
        ));
    }
    out
}

/// Paths produced by [`write_trace_files`].
#[derive(Debug, Clone)]
pub struct TracePaths {
    /// Chrome/Perfetto `trace_event` JSON (open in ui.perfetto.dev).
    pub trace_json: PathBuf,
    /// Per-operator queue-wait vs processing breakdown CSV.
    pub breakdown_csv: PathBuf,
}

/// Writes `trace.json` (Chrome/Perfetto timeline) and
/// `latency_breakdown.csv` under `dir` (created if missing).
pub fn write_trace_files(
    dir: &Path,
    spans: &[SpanEvent],
    journal: &[EventRecord],
) -> io::Result<TracePaths> {
    std::fs::create_dir_all(dir)?;
    let paths = TracePaths {
        trace_json: dir.join("trace.json"),
        breakdown_csv: dir.join("latency_breakdown.csv"),
    };
    std::fs::write(&paths.trace_json, chrome_trace_json(spans, journal))?;
    std::fs::write(&paths.breakdown_csv, latency_breakdown_csv(&latency_breakdown(spans)))?;
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::trace_id;
    use std::time::Duration;

    #[test]
    fn prometheus_counters_gauges_histograms() {
        let snapshot = vec![
            ("queue.src->map.enqueued".to_string(), MetricValue::Counter(10)),
            ("sched/occupancy".to_string(), MetricValue::Gauge(-3)),
            ("op_latency_ns".to_string(), MetricValue::Histogram(3, 300, vec![(64, 1), (128, 3)])),
        ];
        let text = prometheus_text(&snapshot);
        assert!(text.contains("queue_src__map_enqueued_total 10"));
        assert!(text.contains("# TYPE sched_occupancy gauge"));
        assert!(text.contains("sched_occupancy -3"));
        assert!(text.contains("op_latency_ns_bucket{le=\"64\"} 1"));
        assert!(text.contains("op_latency_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("op_latency_ns_sum 300"));
        assert!(text.contains("op_latency_ns_count 3"));
        // Quantile gauges: rank walk over (64,1),(128,3) with count 3 —
        // p50 rank 2 -> 128, p95/p99 rank 3 -> 128.
        assert!(text.contains("# TYPE op_latency_ns_quantile gauge"));
        assert!(text.contains("op_latency_ns_quantile{quantile=\"0.5\"} 128"));
        assert!(text.contains("op_latency_ns_quantile{quantile=\"0.95\"} 128"));
        assert!(text.contains("op_latency_ns_quantile{quantile=\"0.99\"} 128"));
    }

    fn span(
        seq: u64,
        trace_id: u64,
        kind: HopKind,
        site: &str,
        partition: u32,
        thread: u64,
        t_ns: u64,
    ) -> SpanEvent {
        SpanEvent { seq, trace_id, kind, site: site.into(), partition, thread, t_ns }
    }

    /// One tuple through: queue q (1000 ns wait), op f (500 ns), then
    /// queue r (2000 ns wait) into op g (100 ns) on another partition.
    fn two_hop_spans() -> Vec<SpanEvent> {
        vec![
            span(0, 7, HopKind::QueueEnter, "q", NO_PARTITION, 1, 1_000),
            span(1, 7, HopKind::QueueExit, "q", 0, 2, 2_000),
            span(2, 7, HopKind::ProcessStart, "f", 0, 2, 2_100),
            span(3, 7, HopKind::ProcessEnd, "f", 0, 2, 2_600),
            span(4, 7, HopKind::QueueEnter, "r", 0, 2, 2_700),
            span(5, 7, HopKind::QueueExit, "r", 1, 3, 4_700),
            span(6, 7, HopKind::ProcessStart, "g", 1, 3, 4_800),
            span(7, 7, HopKind::ProcessEnd, "g", 1, 3, 4_900),
        ]
    }

    #[test]
    fn chrome_trace_pairs_spans_and_merges_journal() {
        let journal = vec![
            EventRecord {
                seq: 0,
                thread: 2,
                elapsed_ns: 1_500,
                event: SchedEvent::Dispatch { domain: 0, worker: 0, priority: 3 },
            },
            EventRecord {
                seq: 1,
                thread: 2,
                elapsed_ns: 3_000,
                event: SchedEvent::Yield { domain: 0, outcome: "budget" },
            },
            EventRecord {
                seq: 2,
                thread: 4,
                elapsed_ns: 3_500,
                event: SchedEvent::ModeSwitch { from: "gts".into(), to: "hmts".into() },
            },
        ];
        let json = chrome_trace_json(&two_hop_spans(), &journal);
        // Tuple processing spans became complete events with µs timestamps.
        assert!(json.contains(
            "{\"name\":\"f\",\"cat\":\"tuple\",\"ph\":\"X\",\"ts\":2.1,\"pid\":1,\"tid\":2,\"dur\":0.5"
        ));
        // Queue residency became async begin/end keyed by trace id.
        assert!(
            json.contains("\"cat\":\"queue\",\"ph\":\"b\",\"ts\":1,\"pid\":1,\"tid\":1,\"id\":7")
        );
        assert!(
            json.contains("\"cat\":\"queue\",\"ph\":\"e\",\"ts\":2,\"pid\":1,\"tid\":2,\"id\":7")
        );
        // Dispatch/yield paired into an executor slice on thread 2.
        assert!(json.contains(
            "{\"name\":\"run d0\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":1.5,\"pid\":1,\"tid\":2,\"dur\":1.5"
        ));
        // Mode switch is an instant named by kind and field values; threads
        // are named.
        assert!(json.contains("\"name\":\"mode-switch gts hmts\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        // And the whole thing parses as one JSON document.
        let doc = crate::json::parse(&json).expect("exporter emits valid JSON");
        assert!(!doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn latency_breakdown_attributes_waits_to_consumers() {
        let rows = latency_breakdown(&two_hop_spans());
        assert_eq!(rows.len(), 2);
        let f = rows.iter().find(|r| r.site == "f").unwrap();
        assert_eq!(f.partition, 0);
        assert_eq!(f.processed, 1);
        assert_eq!(f.processing_ns, [500, 500, 500]);
        assert_eq!(f.queue_waits, 1);
        assert_eq!(f.queue_wait_ns, [1_000, 1_000, 1_000]);
        let g = rows.iter().find(|r| r.site == "g").unwrap();
        assert_eq!(g.partition, 1);
        assert_eq!(g.processing_ns[0], 100);
        assert_eq!(g.queue_wait_ns[0], 2_000);

        let csv = latency_breakdown_csv(&rows);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "operator,partition,processed,proc_p50_ns,proc_p95_ns,proc_p99_ns,\
             queue_waits,wait_p50_ns,wait_p95_ns,wait_p99_ns"
        );
        assert!(csv.contains("f,0,1,500,500,500,1,1000,1000,1000"));
        assert!(csv.contains("g,1,1,100,100,100,1,2000,2000,2000"));
    }

    #[test]
    fn breakdown_without_queue_hops_has_no_waits() {
        let spans = vec![
            span(0, 9, HopKind::ProcessStart, "inline", 0, 1, 100),
            span(1, 9, HopKind::ProcessEnd, "inline", 0, 1, 300),
        ];
        let rows = latency_breakdown(&spans);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].processed, 1);
        assert_eq!(rows[0].queue_waits, 0);
        assert_eq!(rows[0].queue_wait_ns, [0, 0, 0]);
    }

    #[test]
    fn exact_percentile_picks_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_percentile(&v, 0.50), 51);
        assert_eq!(exact_percentile(&v, 0.95), 95);
        assert_eq!(exact_percentile(&v, 0.99), 99);
        assert_eq!(exact_percentile(&v, 1.0), 100);
        assert_eq!(exact_percentile(&[], 0.5), 0);
    }

    #[test]
    fn json_escapes_and_structures_events() {
        let records = vec![EventRecord {
            seq: 0,
            thread: 1,
            elapsed_ns: 99,
            event: SchedEvent::ModeSwitch { from: "gts \"g\"".into(), to: "hmts".into() },
        }];
        let json = events_json(&records);
        assert!(json.starts_with('['));
        assert!(json.contains("\"kind\":\"mode-switch\""));
        assert!(json.contains("\\\"g\\\""));
        assert!(json.trim_end().ends_with(']'));
    }

    /// Strict line validator for the Prometheus text exposition format.
    /// Every line must be a `# HELP`, a `# TYPE` (with a known type), or a
    /// sample `name{labels} value` where the name matches
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*`, label values are double-quoted with
    /// only legal escapes, and the value parses as f64. Additionally every
    /// sample must be preceded by a TYPE announcement for its family.
    fn validate_exposition(text: &str) {
        fn valid_name(s: &str) -> bool {
            !s.is_empty()
                && s.chars().next().map(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                    == Some(true)
                && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        let mut typed: Vec<String> = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let err = |msg: &str| -> ! { panic!("line {}: {msg}: {line:?}", ln + 1) };
            if let Some(rest) = line.strip_prefix("# ") {
                let (keyword, rest) = rest.split_once(' ').unwrap_or_else(|| err("bare comment"));
                let (name, detail) = rest.split_once(' ').unwrap_or((rest, ""));
                if !valid_name(name) {
                    err("bad metric name in comment");
                }
                match keyword {
                    "HELP" => {
                        // Help text: `\` only as `\\` or `\n`, no raw newlines
                        // (lines() already split those away — check escapes).
                        let mut chars = detail.chars();
                        while let Some(c) = chars.next() {
                            if c == '\\' && !matches!(chars.next(), Some('\\') | Some('n')) {
                                err("bad escape in HELP text");
                            }
                        }
                    }
                    "TYPE" => {
                        if !matches!(detail, "counter" | "gauge" | "histogram" | "summary") {
                            err("unknown TYPE");
                        }
                        typed.push(name.to_string());
                    }
                    _ => err("unknown comment keyword"),
                }
                continue;
            }
            // Sample line: name[{labels}] value
            let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| err("no value"));
            value.parse::<f64>().unwrap_or_else(|_| err("value is not a number"));
            let name = if let Some((name, labels)) = series.split_once('{') {
                let labels = labels.strip_suffix('}').unwrap_or_else(|| err("unclosed labels"));
                for pair in labels.split(',') {
                    let (k, v) = pair.split_once('=').unwrap_or_else(|| err("label without ="));
                    if !valid_name(k) {
                        err("bad label name");
                    }
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .unwrap_or_else(|| err("unquoted label value"));
                    let mut chars = v.chars();
                    while let Some(c) = chars.next() {
                        match c {
                            '\\' if !matches!(chars.next(), Some('\\' | '"' | 'n')) => {
                                err("bad escape in label value")
                            }
                            '"' | '\n' => err("unescaped quote/newline in label value"),
                            _ => {}
                        }
                    }
                }
                name
            } else {
                series
            };
            if !valid_name(name) {
                err("bad metric name");
            }
            // The family (name minus canonical suffixes) must be typed.
            let family_known = typed.iter().any(|t| {
                name == t
                    || (name
                        .strip_prefix(t.as_str())
                        .is_some_and(|suffix| matches!(suffix, "_bucket" | "_sum" | "_count")))
            });
            if !family_known {
                err("sample without preceding # TYPE");
            }
        }
    }

    #[test]
    fn exposition_is_strictly_well_formed_with_help_and_escaping() {
        // A "real" scrape: names with the full zoo of characters the
        // registry actually produces (queue edges, slashes, dots).
        let snapshot = vec![
            ("queue.src->map.enqueued".to_string(), MetricValue::Counter(10)),
            ("sched/occupancy".to_string(), MetricValue::Gauge(-3)),
            ("weird\"name\\with\nstuff".to_string(), MetricValue::Gauge(1)),
            (
                "op.fig9:filter.latency_ns".to_string(),
                MetricValue::Histogram(3, 300, vec![(64, 1), (128, 3)]),
            ),
        ];
        let text = prometheus_text(&snapshot);
        validate_exposition(&text);
        // HELP precedes TYPE precedes samples, and quotes the raw name.
        let help_idx = text.find("# HELP queue_src__map_enqueued_total").unwrap();
        let type_idx = text.find("# TYPE queue_src__map_enqueued_total counter").unwrap();
        let sample_idx = text.find("queue_src__map_enqueued_total 10").unwrap();
        assert!(help_idx < type_idx && type_idx < sample_idx);
        assert!(text.contains("queue.src->map.enqueued"), "HELP keeps the raw registry name");
        // The hostile raw name is escaped in HELP, sanitised in the name.
        assert!(text.contains("weird\"name\\\\with\\nstuff"));
        assert!(text.contains("weird_name_with_stuff 1"));
    }

    #[test]
    fn label_value_escaping_covers_quotes_backslashes_newlines() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn spans_json_round_trips_through_the_strict_parser() {
        let spans = vec![
            span(0, 7, HopKind::NetSend, "netgen:q", NO_PARTITION, 1, 1_000),
            span(1, 7, HopKind::NetRecv, "ingest:q", NO_PARTITION, 2, 1_500),
            span(2, 7, HopKind::ProcessStart, "op \"x\"", 3, 2, 2_000),
            span(3, 7, HopKind::ProcessEnd, "op \"x\"", 3, 2, 2_500),
            // Ids past 2^53 — any source index ≥ 8191, or whatever a remote
            // client put on the wire — must come back bit for bit, not
            // rounded to the nearest `f64`.
            span(4, trace_id(8192, 5), HopKind::NetRecv, "ingest:q", 0, 2, 3_000),
            span(5, trace_id(u32::MAX, (1 << 40) - 1), HopKind::NetRecv, "ingest:q", 0, 2, 3_000),
            span(6, u64::MAX - 1, HopKind::NetRecv, "ingest:q", 0, 2, u64::MAX),
        ];
        let text = spans_json("netgen", &spans);
        let (process, parsed) = parse_spans_json(&text).expect("round trip");
        assert_eq!(process, "netgen");
        assert_eq!(parsed.len(), spans.len());
        for (a, b) in spans.iter().zip(&parsed) {
            assert_eq!((a.seq, a.trace_id, a.kind), (b.seq, b.trace_id, b.kind));
            assert_eq!(
                (&*a.site, a.partition, a.thread, a.t_ns),
                (&*b.site, b.partition, b.thread, b.t_ns)
            );
        }
        // Corruption yields errors, not panics.
        assert!(parse_spans_json("{\"process\": \"x\"}").is_err());
        assert!(parse_spans_json("{\"process\": \"x\", \"spans\": [{}]}").is_err());
        assert!(parse_spans_json(
            "{\"process\": \"x\", \"spans\": [{\"seq\": 0, \"trace_id\": 1, \
             \"kind\": \"warp\", \"site\": \"s\", \"partition\": 0, \"thread\": 0, \"t_ns\": 0}]}"
        )
        .is_err());
    }

    #[test]
    fn multi_process_trace_stitches_net_hops_across_pids() {
        // Client process: send hop only.
        let client = vec![span(0, 7, HopKind::NetSend, "netgen:q", NO_PARTITION, 1, 1_000)];
        // Server process: recv hop, then a processing span.
        let server = vec![
            span(0, 7, HopKind::NetRecv, "ingest:q", NO_PARTITION, 9, 1_400),
            span(1, 7, HopKind::ProcessStart, "f", 0, 9, 2_000),
            span(2, 7, HopKind::ProcessEnd, "f", 0, 9, 2_300),
        ];
        let json = chrome_trace_json_multi(&[
            ProcessTrace { pid: 1, name: "netgen", spans: &client, journal: &[] },
            ProcessTrace { pid: 2, name: "serve", spans: &server, journal: &[] },
        ]);
        // Async net span opens in pid 1 and closes in pid 2 with one id.
        assert!(json.contains(
            "{\"name\":\"net\",\"cat\":\"net\",\"ph\":\"b\",\"ts\":1,\"pid\":1,\"tid\":1,\"id\":7"
        ));
        assert!(json.contains(
            "{\"name\":\"net\",\"cat\":\"net\",\"ph\":\"e\",\"ts\":1.4,\"pid\":2,\"tid\":9,\"id\":7"
        ));
        // Both processes are named and the tuple span lands under pid 2.
        assert!(json.contains("\"args\":{\"name\":\"netgen\"}"));
        assert!(json.contains("\"args\":{\"name\":\"serve\"}"));
        assert!(json.contains(
            "{\"name\":\"f\",\"cat\":\"tuple\",\"ph\":\"X\",\"ts\":2,\"pid\":2,\"tid\":9,\"dur\":0.3"
        ));
        let doc = crate::json::parse(&json).expect("valid JSON");
        assert!(!doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn csv_unions_columns_across_samples() {
        let series = vec![
            SamplePoint {
                elapsed: Duration::from_millis(1),
                metrics: vec![("a".into(), MetricValue::Counter(1))],
            },
            SamplePoint {
                elapsed: Duration::from_millis(2),
                metrics: vec![
                    ("a".into(), MetricValue::Counter(2)),
                    ("b".into(), MetricValue::Gauge(5)),
                ],
            },
        ];
        let csv = series_csv(&series);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "elapsed_ms,a,b");
        assert_eq!(lines.next().unwrap(), "1.000,1,");
        assert_eq!(lines.next().unwrap(), "2.000,2,5");
    }
}
