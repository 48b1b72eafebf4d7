//! Load-generator client for the HMTS ingest server.
//!
//! Replays a shaped traffic schedule (constant / Poisson / bursty, reusing
//! the workload crate's arrival processes) over the framed TCP protocol,
//! then reports the achieved rate and ping/pong RTT percentiles. Can also
//! subscribe to an egress server and count the query's results.
//!
//! ```text
//! netgen --addr 127.0.0.1:7071 --stream bursty --count 10000 \
//!        --rate bursty:1000x50000,2000x250 --subscribe 127.0.0.1:7072
//! ```
//!
//! With `--resume-send` the schedule is sent through the reconnecting
//! [`send_with_resume`] path instead: the client survives server restarts
//! (including a SIGKILL + `serve --recover` cycle) by re-handshaking and
//! replaying exactly the suffix the server has not durably seen — the
//! client side of `scripts/recovery.sh`.

use std::io::Write;
use std::process::exit;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hmts::obs::{export, Obs, ObsConfig, TraceConfig};
use hmts::streams::time::Timestamp;
use hmts::streams::tuple::Tuple;
use hmts::workload::arrival::ArrivalProcess;
use hmts::workload::values::TupleGen;
use hmts_net::{
    run_load, send_with_resume, LoadConfig, LoadMode, LoadTrace, ResumeConfig, SubscriberClient,
};

struct Args {
    addr: String,
    stream: String,
    count: u64,
    rate: String,
    mode: String,
    ping_every: u64,
    seed: u64,
    range: i64,
    subscribe: Option<String>,
    resume_send: bool,
    trace_every: u64,
    trace_source: u32,
    spans_out: Option<String>,
}

const USAGE: &str = "netgen [--addr HOST:PORT] [--stream NAME] [--count N] [--rate SPEC] \
[--mode open|closed:WINDOW] [--ping-every N] [--seed N] [--range N] [--subscribe HOST:PORT] \
[--resume-send]
  --rate SPEC   constant:RATE | poisson:RATE | bursty:COUNTxRATE,COUNTxRATE,...
  --mode        open (paced by --rate) or closed:W (W unacked tuples per ping barrier)
  --range N     tuple values drawn uniformly from [1, N]
  --subscribe   also subscribe to this egress address and count results
  --resume-send send through the reconnect/resume protocol (survives server
                restarts; paced per frame when --rate is constant:R)
  --trace-every sample every Nth tuple: stamp a wire trace tag and record
                the client's net-send hop (0 = off)
  --trace-source logical source id baked into generated trace ids
  --spans-out   write the client's trace spans to this file (spans.json
                format, mergeable with the server's export)";

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7071".into(),
        stream: "bursty".into(),
        count: 10_000,
        rate: "constant:10000".into(),
        mode: "open".into(),
        ping_every: 1_000,
        seed: 9,
        range: 10_000_000,
        subscribe: None,
        resume_send: false,
        trace_every: 0,
        trace_source: 63,
        spans_out: None,
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
            "--addr" => args.addr = val("--addr"),
            "--stream" => args.stream = val("--stream"),
            "--count" => args.count = val("--count").parse().expect("--count"),
            "--rate" => args.rate = val("--rate"),
            "--mode" => args.mode = val("--mode"),
            "--ping-every" => args.ping_every = val("--ping-every").parse().expect("--ping-every"),
            "--seed" => args.seed = val("--seed").parse().expect("--seed"),
            "--range" => args.range = val("--range").parse().expect("--range"),
            "--subscribe" => args.subscribe = Some(val("--subscribe")),
            "--resume-send" => args.resume_send = true,
            "--trace-every" => {
                args.trace_every = val("--trace-every").parse().expect("--trace-every")
            }
            "--trace-source" => {
                args.trace_source = val("--trace-source").parse().expect("--trace-source")
            }
            "--spans-out" => args.spans_out = Some(val("--spans-out")),
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

fn parse_mode(spec: &str) -> LoadMode {
    if spec == "open" {
        return LoadMode::Open;
    }
    if let Some(("closed", w)) = spec.split_once(':') {
        if let Ok(window) = w.parse::<u64>() {
            if window > 0 {
                return LoadMode::Closed { window };
            }
        }
    }
    eprintln!("bad --mode {spec:?}: want open or closed:WINDOW");
    exit(2);
}

/// Paces a resume-send connection by sleeping once per written frame.
struct Paced<W> {
    inner: W,
    gap: Duration,
}

impl<W: Write> Write for Paced<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::thread::sleep(self.gap);
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Sends the deterministic schedule through the reconnect/resume path.
fn resume_send(args: &Args) {
    let mut gen = TupleGen::uniform_int(1, args.range + 1);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let tuples: Vec<(Timestamp, Tuple)> =
        (0..args.count).map(|i| (Timestamp::from_micros(i), gen.generate(&mut rng))).collect();
    // `constant:R` paces each frame at 1/R; other shapes send unpaced.
    let gap = args
        .rate
        .strip_prefix("constant:")
        .and_then(|r| r.parse::<f64>().ok())
        .filter(|r| *r > 0.0)
        .map(|r| Duration::from_secs_f64(1.0 / r))
        .unwrap_or(Duration::ZERO);
    eprintln!(
        "netgen: resume-sending {} tuples to {} stream {:?} (frame gap {gap:?})",
        args.count, args.addr, args.stream
    );
    let addr: std::net::SocketAddr = args.addr.parse().unwrap_or_else(|e| {
        eprintln!("netgen: bad --addr {:?}: {e}", args.addr);
        exit(2);
    });
    let report =
        send_with_resume(addr, &args.stream, &tuples, &ResumeConfig::default(), move |sock| {
            if gap.is_zero() {
                Box::new(sock) as Box<dyn Write + Send>
            } else {
                Box::new(Paced { inner: sock, gap })
            }
        })
        .unwrap_or_else(|e| {
            eprintln!("netgen: resume send failed: {e}");
            exit(1);
        });
    println!(
        "resume-send: {} tuples over {} connection(s), resume points {:?}",
        args.count, report.connects, report.resume_points
    );
}

fn main() {
    let args = parse_args();

    // Subscribe before generating load so no result can be missed.
    let subscriber = args.subscribe.as_ref().map(|addr| {
        let client = SubscriberClient::connect(addr, &args.stream).unwrap_or_else(|e| {
            eprintln!("netgen: cannot subscribe to {addr}: {e}");
            exit(1);
        });
        std::thread::spawn(move || client.collect_all())
    });

    if args.resume_send {
        resume_send(&args);
    } else {
        let arrivals = ArrivalProcess::parse(&args.rate).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        });
        // Client-side tracing: an Obs handle whose tracer stamps wire
        // trace tags and records the netgen process's net-send hops.
        let trace_obs = (args.trace_every > 0).then(|| {
            Obs::with_config(ObsConfig {
                trace: Some(TraceConfig {
                    sample_every: args.trace_every,
                    ..TraceConfig::default()
                }),
                ..ObsConfig::default()
            })
        });
        let cfg = LoadConfig {
            stream: args.stream.clone(),
            arrivals,
            gen: TupleGen::uniform_int(1, args.range + 1),
            count: args.count,
            seed: args.seed,
            mode: parse_mode(&args.mode),
            ping_every: args.ping_every,
            trace: trace_obs
                .as_ref()
                .and_then(|o| o.tracer())
                .map(|tracer| LoadTrace { tracer, source: args.trace_source }),
            ts_offset: std::time::Duration::ZERO,
        };
        eprintln!(
            "netgen: sending {} tuples ({}, {}) to {} stream {:?}",
            args.count, args.rate, args.mode, args.addr, args.stream
        );
        let report = run_load(&args.addr, &cfg).unwrap_or_else(|e| {
            eprintln!("netgen: load run failed: {e}");
            exit(1);
        });
        println!(
            "sent {} tuples in {:.3}s  achieved {:.0} el/s",
            report.sent,
            report.elapsed.as_secs_f64(),
            report.achieved_rate
        );
        println!(
            "rtt over {} pings: p50 {:?}  p95 {:?}  p99 {:?}  max {:?}",
            report.rtt.samples, report.rtt.p50, report.rtt.p95, report.rtt.p99, report.rtt.max
        );
        if let (Some(obs), Some(path)) = (&trace_obs, &args.spans_out) {
            let spans = obs.trace_snapshot();
            std::fs::write(path, export::spans_json("netgen", &spans)).unwrap_or_else(|e| {
                eprintln!("netgen: cannot write {path}: {e}");
                exit(1);
            });
            eprintln!("netgen: wrote {} trace spans to {path}", spans.len());
        }
    }

    if let Some(handle) = subscriber {
        match handle.join() {
            Ok(Ok(messages)) => {
                let data = messages.iter().filter(|m| m.as_data().is_some()).count();
                println!("subscriber: received {data} result tuples, then end-of-stream");
            }
            Ok(Err(e)) => {
                eprintln!("netgen: subscriber failed: {e}");
                exit(1);
            }
            Err(payload) => {
                eprintln!(
                    "netgen: subscriber thread panicked: {}",
                    hmts::failure::panic_message(payload.as_ref())
                );
                exit(1);
            }
        }
    }
}
