//! Micro-benchmark: the wire codec per frame, frame by frame against run by
//! run, on the perf ledger's frame shape (an untraced `(int, int)` tuple,
//! 33 bytes on the wire).
//!
//! * `decode_frame_64k` — `decode_frame` + `into_message` over 64 KiB of
//!   frames, one frame at a time: the per-frame API, and what the ledger's
//!   `net.wire.decode_ns` probe calls.
//! * `take_data_64k` — the same frames through a `FrameReader`: one
//!   `read_frame` (which reads the whole 64 KiB from the stream and takes
//!   the first frame), then one `take_data` for the rest — the ingest
//!   server's and the subscriber's path per socket read, copy included.
//! * `build_only_64k` — the same elements built from values at hand and
//!   dropped: the allocation and drop every decoder pays, no decoding.
//! * `encode_data_run32` / `encode_frame_run32` — a run of 32 elements
//!   encoded straight from the elements, against a `Frame` built per
//!   element (tuple `Arc` cloned) and `encode_frame`d.
//! * `egress_1024_end_each_run32` / `egress_1024_end_once` — an
//!   `EgressSink` with one loopback subscriber, drained on a thread, fed 32
//!   runs of 32 elements: the sink told the slice ended after every run (a
//!   source-driven domain, one `inject_batch` per run) against once after
//!   the last (a pool slice that popped all 32). The difference is the
//!   `write` and the subscriber's wake-up per run.
//!
//! The `elem/s` column is frames per second; the time per frame is the
//! iteration's time over its frame count (printed with each case). Run
//! with `cargo bench -p hmts-net --bench micro_wire`.

use std::hint::black_box;
use std::io::{self, Read};
use std::net::TcpStream;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use hmts::obs::Obs;
use hmts::operators::traits::{Operator, Output};
use hmts::streams::element::{Element, TraceTag};
use hmts::streams::time::Timestamp;
use hmts::streams::tuple::Tuple;
use hmts::streams::value::Value;
use hmts_net::wire::{
    decode_frame, encode_data, encode_frame, hello, Frame, FrameReader, FrameWriter, READ_BUF,
};
use hmts_net::{EgressServer, SlowConsumerPolicy};

/// The `i`-th element of the ledger's shape.
fn element(i: u64) -> Element {
    Element::new(
        Tuple::pair((i % 1000) as i64, (i * 7919 % 100_003) as i64),
        Timestamp::from_micros(i),
    )
}

/// As many whole frames as fit in one read buffer.
fn frames_64k() -> (Vec<u8>, u64) {
    let mut bytes = Vec::with_capacity(READ_BUF);
    let mut frames = 0;
    for i in 0.. {
        let mut one = Vec::new();
        let e = element(i);
        encode_data(e.ts, &e.tuple, TraceTag::NONE, &mut one);
        if bytes.len() + one.len() > READ_BUF {
            break;
        }
        bytes.extend_from_slice(&one);
        frames += 1;
    }
    (bytes, frames)
}

/// A stream that hands out `bytes` over and over, one whole copy per read.
struct Repeat<'a> {
    bytes: &'a [u8],
}

impl Read for Repeat<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.bytes.len().min(buf.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        Ok(n)
    }
}

fn decode(c: &mut Criterion) {
    let (bytes, frames) = frames_64k();
    println!("decode: {frames} frames of {} bytes per iteration", bytes.len() / frames as usize);
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Elements(frames));

    g.bench_function("decode_frame_64k", |b| {
        b.iter(|| {
            let mut pos = 0;
            while pos < bytes.len() {
                let (frame, n) = decode_frame(black_box(&bytes[pos..])).unwrap();
                black_box(frame.into_message());
                pos += n;
            }
        })
    });

    let mut reader = FrameReader::new(Repeat { bytes: &bytes });
    let mut run: Vec<Element> = Vec::with_capacity(frames as usize);
    g.bench_function("take_data_64k", |b| {
        b.iter(|| {
            let first = reader.read_frame().unwrap().unwrap().into_message();
            black_box(first);
            assert_eq!(reader.take_data(&mut run), Ok(frames as usize - 1));
            black_box(&run);
            run.clear();
        })
    });
    g.bench_function("build_only_64k", |b| {
        b.iter(|| {
            for i in 0..frames as i64 {
                let t = Tuple::new((0..2).map(|j| Value::Int(black_box(i + j))));
                run.push(Element::new(t, Timestamp::from_micros(i as u64)));
            }
            black_box(&run);
            run.clear();
        })
    });
    g.finish();
}

fn encode(c: &mut Criterion) {
    const RUN: usize = 32;
    let run: Vec<Element> = (0..RUN as u64).map(element).collect();
    let mut buf = Vec::with_capacity(RUN * 64);
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Elements(RUN as u64));

    g.bench_function("encode_data_run32", |b| {
        b.iter(|| {
            buf.clear();
            for e in black_box(&run) {
                encode_data(e.ts, &e.tuple, e.trace, &mut buf);
            }
            black_box(buf.len())
        })
    });
    g.bench_function("encode_frame_run32", |b| {
        b.iter(|| {
            buf.clear();
            for e in black_box(&run) {
                let frame = Frame::Data { ts: e.ts, tuple: e.tuple.clone(), trace: e.trace };
                encode_frame(&frame, &mut buf);
            }
            black_box(buf.len())
        })
    });
    g.finish();
}

fn egress(c: &mut Criterion) {
    const RUN: usize = 32;
    const RUNS: usize = 32;
    let server =
        EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, Obs::disabled()).unwrap();
    let mut socket = TcpStream::connect(server.local_addr()).unwrap();
    FrameWriter::new(socket.try_clone().unwrap()).write_frame(&hello("results")).unwrap();
    assert!(server.wait_for_subscribers(1, Duration::from_secs(5)));
    // The subscriber reads what arrives and throws it away.
    let drain = std::thread::spawn(move || {
        let mut chunk = vec![0u8; READ_BUF];
        while let Ok(1..) = socket.read(&mut chunk) {}
    });
    let mut sink = server.sink("egress");
    // Seen once, the call lets the sink hold frames back until the next.
    sink.end_slice();
    let pool: Vec<Element> = (0..RUN as u64).map(element).collect();
    let mut run: Vec<Element> = Vec::with_capacity(RUN);
    let mut out = Output::new();
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Elements((RUN * RUNS) as u64));

    for (name, end_each_run) in
        [("egress_1024_end_each_run32", true), ("egress_1024_end_once", false)]
    {
        g.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..RUNS {
                    run.extend(pool.iter().cloned());
                    sink.process_batch(0, &mut run, &mut out).unwrap();
                    if end_each_run {
                        sink.end_slice();
                    }
                }
                sink.end_slice();
            })
        });
    }
    g.finish();
    sink.flush(&mut out).unwrap();
    drop(sink);
    drop(server); // closes the subscriber's socket
    drain.join().unwrap();
}

criterion_group!(benches, decode, encode, egress);
criterion_main!(benches);
