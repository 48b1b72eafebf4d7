//! Admission timing: a connection is served the moment it arrives, a
//! server stops at once, and one silent client holds up no subscriber.
//!
//! The bound, 3 ms, is far above what blocking admission takes on
//! loopback (tenths of a millisecond) and below what waiting out a 5 ms
//! accept poll takes (4–6 ms). Each test takes the median of nine tries: a
//! few descheduled tries cannot fail it, and a few that land at the end of
//! a poll interval cannot pass it. The tests run one at a time, so that
//! others spawning servers on a small host do not delay a timed try.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use hmts::obs::Obs;
use hmts_net::wire::hello;
use hmts_net::{
    EgressServer, Frame, FrameReader, FrameWriter, IngestConfig, IngestServer, SlowConsumerPolicy,
    StreamSpec, SubscriberClient,
};

const TRIES: usize = 9;

/// What the median try must beat.
const BOUND: Duration = Duration::from_millis(3);

/// How long a server is left alone before a timed try: long enough for an
/// accept thread to be back where it waits for the next connection.
const IDLE: Duration = Duration::from_millis(1);

/// Held by each test for its whole run.
fn alone() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The median of `TRIES` timings.
fn median(mut time: impl FnMut() -> Duration) -> Duration {
    let mut times: Vec<Duration> = (0..TRIES).map(|_| time()).collect();
    times.sort_unstable();
    times[TRIES / 2]
}

fn ingest(bind: &str) -> IngestServer {
    IngestServer::bind(
        bind,
        vec![StreamSpec::new("a").with_producers(TRIES)],
        IngestConfig::default(),
    )
    .unwrap()
}

fn egress(bind: &str) -> EgressServer {
    EgressServer::bind(bind, SlowConsumerPolicy::Block, Obs::disabled()).unwrap()
}

/// Loopback at `server`'s port, whatever address it is bound to.
fn loopback(server: SocketAddr) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], server.port()))
}

/// Opens a producer connection to `addr` and returns it once its `Ping`
/// has been answered, with the time from the connect to the `Pong`.
fn ping(addr: SocketAddr) -> (TcpStream, Duration) {
    let started = Instant::now();
    let socket = TcpStream::connect(addr).unwrap();
    socket.set_nodelay(true).unwrap();
    let mut writer = FrameWriter::new(socket.try_clone().unwrap());
    writer.write_frame(&hello("a")).unwrap();
    writer.write_frame(&Frame::Ping { nonce: 7 }).unwrap();
    writer.flush().unwrap();
    let pong = FrameReader::new(socket.try_clone().unwrap()).read_frame().unwrap();
    assert_eq!(pong, Some(Frame::Pong { nonce: 7 }));
    (socket, started.elapsed())
}

/// How long `stop` takes, run after [`IDLE`].
fn time_stop(stop: impl FnOnce()) -> Duration {
    std::thread::sleep(IDLE);
    let started = Instant::now();
    stop();
    started.elapsed()
}

#[test]
fn an_idle_ingest_server_answers_a_fresh_connection_at_once() {
    let _alone = alone();
    let server = ingest("127.0.0.1:0");
    let rtt = median(|| {
        std::thread::sleep(IDLE);
        ping(server.local_addr()).1
    });
    assert!(rtt < BOUND, "median first pong of {TRIES}: {rtt:?}");
}

#[test]
fn an_ingest_server_with_an_open_connection_stops_at_once() {
    let _alone = alone();
    let stop = |by_drop: bool| {
        let server = ingest("0.0.0.0:0");
        let (_open, _) = ping(loopback(server.local_addr()));
        time_stop(|| if by_drop { drop(server) } else { server.shutdown() })
    };
    let shutdown = median(|| stop(false));
    let dropped = median(|| stop(true));
    assert!(shutdown < BOUND, "median shutdown of {TRIES}: {shutdown:?}");
    assert!(dropped < BOUND, "median drop of {TRIES}: {dropped:?}");
}

#[test]
fn an_egress_server_with_a_subscriber_stops_at_once() {
    let _alone = alone();
    let stop = |by_drop: bool| {
        let server = egress("0.0.0.0:0");
        let _subscriber = SubscriberClient::connect(loopback(server.local_addr()), "r").unwrap();
        // Not `wait_for_subscribers`: its own wait is another test's.
        while server.subscriber_count() == 0 {
            std::thread::yield_now();
        }
        time_stop(|| if by_drop { drop(server) } else { server.shutdown() })
    };
    let shutdown = median(|| stop(false));
    let dropped = median(|| stop(true));
    assert!(shutdown < BOUND, "median shutdown of {TRIES}: {shutdown:?}");
    assert!(dropped < BOUND, "median drop of {TRIES}: {dropped:?}");
}

#[test]
fn waiting_for_subscribers_returns_when_one_is_admitted() {
    let _alone = alone();
    let waited = median(|| {
        let server = egress("127.0.0.1:0");
        let addr = server.local_addr();
        let subscriber = std::thread::spawn(move || {
            let started = Instant::now();
            (SubscriberClient::connect(addr, "r").unwrap(), started)
        });
        assert!(server.wait_for_subscribers(1, Duration::from_secs(5)));
        let admitted = Instant::now();
        let (_subscriber, started) = subscriber.join().unwrap();
        admitted - started
    });
    assert!(waited < BOUND, "median of {TRIES}: {waited:?}");
}

#[test]
fn a_silent_client_does_not_hold_up_a_subscriber() {
    let _alone = alone();
    let server = egress("127.0.0.1:0");
    let _silent = TcpStream::connect(server.local_addr()).unwrap();
    let _subscriber = SubscriberClient::connect(server.local_addr(), "r").unwrap();
    assert!(server.wait_for_subscribers(1, Duration::from_millis(500)));
    assert_eq!(server.subscriber_count(), 1);
}
