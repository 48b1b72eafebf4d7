//! The acceptor both servers admit connections with: a blocking `accept`
//! on a thread of its own, so a connection is handed over the moment it
//! arrives, and a stop that wakes that `accept` with a connection of its
//! own instead of waiting for a poll interval to run out.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

/// How long the accept thread rests after an `accept` failed twice in a
/// row: a listener out of file descriptors fails every call at once, and
/// must not spin a CPU. A stop cuts the rest short.
const BACKOFF: Duration = Duration::from_millis(10);

/// A listener's accept thread. Stopped (and joined) by [`Acceptor::stop`]
/// or on drop.
pub(crate) struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Acceptor {
    /// Accepts on `listener` on a thread called `name`, handing each
    /// connection to `admit` on that thread; `admit` must not block.
    pub(crate) fn spawn(
        listener: TcpListener,
        name: &str,
        admit: impl FnMut(TcpStream, SocketAddr) + Send + 'static,
    ) -> io::Result<Acceptor> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || accept_until(|| listener.accept(), &flag, admit))?;
        Ok(Acceptor { addr, stop, thread: Mutex::new(Some(thread)) })
    }

    /// The address the listener is bound to.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread. Idempotent.
    pub(crate) fn stop(&self) {
        // Held to the end, so that a second caller returns only once the
        // thread is gone.
        let mut slot = self.thread.lock();
        let Some(thread) = slot.take() else { return };
        self.stop.store(true, Ordering::Release);
        // Wake a backoff rest, and a blocked `accept` with a connection of
        // our own: the thread sees the flag before it admits anything.
        thread.thread().unpark();
        let _ = TcpStream::connect(wake_addr(self.addr));
        let _ = thread.join();
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Where a connection reaches a listener bound to `addr`: an unspecified
/// address (`0.0.0.0`, `::`) is reached on loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, addr.port()).into(),
        IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, addr.port()).into(),
        _ => addr,
    }
}

/// Admits what `accept` returns until `stop` is set. An error does not end
/// admission: the next call may succeed (a client that gave up before its
/// connection was taken, a descriptor freed), and a second failure in a
/// row rests [`BACKOFF`] first.
fn accept_until(
    mut accept: impl FnMut() -> io::Result<(TcpStream, SocketAddr)>,
    stop: &AtomicBool,
    mut admit: impl FnMut(TcpStream, SocketAddr),
) {
    let mut failing = false;
    loop {
        let accepted = accept();
        if stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((socket, peer)) => {
                failing = false;
                admit(socket, peer);
            }
            Err(e) if !failing => {
                failing = true;
                eprintln!("net: accept failed: {e}");
            }
            Err(_) => std::thread::park_timeout(BACKOFF),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn an_unspecified_address_is_woken_on_loopback() {
        let v4: SocketAddr = "0.0.0.0:7171".parse().unwrap();
        let v6: SocketAddr = "[::]:7171".parse().unwrap();
        let bound: SocketAddr = "10.1.2.3:7171".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:7171".parse().unwrap());
        assert_eq!(wake_addr(v6), "[::1]:7171".parse().unwrap());
        assert_eq!(wake_addr(bound), bound);
    }

    #[test]
    fn accept_errors_do_not_end_admission() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let stop = AtomicBool::new(false);
        // Five failures, then the real connection, then the stop.
        let mut calls = 0;
        let accept = || {
            calls += 1;
            match calls {
                1..=5 => Err(io::ErrorKind::ConnectionAborted.into()),
                6 => listener.accept(),
                _ => {
                    stop.store(true, Ordering::Release);
                    Err(io::ErrorKind::Interrupted.into())
                }
            }
        };
        let mut admitted = Vec::new();
        let started = Instant::now();
        accept_until(accept, &stop, |_, peer| admitted.push(peer));
        assert_eq!(admitted, vec![client.local_addr().unwrap()]);
        // The first failure of each run retries at once, the four after it rest.
        assert!(started.elapsed() >= BACKOFF * 4, "{:?}", started.elapsed());
    }
}
