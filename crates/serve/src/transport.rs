//! The connection seam the server speaks through, plus a deterministic
//! fault-injection wrapper — the network-side mirror of
//! [`blazr_util::vfs`]'s storage seam.
//!
//! The server performs a small, fixed set of transport operations:
//! accept a connection, read bytes, write bytes, set timeouts, close.
//! [`Listener`]/[`Conn`] name exactly that set, [`TcpTransport`] /
//! [`TcpConn`] implement it on `std::net`, [`MemTransport`] implements
//! it on in-process condvar pipes (so chaos tests run with no sockets
//! and no ports), and [`FaultyTransport`] wraps any listener with the
//! workspace's one fault script ([`blazr_util::fault::Script`]) over the
//! [`TransportOp`] classes: reset the Nth accept, tear a write after k
//! bytes (the prefix really reaches the peer — a client sees exactly
//! the truncated response a mid-flight reset leaves), cut a read short,
//! return EINTR-style transients that succeed on retry, or stall an
//! operation slow-loris style until it times out. Rules are keyed by
//! per-operation indices, so a chaos suite can sweep "break the Nth
//! read" across every boundary of an exchange exhaustively.

use blazr_util::fault::{Fault, Op, Script};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::OwnedFd;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One accepted connection. Reads and writes are plain byte-stream
/// operations; timeouts make every blocking call bounded so a stalled
/// peer can never wedge a worker.
pub trait Conn: Send {
    /// Reads into `buf`, returning the byte count (`0` = orderly EOF).
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Writes from `buf`, returning how many bytes were accepted.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;

    /// Bounds subsequent reads; `None` blocks indefinitely.
    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()>;

    /// Bounds subsequent writes; `None` blocks indefinitely.
    fn set_write_timeout(&mut self, d: Option<Duration>) -> io::Result<()>;

    /// Best-effort orderly close (flush and hang up both directions).
    fn close(&mut self);
}

/// The accepting side of the seam. `accept_timeout` returns `Ok(None)`
/// when no connection arrived within `wait`, so an acceptor thread can
/// recheck shutdown between attempts instead of blocking forever.
pub trait Listener: Send + Sync {
    /// Waits up to `wait` for one connection.
    fn accept_timeout(&self, wait: Duration) -> io::Result<Option<Box<dyn Conn>>>;

    /// Human-readable bound address (for logs and clients).
    fn local_addr(&self) -> String;
}

// ---------------------------------------------------------------------------
// TCP.

/// [`Listener`] over a blocking [`std::net::TcpListener`] — the
/// production transport. `accept_timeout` is one `accept()` bounded by
/// the listening socket's `SO_RCVTIMEO`, so a connection is handed over
/// the moment the kernel queues it, and an idle wait still ends after
/// `wait`. Linux honours `SO_RCVTIMEO` on `accept`; on a kernel that
/// ignores it, an idle accept blocks until the next connection.
///
/// Accepted sockets inherit the listener's `SO_RCVTIMEO`; the server
/// sets its own read/write timeouts before every I/O call, so the
/// inherited value never acts as a request deadline.
pub struct TcpTransport {
    inner: TcpListener,
    /// A second handle on the listening socket, used only to set its
    /// `SO_RCVTIMEO` (std exposes that setter on streams, not listeners).
    timeout_ctl: TcpStream,
    /// The accept timeout currently set on the socket.
    applied: Mutex<Option<Duration>>,
    addr: String,
}

impl TcpTransport {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let inner = TcpListener::bind(addr)?;
        let timeout_ctl = TcpStream::from(OwnedFd::from(inner.try_clone()?));
        let addr = inner
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        Ok(Self {
            inner,
            timeout_ctl,
            applied: Mutex::new(None),
            addr,
        })
    }
}

impl Listener for TcpTransport {
    fn accept_timeout(&self, wait: Duration) -> io::Result<Option<Box<dyn Conn>>> {
        // std rejects a zero timeout (it would mean "block forever").
        let wait = wait.max(Duration::from_micros(1));
        {
            let mut applied = self.applied.lock().expect("accept timeout poisoned");
            if *applied != Some(wait) {
                self.timeout_ctl.set_read_timeout(Some(wait))?;
                *applied = Some(wait);
            }
        }
        match self.inner.accept() {
            Ok((stream, _)) => Ok(Some(Box::new(TcpConn(stream)))),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

/// A [`Conn`] over a [`TcpStream`]. Also the client side: tests and the
/// ledger connect with [`TcpConn::connect`].
pub struct TcpConn(pub TcpStream);

impl TcpConn {
    /// Connects to a server (client side of the seam).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let s = TcpStream::connect(addr)?;
        let _ = s.set_nodelay(true);
        Ok(Self(s))
    }
}

impl Conn for TcpConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(&mut self.0, buf)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(&mut self.0, buf)
    }

    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.0.set_read_timeout(d)
    }

    fn set_write_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.0.set_write_timeout(d)
    }

    fn close(&mut self) {
        let _ = io::Write::flush(&mut self.0);
        let _ = self.0.shutdown(std::net::Shutdown::Both);
    }
}

// ---------------------------------------------------------------------------
// In-process transport (condvar pipes) — deterministic, portless.

/// One direction of a duplex in-memory connection.
#[derive(Default)]
struct PipeState {
    data: VecDeque<u8>,
    /// The writing end hung up: readers drain `data`, then see EOF;
    /// writers fail with `BrokenPipe`.
    closed: bool,
}

#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    cv: Condvar,
}

impl Pipe {
    fn hang_up(&self) {
        self.state.lock().expect("pipe poisoned").closed = true;
        self.cv.notify_all();
    }
}

/// One end of an in-memory duplex connection (the other end holds the
/// same two pipes crossed). Dropping an end hangs up both directions,
/// which the peer observes as EOF on read and `BrokenPipe` on write —
/// the in-process analogue of a connection reset.
pub struct MemConn {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl MemConn {
    fn pair() -> (MemConn, MemConn) {
        let a = Arc::new(Pipe::default());
        let b = Arc::new(Pipe::default());
        let left = MemConn {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
            read_timeout: None,
            write_timeout: None,
        };
        let right = MemConn {
            rx: b,
            tx: a,
            read_timeout: None,
            write_timeout: None,
        };
        (left, right)
    }
}

impl Conn for MemConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let deadline = self.read_timeout.map(|d| Instant::now() + d);
        let mut st = self.rx.state.lock().expect("pipe poisoned");
        loop {
            if !st.data.is_empty() {
                let n = buf.len().min(st.data.len());
                for slot in buf.iter_mut().take(n) {
                    *slot = st.data.pop_front().expect("len checked");
                }
                return Ok(n);
            }
            if st.closed {
                return Ok(0);
            }
            let wait = match deadline {
                None => Duration::from_secs(3600),
                Some(end) => match end.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => left,
                    _ => {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "mem read timed out",
                        ))
                    }
                },
            };
            st = self.rx.cv.wait_timeout(st, wait).expect("pipe poisoned").0;
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.tx.state.lock().expect("pipe poisoned");
        if st.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "mem peer hung up",
            ));
        }
        st.data.extend(buf.iter().copied());
        self.tx.cv.notify_all();
        Ok(buf.len())
    }

    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.read_timeout = d;
        Ok(())
    }

    fn set_write_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.write_timeout = d;
        Ok(())
    }

    fn close(&mut self) {
        self.tx.hang_up();
        self.rx.hang_up();
    }
}

impl Drop for MemConn {
    fn drop(&mut self) {
        self.close();
    }
}

#[derive(Default)]
struct AcceptQueue {
    pending: VecDeque<MemConn>,
}

/// An in-process [`Listener`]: [`MemTransport::connect`] hands back the
/// client end of a fresh duplex pipe and queues the server end for
/// `accept_timeout`. Clones share the queue, so a test keeps one handle
/// to dial while the server owns another.
#[derive(Clone, Default)]
pub struct MemTransport {
    q: Arc<(Mutex<AcceptQueue>, Condvar)>,
}

impl MemTransport {
    /// A fresh listener with an empty accept queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dials the listener: returns the client end of a new connection.
    pub fn connect(&self) -> MemConn {
        let (server, client) = MemConn::pair();
        let (lock, cv) = &*self.q;
        lock.lock()
            .expect("accept queue poisoned")
            .pending
            .push_back(server);
        cv.notify_one();
        client
    }
}

impl Listener for MemTransport {
    fn accept_timeout(&self, wait: Duration) -> io::Result<Option<Box<dyn Conn>>> {
        let deadline = Instant::now() + wait;
        let (lock, cv) = &*self.q;
        let mut q = lock.lock().expect("accept queue poisoned");
        loop {
            if let Some(conn) = q.pending.pop_front() {
                return Ok(Some(Box::new(conn)));
            }
            let left = match deadline.checked_duration_since(Instant::now()) {
                Some(left) if !left.is_zero() => left,
                _ => return Ok(None),
            };
            q = cv.wait_timeout(q, left).expect("accept queue poisoned").0;
        }
    }

    fn local_addr(&self) -> String {
        "mem:".into()
    }
}

// ---------------------------------------------------------------------------
// Fault injection.

/// The transport operation classes a [`Rule`](blazr_util::fault::Rule)
/// can target. Each class keeps its own index across the whole
/// [`FaultyTransport`], so "the Nth read" is well-defined regardless of
/// which connection performs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportOp {
    /// `Listener::accept_timeout` returning a connection.
    Accept,
    /// `Conn::read`.
    Read,
    /// `Conn::write`.
    Write,
}

impl Op for TransportOp {
    fn index(self) -> usize {
        self as usize
    }
}

/// A [`Listener`] wrapper that injects scripted, deterministic network
/// faults — see the module docs. Clones share the same [`Script`], so a
/// chaos test keeps a handle for arming rules and reading op counts
/// while the server owns another.
///
/// A [`Fault::Tear`] on a write delivers its prefix to the peer, then
/// reports `ConnectionReset`; on a read it delivers at most `keep`
/// bytes, and the connection reads EOF from then on.
#[derive(Clone)]
pub struct FaultyTransport {
    inner: Arc<dyn Listener>,
    script: Arc<Script<TransportOp>>,
}

impl FaultyTransport {
    /// Wraps `inner` with an (initially empty) fault script.
    pub fn new(inner: impl Listener + 'static) -> Self {
        Self {
            inner: Arc::new(inner),
            script: Arc::default(),
        }
    }

    /// The fault script every operation consults.
    pub fn script(&self) -> &Script<TransportOp> {
        &self.script
    }
}

impl Listener for FaultyTransport {
    fn accept_timeout(&self, wait: Duration) -> io::Result<Option<Box<dyn Conn>>> {
        // Only count (and possibly fault) attempts that would hand a
        // connection to the server, or "the Nth accept" would depend on
        // how often an idle acceptor's wait runs out.
        let Some(inner) = self.inner.accept_timeout(wait)? else {
            return Ok(None);
        };
        self.script.guard(TransportOp::Accept, "accept")?;
        Ok(Some(Box::new(FaultyConn {
            inner,
            script: Arc::clone(&self.script),
            torn_eof: false,
        })))
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }
}

/// A connection whose reads and writes consult the shared fault script.
struct FaultyConn {
    inner: Box<dyn Conn>,
    script: Arc<Script<TransportOp>>,
    /// A torn read latches EOF here.
    torn_eof: bool,
}

impl Conn for FaultyConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.torn_eof {
            return Ok(0);
        }
        match self.script.tick(TransportOp::Read) {
            None => self.inner.read(buf),
            Some(Fault::Tear { keep }) => {
                self.torn_eof = true;
                let keep = keep.min(buf.len());
                if keep == 0 {
                    return Ok(0);
                }
                self.inner.read(&mut buf[..keep])
            }
            Some(fault) => Err(fault.into_error("read")),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.script.tick(TransportOp::Write) {
            None => self.inner.write(buf),
            Some(Fault::Tear { keep }) => {
                // The prefix really reaches the peer, like a reset
                // mid-flight: push it through the inner conn before
                // reporting the failure.
                let keep = keep.min(buf.len());
                let mut sent = 0;
                while sent < keep {
                    match self.inner.write(&buf[sent..keep]) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => sent += n,
                    }
                }
                Err(Fault::Fail(io::ErrorKind::ConnectionReset).into_error("torn write"))
            }
            Some(fault) => Err(fault.into_error("write")),
        }
    }

    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(d)
    }

    fn set_write_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(d)
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pipe_roundtrips_and_eofs() {
        let listener = MemTransport::new();
        let mut client = listener.connect();
        let mut server = listener
            .accept_timeout(Duration::from_millis(100))
            .unwrap()
            .expect("a queued connection");
        client.write(b"ping").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        server.write(b"pong").unwrap();
        assert_eq!(client.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");
        // Hanging up delivers EOF to the peer and fails its writes.
        drop(client);
        assert_eq!(server.read(&mut buf).unwrap(), 0);
        assert!(server.write(b"x").is_err());
    }

    #[test]
    fn mem_read_times_out_without_data() {
        let listener = MemTransport::new();
        let _client = listener.connect();
        let mut server = listener
            .accept_timeout(Duration::from_millis(100))
            .unwrap()
            .unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            server.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
    }

    #[test]
    fn accept_times_out_when_idle() {
        let listener = MemTransport::new();
        assert!(listener
            .accept_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
    }

    #[test]
    fn tcp_accept_times_out_when_idle() {
        let listener = TcpTransport::bind("127.0.0.1:0").unwrap();
        let t0 = Instant::now();
        assert!(listener
            .accept_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(250),
            "idle accept took {took:?}"
        );
    }

    #[test]
    fn tcp_accept_wakes_on_arrival() {
        let listener = TcpTransport::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let client = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            TcpConn::connect(addr).unwrap()
        });
        let t0 = Instant::now();
        let conn = listener.accept_timeout(Duration::from_secs(2)).unwrap();
        let took = t0.elapsed();
        assert!(conn.is_some(), "the connection was not accepted");
        assert!(took < Duration::from_secs(1), "accept woke after {took:?}");
        client.join().unwrap();
    }

    #[test]
    fn tcp_accept_honours_a_changed_wait() {
        let listener = TcpTransport::bind("127.0.0.1:0").unwrap();
        let timed = |ms| {
            let t0 = Instant::now();
            assert!(listener
                .accept_timeout(Duration::from_millis(ms))
                .unwrap()
                .is_none());
            t0.elapsed()
        };
        let short = timed(5);
        assert!(
            short < Duration::from_millis(250),
            "5 ms wait took {short:?}"
        );
        let long = timed(30);
        assert!(
            long >= Duration::from_millis(25),
            "30 ms wait took {long:?}"
        );
        assert!(
            long < Duration::from_millis(500),
            "30 ms wait took {long:?}"
        );
        // A zero wait is clamped to the smallest timeout, not "forever".
        let zero = timed(0);
        assert!(zero < Duration::from_millis(250), "zero wait took {zero:?}");
    }

    #[test]
    fn faulty_transport_tears_writes_and_counts_ops() {
        let mem = MemTransport::new();
        let faulty = FaultyTransport::new(mem.clone());
        faulty.script().tear(TransportOp::Write, 0, 3);
        let mut client = mem.connect();
        let mut server = faulty
            .accept_timeout(Duration::from_millis(100))
            .unwrap()
            .unwrap();
        let err = server.write(b"abcdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // The client really received the 3-byte prefix.
        let mut buf = [0u8; 8];
        assert_eq!(client.read(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"abc");
        // The rule fired once; later writes succeed.
        server.write(b"gh").unwrap();
        assert_eq!(faulty.script().op_count(TransportOp::Write), 2);
        assert_eq!(faulty.script().op_count(TransportOp::Accept), 1);
    }

    #[test]
    fn torn_read_latches_eof() {
        let mem = MemTransport::new();
        let faulty = FaultyTransport::new(mem.clone());
        faulty.script().tear(TransportOp::Read, 0, 2);
        let mut client = mem.connect();
        let mut server = faulty
            .accept_timeout(Duration::from_millis(100))
            .unwrap()
            .unwrap();
        client.write(b"request").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(server.read(&mut buf).unwrap(), 2);
        assert_eq!(server.read(&mut buf).unwrap(), 0, "EOF latched");
        assert_eq!(server.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn transient_faults_recover() {
        let mem = MemTransport::new();
        let faulty = FaultyTransport::new(mem.clone());
        faulty.script().transient(TransportOp::Read, 0, 2);
        let mut client = mem.connect();
        let mut server = faulty
            .accept_timeout(Duration::from_millis(100))
            .unwrap()
            .unwrap();
        client.write(b"hi").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            server.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        assert_eq!(
            server.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        assert_eq!(server.read(&mut buf).unwrap(), 2);
    }
}
