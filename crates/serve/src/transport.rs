//! The connection seam the server speaks through, plus a deterministic
//! fault-injection wrapper — the network-side mirror of
//! [`blazr_util::vfs`]'s storage seam.
//!
//! The server performs a small, fixed set of transport operations:
//! accept a connection, read bytes, write bytes, set timeouts, close.
//! [`Listener`]/[`Conn`] name exactly that set, [`TcpTransport`] /
//! [`TcpConn`] implement it on `std::net`, [`MemTransport`] implements
//! it on in-process condvar pipes (so chaos tests run with no sockets
//! and no ports), and [`FaultyTransport`] wraps any listener with a
//! **scriptable fault plan**: reset the Nth accept, tear a write after
//! k bytes (the prefix really reaches the peer — a client sees exactly
//! the truncated response a mid-flight reset leaves), cut a read short,
//! return EINTR-style transients that succeed on retry, or stall an
//! operation slow-loris style until it times out. Every fault is
//! deterministic — a plan is a list of [`TransportRule`]s keyed by
//! per-operation indices, so a chaos suite can sweep "break the Nth
//! read" across every boundary of an exchange exhaustively.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::OwnedFd;
use std::sync::atomic::{AtomicU64, Ordering};
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
/// load generator connect with [`TcpConn::connect`].
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

/// The operation classes a [`TransportRule`] can target. Each class
/// keeps its own monotonically increasing index across the whole
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

const N_T_OPS: usize = 3;

impl TransportOp {
    fn index(self) -> usize {
        match self {
            TransportOp::Accept => 0,
            TransportOp::Read => 1,
            TransportOp::Write => 2,
        }
    }
}

/// What happens when a transport rule fires.
#[derive(Debug, Clone)]
pub enum TransportFault {
    /// Fail outright with this error kind (e.g. `ConnectionReset`,
    /// `BrokenPipe`). Fires once.
    Fail(io::ErrorKind),
    /// EINTR-style transient: the operation fails `failures` consecutive
    /// times with `kind`, then succeeds — the shape a bounded-retry
    /// server must absorb.
    Transient {
        /// Consecutive failing attempts before success.
        failures: u32,
        /// The error kind each failing attempt reports.
        kind: io::ErrorKind,
    },
    /// Torn write: only the first `keep` bytes reach the peer, then the
    /// write reports `ConnectionReset` — mid-response resets leave the
    /// client holding exactly this truncated prefix. Fires once.
    TornWrite {
        /// Bytes delivered before the reset.
        keep: usize,
    },
    /// Torn read: at most `keep` bytes of this read are delivered, and
    /// the connection reads EOF from then on — the peer vanished
    /// mid-request. Fires once.
    TornRead {
        /// Bytes delivered before the premature EOF.
        keep: usize,
    },
    /// Slow-loris stall: sleep `dur`, then report `TimedOut` — what a
    /// socket timeout turns a glacial peer into. Fires once.
    Stall {
        /// How long the operation hangs before timing out.
        dur: Duration,
    },
}

/// One scripted transport fault: when the `nth` operation of class `op`
/// (0-based, counted across the whole [`FaultyTransport`]) arrives,
/// `fault` happens.
#[derive(Debug, Clone)]
pub struct TransportRule {
    /// Which operation class this rule watches.
    pub op: TransportOp,
    /// The 0-based operation index at which the rule arms.
    pub nth: u64,
    /// The injected behavior.
    pub fault: TransportFault,
}

/// A rule plus its remaining-fire budget ([`TransportFault::Transient`]
/// fires multiple times; everything else once).
struct Armed {
    rule: TransportRule,
    remaining: u32,
}

#[derive(Default)]
struct TransportFaultState {
    rules: Mutex<Vec<Armed>>,
    counts: [AtomicU64; N_T_OPS],
}

impl TransportFaultState {
    /// Claims the next index for `op` and returns the fault to inject,
    /// if a rule fires at it.
    fn tick(&self, op: TransportOp) -> Option<TransportFault> {
        let idx = self.counts[op.index()].fetch_add(1, Ordering::Relaxed);
        let mut rules = self.rules.lock().expect("transport rules poisoned");
        for armed in rules.iter_mut() {
            if armed.rule.op == op && idx >= armed.rule.nth && armed.remaining > 0 {
                armed.remaining -= 1;
                return Some(armed.rule.fault.clone());
            }
        }
        None
    }

    fn err(kind: io::ErrorKind, what: &str) -> io::Error {
        io::Error::new(kind, format!("injected transport fault: {what}"))
    }
}

/// A [`Listener`] wrapper that injects scripted, deterministic network
/// faults — see the module docs. Clones share the same fault plan and
/// operation counters, so a chaos test keeps a handle for arming rules
/// and reading [`FaultyTransport::op_count`] while the server owns
/// another.
#[derive(Clone)]
pub struct FaultyTransport {
    inner: Arc<dyn Listener>,
    state: Arc<TransportFaultState>,
}

impl FaultyTransport {
    /// Wraps `inner` with an (initially empty) fault plan.
    pub fn new(inner: impl Listener + 'static) -> Self {
        Self {
            inner: Arc::new(inner),
            state: Arc::new(TransportFaultState::default()),
        }
    }

    /// Adds a rule to the plan.
    pub fn arm(&self, rule: TransportRule) {
        let remaining = match rule.fault {
            TransportFault::Transient { failures, .. } => failures,
            _ => 1,
        };
        self.state
            .rules
            .lock()
            .expect("transport rules poisoned")
            .push(Armed { rule, remaining });
    }

    /// Fails the `nth` operation of class `op` with `kind`.
    pub fn fail_nth(&self, op: TransportOp, nth: u64, kind: io::ErrorKind) {
        self.arm(TransportRule {
            op,
            nth,
            fault: TransportFault::Fail(kind),
        });
    }

    /// Makes ops of class `op` starting at the `nth` fail `failures`
    /// times with `Interrupted`, then succeed.
    pub fn transient(&self, op: TransportOp, nth: u64, failures: u32) {
        self.arm(TransportRule {
            op,
            nth,
            fault: TransportFault::Transient {
                failures,
                kind: io::ErrorKind::Interrupted,
            },
        });
    }

    /// Tears the `nth` write after `keep` bytes.
    pub fn torn_write(&self, nth: u64, keep: usize) {
        self.arm(TransportRule {
            op: TransportOp::Write,
            nth,
            fault: TransportFault::TornWrite { keep },
        });
    }

    /// Cuts the `nth` read short after at most `keep` bytes.
    pub fn torn_read(&self, nth: u64, keep: usize) {
        self.arm(TransportRule {
            op: TransportOp::Read,
            nth,
            fault: TransportFault::TornRead { keep },
        });
    }

    /// Stalls the `nth` operation of class `op` for `dur`, then times
    /// it out.
    pub fn stall(&self, op: TransportOp, nth: u64, dur: Duration) {
        self.arm(TransportRule {
            op,
            nth,
            fault: TransportFault::Stall { dur },
        });
    }

    /// Drops all rules (operation counters keep running).
    pub fn clear(&self) {
        self.state
            .rules
            .lock()
            .expect("transport rules poisoned")
            .clear();
    }

    /// How many operations of class `op` have been issued so far — the
    /// handle a chaos sweep uses to enumerate every boundary.
    pub fn op_count(&self, op: TransportOp) -> u64 {
        self.state.counts[op.index()].load(Ordering::Relaxed)
    }
}

impl Listener for FaultyTransport {
    fn accept_timeout(&self, wait: Duration) -> io::Result<Option<Box<dyn Conn>>> {
        // Only count (and possibly fault) attempts that would hand a
        // connection to the server, or "the Nth accept" would depend on
        // how often an idle acceptor's wait runs out.
        let conn = match self.inner.accept_timeout(wait)? {
            None => return Ok(None),
            Some(c) => c,
        };
        match self.state.tick(TransportOp::Accept) {
            None => Ok(Some(Box::new(FaultyConn {
                inner: conn,
                state: Arc::clone(&self.state),
                torn_eof: false,
            }))),
            Some(TransportFault::Fail(kind)) | Some(TransportFault::Transient { kind, .. }) => {
                Err(TransportFaultState::err(kind, "accept"))
            }
            Some(TransportFault::Stall { dur }) => {
                std::thread::sleep(dur);
                Err(TransportFaultState::err(io::ErrorKind::TimedOut, "accept"))
            }
            Some(_) => Err(TransportFaultState::err(io::ErrorKind::Other, "accept")),
        }
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }
}

/// A connection whose reads and writes consult the shared fault plan.
struct FaultyConn {
    inner: Box<dyn Conn>,
    state: Arc<TransportFaultState>,
    /// A fired [`TransportFault::TornRead`] latches EOF here.
    torn_eof: bool,
}

impl Conn for FaultyConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.torn_eof {
            return Ok(0);
        }
        match self.state.tick(TransportOp::Read) {
            None => self.inner.read(buf),
            Some(TransportFault::Fail(kind)) | Some(TransportFault::Transient { kind, .. }) => {
                Err(TransportFaultState::err(kind, "read"))
            }
            Some(TransportFault::TornRead { keep }) => {
                self.torn_eof = true;
                let keep = keep.min(buf.len());
                if keep == 0 {
                    return Ok(0);
                }
                self.inner.read(&mut buf[..keep])
            }
            Some(TransportFault::Stall { dur }) => {
                std::thread::sleep(dur);
                Err(TransportFaultState::err(io::ErrorKind::TimedOut, "read"))
            }
            Some(TransportFault::TornWrite { .. }) => {
                Err(TransportFaultState::err(io::ErrorKind::Other, "read"))
            }
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.state.tick(TransportOp::Write) {
            None => self.inner.write(buf),
            Some(TransportFault::Fail(kind)) | Some(TransportFault::Transient { kind, .. }) => {
                Err(TransportFaultState::err(kind, "write"))
            }
            Some(TransportFault::TornWrite { keep }) => {
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
                Err(TransportFaultState::err(
                    io::ErrorKind::ConnectionReset,
                    "torn write",
                ))
            }
            Some(TransportFault::Stall { dur }) => {
                std::thread::sleep(dur);
                Err(TransportFaultState::err(io::ErrorKind::TimedOut, "write"))
            }
            Some(TransportFault::TornRead { .. }) => {
                Err(TransportFaultState::err(io::ErrorKind::Other, "write"))
            }
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
        faulty.torn_write(0, 3);
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
        assert_eq!(faulty.op_count(TransportOp::Write), 2);
        assert_eq!(faulty.op_count(TransportOp::Accept), 1);
    }

    #[test]
    fn torn_read_latches_eof() {
        let mem = MemTransport::new();
        let faulty = FaultyTransport::new(mem.clone());
        faulty.torn_read(0, 2);
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
        faulty.transient(TransportOp::Read, 0, 2);
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
