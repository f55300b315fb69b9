//! The query server: a bounded-queue thread pool with admission
//! control, per-request deadlines, degraded-mode responses, and
//! graceful drain.
//!
//! Life of a request: the acceptor thread blocks in the [`Listener`]
//! until a connection arrives (waking at least every 5 ms to recheck
//! drain state) and either queues the connection (bounded queue), sheds
//! it with `429` + `Retry-After` when the queue is full, or answers
//! `503` while draining. A worker pops the connection, reads the head under the
//! request deadline (transient I/O faults retried under the default
//! [`RetryPolicy`]), parses it with [`Query::parse`], runs it through
//! [`Store::run`] with a cancellation check wired to the same deadline
//! (so a scan cannot overrun it by more than one chunk, in either mode),
//! and answers with the status contract:
//!
//! | status | meaning |
//! |--------|---------|
//! | `200`  | complete answer — no chunk quarantined |
//! | `206`  | degraded answer — body carries the `DegradationReport` |
//! | `429`  | load shed at admission (`Retry-After` set) |
//! | `503`  | draining (also `/healthz` during drain) |
//! | `504`  | deadline expired mid-scan |
//! | `408`  | deadline expired reading the request |
//!
//! Every worker wraps handling in `catch_unwind`, so a panic in one
//! request is counted (`serve.worker.panics`) and the worker survives —
//! the chaos suite asserts the counter stays zero.
//!
//! The server's own accounting ([`ServerStats`]) is the one source of
//! its admission and outcome counts. It counts whatever the telemetry
//! mode, and each server counts for itself; `/metrics` exports it next
//! to the telemetry registry as `serve.accepted`, `serve.shed`,
//! `serve.draining_rejects`, `serve.deadline_exceeded`,
//! `serve.responses.degraded`, `serve.worker.panics` and the gauge
//! `serve.queue.depth`.

use crate::http::{parse_request, read_head, write_response, Deadline, Request, Response};
use crate::transport::{Conn, Listener};
use blazr_store::{encode_query_body, Query, QueryOptions, Store, StoreError};
use blazr_telemetry as tel;
use blazr_util::retry::RetryPolicy;
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs, one per `blazr serve` flag (`--workers`,
/// `--queue`, `--deadline-ms`, `--max-requests`). The rest is fixed: an
/// idle acceptor rechecks drain state every 5 ms, a drain forces
/// shutdown after 5 s, and transient I/O faults are retried under
/// [`RetryPolicy::default`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling requests.
    pub workers: usize,
    /// Admission queue bound; a full queue sheds with `429`.
    pub queue_capacity: usize,
    /// Per-request deadline (head read + query + response write).
    pub deadline: Duration,
    /// Self-drain after this many handled connections (`blazr serve
    /// --max-requests` and smoke tests; `None` = run until told to
    /// drain).
    pub max_requests: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            deadline: Duration::from_secs(2),
            max_requests: None,
        }
    }
}

/// The longest an idle acceptor blocks before rechecking drain state
/// (also the shutdown-latency bound); arrivals wake it at once.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// How long a drain waits for in-flight requests before forcing
/// shutdown.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// A point-in-time view of the server's accounting, also returned by
/// [`Server::shutdown`] and exported by `/metrics`. The chaos suite's
/// leak checks are `in_flight == 0 && queued == 0 && panics == 0` after
/// a drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections the acceptor received.
    pub accepted: u64,
    /// Connections a worker finished handling.
    pub served: u64,
    /// Connections shed with `429` (queue full).
    pub shed: u64,
    /// Connections answered `503` during drain.
    pub drain_rejects: u64,
    /// Requests whose deadline expired mid-scan (`504`).
    pub deadline_hits: u64,
    /// Responses answered `206` (degraded — damaged chunks skipped).
    pub degraded: u64,
    /// Panics caught in workers (should stay zero).
    pub panics: u64,
    /// Requests being handled right now.
    pub in_flight: usize,
    /// Connections waiting in the admission queue.
    pub queued: usize,
}

/// A connection waiting for a worker, stamped at admission when
/// telemetry records counters (for `serve.queue_wait.us`).
struct Queued {
    conn: Box<dyn Conn>,
    admitted: Option<Instant>,
}

struct Shared {
    store: Store,
    cfg: ServeConfig,
    state: AtomicU8,
    drain_started: Mutex<Option<Instant>>,
    queue: Mutex<VecDeque<Queued>>,
    cv: Condvar,
    in_flight: AtomicUsize,
    accepted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    drain_rejects: AtomicU64,
    deadline_hits: AtomicU64,
    degraded: AtomicU64,
    panics: AtomicU64,
}

impl Shared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        let mut started = self.drain_started.lock().expect("drain flag poisoned");
        if started.is_none() {
            *started = Some(Instant::now());
            let _ =
                self.state
                    .compare_exchange(RUNNING, DRAINING, Ordering::AcqRel, Ordering::Acquire);
            self.cv.notify_all();
        }
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            drain_rejects: self.drain_rejects.load(Ordering::Relaxed),
            deadline_hits: self.deadline_hits.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queued: self.queue.lock().expect("queue poisoned").len(),
        }
    }
}

/// Decrements `in_flight` even if handling panics.
struct InFlightGuard<'a>(&'a Shared);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running query server. Dropping the handle without calling
/// [`Server::shutdown`] detaches the threads; prefer an explicit
/// shutdown (or [`ServeConfig::max_requests`] + [`Server::join`]).
pub struct Server {
    shared: Arc<Shared>,
    addr: String,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts serving `store`: one acceptor thread that takes
    /// connections from `listener`, plus `cfg.workers` worker threads.
    pub fn start(store: Store, listener: Box<dyn Listener>, cfg: ServeConfig) -> io::Result<Self> {
        let addr = listener.local_addr();
        let workers_n = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            store,
            cfg,
            state: AtomicU8::new(RUNNING),
            drain_started: Mutex::new(None),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            drain_rejects: AtomicU64::new(0),
            deadline_hits: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });

        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("blazr-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("blazr-serve-acceptor".into())
                .spawn(move || acceptor_loop(&shared, listener.as_ref()))?
        };

        Ok(Self {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The listener's bound address.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Current accounting.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// `"running"`, `"draining"`, or `"stopped"`.
    pub fn state(&self) -> &'static str {
        match self.shared.state() {
            RUNNING => "running",
            DRAINING => "draining",
            _ => "stopped",
        }
    }

    /// Stops admitting work: new connections get `503`, in-flight
    /// requests finish, and once drained (or 5 s later) the threads
    /// exit.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Waits for the server to stop (a drain must already be underway —
    /// via [`Server::begin_drain`] or [`ServeConfig::max_requests`] —
    /// or this blocks until one starts). Returns the final accounting.
    pub fn join(mut self) -> ServerStats {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stats()
    }

    /// Graceful shutdown: drain, then join.
    pub fn shutdown(self) -> ServerStats {
        self.begin_drain();
        self.join()
    }
}

/// Accepts, admits, sheds, and supervises the drain. Accept errors are
/// counted and survived — the acceptor never dies before shutdown.
fn acceptor_loop(shared: &Shared, listener: &dyn Listener) {
    loop {
        match shared.state() {
            STOPPED => break,
            DRAINING => {
                let drained = shared.in_flight.load(Ordering::Acquire) == 0
                    && shared.queue.lock().expect("queue poisoned").is_empty();
                let overdue = shared
                    .drain_started
                    .lock()
                    .expect("drain flag poisoned")
                    .map(|t| t.elapsed() > DRAIN_TIMEOUT)
                    .unwrap_or(false);
                if drained || overdue {
                    shared.state.store(STOPPED, Ordering::Release);
                    shared.cv.notify_all();
                    break;
                }
            }
            _ => {}
        }
        match listener.accept_timeout(ACCEPT_POLL) {
            Ok(None) => continue,
            Ok(Some(conn)) => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                admit(shared, conn);
            }
            Err(_) => {
                tel::count!("serve.accept.errors", 1);
                // A faulted accept (reset, transient, stall) affects one
                // connection attempt; keep accepting.
            }
        }
    }
}

/// Queues a connection, or answers `429`/`503` without involving a
/// worker. Rejection writes are best-effort under a short budget so a
/// hostile peer cannot stall the acceptor.
fn admit(shared: &Shared, mut conn: Box<dyn Conn>) {
    if shared.state() != RUNNING {
        shared.drain_rejects.fetch_add(1, Ordering::Relaxed);
        respond_best_effort(conn.as_mut(), Response::error(503, "draining"));
        return;
    }
    let mut q = shared.queue.lock().expect("queue poisoned");
    if q.len() >= shared.cfg.queue_capacity {
        drop(q);
        shared.shed.fetch_add(1, Ordering::Relaxed);
        let mut resp = Response::error(429, "queue full");
        resp.retry_after = Some(1);
        respond_best_effort(conn.as_mut(), resp);
        return;
    }
    let admitted = tel::counters_enabled().then(Instant::now);
    q.push_back(Queued { conn, admitted });
    drop(q);
    shared.cv.notify_one();
}

/// Writes a response with a small fixed budget, ignoring failures (the
/// peer may already be gone), and closes.
fn respond_best_effort(conn: &mut dyn Conn, resp: Response) {
    let deadline = Deadline::after(Duration::from_millis(250));
    let retry = RetryPolicy {
        attempts: 1,
        ..RetryPolicy::default()
    };
    let _ = write_response(conn, &resp, &deadline, &retry);
    conn.close();
}

/// Pops connections until the server stops. Handling is wrapped in
/// `catch_unwind`: a panicking request is counted and answered with a
/// best-effort `500`, and the worker lives on.
fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(Queued { conn, admitted }) = q.pop_front() {
                    if let Some(t) = admitted {
                        tel::record!("serve.queue_wait.us", t.elapsed().as_micros() as u64);
                    }
                    break Some(conn);
                }
                if shared.state() == STOPPED {
                    break None;
                }
                q = shared
                    .cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .expect("queue poisoned")
                    .0;
            }
        };
        let mut conn = match conn {
            Some(c) => c,
            None => break,
        };
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let _guard = InFlightGuard(shared);
        if shared.state() == STOPPED {
            // Force-stopped with work still queued: answer 503, fast.
            respond_best_effort(conn.as_mut(), Response::error(503, "shutting down"));
        } else {
            let outcome = catch_unwind(AssertUnwindSafe(|| handle_conn(shared, conn.as_mut())));
            if outcome.is_err() {
                shared.panics.fetch_add(1, Ordering::Relaxed);
                respond_best_effort(conn.as_mut(), Response::error(500, "internal panic"));
            }
        }
        conn.close();
        let served = shared.served.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(max) = shared.cfg.max_requests {
            if served >= max {
                shared.begin_drain();
            }
        }
    }
}

/// One full request: read, route, respond. Every failure path still
/// tries to send a status the client can interpret.
fn handle_conn(shared: &Shared, conn: &mut dyn Conn) {
    let start = Instant::now();
    tel::count!("serve.requests", 1);
    let deadline = Deadline::after(shared.cfg.deadline);
    let retry = &RetryPolicy::default();

    let head = match read_head(conn, &deadline, retry) {
        Ok(Some(head)) => head,
        Ok(None) => return, // clean close before any byte: no response owed
        Err(e) => {
            let status = match e.kind() {
                io::ErrorKind::TimedOut => 408,
                io::ErrorKind::InvalidData => 431,
                _ => 400,
            };
            count_response(status);
            respond_best_effort(conn, Response::error(status, &e.to_string()));
            return;
        }
    };
    let resp = match parse_request(&head) {
        Ok(req) => route(shared, &req, &deadline),
        Err(status) => Response::error(status, "malformed request"),
    };
    count_response(resp.status);
    // The response (including 408/504) gets at least a small write
    // budget even when the request deadline is spent.
    let write_deadline = match deadline.remaining() {
        Some(left) if left > Duration::from_millis(250) => deadline,
        _ => Deadline::after(Duration::from_millis(250)),
    };
    if write_response(conn, &resp, &write_deadline, retry).is_err() {
        tel::count!("serve.conn.write_errors", 1);
    }
    tel::record!("serve.request.us", start.elapsed().as_micros() as u64);
}

fn count_response(status: u16) {
    match status / 100 {
        2 => tel::count!("serve.responses.2xx", 1),
        4 => tel::count!("serve.responses.4xx", 1),
        _ => tel::count!("serve.responses.5xx", 1),
    }
}

fn route(shared: &Shared, req: &Request, deadline: &Deadline) -> Response {
    match req.path.as_str() {
        "/healthz" => {
            if shared.state() == RUNNING {
                Response::text(200, "ok\n")
            } else {
                Response::text(503, "draining\n")
            }
        }
        "/readyz" => {
            let queued = shared.queue.lock().expect("queue poisoned").len();
            if shared.state() == RUNNING && queued < shared.cfg.queue_capacity {
                Response::text(200, "ready\n")
            } else {
                Response::text(503, "not ready\n")
            }
        }
        "/metrics" => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            retry_after: None,
            body: metrics_snapshot(shared).to_prometheus(),
        },
        "/query" => handle_query(shared, req, deadline),
        _ => Response::error(404, "not found"),
    }
}

/// The telemetry registry plus this server's own accounting, in name
/// order.
fn metrics_snapshot(shared: &Shared) -> tel::Snapshot {
    let s = shared.stats();
    let mut snap = tel::registry().snapshot();
    for (name, v) in [
        ("serve.accepted", s.accepted),
        ("serve.deadline_exceeded", s.deadline_hits),
        ("serve.draining_rejects", s.drain_rejects),
        ("serve.responses.degraded", s.degraded),
        ("serve.shed", s.shed),
        ("serve.worker.panics", s.panics),
    ] {
        snap.counters.push((name.to_string(), v));
    }
    snap.counters.sort();
    snap.gauges
        .push(("serve.queue.depth".to_string(), s.queued as i64));
    snap.gauges.sort();
    snap
}

/// Parses the query parameters, runs the scan under the deadline, and
/// encodes the result. `mode=strict` refuses damage with `500`
/// (mirroring `blazr store query` without `--degraded`); the default
/// degraded mode quarantines damage and reports it with `206`.
fn handle_query(shared: &Shared, req: &Request, deadline: &Deadline) -> Response {
    let q = match Query::parse(|key| req.param(key)) {
        Ok(q) => q,
        Err(e) => return store_error_response(shared, e),
    };
    // A `deadline_ms` parameter tightens (never extends) the budget.
    let deadline = match req.param("deadline_ms").map(str::parse::<u64>) {
        None => *deadline,
        Some(Ok(ms)) => {
            let requested = Deadline::after(Duration::from_millis(ms));
            match (requested.remaining(), deadline.remaining()) {
                (Some(a), Some(b)) if a < b => requested,
                (None, _) => requested,
                _ => *deadline,
            }
        }
        Some(Err(_)) => return Response::error(400, "deadline_ms: not an integer"),
    };
    let degraded = match req.param("mode") {
        None | Some("degraded") => true,
        Some("strict") => false,
        Some(other) => {
            return Response::error(400, &format!("mode: want strict|degraded, got {other:?}"))
        }
    };
    let cancel = || deadline.expired();
    let opts = QueryOptions {
        degraded,
        cancel: Some(&cancel),
        ..QueryOptions::default()
    };
    match shared.store.run(&q, &opts) {
        Ok((r, report)) => {
            let status = if report.is_degraded() { 206 } else { 200 };
            if status == 206 {
                shared.degraded.fetch_add(1, Ordering::Relaxed);
            }
            Response::json(status, encode_query_body(&r, &report))
        }
        Err(e) => store_error_response(shared, e),
    }
}

fn store_error_response(shared: &Shared, e: StoreError) -> Response {
    match e {
        StoreError::InvalidArgument(msg) => Response::error(400, &msg),
        StoreError::Cancelled(msg) => {
            shared.deadline_hits.fetch_add(1, Ordering::Relaxed);
            Response::error(504, &format!("deadline exceeded: {msg}"))
        }
        other => Response::error(500, &other.to_string()),
    }
}
