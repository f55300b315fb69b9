//! The serve layers: `blazr_serve::Server` over `TcpTransport` on
//! loopback, driven by two sender threads, each with at most one
//! connection open. Every answer is checked byte for byte against the
//! in-process reference (`encode_query_body` of the same query).

use crate::data::{Inputs, Workload};
use crate::record::{tallied, Record, Tally};
use crate::storage::{pruned_query, write_store};
use crate::{stats, trace};
use blazr_serve::transport::{Conn, Listener};
use blazr_serve::{encode_query_body, http_get, ServeConfig, Server, TcpConn, TcpTransport};
use blazr_store::{Aggregate, Query, Store};
use blazr_util::rng::Xoshiro256pp;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered rates (requests/s) of the two open-loop phases: about 15 % and
/// 50 % of each workload's two-connection closed-loop capacity as
/// measured when the ledger was added (README, "Calibration"). Frozen, so
/// a faster server is measured at the same load, not a higher one.
pub fn rates(w: Workload) -> (f64, f64) {
    match w {
        Workload::Smooth => (90.0, 290.0),
        Workload::Noise => (60.0, 200.0),
        Workload::Thin => (70.0, 240.0),
        Workload::Volume => (70.0, 240.0),
    }
}

/// Ramp steps of a traced run: `r_high·1.1^k` for `k = 1..=RAMP_STEPS`.
pub const RAMP_STEPS: usize = 4;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// One request the mix can draw, with the answer it must get.
pub struct Req {
    pub target: String,
    pub status: u16,
    pub body: Vec<u8>,
}

/// Every request of the mix: 16-label windows (aggregate rotating with
/// the start label), pruned queries, and the full-range sum. Windows
/// and sums that touch the bit-flipped chunk must come back `206`.
pub struct Catalog {
    pub windows: Vec<Req>,
    pub pruned: Vec<Req>,
    pub full: Req,
}

const WINDOW: usize = 16;
const AGGS: [(Aggregate, &str); 4] = [
    (Aggregate::Sum, "sum"),
    (Aggregate::Mean, "mean"),
    (Aggregate::Variance, "variance"),
    (Aggregate::L2Norm, "l2"),
];

fn reference(store: &Store, target: String, q: &Query) -> Result<Req, String> {
    let (r, report) = store.query_degraded(q).map_err(|e| e.to_string())?;
    Ok(Req {
        target,
        status: if report.is_degraded() { 206 } else { 200 },
        body: encode_query_body(&r, &report).into_bytes(),
    })
}

pub fn catalog(store: &Store, inp: &Inputs) -> Result<Catalog, String> {
    let windows = (0..=inp.chunks.len().saturating_sub(WINDOW))
        .map(|s| {
            let (agg, name) = AGGS[s % AGGS.len()];
            let to = s + WINDOW - 1;
            let q = Query {
                from_label: s as u64,
                to_label: to as u64,
                predicate: None,
                aggregate: agg,
            };
            reference(store, format!("/query?agg={name}&from={s}&to={to}"), &q)
        })
        .collect::<Result<_, _>>()?;
    let pruned = inp
        .ranges
        .iter()
        .map(|&(lo, hi)| {
            let q = pruned_query((lo, hi), Aggregate::Mean);
            reference(
                store,
                format!("/query?agg=mean&value_lo={lo}&value_hi={hi}"),
                &q,
            )
        })
        .collect::<Result<_, _>>()?;
    let full = reference(store, "/query?agg=sum".into(), &Query::all(Aggregate::Sum))?;
    Ok(Catalog {
        windows,
        pruned,
        full,
    })
}

impl Catalog {
    /// A request sequence of length `n` in the mix's exact proportions:
    /// every block of ten holds six windows and three pruned queries in
    /// random order, and one full-range sum. The sums sit at fixed
    /// places, one in every ten requests of each open-loop sender, so two
    /// of them never queue behind each other on one connection by
    /// chance; drawn independently, those pile-ups (and the share of
    /// sums) would swing the latency tail from run to run.
    fn plan(&self, n: usize, rng: &mut Xoshiro256pp) -> Vec<&Req> {
        let mut out = Vec::with_capacity(n + 10);
        while out.len() < n {
            let mut block: Vec<&Req> = Vec::with_capacity(10);
            for _ in 0..6 {
                block.push(&self.windows[rng.below(self.windows.len() as u64) as usize]);
            }
            for _ in 0..3 {
                block.push(&self.pruned[rng.below(self.pruned.len() as u64) as usize]);
            }
            for i in (1..block.len()).rev() {
                block.swap(i, rng.below(i as u64 + 1) as usize);
            }
            // Request k goes to sender k % 2: slot 4 of even blocks and
            // slot 9 of odd ones alternate the senders.
            let slot = if out.len() / 10 % 2 == 0 { 4 } else { 9 };
            block.insert(slot, &self.full);
            out.extend(block);
        }
        out.truncate(n);
        out
    }
}

/// What one request got back, judged against its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// A status other than the reference's (429 shed, 5xx, ...).
    Status(u16),
    /// The reference status with a different body.
    Mismatch,
    /// No parseable response (refused, reset, closed, timed out).
    Closed,
}

pub fn classify(got: &io::Result<(u16, Vec<u8>)>, want: &Req) -> Outcome {
    match got {
        Err(_) => Outcome::Closed,
        Ok((status, _)) if *status != want.status => Outcome::Status(*status),
        Ok((_, body)) if *body != want.body => Outcome::Mismatch,
        Ok(_) => Outcome::Ok,
    }
}

/// One request as a sender saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub req: u64,
    /// When the schedule wanted it sent (= `sent` in a closed loop).
    pub due: Instant,
    pub sent: Instant,
    pub connected: Instant,
    pub done: Instant,
    pub outcome: Outcome,
    pub degraded: bool,
}

impl Sample {
    /// Latency from the due time: a stall delays every later request of
    /// its sender, and that wait counts.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Sends requests `me, me + senders, me + 2·senders, ... < count`, each
/// at its due time `start + k/rate`, one at a time. `send(k)` performs
/// request `k` and returns its outcome, whether it was degraded, and when
/// its connection was established.
pub fn open_loop(
    start: Instant,
    rate: f64,
    count: u64,
    me: u64,
    senders: u64,
    mut send: impl FnMut(u64) -> (Outcome, bool, Instant),
) -> Vec<Sample> {
    let mut out = Vec::new();
    for k in (me..count).step_by(senders as usize) {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let (outcome, degraded, connected) = send(k);
        out.push(Sample {
            req: k,
            due,
            sent,
            connected,
            done: Instant::now(),
            outcome,
            degraded,
        });
    }
    out
}

/// Performs one request over a fresh connection.
fn exchange(addr: &str, target: &str) -> (io::Result<(u16, Vec<u8>)>, Instant) {
    let mut conn = match TcpConn::connect(addr) {
        Ok(c) => c,
        Err(e) => return (Err(e), Instant::now()),
    };
    let connected = Instant::now();
    let got = http_get(&mut conn, target, CLIENT_TIMEOUT).map(|r| (r.status, r.body));
    (got, connected)
}

/// Per-connection times the server side saw, through the listener seam
/// (traced runs only). `req` is the request id parsed from the request
/// target's `lid` parameter.
#[derive(Debug, Clone, Copy)]
struct ConnTimes {
    req: u64,
    accepted: Instant,
    first_call: Instant,
    closed: Instant,
}

type ConnLog = Arc<Mutex<Vec<ConnTimes>>>;

/// A [`Listener`] that wraps `TcpTransport` and timestamps each
/// connection: accepted, first touched by a worker, closed.
struct TracedListener {
    inner: TcpTransport,
    log: ConnLog,
}

struct TracedConn {
    inner: Box<dyn Conn>,
    log: ConnLog,
    accepted: Instant,
    first_call: Option<Instant>,
    req: Option<u64>,
    logged: bool,
}

impl TracedConn {
    fn touch(&mut self) {
        self.first_call.get_or_insert_with(Instant::now);
    }

    /// Logs the connection once. Also called from `Drop`, so a poisoned
    /// log is skipped rather than unwrapped.
    fn finish(&mut self) {
        if !self.logged {
            self.logged = true;
            let t = ConnTimes {
                req: self.req.unwrap_or(u64::MAX),
                accepted: self.accepted,
                first_call: self.first_call.unwrap_or(self.accepted),
                closed: Instant::now(),
            };
            if let Ok(mut log) = self.log.lock() {
                log.push(t);
            }
        }
    }
}

/// The `lid=<n>` request id in a request head.
fn request_id(head: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(head).ok()?;
    let at = text.find("lid=")? + 4;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

impl Conn for TracedConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.touch();
        let n = self.inner.read(buf)?;
        if self.req.is_none() {
            self.req = request_id(&buf[..n]);
        }
        Ok(n)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.touch();
        self.inner.write(buf)
    }

    fn set_read_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.touch();
        self.inner.set_read_timeout(d)
    }

    fn set_write_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.touch();
        self.inner.set_write_timeout(d)
    }

    fn close(&mut self) {
        self.inner.close();
        self.finish();
    }
}

impl Drop for TracedConn {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Listener for TracedListener {
    fn accept_timeout(&self, wait: Duration) -> io::Result<Option<Box<dyn Conn>>> {
        Ok(self.inner.accept_timeout(wait)?.map(|inner| {
            Box::new(TracedConn {
                inner,
                log: Arc::clone(&self.log),
                accepted: Instant::now(),
                first_call: None,
                req: None,
                logged: false,
            }) as Box<dyn Conn>
        }))
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }
}

/// The system under test, ready to answer: the query store, the
/// bit-rotted serve store, and a running server on loopback.
pub struct System {
    pub query_path: PathBuf,
    serve_path: PathBuf,
    server: Server,
    addr: String,
    log: Option<ConnLog>,
}

/// Builds the system from the generated inputs: writes the query store,
/// copies it with one payload byte of the victim chunk flipped, opens
/// that copy and starts the server, and waits for its first answer.
pub fn setup(inp: &Inputs, dir: &Path, traced: bool) -> Result<System, String> {
    let query_path = dir.join("query.blzs");
    let serve_path = dir.join("serve.blzs");
    write_store(&query_path, &inp.block, &inp.chunks)?;
    let offset = {
        let store = Store::open(&query_path).map_err(|e| e.to_string())?;
        store.entries()[inp.scale.victim()].offset + 7
    };
    let mut bytes = std::fs::read(&query_path).map_err(|e| e.to_string())?;
    bytes[usize::try_from(offset).map_err(|e| e.to_string())?] ^= 0x20;
    std::fs::write(&serve_path, bytes).map_err(|e| e.to_string())?;
    let store = Store::open(&serve_path).map_err(|e| e.to_string())?;
    let tcp = TcpTransport::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let (listener, log): (Box<dyn Listener>, _) = if traced {
        let log = ConnLog::default();
        let l = TracedListener {
            inner: tcp,
            log: Arc::clone(&log),
        };
        (Box::new(l), Some(log))
    } else {
        (Box::new(tcp), None)
    };
    let server =
        Server::start(store, listener, ServeConfig::default()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let ready = (0..200).any(|_| {
        let up = TcpConn::connect(&addr)
            .and_then(|mut c| http_get(&mut c, "/healthz", CLIENT_TIMEOUT))
            .is_ok_and(|r| r.status == 200);
        if !up {
            std::thread::sleep(Duration::from_millis(5));
        }
        up
    });
    if !ready {
        return Err("server never answered /healthz".into());
    }
    Ok(System {
        query_path,
        serve_path,
        server,
        addr,
        log,
    })
}

impl System {
    /// Drains the server and checks it leaked nothing and never panicked.
    pub fn shutdown(self, rec: &mut Record) {
        let stats = self.server.shutdown();
        rec.check(stats.panics == 0, || {
            format!("{} server worker panics", stats.panics)
        });
        rec.check(stats.in_flight == 0 && stats.queued == 0, || {
            format!(
                "server leaked {} in-flight and {} queued connections",
                stats.in_flight, stats.queued
            )
        });
    }
}

/// Runs an open-loop phase of the plan's requests at `rate` with two
/// senders. Request `k` carries id `first_id + k`; in traced runs the id
/// also travels in the target (`lid`), for the listener seam.
fn open_phase(sys: &System, plan: &[&Req], rate: f64, first_id: u64) -> Vec<Sample> {
    let count = plan.len() as u64;
    let traced = sys.log.is_some();
    let start = Instant::now() + Duration::from_millis(5);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let senders: Vec<_> = (0..2)
            .map(|me| {
                s.spawn(move || {
                    open_loop(start, rate, count, me, 2, |k| {
                        let req = plan[k as usize];
                        let (got, connected) = if traced {
                            let id = first_id + k;
                            exchange(&sys.addr, &format!("{}&lid={id}", req.target))
                        } else {
                            exchange(&sys.addr, &req.target)
                        };
                        let degraded = matches!(got, Ok((206, _)));
                        (classify(&got, req), degraded, connected)
                    })
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    for s in &mut samples {
        s.req += first_id;
    }
    samples.sort_by_key(|s| s.req);
    samples
}

/// Two closed-loop callers for `dur`, taking the plan's requests in
/// order: each sends its next request when the previous answer arrives.
/// Returns the samples and the wall time.
fn closed_phase(sys: &System, plan: &[&Req], dur: Duration) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + dur;
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < end {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let req = plan[k % plan.len()];
                        let sent = Instant::now();
                        let (got, connected) = exchange(&sys.addr, &req.target);
                        out.push(Sample {
                            req: k as u64,
                            due: sent,
                            sent,
                            connected,
                            done: Instant::now(),
                            outcome: classify(&got, req),
                            degraded: matches!(got, Ok((206, _))),
                        });
                    }
                    out
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    (samples, start.elapsed().as_secs_f64())
}

/// Checks every sample; returns latencies, with a failed request's as
/// infinite (it misses any latency limit and never counts as served).
fn judge(samples: &[Sample], phase: &str, rec: &mut Record) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            let ok = rec.check(s.outcome == Outcome::Ok, || {
                format!("serve {phase}: request {} got {:?}", s.req, s.outcome)
            });
            if ok {
                s.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Share of each round the serve phases take: closed-loop warm-up,
/// `r_low`, `r_high`, closed-loop capacity (the ramp, in traced runs).
pub const SHARES: [f64; 4] = [0.05, 0.22, 0.45, 0.28];

/// The serve phase, run in rounds: each round a short closed-loop
/// warm-up, an open loop at `r_low`, one at `r_high`, and (untraced) the
/// two-connection closed-loop capacity.
pub struct Serve<'a> {
    inp: &'a Inputs,
    sys: &'a System,
    cat: Catalog,
    rng: Xoshiro256pp,
    next_id: u64,
    low: Vec<Sample>,
    high: Vec<Sample>,
    capacity: Vec<Sample>,
    capacity_s: f64,
    /// Program telemetry during the `r_low` and `r_high` phases (traced).
    tallies: Option<[Tally; 2]>,
    traced: bool,
}

impl<'a> Serve<'a> {
    pub fn new(inp: &'a Inputs, sys: &'a System, traced: bool) -> Result<Self, String> {
        let store = Store::open(&sys.serve_path).map_err(|e| format!("open serve store: {e}"))?;
        Ok(Self {
            inp,
            sys,
            cat: catalog(&store, inp).map_err(|e| format!("reference answers: {e}"))?,
            rng: Xoshiro256pp::seed_from_u64(inp.seed ^ 0x5E7E),
            next_id: 0,
            low: Vec::new(),
            high: Vec::new(),
            capacity: Vec::new(),
            capacity_s: 0.0,
            tallies: traced.then(Default::default),
            traced,
        })
    }

    fn open(&mut self, rate: f64, dur: Duration, which: usize) -> Vec<Sample> {
        let n = (rate * dur.as_secs_f64()).round().max(1.0) as usize;
        let plan = self.cat.plan(n, &mut self.rng);
        let first_id = self.next_id;
        self.next_id += n as u64;
        let sys = self.sys;
        match &mut self.tallies {
            Some(t) => tallied(Some(&mut t[which]), || {
                open_phase(sys, &plan, rate, first_id)
            }),
            None => open_phase(sys, &plan, rate, first_id),
        }
    }

    pub fn round(&mut self, budget: Duration, rec: &mut Record) {
        let (r_low, r_high) = rates(self.inp.workload);
        let part = |i: usize| budget.mul_f64(SHARES[i]);
        let plan = self.cat.plan(1000, &mut self.rng);
        let (warm, _) = closed_phase(self.sys, &plan, part(0));
        judge(&warm, "warm-up", rec);
        let low = self.open(r_low, part(1), 0);
        self.low.extend(low);
        let high = self.open(r_high, part(2), 1);
        self.high.extend(high);
        if !self.traced {
            let plan = self.cat.plan(10_000, &mut self.rng);
            let (cap, wall) = closed_phase(self.sys, &plan, part(3));
            self.capacity.extend(cap);
            self.capacity_s += wall;
        }
    }

    /// Puts the serve metrics. A traced run spends `ramp` on a ramp above
    /// `r_high` instead of the capacity phase.
    pub fn finish(&mut self, ramp: Duration, rec: &mut Record) {
        let low_lat = judge(&self.low, "r_low", rec);
        let high_lat = judge(&self.high, "r_high", rec);
        rec.put("serve_p50_ms", stats::median(&low_lat), "ms");
        rec.samples("serve_p50_ms", low_lat.len());
        let (pct, p99) = stats::tail(&high_lat, 99.0).unwrap_or((0.0, stats::min(&high_lat)));
        rec.put("serve_p99_ms", p99, "ms");
        rec.samples(format!("serve_p99_ms (p{pct})"), high_lat.len());

        let Some(tallies) = self.tallies.take() else {
            let served = judge(&self.capacity, "capacity", rec)
                .iter()
                .filter(|l| l.is_finite())
                .count();
            rec.put("serve_max_rps", served as f64 / self.capacity_s, "1/s");
            rec.samples("serve_max_rps", self.capacity.len());
            return;
        };
        let log = self
            .sys
            .log
            .as_ref()
            .map(|l| std::mem::take(&mut *l.lock().expect("conn log poisoned")))
            .unwrap_or_default();
        let by_req: HashMap<u64, ConnTimes> = log.iter().map(|t| (t.req, *t)).collect();
        layers("low", &self.low, &by_req, &tallies[0], rec);
        layers("high", &self.high, &by_req, &tallies[1], rec);

        let late: Vec<f64> = self.high.iter().map(Sample::late_ms).collect();
        rec.put(
            "gen.late_p99_ms",
            stats::tail(&late, 99.0).map_or(stats::min(&late), |t| t.1),
            "ms",
        );
        let answered: Vec<&Sample> = self
            .low
            .iter()
            .chain(&self.high)
            .filter(|s| s.outcome == Outcome::Ok)
            .collect();
        rec.put(
            "serve.degraded_share",
            answered.iter().filter(|s| s.degraded).count() as f64 / answered.len().max(1) as f64,
            "ratio",
        );
        let (_, r_high) = rates(self.inp.workload);
        for k in 1..=RAMP_STEPS {
            let rate = r_high * 1.1f64.powi(k as i32);
            let t = Instant::now();
            let step = self.open(rate, ramp.div_f64(RAMP_STEPS as f64), 1);
            let wall = t.elapsed().as_secs_f64();
            let lat = judge(&step, "ramp", rec);
            let served = lat.iter().filter(|l| l.is_finite()).count();
            rec.put(format!("serve.step{k}.rps"), served as f64 / wall, "1/s");
            rec.put(format!("serve.step{k}.p50_ms"), stats::median(&lat), "ms");
            rec.put(
                format!("serve.step{k}.p99_ms"),
                stats::tail(&lat, 99.0).map_or(stats::min(&lat), |t| t.1),
                "ms",
            );
        }
    }
}

/// Where the client-observed time of one rate's requests went. Client
/// time = connect + pre-dequeue (accept poll + queue wait) + server
/// handling + unattributed; the server's own histograms split handling
/// into query and HTTP.
fn layers(
    rate: &'static str,
    samples: &[Sample],
    by_req: &HashMap<u64, ConnTimes>,
    tally: &Tally,
    rec: &mut Record,
) {
    let us = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e6;
    let mut spans = Vec::new();
    let (mut connect, mut accept, mut pre, mut client) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in samples {
        let Some(t) = by_req.get(&s.req) else {
            continue;
        };
        let root = trace::assemble("serve.request", s.req, 0, s.sent, s.done);
        let id = root.id;
        spans.push(root);
        spans.push(trace::assemble(
            "serve.connect",
            s.req,
            id,
            s.sent,
            s.connected,
        ));
        spans.push(trace::assemble(
            "serve.pre_dequeue",
            s.req,
            id,
            s.connected,
            t.first_call,
        ));
        spans.push(trace::assemble(
            "serve.server",
            s.req,
            id,
            t.first_call,
            t.closed,
        ));
        client.push(us(s.sent, s.done));
        connect.push(us(s.sent, s.connected));
        accept.push(us(s.connected, t.accepted));
        pre.push(us(s.connected, t.first_call));
    }
    rec.check(!client.is_empty(), || {
        format!("serve {rate}: no request matched a server-side connection")
    });
    // Unattributed time is the self time of the request spans: what no
    // child layer covers.
    let (mut unattributed, mut total) = (0.0, 0.0);
    for (s, st) in spans.iter().zip(trace::self_times(&spans)) {
        if s.parent == 0 {
            unattributed += st as f64;
            total += (s.end_ns - s.start_ns) as f64;
        }
    }
    trace::keep(spans);
    let request = tally.mean("serve.request.us");
    let query = tally.mean("store.query") / 1e3;
    let p = |m: &str| format!("serve.{rate}.{m}");
    rec.put(p("client_us"), stats::mean(&client), "us");
    rec.put(p("connect_us"), stats::mean(&connect), "us");
    rec.put(p("accept_us"), stats::mean(&accept), "us");
    rec.put(p("pre_dequeue_us"), stats::mean(&pre), "us");
    rec.put(p("request_us"), request, "us");
    rec.put(p("query_us"), query, "us");
    rec.put(p("http_us"), request - query, "us");
    rec.put(
        p("unattributed_share"),
        if total > 0.0 {
            unattributed / total
        } else {
            0.0
        },
        "ratio",
    );
    rec.put(
        p("rayon_calls_per_request"),
        tally.counter("rayon.parallel_calls") / samples.len().max(1) as f64,
        "count",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn want() -> Req {
        Req {
            target: "/query?agg=sum".into(),
            status: 200,
            body: b"{\"value\":1}\n".to_vec(),
        }
    }

    #[test]
    fn shed_errors_closes_and_wrong_bodies_are_failures() {
        let w = want();
        let got = |status: u16, body: &[u8]| Ok((status, body.to_vec()));
        assert_eq!(classify(&got(200, &w.body), &w), Outcome::Ok);
        assert_eq!(classify(&got(429, b"queue full"), &w), Outcome::Status(429));
        assert_eq!(classify(&got(503, b"draining"), &w), Outcome::Status(503));
        assert_eq!(classify(&got(500, b"panic"), &w), Outcome::Status(500));
        assert_eq!(classify(&got(206, &w.body), &w), Outcome::Status(206));
        assert_eq!(
            classify(&got(200, b"{\"value\":2}\n"), &w),
            Outcome::Mismatch
        );
        let reset = Err(io::Error::new(io::ErrorKind::ConnectionReset, "reset"));
        assert_eq!(classify(&reset, &w), Outcome::Closed);

        // A failure counts against the run and as an infinite latency,
        // never as a served request.
        let now = Instant::now();
        let sample = |outcome| Sample {
            req: 0,
            due: now,
            sent: now,
            connected: now,
            done: now,
            outcome,
            degraded: false,
        };
        let mut rec = Record::default();
        let lat = judge(
            &[sample(Outcome::Ok), sample(Outcome::Status(429))],
            "t",
            &mut rec,
        );
        assert_eq!((rec.attempted, rec.failed), (2, 1));
        assert!(lat[0].is_finite() && lat[1].is_infinite());
    }

    #[test]
    fn a_stall_delays_later_requests_and_shows_as_generator_lag() {
        // 1000 requests/s from one sender; request 10 stalls for 50 ms.
        let start = Instant::now();
        let samples = open_loop(start, 1000.0, 200, 0, 1, |k| {
            if k == 10 {
                std::thread::sleep(Duration::from_millis(50));
            }
            (Outcome::Ok, false, Instant::now())
        });
        assert_eq!(samples.len(), 200);
        // Request 11 was due 1 ms after request 10 but could only be sent
        // when the stall ended: its latency carries that wait although its
        // own service time is ~0.
        let s = &samples[11];
        assert!(s.late_ms() >= 45.0, "late {}", s.late_ms());
        assert!(s.latency_ms() >= 45.0);
        assert!((s.done - s.sent).as_secs_f64() * 1e3 < 5.0);
        // The lag decays: ~50 requests are late, so the tail of the
        // generator's lateness is large while its median stays small.
        let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
        let (pct, tail) = stats::tail(&late, 99.0).unwrap();
        assert_eq!(pct, 95.0);
        assert!(tail >= 20.0, "tail lag {tail}");
        assert!(stats::median(&late) < 5.0);
    }

    #[test]
    fn the_plan_keeps_the_mix_exact_and_spaces_full_sums_per_sender() {
        let req = |t: &str| Req {
            target: t.into(),
            status: 200,
            body: Vec::new(),
        };
        let cat = Catalog {
            windows: (0..5).map(|i| req(&format!("w{i}"))).collect(),
            pruned: (0..3).map(|i| req(&format!("p{i}"))).collect(),
            full: req("full"),
        };
        let plan = cat.plan(2000, &mut Xoshiro256pp::seed_from_u64(7));
        assert_eq!(plan.len(), 2000);
        for block in plan.chunks(10) {
            let count = |c: char| block.iter().filter(|r| r.target.starts_with(c)).count();
            assert_eq!((count('w'), count('p'), count('f')), (6, 3, 1));
        }
        for sender in 0..2 {
            let mine: Vec<usize> = (sender..plan.len())
                .step_by(2)
                .filter(|&k| plan[k].target == "full")
                .collect();
            assert_eq!(mine.len(), 100);
            assert!(mine.windows(2).all(|w| w[1] - w[0] == 20));
        }
    }

    #[test]
    fn request_ids_are_read_from_the_request_head() {
        let head = b"GET /query?agg=sum&lid=4711 HTTP/1.1\r\nHost: blazr\r\n\r\n";
        assert_eq!(request_id(head), Some(4711));
        assert_eq!(request_id(b"GET /healthz HTTP/1.1\r\n\r\n"), None);
    }
}
