//! The chaos suite: sweep scripted transport faults across **every**
//! operation boundary of a request exchange — connection resets, broken
//! pipes, EINTR transients, torn reads, torn writes (the client really
//! receives the truncated prefix), and slow-loris stalls — against both
//! an intact and a bit-rotted store, and assert the server never
//! panics, never leaks a worker or a queued connection, and always
//! either answers a well-formed response or closes cleanly. After every
//! injected fault the server must still answer a follow-up request
//! bit-identically to a direct store query. A loopback TCP storm then
//! checks the overload contract: shedding engages, no deadline overruns,
//! and answers are degraded exactly when the store is bit-rotted.

mod common;

use blazr::{IndexType, ScalarType, Settings};
use blazr_serve::http::http_get;
use blazr_serve::transport::{FaultyTransport, MemTransport, TcpConn, TcpTransport, TransportOp};
use blazr_serve::{encode_query_body, ClientResponse, ServeConfig, Server, ServerStats};
use blazr_store::{Aggregate, Query, Store, StoreWriter};
use blazr_telemetry as tel;
use blazr_tensor::NdArray;
use blazr_util::fault::{Fault, Rule};
use common::{corrupt_chunk, tmp_dir, write_store};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
const TARGET: &str = "/query?agg=sum";

/// Every status the server legitimately emits; anything else in a
/// parsed response is a contract violation.
const VALID_STATUSES: &[u16] = &[200, 206, 400, 404, 405, 408, 429, 431, 500, 503, 504, 505];

fn chaos_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 8,
        deadline: Duration::from_millis(500),
        ..ServeConfig::default()
    }
}

/// Starts a server over a fault-wrapped in-process transport, returning
/// the dialing handle and the fault-plan handle.
fn start_server(path: &Path) -> (Server, MemTransport, FaultyTransport) {
    let mem = MemTransport::new();
    let faulty = FaultyTransport::new(mem.clone());
    let server = Server::start(
        Store::open(path).unwrap(),
        Box::new(faulty.clone()),
        chaos_cfg(),
    )
    .unwrap();
    (server, mem, faulty)
}

/// One client exchange. `Err` means the connection died without a
/// parseable response — a clean close, the acceptable alternative to a
/// well-formed answer.
fn run_exchange(mem: &MemTransport) -> io::Result<ClientResponse> {
    let mut conn = mem.connect();
    http_get(&mut conn, TARGET, CLIENT_TIMEOUT)
}

/// The fault menu the sweep injects at every boundary.
/// A tear is a real tear on whichever op it lands: a read delivers at
/// most `keep` bytes then EOF, a write delivers `keep` bytes then resets.
fn fault_menu() -> Vec<(&'static str, Fault)> {
    vec![
        ("reset", Fault::Fail(io::ErrorKind::ConnectionReset)),
        ("broken-pipe", Fault::Fail(io::ErrorKind::BrokenPipe)),
        (
            "transient-x2",
            Fault::Transient {
                failures: 2,
                kind: io::ErrorKind::Interrupted,
            },
        ),
        ("tear-17", Fault::Tear { keep: 17 }),
        ("tear-5", Fault::Tear { keep: 5 }),
        (
            "stall",
            Fault::Stall {
                dur: Duration::from_millis(20),
            },
        ),
    ]
}

/// Enumerates how many operations of each class one clean exchange
/// performs (the boundaries the sweep will break one at a time).
fn enumerate_ops(path: &Path) -> Vec<(TransportOp, u64)> {
    let (server, mem, faulty) = start_server(path);
    run_exchange(&mem).expect("clean dry run");
    let counts: Vec<_> = [TransportOp::Accept, TransportOp::Read, TransportOp::Write]
        .into_iter()
        .map(|op| (op, faulty.script().op_count(op)))
        .collect();
    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);
    let total: u64 = counts.iter().map(|&(_, n)| n).sum();
    assert!(
        total >= 3,
        "dry run should touch every op class: {counts:?}"
    );
    counts
}

/// The sweep body, shared by the intact-store and degraded-store runs:
/// `reference` is what an undisturbed exchange must return, bit-exactly.
fn sweep(path: &Path, reference_status: u16, reference_body: &str) {
    let ops = enumerate_ops(path);
    let mut cases = 0;
    for &(op, count) in &ops {
        for nth in 0..count {
            for (name, fault) in fault_menu() {
                let case = format!("{op:?} #{nth} {name}");
                let (server, mem, faulty) = start_server(path);
                faulty.script().arm(Rule { op, nth, fault });
                match run_exchange(&mem) {
                    Ok(resp) => {
                        assert!(
                            VALID_STATUSES.contains(&resp.status),
                            "{case}: invalid status {}",
                            resp.status
                        );
                        // The parser already enforced Content-Length, so
                        // a returned response is well-formed by
                        // construction; a degraded/complete answer must
                        // additionally be the canonical body.
                        if resp.status == reference_status {
                            assert_eq!(resp.body_text(), reference_body, "{case}");
                        }
                    }
                    Err(_) => {
                        // Clean close: the fault killed the connection
                        // before a response could exist. Acceptable —
                        // the follow-up below proves the server
                        // survived it.
                    }
                }
                faulty.script().clear();
                let verify = run_exchange(&mem)
                    .unwrap_or_else(|e| panic!("{case}: server dead after fault: {e}"));
                assert_eq!(verify.status, reference_status, "{case}");
                assert_eq!(
                    verify.body_text(),
                    reference_body,
                    "{case}: answers drifted"
                );
                let stats = server.shutdown();
                assert_eq!(stats.panics, 0, "{case}: worker panicked");
                assert_eq!(stats.in_flight, 0, "{case}: leaked in-flight request");
                assert_eq!(stats.queued, 0, "{case}: leaked queued connection");
                cases += 1;
            }
        }
    }
    println!(
        "chaos sweep: {cases} fault cases over {} boundaries, zero panics/leaks",
        ops.iter().map(|&(_, n)| n).sum::<u64>()
    );
}

#[test]
fn fault_sweep_on_intact_store() {
    let dir = tmp_dir("sweep-intact");
    let path = write_store(&dir);
    let q = Query::all(Aggregate::Sum);
    let (r, report) = Store::open(&path).unwrap().query_degraded(&q).unwrap();
    assert!(!report.is_degraded());
    sweep(&path, 200, &encode_query_body(&r, &report));
}

#[test]
fn fault_sweep_on_degraded_store() {
    let dir = tmp_dir("sweep-degraded");
    let path = write_store(&dir);
    corrupt_chunk(&path, 3);
    let q = Query::all(Aggregate::Sum);
    let (r, report) = Store::open(&path).unwrap().query_degraded(&q).unwrap();
    assert!(report.is_degraded(), "fixture must be degraded");
    // Served degraded answers are 206 and bit-identical to the direct
    // query_degraded — even with faults tearing at the transport.
    sweep(&path, 206, &encode_query_body(&r, &report));
}

/// The storm's store: 8 chunks of 64x64 f32/i16 with 8x8 blocks. Its
/// per-request decode work is what keeps a 2-worker, 4-slot queue
/// shedding under 50 clients, so do not shrink it.
fn write_storm_store(dir: &Path) -> PathBuf {
    let path = dir.join("storm.blzs");
    let mut w = StoreWriter::create(
        &path,
        Settings::new(vec![8, 8]).unwrap(),
        ScalarType::F32,
        IndexType::I16,
    )
    .unwrap();
    for t in 0..8u64 {
        let frame = NdArray::from_fn(vec![64, 64], |i| {
            ((i[0] as f64 + t as f64) / 7.0).sin() + i[1] as f64 * 0.01
        });
        w.append(t, &frame).unwrap();
    }
    w.finish().unwrap();
    path
}

/// One storm client request over loopback TCP, retrying the connect
/// with backoff while the accept backlog is saturated. Status 0 means
/// the connection closed without a parseable response.
fn tcp_fetch(addr: &str) -> u16 {
    for backoff_ms in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
        if let Ok(mut conn) = TcpConn::connect(addr) {
            return http_get(&mut conn, TARGET, CLIENT_TIMEOUT).map_or(0, |r| r.status);
        }
        std::thread::sleep(Duration::from_millis(backoff_ms));
    }
    0
}

/// One storm cell: a fresh server on an ephemeral loopback port,
/// `clients` threads splitting 200 sequential requests between them,
/// then a drain. Returns every status the clients saw and the drained
/// server's stats.
fn storm_cell(path: &Path, clients: usize) -> (Vec<u16>, ServerStats) {
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let listener = TcpTransport::bind("127.0.0.1:0").unwrap();
    let server = Server::start(Store::open(path).unwrap(), Box::new(listener), cfg).unwrap();
    let addr = server.local_addr().to_string();
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let (addr, barrier) = (addr.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                (0..200 / clients)
                    .map(|_| tcp_fetch(&addr))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let statuses = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread panicked"))
        .collect();
    (statuses, server.shutdown())
}

/// A concurrent storm over loopback TCP against a 2-worker server with
/// a 4-slot queue, at 10 and 50 clients, on an intact and a bit-rotted
/// store. Per cell: every response is well-formed, no worker panics,
/// no connection leaks, no deadline overruns (`504`), something is
/// answered, answers are degraded (`206`) exactly when the store is
/// bit-rotted, and 50 clients make the server shed (`429`). Each cell
/// prints one `storm` line of counts: `served` is every answer (`200`
/// or `206`), `degraded` the `206`s among them, `shed` the `429`s.
/// Latency is the ledger's to measure.
#[test]
fn concurrent_storm_stays_well_formed() {
    let dir = tmp_dir("storm");
    let intact = write_storm_store(&dir);
    let rotted = dir.join("rotted.blzs");
    std::fs::copy(&intact, &rotted).unwrap();
    corrupt_chunk(&rotted, 3);

    for (kind, path) in [("intact", &intact), ("bit-rotted", &rotted)] {
        for clients in [10, 50] {
            let (statuses, stats) = storm_cell(path, clients);
            let cell = format!("store={kind} clients={clients}");
            let count = |s: u16| statuses.iter().filter(|&&x| x == s).count();
            let (ok, degraded, shed) = (count(200), count(206), count(429));
            println!(
                "storm {cell} served={} degraded={degraded} shed={shed}",
                ok + degraded
            );
            for &s in &statuses {
                assert!(
                    s == 0 || VALID_STATUSES.contains(&s),
                    "{cell}: invalid status {s}"
                );
            }
            assert_eq!(stats.panics, 0, "{cell}: worker panicked");
            assert_eq!(stats.in_flight, 0, "{cell}: leaked in-flight request");
            assert_eq!(stats.queued, 0, "{cell}: leaked queued connection");
            assert_eq!(count(504), 0, "{cell}: deadline overrun");
            assert!(ok + degraded > 0, "{cell}: nothing was served");
            if kind == "intact" {
                assert_eq!(degraded, 0, "{cell}: intact store answered 206");
            } else {
                assert_eq!(ok, 0, "{cell}: bit-rotted store answered 200");
            }
            if clients == 50 {
                assert!(shed > 0, "{cell}: no 429, shedding never engaged");
            }
        }
    }
}

/// Transient transport faults are absorbed by the shared retry policy
/// and surface in the `serve.io.*` counters, symmetric with the
/// store's `store.io.*`.
#[test]
fn transient_faults_are_retried_and_counted() {
    let dir = tmp_dir("retry-counters");
    let path = write_store(&dir);
    let (server, mem, faulty) = start_server(&path);

    tel::set_mode(tel::Mode::Counters);
    let script = faulty.script();
    script.transient(TransportOp::Read, script.op_count(TransportOp::Read), 2);
    let resp = run_exchange(&mem).expect("retries should absorb the transient");
    assert_eq!(resp.status, 200);
    let snap = tel::registry().snapshot();
    tel::set_mode(tel::Mode::Off);
    let retries = snap.counter("serve.io.retries").unwrap_or(0);
    assert!(retries >= 2, "expected ≥2 counted retries, saw {retries}");

    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);
    println!("transient: {retries} retries absorbed, response stayed 200");
}
