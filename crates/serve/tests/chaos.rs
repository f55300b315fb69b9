//! The chaos suite: sweep scripted transport faults across **every**
//! operation boundary of a request exchange — connection resets, broken
//! pipes, EINTR transients, torn reads, torn writes (the client really
//! receives the truncated prefix), and slow-loris stalls — against both
//! an intact and a bit-rotted store, and assert the server never
//! panics, never leaks a worker or a queued connection, and always
//! either answers a well-formed response or closes cleanly. After every
//! injected fault the server must still answer a follow-up request
//! bit-identically to a direct store query.

mod common;

use blazr_serve::http::http_get;
use blazr_serve::transport::{FaultyTransport, MemTransport, TransportOp};
use blazr_serve::{encode_query_body, ClientResponse, ServeConfig, Server};
use blazr_store::{Aggregate, Query, Store};
use blazr_telemetry as tel;
use blazr_util::fault::{Fault, Rule};
use common::{corrupt_chunk, tmp_dir, write_store};
use std::io;
use std::path::Path;
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
        accept_poll: Duration::from_millis(2),
        drain_timeout: Duration::from_secs(2),
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

/// A concurrent storm against a small queue: every response the clients
/// manage to read is well-formed, nothing panics, nothing leaks. (Load
/// *statistics* live in the loadgen bench; this is the safety check.)
#[test]
fn concurrent_storm_stays_well_formed() {
    let dir = tmp_dir("storm");
    let path = write_store(&dir);
    corrupt_chunk(&path, 1);
    let mem = MemTransport::new();
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 4,
        deadline: Duration::from_millis(500),
        accept_poll: Duration::from_millis(1),
        ..chaos_cfg()
    };
    let server = Server::start(Store::open(&path).unwrap(), Box::new(mem.clone()), cfg).unwrap();

    let mut handles = Vec::new();
    for _ in 0..16 {
        let mem = mem.clone();
        handles.push(std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            for _ in 0..8 {
                match run_exchange(&mem) {
                    Ok(resp) => outcomes.push(resp.status),
                    Err(_) => outcomes.push(0), // clean close
                }
            }
            outcomes
        }));
    }
    let mut statuses = Vec::new();
    for h in handles {
        statuses.extend(h.join().expect("client thread panicked"));
    }
    for &s in &statuses {
        assert!(
            s == 0 || VALID_STATUSES.contains(&s),
            "storm produced invalid status {s}"
        );
    }
    assert!(
        statuses.contains(&206),
        "the degraded store should have answered at least one 206"
    );

    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.queued, 0);
    println!(
        "storm: {} requests, {} shed, {} served, zero panics/leaks",
        statuses.len(),
        stats.shed,
        stats.served
    );
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
