//! End-to-end server behavior: the status-code contract (200 complete /
//! 206 degraded / 429 shed / 503 draining / 504 deadline), bit-identity
//! of served bodies with direct store queries, graceful drain, and the
//! health/readiness/metrics endpoints — over both TCP and the
//! in-process transport.

mod common;

use blazr_serve::http::{http_get, read_response};
use blazr_serve::transport::{Conn, Listener, MemTransport, TcpConn, TcpTransport};
use blazr_serve::{encode_query_body, ServeConfig, Server};
use blazr_store::{Aggregate, Query, Store};
use common::{corrupt_chunk, tmp_dir, write_store};
use std::time::Duration;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

fn quick_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 8,
        deadline: Duration::from_millis(500),
        accept_poll: Duration::from_millis(2),
        drain_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

/// GETs `target` over a fresh in-process connection.
fn mem_get(listener: &MemTransport, target: &str) -> blazr_serve::ClientResponse {
    let mut conn = listener.connect();
    http_get(&mut conn, target, CLIENT_TIMEOUT).unwrap()
}

#[test]
fn tcp_end_to_end_matches_direct_queries() {
    let dir = tmp_dir("tcp-e2e");
    let path = write_store(&dir);
    let q = Query::all(Aggregate::Sum);
    let direct = Store::open(&path).unwrap().query(&q).unwrap();

    let listener = TcpTransport::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let server =
        Server::start(Store::open(&path).unwrap(), Box::new(listener), quick_cfg()).unwrap();

    let mut conn = TcpConn::connect(&addr).unwrap();
    let resp = http_get(&mut conn, "/query?agg=sum", CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body_text());
    let expect = format!("\"value\":{}", direct.value);
    assert!(
        resp.body_text().contains(&expect),
        "served body {:?} missing {expect:?}",
        resp.body_text()
    );
    assert!(resp.body_text().contains("\"degraded\":false"));

    let mut conn = TcpConn::connect(&addr).unwrap();
    let health = http_get(&mut conn, "/healthz", CLIENT_TIMEOUT).unwrap();
    assert_eq!(health.status, 200);

    let stats = server.shutdown();
    assert!(stats.served >= 2, "stats: {stats:?}");
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.panics, 0);
}

/// Accepted sockets inherit the listener's accept timeout
/// (`SO_RCVTIMEO` = `accept_poll`). A client that pauses for several
/// such periods before sending its head must still be answered: the
/// request deadline, not the inherited timeout, bounds the read.
#[test]
fn tcp_slow_head_outlives_the_inherited_accept_timeout() {
    let dir = tmp_dir("tcp-slow-head");
    let path = write_store(&dir);
    let q = Query::all(Aggregate::Sum);
    let (direct, report) = Store::open(&path).unwrap().query_degraded(&q).unwrap();
    let expected_body = encode_query_body(&direct, &report);

    let cfg = ServeConfig {
        accept_poll: Duration::from_millis(20),
        ..quick_cfg()
    };
    let listener = TcpTransport::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let server =
        Server::start(Store::open(&path).unwrap(), Box::new(listener), cfg.clone()).unwrap();

    let mut conn = TcpConn::connect(&addr).unwrap();
    std::thread::sleep(3 * cfg.accept_poll);
    let resp = http_get(&mut conn, "/query?agg=sum", CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body_text());
    assert_eq!(resp.body_text(), expected_body);

    let stats = server.shutdown();
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.panics, 0);
}

#[test]
fn degraded_store_serves_206_with_bit_identical_body() {
    let dir = tmp_dir("degraded");
    let path = write_store(&dir);
    corrupt_chunk(&path, 2);

    let q = Query::all(Aggregate::Mean);
    let (direct, report) = Store::open(&path).unwrap().query_degraded(&q).unwrap();
    assert!(report.is_degraded(), "fixture must actually be degraded");
    let expected_body = encode_query_body(&direct, &report);

    let listener = MemTransport::new();
    let server = Server::start(
        Store::open(&path).unwrap(),
        Box::new(listener.clone()),
        quick_cfg(),
    )
    .unwrap();

    let resp = mem_get(&listener, "/query?agg=mean");
    assert_eq!(resp.status, 206, "degraded answers use a distinct status");
    assert_eq!(
        resp.body_text(),
        expected_body,
        "served degraded body must be bit-identical to a direct query_degraded"
    );
    assert!(resp.body_text().contains("\"bounds_partial\":true"));

    // Strict mode refuses the damage instead of degrading.
    let strict = mem_get(&listener, "/query?agg=mean&mode=strict");
    assert_eq!(strict.status, 500);
    assert!(strict.body_text().contains("corrupt"));

    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);
}

#[test]
fn queue_overflow_sheds_with_429_and_retry_after() {
    let dir = tmp_dir("shed");
    let path = write_store(&dir);
    let listener = MemTransport::new();
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        deadline: Duration::from_millis(400),
        accept_poll: Duration::from_millis(2),
        ..quick_cfg()
    };
    let server =
        Server::start(Store::open(&path).unwrap(), Box::new(listener.clone()), cfg).unwrap();

    // Two silent connections: the first occupies the only worker (it
    // blocks reading until the request deadline), the second fills the
    // 1-slot queue.
    let hold1 = listener.connect();
    while server.stats().in_flight < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let hold2 = listener.connect();
    while server.stats().queued < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // The third is shed at admission: 429 with Retry-After.
    let mut conn = listener.connect();
    let resp = read_response(&mut conn, CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 429);
    assert!(resp.header("retry-after").is_some());

    // The held connections eventually get 408s (deadline reading the
    // request head), not hangs.
    for mut held in [hold1, hold2] {
        let resp = read_response(&mut held, CLIENT_TIMEOUT).unwrap();
        assert_eq!(resp.status, 408);
    }

    let stats = server.shutdown();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.panics, 0);
}

#[test]
fn drain_rejects_new_work_but_finishes_in_flight() {
    let dir = tmp_dir("drain");
    let path = write_store(&dir);
    let listener = MemTransport::new();
    // A roomy deadline: the in-flight request is completed by hand
    // below and must not 408 while the test drives the drain.
    let cfg = ServeConfig {
        deadline: Duration::from_secs(3),
        ..quick_cfg()
    };
    let server =
        Server::start(Store::open(&path).unwrap(), Box::new(listener.clone()), cfg).unwrap();

    // Start a request but withhold its final bytes until after the
    // drain begins: it was admitted while running, so it must finish.
    let mut slow = listener.connect();
    slow.write(b"GET /query?agg=sum HTTP/1.1\r\n").unwrap();
    while server.stats().in_flight < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    server.begin_drain();
    assert_eq!(server.state(), "draining");

    // New connections during the drain are answered 503.
    let mut late = listener.connect();
    let resp = read_response(&mut late, CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 503);

    // The in-flight request completes with a real answer.
    slow.write(b"\r\n").unwrap();
    let resp = read_response(&mut slow, CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body_text());

    let stats = server.join();
    assert!(stats.drain_rejects >= 1, "stats: {stats:?}");
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.panics, 0);
}

#[test]
fn max_requests_self_drains() {
    let dir = tmp_dir("maxreq");
    let path = write_store(&dir);
    let listener = MemTransport::new();
    let cfg = ServeConfig {
        max_requests: Some(3),
        ..quick_cfg()
    };
    let server =
        Server::start(Store::open(&path).unwrap(), Box::new(listener.clone()), cfg).unwrap();
    for _ in 0..3 {
        let resp = mem_get(&listener, "/query?agg=count");
        assert_eq!(resp.status, 200);
    }
    // join() returns on its own: the third served request triggered the
    // drain, the drain observed zero in-flight, and the threads exited.
    let stats = server.join();
    assert_eq!(stats.served, 3);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn request_deadline_cancels_the_scan_with_504() {
    let dir = tmp_dir("deadline");
    let path = write_store(&dir);
    let listener = MemTransport::new();
    let server = Server::start(
        Store::open(&path).unwrap(),
        Box::new(listener.clone()),
        quick_cfg(),
    )
    .unwrap();

    // deadline_ms=0: the head is already buffered in the pipe so the
    // read succeeds, then the first cooperative check inside the store
    // scan observes the expired deadline and cancels.
    let resp = mem_get(&listener, "/query?agg=sum&deadline_ms=0");
    assert_eq!(resp.status, 504, "body: {}", resp.body_text());
    assert!(resp.body_text().contains("deadline"));

    // The deadline must not extend past the server's own budget.
    let resp = mem_get(&listener, "/query?agg=sum&deadline_ms=999999999");
    assert_eq!(resp.status, 200);

    let stats = server.shutdown();
    assert!(stats.deadline_hits >= 1);
    assert_eq!(stats.panics, 0);
}

#[test]
fn predicates_and_label_ranges_reach_the_store() {
    let dir = tmp_dir("params");
    let path = write_store(&dir);
    let store = Store::open(&path).unwrap();
    let q = Query {
        from_label: 10,
        to_label: 40,
        predicate: Some(blazr_store::Predicate::ValueInRange { lo: -0.5, hi: 0.5 }),
        aggregate: Aggregate::Count,
    };
    let (direct, report) = store.query_degraded(&q).unwrap();
    assert!(!report.is_degraded());

    let listener = MemTransport::new();
    let server = Server::start(store, Box::new(listener.clone()), quick_cfg()).unwrap();
    let resp = mem_get(
        &listener,
        "/query?from=10&to=40&value_lo=-0.5&value_hi=0.5&agg=count",
    );
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_text(), encode_query_body(&direct, &report));
    server.shutdown();
}

#[test]
fn malformed_requests_get_4xx_not_hangs() {
    let dir = tmp_dir("badreq");
    let path = write_store(&dir);
    let listener = MemTransport::new();
    let server = Server::start(
        Store::open(&path).unwrap(),
        Box::new(listener.clone()),
        quick_cfg(),
    )
    .unwrap();

    let cases: &[(&str, u16)] = &[
        ("POST /query HTTP/1.1\r\n\r\n", 405),
        ("GET /query HTTP/2\r\n\r\n", 505),
        ("total garbage\r\n\r\n", 400),
        ("GET /nope HTTP/1.1\r\n\r\n", 404),
        ("GET /query?agg=bogus HTTP/1.1\r\n\r\n", 400),
        ("GET /query?from=abc HTTP/1.1\r\n\r\n", 400),
        (
            "GET /query?value_lo=0&mean_hi=1&agg=sum HTTP/1.1\r\n\r\n",
            400,
        ),
        ("GET /query?value_lo=5&value_hi=1 HTTP/1.1\r\n\r\n", 400),
        ("GET /query?mean_lo=nan HTTP/1.1\r\n\r\n", 400),
    ];
    for (raw, want) in cases {
        let mut conn = listener.connect();
        conn.write(raw.as_bytes()).unwrap();
        let resp = read_response(&mut conn, CLIENT_TIMEOUT).unwrap();
        assert_eq!(resp.status, *want, "request {raw:?}");
    }

    // An oversized head is rejected with 431, not buffered forever.
    let mut conn = listener.connect();
    let huge = format!("GET /query?junk={} HTTP/1.1\r\n\r\n", "x".repeat(9000));
    conn.write(huge.as_bytes()).unwrap();
    let resp = read_response(&mut conn, CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, 431);

    // A connection that closes without sending anything is a clean
    // no-response close; the server stays healthy.
    drop(listener.connect());
    let resp = mem_get(&listener, "/healthz");
    assert_eq!(resp.status, 200);

    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);
}

#[test]
fn metrics_endpoint_exposes_serve_counters() {
    let dir = tmp_dir("metrics");
    let path = write_store(&dir);
    let listener = MemTransport::new();
    let server = Server::start(
        Store::open(&path).unwrap(),
        Box::new(listener.clone()),
        quick_cfg(),
    )
    .unwrap();
    blazr_telemetry::set_mode(blazr_telemetry::Mode::Counters);
    let _ = mem_get(&listener, "/query?agg=sum");
    let resp = mem_get(&listener, "/metrics");
    blazr_telemetry::set_mode(blazr_telemetry::Mode::Off);
    assert_eq!(resp.status, 200);
    let body = resp.body_text();
    assert!(
        body.contains("blazr_serve_requests_total"),
        "metrics body:\n{body}"
    );
    // Connections admitted while counting carry a queue-wait sample.
    assert!(
        body.contains("blazr_serve_queue_wait_us_count"),
        "metrics body:\n{body}"
    );
    assert!(body.contains("# TYPE"));
    server.shutdown();
}
