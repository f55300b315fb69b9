//! Load generator for the query server: concurrent clients over real
//! TCP against an intact and a bit-rotted store, reporting p50/p99
//! latency and throughput per concurrency tier, plus how the server
//! defended itself (429 sheds, 504 deadline hits).
//!
//! Prints one greppable `loadgen` line per (store, tier) pair (CI lifts
//! them into the job summary) and writes the machine-readable
//! `crates/bench/BENCH_serve.json`. Exits non-zero if the failure
//! contract breaks: any worker panic, any deadline overrun (504), a
//! leaked connection, no shedding at the top tier, or degraded answers
//! from an intact store (and vice versa).
//!
//! ```text
//! cargo run --release -p blazr-bench --bin loadgen [-- --quick]
//! ```
//!
//! `--quick` shrinks the tiers and the admission queue so the smoke run
//! still exercises shedding in a few seconds.

use blazr::{IndexType, ScalarType, Settings};
use blazr_serve::{http_get, ServeConfig, Server, TcpConn, TcpTransport};
use blazr_store::{Store, StoreWriter};
use blazr_tensor::NdArray;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(15);
const TARGET: &str = "/query?agg=sum";

/// Builds the benchmark store: 8 chunks of 64x64 so a full-range sum
/// does real decode work per request without dominating the run.
fn write_store(path: &Path) {
    let mut w = StoreWriter::create(
        path,
        Settings::new(vec![8, 8]).unwrap(),
        ScalarType::F32,
        IndexType::I16,
    )
    .expect("create store");
    for t in 0..8u64 {
        let frame = NdArray::from_fn(vec![64, 64], |i| {
            ((i[0] as f64 + t as f64) / 7.0).sin() + i[1] as f64 * 0.01
        });
        w.append(t, &frame).expect("append chunk");
    }
    w.finish().expect("finish store");
}

/// Flips one payload byte of chunk `victim` so degraded queries must
/// quarantine it (the degraded-store arm of the benchmark).
fn corrupt_chunk(path: &Path, victim: usize) {
    let offset = {
        let store = Store::open(path).unwrap();
        store.entries()[victim].offset + 7
    };
    let mut bytes = std::fs::read(path).unwrap();
    bytes[usize::try_from(offset).unwrap()] ^= 0x20;
    std::fs::write(path, bytes).unwrap();
}

/// One client request: connect (with retry while the accept backlog is
/// saturated), exchange, return (status, latency). Status 0 means the
/// connection closed without a parseable response.
fn fetch(addr: &str) -> (u16, Duration) {
    let t0 = Instant::now();
    for backoff_ms in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
        match TcpConn::connect(addr) {
            Ok(mut conn) => {
                return match http_get(&mut conn, TARGET, CLIENT_TIMEOUT) {
                    Ok(resp) => (resp.status, t0.elapsed()),
                    Err(_) => (0, t0.elapsed()),
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(backoff_ms)),
        }
    }
    (0, t0.elapsed())
}

#[derive(Default)]
struct TierResult {
    total: usize,
    ok: u64,       // 200
    degraded: u64, // 206
    shed: u64,     // 429
    draining: u64, // 503
    overrun: u64,  // 504
    other: u64,    // any other status
    closes: u64,   // no parseable response
    p50_us: f64,
    p99_us: f64,
    /// Answers per second: only `200` and `206` count. Refusals
    /// (`429`/`503`/`504`) and closes are not throughput.
    qps: f64,
    panics: u64,
    leaked: usize,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// One benchmark cell: a fresh server on an ephemeral port, `clients`
/// threads each issuing `per_client` sequential requests, then a drain
/// that must come back clean.
fn run_tier(path: &Path, clients: usize, per_client: usize, cfg: &ServeConfig) -> TierResult {
    let listener = TcpTransport::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(Store::open(path).unwrap(), Box::new(listener), cfg.clone())
        .expect("server start");
    let addr = server.local_addr().to_string();

    let barrier = Arc::new(Barrier::new(clients + 1));
    let mut handles = Vec::with_capacity(clients);
    for _ in 0..clients {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            (0..per_client).map(|_| fetch(&addr)).collect::<Vec<_>>()
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    let mut outcomes = Vec::with_capacity(clients * per_client);
    for h in handles {
        outcomes.extend(h.join().expect("client thread panicked"));
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = server.shutdown();

    let mut r = TierResult {
        total: outcomes.len(),
        panics: stats.panics,
        leaked: stats.in_flight + stats.queued,
        ..TierResult::default()
    };
    let mut served_lat = Vec::new();
    for (status, lat) in &outcomes {
        match status {
            200 => r.ok += 1,
            206 => r.degraded += 1,
            429 => r.shed += 1,
            503 => r.draining += 1,
            504 => r.overrun += 1,
            0 => r.closes += 1,
            _ => r.other += 1,
        }
        if *status == 200 || *status == 206 {
            served_lat.push(lat.as_secs_f64() * 1e6);
        }
    }
    served_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    r.p50_us = percentile(&served_lat, 0.50);
    r.p99_us = percentile(&served_lat, 0.99);
    r.qps = (r.ok + r.degraded) as f64 / wall;
    r
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // Quick mode shrinks both the offered load and the admission queue
    // so shedding still engages within a few seconds of CI time.
    let (tiers, total_requests, cfg) = if quick {
        let cfg = ServeConfig {
            workers: 2,
            queue_capacity: 4,
            ..ServeConfig::default()
        };
        (vec![10usize, 50], 200usize, cfg)
    } else {
        (vec![10usize, 100, 1000], 2000usize, ServeConfig::default())
    };
    let top_tier = *tiers.last().unwrap();

    let dir = std::env::temp_dir().join("blazr-loadgen");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let intact = dir.join("intact.blzs");
    write_store(&intact);
    let degraded = dir.join("degraded.blzs");
    std::fs::copy(&intact, &degraded).unwrap();
    corrupt_chunk(&degraded, 3);

    let stores: [(&str, &PathBuf); 2] = [("intact", &intact), ("degraded", &degraded)];
    let mut bad = false;
    let mut json_cells = Vec::new();
    for (kind, path) in stores {
        for &clients in &tiers {
            let per_client = (total_requests / clients).max(1);
            let r = run_tier(path, clients, per_client, &cfg);
            println!(
                "loadgen store={kind} clients={clients} reqs={} ok={} degraded={} \
                 shed={} draining={} overrun={} closes={} p50_us={:.0} p99_us={:.0} \
                 qps={:.0}",
                r.total,
                r.ok,
                r.degraded,
                r.shed,
                r.draining,
                r.overrun,
                r.closes,
                r.p50_us,
                r.p99_us,
                r.qps
            );
            json_cells.push(format!(
                "    {{\"store\": \"{kind}\", \"clients\": {clients}, \"requests\": {}, \
                 \"ok\": {}, \"degraded\": {}, \"shed\": {}, \"draining\": {}, \
                 \"overrun\": {}, \"closes\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"qps\": {:.1}}}",
                r.total,
                r.ok,
                r.degraded,
                r.shed,
                r.draining,
                r.overrun,
                r.closes,
                r.p50_us,
                r.p99_us,
                r.qps
            ));

            // The failure contract, enforced per cell.
            if r.panics != 0 {
                eprintln!(
                    "FAIL: store={kind} clients={clients}: {} worker panics",
                    r.panics
                );
                bad = true;
            }
            if r.leaked != 0 {
                eprintln!(
                    "FAIL: store={kind} clients={clients}: {} leaked connections",
                    r.leaked
                );
                bad = true;
            }
            if r.overrun != 0 {
                eprintln!(
                    "FAIL: store={kind} clients={clients}: {} deadline overruns (504)",
                    r.overrun
                );
                bad = true;
            }
            if r.ok + r.degraded == 0 {
                eprintln!("FAIL: store={kind} clients={clients}: nothing was served");
                bad = true;
            }
            if kind == "intact" && r.degraded != 0 {
                eprintln!(
                    "FAIL: intact store answered {} degraded responses",
                    r.degraded
                );
                bad = true;
            }
            if kind == "degraded" && r.ok != 0 {
                eprintln!(
                    "FAIL: degraded store answered {} complete responses — quarantine lost",
                    r.ok
                );
                bad = true;
            }
            // Load shedding must engage when the offered concurrency
            // dwarfs the queue; its absence means admission control is
            // not actually bounding anything.
            if clients == top_tier && r.shed == 0 {
                eprintln!("FAIL: store={kind} clients={clients}: no 429s — shedding never engaged");
                bad = true;
            }
        }
    }

    let json = format!(
        "{{\n  \"mode\": \"{}\",\n  \"workers\": {},\n  \"queue_capacity\": {},\n  \
         \"deadline_ms\": {},\n  \"tiers\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        cfg.workers,
        cfg.queue_capacity,
        cfg.deadline.as_millis(),
        json_cells.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_serve.json");
    std::fs::write(out, json).expect("write BENCH_serve.json");
    println!("wrote {out}");
    let _ = std::fs::remove_dir_all(&dir);

    if bad {
        std::process::exit(1);
    }
}
