//! How fast the machine ran while a run measured the program: a fixed
//! reference job, timed between the program's phases, and the end-to-end
//! timings scaled by it.
//!
//! On a shared two-core box, other tenants slow the whole machine by 15
//! to 60 % for minutes at a time. Such a slow period covers whole runs,
//! so no statistic inside a run can hide it, and it moved the ten-seed
//! spread of raw timings past 30 %. The reference job slows with the
//! program (it streams memory from two threads spawned per call, like
//! the program's parallel calls), and dividing by its slowdown brought
//! the worst spread back to about 11 % (README, "Machine speed").

use crate::record::Record;
use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Elements per thread of the reference job (4 MiB of f32 each).
const LEN: usize = 1 << 20;

/// Reference-job times (ms) on the calibration box in its usual state:
/// the medians, over forty runs, of each run's fastest and median job.
/// Frozen: they turn a measured slowdown into a scale factor, and the
/// factor is 1 whenever the machine runs as it usually does.
const NOMINAL_MIN_MS: f64 = 0.70;
const NOMINAL_P50_MS: f64 = 0.81;

/// End-to-end timings to scale: `(metric, by the fastest job, is a
/// rate)`. Min-of-N metrics are scaled by the fastest job, medians and
/// window averages by the median job; a rate (higher is better) is
/// multiplied by the slowdown, a time divided by it. `serve_p50_ms` is
/// not scaled: at `r_low` it is mostly connection set-up and the
/// acceptor's poll interval, which do not slow with the machine, and
/// scaling it only added the reference job's own noise.
const SCALED: [(&str, bool, bool); 9] = [
    ("setup_s", false, false),
    ("encode_melem_s", true, true),
    ("decode_melem_s", true, true),
    ("ops_ms", true, false),
    ("ingest_melem_s", true, true),
    ("pruned_p50_us", false, false),
    ("scan_p50_us", false, false),
    ("cold_query_ms", false, false),
    ("serve_max_rps", false, true),
];

/// The reference job: two threads, spawned per call like the program's
/// parallel calls, each streaming a 4 MiB buffer through a multiply-add
/// and a reduction.
fn job(bufs: &mut [Vec<f32>; 2]) -> f32 {
    std::thread::scope(|s| {
        let [x, y] = bufs;
        let h = s.spawn(move || pass(x));
        let a = pass(y);
        a + h.join().expect("reference thread panicked")
    })
}

fn pass(buf: &mut [f32]) -> f32 {
    let mut acc = 0.0f32;
    for v in buf.iter_mut() {
        *v = *v * 0.999_9 + 0.5;
        acc += *v * *v;
    }
    acc
}

pub struct Machine {
    bufs: [Vec<f32>; 2],
    times_ms: Vec<f64>,
}

impl Machine {
    pub fn new() -> Self {
        Self {
            bufs: [vec![1.0; LEN], vec![2.0; LEN]],
            times_ms: Vec::new(),
        }
    }

    /// Runs the job until `budget` is spent (at least once).
    pub fn round(&mut self, budget: Duration) {
        let deadline = Instant::now() + budget;
        loop {
            let t = Instant::now();
            black_box(job(&mut self.bufs));
            self.times_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    /// Scales every end-to-end timing in `rec` to the nominal machine
    /// speed. The measured values stay in the record as `raw.<metric>`.
    pub fn scale(&self, rec: &mut Record) {
        let by_min = stats::min(&self.times_ms) / NOMINAL_MIN_MS;
        let by_p50 = stats::median(&self.times_ms) / NOMINAL_P50_MS;
        rec.put("machine.slowdown", by_p50, "ratio");
        rec.samples("machine.slowdown", self.times_ms.len());
        for (name, fastest, rate) in SCALED {
            let Some(i) = rec.metrics.iter().position(|m| m.0 == name) else {
                continue;
            };
            let (_, raw, unit) = rec.metrics[i].clone();
            let slowdown = if fastest { by_min } else { by_p50 };
            let scaled = if rate { raw * slowdown } else { raw / slowdown };
            rec.metrics[i].0 = format!("raw.{name}");
            rec.put(name, scaled, unit);
        }
    }
}
