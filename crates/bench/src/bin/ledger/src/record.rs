//! One run's ledger: the metrics it measured, how many samples each
//! rests on, and every correctness check it made.

use crate::json::{obj, Json};
use blazr_telemetry::Snapshot;
use std::collections::HashMap;

#[derive(Debug, Default)]
pub struct Record {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub samples: Vec<(String, usize)>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failed checks, for the error report.
    pub failures: Vec<String>,
}

impl Record {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// States how many samples a metric rests on.
    pub fn samples(&mut self, name: impl Into<String>, n: usize) {
        self.samples.push((name.into(), n));
    }

    /// Counts one checked operation; a failed one also counts as a
    /// failure, never as throughput.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
        ok
    }

    fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Requires every metric in `names` to have been measured (so each run
    /// reports the same schema), and returns them as the `metrics` object.
    pub fn metrics_json(&mut self, names: &[(String, &'static str)]) -> Json {
        let mut out = Vec::new();
        for (name, unit) in names {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some(&(_, v, u)) => {
                    if u != *unit {
                        self.fail(format!(
                            "metric {name} measured in {u}, catalog says {unit}"
                        ));
                    }
                    out.push((
                        name.clone(),
                        obj([("value", Json::Num(v)), ("unit", Json::Str(u.into()))]),
                    ));
                }
                None => self.fail(format!("metric {name} was not measured")),
            }
        }
        Json::Obj(out)
    }
}

/// Counter and histogram growth of the program's telemetry, summed over
/// the intervals a phase ran in (phases are interleaved, so one
/// registry-wide reset cannot isolate them).
#[derive(Debug, Default)]
pub struct Tally {
    counters: HashMap<String, u64>,
    /// `(count, sum)` per histogram.
    hists: HashMap<String, (u64, u64)>,
}

impl Tally {
    /// Adds what changed between two snapshots.
    pub fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        for (name, v) in &after.counters {
            let was = before.counter(name).unwrap_or(0);
            *self.counters.entry(name.clone()).or_default() += v.saturating_sub(was);
        }
        for h in &after.histograms {
            let (c0, s0) = before
                .histogram(&h.name)
                .map_or((0, 0), |b| (b.count, b.sum));
            let e = self.hists.entry(h.name.clone()).or_default();
            e.0 += h.count.saturating_sub(c0);
            e.1 += h.sum.saturating_sub(s0);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Sum of the histogram's observations.
    pub fn sum(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |&(_, s)| s as f64)
    }

    /// Mean observation (0 when there was none).
    pub fn mean(&self, name: &str) -> f64 {
        match self.hists.get(name) {
            Some(&(c, s)) if c > 0 => s as f64 / c as f64,
            _ => 0.0,
        }
    }
}

/// Runs `f`, adding the telemetry it caused to `tally` when one is given.
pub fn tallied<T>(tally: Option<&mut Tally>, f: impl FnOnce() -> T) -> T {
    match tally {
        None => f(),
        Some(t) => {
            let before = blazr_telemetry::registry().snapshot();
            let out = f();
            t.add(&before, &blazr_telemetry::registry().snapshot());
            out
        }
    }
}
