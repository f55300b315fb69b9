//! Snapshot export: point-in-time aggregation of the registry, with
//! JSON and Prometheus text serializers (hand-rolled — this crate has no
//! dependencies).

use crate::{Histogram, Registry};

/// Aggregated state of one histogram at snapshot time. Span histograms
/// are in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name (dot-separated taxonomy, e.g. `store.query`).
    pub name: String,
    /// Number of observations (exact).
    pub count: u64,
    /// Sum of observations (exact).
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median (bucket-midpoint estimate, ≤ ~6% quantization error).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl HistogramSnapshot {
    fn of(name: &str, h: &Histogram) -> Option<Self> {
        if h.count() == 0 {
            return None;
        }
        Some(Self {
            name: name.to_string(),
            count: h.count(),
            sum: h.sum(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            p50: h.quantile(0.5).unwrap_or(0),
            p90: h.quantile(0.9).unwrap_or(0),
            p99: h.quantile(0.99).unwrap_or(0),
            p999: h.quantile(0.999).unwrap_or(0),
        })
    }

    /// Mean observation.
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count as f64
    }
}

/// A point-in-time aggregation of every registered metric, in name
/// order. Zero-valued counters and empty histograms are kept out of the
/// exports' way: counters always export (a zero is informative),
/// histograms export only once they hold at least one observation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, total)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge.
    pub gauges: Vec<(String, i64)>,
    /// Every registered histogram with ≥ 1 observation.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    pub(crate) fn collect(reg: &Registry) -> Self {
        let mut snap = Snapshot::default();
        reg.visit_counters(|name, v| snap.counters.push((name.to_string(), v)));
        reg.visit_gauges(|name, v| snap.gauges.push((name.to_string(), v)));
        reg.visit_histograms(|name, h| {
            if let Some(hs) = HistogramSnapshot::of(name, h) {
                snap.histograms.push(hs);
            }
        });
        snap
    }

    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The snapshot of histogram `name`, if it recorded anything.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}`.
    /// Span histograms are nanoseconds.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    \"{}\": {v}", escape_json(name)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    \"{}\": {v}", escape_json(name)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!(
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}}}",
                escape_json(&h.name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.p50,
                h.p90,
                h.p99,
                h.p999,
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Serializes in the Prometheus text exposition format. Counters
    /// become `blazr_<name>_total`, gauges `blazr_<name>`, histograms
    /// summaries with `quantile` labels (values in nanoseconds for span
    /// histograms); dots in names become underscores.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!(
                "# TYPE blazr_{n}_total counter\nblazr_{n}_total {v}\n"
            ));
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE blazr_{n} gauge\nblazr_{n} {v}\n"));
        }
        for h in &self.histograms {
            let n = prom_name(&h.name);
            out.push_str(&format!("# TYPE blazr_{n} summary\n"));
            for (q, v) in [
                ("0.5", h.p50),
                ("0.9", h.p90),
                ("0.99", h.p99),
                ("0.999", h.p999),
            ] {
                out.push_str(&format!("blazr_{n}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("blazr_{n}_sum {}\n", h.sum));
            out.push_str(&format!("blazr_{n}_count {}\n", h.count));
        }
        out
    }
}

/// Escapes a string for embedding in a JSON string literal — the
/// workspace's one JSON escaper.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A finite float as JSON (`null` for NaN/infinity, which JSON cannot
/// represent). Rust's `{}` float formatting round-trips, so the value
/// survives serialization bit-exactly.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Maps a dotted metric name onto the Prometheus charset.
fn prom_name(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::{registry, set_mode, Mode};
    use std::sync::Mutex;

    /// Serializes tests (across this crate's modules) that mutate the
    /// global mode or registry.
    pub(crate) static TEST_MUTEX: Mutex<()> = Mutex::new(());

    #[test]
    fn snapshot_round_trip_and_formats() {
        let _guard = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        set_mode(Mode::Counters);
        registry().reset();
        registry().counter("test.export.requests").add(41);
        registry().counter("test.export.requests").inc();
        registry().gauge("test.export.depth").set(-7);
        let h = registry().histogram("test.export.latency");
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let snap = registry().snapshot();
        assert_eq!(snap.counter("test.export.requests"), Some(42));
        let hs = snap.histogram("test.export.latency").unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1100);
        assert_eq!(hs.min, 10);
        assert!(hs.p999 >= hs.p50);

        let json = snap.to_json();
        assert!(json.contains("\"test.export.requests\": 42"), "{json}");
        assert!(json.contains("\"test.export.depth\": -7"), "{json}");
        assert!(json.contains("\"test.export.latency\""), "{json}");

        let prom = snap.to_prometheus();
        assert!(
            prom.contains("blazr_test_export_requests_total 42"),
            "{prom}"
        );
        assert!(
            prom.contains("# TYPE blazr_test_export_depth gauge"),
            "{prom}"
        );
        assert!(
            prom.contains("blazr_test_export_latency{quantile=\"0.5\"}"),
            "{prom}"
        );
        assert!(prom.contains("blazr_test_export_latency_count 5"), "{prom}");

        registry().reset();
        let empty = registry().snapshot();
        // Counters still export at zero; empty histograms drop out.
        assert_eq!(empty.counter("test.export.requests"), Some(0));
        assert!(empty.histogram("test.export.latency").is_none());
        set_mode(Mode::Off);
    }

    #[test]
    fn escape_json_escapes_quotes_backslashes_and_controls() {
        assert_eq!(
            crate::escape_json("a\\b\"c\nd\u{1}é"),
            "a\\\\b\\\"c\\nd\\u0001é"
        );
    }
}
