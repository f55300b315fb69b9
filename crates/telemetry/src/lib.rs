//! # blazr-telemetry — offline observability shim
//!
//! A dependency-free metrics registry and tracing-span layer for the
//! blazr workspace, in the spirit of `shims/rayon`: no crates.io
//! dependencies, the same shape a production telemetry stack would have,
//! and near-zero cost when disabled.
//!
//! ## The three pieces
//!
//! 1. **Metrics registry** ([`registry`]): monotonic [`Counter`]s and
//!    [`Gauge`]s backed by per-thread atomic shards (no locks on the
//!    update path), and log-linear-bucket [`Histogram`]s (HDR-style,
//!    ≤ 1/16 relative bucket error — good enough for p50/p99/p999).
//!    Shards aggregate only at snapshot time.
//! 2. **Tracing spans** ([`span!`]): RAII guards that record wall time
//!    into a per-span histogram (in nanoseconds) and maintain a
//!    thread-local nesting stack.
//! 3. **Export** ([`Snapshot`]): a point-in-time aggregation of every
//!    registered metric, serializable as JSON ([`Snapshot::to_json`]) or
//!    Prometheus text format ([`Snapshot::to_prometheus`]).
//!
//! ## The mode toggle
//!
//! `BLAZR_TELEMETRY=off|counters|spans` (read once, overridable with
//! [`set_mode`]) gates everything:
//!
//! * `off` (default) — every instrumentation site reduces to **one
//!   relaxed atomic load** and a predictable branch; no clocks are read,
//!   no memory is written.
//! * `counters` — counters, gauges, and non-timer histograms record;
//!   spans stay free (no `Instant::now()`).
//! * `spans` — everything records, including span wall-time histograms.
//!
//! Telemetry never touches data paths: output bytes are bit-identical
//! with telemetry on or off at any thread count (locked in by
//! `tests/telemetry.rs`).
//!
//! ## Usage
//!
//! ```
//! use blazr_telemetry as tel;
//! tel::set_mode(tel::Mode::Spans);
//! {
//!     let _span = tel::span!("example.work");
//!     tel::count!("example.items", 3);
//! }
//! let snap = tel::registry().snapshot();
//! assert_eq!(snap.counter("example.items"), Some(3));
//! assert!(snap.histogram("example.work").is_some());
//! # tel::registry().reset();
//! # tel::set_mode(tel::Mode::Off);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod span;

pub use export::{escape_json, json_f64, HistogramSnapshot, Snapshot};
pub use metrics::{Counter, Gauge, Histogram};
pub use span::{current_span, span_depth, Span, Stopwatch};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Mode.

/// What the telemetry layer records. Ordered: each mode is a superset of
/// the one before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Mode {
    /// Record nothing; instrumentation sites cost one relaxed load.
    Off = 0,
    /// Record counters, gauges, and value histograms — no clocks.
    Counters = 1,
    /// Additionally record span wall-time histograms (reads clocks).
    Spans = 2,
}

impl Mode {
    /// Parses the `BLAZR_TELEMETRY` value; unknown strings mean [`Mode::Off`].
    pub fn parse(s: &str) -> Mode {
        match s.trim().to_ascii_lowercase().as_str() {
            "counters" | "on" | "1" => Mode::Counters,
            "spans" | "all" | "2" => Mode::Spans,
            _ => Mode::Off,
        }
    }

    /// The lowercase name (`"off"`, `"counters"`, `"spans"`).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Counters => "counters",
            Mode::Spans => "spans",
        }
    }
}

/// `3` = not yet initialized from the environment.
const MODE_UNINIT: u8 = 3;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

#[cold]
fn init_mode() -> Mode {
    let m = std::env::var("BLAZR_TELEMETRY")
        .map(|v| Mode::parse(&v))
        .unwrap_or(Mode::Off);
    MODE.store(m as u8, Ordering::Relaxed);
    m
}

/// The current telemetry mode (initialized from `BLAZR_TELEMETRY` on
/// first call; [`Mode::Off`] when unset).
#[inline]
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        0 => Mode::Off,
        1 => Mode::Counters,
        2 => Mode::Spans,
        _ => init_mode(),
    }
}

/// Overrides the mode for the whole process (tools and tests; takes
/// precedence over `BLAZR_TELEMETRY`).
pub fn set_mode(m: Mode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// True when counters, gauges, and histograms record ([`Mode::Counters`]
/// or [`Mode::Spans`]). One relaxed atomic load.
#[inline]
pub fn counters_enabled() -> bool {
    mode() >= Mode::Counters
}

/// True when span timers record ([`Mode::Spans`]). One relaxed atomic
/// load — the off-mode cost of every `span!` site.
#[inline]
pub fn spans_enabled() -> bool {
    mode() == Mode::Spans
}

// ---------------------------------------------------------------------------
// Registry.

/// The global metric registry: names to leaked, `'static` metric
/// handles. Registration takes a lock (once per call site, cached by the
/// macros); updates through the returned handles are lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

/// The process-wide [`Registry`].
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    /// The counter named `name`, registered on first use.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        self.counters
            .lock()
            .expect("telemetry registry lock")
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Counter::new())))
    }

    /// The gauge named `name`, registered on first use.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        self.gauges
            .lock()
            .expect("telemetry registry lock")
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
    }

    /// The histogram named `name`, registered on first use.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        self.histograms
            .lock()
            .expect("telemetry registry lock")
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
    }

    /// Aggregates every registered metric into a point-in-time
    /// [`Snapshot`] (shards are summed here, not on the update path).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::collect(self)
    }

    /// Zeroes every registered metric (tests and repeated reports). The
    /// handles stay registered, so cached call sites keep working.
    pub fn reset(&self) {
        for c in self.counters.lock().expect("registry lock").values() {
            c.reset();
        }
        for g in self.gauges.lock().expect("registry lock").values() {
            g.reset();
        }
        for h in self.histograms.lock().expect("registry lock").values() {
            h.reset();
        }
    }

    pub(crate) fn visit_counters(&self, mut f: impl FnMut(&'static str, u64)) {
        for (name, c) in self.counters.lock().expect("registry lock").iter() {
            f(name, c.value());
        }
    }

    pub(crate) fn visit_gauges(&self, mut f: impl FnMut(&'static str, i64)) {
        for (name, g) in self.gauges.lock().expect("registry lock").iter() {
            f(name, g.value());
        }
    }

    pub(crate) fn visit_histograms(&self, mut f: impl FnMut(&'static str, &Histogram)) {
        for (name, h) in self.histograms.lock().expect("registry lock").iter() {
            f(name, h);
        }
    }
}

// ---------------------------------------------------------------------------
// Allocation-audit hook.

static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Registers a probe returning a monotonically increasing allocation
/// count (typically from a counting `#[global_allocator]`). Hot paths
/// that want an allocation audit (e.g. store queries) read the probe
/// before and after an operation and record the delta as a histogram.
/// First registration wins; later calls are ignored.
pub fn set_alloc_probe(probe: fn() -> u64) {
    let _ = ALLOC_PROBE.set(probe);
}

/// The current allocation count from the registered probe, or `None`
/// when no probe is installed.
#[inline]
pub fn alloc_probe() -> Option<u64> {
    ALLOC_PROBE.get().map(|f| f())
}

// ---------------------------------------------------------------------------
// Macros.

/// The `'static` [`Counter`] named by this call site, registered once
/// and cached in a site-local static.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Adds `$n` to the counter `$name` when telemetry records counters.
/// With telemetry off this is a single relaxed atomic load.
#[macro_export]
macro_rules! count {
    ($name:literal, $n:expr) => {
        if $crate::counters_enabled() {
            $crate::counter!($name).add($n);
        }
    };
}

/// The `'static` [`Gauge`] named by this call site (cached, like
/// [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// The `'static` [`Histogram`] named by this call site (cached, like
/// [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Records `$v` into the histogram `$name` when telemetry records
/// counters. With telemetry off this is a single relaxed atomic load.
#[macro_export]
macro_rules! record {
    ($name:literal, $v:expr) => {
        if $crate::counters_enabled() {
            $crate::histogram!($name).record($v);
        }
    };
}

/// Opens a tracing span: returns a [`Span`] guard that, when spans are
/// enabled, records its wall time (nanoseconds) into the histogram
/// `$name` on drop and maintains the thread-local nesting stack. Bind it
/// (`let _span = span!("store.query");`) — an unbound guard drops
/// immediately.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        if $crate::spans_enabled() {
            $crate::Span::enter($name, $crate::histogram!($name))
        } else {
            $crate::Span::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_orders() {
        assert_eq!(Mode::parse("off"), Mode::Off);
        assert_eq!(Mode::parse("counters"), Mode::Counters);
        assert_eq!(Mode::parse("SPANS"), Mode::Spans);
        assert_eq!(Mode::parse("nonsense"), Mode::Off);
        assert!(Mode::Spans > Mode::Counters && Mode::Counters > Mode::Off);
        assert_eq!(Mode::Spans.name(), "spans");
    }

    #[test]
    fn registry_dedupes_by_name() {
        let a = registry().counter("test.lib.dedupe");
        let b = registry().counter("test.lib.dedupe");
        assert!(std::ptr::eq(a, b));
    }
}
