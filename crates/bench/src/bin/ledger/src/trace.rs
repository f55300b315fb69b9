//! The ledger's own spans, recorded around its calls into each layer of
//! the program (the program itself is not instrumented by the ledger).
//! Spans stay in memory and are written once, at the end of a traced
//! run, in Chrome trace-event format (`chrome://tracing`, Perfetto).
//!
//! Off by default: an untraced run pays one relaxed atomic load per
//! span site.

use crate::json::{obj, Json};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root; `req` groups the spans
/// of one serve request (0 elsewhere).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans past this many are dropped (and counted) to bound memory.
const MAX_SPANS: usize = 400_000;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn sink() -> &'static Mutex<Vec<SpanRec>> {
    static SINK: OnceLock<Mutex<Vec<SpanRec>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

std::thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

pub fn enable() {
    epoch();
    ON.store(true, Ordering::Relaxed);
}

#[inline]
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

pub fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Files one span. Called from `Guard::drop`, so a poisoned sink drops
/// the span (counted) instead of panicking.
fn push(rec: SpanRec) {
    match sink().lock() {
        Ok(mut spans) if spans.len() < MAX_SPANS => spans.push(rec),
        _ => {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A finished span assembled after the fact (such as the server-side
/// phases of a request), with a fresh id; [`keep`] files it.
pub fn assemble(
    name: &'static str,
    req: u64,
    parent: u64,
    start: Instant,
    end: Instant,
) -> SpanRec {
    SpanRec {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        req,
        name,
        tid: TID.with(|t| *t),
        start_ns: ns(start),
        end_ns: ns(end),
    }
}

/// Files assembled spans for the trace (a no-op when tracing is off).
pub fn keep(spans: Vec<SpanRec>) {
    if enabled() {
        for s in spans {
            push(s);
        }
    }
}

fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// An open span; it records itself when dropped.
#[must_use = "a span measures until dropped"]
pub struct Guard {
    open: Option<(u64, u64, &'static str, Instant)>,
}

/// Opens a span named `name`, nested under this thread's open span.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        open: Some((id, parent, name, Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.open.take() {
            let end = Instant::now();
            STACK.with(|s| s.borrow_mut().pop());
            push(SpanRec {
                id,
                parent,
                req: 0,
                name,
                tid: TID.with(|t| *t),
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }
}

/// Takes every recorded span, leaving the sink empty.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *sink().lock().expect("span sink poisoned"))
}

pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once). Indexed
/// like `spans`.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Chrome trace-event JSON ("X" complete events, microsecond times).
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            obj([
                ("name", Json::Str(s.name.into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.tid as f64)),
                (
                    "args",
                    obj([
                        ("id", Json::Num(s.id as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                        ("req", Json::Num(s.req as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    obj([("traceEvents", Json::Arr(events))]).write()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            req: 0,
            name: "t",
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = [
            rec(1, 0, 0, 100),
            // Two overlapping children cover [10, 50) once: 40.
            rec(2, 1, 10, 40),
            rec(3, 1, 30, 50),
            // A child sticking out of its parent counts only inside it.
            rec(4, 1, 90, 130),
            // A grandchild does not reduce the root's self time again.
            rec(5, 2, 15, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 40 - 10, 30 - 5, 20, 40, 5]);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_every_span() {
        let spans = [rec(1, 0, 1_000, 3_000), rec(2, 1, 1_500, 2_000)];
        let doc = Json::parse(&chrome_json(&spans)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(0.5));
        assert_eq!(
            events[1].get("args").unwrap().get("parent"),
            Some(&Json::Num(1.0))
        );
    }
}
