//! One deterministic fault script for every fault-injecting seam.
//!
//! A [`Script`] counts the operations a seam performs, per operation
//! class, and answers each one with "proceed" or with the [`Fault`] a
//! matching [`Rule`] injects. Rules are keyed by per-class operation
//! indices (0-based, counted across the whole seam), so a test can sweep
//! "break the Nth write" over every boundary of a workload exhaustively
//! and reproducibly.
//!
//! The script knows nothing about files or sockets. A seam adapter
//! (`vfs::FaultyVfs` for storage, `blazr_serve`'s `FaultyTransport` for
//! the network) names its operation classes with a small enum
//! implementing [`Op`], calls [`Script::tick`] before each operation,
//! and decides only what a [`Fault::Tear`] means on an operation that
//! carries a buffer. Every other fault becomes an `io::Error` through
//! [`Fault::into_error`].

use std::io;
use std::sync::Mutex;
use std::time::Duration;

/// An operation class a [`Rule`] can target: a small `Copy` enum whose
/// `index` numbers its variants densely from 0.
pub trait Op: Copy + Eq {
    /// The class's dense index (its per-class counter slot).
    fn index(self) -> usize;
}

/// What happens when a rule fires.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Fail outright with this error kind (e.g. `StorageFull` for
    /// ENOSPC, `ConnectionReset`). Fires once.
    Fail(io::ErrorKind),
    /// EINTR-style transient failure: the operation fails `failures`
    /// consecutive times with `kind`, then succeeds — the shape a
    /// bounded-retry caller must survive.
    Transient {
        /// How many consecutive attempts fail before success.
        failures: u32,
        /// The error kind each failing attempt reports.
        kind: io::ErrorKind,
    },
    /// Tear the operation's buffer after `keep` bytes: the seam moves
    /// that prefix, then fails the way its medium would (see the seam's
    /// docs). On an operation with no buffer it is a plain `Other`
    /// error. Fires once.
    Tear {
        /// Bytes moved before the failure.
        keep: usize,
    },
    /// Slow-loris stall: sleep `dur`, then report `TimedOut` — what a
    /// timeout turns a glacial device or peer into. Fires once.
    Stall {
        /// How long the operation hangs before timing out.
        dur: Duration,
    },
}

impl Fault {
    /// The error an operation named `what` reports for this fault,
    /// after sleeping out a [`Fault::Stall`].
    pub fn into_error(self, what: &str) -> io::Error {
        let kind = match self {
            Fault::Fail(kind) | Fault::Transient { kind, .. } => kind,
            Fault::Tear { .. } => io::ErrorKind::Other,
            Fault::Stall { dur } => {
                std::thread::sleep(dur);
                io::ErrorKind::TimedOut
            }
        };
        io::Error::new(kind, format!("injected fault: {what}"))
    }
}

/// One scripted fault: when the `nth` operation of class `op` arrives
/// (or any later one, while the rule's fire budget lasts), `fault`
/// happens.
#[derive(Debug, Clone)]
pub struct Rule<O> {
    /// Which operation class this rule watches.
    pub op: O,
    /// The 0-based operation index at which the rule arms.
    pub nth: u64,
    /// The injected behavior.
    pub fault: Fault,
}

/// The operation counters and armed rules, under one lock so a tick
/// claims its index and consults the rules atomically.
#[derive(Debug)]
struct State<O> {
    counts: Vec<u64>,
    /// Each rule with its remaining fire budget.
    rules: Vec<(Rule<O>, u32)>,
}

/// A deterministic, op-indexed fault script — see the module docs. A
/// seam adapter holds it in an `Arc` shared with the test, which arms
/// rules and reads [`Script::op_count`] while the code under test runs.
#[derive(Debug)]
pub struct Script<O> {
    state: Mutex<State<O>>,
}

impl<O> Default for Script<O> {
    fn default() -> Self {
        Self {
            state: Mutex::new(State {
                counts: Vec::new(),
                rules: Vec::new(),
            }),
        }
    }
}

impl<O: Op> Script<O> {
    fn state(&self) -> std::sync::MutexGuard<'_, State<O>> {
        self.state.lock().expect("fault script poisoned")
    }

    /// Adds a rule. [`Fault::Transient`] fires `failures` times;
    /// everything else once. Rules on the same class fire in arm order.
    pub fn arm(&self, rule: Rule<O>) {
        let budget = match rule.fault {
            Fault::Transient { failures, .. } => failures,
            _ => 1,
        };
        self.state().rules.push((rule, budget));
    }

    /// Fails the `nth` operation of class `op` with `kind`.
    pub fn fail_nth(&self, op: O, nth: u64, kind: io::ErrorKind) {
        self.arm(Rule {
            op,
            nth,
            fault: Fault::Fail(kind),
        });
    }

    /// Makes operations of class `op` from the `nth` on fail `failures`
    /// times with `Interrupted`, then succeed.
    pub fn transient(&self, op: O, nth: u64, failures: u32) {
        self.arm(Rule {
            op,
            nth,
            fault: Fault::Transient {
                failures,
                kind: io::ErrorKind::Interrupted,
            },
        });
    }

    /// Tears the `nth` operation of class `op` after `keep` bytes.
    pub fn tear(&self, op: O, nth: u64, keep: usize) {
        self.arm(Rule {
            op,
            nth,
            fault: Fault::Tear { keep },
        });
    }

    /// Stalls the `nth` operation of class `op` for `dur`, then times it
    /// out.
    pub fn stall(&self, op: O, nth: u64, dur: Duration) {
        self.arm(Rule {
            op,
            nth,
            fault: Fault::Stall { dur },
        });
    }

    /// Drops every rule (the operation counters keep running).
    pub fn clear(&self) {
        self.state().rules.clear();
    }

    /// How many operations of class `op` have been issued so far — the
    /// handle a sweep uses to enumerate every boundary.
    pub fn op_count(&self, op: O) -> u64 {
        self.state().counts.get(op.index()).copied().unwrap_or(0)
    }

    /// Claims the next index of class `op` and returns the fault to
    /// inject there, if a rule fires.
    pub fn tick(&self, op: O) -> Option<Fault> {
        let mut st = self.state();
        let slot = op.index();
        if st.counts.len() <= slot {
            st.counts.resize(slot + 1, 0);
        }
        let idx = st.counts[slot];
        st.counts[slot] += 1;
        let (rule, budget) = st
            .rules
            .iter_mut()
            .find(|(rule, budget)| rule.op == op && idx >= rule.nth && *budget > 0)?;
        *budget -= 1;
        Some(rule.fault.clone())
    }

    /// [`Script::tick`] for an operation with no buffer to tear: `Ok`
    /// to proceed, or the fault as an error.
    pub fn guard(&self, op: O, what: &str) -> io::Result<()> {
        match self.tick(op) {
            None => Ok(()),
            Some(fault) => Err(fault.into_error(what)),
        }
    }
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use io::ErrorKind::{BrokenPipe, Interrupted, Other, StorageFull, TimedOut};
    use std::time::Instant;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum T {
        A,
        B,
    }

    impl Op for T {
        fn index(self) -> usize {
            self as usize
        }
    }

    /// The error kinds the next `n` ops of class `op` see (`None`
    /// passes). A tear on these buffer-less ops reads as `Other`.
    fn run(s: &Script<T>, op: T, n: usize) -> Vec<Option<io::ErrorKind>> {
        (0..n)
            .map(|_| s.guard(op, "t").err().map(|e| e.kind()))
            .collect()
    }

    #[test]
    fn a_rule_arms_at_nth_and_later() {
        let s = Script::default();
        s.fail_nth(T::A, 2, StorageFull);
        assert_eq!(run(&s, T::A, 4), [None, None, Some(StorageFull), None]);
        // Armed after its index has passed, a rule fires on the next op.
        s.fail_nth(T::A, 0, BrokenPipe);
        assert_eq!(run(&s, T::A, 2), [Some(BrokenPipe), None]);
    }

    #[test]
    fn transient_fails_exactly_its_budget_then_passes() {
        let s = Script::default();
        s.transient(T::A, 1, 3);
        let eintr = Some(Interrupted);
        assert_eq!(run(&s, T::A, 6), [None, eintr, eintr, eintr, None, None]);
    }

    #[test]
    fn other_kinds_fire_once() {
        let s = Script::default();
        s.fail_nth(T::A, 0, StorageFull);
        s.tear(T::A, 0, 7);
        s.stall(T::A, 0, Duration::ZERO);
        let fired = [Some(StorageFull), Some(Other), Some(TimedOut), None, None];
        assert_eq!(run(&s, T::A, 5), fired);
    }

    #[test]
    fn per_class_counters_are_independent() {
        let s = Script::default();
        s.fail_nth(T::B, 1, StorageFull);
        run(&s, T::A, 5);
        assert_eq!((s.op_count(T::A), s.op_count(T::B)), (5, 0));
        // B's index 1 is B's second op, however many A ops came first.
        assert_eq!(run(&s, T::B, 3), [None, Some(StorageFull), None]);
        assert_eq!((s.op_count(T::A), s.op_count(T::B)), (5, 3));
    }

    #[test]
    fn clear_drops_rules_but_keeps_counters() {
        let s = Script::default();
        s.transient(T::A, 0, 10);
        assert_eq!(run(&s, T::A, 1), [Some(Interrupted)]);
        s.clear();
        assert_eq!(run(&s, T::A, 3), [None; 3]);
        assert_eq!(s.op_count(T::A), 4);
    }

    #[test]
    fn two_rules_on_one_op_fire_in_arm_order() {
        let s = Script::default();
        s.fail_nth(T::A, 1, BrokenPipe);
        s.fail_nth(T::A, 1, StorageFull);
        let fired = [None, Some(BrokenPipe), Some(StorageFull), None];
        assert_eq!(run(&s, T::A, 4), fired);
    }

    #[test]
    fn stall_sleeps_then_times_out() {
        let dur = Duration::from_millis(20);
        let t0 = Instant::now();
        let err = Fault::Stall { dur }.into_error("read");
        assert!(t0.elapsed() >= dur, "stalled only {:?}", t0.elapsed());
        assert_eq!(err.kind(), TimedOut);
        assert_eq!(err.to_string(), "injected fault: read");
    }
}
