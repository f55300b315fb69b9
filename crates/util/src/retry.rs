//! Bounded retry with exponential backoff for transient I/O faults.
//!
//! One policy, two consumers: the store's positional read path retries
//! EINTR-style storage faults, and the serve crate's transport path
//! retries the same class of socket faults — both through this module,
//! so "what counts as transient" is decided in exactly one place.
//!
//! The classification is deliberate:
//!
//! * **Transient** — [`io::ErrorKind::Interrupted`] (EINTR),
//!   [`io::ErrorKind::WouldBlock`] (EAGAIN), and
//!   [`io::ErrorKind::TimedOut`]: the operation may succeed if simply
//!   re-issued, so a bounded retry is sound.
//! * **Permanent** — everything else. Checksum failures, corrupt
//!   footers, and protocol violations surface as `InvalidData`/`Other`
//!   (or as typed errors above the I/O layer) and re-reading cannot fix
//!   them; retrying would only re-read the same damage. They fail on the
//!   first attempt, always.
//!
//! This crate is dependency-free (it sits below `blazr-telemetry`), so
//! the policy reports *what happened* — retries performed, whether the
//! budget was exhausted — through [`Retried`], and each consumer counts
//! it into its own metric namespace (`store.io.*`, `serve.io.*`).

use std::io;
use std::time::Duration;

/// Bounded retry with exponential backoff for transient I/O faults
/// (EINTR-style: `Interrupted`, `WouldBlock`, `TimedOut`). An operation
/// run under this policy is attempted up to `attempts` times total,
/// sleeping `base_backoff`, `2×base_backoff`, … between tries;
/// non-transient errors and exhausted budgets propagate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            base_backoff: Duration::from_micros(100),
        }
    }
}

/// What [`RetryPolicy::run_with`] observed: the final result plus the
/// retry accounting the caller feeds into its telemetry.
#[derive(Debug)]
pub struct Retried<T> {
    /// The last attempt's outcome.
    pub result: io::Result<T>,
    /// Retries performed (attempts beyond the first).
    pub retries: u32,
    /// True when every attempt failed transiently and the budget ran
    /// out — the caller's "giveup" counter.
    pub gave_up: bool,
}

impl RetryPolicy {
    /// True for error kinds a bounded retry may fix: the EINTR-style
    /// class (`Interrupted`, `WouldBlock`, `TimedOut`). Data-integrity
    /// and protocol errors (`InvalidData`, `UnexpectedEof`, …) are
    /// permanent — re-issuing the operation re-reads the same damage.
    pub fn is_transient(kind: io::ErrorKind) -> bool {
        matches!(
            kind,
            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }

    /// The sleep before retry number `retry` (0-based): `base_backoff`
    /// doubled `retry` times, with the shift capped so the arithmetic
    /// cannot overflow.
    pub fn backoff(&self, retry: u32) -> Duration {
        self.base_backoff * (1u32 << retry.min(16))
    }

    /// Runs `op` under this policy, sleeping between attempts. Returns
    /// the final result plus retry accounting.
    pub fn run<T>(&self, op: impl FnMut() -> io::Result<T>) -> Retried<T> {
        self.run_with(op, std::thread::sleep)
    }

    /// [`RetryPolicy::run`] with an explicit sleep function, so tests
    /// can observe the backoff schedule instead of waiting it out.
    ///
    /// `op` is attempted up to `self.attempts.max(1)` times. A success
    /// or a permanent (non-transient) error returns immediately; a
    /// transient error sleeps [`RetryPolicy::backoff`]`(retry)` and
    /// tries again until the budget is exhausted.
    pub fn run_with<T>(
        &self,
        mut op: impl FnMut() -> io::Result<T>,
        mut sleep: impl FnMut(Duration),
    ) -> Retried<T> {
        let budget = self.attempts.max(1);
        let mut retries = 0u32;
        loop {
            match op() {
                Ok(v) => {
                    return Retried {
                        result: Ok(v),
                        retries,
                        gave_up: false,
                    }
                }
                Err(e) if Self::is_transient(e.kind()) => {
                    if retries + 1 >= budget {
                        return Retried {
                            result: Err(e),
                            retries,
                            gave_up: true,
                        };
                    }
                    sleep(self.backoff(retries));
                    retries += 1;
                }
                Err(e) => {
                    return Retried {
                        result: Err(e),
                        retries,
                        gave_up: false,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            base_backoff: Duration::from_micros(10),
        }
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let mut left = 2;
        let out = policy(3).run_with(
            || {
                if left > 0 {
                    left -= 1;
                    Err(io::Error::new(io::ErrorKind::Interrupted, "eintr"))
                } else {
                    Ok(42)
                }
            },
            |_| {},
        );
        assert_eq!(out.result.unwrap(), 42);
        assert_eq!(out.retries, 2);
        assert!(!out.gave_up);
    }

    #[test]
    fn permanent_error_fails_first_attempt() {
        let mut calls = 0;
        let out = policy(5).run_with(
            || -> io::Result<()> {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::InvalidData, "checksum"))
            },
            |_| panic!("permanent errors must not back off"),
        );
        assert_eq!(calls, 1);
        assert!(!out.gave_up);
        assert_eq!(out.result.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn exhausted_budget_gives_up_with_last_error() {
        let mut calls = 0;
        let out = policy(3).run_with(
            || -> io::Result<()> {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::TimedOut, "stall"))
            },
            |_| {},
        );
        assert_eq!(calls, 3);
        assert!(out.gave_up);
        assert_eq!(out.retries, 2);
        assert_eq!(out.result.unwrap_err().kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn zero_attempts_still_runs_once() {
        let mut calls = 0;
        let out = policy(0).run_with(
            || -> io::Result<()> {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::WouldBlock, "eagain"))
            },
            |_| {},
        );
        assert_eq!(calls, 1);
        assert!(out.gave_up);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = policy(u32::MAX);
        assert_eq!(p.backoff(0), Duration::from_micros(10));
        assert_eq!(p.backoff(1), Duration::from_micros(20));
        assert_eq!(p.backoff(4), Duration::from_micros(160));
        // The shift saturates instead of overflowing.
        assert_eq!(p.backoff(40), p.backoff(16));
    }
}
