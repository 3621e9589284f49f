//! Capped exponential backoff for retryable initiation failures.
//!
//! The paper's `SEND-ENQ` returns `NULL` when packets or injection slots run
//! out and expects the caller to retry. A bare spin-retry burns a core and —
//! under the fabric's fault phases (brownouts, RNR storms) — can livelock
//! against the very progress thread that would free the resources. `Backoff`
//! makes the retry loop measurable (attempt counts) and bounded (a retry
//! budget), ramping from busy-spins to real sleeps as the condition persists.

use crate::config::LciConfig;
use lci_trace::{Counter, Registry};
use std::time::{Duration, Instant};

/// Waits below this spin instead of sleeping: OS sleep granularity would
/// otherwise turn a microsecond backoff into a millisecond one.
const SPIN_THRESHOLD_NS: u64 = 10_000;

/// Capped exponential backoff with an optional retry budget.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ns: u64,
    cap_ns: u64,
    budget: u32,
    attempt: u32,
}

impl Backoff {
    /// A backoff ramping from `base_ns` to `cap_ns`, giving up after
    /// `budget` waits.
    pub fn new(base_ns: u64, cap_ns: u64, budget: u32) -> Backoff {
        Backoff {
            base_ns: base_ns.max(1),
            cap_ns: cap_ns.max(base_ns.max(1)),
            budget,
            attempt: 0,
        }
    }

    /// A backoff that never exhausts (for progress-loop idling).
    pub fn unbounded(base_ns: u64, cap_ns: u64) -> Backoff {
        Backoff::new(base_ns, cap_ns, u32::MAX)
    }

    /// The backoff a device derives from its [`LciConfig`] retry settings.
    pub fn from_config(cfg: &LciConfig) -> Backoff {
        Backoff::new(cfg.backoff_base_ns, cfg.backoff_cap_ns, cfg.retry_budget)
    }

    /// Number of waits performed since construction or [`Backoff::reset`].
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Has the retry budget been spent?
    pub fn exhausted(&self) -> bool {
        self.attempt >= self.budget
    }

    /// The wait the next [`Backoff::snooze`] would perform.
    pub fn next_wait_ns(&self) -> u64 {
        // Shift capped at 2^16× so the multiply cannot overflow before the
        // cap applies.
        let factor = 1u64 << self.attempt.min(16);
        self.base_ns.saturating_mul(factor).min(self.cap_ns)
    }

    /// Wait once (spinning below [`SPIN_THRESHOLD_NS`], sleeping above) and
    /// charge the budget, counting the wait in `lci.backoff_*` of the global
    /// table. Returns `false` — without waiting — once the budget is
    /// exhausted.
    pub fn snooze(&mut self) -> bool {
        self.snooze_in(lci_trace::global())
    }

    /// [`Backoff::snooze`], counting the wait in `table` — the table of the
    /// host whose retry or idle loop waits (its endpoint's
    /// [`counters`](lci_fabric::Endpoint::counters)), which reads of the
    /// global table include.
    pub fn snooze_in(&mut self, table: &Registry) -> bool {
        if self.exhausted() {
            return false;
        }
        let wait = self.next_wait_ns();
        self.attempt += 1;
        table.incr(Counter::LciBackoffWaits);
        table.add(Counter::LciBackoffWaitNs, wait);
        if wait < SPIN_THRESHOLD_NS {
            let t0 = Instant::now();
            while (t0.elapsed().as_nanos() as u64) < wait {
                std::hint::spin_loop();
            }
        } else {
            std::thread::sleep(Duration::from_nanos(wait));
        }
        true
    }

    /// Start the ramp over (call after a successful operation).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_is_capped_exponential() {
        let mut b = Backoff::new(100, 1_000, u32::MAX);
        assert_eq!(b.next_wait_ns(), 100);
        b.attempt = 1;
        assert_eq!(b.next_wait_ns(), 200);
        b.attempt = 2;
        assert_eq!(b.next_wait_ns(), 400);
        b.attempt = 5;
        assert_eq!(b.next_wait_ns(), 1_000, "capped");
        b.attempt = u32::MAX - 1;
        assert_eq!(b.next_wait_ns(), 1_000, "huge attempt counts do not overflow");
    }

    #[test]
    fn budget_is_enforced() {
        let mut b = Backoff::new(1, 1, 3);
        assert!(b.snooze());
        assert!(b.snooze());
        assert!(b.snooze());
        assert!(b.exhausted());
        assert!(!b.snooze(), "budget spent");
        assert_eq!(b.attempt(), 3);
        b.reset();
        assert!(!b.exhausted());
        assert!(b.snooze());
    }

    #[test]
    fn long_waits_actually_sleep() {
        let mut b = Backoff::new(2_000_000, 2_000_000, 1);
        let t0 = Instant::now();
        assert!(b.snooze());
        assert!(t0.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn from_config_uses_retry_fields() {
        let cfg = LciConfig::default()
            .with_retry_budget(7)
            .with_backoff(50, 5_000);
        let b = Backoff::from_config(&cfg);
        assert_eq!(b.budget, 7);
        assert_eq!(b.base_ns, 50);
        assert_eq!(b.cap_ns, 5_000);
    }

    #[test]
    fn degenerate_bases_are_clamped() {
        let b = Backoff::new(0, 0, 1);
        assert_eq!(b.next_wait_ns(), 1);
    }
}
