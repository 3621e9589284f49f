//! Calibrated busy-waiting, used to charge simulated software overheads.
//!
//! The mini-MPI baseline models per-call software costs (tag-matching list
//! traversal, `MPI_THREAD_MULTIPLE` locking, heavyweight progress calls) by
//! spinning for a configured number of nanoseconds. Spinning — rather than
//! sleeping — is the right model because these costs burn CPU on the calling
//! thread in a real MPI implementation.

use std::time::{Duration, Instant};

/// Busy-wait for approximately `ns` nanoseconds.
///
/// A no-op for `ns == 0` so that zero-overhead personalities cost nothing.
#[inline]
pub fn spin_for_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_nanos(ns);
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_free() {
        let t = Instant::now();
        for _ in 0..1000 {
            spin_for_ns(0);
        }
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn spin_takes_at_least_requested_time() {
        let t = Instant::now();
        spin_for_ns(2_000_000); // 2 ms
        assert!(t.elapsed() >= Duration::from_millis(2));
    }
}
