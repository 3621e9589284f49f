//! Clock-drift correction for repetition times.
//!
//! The sandbox is a shared two-vCPU VM whose effective core clock moves by
//! ±15 % for seconds at a time (measured: a fixed dependent multiply-add
//! chain of 3 M steps takes 2.9–3.8 ms, and the single-threaded stream
//! workloads track it with a constant ratio; keeping the second vCPU busy
//! alone costs the first one 12 %). Raw wall time of ten 10-second runs then
//! spreads by 9–18 % although nothing changed, which would hide any gain
//! smaller than that. So every timed piece of work is bracketed by two
//! probes of that chain, and its wall time is scaled to what it would have
//! been on a core that runs the chain at the reference speed. Work that is
//! not bound by the core clock (waiting, memory) is scaled too, which is
//! wrong for it, but the correction is a few percent there and the same on
//! both sides of any comparison.
//!
//! What the chain does not see is a neighbour on the host loading the
//! memory system: for a minute or so at a time everything but the chain
//! runs 10–30 % slower (streams +18 %, PageRank +27 %, chain +1 %). Nothing
//! here corrects that; probes with a message-like or a cache-missing mix of
//! instructions followed such episodes only in part and were noisier.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the calibration chain in one timed segment (under a millisecond).
const STEPS: u64 = 600_000;

/// Segments in a probe. The fastest one stands for the probe: a burst of
/// someone else's work in one segment must not read as a slow clock, or the
/// repetition beside it is scaled down and wins every low quantile.
const SEGMENTS: usize = 5;

/// The reference core: one multiply-add step (4 cycles of latency) at
/// 3.2 GHz, which is this sandbox's usual speed, so that corrected seconds
/// stay close to wall seconds here.
const REF_NS_PER_STEP: f64 = 1.25;

/// Seconds one segment of the calibration chain takes right now, as the
/// fastest of a few in a row (3-4 ms altogether).
fn probe() -> f64 {
    (0..SEGMENTS)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 1u64;
            for i in 0..STEPS {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(black_box(i));
            }
            black_box(x);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The factor that turns wall seconds measured between two probes into
/// seconds on the reference core.
fn scale(before: f64, after: f64) -> f64 {
    STEPS as f64 * REF_NS_PER_STEP * 1e-9 / (0.5 * (before + after))
}

/// Run `work` between two probes. Returns its result and the factor by
/// which to multiply any wall time measured inside it.
pub fn bracket<R>(work: impl FnOnce() -> R) -> (R, f64) {
    let before = probe();
    let result = work();
    (result, scale(before, probe()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_core_at_reference_speed_is_left_alone_and_a_slow_one_scaled() {
        let reference = STEPS as f64 * REF_NS_PER_STEP * 1e-9;
        assert_eq!(scale(reference, reference), 1.0);
        assert_eq!(scale(3.0 * reference, reference), 0.5);
        let (result, factor) = bracket(|| 7);
        assert_eq!(result, 7);
        assert!(factor.is_finite() && factor > 0.0);
    }
}
