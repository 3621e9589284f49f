//! Per-round timing instrumentation (the data behind Fig. 6 and the total
//! execution times of Figs. 3–4 and Tables II/IV).

use std::time::Duration;

/// Timing of one BSP round on one host.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundMetrics {
    /// Time spent applying operators (the computation phase).
    pub compute: Duration,
    /// Wall time of the round minus computation: everything this host did
    /// outside pure compute (gather/scatter work that overlaps with
    /// communication counts here, as in the paper's methodology) — which
    /// includes *waiting for a slower host's compute*. It is this host's
    /// view, not Fig. 6's non-overlapped communication; that is a property
    /// of the round across hosts, see [`aggregate_breakdown`].
    pub comm: Duration,
    /// Number of label updates sent this round (reduce payload entries).
    pub sent_entries: u64,
    /// Bytes sent this round across channels.
    pub sent_bytes: u64,
}

/// Accumulated per-host metrics for a run.
#[derive(Debug, Clone, Default)]
pub struct HostMetrics {
    /// One entry per round, in order.
    pub rounds: Vec<RoundMetrics>,
    /// Peak communication-buffer working set (Fig. 5).
    pub mem_peak: u64,
    /// Cumulative communication-buffer allocation churn.
    pub mem_total_allocated: u64,
}

impl HostMetrics {
    /// Total compute time across rounds.
    pub fn total_compute(&self) -> Duration {
        self.rounds.iter().map(|r| r.compute).sum()
    }

    /// Total non-overlapped communication time across rounds.
    pub fn total_comm(&self) -> Duration {
        self.rounds.iter().map(|r| r.comm).sum()
    }

    /// Total wall time attributed to this host.
    pub fn total(&self) -> Duration {
        self.total_compute() + self.total_comm()
    }

    /// Number of rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }
}

/// Aggregate `(compute, comm)` across hosts by the paper's Fig. 6 rule: a
/// round's computation is the maximum across hosts, and *everything else* of
/// the round — the longest host's `compute + comm` minus that maximum — is
/// non-overlapped communication; both summed over rounds. So the two add up
/// to the run, and a fast host's wait for a slow host's compute is counted as
/// the compute it is, not as communication.
pub fn aggregate_breakdown(hosts: &[HostMetrics]) -> (Duration, Duration) {
    let rounds = hosts.iter().map(|h| h.rounds.len()).max().unwrap_or(0);
    let mut compute = Duration::ZERO;
    let mut comm = Duration::ZERO;
    for r in 0..rounds {
        let round = || hosts.iter().filter_map(|h| h.rounds.get(r));
        let slowest_compute = round().map(|m| m.compute).max().unwrap_or_default();
        let longest = round().map(|m| m.compute + m.comm).max().unwrap_or_default();
        compute += slowest_compute;
        comm += longest - slowest_compute;
    }
    (compute, comm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_rounds() {
        let h = HostMetrics {
            rounds: vec![
                RoundMetrics {
                    compute: Duration::from_millis(2),
                    comm: Duration::from_millis(3),
                    ..Default::default()
                },
                RoundMetrics {
                    compute: Duration::from_millis(5),
                    comm: Duration::from_millis(1),
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(h.total_compute(), Duration::from_millis(7));
        assert_eq!(h.total_comm(), Duration::from_millis(4));
        assert_eq!(h.total(), Duration::from_millis(11));
        assert_eq!(h.num_rounds(), 2);
    }

    #[test]
    fn aggregate_takes_per_round_max() {
        let mk = |c_ms: u64, m_ms: u64| RoundMetrics {
            compute: Duration::from_millis(c_ms),
            comm: Duration::from_millis(m_ms),
            ..Default::default()
        };
        let a = HostMetrics {
            rounds: vec![mk(1, 10), mk(8, 1)],
            ..Default::default()
        };
        let b = HostMetrics {
            rounds: vec![mk(5, 2), mk(2, 6)],
            ..Default::default()
        };
        let (compute, comm) = aggregate_breakdown(&[a, b]);
        assert_eq!(compute, Duration::from_millis(13)); // 5 + 8
        // Everything else of each round: (11 - 5) + (9 - 8). For 4 of host
        // a's 10 ms in round 0, host b was still computing.
        assert_eq!(comm, Duration::from_millis(7));
    }
}
