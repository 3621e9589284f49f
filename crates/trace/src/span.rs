//! Span timers: RAII guards that accumulate elapsed wall time into a
//! phase counter and leave begin/end breadcrumbs in the thread's ring.
//!
//! This is how Fig 6's compute/comm breakdown is produced from traces
//! instead of wall-clock subtraction: each engine phase opens a span, and
//! the per-phase `*_ns` counters sum exactly what was spent inside them.
//!
//! A span reads the clock ([`now_ns`]) once at each end, and that one
//! reading is both its ring event's timestamp and its share of the elapsed
//! time. Back-to-back phases hand the boundary over — the reading that
//! closed one ([`Span::end`]) opens the next ([`Span::enter_at`]) — so a
//! chain of *n* spans costs *n + 1* clock reads and leaves no gap.
//!
//! A span closes into one counter table: the table of the host it runs on
//! ([`Span::enter_in`], [`Span::enter_at`]) — which only that host's threads
//! write, and which reads of [`global()`] include — or, with no host at hand,
//! the global table itself ([`Span::enter`]).

use crate::counters::{global, Counter, Registry};
use crate::ring::{now_ns, record_at, EventKind};

/// RAII phase timer. On drop (or [`Span::finish`] / [`Span::end`]) the
/// elapsed nanoseconds are added to the span's counter in the table it was
/// opened on.
#[must_use = "a span measures the scope it lives in; binding it to _ drops it immediately"]
pub struct Span<'r> {
    table: &'r Registry,
    counter: Counter,
    /// The [`now_ns`] reading the span opened at.
    start: u64,
    done: bool,
}

impl Span<'static> {
    /// Open a span accumulating into `counter` (a `*_ns` phase counter) of
    /// the global table.
    pub fn enter(counter: Counter) -> Self {
        Self::enter_in(global(), counter)
    }
}

impl<'r> Span<'r> {
    /// Open a span accumulating into `counter` of `table`, typically the
    /// table of the host the calling thread works for.
    pub fn enter_in(table: &'r Registry, counter: Counter) -> Self {
        Self::enter_at(table, now_ns(), counter)
    }

    /// Open a span on `table` at `t`, a [`now_ns`] reading the caller already
    /// holds — typically what the previous phase's [`Span::end`] returned.
    pub fn enter_at(table: &'r Registry, t: u64, counter: Counter) -> Self {
        record_at(t, EventKind::PhaseBegin, counter as u32, 0);
        Span {
            table,
            counter,
            start: t,
            done: false,
        }
    }

    /// Close early and return the elapsed nanoseconds this span recorded.
    pub fn finish(mut self) -> u64 {
        self.close().saturating_sub(self.start)
    }

    /// Close early and return the [`now_ns`] reading it closed at, for the
    /// next phase's [`Span::enter_at`].
    pub fn end(mut self) -> u64 {
        self.close()
    }

    /// Record the end, once: `finish` and `end` consume the span, and `drop`
    /// skips a span they closed.
    fn close(&mut self) -> u64 {
        let t = now_ns();
        self.done = true;
        let ns = t.saturating_sub(self.start);
        self.table.add(self.counter, ns);
        record_at(t, EventKind::PhaseEnd, self.counter as u32, ns);
        t
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{with_ring, TraceEvent};

    #[test]
    fn span_accumulates_into_counter_and_ring() {
        with_ring(|r| {
            r.drain();
        });
        let before = global().snapshot();
        let s = Span::enter(Counter::PhaseComputeNs);
        std::hint::black_box(1 + 1);
        let ns = s.finish();
        let delta = global().snapshot().delta(&before);
        assert!(delta.get(Counter::PhaseComputeNs) >= ns);
        let events = with_ring(|r| r.drain()).unwrap();
        let begins = events.iter().filter(|e| e.kind == EventKind::PhaseBegin).count();
        let ends: Vec<_> = events.iter().filter(|e| e.kind == EventKind::PhaseEnd).collect();
        assert_eq!(begins, 1);
        assert_eq!(ends.len(), 1);
        assert_eq!(ends[0].a, Counter::PhaseComputeNs as u32);
        assert_eq!(ends[0].b, ns);
    }

    #[test]
    fn drop_records_once() {
        let before = global().snapshot();
        {
            let _s = Span::enter(Counter::PhaseControlNs);
        }
        let mid = global().snapshot();
        assert!(mid.delta(&before).get(Counter::PhaseControlNs) > 0);

        // finish() then drop must not double-count.
        let s = Span::enter(Counter::PhaseControlNs);
        let ns = s.finish();
        let after = global().snapshot();
        assert!(after.delta(&mid).get(Counter::PhaseControlNs) >= ns);
    }

    /// One reading per boundary: a span's end stamp minus its begin stamp
    /// is exactly the elapsed time its end event carries and its counter
    /// gained, and two chained spans share the stamp between them. Each span
    /// has a counter no other test of this binary touches, so the deltas
    /// are its own.
    #[test]
    fn one_reading_per_boundary() {
        with_ring(|r| {
            r.drain();
        });
        let (first, second) = (Counter::PhaseReduceNs, Counter::PhaseBroadcastNs);
        let before = global().snapshot();
        let s = Span::enter(first);
        std::hint::black_box((0..100).sum::<u64>());
        let boundary = s.end();
        let s = Span::enter_at(global(), boundary, second);
        std::hint::black_box((0..100).sum::<u64>());
        let last = s.end();
        let delta = global().snapshot().delta(&before);

        let events = with_ring(|r| r.drain()).unwrap();
        let phase = |kind, c: Counter| -> TraceEvent {
            let mut hits = events.iter().filter(|e| e.kind == kind && e.a == c as u32);
            let hit = *hits.next().expect("event recorded");
            assert!(hits.next().is_none(), "one {kind:?} per span");
            hit
        };
        for c in [first, second] {
            let (begin, end) = (phase(EventKind::PhaseBegin, c), phase(EventKind::PhaseEnd, c));
            assert_eq!(end.t_ns - begin.t_ns, end.b, "{c:?}: stamps vs elapsed");
            assert_eq!(delta.get(c), end.b, "{c:?}: counter vs elapsed");
        }
        let end_first = phase(EventKind::PhaseEnd, first);
        assert_eq!(end_first.t_ns, boundary);
        assert_eq!(phase(EventKind::PhaseBegin, second).t_ns, boundary);
        assert_eq!(phase(EventKind::PhaseEnd, second).t_ns, last);
    }

    /// A span opened on a host's table counts there and nowhere else, and
    /// reads of the global table include it (no other test of this binary
    /// touches `phase.comm_ns`).
    #[test]
    fn a_span_closes_into_the_table_it_was_opened_on() {
        let c = Counter::PhaseCommNs;
        let (host, isolated) = (Registry::for_host(), Registry::new());
        let before = global().get(c);
        let ns = Span::enter_in(&host, c).finish();
        let t = Span::enter_in(&isolated, c).end();
        Span::enter_at(&isolated, t, c).finish();
        assert_eq!(host.get(c), ns);
        let summed = global().get(c) - before;
        assert_eq!(summed, ns, "only the host table is summed");
    }
}
