//! `Endpoint::drain_into` takes a completion queue a batch at a time. It must
//! hand out what repeated `Endpoint::poll` would have, in the same order, and
//! leave the endpoint in the same state; and on a wall-clock fabric, where the
//! injection queue is drained in batches too, concurrent injectors and a
//! draining poller must lose and duplicate nothing.

use lci_fabric::{Endpoint, Event, Fabric, FabricConfig, Fault, FaultPlan, SendError, WireModel};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One completion as comparable text, payload bytes included.
fn describe(host: usize, ev: &Event) -> String {
    match ev {
        Event::Recv { src, header, data } => {
            format!("{host}: recv {src} {header:#x} {:?}", &data[..])
        }
        other => format!("{host}: {other:?}"),
    }
}

/// How a run reads its endpoints' completion queues.
#[derive(Clone, Copy)]
enum Reader {
    Poll,
    Drain,
}

impl Reader {
    /// Read everything `ep` has queued into `out`, dropping each event (and
    /// with it any receive credit) as it is read.
    fn read(self, host: usize, ep: &Endpoint, buf: &mut VecDeque<Event>, out: &mut Vec<String>) {
        match self {
            Reader::Poll => {
                while let Some(ev) = ep.poll() {
                    out.push(describe(host, &ev));
                }
            }
            Reader::Drain => {
                while ep.drain_into(buf) > 0 {
                    out.extend(buf.drain(..).map(|ev| describe(host, &ev)));
                }
            }
        }
    }
}

/// What a run leaves behind: every completion in the order it was read, and
/// each endpoint's injection slots in use and receive credits left.
#[derive(Debug, PartialEq)]
struct Outcome {
    events: Vec<String>,
    inflight: Vec<usize>,
    rx_credits: Vec<i64>,
}

/// Three hosts on a manual fabric. Host 0 sends host 1 eager messages,
/// every other one signaled; host 1 answers each with a put into host 0's
/// region, every other one with an immediate; host 2 sends host 1 signaled
/// messages too. Host 1 has few receive buffers and is read only every
/// fourth round, and an RNR storm against it runs from 20 µs to 60 µs, so
/// deliveries bounce, retry, and — with a retry limit of 3 — some exhaust it
/// and post an `Error`, failing their sender.
fn run(reader: Reader) -> Outcome {
    let plan = FaultPlan::none().with_phase(20_000, 40_000, Fault::RnrStorm { target: 1 });
    let cfg = FabricConfig::deterministic(3, 0xBA7C4)
        .with_rx_buffers(6)
        .with_rnr_retry_limit(3)
        .with_fault_plan(plan);
    let f = Fabric::new_manual(cfg);
    let eps = f.endpoints();
    let mr = eps[0].register_mr(256);
    let mut buf = VecDeque::new();
    let mut events = Vec::new();
    for round in 0..120u64 {
        let body = [round as u8; 24];
        let _ = eps[0].try_send(
            1,
            round << 8,
            &body[..(round % 24) as usize],
            round % 2 * (round + 1),
        );
        let imm = (round % 2 == 0).then_some(round);
        let _ = eps[1].try_put(
            0,
            mr.key(),
            (round % 32) as usize * 8,
            &round.to_le_bytes(),
            round + 1,
            imm,
        );
        let _ = eps[2].try_send(1, round << 8 | 2, &body, 1_000 + round);
        for _ in 0..3 {
            f.step();
        }
        for h in [0, 2] {
            reader.read(h, &eps[h], &mut buf, &mut events);
        }
        if round % 4 == 3 {
            reader.read(1, &eps[1], &mut buf, &mut events);
        }
    }
    let mut guard = 0;
    while f.step() || eps.iter().any(|ep| ep.inflight() > 0) {
        guard += 1;
        assert!(guard < 100_000, "wire never went idle");
        for (h, ep) in eps.iter().enumerate() {
            reader.read(h, ep, &mut buf, &mut events);
        }
    }
    for (h, ep) in eps.iter().enumerate() {
        reader.read(h, ep, &mut buf, &mut events);
    }
    Outcome {
        events,
        inflight: eps.iter().map(Endpoint::inflight).collect(),
        rx_credits: eps.iter().map(Endpoint::rx_credits).collect(),
    }
}

#[test]
fn batched_drain_hands_out_the_polled_order() {
    let polled = run(Reader::Poll);
    let drained = run(Reader::Drain);
    // The workload reached every kind of completion, or the comparison says
    // little.
    for kind in ["recv", "SendDone", "PutDone", "PutArrived", "Error"] {
        assert!(
            polled.events.iter().any(|e| e.contains(kind)),
            "no {kind} in the transcript"
        );
    }
    assert_eq!(polled.events.len(), drained.events.len());
    for (i, (p, d)) in polled.events.iter().zip(&drained.events).enumerate() {
        assert_eq!(p, d, "event {i} differs");
    }
    assert_eq!(polled, drained);
}

#[test]
fn drain_into_appends_behind_what_the_buffer_holds() {
    // No jitter: deliveries land in injection order.
    let wire = WireModel {
        jitter_ns: 0,
        ..WireModel::opa()
    };
    let f = Fabric::new_manual(FabricConfig::deterministic(2, 5).with_wire(wire));
    let (a, b) = (f.endpoint(0), f.endpoint(1));
    for i in 0..4u64 {
        a.try_send(1, i, b"x", 0).unwrap();
    }
    f.drain();
    let mut buf = VecDeque::new();
    assert_eq!(b.drain_into(&mut buf), 4);
    a.try_send(1, 4, b"x", 0).unwrap();
    f.drain();
    assert_eq!(b.drain_into(&mut buf), 1);
    assert_eq!(b.drain_into(&mut buf), 0, "the queue was taken whole");
    let headers: Vec<u64> = buf
        .iter()
        .map(|ev| match ev {
            Event::Recv { header, .. } => *header,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(headers, [0, 1, 2, 3, 4]);
}

/// Four threads inject into one endpoint of a wall-clock fabric while one
/// poller drains both endpoints a batch at a time. The wire is as instant,
/// but a fault plan whose one phase never starts keeps every send on the
/// injection queue, which the wire takes a batch at a time. Every message
/// arrives exactly once and in its thread's order, every signaled send
/// completes once, and no injection slot is left in use.
#[test]
fn concurrent_injectors_and_a_draining_poller_lose_nothing() {
    const THREADS: u64 = 4;
    const N: u64 = 4_000;
    let plan = FaultPlan::none().with_phase(u64::MAX / 2, 1, Fault::Duplicate);
    let f = Fabric::new(
        FabricConfig::test(2)
            .with_fault_plan(plan)
            .with_injection_depth(64),
    );
    let (a, b) = (f.endpoint(0), f.endpoint(1));
    let deadline = Instant::now() + Duration::from_secs(60);
    let injecting = AtomicBool::new(true);
    let (seen, send_done) = std::thread::scope(|s| {
        let injectors: Vec<_> = (0..THREADS)
            .map(|t| {
                let a = a.clone();
                s.spawn(move || {
                    for i in 0..N {
                        // Every other send signaled (context ≠ 0).
                        let ctx = (i % 2) * (t * N + i + 1);
                        while let Err(e) = a.try_send(1, t << 32 | i, &i.to_le_bytes(), ctx) {
                            assert_eq!(e, SendError::Backpressure);
                            assert!(Instant::now() < deadline, "injection wedged");
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let poller = s.spawn(|| {
            let (mut seen, mut send_done) = (vec![Vec::new(); THREADS as usize], 0u64);
            let mut buf = VecDeque::new();
            while injecting.load(Ordering::Acquire)
                || seen.iter().map(Vec::len).sum::<usize>() < (THREADS * N) as usize
            {
                assert!(Instant::now() < deadline, "traffic lost");
                b.drain_into(&mut buf);
                for ev in buf.drain(..) {
                    let Event::Recv { header, data, .. } = ev else {
                        panic!("host 1 sends nothing: {ev:?}");
                    };
                    assert_eq!(&*data, &(header & 0xFFFF_FFFF).to_le_bytes());
                    seen[(header >> 32) as usize].push(header & 0xFFFF_FFFF);
                }
                a.drain_into(&mut buf);
                for ev in buf.drain(..) {
                    assert!(matches!(ev, Event::SendDone { .. }), "{ev:?}");
                    send_done += 1;
                }
            }
            (seen, send_done)
        });
        for i in injectors {
            i.join().expect("injector");
        }
        injecting.store(false, Ordering::Release);
        poller.join().expect("poller")
    });
    for (t, mine) in seen.iter().enumerate() {
        assert_eq!(
            mine,
            &(0..N).collect::<Vec<_>>(),
            "thread {t}: lost, duplicated or reordered"
        );
    }
    assert_eq!(a.inflight(), 0);
    // Completions are posted as deliveries happen, so all of them are queued
    // by now; whatever the poller's last pass missed is still there.
    let mut buf = VecDeque::new();
    a.drain_into(&mut buf);
    assert_eq!(send_done + buf.len() as u64, THREADS * N / 2);
}
