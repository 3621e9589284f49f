//! Behavioural tests for mini-mpi two-sided semantics.

use bytes::Bytes;
use mini_mpi::{MpiConfig, MpiWorld, Personality, ThreadLevel};
use lci_fabric::FabricConfig;
use std::time::{Duration, Instant};

fn test_world(n: usize) -> MpiWorld {
    MpiWorld::new(
        FabricConfig::test(n),
        MpiConfig::default().with_personality(Personality::zero()),
    )
}

#[test]
fn eager_send_recv() {
    let w = test_world(2);
    let a = w.comm(0);
    let b = w.comm(1);
    let t = std::thread::spawn(move || {
        let (st, data) = b.recv_blocking(Some(0), Some(5)).unwrap();
        assert_eq!(st.src, 0);
        assert_eq!(st.tag, 5);
        assert_eq!(data, b"eager!");
    });
    a.send_blocking(Bytes::from_static(b"eager!"), 1, 5).unwrap();
    t.join().unwrap();
}

#[test]
fn rendezvous_send_recv() {
    let w = test_world(2);
    let a = w.comm(0);
    let b = w.comm(1);
    let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 256) as u8).collect();
    let expect = payload.clone();
    let t = std::thread::spawn(move || {
        let (st, data) = b.recv_blocking(None, None).unwrap();
        assert_eq!(st.len, expect.len());
        assert_eq!(data, expect);
    });
    a.send_blocking(Bytes::from(payload), 1, 0).unwrap();
    t.join().unwrap();
}

#[test]
fn probe_then_recv_workflow() {
    // The MPI-Probe pattern of the paper: iprobe with wildcards to learn the
    // size/source, then a directed irecv.
    let w = test_world(2);
    let a = w.comm(0);
    let b = w.comm(1);
    a.send_blocking(Bytes::from(vec![9u8; 321]), 1, 77).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(st) = b.iprobe(None, None).unwrap() {
            break st;
        }
        assert!(Instant::now() < deadline);
    };
    assert_eq!(status.src, 0);
    assert_eq!(status.tag, 77);
    assert_eq!(status.len, 321);
    let req = b.irecv(Some(status.src), Some(status.tag)).unwrap();
    while !b.test_recv(&req).unwrap() {}
    assert_eq!(req.take_data().unwrap(), vec![9u8; 321]);
}

#[test]
fn non_overtaking_order_same_source_same_tag() {
    let w = test_world(2);
    let a = w.comm(0);
    let b = w.comm(1);
    let sender = std::thread::spawn(move || {
        for i in 0..200u32 {
            a.send_blocking(Bytes::from(i.to_le_bytes().to_vec()), 1, 4).unwrap();
        }
    });
    for i in 0..200u32 {
        let (_, data) = b.recv_blocking(Some(0), Some(4)).unwrap();
        let got = u32::from_le_bytes(data[..4].try_into().unwrap());
        assert_eq!(got, i, "MPI non-overtaking order violated");
    }
    sender.join().unwrap();
}

#[test]
fn pre_posted_receive_matches_later_arrival() {
    let w = test_world(2);
    let a = w.comm(0);
    let b = w.comm(1);
    let req = b.irecv(Some(0), Some(1)).unwrap();
    assert!(!b.test_recv(&req).unwrap());
    a.send_blocking(Bytes::from_static(b"late"), 1, 1).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !b.test_recv(&req).unwrap() {
        assert!(Instant::now() < deadline);
    }
    assert_eq!(req.take_data().unwrap(), b"late");
}

#[test]
fn wildcard_recv_takes_any_source() {
    let w = test_world(3);
    let c = w.comm(2);
    let a = w.comm(0);
    let b = w.comm(1);
    a.send_blocking(Bytes::from_static(b"from-a"), 2, 0).unwrap();
    b.send_blocking(Bytes::from_static(b"from-b"), 2, 0).unwrap();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..2 {
        let (st, _) = c.recv_blocking(None, None).unwrap();
        seen.insert(st.src);
    }
    assert_eq!(seen.len(), 2);
}

#[test]
fn tag_selective_recv_skips_other_tags() {
    let w = test_world(2);
    let a = w.comm(0);
    let b = w.comm(1);
    a.send_blocking(Bytes::from_static(b"first-other"), 1, 10).unwrap();
    a.send_blocking(Bytes::from_static(b"wanted"), 1, 20).unwrap();
    let (st, data) = b.recv_blocking(None, Some(20)).unwrap();
    assert_eq!(st.tag, 20);
    assert_eq!(data, b"wanted");
    // The earlier message is still there.
    let (st, data) = b.recv_blocking(None, None).unwrap();
    assert_eq!(st.tag, 10);
    assert_eq!(data, b"first-other");
}

#[test]
fn thread_multiple_concurrent_senders() {
    let w = MpiWorld::new(
        FabricConfig::test(2),
        MpiConfig::default()
            .with_personality(Personality::zero())
            .with_thread_level(ThreadLevel::Multiple),
    );
    let b = w.comm(1);
    let mut handles = Vec::new();
    for t in 0..4 {
        let a = w.comm(0);
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                a.send_blocking(Bytes::from(vec![t as u8]), 1, (t * 100 + i) as u32)
                    .unwrap();
            }
        }));
    }
    let mut got = 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    while got < 200 {
        if b.iprobe(None, None).unwrap().is_some() {
            let (_, _) = b.recv_blocking(None, None).unwrap();
            got += 1;
        }
        assert!(Instant::now() < deadline, "stuck at {got}/200");
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn invalid_args_rejected() {
    let w = test_world(2);
    let a = w.comm(0);
    assert!(a.isend(Bytes::new(), 99, 0).is_err());
    assert!(a.isend(Bytes::new(), 1, u32::MAX).is_err());
}

#[test]
fn resource_exhaustion_is_fatal_like_real_mpi() {
    // Tiny receive buffers, low retry limit, and a receiver that never
    // enters MPI: the sender's flood eventually fails the endpoint and the
    // communicator reports a *fatal* error — the paper's §III-B behaviour.
    let mut fcfg = FabricConfig::test(2)
        .with_rx_buffers(4)
        .with_rnr_retry_limit(1)
        .with_injection_depth(1024);
    fcfg.rnr_delay_ns = 1_000;
    let w = MpiWorld::new(
        fcfg,
        MpiConfig::default().with_personality(Personality::zero()),
    );
    let a = w.comm(0);
    let _b = w.comm(1); // never calls MPI: no progress, rx buffers stay full
    let mut failed = false;
    for i in 0..5000 {
        match a.send_blocking(Bytes::from(vec![0u8; 64]), 1, i % 100) {
            Ok(()) => {}
            Err(e) => {
                assert!(e.to_string().contains("crash") || e.to_string().contains("fatal"),
                    "unexpected error {e}");
                failed = true;
                break;
            }
        }
    }
    assert!(failed, "flooding a non-progressing receiver must be fatal");
}
