//! Direct contract tests of the three `CommLayer` implementations, without
//! an engine in the loop: every layer must satisfy the same round protocol
//! (`begin → send, one or more per peer → finish_sends → drain until every
//! peer is complete`, the receiver deciding when each peer is complete).

use abelian::comm::{exchange_all, recv_round, ChannelSpec};
use abelian::{build_layers, LayerKind};
use lci_fabric::{FabricConfig, ReliableConfig};
use mini_mpi::{MpiConfig, Personality};

const CH: usize = 0;

fn build(kind: LayerKind, hosts: usize) -> (Vec<std::sync::Arc<dyn abelian::CommLayer>>, abelian::LayerWorld) {
    build_layers(
        kind,
        FabricConfig::test(hosts),
        MpiConfig::default().with_personality(Personality::zero()),
        lci::LciConfig::for_hosts(hosts),
    )
}

fn register_all(layers: &[std::sync::Arc<dyn abelian::CommLayer>], max: usize) {
    std::thread::scope(|s| {
        for l in layers {
            let l = std::sync::Arc::clone(l);
            s.spawn(move || {
                l.register_channel(CH, ChannelSpec::uniform(l.num_hosts(), l.rank(), max));
            });
        }
    });
}

#[test]
fn all_layers_satisfy_round_contract() {
    for kind in LayerKind::all() {
        let hosts = 4;
        let (layers, _world) = build(kind, hosts);
        register_all(&layers, 4096);
        // Three rounds, each host sends a distinctive payload to each peer.
        for round in 0..3u8 {
            std::thread::scope(|s| {
                for l in &layers {
                    let l = std::sync::Arc::clone(l);
                    s.spawn(move || {
                        let me = l.rank();
                        let outgoing: Vec<Vec<u8>> = (0..hosts)
                            .map(|dst| vec![me as u8, dst as u8, round])
                            .collect();
                        let got = exchange_all(&*l, CH, outgoing);
                        assert_eq!(got.len(), hosts - 1, "{}", kind.name());
                        for (src, data) in got {
                            assert_eq!(
                                data,
                                vec![src as u8, me as u8, round],
                                "layer {} round {round}",
                                kind.name()
                            );
                        }
                    });
                }
            });
        }
    }
}

#[test]
fn empty_messages_still_counted() {
    for kind in LayerKind::all() {
        let hosts = 3;
        let (layers, _world) = build(kind, hosts);
        register_all(&layers, 256);
        std::thread::scope(|s| {
            for l in &layers {
                let l = std::sync::Arc::clone(l);
                s.spawn(move || {
                    let outgoing: Vec<Vec<u8>> = (0..hosts).map(|_| Vec::new()).collect();
                    let got = exchange_all(&*l, CH, outgoing);
                    assert_eq!(got.len(), hosts - 1, "{}", kind.name());
                    assert!(got.iter().all(|(_, d)| d.is_empty()));
                });
            }
        });
    }
}

#[test]
fn variable_sizes_per_peer_per_round() {
    // Payload sizes differ per (src, dst, round): exercises eager and
    // rendezvous/fragment paths inside one channel.
    for kind in LayerKind::all() {
        let hosts = 3;
        let (layers, _world) = build(kind, hosts);
        register_all(&layers, 64 << 10);
        for round in 0..2usize {
            std::thread::scope(|s| {
                for l in &layers {
                    let l = std::sync::Arc::clone(l);
                    s.spawn(move || {
                        let me = l.rank() as usize;
                        let size_for = |src: usize, dst: usize, r: usize| {
                            1 + (src * 7919 + dst * 104729 + r * 31) % 50_000
                        };
                        let outgoing: Vec<Vec<u8>> = (0..hosts)
                            .map(|dst| vec![me as u8; size_for(me, dst, round)])
                            .collect();
                        let got = exchange_all(&*l, CH, outgoing);
                        for (src, data) in got {
                            assert_eq!(
                                data.len(),
                                size_for(src as usize, me, round),
                                "layer {}",
                                kind.name()
                            );
                            assert!(data.iter().all(|&b| b == src as u8));
                        }
                        // A host whose own inbound traffic was all eager can
                        // be done before a slower peer's RTR for its
                        // rendezvous send arrives; leaving then strands that
                        // peer ("peer N unreachable" ≈ 70 ms later).
                        l.quiesce();
                    });
                }
            });
        }
    }
}

#[test]
fn membook_returns_to_zero_when_idle() {
    for kind in [LayerKind::Lci, LayerKind::MpiProbe] {
        let hosts = 2;
        let (layers, _world) = build(kind, hosts);
        register_all(&layers, 32 << 10);
        std::thread::scope(|s| {
            for l in &layers {
                let l = std::sync::Arc::clone(l);
                s.spawn(move || {
                    let outgoing: Vec<Vec<u8>> =
                        (0..hosts).map(|_| vec![1u8; 20_000]).collect();
                    let _ = exchange_all(&*l, CH, outgoing);
                    // The peer's rendezvous may still need this host's
                    // progress (as above): leaving now can strand it.
                    l.quiesce();
                });
            }
        });
        for l in &layers {
            // Drain any straggling completions.
            for _ in 0..1000 {
                l.drain(CH, &mut |_, _| {});
            }
            assert_eq!(
                l.membook().current(),
                0,
                "layer {} leaked buffer accounting",
                kind.name()
            );
            assert!(l.membook().peak() > 0);
        }
    }
}

/// Nothing synchronises hosts between rounds but the rounds themselves (the
/// engines have no control exchange), so with three hosts a fast peer's
/// round r + 1 can reach a host that is still receiving round r of the
/// **same** channel. Host 2 makes that happen every round: it sends to host
/// 0, sleeps, and only then sends to host 1 — so host 0 finishes the round,
/// opens the next and sends to host 1 while host 1 still waits on host 2.
/// (The sleep only steers: every interleaving must pass, and on the RMA layer,
/// whose puts go out together at `finish_sends` and whose `start` waits for
/// the target's `post`, there is nothing to steer.) Every host must see
/// exactly round r's payloads in round r, eager or rendezvous; on RMA that
/// means a slot is never overwritten before it is read. No join, no other
/// channel in between — the cases above join all hosts after every round.
#[test]
fn back_to_back_rounds_on_one_channel_never_mix() {
    const ROUNDS: usize = 20;
    let hosts = 3;
    // Distinct per (src, dst, round); every fourth round is 12 KiB, past the
    // 8 KiB eager limit of both transports.
    let payload = |src: usize, dst: usize, round: usize| {
        let len = if round % 4 == 3 { 12 << 10 } else { 24 };
        let mut data = vec![(src * 31 + dst * 7 + round) as u8; len];
        data[..3].copy_from_slice(&[src as u8, dst as u8, round as u8]);
        data
    };
    for kind in LayerKind::all() {
        // Ordering is under test, not failure detection, and one host stops
        // polling on purpose: a retry budget that neither its pauses nor a
        // starved thread on a two-core machine can exhaust (the default 12
        // tries are about 70 ms).
        let (layers, _world) = build_layers(
            kind,
            FabricConfig::test(hosts)
                .with_reliable(ReliableConfig::default().with_retry_budget(256)),
            MpiConfig::default().with_personality(Personality::zero()),
            lci::LciConfig::for_hosts(hosts),
        );
        register_all(&layers, 16 << 10);
        std::thread::scope(|s| {
            for l in &layers {
                s.spawn(move || {
                    let me = l.rank() as usize;
                    for round in 0..ROUNDS {
                        let outgoing: Vec<Vec<u8>> =
                            (0..hosts).map(|dst| payload(me, dst, round)).collect();
                        let got = if me == 2 {
                            staggered_exchange(&**l, outgoing)
                        } else {
                            exchange_all(&**l, CH, outgoing)
                        };
                        assert_eq!(got.len(), hosts - 1, "{} round {round}", kind.name());
                        for (src, data) in got {
                            assert!(
                                data == payload(src as usize, me, round),
                                "layer {}: host {me} in round {round} got {:?} ({} bytes) from {src}",
                                kind.name(),
                                &data[..data.len().min(3)],
                                data.len()
                            );
                        }
                    }
                    // As an engine retires: a peer may still need this host's
                    // progress for the last round's rendezvous and acks.
                    l.quiesce();
                });
            }
        });
    }
}

/// [`exchange_all`] with a millisecond's pause after the first send.
fn staggered_exchange(l: &dyn abelian::CommLayer, outgoing: Vec<Vec<u8>>) -> Vec<(u16, Vec<u8>)> {
    let me = l.rank();
    l.begin(CH);
    for (dst, data) in (0u16..).zip(outgoing).filter(|(dst, _)| *dst != me) {
        l.send(CH, dst, data);
        if dst == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    l.finish_sends(CH);
    let mut got = Vec::new();
    recv_round(l, CH, |src, data| {
        got.push((src, data.to_vec()));
        true
    })
    .unwrap_or_else(|f| panic!("layer '{}' failed mid-exchange: {f}", l.name()));
    got
}

/// One `drain` hands out the whole open round and nothing of the next.
/// Three hosts send each peer several messages a round: small ones the probe
/// layer coalesces, and one past its aggregation threshold that it sends on
/// its own. Hosts 0 and 1 run ahead: host 2 holds back until they have sent
/// it round 2 as well (on RMA, whose `start` waits for host 2's `post`, until
/// they have finished round 1), then drains once. That drain must hand it
/// every message of round 1 and none of round 2. Round 2 then completes as
/// usual, and once every host has quiesced each book is back where
/// registration left it (0, or the RMA layer's windows).
#[test]
fn one_drain_hands_out_the_open_round_and_none_of_the_next() {
    const HOSTS: usize = 3;
    const SIZES: [usize; 4] = [4, 17, 300, 1500];
    // Distinct per (src, dst, round, message).
    let payload = |src: usize, dst: usize, round: usize, i: usize| {
        let mut data = vec![(src * 31 + dst * 7 + round * 3 + i) as u8; SIZES[i]];
        data[..4].copy_from_slice(&[src as u8, dst as u8, round as u8, i as u8]);
        data
    };
    let round_for = |dst: usize, round: usize| -> Vec<Vec<u8>> {
        let mut all: Vec<Vec<u8>> = (0..HOSTS)
            .filter(|&src| src != dst)
            .flat_map(|src| (0..SIZES.len()).map(move |i| payload(src, dst, round, i)))
            .collect();
        all.sort();
        all
    };
    for kind in LayerKind::all() {
        // Host 2 stops driving progress while it holds back: a retry budget
        // no such pause can exhaust (as in the test above).
        let (layers, _world) = build_layers(
            kind,
            FabricConfig::test(HOSTS)
                .with_reliable(ReliableConfig::default().with_retry_budget(256)),
            MpiConfig::default().with_personality(Personality::zero()),
            lci::LciConfig::for_hosts(HOSTS),
        );
        register_all(&layers, 16 << 10);
        let registered: Vec<u64> = layers.iter().map(|l| l.membook().current()).collect();
        let ahead = std::sync::Barrier::new(HOSTS);
        let early = kind != LayerKind::MpiRma;
        std::thread::scope(|s| {
            for l in &layers {
                let (ahead, payload, round_for) = (&ahead, &payload, &round_for);
                s.spawn(move || {
                    let me = l.rank() as usize;
                    let send_round = |round: usize| {
                        l.begin(CH);
                        for dst in (0..HOSTS).filter(|&d| d != me) {
                            for i in 0..SIZES.len() {
                                l.send(CH, dst as u16, payload(me, dst, round, i));
                            }
                        }
                        l.finish_sends(CH);
                    };
                    let recv_counted = || {
                        let (mut got, mut per_peer) = (Vec::new(), [0; HOSTS]);
                        recv_round(&**l, CH, |src, data| {
                            got.push(data.to_vec());
                            per_peer[src as usize] += 1;
                            per_peer[src as usize] == SIZES.len()
                        })
                        .unwrap_or_else(|f| panic!("layer '{}' failed: {f}", l.name()));
                        got.sort();
                        got
                    };
                    send_round(1);
                    if me == 2 {
                        ahead.wait();
                        let mut got = Vec::new();
                        let n = l.drain(CH, &mut |_, data| got.push(data.to_vec()));
                        got.sort();
                        assert_eq!(n, got.len(), "{}", kind.name());
                        assert!(
                            got == round_for(2, 1),
                            "layer {}: one drain handed host 2 {:?} (src, dst, round, i)",
                            kind.name(),
                            got.iter().map(|d| &d[..4]).collect::<Vec<_>>()
                        );
                        send_round(2);
                    } else {
                        assert_eq!(recv_counted(), round_for(me, 1), "{}", kind.name());
                        if early {
                            send_round(2);
                        }
                        ahead.wait();
                        if !early {
                            send_round(2);
                        }
                    }
                    assert_eq!(recv_counted(), round_for(me, 2), "{}", kind.name());
                    l.quiesce();
                });
            }
        });
        for (l, at) in layers.iter().zip(registered) {
            assert_eq!(l.membook().current(), at, "layer {} rank {}", kind.name(), l.rank());
        }
    }
}
