//! Wire-hardening suite: the adversarial half of the chaos tests.
//!
//! Three families:
//!
//! 1. **Frame-layer proptests** — the fabric's checksum + sequence framing
//!    ([`lci_fabric::frame`]) round-trips losslessly, rejects every bit flip
//!    and truncation, never panics on arbitrary bytes, and the [`SeqGate`]
//!    admits each sequence number exactly once in any arrival order.
//! 2. **Decoder fuzz** — every LCI protocol decoder is total: arbitrary
//!    bytes produce `None`/`Err`, never a panic. (The mini-mpi envelope
//!    decoders have the same property, asserted by in-crate unit tests since
//!    they are crate-private.)
//! 3. **End-to-end chaos** — seeded runs with `Corrupt`, `Duplicate` and
//!    `Truncate` all active for the whole run, on all three communication
//!    layers and both engines (including LCI's emulated-put fragment
//!    streams): results must be bit-identical to the fault-free reference,
//!    the fault injector must have actually fired, and the hardened decode
//!    paths must show non-zero ghost-drop counters.

use abelian::apps::{reference, Bfs, Cc};
use abelian::{build_layers, run_app, EngineConfig, LayerKind};
use gemini::{run_gemini, GeminiConfig};
use lci_fabric::frame::{self, FrameError, SeqGate, FRAME_OVERHEAD};
use lci_fabric::{FabricConfig, Fault, FaultPlan};
use lci_graph::{gen, partition, Policy};
use lci_trace::{Counter, CounterSnapshot};
use proptest::prelude::*;
use std::sync::Arc;

// ---- 1. frame-layer properties --------------------------------------------

proptest! {
    #[test]
    fn frame_roundtrip(
        header in any::<u64>(),
        seq in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let framed = frame::seal(header, seq, &body);
        prop_assert_eq!(framed.len(), FRAME_OVERHEAD + body.len());
        let (got_seq, got_body) = frame::open(header, &framed).expect("sealed frame opens");
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got_body, &body[..]);
    }

    #[test]
    fn frame_open_is_total_on_arbitrary_bytes(
        header in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Must never panic; the result itself is unconstrained (random bytes
        // that happen to checksum are astronomically unlikely but legal).
        let _ = frame::open(header, &bytes);
    }

    #[test]
    fn frame_rejects_every_bit_flip(
        header in any::<u64>(),
        seq in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 1..64),
        bit_sel in any::<u32>(),
    ) {
        let framed = frame::seal(header, seq, &body);
        let bit = bit_sel as usize % (framed.len() * 8);
        let mut bad = framed.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(frame::open(header, &bad).is_err(), "flip at bit {} passed", bit);
        // Header flips are covered by the checksum too.
        let hbit = bit_sel % 64;
        prop_assert!(frame::open(header ^ (1u64 << hbit), &framed).is_err());
    }

    #[test]
    fn frame_rejects_every_truncation(
        header in any::<u64>(),
        seq in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 1..64),
        cut_sel in any::<u32>(),
    ) {
        let framed = frame::seal(header, seq, &body);
        let cut = cut_sel as usize % framed.len();
        prop_assert!(frame::open(header, &framed[..cut]).is_err(), "cut to {} passed", cut);
    }

    #[test]
    fn frame_rejects_trailing_bytes_as_structural(
        header in any::<u64>(),
        seq in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
        trailing in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        // Bytes past the declared body length — including after a
        // declared-empty body — are a length-field mismatch, detected
        // structurally before the checksum pass.
        let mut framed = frame::seal(header, seq, &body);
        framed.extend_from_slice(&trailing);
        prop_assert_eq!(frame::open(header, &framed), Err(FrameError::BadLength));
    }

    #[test]
    fn frame_rejects_exact_prefix_cuts_structurally(
        header in any::<u64>(),
        seq in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let framed = frame::seal(header, seq, &body);
        // A cut at the pre-hardening 12-byte prefix is below the current
        // prefix: TooShort. A cut at exactly the full 16-byte prefix leaves
        // a declared-nonempty body with zero bytes on hand: BadLength.
        prop_assert_eq!(frame::open(header, &framed[..12]), Err(FrameError::TooShort));
        prop_assert_eq!(
            frame::open(header, &framed[..FRAME_OVERHEAD]),
            Err(FrameError::BadLength)
        );
    }

    #[test]
    fn crc_equals_bitwise_reference_however_the_input_is_split(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        cuts in proptest::collection::vec(any::<u16>(), 0..4),
    ) {
        // Bit-at-a-time CRC-32/IEEE, the oracle for the table-sliced fold.
        let mut want = 0xFFFF_FFFFu32;
        for &b in &bytes {
            want ^= b as u32;
            for _ in 0..8 {
                want = if want & 1 != 0 { 0xEDB8_8320 ^ (want >> 1) } else { want >> 1 };
            }
        }
        let mut cuts: Vec<usize> =
            cuts.iter().map(|&c| c as usize % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        let mut crc = frame::Crc32::new();
        let mut from = 0;
        for cut in cuts {
            crc.update(&bytes[from..cut]);
            from = cut;
        }
        crc.update(&bytes[from..]);
        prop_assert_eq!(crc.finish(), !want);
    }

    #[test]
    fn seq_gate_admits_each_seq_exactly_once(
        seqs in proptest::collection::vec(0u64..128, 1..256),
    ) {
        let mut gate = SeqGate::new();
        let mut seen = std::collections::HashSet::new();
        for &s in &seqs {
            prop_assert_eq!(gate.admit(s), seen.insert(s), "seq {} mis-gated", s);
        }
    }

    #[test]
    fn seq_gate_pending_set_is_bounded_by_window(
        window in 1u64..32,
        seqs in proptest::collection::vec(any::<u64>(), 1..256),
    ) {
        // However pathological the arrival pattern — forged far-future
        // numbers included — the above-watermark set never outgrows the
        // configured window, and beyond-window frames are never admitted.
        let mut gate = SeqGate::new().with_window(window);
        for &s in &seqs {
            let admitted = gate.admit(s);
            prop_assert!(gate.pending() as u64 <= window);
            // The watermark only advances, so an admitted seq was within
            // `window` of it at admission time and still is afterwards.
            if admitted {
                prop_assert!(s < gate.watermark() + window);
            }
        }
    }

    // ---- 2. protocol decoder fuzz -----------------------------------------

    #[test]
    fn lci_protocol_decoders_are_total(
        header in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Totality only: arbitrary input must decode or reject, never panic.
        let _ = lci::protocol::unpack(header);
        let _ = lci::protocol::decode_rts(&bytes);
        let _ = lci::protocol::decode_rtr(&bytes);
        let _ = lci::protocol::decode_frag_header(&bytes);
    }

    #[test]
    fn lci_header_roundtrip(tag in 0u32..=lci::MAX_TAG, size in 0u64..=lci::MAX_SIZE) {
        use lci::protocol::{pack, unpack, PacketType};
        for ty in [PacketType::Egr, PacketType::Rts, PacketType::Rtr, PacketType::Frag] {
            let (t, g, s) = unpack(pack(ty, tag, size)).expect("valid header");
            prop_assert_eq!(t, ty);
            prop_assert_eq!(g, tag);
            prop_assert_eq!(s, size);
        }
    }
}

#[test]
fn sealed_checkpoint_bytes_are_the_parent_commits() {
    // Length and CRC trailer recorded from `checkpoint::seal` before the
    // shared `Crc32` was table-sliced: the checkpoint format did not move.
    let snap = abelian::checkpoint::Snapshot {
        round: 0x1122_3344_5566_7788,
        sections: vec![
            (0..61u32).map(|i| (i * 37 + 11) as u8).collect(),
            vec![],
            b"123456789".to_vec(),
        ],
    };
    let sealed = abelian::checkpoint::seal(&snap);
    assert_eq!(sealed.len(), 102);
    assert_eq!(sealed[sealed.len() - 4..], 0x7841_74bfu32.to_le_bytes());
    assert_eq!(abelian::checkpoint::open(&sealed), Ok(snap));
}

// ---- 3. end-to-end chaos ---------------------------------------------------

/// All phases outlive the run: threaded fabrics judge phases against the
/// wall clock (see `cross_layer_equivalence.rs`).
const WHOLE_RUN: u64 = u64::MAX / 2;

/// All three adversarial wire faults at once, for the whole run. Three flips
/// per corrupt ghost keeps CRC-32 detection certain (it catches every error
/// of weight < 4 at these frame lengths), so the runs are deterministic.
fn adversarial_plan() -> FaultPlan {
    FaultPlan::none()
        .with_phase(0, WHOLE_RUN, Fault::Corrupt { flips: 3 })
        .with_phase(0, WHOLE_RUN, Fault::Duplicate)
        .with_phase(0, WHOLE_RUN, Fault::Truncate)
}

/// Total ghost rejections recorded by the hardened decode paths.
fn ghost_drops(delta: &CounterSnapshot) -> u64 {
    [
        Counter::LciMalformedDropped,
        Counter::LciDuplicateDropped,
        Counter::MpiMalformedDropped,
        Counter::MpiDuplicateDropped,
        Counter::EngineMalformedDropped,
    ]
    .iter()
    .map(|&c| delta.get(c))
    .sum()
}

fn assert_faults_fired_and_ghosts_dropped(delta: &CounterSnapshot, what: &str) {
    assert!(delta.get(Counter::FabricFaultCorrupted) > 0, "{what}: no corrupt ghosts injected");
    assert!(delta.get(Counter::FabricFaultDuplicated) > 0, "{what}: no duplicate ghosts injected");
    assert!(delta.get(Counter::FabricFaultTruncated) > 0, "{what}: no truncate ghosts injected");
    assert!(ghost_drops(delta) > 0, "{what}: hardened decoders rejected nothing");
}

#[test]
fn abelian_survives_adversarial_wire_faults_on_all_layers() {
    let g = gen::randomize_weights(&gen::rmat(6, 4, 0xBEEF), 10, 0xBEEF ^ 0x55);
    let source = 2 % g.num_vertices() as u32;
    let parts = partition(&g, 3, Policy::VertexCutHash);
    parts.validate(&g);
    let expect = reference::bfs(&g, source);
    for kind in LayerKind::all() {
        let before = lci_trace::global().snapshot();
        let (layers, _world) = build_layers(
            kind,
            FabricConfig::test(3)
                .with_seed(0xD0D0)
                .with_fault_plan(adversarial_plan()),
            mini_mpi::MpiConfig::default().with_personality(mini_mpi::Personality::zero()),
            lci::LciConfig::for_hosts(3),
        );
        let got = run_app(
            &parts,
            Arc::new(Bfs { source }),
            &layers,
            &EngineConfig::default(),
        )
        .values;
        assert_eq!(got, expect, "layer {} corrupted results", kind.name());
        let delta = lci_trace::global().snapshot().delta(&before);
        assert_faults_fired_and_ghosts_dropped(&delta, kind.name());
    }
}

/// LCI in emulated-put mode streams rendezvous payloads as fragment packets;
/// corrupt/truncate/duplicate ghosts of those fragments attack the Frag
/// reassembly path specifically (offset bounds, duplicate-range accounting).
/// A tiny eager limit forces nearly all engine traffic onto that path.
#[test]
fn emulated_put_frag_streams_survive_adversarial_wire_faults() {
    let g = gen::rmat(7, 6, 0xF7A6);
    let parts = partition(&g, 3, Policy::VertexCutCartesian);
    parts.validate(&g);
    let expect = reference::cc(&g);
    let before = lci_trace::global().snapshot();
    let (layers, _world) = build_layers(
        LayerKind::Lci,
        FabricConfig::test(3)
            .with_seed(0xF7A6)
            .with_fault_plan(adversarial_plan()),
        mini_mpi::MpiConfig::default().with_personality(mini_mpi::Personality::zero()),
        lci::LciConfig::for_hosts(3)
            .with_put_mode(lci::PutMode::Emulated)
            .with_eager_limit(256),
    );
    let got = run_app(&parts, Arc::new(Cc), &layers, &EngineConfig::default()).values;
    assert_eq!(got, expect, "frag streams corrupted results");
    let delta = lci_trace::global().snapshot().delta(&before);
    assert_faults_fired_and_ghosts_dropped(&delta, "emulated-put lci");
}

#[test]
fn gemini_chunk_streams_survive_adversarial_wire_faults() {
    let g = gen::rmat(7, 6, 0x6E31);
    let parts = partition(&g, 3, Policy::EdgeCutBlocked);
    parts.validate(&g);
    let expect = reference::cc(&g);
    for kind in LayerKind::all() {
        let before = lci_trace::global().snapshot();
        let (layers, _world) = build_layers(
            kind,
            FabricConfig::test(3)
                .with_seed(0x6E31)
                .with_fault_plan(adversarial_plan()),
            mini_mpi::MpiConfig::default().with_personality(mini_mpi::Personality::zero()),
            lci::LciConfig::for_hosts(3),
        );
        // Small chunks stress the chunk de-framing, on every layer.
        let cfg = GeminiConfig {
            chunk_bytes: 1 << 10,
            ..GeminiConfig::default()
        };
        let got = run_gemini(&parts, Arc::new(Cc), &layers, &cfg).values;
        assert_eq!(got, expect, "gemini over {} corrupted results", kind.name());
        let delta = lci_trace::global().snapshot().delta(&before);
        assert_faults_fired_and_ghosts_dropped(&delta, kind.name());
    }
}
