//! Closed-loop message streams over the manual (virtual-clock) fabric.
//!
//! One single-threaded driver pushes the same checked payloads host 0 →
//! host 1 through any [`Transport`]: the bare [`Endpoint`], `+frame`,
//! `+ReliableSession`, `+lci::Device` (the rungs of the layer ladder), or
//! mini-mpi as the comparator. Because every rung runs the identical loop
//! on the identical wire, a rung's time minus the time of the rung below is
//! the cost of the layer it adds.

use crate::stats::PIECES;
use bytes::Bytes;
use lci::{Device, LciConfig, RecvRequest};
use lci_fabric::frame::{self, SeqGate};
use lci_fabric::{
    Endpoint, Event, Fabric, FabricConfig, RelRecv, ReliableSession, SendError, REL_DATA_OFFSET,
};
use mini_mpi::{MpiComm, MpiConfig, MpiWorld};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Messages the sender may have outstanding (sent, not yet received). Equal
/// to the reliable layer's default send window, so a burst fills it exactly
/// and the next burst exercises the retryable-rejection path.
pub const WINDOW: u64 = 32;

/// mini-mpi spins inside `isend` while its send window is full, which a
/// single-threaded driver of a manual fabric can never relieve. Half the
/// reliable window keeps a new burst admissible before the previous burst's
/// ack has been delivered.
const MPI_WINDOW: u64 = 16;

/// Virtual time to add when a whole iteration did nothing: an idle wire
/// freezes the clock, and with it the reliable layer's ack and
/// retransmission timers.
const IDLE_TICK_NS: u64 = 50_000;

/// Idle iterations in a row before the stream is declared wedged (far more
/// virtual time than the reliable layer needs to declare a peer dead).
const IDLE_LIMIT: u32 = 100_000;

/// The wire every stream runs on: two hosts, OPA-like latency and jitter on
/// the virtual clock, delivery order a pure function of `seed`.
pub fn wire(seed: u64) -> FabricConfig {
    FabricConfig::deterministic(2, seed)
}

/// Builds and verifies the stream's payloads: an 8-byte message index, then
/// bytes cut from a seeded template at an index-dependent offset.
pub struct Payloads {
    len: usize,
    template: Vec<u8>,
}

const TEMPLATE_SLACK: usize = 251;

impl Payloads {
    pub fn new(len: usize, seed: u64) -> Payloads {
        assert!(len >= 8, "payload must hold its 8-byte index");
        let mut template = vec![0u8; len + TEMPLATE_SLACK];
        SmallRng::seed_from_u64(seed).fill(&mut template);
        Payloads { len, template }
    }

    fn fill(&self, idx: u64) -> &[u8] {
        let off = (idx % TEMPLATE_SLACK as u64) as usize;
        &self.template[off..off + self.len - 8]
    }

    fn make(&self, idx: u64) -> Bytes {
        let mut v = Vec::with_capacity(self.len);
        v.extend_from_slice(&idx.to_le_bytes());
        v.extend_from_slice(self.fill(idx));
        Bytes::from(v)
    }

    /// The index a received body carries, if its length and fill are intact.
    fn verify(&self, body: &[u8]) -> Option<u64> {
        if body.len() != self.len {
            return None;
        }
        let idx = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
        (&body[8..] == self.fill(idx)).then_some(idx)
    }
}

/// Exactly-once bookkeeping at the receiver.
struct Delivery {
    seen: Vec<bool>,
    intact_once: u64,
}

impl Delivery {
    fn accept(&mut self, payloads: &Payloads, body: &[u8]) {
        if let Some(idx) = payloads.verify(body) {
            if let Some(slot) = self.seen.get_mut(idx as usize) {
                if !*slot {
                    *slot = true;
                    self.intact_once += 1;
                }
            }
        }
    }
}

/// A way of moving one message from host 0 to host 1.
pub trait Transport {
    /// Initiate message `idx`. `false` means refused for now: retry after
    /// the wire and both hosts have made progress.
    fn send(&mut self, idx: u64, payload: &Bytes) -> bool;
    /// Let both hosts react to what the wire delivered; returns the number
    /// of events handled (0 = nothing to do).
    fn progress(&mut self) -> usize;
    /// Hand the next delivered body to `sink`, if one is ready.
    fn recv(&mut self, sink: &mut dyn FnMut(&[u8])) -> bool;
    fn fabric(&self) -> &Fabric;
    fn window(&self) -> u64 {
        WINDOW
    }
}

fn accepted(r: Result<(), SendError>) -> bool {
    match r {
        Ok(()) => true,
        Err(SendError::Backpressure) => false,
        Err(e) => panic!("stream send failed fatally on a fault-free or lossy-only wire: {e}"),
    }
}

/// Rung 1: `Endpoint::try_send` / `Endpoint::poll`, nothing else.
pub struct EndpointRung {
    fabric: Fabric,
    a: Endpoint,
    b: Endpoint,
}

impl EndpointRung {
    pub fn new(cfg: FabricConfig) -> Self {
        let fabric = Fabric::new_manual(cfg);
        let (a, b) = (fabric.endpoint(0), fabric.endpoint(1));
        EndpointRung { fabric, a, b }
    }
}

impl Transport for EndpointRung {
    fn send(&mut self, idx: u64, payload: &Bytes) -> bool {
        accepted(self.a.try_send(1, idx, payload, idx + 1))
    }
    fn progress(&mut self) -> usize {
        let mut n = 0;
        while self.a.poll().is_some() {
            n += 1;
        }
        n
    }
    fn recv(&mut self, sink: &mut dyn FnMut(&[u8])) -> bool {
        while let Some(ev) = self.b.poll() {
            if let Event::Recv { data, .. } = ev {
                sink(&data);
                return true;
            }
        }
        false
    }
    fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

/// Rung 2: rung 1 plus `frame::seal` / `frame::open` / `SeqGate::admit`.
pub struct FrameRung {
    inner: EndpointRung,
    next_seq: u64,
    gate: SeqGate,
}

impl FrameRung {
    pub fn new(cfg: FabricConfig) -> Self {
        FrameRung {
            inner: EndpointRung::new(cfg),
            next_seq: 0,
            gate: SeqGate::new(),
        }
    }
}

impl Transport for FrameRung {
    fn send(&mut self, idx: u64, payload: &Bytes) -> bool {
        let framed = frame::seal(idx, self.next_seq, payload);
        let ok = accepted(self.inner.a.try_send(1, idx, &framed, idx + 1));
        self.next_seq += ok as u64;
        ok
    }
    fn progress(&mut self) -> usize {
        self.inner.progress()
    }
    fn recv(&mut self, sink: &mut dyn FnMut(&[u8])) -> bool {
        while let Some(ev) = self.inner.b.poll() {
            if let Event::Recv { header, data, .. } = ev {
                if let Ok((seq, body)) = frame::open(header, &data) {
                    if self.gate.admit(seq) {
                        sink(body);
                        return true;
                    }
                }
            }
        }
        false
    }
    fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }
}

/// Rung 3: a [`ReliableSession`] per host (which frames internally), driven
/// the way `lci::Device::progress` drives it: pump timers, then poll.
pub struct ReliableRung {
    fabric: Fabric,
    a: Endpoint,
    b: Endpoint,
    rel_a: ReliableSession,
    rel_b: ReliableSession,
}

impl ReliableRung {
    pub fn new(cfg: FabricConfig) -> Self {
        let fabric = Fabric::new_manual(cfg);
        let (a, b) = (fabric.endpoint(0), fabric.endpoint(1));
        let (rel_a, rel_b) = (ReliableSession::new(&a), ReliableSession::new(&b));
        ReliableRung {
            fabric,
            a,
            b,
            rel_a,
            rel_b,
        }
    }
}

impl Transport for ReliableRung {
    fn send(&mut self, idx: u64, payload: &Bytes) -> bool {
        accepted(self.rel_a.send(&self.a, 1, idx, payload, idx + 1))
    }
    fn progress(&mut self) -> usize {
        let mut n = self.rel_a.pump(&self.a) + self.rel_b.pump(&self.b);
        while let Some(ev) = self.a.poll() {
            n += 1;
            if let Event::Recv { src, header, data } = ev {
                // Host 0 receives only acks; the session harvests them.
                self.rel_a.on_recv(&self.a, src, header, &data);
            }
        }
        n
    }
    fn recv(&mut self, sink: &mut dyn FnMut(&[u8])) -> bool {
        while let Some(ev) = self.b.poll() {
            if let Event::Recv { src, header, data } = ev {
                if self.rel_b.on_recv(&self.b, src, header, &data) == RelRecv::Data {
                    sink(&data[REL_DATA_OFFSET..]);
                    return true;
                }
            }
        }
        false
    }
    fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

/// Rung 4: `Device::send_enq` / `progress` / `recv_deq` — the whole LCI
/// stack. Eager or rendezvous is chosen by the device from the payload size.
pub struct DeviceRung {
    fabric: Fabric,
    pub a: Device,
    pub b: Device,
    /// Rendezvous receives whose put has not landed yet.
    pending: Vec<RecvRequest>,
}

impl DeviceRung {
    pub fn new(cfg: FabricConfig) -> Self {
        let fabric = Fabric::new_manual(cfg);
        let lci_cfg = LciConfig::for_hosts(2);
        let a = Device::new(fabric.endpoint(0), lci_cfg.clone());
        let b = Device::new(fabric.endpoint(1), lci_cfg);
        DeviceRung {
            fabric,
            a,
            b,
            pending: Vec::new(),
        }
    }
}

impl Transport for DeviceRung {
    fn send(&mut self, idx: u64, payload: &Bytes) -> bool {
        match self.a.send_enq(payload.clone(), 1, (idx & 0xFFFF) as u32) {
            Ok(_) => true,
            Err(e) if e.is_retryable() => false,
            Err(e) => panic!("send_enq failed fatally: {e}"),
        }
    }
    fn progress(&mut self) -> usize {
        self.a.progress() + self.b.progress()
    }
    fn recv(&mut self, sink: &mut dyn FnMut(&[u8])) -> bool {
        if let Some(i) = self.pending.iter().position(RecvRequest::is_done) {
            let data = self.pending.swap_remove(i).take_data();
            sink(&data.expect("completed receive holds its data"));
            return true;
        }
        while let Some(req) = self.b.recv_deq() {
            if req.is_done() {
                sink(&req.take_data().expect("completed receive holds its data"));
                return true;
            }
            self.pending.push(req);
        }
        false
    }
    fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

/// The comparator: mini-mpi `isend` + wildcard `iprobe` + directed `irecv`
/// over the same manual fabric.
pub struct MpiRung {
    world: MpiWorld,
    a: MpiComm,
    b: MpiComm,
}

impl MpiRung {
    pub fn new(cfg: FabricConfig) -> Self {
        let world = MpiWorld::new_manual(cfg, MpiConfig::default());
        let (a, b) = (world.comm(0), world.comm(1));
        MpiRung { world, a, b }
    }
}

impl Transport for MpiRung {
    fn send(&mut self, idx: u64, payload: &Bytes) -> bool {
        self.a
            .isend(payload.clone(), 1, (idx & 0xFFFF) as u32)
            .expect("isend on a fault-free wire");
        true
    }
    fn progress(&mut self) -> usize {
        self.a.poke().expect("poke");
        self.b.poke().expect("poke");
        0
    }
    fn recv(&mut self, sink: &mut dyn FnMut(&[u8])) -> bool {
        let Some(status) = self.b.iprobe(None, None).expect("iprobe") else {
            return false;
        };
        let req = self
            .b
            .irecv(Some(status.src), Some(status.tag))
            .expect("irecv");
        sink(&req.take_data().expect("probed eager message is complete"));
        true
    }
    fn fabric(&self) -> &Fabric {
        self.world.fabric()
    }
    fn window(&self) -> u64 {
        MPI_WINDOW
    }
}

/// The four call sites of the driver loop, for harness-side spans.
#[derive(Clone, Copy)]
pub enum Site {
    Send = 0,
    Wire = 1,
    Progress = 2,
    Recv = 3,
}

/// Times calls into the layers from outside. The untraced probe compiles
/// to nothing, so end-to-end runs pay no tracing cost.
pub trait Probe {
    fn time<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R;
}

pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn time<R>(&mut self, _site: Site, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Accumulated wall time per call site.
#[derive(Default)]
pub struct Spans {
    pub ns: [u64; 4],
}

impl Probe for Spans {
    fn time<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns[site as usize] += t0.elapsed().as_nanos() as u64;
        r
    }
}

/// What one stream of `n` messages did.
pub struct StreamOutcome {
    pub n: u64,
    pub wall: Duration,
    /// Seconds each consecutive [`PIECES`]th of the messages took to arrive.
    /// The stream is a pure function of its seed, so lap `k` is the same
    /// work in every repetition.
    pub laps: Vec<f64>,
    /// Messages not delivered exactly once with intact bytes.
    pub failed: u64,
}

/// Stream `n` messages through `t`, at most `t.window()` outstanding.
pub fn run<T: Transport, P: Probe>(
    t: &mut T,
    payloads: &Payloads,
    n: u64,
    probe: &mut P,
) -> StreamOutcome {
    let window = t.window();
    let mut delivery = Delivery {
        seen: vec![false; n as usize],
        intact_once: 0,
    };
    let (mut sent, mut received) = (0u64, 0u64);
    let mut refused: Option<Bytes> = None;
    let mut idle = 0u32;
    let lap_len = n.div_ceil(PIECES as u64);
    let mut laps = Vec::with_capacity(PIECES);
    let start = Instant::now();
    let mut lap_start = start;
    while received < n {
        let sent_before = sent;
        probe.time(Site::Send, || {
            while sent < n && sent - received < window {
                let payload = refused.take().unwrap_or_else(|| payloads.make(sent));
                if t.send(sent, &payload) {
                    sent += 1;
                } else {
                    refused = Some(payload);
                    break;
                }
            }
        });
        let moved = probe.time(Site::Wire, || t.fabric().drain());
        let handled = probe.time(Site::Progress, || t.progress());
        let got = probe.time(Site::Recv, || {
            let mut got = 0;
            while t.recv(&mut |body| delivery.accept(payloads, body)) {
                got += 1;
            }
            got
        });
        received += got;
        // A burst that crosses several lap ends closes the later ones empty.
        while laps.len() < PIECES && received >= (lap_len * (laps.len() as u64 + 1)).min(n) {
            let now = Instant::now();
            laps.push((now - lap_start).as_secs_f64());
            lap_start = now;
        }
        if sent == sent_before && moved == 0 && handled == 0 && got == 0 {
            idle += 1;
            assert!(
                idle < IDLE_LIMIT,
                "stream wedged at {received}/{n} messages"
            );
            t.fabric().advance_virtual(IDLE_TICK_NS);
        } else {
            idle = 0;
        }
    }
    StreamOutcome {
        n,
        wall: start.elapsed(),
        laps,
        failed: n - delivery.intact_once,
    }
}
