//! Reliable delivery over a lossy wire: sliding windows, cumulative +
//! selective acks, seeded exponential-backoff retransmission, and
//! bounded-time peer-failure detection.
//!
//! The fabric's lossy faults ([`Fault::Drop`](crate::Fault),
//! [`Fault::Blackhole`](crate::Fault)) eat eager deliveries outright — the
//! send still completes (the packet left its NIC), so only a layer that
//! *retransmits* recovers the payload. [`ReliableSession`] is that
//! layer, shared by `lci::Device` and `mini-mpi`:
//!
//! * every data frame carries a 17-byte header inside the
//!   [`frame`](crate::frame) body —
//!   `[ack: u64 LE][sack: u32 LE][epoch: u32 LE][flags: u8]` —
//!   piggybacking the receiver state of the destination on reverse
//!   traffic and stamping the fabric incarnation epoch the frame was
//!   sealed under;
//! * a frame whose epoch predates the fabric's current one is a straggler
//!   from a dead incarnation (sealed before a [`crate::Fabric::respawn`]):
//!   it is dropped *before* ack harvesting or gate admission — post-rejoin
//!   sequence numbers restart at zero, so a stale cumulative ack or seq
//!   would otherwise corrupt the fresh window ([`RelRecv::Stale`], counted
//!   as `fabric.epoch.stale_dropped`);
//! * a bounded per-destination send window holds sealed unacked frames —
//!   each in the one buffer it was built in, which the session owns from
//!   the send until the frame is acked, its peer is declared dead or the
//!   session [`rejoin`](ReliableSession::rejoin)s, and then gives back to
//!   where it came from ([`FrameBufs`]); a full window surfaces
//!   [`SendError::Backpressure`] (bounded buffering, the same retryable
//!   condition as NIC back-pressure);
//! * `ack` is the destination gate's low watermark (cumulative: everything
//!   below it arrived), `sack` a bitmap of the 32 sequence numbers above it
//!   (selective: lets one lost frame not hold back acknowledgment of its
//!   successors);
//! * receivers owe an ack after every admitted data frame and settle the
//!   debt by piggybacking, by a standalone ack frame once a virtual-clock
//!   delay expires, or — crucially for the caller-stepped fabric mode,
//!   where an idle wire freezes the clock — after
//!   [`ReliableConfig::ack_every`] admitted frames regardless of time; a
//!   sender whose buffer source has nothing left for another frame says so
//!   in the frame that took the last buffer (`flags` = 2, InfiniBand's
//!   AckReq), and the receiver's debt for it is due at once — a pool
//!   smaller than `ack_every` would otherwise wait out the delay, or wait
//!   forever on a frozen clock, for buffers only an ack can return;
//! * unacked frames retransmit on a seeded exponential-backoff timer with
//!   jitter; exhausting [`ReliableConfig::retry_budget`] declares the
//!   destination dead and surfaces [`SendError::PeerDead`], which runtimes
//!   convert into a clean bounded-time abort instead of a wedged barrier;
//! * the *initial* timeout of each frame adapts to the observed ack
//!   round-trip (RFC 6298-shaped EWMA, Karn's rule: only never-retransmitted
//!   frames are sampled), clamped to
//!   `[rto_base_ns, rto_cap_ns]`; the current estimate is exported as the
//!   `fabric.reliable.rto_us` gauge.
//!
//! RDMA puts bypass this module entirely: they are hardware-reliable in the
//! fabric model, exactly as the paper's transports assume.
//!
//! All activity is counted under `fabric.reliable.*` in the host's counter
//! table ([`Endpoint::counters`]), and every timer draws jitter from a
//! splitmix64 stream seeded by `(fabric seed, host)`, so manual-mode runs
//! replay bit-for-bit.

use crate::config::ReliableConfig;
use crate::endpoint::Endpoint;
use crate::error::SendError;
use crate::frame;
use crate::HostId;
use lci_trace::Counter;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Bytes of reliable-layer header inside every framed body:
/// `[ack: u64][sack: u32][epoch: u32][flags: u8]`.
pub const REL_OVERHEAD: usize = 17;

/// Offset of the application body inside a delivered fabric payload:
/// frame prefix + reliable header. Consumers slice
/// `payload[REL_DATA_OFFSET..]` after [`ReliableSession::on_recv`] returns
/// [`RelRecv::Data`].
pub const REL_DATA_OFFSET: usize = frame::FRAME_OVERHEAD + REL_OVERHEAD;

/// Message header used by standalone ack frames. Never collides with
/// application headers in practice (both runtimes pack an op kind in the
/// top bits and none uses the all-ones pattern); the `flags` byte is the
/// authoritative discriminator regardless.
pub const ACK_HEADER: u64 = u64::MAX;

const FLAG_DATA: u8 = 0;
const FLAG_ACK: u8 = 1;
/// A data frame whose sender has no buffer left to build another in: the
/// ack it is owed is due now.
const FLAG_DATA_ACK_NOW: u8 = 2;

/// What [`ReliableSession::on_recv`] decided about a delivered payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelRecv {
    /// A fresh in-window data frame: consume the application body at
    /// `payload[REL_DATA_OFFSET..]`.
    Data,
    /// A retransmission of an already-admitted frame (our ack was lost, or
    /// the wire duplicated it). The ack debt has been re-armed; drop the
    /// payload.
    Duplicate,
    /// Failed frame or reliable-header validation (corrupt/truncated ghost,
    /// or a structurally damaged frame). Drop the payload.
    Malformed,
    /// A standalone ack frame — pure control traffic, nothing to consume.
    Ack,
    /// A straggler from a dead incarnation: the frame was sealed under an
    /// earlier fabric epoch than the current one. Dropped without touching
    /// ack or gate state (both restarted at the rejoin).
    Stale,
}

/// Where a session's frame buffers come from and where they go when their
/// lease ends. A runtime with a packet pool hands its pool in
/// ([`ReliableSession::with_bufs`]), so the memory its retransmit windows
/// hold is the pool's and bounded by it; the default is the heap.
pub trait FrameBufs: Send + Sync {
    /// A buffer of at least `len` bytes, or `None` when none is to be had
    /// right now (the send is refused with [`SendError::Backpressure`]).
    fn take(&self, len: usize) -> Option<Box<[u8]>>;
    /// Take back a buffer this source handed out, or one its owner passed
    /// to [`ReliableSession::send_frame`].
    fn give(&self, buf: Box<[u8]>);
    /// Is nothing left, so that only a returned buffer lets another frame
    /// be built? A bounded source says so; the session then asks the peer
    /// to acknowledge at once.
    fn exhausted(&self) -> bool {
        false
    }
}

struct Heap;

impl FrameBufs for Heap {
    fn take(&self, len: usize) -> Option<Box<[u8]>> {
        Some(vec![0u8; len].into_boxed_slice())
    }
    fn give(&self, _buf: Box<[u8]>) {}
}

struct Unacked {
    seq: u64,
    header: u64,
    /// The buffer the frame was sealed in. `frame[..len]` is the frame,
    /// byte-for-byte as first transmitted (retransmits must be
    /// bit-identical so the receiver's gate and checksum treat them as the
    /// same frame — including its epoch stamp); nothing writes to it while
    /// it sits here, and leaving the window is what returns it to the
    /// session's [`FrameBufs`].
    frame: Box<[u8]>,
    len: usize,
    retries: u32,
    rto_at: u64,
    rto_ns: u64,
    /// First-transmission time, for RTT sampling (Karn's rule: a frame
    /// that was ever retransmitted is never sampled — its ack is
    /// ambiguous).
    sent_at: u64,
}

struct PeerTx {
    next_seq: u64,
    window: VecDeque<Unacked>,
    dead: bool,
    rtt: RttEstimator,
}

/// Ack round-trip estimator of one destination (RFC 6298 shape). A field of
/// its own so that ack harvesting can feed it while it walks the window.
#[derive(Default)]
struct RttEstimator {
    /// Smoothed ack round-trip (EWMA, gain 1/8). Zero until the first
    /// sample.
    srtt_ns: u64,
    /// Round-trip variation (EWMA, gain 1/4).
    rttvar_ns: u64,
    has_rtt: bool,
}

impl RttEstimator {
    /// Feed one unambiguous RTT sample into the estimator.
    fn observe(&mut self, rtt_ns: u64) {
        if self.has_rtt {
            self.rttvar_ns = (3 * self.rttvar_ns + self.srtt_ns.abs_diff(rtt_ns)) / 4;
            self.srtt_ns = (7 * self.srtt_ns + rtt_ns) / 8;
        } else {
            self.srtt_ns = rtt_ns;
            self.rttvar_ns = rtt_ns / 2;
            self.has_rtt = true;
        }
    }

    /// Initial timeout for a fresh frame: `srtt + 4·rttvar` clamped to the
    /// configured band, or the configured base before any sample exists.
    fn initial_rto(&self, cfg: &ReliableConfig) -> u64 {
        if self.has_rtt {
            (self.srtt_ns + 4 * self.rttvar_ns).clamp(cfg.rto_base_ns, cfg.rto_cap_ns)
        } else {
            cfg.rto_base_ns
        }
    }
}

struct PeerRx {
    gate: frame::SeqGate,
    ack_owed: bool,
    ack_deadline: u64,
    owed_count: u32,
}

impl PeerRx {
    /// The reliable header every frame toward this peer carries: our
    /// receiver state for it, the incarnation epoch, and `flags`.
    fn rel_header(&self, epoch: u32, flags: u8) -> [u8; REL_OVERHEAD] {
        let mut rel = [0u8; REL_OVERHEAD];
        rel[..8].copy_from_slice(&self.gate.watermark().to_le_bytes());
        rel[8..12].copy_from_slice(&self.gate.mask_above().to_le_bytes());
        rel[12..16].copy_from_slice(&epoch.to_le_bytes());
        rel[16] = flags;
        rel
    }
}

struct PeerState {
    tx: PeerTx,
    rx: PeerRx,
    /// splitmix64 state for timer jitter toward this peer: every peer starts
    /// from the host's seed (fabric seed + host, independent of the `rand`
    /// crate so replay needs no RNG coupling) and is drawn from under the
    /// peer lock its timers are armed under.
    rng: u64,
}

/// One host's reliable-delivery state, layered over its [`Endpoint`].
///
/// The session does not poll the endpoint itself: the owning runtime feeds
/// every received payload through [`ReliableSession::on_recv`] and calls
/// [`ReliableSession::pump`] from its progress loop to fire retransmission
/// and standalone-ack timers.
pub struct ReliableSession {
    cfg: ReliableConfig,
    peers: Vec<Mutex<PeerState>>,
    bufs: Arc<dyn FrameBufs>,
    /// First peer declared dead ([`NO_HOST`] while there is none), surfaced
    /// to the runtime's failure path.
    dead: AtomicU32,
}

/// `dead` while every peer is alive: one past the largest [`HostId`].
const NO_HOST: u32 = HostId::MAX as u32 + 1;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ReliableSession {
    /// A session for `ep`'s host, tuned by the fabric's
    /// [`ReliableConfig`], whose frames live on the heap.
    pub fn new(ep: &Endpoint) -> Self {
        Self::with_bufs(ep, Arc::new(Heap))
    }

    /// A session whose frame buffers are `bufs`': what
    /// [`send`](Self::send) builds its frames in, and where every buffer
    /// goes when its frame leaves the window.
    pub fn with_bufs(ep: &Endpoint, bufs: Arc<dyn FrameBufs>) -> Self {
        let cfg = ep.config().reliable;
        assert!(cfg.window >= 1, "reliable window must be >= 1");
        assert!(cfg.ack_every >= 1, "ack_every must be >= 1");
        let mut seed = ep.config().seed ^ 0xAC4E ^ ((ep.host() as u64) << 32);
        // Scramble once so nearby host ids do not produce nearby streams.
        splitmix64(&mut seed);
        assert!(cfg.gate_window >= 1, "gate_window must be >= 1");
        ReliableSession {
            peers: (0..ep.num_hosts())
                .map(|_| Mutex::new(Self::fresh_peer(&cfg, seed)))
                .collect(),
            cfg,
            bufs,
            dead: AtomicU32::new(NO_HOST),
        }
    }

    /// Override the per-destination send window the fabric configures
    /// ([`ReliableConfig::window`]), for a runtime whose bound on
    /// unacknowledged frames is not the transport's to choose.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window >= 1, "reliable window must be >= 1");
        self.cfg.window = window;
        self
    }

    fn fresh_peer(cfg: &ReliableConfig, rng: u64) -> PeerState {
        PeerState {
            tx: PeerTx {
                next_seq: 0,
                window: VecDeque::new(),
                dead: false,
                rtt: RttEstimator::default(),
            },
            rx: PeerRx {
                gate: frame::SeqGate::new().with_window(cfg.gate_window),
                ack_owed: false,
                ack_deadline: 0,
                owed_count: 0,
            },
            rng,
        }
    }

    /// Reset the session for a new fabric incarnation (after a
    /// [`crate::Fabric::respawn`]): every peer's send window, sequence
    /// counter, receive gate, ack debt, RTT estimator, and dead flag start
    /// over (the jitter streams run on), and the buffers the windows held go
    /// back to the session's [`FrameBufs`]. Old in-flight frames are not
    /// re-driven — they carry the dead incarnation's epoch and will be
    /// dropped as [`RelRecv::Stale`] wherever they land. Called on *every*
    /// host during recovery, survivors included: both sides of every
    /// reliable link must restart their sequence spaces together.
    pub fn rejoin(&self) {
        for peer in &self.peers {
            let mut p = peer.lock();
            self.release_window(&mut p.tx.window);
            *p = Self::fresh_peer(&self.cfg, p.rng);
        }
        self.dead.store(NO_HOST, Ordering::Release);
    }

    /// End the lease of every frame still in `window`.
    fn release_window(&self, window: &mut VecDeque<Unacked>) {
        for u in window.drain(..) {
            self.bufs.give(u.frame);
        }
    }

    fn jitter_ns(&self, rng: &mut u64) -> u64 {
        if self.cfg.rto_jitter_ns == 0 {
            return 0;
        }
        splitmix64(rng) % self.cfg.rto_jitter_ns
    }

    /// Reliably send `body` to `dst`: copy it into a buffer taken from the
    /// session's [`FrameBufs`] and send that with
    /// [`send_frame`](Self::send_frame).
    ///
    /// `ctx` is returned in the `SendDone` of the *first* transmission only
    /// — retransmissions and standalone acks go out unsignaled (ctx 0) — so
    /// callers that wait on contexts see exactly one completion per send, and a
    /// caller passing 0 sees none: the window, not a completion, is what
    /// holds the frame.
    ///
    /// Errors: [`SendError::PeerDead`] once the destination's retry budget
    /// was exhausted; [`SendError::Backpressure`] when the send window is
    /// full (retry after pumping progress) or no buffer is to be had; fabric
    /// admission errors pass through. On any error the sequence number is
    /// *not* consumed.
    pub fn send(
        &self,
        ep: &Endpoint,
        dst: HostId,
        header: u64,
        body: &[u8],
        ctx: u64,
    ) -> Result<(), SendError> {
        let len = REL_DATA_OFFSET + body.len();
        let Some(mut frame) = self.bufs.take(len) else {
            return Err(SendError::Backpressure);
        };
        frame[REL_DATA_OFFSET..len].copy_from_slice(body);
        self.send_frame(ep, dst, header, frame, len, ctx)
    }

    /// Reliably send the body the caller has already written to
    /// `frame[REL_DATA_OFFSET..len]`: seal it in place — frame prefix and
    /// reliable header are stamped into the [`REL_DATA_OFFSET`] bytes of
    /// headroom in front of it — transmit `frame[..len]`, and keep `frame`
    /// itself in the window as the retransmit copy.
    ///
    /// The session owns `frame` from this call on and gives it to its
    /// [`FrameBufs`] exactly once: when the frame is acked, when `dst` is
    /// declared dead, at [`rejoin`](Self::rejoin) — or before returning, if
    /// the send is refused. `ctx` and the errors are [`send`](Self::send)'s:
    /// a caller whose buffers come back through the window, not through a
    /// completion, passes 0 and its frames post no `SendDone` at all.
    ///
    /// # Panics
    /// Panics if `len < REL_DATA_OFFSET` or `len > frame.len()`.
    pub fn send_frame(
        &self,
        ep: &Endpoint,
        dst: HostId,
        header: u64,
        mut frame: Box<[u8]>,
        len: usize,
        ctx: u64,
    ) -> Result<(), SendError> {
        let mut p = self.peers[dst as usize].lock();
        let seq = p.tx.next_seq;
        let refused = if p.tx.dead {
            Some(SendError::PeerDead(dst))
        } else if p.tx.window.len() >= self.cfg.window {
            ep.counters().incr(Counter::FabricReliableWindowStalls);
            Some(SendError::Backpressure)
        } else {
            let flags = if self.bufs.exhausted() {
                FLAG_DATA_ACK_NOW
            } else {
                FLAG_DATA
            };
            // The one buffer this frame ever lives in: the body is already
            // there, the headers are written in front of it, and the window
            // keeps it. What the NIC reads out of it is `try_send`'s copy.
            frame[frame::FRAME_OVERHEAD..REL_DATA_OFFSET]
                .copy_from_slice(&p.rx.rel_header(ep.fabric_epoch(), flags));
            frame::stamp(header, seq, &mut frame[..len]);
            ep.try_send(dst, header, &frame[..len], ctx).err()
        };
        if let Some(e) = refused {
            self.bufs.give(frame);
            return Err(e);
        }
        p.tx.next_seq += 1;
        let now = ep.now_ns();
        let rto = p.tx.rtt.initial_rto(&self.cfg);
        let jitter = self.jitter_ns(&mut p.rng);
        p.tx.window.push_back(Unacked {
            seq,
            header,
            frame,
            len,
            retries: 0,
            rto_at: now + rto + jitter,
            rto_ns: rto,
            sent_at: now,
        });
        // The frame piggybacked our full receiver state for dst: the ack
        // debt is settled.
        p.rx.ack_owed = false;
        p.rx.owed_count = 0;
        Ok(())
    }

    /// Classify a payload delivered from `src` and update reliable state.
    ///
    /// Call this on every `Event::Recv` *before* decoding anything. Only
    /// on [`RelRecv::Data`] does the caller consume the application body,
    /// at `payload[REL_DATA_OFFSET..]` — the slice convention (rather than
    /// returning an owned body) lets `PacketBuf` holders keep their
    /// receive-credit semantics.
    pub fn on_recv(&self, ep: &Endpoint, src: HostId, header: u64, payload: &[u8]) -> RelRecv {
        let Ok((seq, rel)) = frame::open(header, payload) else {
            return RelRecv::Malformed;
        };
        if rel.len() < REL_OVERHEAD {
            return RelRecv::Malformed;
        }
        let ack = u64::from_le_bytes(rel[..8].try_into().expect("8 bytes"));
        let sack = u32::from_le_bytes(rel[8..12].try_into().expect("4 bytes"));
        let epoch = u32::from_le_bytes(rel[12..16].try_into().expect("4 bytes"));
        let flags = rel[16];
        if flags > FLAG_DATA_ACK_NOW {
            return RelRecv::Malformed;
        }
        // Epoch gate BEFORE any ack or sequence processing: after a rejoin
        // both sides restart at seq 0, so a straggler's cumulative ack (or
        // its seq) from the dead incarnation aliases live numbers and would
        // silently cancel or duplicate fresh frames.
        if epoch != ep.fabric_epoch() {
            ep.counters().incr(Counter::FabricEpochStaleDropped);
            return RelRecv::Stale;
        }
        let now = ep.now_ns();
        let mut p = self.peers[src as usize].lock();
        // Harvest ack state first — every frame carries it. Frames acked on
        // their first transmission yield unambiguous RTT samples (Karn's
        // rule) feeding the adaptive timeout.
        let mut acked = 0u64;
        let mut sampled = false;
        let PeerTx { window, rtt, .. } = &mut p.tx;
        // An acked frame's lease ends here: its buffer goes back.
        let mut harvest = |u: &mut Unacked| {
            acked += 1;
            if u.retries == 0 {
                rtt.observe(now.saturating_sub(u.sent_at));
                sampled = true;
            }
            self.bufs.give(std::mem::take(&mut u.frame));
        };
        while window.front().is_some_and(|u| u.seq < ack) {
            harvest(&mut window.pop_front().expect("front checked"));
        }
        if sack != 0 {
            window.retain_mut(|u| {
                let hit =
                    u.seq > ack && u.seq <= ack + 32 && (sack >> (u.seq - ack - 1)) & 1 == 1;
                if hit {
                    harvest(u);
                }
                !hit
            });
        }
        if acked > 0 {
            ep.counters().add(Counter::FabricReliableAcked, acked);
        }
        if sampled {
            ep.counters().set(
                Counter::FabricReliableRtoUs,
                p.tx.rtt.initial_rto(&self.cfg) / 1_000,
            );
        }
        if flags == FLAG_ACK {
            return RelRecv::Ack;
        }
        let fresh = p.rx.gate.admit_in(seq, ep.counters());
        // Either way an ack is owed: a retransmission of something already
        // admitted means our ack was lost (or arrived after the peer's
        // timer fired), so the debt is re-armed and a fresh ack goes out
        // even with no reverse data traffic.
        if flags == FLAG_DATA_ACK_NOW {
            p.rx.ack_deadline = now;
        } else if !p.rx.ack_owed {
            p.rx.ack_deadline = now + self.cfg.ack_delay_ns;
        }
        p.rx.ack_owed = true;
        p.rx.owed_count += 1;
        if fresh {
            RelRecv::Data
        } else {
            RelRecv::Duplicate
        }
    }

    /// Fire due timers: retransmit overdue unacked frames (declaring the
    /// peer dead when one exhausts its budget) and send standalone acks for
    /// overdue or over-count ack debt, every peer's timers judged against
    /// one clock reading taken on entry. Returns the number of wire
    /// operations injected. Call from every progress loop.
    pub fn pump(&self, ep: &Endpoint) -> usize {
        let mut injected = 0;
        let now = ep.now_ns();
        for (dst, peer) in self.peers.iter().enumerate() {
            let dst = dst as HostId;
            let mut p = peer.lock();
            // Retransmissions, oldest first.
            if !p.tx.dead {
                let mut i = 0;
                while i < p.tx.window.len() {
                    if p.tx.window[i].rto_at > now {
                        i += 1;
                        continue;
                    }
                    if p.tx.window[i].retries >= self.cfg.retry_budget {
                        // Budget exhausted: the peer is unreachable. Give
                        // up the whole window — nothing will ever be acked —
                        // and surface the failure.
                        p.tx.dead = true;
                        self.release_window(&mut p.tx.window);
                        ep.counters().incr(Counter::FabricReliablePeerDead);
                        // Only the first death is kept.
                        let _ = self.dead.compare_exchange(
                            NO_HOST,
                            dst as u32,
                            Ordering::AcqRel,
                            Ordering::Relaxed,
                        );
                        break;
                    }
                    let u = &p.tx.window[i];
                    match ep.try_send(dst, u.header, &u.frame[..u.len], 0) {
                        Ok(()) => {
                            injected += 1;
                            ep.counters().incr(Counter::FabricReliableRetransmits);
                            let jitter = self.jitter_ns(&mut p.rng);
                            let u = &mut p.tx.window[i];
                            u.retries += 1;
                            u.rto_ns = (u.rto_ns * 2).min(self.cfg.rto_cap_ns);
                            u.rto_at = now + u.rto_ns + jitter;
                            i += 1;
                        }
                        Err(SendError::Backpressure) => {
                            // Injection queue full: not the peer's fault, so
                            // the retry budget is untouched. Try again on
                            // the next pump.
                            p.tx.window[i].rto_at = now + self.cfg.rto_base_ns;
                            break;
                        }
                        Err(_) => {
                            // Endpoint failed or fabric closed: leave state
                            // for the runtime's own failure path.
                            return injected;
                        }
                    }
                }
            }
            // Standalone ack: fire on deadline, or on count so a frozen
            // virtual clock cannot leave a peer's window stuffed forever.
            if p.rx.ack_owed && (now >= p.rx.ack_deadline || p.rx.owed_count >= self.cfg.ack_every)
            {
                // Acks are not sequenced (the receiver never gates them)
                // and never retransmitted — data retransmission re-arms the
                // debt if one is lost.
                let mut framed = [0u8; REL_DATA_OFFSET];
                framed[frame::FRAME_OVERHEAD..]
                    .copy_from_slice(&p.rx.rel_header(ep.fabric_epoch(), FLAG_ACK));
                frame::stamp(ACK_HEADER, p.tx.next_seq, &mut framed);
                if ep.try_send(dst, ACK_HEADER, &framed, 0).is_ok() {
                    injected += 1;
                    ep.counters().incr(Counter::FabricReliableAcksSent);
                    p.rx.ack_owed = false;
                    p.rx.owed_count = 0;
                }
            }
        }
        injected
    }

    /// The first destination declared dead by budget exhaustion, if any.
    /// Runtimes poll this from their progress loop and convert it into
    /// their own fatal-abort path.
    pub fn dead_peer(&self) -> Option<HostId> {
        HostId::try_from(self.dead.load(Ordering::Acquire)).ok()
    }

    /// Unacked frames currently windowed toward `peer` (diagnostics).
    pub fn unacked(&self, peer: HostId) -> usize {
        self.peers[peer as usize].lock().tx.window.len()
    }

    /// The adaptive initial-timeout estimate toward `peer`, in nanoseconds
    /// (diagnostics). Equals the configured base until the first RTT sample
    /// arrives.
    pub fn current_rto_ns(&self, peer: HostId) -> u64 {
        let p = self.peers[peer as usize].lock();
        p.tx.rtt.initial_rto(&self.cfg)
    }

    /// True while any peer is owed an acknowledgement not yet on the wire.
    /// Quiesce paths wait this out alongside their own unacked frames: a
    /// host that retires with debt outstanding leaves the sender
    /// retransmitting into silence until its budget falsely declares this
    /// host dead.
    pub fn acks_owed(&self) -> bool {
        self.peers.iter().any(|p| p.lock().rx.ack_owed)
    }

    /// True when no frame toward any peer is still unacknowledged and no
    /// peer is owed an ack: every peer has admitted everything this host
    /// sent, and none is still retransmitting to it. This is the condition
    /// a host must reach before it may stop driving [`pump`](Self::pump) —
    /// retransmission and ack timers fire only from there, so retiring
    /// earlier strands a peer whose only copy of a frame was dropped, or
    /// leaves one retransmitting into silence until its budget falsely
    /// declares this host dead.
    pub fn quiescent(&self) -> bool {
        self.peers.iter().all(|p| {
            let p = p.lock();
            p.tx.window.is_empty() && !p.rx.ack_owed
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FabricConfig, Fault, FaultPlan};
    use crate::endpoint::Event;
    use crate::wire::Fabric;

    /// Deliver everything pending, feeding each endpoint's receipts through
    /// its session; returns bodies of fresh data frames seen at each host.
    fn drain_and_classify(
        f: &Fabric,
        eps: &[Endpoint],
        sessions: &[ReliableSession],
    ) -> Vec<Vec<Vec<u8>>> {
        f.drain();
        let mut out = vec![Vec::new(); eps.len()];
        for (i, ep) in eps.iter().enumerate() {
            while let Some(ev) = ep.poll() {
                if let Event::Recv { src, header, data } = ev {
                    if sessions[i].on_recv(ep, src, header, &data) == RelRecv::Data {
                        out[i].push(data[REL_DATA_OFFSET..].to_vec());
                    }
                }
            }
        }
        out
    }

    #[test]
    fn data_roundtrip_and_standalone_ack_drain_the_window() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 1));
        let eps = f.endpoints();
        let sessions: Vec<_> = eps.iter().map(ReliableSession::new).collect();
        sessions[0]
            .send(&eps[0], 1, 77, b"hello", 0)
            .expect("send admitted");
        assert_eq!(sessions[0].unacked(1), 1);
        let got = drain_and_classify(&f, &eps, &sessions);
        assert_eq!(got[1], vec![b"hello".to_vec()]);
        // No reverse data traffic: the ack debt settles via a standalone
        // ack once the delay expires.
        f.advance_virtual(f.config().reliable.ack_delay_ns + 1);
        assert!(sessions[1].pump(&eps[1]) >= 1, "standalone ack fires");
        let got = drain_and_classify(&f, &eps, &sessions);
        assert!(got[0].is_empty(), "acks carry no data");
        assert_eq!(sessions[0].unacked(1), 0, "cumulative ack emptied it");
    }

    #[test]
    fn piggybacked_ack_on_reverse_traffic_drains_the_window() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 2));
        let eps = f.endpoints();
        let sessions: Vec<_> = eps.iter().map(ReliableSession::new).collect();
        sessions[0].send(&eps[0], 1, 1, b"ping", 0).unwrap();
        drain_and_classify(&f, &eps, &sessions);
        // The reply frames the responder's gate state: no standalone ack
        // needed.
        sessions[1].send(&eps[1], 0, 2, b"pong", 0).unwrap();
        let got = drain_and_classify(&f, &eps, &sessions);
        assert_eq!(got[0], vec![b"pong".to_vec()]);
        assert_eq!(sessions[0].unacked(1), 0, "piggybacked ack arrived");
    }

    #[test]
    fn count_triggered_ack_fires_with_a_frozen_clock() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 3));
        let eps = f.endpoints();
        let sessions: Vec<_> = eps.iter().map(ReliableSession::new).collect();
        let every = f.config().reliable.ack_every;
        for i in 0..every as u64 {
            sessions[0]
                .send(&eps[0], 1, 10 + i, b"burst", 0)
                .unwrap();
        }
        drain_and_classify(&f, &eps, &sessions);
        // Do NOT advance the clock: the count rule alone must trigger.
        assert!(sessions[1].pump(&eps[1]) >= 1, "count-triggered ack");
        drain_and_classify(&f, &eps, &sessions);
        assert_eq!(sessions[0].unacked(1), 0);
    }

    #[test]
    fn loss_is_recovered_by_retransmission() {
        // 100% loss for the first 50 µs, clean wire afterwards.
        let plan = FaultPlan::none().with_phase(
            0,
            50_000,
            Fault::Drop {
                prob_ppm: 1_000_000,
            },
        );
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 4).with_fault_plan(plan));
        let eps = f.endpoints();
        let sessions: Vec<_> = eps.iter().map(ReliableSession::new).collect();
        let c0 = lci_trace::global().snapshot();
        sessions[0].send(&eps[0], 1, 9, b"lossy", 7).unwrap();
        let got = drain_and_classify(&f, &eps, &sessions);
        assert!(got[1].is_empty(), "original was eaten");
        assert_eq!(eps[0].stats().fault_dropped, 1);
        // Let the RTO fire (clock is idle, so advance it), then pump.
        let mut delivered = Vec::new();
        for _ in 0..64 {
            f.advance_virtual(f.config().reliable.rto_cap_ns);
            sessions[0].pump(&eps[0]);
            delivered = drain_and_classify(&f, &eps, &sessions).swap_remove(1);
            if !delivered.is_empty() {
                break;
            }
        }
        assert_eq!(delivered, vec![b"lossy".to_vec()]);
        let d = lci_trace::global().snapshot().delta(&c0);
        assert!(d.get(Counter::FabricReliableRetransmits) >= 1);
    }

    #[test]
    fn retransmission_of_an_admitted_frame_is_a_duplicate_and_rearms_ack() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 5));
        let eps = f.endpoints();
        let sessions: Vec<_> = eps.iter().map(ReliableSession::new).collect();
        sessions[0].send(&eps[0], 1, 3, b"once", 0).unwrap();
        drain_and_classify(&f, &eps, &sessions);
        // Pretend the ack was lost: force the sender's RTO and retransmit.
        f.advance_virtual(f.config().reliable.rto_cap_ns * 2);
        assert!(sessions[0].pump(&eps[0]) >= 1, "RTO retransmission");
        f.drain();
        let mut verdicts = Vec::new();
        while let Some(ev) = eps[1].poll() {
            if let Event::Recv { src, header, data } = ev {
                verdicts.push(sessions[1].on_recv(&eps[1], src, header, &data));
            }
        }
        assert_eq!(verdicts, vec![RelRecv::Duplicate]);
        // The duplicate re-armed the debt: the re-ack drains the window.
        f.advance_virtual(f.config().reliable.ack_delay_ns + 1);
        sessions[1].pump(&eps[1]);
        drain_and_classify(&f, &eps, &sessions);
        assert_eq!(sessions[0].unacked(1), 0);
    }

    #[test]
    fn full_window_is_backpressure_not_buffering() {
        let mut cfg = FabricConfig::deterministic(2, 6);
        cfg.reliable.window = 2;
        let f = Fabric::new_manual(cfg);
        let eps = f.endpoints();
        let sessions: Vec<_> = eps.iter().map(ReliableSession::new).collect();
        let c0 = lci_trace::global().snapshot();
        sessions[0].send(&eps[0], 1, 1, b"a", 0).unwrap();
        sessions[0].send(&eps[0], 1, 2, b"b", 0).unwrap();
        assert_eq!(
            sessions[0].send(&eps[0], 1, 3, b"c", 0),
            Err(SendError::Backpressure)
        );
        let d = lci_trace::global().snapshot().delta(&c0);
        assert!(d.get(Counter::FabricReliableWindowStalls) >= 1);
    }

    #[test]
    fn blackhole_exhausts_the_budget_and_surfaces_peer_dead() {
        let plan =
            FaultPlan::none().with_phase(0, u64::MAX / 2, Fault::Blackhole { peer: 1 });
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 7).with_fault_plan(plan));
        let eps = f.endpoints();
        let sessions: Vec<_> = eps.iter().map(ReliableSession::new).collect();
        let c0 = lci_trace::global().snapshot();
        sessions[0].send(&eps[0], 1, 1, b"doomed", 0).unwrap();
        // Budget 12, RTO capped at 8 ms: death within ~100 ms of virtual
        // time — bounded by a fixed iteration count here.
        let mut iters = 0;
        while sessions[0].dead_peer().is_none() {
            iters += 1;
            assert!(iters < 1_000, "peer death must be bounded-time");
            f.advance_virtual(f.config().reliable.rto_cap_ns);
            sessions[0].pump(&eps[0]);
            f.drain();
            while eps[0].poll().is_some() {}
        }
        assert_eq!(sessions[0].dead_peer(), Some(1));
        assert_eq!(
            sessions[0].send(&eps[0], 1, 2, b"late", 0),
            Err(SendError::PeerDead(1))
        );
        assert_eq!(sessions[0].unacked(1), 0, "dead window is cleared");
        let d = lci_trace::global().snapshot().delta(&c0);
        assert_eq!(d.get(Counter::FabricReliablePeerDead), 1);
        assert!(d.get(Counter::FabricReliableRetransmits) >= 12);
    }

    #[test]
    fn malformed_and_short_rel_bodies_are_rejected() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 8));
        let eps = f.endpoints();
        let s = ReliableSession::new(&eps[1]);
        // Not even a valid frame.
        assert_eq!(s.on_recv(&eps[1], 0, 1, b"garbage"), RelRecv::Malformed);
        // Valid frame, body shorter than the reliable header.
        let tiny = frame::seal(1, 0, &[0u8; REL_OVERHEAD - 1]);
        assert_eq!(s.on_recv(&eps[1], 0, 1, &tiny), RelRecv::Malformed);
        // Valid frame, undefined flags value.
        let mut rel = [0u8; REL_OVERHEAD];
        rel[16] = FLAG_DATA_ACK_NOW + 1;
        let bad_flags = frame::seal(1, 0, &rel);
        assert_eq!(s.on_recv(&eps[1], 0, 1, &bad_flags), RelRecv::Malformed);
    }

    #[test]
    fn stale_epoch_frames_are_dropped_before_ack_or_gate_state() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 21));
        let eps = f.endpoints();
        let sessions: Vec<_> = eps.iter().map(ReliableSession::new).collect();
        let c0 = lci_trace::global().snapshot();
        // Seal a frame under epoch 0, then respawn (epoch 1) before it is
        // stepped across the wire: the delivered frame is a straggler.
        sessions[0].send(&eps[0], 1, 5, b"old world", 0).unwrap();
        f.respawn(1);
        sessions.iter().for_each(|s| s.rejoin());
        f.drain();
        let mut verdicts = Vec::new();
        while let Some(ev) = eps[1].poll() {
            if let Event::Recv { src, header, data } = ev {
                verdicts.push(sessions[1].on_recv(&eps[1], src, header, &data));
            }
        }
        assert_eq!(verdicts, vec![RelRecv::Stale]);
        let d = lci_trace::global().snapshot().delta(&c0);
        assert!(d.get(Counter::FabricEpochStaleDropped) >= 1);
        // The straggler must not have polluted the fresh incarnation: a
        // post-rejoin exchange starts at seq 0 and round-trips cleanly.
        sessions[0].send(&eps[0], 1, 6, b"new world", 0).unwrap();
        f.drain();
        let mut got = Vec::new();
        while let Some(ev) = eps[1].poll() {
            if let Event::Recv { src, header, data } = ev {
                if sessions[1].on_recv(&eps[1], src, header, &data) == RelRecv::Data {
                    got.push(data[REL_DATA_OFFSET..].to_vec());
                }
            }
        }
        assert_eq!(got, vec![b"new world".to_vec()]);
    }

    #[test]
    fn rejoin_resets_windows_sequences_and_dead_flags() {
        let plan =
            FaultPlan::none().with_phase(0, u64::MAX / 2, Fault::Blackhole { peer: 1 });
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 22).with_fault_plan(plan));
        let eps = f.endpoints();
        let sessions: Vec<_> = eps.iter().map(ReliableSession::new).collect();
        sessions[0].send(&eps[0], 1, 1, b"doomed", 0).unwrap();
        let mut iters = 0;
        while sessions[0].dead_peer().is_none() {
            iters += 1;
            assert!(iters < 1_000);
            f.advance_virtual(f.config().reliable.rto_cap_ns);
            sessions[0].pump(&eps[0]);
            f.drain();
            while eps[0].poll().is_some() {}
        }
        assert_eq!(
            sessions[0].send(&eps[0], 1, 2, b"still dead", 0),
            Err(SendError::PeerDead(1))
        );
        sessions[0].rejoin();
        assert_eq!(sessions[0].dead_peer(), None, "rejoin clears peer death");
        assert_eq!(sessions[0].unacked(1), 0);
        assert!(!sessions[0].acks_owed());
        // The send path is open again (the blackhole plan still eats the
        // traffic, but admission no longer reports PeerDead).
        assert_eq!(sessions[0].send(&eps[0], 1, 3, b"reopened", 0), Ok(()));
    }

    #[test]
    fn adaptive_rto_tracks_observed_round_trip() {
        let mut cfg = FabricConfig::deterministic(2, 23);
        // Widen the clamp band so adaptation is visible below the default
        // 400 µs floor (the deterministic wire's RTT is ~2 µs).
        cfg.reliable.rto_base_ns = 1_000;
        cfg.reliable.rto_jitter_ns = 0;
        let f = Fabric::new_manual(cfg);
        let eps = f.endpoints();
        let sessions: Vec<_> = eps.iter().map(ReliableSession::new).collect();
        let mut rtos = Vec::new();
        for i in 0..8u64 {
            sessions[0].send(&eps[0], 1, 10 + i, b"sample", 0).unwrap();
            drain_and_classify(&f, &eps, &sessions);
            // Standalone ack from host 1 carries the cumulative ack back.
            f.advance_virtual(f.config().reliable.ack_delay_ns + 1);
            sessions[1].pump(&eps[1]);
            drain_and_classify(&f, &eps, &sessions);
            assert_eq!(sessions[0].unacked(1), 0, "round {i} acked");
            rtos.push(sessions[0].current_rto_ns(1));
        }
        // After samples arrive the timeout must depart from the static base
        // and reflect the (ack-delay dominated) observed round-trip.
        let last = *rtos.last().unwrap();
        assert!(
            last > f.config().reliable.rto_base_ns,
            "adaptive RTO should exceed the 1 µs floor once RTT ~100 µs is observed, got {rtos:?}"
        );
        assert!(
            last <= f.config().reliable.rto_cap_ns,
            "adaptive RTO must respect the cap"
        );
        assert!(
            lci_trace::global().get(Counter::FabricReliableRtoUs) > 0,
            "the rto_us gauge must be published"
        );
    }
}
