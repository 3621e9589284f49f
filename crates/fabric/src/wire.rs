//! The wire: schedules and delivers injected operations, executing the
//! configured [`crate::FaultPlan`] along the way.
//!
//! There is no wire thread. One [`WireCore`] sits behind one mutex and is
//! run by whoever needs it, in one of two modes that differ only in the
//! clock and in who drives:
//!
//! * **Wall-clock (poll-driven)** ([`Fabric::new`]): simulated time is
//!   wall-clock time since construction, and whoever touches an endpoint
//!   drives — [`Endpoint::poll`] and [`Endpoint::drain_into`] on finding
//!   their completion queue empty, injection on hitting back-pressure, and
//!   [`Endpoint::stats`] `try_lock` the core and execute everything that is
//!   due (a wire holding nothing, under no fault plan, is left alone:
//!   [`FabricShared::drive`]). Everything the wire owns (events, injection
//!   slots, receive credits, crash flags, put bytes, counts) is acted on
//!   through those calls, so a delivery that waits for the next poll is the
//!   same NIC with the scheduler hop removed; the wire model's latencies stay
//!   lower bounds on delivery time.
//! * **The instant wire**, a wall-clock fabric with no fault plan whose wire
//!   costs are all zero ([`crate::WireModel::instant`]):
//!   every operation is due when it is injected, so while the wire holds
//!   nothing else [`FabricShared::inject`] delivers it in the injecting thread,
//!   and the core is driven only for a send whose receiver had no credit.
//! * **Manual** ([`Fabric::new_manual`]): the caller pumps
//!   [`Fabric::step`]/[`Fabric::drain`] and time is a *virtual* clock that
//!   jumps to each scheduled delivery; an injection is scheduled there and
//!   then, under the core lock. Because nothing depends on the OS
//!   scheduler, the entire delivery order — including every fault decision —
//!   is a pure function of `(config, seed, injection order)` and replays
//!   bit-for-bit.

use crate::config::{FabricConfig, WireModel};
use crate::endpoint::{CreditGuard, Endpoint, EndpointShared, Event, FatalKind, PacketBuf};
use crate::mr::MrKey;
use crate::HostId;
use lci_trace::{Counter, EventKind};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A wall-clock wire that finds nothing scheduled, nothing injected and
/// deliveries still held by a reorder phase releases one of them once it has
/// been idle this long.
const IDLE_RELEASE_NS: u64 = 1_000_000;

pub(crate) enum WireOp {
    Send(SendOp),
    Put(PutOp),
}

impl WireOp {
    fn dst(&self) -> usize {
        match self {
            WireOp::Send(SendOp { dst, .. }) | WireOp::Put(PutOp { dst, .. }) => *dst as usize,
        }
    }
}

/// An eager message on the wire.
pub(crate) struct SendOp {
    pub(crate) src: HostId,
    pub(crate) dst: HostId,
    pub(crate) header: u64,
    pub(crate) data: Vec<u8>,
    pub(crate) ctx: u64,
    pub(crate) retries: u32,
    /// A fault-injected sibling of a real send (corrupted, duplicated,
    /// or truncated copy). Ghosts complete no send, consume no inflight
    /// slot, are dropped silently when the receiver is not ready, and
    /// never spawn further ghosts.
    pub(crate) ghost: bool,
}

/// An RDMA write on the wire.
pub(crate) struct PutOp {
    pub(crate) src: HostId,
    pub(crate) dst: HostId,
    pub(crate) key: MrKey,
    pub(crate) offset: usize,
    pub(crate) data: Vec<u8>,
    pub(crate) ctx: u64,
    pub(crate) imm: Option<u64>,
    /// Recovery epoch at injection time. A put that crosses a respawn
    /// (injected before, delivered after) is stale: its write is
    /// suppressed instead of landing in — or raising `BadMr` against —
    /// the respawned host's re-registered memory.
    pub(crate) epoch: u32,
}

impl SendOp {
    /// The message reaches its receiver at `t_ns` on the fabric's clock
    /// ([`FabricShared::stamp`]): count it there and log it. With
    /// [`SendOp::land`], the delivery of a send that got its receive credit,
    /// run by the wire and by the instant wire's injection alike, so it needs
    /// nothing but the fabric. The wire spawns a fault plan's ghosts between
    /// the two, so the ring reads receive, then fault.
    #[inline]
    fn count_recv(&self, sh: &FabricShared, t_ns: u64) {
        let d = &sh.endpoints[self.dst as usize];
        d.counters.incr(Counter::FabricRecvs);
        lci_trace::record_at(
            t_ns,
            EventKind::Recv,
            self.src as u32,
            self.data.len() as u64,
        );
    }

    /// Queue the counted message at its receiver, which has given up
    /// `credit` for it, and complete the send.
    #[inline]
    fn land(self, sh: &FabricShared, credit: CreditGuard) {
        let SendOp {
            src,
            dst,
            header,
            data,
            ctx,
            ghost,
            ..
        } = self;
        sh.endpoints[dst as usize].post(Event::Recv {
            src,
            header,
            data: PacketBuf::new(data, credit),
        });
        if !ghost {
            complete_send(&sh.endpoints[src as usize], ctx);
        }
    }
}

impl PutOp {
    /// The write reaches its target: unless it is stale or a side is dead,
    /// it lands in the region, counts on the target's table
    /// (`fabric.puts_landed`) and the sender gets `PutDone` (the target also
    /// `PutArrived` if it carries an immediate), or `BadMr` when the region
    /// is missing or too small. The injection slot comes back either way.
    /// Like [`SendOp::land`], shared by the wire and the instant wire.
    #[inline]
    fn land(self, sh: &FabricShared) {
        let PutOp {
            src,
            dst,
            key,
            offset,
            data,
            ctx,
            imm,
            epoch,
        } = self;
        let d = &sh.endpoints[dst as usize];
        let s = &sh.endpoints[src as usize];
        let cur = sh.recovery_epoch.load(Ordering::Acquire);
        if epoch != cur || involves_crashed(sh, src, dst) {
            // A put from a dead incarnation, or one racing a crash.
            // Its write must not land (the respawned host's memory
            // map belongs to the new incarnation), and crucially it
            // must not surface `BadMr` either — respawn clears the
            // target's registered regions, so a straggler aimed at a
            // vanished MR would otherwise fatally poison a healthy
            // *survivor*. Complete the sender's put (the packet left
            // its NIC) and swallow everything else.
            if epoch != cur {
                s.counters.incr(Counter::FabricEpochStaleDropped);
            } else {
                sh.fault(s, Counter::FabricFaultCrashed, 8);
            }
            s.post(Event::PutDone { ctx, epoch });
            s.inflight.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        let mr = d.mrs.lock().get(&key.0).cloned();
        let ok = match mr {
            Some(mr) => {
                let mut buf = mr.data.lock();
                if offset + data.len() <= buf.len() {
                    buf[offset..offset + data.len()].copy_from_slice(&data);
                    true
                } else {
                    false
                }
            }
            None => false,
        };
        if ok {
            d.counters.incr(Counter::FabricPutsLanded);
            s.post(Event::PutDone { ctx, epoch });
            if let Some(imm) = imm {
                d.post(Event::PutArrived {
                    src,
                    imm,
                    len: data.len() as u32,
                    epoch,
                });
            }
        } else {
            s.counters.incr(Counter::FabricErrors);
            s.post(Event::Error {
                kind: FatalKind::BadMr,
                ctx,
            });
        }
        s.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

pub(crate) struct FabricShared {
    pub(crate) config: FabricConfig,
    pub(crate) endpoints: Vec<Arc<EndpointShared>>,
    /// Operations injected by endpoints and not yet scheduled by a
    /// wall-clock wire, in injection order. The wire takes the whole batch
    /// under one lock ([`WireCore::drain_injected`]). A caller-stepped wire
    /// schedules at injection and never uses it.
    injected: Mutex<Vec<WireOp>>,
    /// Whether `injected` holds anything: set by an injector after its push
    /// and cleared by the wire when it takes the batch, both under that lock,
    /// so that a wire with nothing injected does not take it. The vector
    /// itself is only read under the lock; a reader that loads a stale
    /// `false` (Acquire, against the injector's Release) merely leaves the
    /// batch to the next drive.
    injected_any: AtomicBool,
    /// Operations the wire has scheduled or holds for a reorder phase, as
    /// the last wall-clock drive left them ([`WireCore::run_due`] stores it
    /// with Release on exit, [`FabricShared::drive`] loads it with Acquire;
    /// on the instant wire [`WireCore::drain_injected`] also counts a batch
    /// in before it clears `injected_any`). It publishes nothing else: the
    /// heap is only read under the core lock.
    scheduled: AtomicUsize,
    /// The wire itself. Manual mode: locked by [`Fabric::step`] and friends.
    /// Wall-clock mode: `try_lock`ed by [`FabricShared::drive`].
    core: Mutex<WireCore>,
    pub(crate) closed: AtomicBool,
    /// Effective injection depth imposed by an active brownout phase;
    /// `usize::MAX` when no brownout is active. Written by the wire,
    /// read by [`Endpoint`] admission.
    pub(crate) brownout_depth: AtomicUsize,
    /// Wall-clock construction time: the wall-clock mode's simulated-time
    /// origin, read by [`Endpoint::now_ns`].
    pub(crate) epoch: Instant,
    /// Mirror of the manual-mode virtual clock, advanced by the wire core
    /// so endpoints can timestamp without taking the wire lock.
    pub(crate) virtual_now: AtomicU64,
    /// Is this fabric caller-stepped (virtual clock)?
    pub(crate) manual: bool,
    /// The instant wire: wall-clock, no fault plan, and every wire cost zero
    /// ([`WireModel::instant`]), so each operation is due the moment it is
    /// injected and [`FabricShared::inject`] delivers it there and then.
    instant: bool,
    /// Incarnation epoch, bumped by every [`Fabric::respawn`]. Frames and
    /// puts are stamped with the epoch current at injection; anything that
    /// crosses an epoch boundary in flight is a straggler from a dead
    /// incarnation and is discarded at delivery (wire) or admission
    /// (reliable sublayer).
    pub(crate) recovery_epoch: AtomicU32,
    /// Per-host crash-stop flags, set by the wire when a
    /// [`crate::Fault::Crash`] trigger fires and cleared by
    /// [`Fabric::respawn`]. While set, every delivery involving the host
    /// vanishes and the host's own endpoint reports failed.
    pub(crate) crashed: Vec<AtomicBool>,
}

impl FabricShared {
    /// Hand an operation to the wire; `t_ns` is the [`FabricShared::stamp`]
    /// its injection was logged at.
    ///
    /// A caller-stepped wire schedules it here, under the core lock: its
    /// clock moves only in [`Fabric::step`] and [`Fabric::advance_virtual`],
    /// so the operation is scheduled at the `now`, behind the link and with
    /// the RNG draws it would get from the next of those calls, and needs no
    /// injection vector. A wall-clock wire's injectors race the thread that
    /// drives it, so they leave the operation in the vector for the next
    /// drive to schedule, in injection order.
    ///
    /// On the instant wire an operation is due when it is injected, so while
    /// the wire holds nothing else it is delivered here, in the injecting
    /// thread, by the same code a drive runs ([`SendOp::land`],
    /// [`PutOp::land`]): no injection vector, no core lock, no clock, no
    /// heap — and its `Recv` carries `t_ns`, the model's instant of both. A
    /// send whose receiver has no credit takes the ordinary path, so
    /// its receiver-not-ready bounce and retries are the wire's as ever; and
    /// while any such send is queued or scheduled, later operations queue
    /// behind it.
    pub(crate) fn inject(&self, op: WireOp, t_ns: u64) {
        if self.manual {
            return self.core.lock().schedule(self, op);
        }
        let op = if self.instant && self.holds_nothing() {
            match op {
                WireOp::Put(put) => return put.land(self),
                WireOp::Send(send) => match CreditGuard::take(&self.endpoints[send.dst as usize]) {
                    Some(credit) => {
                        send.count_recv(self, t_ns);
                        return send.land(self, credit);
                    }
                    None => WireOp::Send(send),
                },
            }
        } else {
            op
        };
        let mut injected = self.injected.lock();
        injected.push(op);
        self.injected_any.store(true, Ordering::Release);
    }

    /// Wall-clock mode: execute everything the wire has due, unless another
    /// thread is already doing so — the loser returns at once, and what the
    /// winner delivers shows up in the loser's completion queue all the same.
    /// Does nothing on a manual fabric, which only its caller's
    /// [`Fabric::step`] moves.
    ///
    /// A wire with nothing injected, nothing scheduled and nothing held has
    /// nothing to deliver: without a fault plan it is not driven at all — no
    /// lock, no clock. A fault plan has timed effects that move while the
    /// wire is idle (the brownout depth, the reorder idle-release), so under
    /// one every drive runs. Returns whether the wire may have delivered
    /// something, i.e. whether a caller looking for events should look again.
    pub(crate) fn drive(&self) -> bool {
        if self.manual {
            return false;
        }
        if self.config.fault_plan.is_empty() && self.holds_nothing() {
            return false;
        }
        if let Some(mut core) = self.core.try_lock() {
            core.run_due(self);
        }
        true
    }

    /// Does the wire hold nothing — nothing injected, nothing scheduled or
    /// held for a reorder phase (see `injected_any` and `scheduled` for what
    /// a stale reading means)?
    fn holds_nothing(&self) -> bool {
        !self.injected_any.load(Ordering::Acquire) && self.scheduled.load(Ordering::Acquire) == 0
    }

    /// The fabric's clock, which stamps every ring event the fabric records:
    /// on a caller-stepped fabric the virtual clock (one relaxed load, and
    /// the same stamps on every replay of a seed), on a wall-clock fabric
    /// the trace clock ([`lci_trace::ring::now_ns`]).
    #[inline]
    pub(crate) fn stamp(&self) -> u64 {
        if self.manual {
            self.virtual_now.load(Ordering::Relaxed)
        } else {
            lci_trace::ring::now_ns()
        }
    }

    /// Log an event to the calling thread's ring, stamped now on the
    /// fabric's clock.
    #[inline]
    pub(crate) fn record(&self, kind: EventKind, a: u32, b: u64) {
        lci_trace::record_at(self.stamp(), kind, a, b);
    }

    /// Count one fault-injection event against `ep`'s host and log it to the
    /// event ring; `kind` is the ring payload naming the fault (0 delayed,
    /// 1 reordered, 2 forced RNR, 3 corrupted, 4 duplicated, 5 truncated,
    /// 6 dropped, 7 blackholed, 8 crashed).
    fn fault(&self, ep: &EndpointShared, c: Counter, kind: u32) {
        ep.counters.incr(c);
        self.record(EventKind::Fault, kind, 0);
    }

    /// Manual mode: the wire, for the caller to pump.
    fn manual_core(&self, caller: &str) -> parking_lot::MutexGuard<'_, WireCore> {
        assert!(
            self.manual,
            "Fabric::{caller} requires a fabric built with Fabric::new_manual"
        );
        self.core.lock()
    }
}

/// A simulated cluster interconnect.
///
/// Construct one with [`Fabric::new`] (wall-clock, poll-driven) or
/// [`Fabric::new_manual`] (deterministic, caller-stepped), hand an
/// [`Endpoint`] to each simulated host, and drop the `Fabric` to close it.
/// Endpoints may outlive the fabric; their operations then fail with
/// `SendError::Closed`.
pub struct Fabric {
    shared: Arc<FabricShared>,
}

impl Fabric {
    /// Build a wall-clock fabric with `config.num_hosts` endpoints. No
    /// thread is started: the hosts' own [`Endpoint::poll`] calls and
    /// back-pressured injections run the wire (see the module docs). With no
    /// fault plan and an all-zero wire ([`WireModel::instant`]) an injection
    /// delivers its own operation whenever the receiver has room.
    ///
    /// # Panics
    /// Panics if the configuration's fault plan fails
    /// [`crate::FaultPlan::validate`].
    pub fn new(config: FabricConfig) -> Fabric {
        Fabric::build(config, false)
    }

    /// Build a fabric whose caller advances simulated time explicitly with
    /// [`Fabric::step`] / [`Fabric::drain`]; polling never moves it.
    ///
    /// In this mode the wire runs on a virtual clock, so delivery order,
    /// fault decisions and [`crate::StatsSnapshot`]s are bit-for-bit
    /// reproducible from the seed. The wire model should have nonzero
    /// latency (e.g. [`FabricConfig::deterministic`]) — with an instant
    /// wire the virtual clock never advances and timed fault phases never
    /// trigger or expire.
    ///
    /// # Panics
    /// Panics if the configuration's fault plan fails
    /// [`crate::FaultPlan::validate`].
    pub fn new_manual(config: FabricConfig) -> Fabric {
        Fabric::build(config, true)
    }

    fn build(config: FabricConfig, manual: bool) -> Fabric {
        assert!(config.num_hosts > 0, "fabric needs at least one host");
        assert!(
            config.num_hosts <= HostId::MAX as usize + 1,
            "too many hosts for HostId"
        );
        if let Err(e) = config.fault_plan.validate(config.num_hosts) {
            panic!("invalid fault plan: {e}");
        }
        let endpoints: Vec<Arc<EndpointShared>> = (0..config.num_hosts)
            .map(|h| Arc::new(EndpointShared::new(h as HostId, config.rx_buffers)))
            .collect();
        // A brownout phase starting at t=0 must throttle admission before
        // the wire has executed a single event.
        let depth0 = config.fault_plan.brownout_at(0).unwrap_or(usize::MAX);
        let crashed = (0..config.num_hosts).map(|_| AtomicBool::new(false)).collect();
        let epoch = Instant::now();
        let clock = if manual {
            Clock::Virtual(0)
        } else {
            Clock::Wall { start: epoch, now: 0 }
        };
        let core = WireCore::new(config.num_hosts, config.seed, clock);
        let instant =
            !manual && config.fault_plan.is_empty() && config.wire == WireModel::instant();
        let shared = Arc::new(FabricShared {
            config,
            endpoints,
            injected: Mutex::new(Vec::new()),
            injected_any: AtomicBool::new(false),
            scheduled: AtomicUsize::new(0),
            core: Mutex::new(core),
            closed: AtomicBool::new(false),
            brownout_depth: AtomicUsize::new(depth0),
            epoch,
            virtual_now: AtomicU64::new(0),
            manual,
            instant,
            recovery_epoch: AtomicU32::new(0),
            crashed,
        });
        Fabric { shared }
    }

    /// The endpoint for rank `host`.
    ///
    /// # Panics
    /// Panics if `host` is out of range.
    pub fn endpoint(&self, host: usize) -> Endpoint {
        Endpoint {
            shared: Arc::clone(&self.shared.endpoints[host]),
            fabric: Arc::clone(&self.shared),
        }
    }

    /// One endpoint per host, in rank order.
    pub fn endpoints(&self) -> Vec<Endpoint> {
        (0..self.num_hosts()).map(|h| self.endpoint(h)).collect()
    }

    /// Number of simulated hosts.
    pub fn num_hosts(&self) -> usize {
        self.shared.endpoints.len()
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.shared.config
    }

    /// Is this a manual (caller-stepped, deterministic) fabric?
    pub fn is_manual(&self) -> bool {
        self.shared.manual
    }

    /// Manual mode only: execute the next wire event (one delivery, one
    /// forced retry, or one reorder release), advancing the virtual clock
    /// to its scheduled time. Returns `false` when nothing is pending.
    ///
    /// # Panics
    /// Panics on a fabric built with [`Fabric::new`].
    pub fn step(&self) -> bool {
        self.shared.manual_core("step").step(&self.shared)
    }

    /// Manual mode only: [`Fabric::step`] until the wire is idle, returning
    /// the number of events executed. Note that a fault plan with an
    /// unbounded RNR-storm phase plus `rnr_retry_limit == u32::MAX` retries
    /// forever and would never drain.
    ///
    /// # Panics
    /// Panics on a fabric built with [`Fabric::new`].
    pub fn drain(&self) -> usize {
        let mut core = self.shared.manual_core("drain");
        let mut n = 0;
        while core.step(&self.shared) {
            n += 1;
        }
        n
    }

    /// Current simulated time: `Some(virtual_ns)` in manual mode, `None`
    /// in wall-clock mode (where simulated time is the wall clock).
    pub fn sim_time_ns(&self) -> Option<u64> {
        self.shared.manual.then(|| self.shared.core.lock().now_ns())
    }

    /// Hosts currently dead from a [`crate::Fault::Crash`] trigger, in rank
    /// order. Empty when nothing has crashed (or every crash has been
    /// [`Fabric::respawn`]ed).
    pub fn crashed_hosts(&self) -> Vec<HostId> {
        self.shared
            .crashed
            .iter()
            .enumerate()
            .filter(|(_, c)| c.load(Ordering::Acquire))
            .map(|(h, _)| h as HostId)
            .collect()
    }

    /// Current incarnation epoch: 0 at construction, bumped once per
    /// [`Fabric::respawn`].
    pub fn recovery_epoch(&self) -> u32 {
        self.shared.recovery_epoch.load(Ordering::Acquire)
    }

    /// Bring a crashed host back under a new incarnation epoch.
    ///
    /// The host's wire presence is restored, its endpoint's failed flag is
    /// cleared, and — exactly as on real RDMA hardware, where a process
    /// restart invalidates every pinned region — all of its registered
    /// memory regions are dropped, so the new incarnation must re-register
    /// before accepting puts. The global epoch is bumped *before* the host
    /// rejoins: any frame or put still in flight from the dead incarnation
    /// (or queued unconsumed at a survivor) carries the old epoch and is
    /// discarded on sight rather than poisoning the resumed run.
    ///
    /// The crash trigger does not re-arm: a plan crashes each host at most
    /// once. Calling this on a host that never crashed is allowed (it only
    /// bumps the epoch and clears the MRs), which keeps recovery drivers
    /// simple when they retry generously.
    pub fn respawn(&self, host: HostId) {
        self.shared.recovery_epoch.fetch_add(1, Ordering::AcqRel);
        self.shared.crashed[host as usize].store(false, Ordering::Release);
        let ep = &self.shared.endpoints[host as usize];
        ep.failed.store(false, Ordering::Release);
        ep.mrs.lock().clear();
        ep.counters.incr(Counter::FabricEpochRespawns);
    }

    /// Manual mode only: advance the virtual clock by up to `ns`, but never
    /// past the next scheduled delivery (stepping past it would deliver out
    /// of order). Returns the clock after the jump.
    ///
    /// The virtual clock otherwise only moves when a scheduled event is
    /// executed, so an *idle* wire freezes time — and with it every
    /// timeout in the [`crate::reliable`] sublayer. Tests that need
    /// retransmission timers to fire while nothing is in flight call this
    /// between [`Fabric::step`]s.
    ///
    /// # Panics
    /// Panics on a fabric built with [`Fabric::new`].
    pub fn advance_virtual(&self, ns: u64) -> u64 {
        self.shared
            .manual_core("advance_virtual")
            .advance_virtual(&self.shared, ns)
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
    }
}

/// An operation's place in the wire's schedule: due at `at`, then in the
/// order it was scheduled in (`seq`, unique). The operation itself waits in
/// [`WireCore::ops`] at `slot`, so the heap moves these 24 bytes, not it.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    at: u64,
    seq: u64,
    slot: usize,
}

/// How the wire observes simulated time.
enum Clock {
    /// Simulated time is wall-clock time since fabric construction, `start`.
    /// The wire runs only inside [`WireCore::run_due`], which reads the clock
    /// once into `now`: everything one drive schedules, delivers and decides
    /// about faults is judged at that one reading.
    Wall { start: Instant, now: u64 },
    /// Simulated time advances only when the caller steps the wire.
    Virtual(u64),
}

/// The end of a send's life on the wire, whatever became of it: the sender
/// hears of it only if it asked to (`ctx != 0`; a context-0 send is
/// unsignaled), and its injection slot comes back either way.
fn complete_send(s: &EndpointShared, ctx: u64) {
    if ctx != 0 {
        s.post(Event::SendDone { ctx });
    }
    s.inflight.fetch_sub(1, Ordering::AcqRel);
}

/// Is either side of a delivery currently crashed?
fn involves_crashed(sh: &FabricShared, src: HostId, dst: HostId) -> bool {
    sh.crashed[src as usize].load(Ordering::Acquire)
        || sh.crashed[dst as usize].load(Ordering::Acquire)
}

/// The wire state machine, shared by both modes. It holds no reference to
/// the [`FabricShared`] that owns it; every method that needs the fabric
/// takes it as `sh`.
struct WireCore {
    heap: BinaryHeap<Reverse<Scheduled>>,
    /// The scheduled operations, at the slots their heap entries name; a
    /// slot is `None` from its delivery until `free` hands it out again.
    ops: Vec<Option<WireOp>>,
    free: Vec<usize>,
    link_free: Vec<u64>,
    clock: Clock,
    seq: u64,
    rng: SmallRng,
    /// Deliveries held back by an active reorder phase.
    reorder_buf: Vec<WireOp>,
    /// The injection batch being scheduled: swapped with
    /// [`FabricShared::injected`] by [`WireCore::drain_injected`], so the two
    /// vectors' capacity is reused and the queue allocates nothing in steady
    /// state.
    spare: Vec<WireOp>,
    /// Wall-clock mode: when the wire last scheduled, delivered or released
    /// anything (see [`IDLE_RELEASE_NS`]).
    last_event_ns: u64,
    /// Per-host count of real deliveries involving the host, driving
    /// [`crate::Fault::Crash`] triggers. Packet counts — not timestamps —
    /// make the crash point schedule-deterministic in both wire modes.
    crash_pkts: Vec<u64>,
    /// Latched once a host's crash trigger has fired; a respawn clears the
    /// shared crashed flag but never this latch, so each plan crashes each
    /// host at most once.
    crash_fired: Vec<bool>,
}

impl WireCore {
    fn new(num_hosts: usize, seed: u64, clock: Clock) -> Self {
        WireCore {
            heap: BinaryHeap::new(),
            ops: Vec::new(),
            free: Vec::new(),
            link_free: vec![0; num_hosts],
            clock,
            seq: 0,
            rng: SmallRng::seed_from_u64(seed),
            reorder_buf: Vec::new(),
            spare: Vec::new(),
            last_event_ns: 0,
            crash_pkts: vec![0; num_hosts],
            crash_fired: vec![false; num_hosts],
        }
    }

    /// Advance the crash triggers of `src` and `dst` by one delivered
    /// packet. When a host's count reaches its `after_packets` threshold the
    /// host dies: its crashed flag is raised (the wire eats all further
    /// traffic involving it — including the triggering delivery itself) and
    /// its endpoint is failed so the host's own threads abort instead of
    /// spinning on a dead NIC.
    fn note_crash_progress(&mut self, sh: &FabricShared, src: HostId, dst: HostId) {
        if sh.config.fault_plan.is_empty() {
            return;
        }
        self.bump_crash_trigger(sh, src);
        if dst != src {
            self.bump_crash_trigger(sh, dst);
        }
    }

    fn bump_crash_trigger(&mut self, sh: &FabricShared, host: HostId) {
        let h = host as usize;
        if self.crash_fired[h] {
            return;
        }
        let Some(after) = sh.config.fault_plan.crash_for(host) else {
            return;
        };
        self.crash_pkts[h] += 1;
        if self.crash_pkts[h] >= after {
            self.crash_fired[h] = true;
            sh.crashed[h].store(true, Ordering::Release);
            let ep = &sh.endpoints[h];
            ep.failed.store(true, Ordering::Release);
            sh.fault(ep, Counter::FabricFaultCrashed, 8);
        }
    }

    fn now_ns(&self) -> u64 {
        match self.clock {
            Clock::Wall { now, .. } => now,
            Clock::Virtual(t) => t,
        }
    }

    /// Jump the virtual clock forward to `at` (no-op on a wall clock, which
    /// advances on its own). Mirrors the new value into the shared atomic
    /// endpoints read for timestamps.
    fn advance_to(&mut self, sh: &FabricShared, at: u64) {
        if let Clock::Virtual(t) = &mut self.clock {
            *t = (*t).max(at);
            sh.virtual_now.store(*t, Ordering::Relaxed);
        }
    }

    /// Manual mode: advance the virtual clock by up to `ns`, clamped to the
    /// next scheduled delivery so event order is preserved.
    fn advance_virtual(&mut self, sh: &FabricShared, ns: u64) -> u64 {
        let target = match self.heap.peek() {
            Some(Reverse(head)) => (self.now_ns() + ns).min(head.at),
            None => self.now_ns() + ns,
        };
        self.advance_to(sh, target);
        self.sync_brownout(sh);
        self.now_ns()
    }

    /// Publish the currently effective brownout depth so endpoint admission
    /// sees phase transitions without the wire touching every injector.
    fn sync_brownout(&self, sh: &FabricShared) {
        let plan = &sh.config.fault_plan;
        if plan.is_empty() {
            return;
        }
        let depth = plan.brownout_at(self.now_ns()).unwrap_or(usize::MAX);
        sh.brownout_depth.store(depth, Ordering::Relaxed);
    }

    /// Compute the delivery time of a freshly injected operation, charging
    /// the sender's NIC serialization (which bounds injection rate) plus any
    /// active latency-spike fault.
    fn schedule(&mut self, sh: &FabricShared, op: WireOp) {
        let (src, len, is_put) = match &op {
            WireOp::Send(SendOp { src, data, .. }) => (*src as usize, data.len(), false),
            WireOp::Put(PutOp { src, data, .. }) => (*src as usize, data.len(), true),
        };
        let wire = &sh.config.wire;
        let now = self.now_ns();
        let start = now.max(self.link_free[src]);
        let tx_cost = (len as f64 * wire.ns_per_byte) as u64;
        self.link_free[src] = start + tx_cost;
        let jitter = if wire.jitter_ns > 0 {
            self.rng.gen_range(0..wire.jitter_ns)
        } else {
            0
        };
        let extra = if is_put { wire.put_extra_ns } else { 0 };
        // Latency-spike fault: bites on instant test wires too.
        let spike = match sh.config.fault_plan.spike_at(now) {
            Some((extra_ns, jitter_ns)) => {
                sh.fault(&sh.endpoints[src], Counter::FabricFaultDelayed, 0);
                let j = if jitter_ns > 0 {
                    self.rng.gen_range(0..jitter_ns)
                } else {
                    0
                };
                extra_ns + j
            }
            None => 0,
        };
        let at = start + tx_cost + wire.base_latency_ns + jitter + extra + spike;
        self.push(at, op);
    }

    fn push(&mut self, at: u64, op: WireOp) {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.ops.push(None);
            self.ops.len() - 1
        });
        self.ops[slot] = Some(op);
        self.heap.push(Reverse(Scheduled { at, seq, slot }));
    }

    /// Take the earliest scheduled operation out of the schedule, with the
    /// time it is due.
    fn pop(&mut self) -> Option<(u64, WireOp)> {
        let Reverse(Scheduled { at, slot, .. }) = self.heap.pop()?;
        self.free.push(slot);
        Some((at, self.ops[slot].take().expect("a scheduled slot holds its op")))
    }

    /// Move everything already injected into the schedule, in injection
    /// order: the whole batch is taken under one lock, and not even that
    /// when nothing was injected. Returns whether there was anything.
    fn drain_injected(&mut self, sh: &FabricShared) -> bool {
        if !sh.injected_any.load(Ordering::Acquire) {
            return false;
        }
        let mut batch = std::mem::take(&mut self.spare);
        {
            let mut injected = sh.injected.lock();
            std::mem::swap(&mut *injected, &mut batch);
            // On the instant wire the batch is counted as held before the
            // flag says the vector is empty: an injector whose Acquire load
            // reads this Release clear also reads the count (or a later
            // one), and queues behind the batch instead of overtaking it
            // ([`FabricShared::inject`]). No other wire needs the count
            // before [`WireCore::run_due`] publishes it.
            if sh.instant {
                let held = self.heap.len() + self.reorder_buf.len() + batch.len();
                sh.scheduled.store(held, Ordering::Relaxed);
            }
            sh.injected_any.store(false, Ordering::Release);
        }
        let any = !batch.is_empty();
        for op in batch.drain(..) {
            self.schedule(sh, op);
        }
        self.spare = batch;
        any
    }

    /// An operation has reached its delivery slot: hand it to the
    /// destination, or hold it back if a reorder phase is active.
    fn arrive(&mut self, sh: &FabricShared, op: WireOp) {
        let now = self.now_ns();
        match sh.config.fault_plan.reorder_at(now) {
            Some(window) => {
                sh.fault(&sh.endpoints[op.dst()], Counter::FabricFaultReordered, 1);
                self.reorder_buf.push(op);
                if self.reorder_buf.len() >= window.max(2) {
                    self.release_one_held(sh);
                }
            }
            None => {
                // The phase this buffer belonged to is over: release held
                // deliveries before anything newer.
                self.release_all_held(sh);
                self.deliver(sh, op);
            }
        }
    }

    /// Deliver one reorder-held operation, picked uniformly at random from
    /// the seeded RNG. Returns `false` when nothing is held.
    fn release_one_held(&mut self, sh: &FabricShared) -> bool {
        if self.reorder_buf.is_empty() {
            return false;
        }
        let i = if self.reorder_buf.len() == 1 {
            0
        } else {
            self.rng.gen_range(0..self.reorder_buf.len())
        };
        let op = self.reorder_buf.swap_remove(i);
        self.deliver(sh, op);
        true
    }

    fn release_all_held(&mut self, sh: &FabricShared) {
        while self.release_one_held(sh) {}
    }

    /// Adversarial-fault execution: when a corruption, duplication, or
    /// truncation phase is active at delivery time, schedule mangled (or
    /// bit-identical) *ghost* siblings of the just-delivered send shortly
    /// after the original. The original always arrives intact — the model is
    /// a reliable transport whose faults surface as spurious extra arrivals,
    /// which is exactly what checksum + dedup framing above the fabric must
    /// absorb. RDMA puts are exempt: their payload integrity is the NIC's
    /// hardware CRC and there is no software consumer of put bytes to harden.
    fn spawn_ghosts(&mut self, sh: &FabricShared, original: &SendOp) {
        if sh.config.fault_plan.is_empty() {
            return;
        }
        let SendOp {
            src,
            dst,
            header,
            ref data,
            ..
        } = *original;
        let now = self.now_ns();
        let mut ghosts: Vec<(u64, Vec<u8>)> = Vec::new();
        let d = &sh.endpoints[dst as usize];
        if sh.config.fault_plan.duplicate_at(now) {
            sh.fault(d, Counter::FabricFaultDuplicated, 4);
            ghosts.push((header, data.to_vec()));
        }
        if let Some(flips) = sh.config.fault_plan.corrupt_at(now) {
            let mut h = header;
            let mut body = data.to_vec();
            // Flip seeded bits across the whole frame: bits 0..64 land in
            // the message header, the rest in the payload.
            let bits = 64 + body.len() * 8;
            for _ in 0..flips {
                let bit = self.rng.gen_range(0..bits);
                if bit < 64 {
                    h ^= 1u64 << bit;
                } else {
                    body[(bit - 64) / 8] ^= 1 << (bit % 8);
                }
            }
            sh.fault(d, Counter::FabricFaultCorrupted, 3);
            ghosts.push((h, body));
        }
        if sh.config.fault_plan.truncate_at(now) && !data.is_empty() {
            let cut = self.rng.gen_range(0..data.len());
            sh.fault(d, Counter::FabricFaultTruncated, 5);
            ghosts.push((header, data[..cut].to_vec()));
        }
        for (h, body) in ghosts {
            let at = now + 1 + self.rng.gen_range(0..1_000u64);
            let ghost = SendOp {
                src,
                dst,
                header: h,
                data: body,
                ctx: 0,
                retries: 0,
                ghost: true,
            };
            self.push(at, WireOp::Send(ghost));
        }
    }

    /// Manual mode: execute one wire event. Returns `false` when idle.
    fn step(&mut self, sh: &FabricShared) -> bool {
        self.sync_brownout(sh);
        // A closed reorder window releases its held deliveries before any
        // newer traffic runs.
        if !self.reorder_buf.is_empty() && sh.config.fault_plan.reorder_at(self.now_ns()).is_none()
        {
            let released = self.release_one_held(sh);
            self.sync_brownout(sh);
            return released;
        }
        match self.pop() {
            Some((at, op)) => {
                self.advance_to(sh, at);
                self.sync_brownout(sh);
                self.arrive(sh, op);
                true
            }
            None => {
                // Idle wire with deliveries still held mid-phase: release
                // one so a frozen virtual clock cannot starve receivers.
                let released = self.release_one_held(sh);
                self.sync_brownout(sh);
                released
            }
        }
    }

    /// Wall-clock mode: execute everything that is due — schedule what was
    /// injected, let a closed reorder window go, deliver every scheduled
    /// entry whose time has come. The clock is read once, at the start, so a
    /// drive is bounded by what was due when it started: whatever a delivery
    /// schedules in turn (RNR retries, ghosts) lands strictly later and waits
    /// for the next drive. On exit it publishes how much the wire still holds
    /// ([`FabricShared::scheduled`]), which is how the next drive knows
    /// whether it has anything to do.
    fn run_due(&mut self, sh: &FabricShared) {
        let Clock::Wall { start, now } = &mut self.clock else {
            unreachable!("only a wall-clock wire is driven");
        };
        *now = start.elapsed().as_nanos() as u64;
        let now = *now;
        let mut busy = self.drain_injected(sh);
        self.sync_brownout(sh);
        if !self.reorder_buf.is_empty() && sh.config.fault_plan.reorder_at(now).is_none() {
            self.release_all_held(sh);
            busy = true;
        }
        while self.heap.peek().is_some_and(|Reverse(head)| head.at <= now) {
            let (_, op) = self.pop().expect("peeked");
            self.arrive(sh, op);
            busy = true;
        }
        if busy {
            self.last_event_ns = now;
        } else if self.heap.is_empty() && now - self.last_event_ns >= IDLE_RELEASE_NS {
            // Idle wire with deliveries still held mid-phase: release one
            // so a reorder window that never fills (e.g. the tail of a run
            // under a long-lived phase) cannot strand its last few
            // messages. Mirrors the manual-mode idle rule in `step`.
            if self.release_one_held(sh) {
                self.last_event_ns = now;
            }
        }
        let held = self.heap.len() + self.reorder_buf.len();
        sh.scheduled.store(held, Ordering::Release);
    }

    fn deliver(&mut self, sh: &FabricShared, op: WireOp) {
        let op = match op {
            WireOp::Send(op) => op,
            WireOp::Put(op) => {
                self.note_crash_progress(sh, op.src, op.dst);
                return op.land(sh);
            }
        };
        let SendOp {
            src,
            dst,
            ctx,
            ghost,
            ..
        } = op;
        let d = &sh.endpoints[dst as usize];
        let s = &sh.endpoints[src as usize];
        let now = self.now_ns();
        // Crash-stop: count this delivery against any armed crash
        // triggers, then eat it if either side is dead. Like a
        // blackhole, the send still completes (the packet left its
        // NIC; the host died on the far side of the wire), so
        // completion bookkeeping — inflight windows, a signaled
        // sender's context — survives a peer's death and the crashed
        // host's own in-flight sends still release their slots.
        if !ghost {
            self.note_crash_progress(sh, src, dst);
        }
        if involves_crashed(sh, src, dst) {
            if !ghost {
                sh.fault(s, Counter::FabricFaultCrashed, 8);
                complete_send(s, ctx);
            }
            return;
        }
        // Lossy faults eat the delivery outright. The send still
        // completes — the packet left its NIC and the wire swallowed
        // it — so completion bookkeeping above the fabric stays
        // intact and only a retransmitting layer notices the loss.
        // Ghosts that hit a lossy phase simply vanish: they were
        // never initiated, so they complete nothing.
        let blackholed = sh.config.fault_plan.blackhole_at(now, src)
            || sh.config.fault_plan.blackhole_at(now, dst);
        if blackholed {
            if !ghost {
                sh.fault(s, Counter::FabricFaultBlackholed, 7);
                complete_send(s, ctx);
            }
            return;
        }
        if let Some(ppm) = sh.config.fault_plan.drop_at(now) {
            // Only real sends roll the dice, keeping the RNG stream
            // (and thus replay) independent of ghost scheduling.
            if !ghost && self.rng.gen_range(0..1_000_000u64) < ppm as u64 {
                sh.fault(s, Counter::FabricFaultDropped, 6);
                complete_send(s, ctx);
                return;
            }
        }
        // An active RNR storm against `dst` bounces the delivery as
        // if its receive buffers were exhausted, regardless of the
        // actual credit count.
        let stormed = sh.config.fault_plan.rnr_storm_at(now, dst);
        if stormed && !ghost {
            sh.fault(d, Counter::FabricFaultForcedRnr, 2);
        }
        let credit = if stormed { None } else { CreditGuard::take(d) };
        if let Some(credit) = credit {
            op.count_recv(sh, sh.stamp());
            if !ghost {
                self.spawn_ghosts(sh, &op);
            }
            op.land(sh, credit);
        } else if ghost {
            // A ghost that finds the receiver not ready vanishes: it
            // was never initiated by anyone, so nothing retries it
            // and nothing fails.
        } else {
            // Receiver not ready.
            s.counters.incr(Counter::FabricRnrRetries);
            sh.record(EventKind::RnrBounce, dst as u32, 0);
            if op.retries >= sh.config.rnr_retry_limit {
                s.failed.store(true, Ordering::Release);
                s.counters.incr(Counter::FabricErrors);
                s.post(Event::Error {
                    kind: FatalKind::RnrExceeded,
                    ctx,
                });
                s.inflight.fetch_sub(1, Ordering::AcqRel);
            } else {
                let delay = sh.config.rnr_delay_ns.max(1_000);
                let retry = SendOp {
                    retries: op.retries + 1,
                    ..op
                };
                self.push(now + delay, WireOp::Send(retry));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Fault, FaultPlan, WireModel};
    use std::time::Duration;

    #[test]
    fn scheduled_orders_by_time_then_seq() {
        // The slot never decides: `seq` is unique.
        let at = |at, seq, slot| Scheduled { at, seq, slot };
        let (a, b, c) = (at(5, 0, 2), at(5, 1, 0), at(3, 2, 1));
        assert!(c < a && a < b);
    }

    #[test]
    fn fabric_spins_up_and_down() {
        let f = Fabric::new(FabricConfig::test(4));
        assert_eq!(f.num_hosts(), 4);
        assert_eq!(f.endpoints().len(), 4);
        assert!(!f.is_manual());
        drop(f);
    }

    #[test]
    fn the_instant_wire_is_wall_clock_without_a_plan_or_a_scaled_cost() {
        let instant = |cfg: FabricConfig, manual: bool| Fabric::build(cfg, manual).shared.instant;
        let test = || FabricConfig::test(2);
        assert!(instant(test(), false), "all-zero wire");
        assert!(!instant(test().with_wire(WireModel::opa()), false));
        assert!(!instant(test(), true), "manual");
        let plan = FaultPlan::none().with_phase(0, 1, Fault::Duplicate);
        assert!(!instant(test().with_fault_plan(plan), false), "fault plan");
    }

    #[test]
    fn the_instant_wire_swallows_a_stale_put_at_injection() {
        let f = Fabric::new(FabricConfig::test(2));
        let (a, b) = (f.endpoint(0), f.endpoint(1));
        f.respawn(1);
        let mr = b.register_mr(4);
        // A put stamped before the respawn reaches the wire after it, as one
        // racing the respawn would; its slot is taken as admission takes it.
        a.shared.inflight.fetch_add(1, Ordering::AcqRel);
        f.shared.inject(
            WireOp::Put(PutOp {
                src: 0,
                dst: 1,
                key: mr.key(),
                offset: 0,
                data: vec![9; 4],
                ctx: 7,
                imm: Some(42),
                epoch: 0,
            }),
            0,
        );
        assert_eq!(mr.to_vec(), [0; 4], "a stale put must not write");
        assert_eq!(a.inflight(), 0);
        assert!(matches!(
            a.poll(),
            Some(Event::PutDone { ctx: 7, epoch: 0 })
        ));
        assert!(a.poll().is_none(), "no BadMr");
        assert!(b.poll().is_none(), "no stale PutArrived");
        assert_eq!(a.counters().get(Counter::FabricEpochStaleDropped), 1);
        assert_eq!(a.stats().errors, 0);
    }

    #[test]
    fn latency_is_respected() {
        let mut cfg = FabricConfig::test(2);
        cfg.wire = WireModel {
            base_latency_ns: 500_000, // 0.5 ms
            ns_per_byte: 0.0,
            jitter_ns: 0,
            put_extra_ns: 0,
        };
        let f = Fabric::new(cfg);
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        let t0 = Instant::now();
        a.try_send(1, 42, b"hello", 7).unwrap();
        let ev = loop {
            if let Some(ev) = b.poll() {
                break ev;
            }
            std::hint::spin_loop();
        };
        let dt = t0.elapsed();
        match ev {
            Event::Recv { src, header, data } => {
                assert_eq!(src, 0);
                assert_eq!(header, 42);
                assert_eq!(&*data, b"hello");
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(
            dt >= Duration::from_micros(450),
            "message arrived too early: {dt:?}"
        );
    }

    #[test]
    fn manual_fabric_steps_on_a_virtual_clock() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 1));
        assert!(f.is_manual());
        assert_eq!(f.sim_time_ns(), Some(0));
        assert!(!f.step(), "empty wire has nothing to step");
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        a.try_send(1, 7, b"x", 0).unwrap();
        assert!(f.step());
        let t = f.sim_time_ns().unwrap();
        assert!(
            t >= f.config().wire.base_latency_ns,
            "virtual clock should jump past the wire latency, got {t}"
        );
        match b.poll() {
            Some(Event::Recv { header, .. }) => assert_eq!(header, 7),
            other => panic!("expected recv, got {other:?}"),
        }
        assert_eq!(f.drain(), 0);
    }

    #[test]
    fn latency_spike_fault_delays_delivery() {
        let plan = FaultPlan::none().with_phase(
            0,
            u64::MAX / 2,
            Fault::LatencySpike {
                extra_ns: 1_000_000,
                jitter_ns: 0,
            },
        );
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 1).with_fault_plan(plan));
        let a = f.endpoint(0);
        a.try_send(1, 1, b"x", 0).unwrap();
        f.drain();
        let t = f.sim_time_ns().unwrap();
        assert!(t >= 1_000_000, "spike not applied: clock at {t}");
        assert_eq!(a.stats().fault_delayed, 1);
    }

    #[test]
    fn duplicate_fault_delivers_a_ghost_sibling() {
        let plan = FaultPlan::none().with_phase(0, u64::MAX / 2, Fault::Duplicate);
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 3).with_fault_plan(plan));
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        a.try_send(1, 9, b"payload", 5).unwrap();
        f.drain();
        let mut recvs = 0;
        while let Some(ev) = b.poll() {
            if let Event::Recv { header, data, .. } = ev {
                assert_eq!(header, 9, "duplicate ghosts are bit-identical");
                assert_eq!(&*data, b"payload");
                recvs += 1;
            }
        }
        let mut send_done = 0;
        while let Some(ev) = a.poll() {
            if matches!(ev, Event::SendDone { ctx: 5 }) {
                send_done += 1;
            }
        }
        assert_eq!(recvs, 2, "original plus exactly one ghost");
        assert_eq!(send_done, 1, "ghosts complete nothing");
        assert_eq!(b.stats().fault_duplicated, 1);
        assert_eq!(a.stats().sends, 1, "ghosts are not counted as sends");
    }

    #[test]
    fn the_ring_reads_send_then_receive_then_fault() {
        let logged = |run: &dyn Fn()| {
            lci_trace::with_ring(|r| r.drain());
            run();
            let events = lci_trace::with_ring(|r| r.drain()).unwrap();
            events.iter().map(|e| e.kind).collect::<Vec<_>>()
        };
        use EventKind::{Fault as F, Recv, Send};
        // The instant wire delivers in the injecting thread, after the send
        // is logged.
        let f = Fabric::new(FabricConfig::test(2));
        let a = f.endpoint(0);
        assert_eq!(logged(&|| a.try_send(1, 1, b"x", 0).unwrap()), [Send, Recv]);
        // The wire logs an original's receive before the fault that copies it.
        let plan = FaultPlan::none().with_phase(0, u64::MAX / 2, Fault::Duplicate);
        let m = Fabric::new_manual(FabricConfig::deterministic(2, 3).with_fault_plan(plan));
        let a = m.endpoint(0);
        let run = || {
            a.try_send(1, 1, b"x", 0).unwrap();
            m.drain();
        };
        assert_eq!(logged(&run), [Send, Recv, F, Recv]);
    }

    #[test]
    fn ring_events_carry_the_fabrics_clock() {
        let logged = |run: &dyn Fn()| {
            lci_trace::with_ring(|r| r.drain());
            run();
            let events = lci_trace::with_ring(|r| r.drain()).unwrap();
            events.iter().map(|e| (e.kind, e.t_ns)).collect::<Vec<_>>()
        };
        // The instant wire: a receive delivered at injection is the same
        // instant as its send.
        let f = Fabric::new(FabricConfig::test(2));
        let a = f.endpoint(0);
        let events = logged(&|| a.try_send(1, 1, b"x", 0).unwrap());
        let [(EventKind::Send, sent), (EventKind::Recv, got)] = events[..] else {
            panic!("{events:?}");
        };
        assert_eq!(got, sent);
        // A caller-stepped wire: the send at the virtual time it was
        // injected, the receive at the virtual time it was delivered.
        let m = Fabric::new_manual(FabricConfig::deterministic(2, 3));
        let a = m.endpoint(0);
        m.advance_virtual(500);
        let events = logged(&|| {
            a.try_send(1, 1, b"x", 0).unwrap();
            m.drain();
        });
        let arrived = m.sim_time_ns().unwrap();
        assert!(arrived > 500, "the deterministic wire has latency");
        assert_eq!(events, [(EventKind::Send, 500), (EventKind::Recv, arrived)]);
    }

    #[test]
    fn corrupt_and_truncate_ghosts_differ_from_the_original() {
        let plan = FaultPlan::none()
            .with_phase(0, u64::MAX / 2, Fault::Corrupt { flips: 1 })
            .with_phase(0, u64::MAX / 2, Fault::Truncate);
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 7).with_fault_plan(plan));
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        a.try_send(1, 9, b"abcdefgh", 0).unwrap();
        f.drain();
        let mut deliveries = Vec::new();
        while let Some(ev) = b.poll() {
            if let Event::Recv { header, data, .. } = ev {
                deliveries.push((header, data.into_vec()));
            }
        }
        assert_eq!(deliveries.len(), 3, "original + corrupt ghost + truncate ghost");
        let intact = deliveries
            .iter()
            .filter(|(h, d)| *h == 9 && d.as_slice() == b"abcdefgh")
            .count();
        // A single bit-flip always changes the frame, and a truncate ghost
        // is always a strict prefix, so exactly the original is intact.
        assert_eq!(intact, 1);
        assert_eq!(b.stats().fault_corrupted, 1);
        assert_eq!(b.stats().fault_truncated, 1);
        assert_eq!(b.stats().fault_events(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn invalid_fault_plan_is_rejected_at_construction() {
        let plan = FaultPlan::none().with_phase(0, 10, Fault::RnrStorm { target: 9 });
        let _ = Fabric::new(FabricConfig::test(2).with_fault_plan(plan));
    }

    #[test]
    fn drop_fault_eats_the_original_but_completes_the_send() {
        let plan = FaultPlan::none().with_phase(
            0,
            u64::MAX / 2,
            Fault::Drop {
                prob_ppm: 1_000_000,
            },
        );
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 3).with_fault_plan(plan));
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        a.try_send(1, 9, b"payload", 5).unwrap();
        f.drain();
        assert!(b.poll().is_none(), "a dropped delivery must not arrive");
        let mut send_done = 0;
        while let Some(ev) = a.poll() {
            if matches!(ev, Event::SendDone { ctx: 5 }) {
                send_done += 1;
            }
        }
        assert_eq!(send_done, 1, "the sender still sees the packet leave");
        assert_eq!(a.stats().fault_dropped, 1);
        assert_eq!(b.stats().recvs, 0);
        assert_eq!(a.inflight(), 0, "drop must release the injection slot");
    }

    #[test]
    fn blackhole_fault_partitions_one_host_both_ways() {
        let plan = FaultPlan::none().with_phase(0, u64::MAX / 2, Fault::Blackhole { peer: 1 });
        let f = Fabric::new_manual(FabricConfig::deterministic(3, 3).with_fault_plan(plan));
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        let c = f.endpoint(2);
        a.try_send(1, 1, b"into the hole", 10).unwrap();
        b.try_send(2, 2, b"out of the hole", 11).unwrap();
        a.try_send(2, 3, b"bystander", 12).unwrap();
        f.drain();
        // The blackholed host hears nothing (its own SendDone still
        // completes — the packet left its NIC before the wire ate it).
        let mut b_events = 0;
        while let Some(ev) = b.poll() {
            assert!(
                matches!(ev, Event::SendDone { ctx: 11 }),
                "traffic to the hole vanishes: {ev:?}"
            );
            b_events += 1;
        }
        assert_eq!(b_events, 1);
        let mut got = Vec::new();
        while let Some(ev) = c.poll() {
            if let Event::Recv { header, .. } = ev {
                got.push(header);
            }
        }
        assert_eq!(got, vec![3], "only the bystander message survives");
        assert_eq!(a.stats().fault_blackholed, 1);
        assert_eq!(b.stats().fault_blackholed, 1);
        // Senders observe completion regardless.
        let mut done = 0;
        while let Some(ev) = a.poll() {
            if matches!(ev, Event::SendDone { .. }) {
                done += 1;
            }
        }
        assert_eq!(done, 2);
        // RDMA puts are exempt: hardware-reliable in the model.
        let mr = b.register_mr(4);
        a.try_put(1, mr.key(), 0, &[1, 2, 3, 4], 0, None).unwrap();
        f.drain();
        assert_eq!(mr.to_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn crash_fault_kills_a_host_after_n_packets() {
        let plan = FaultPlan::none().with_phase(
            0,
            u64::MAX / 2,
            Fault::Crash { host: 1, after_packets: 2 },
        );
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 5).with_fault_plan(plan));
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        a.try_send(1, 1, b"one", 1).unwrap();
        f.drain();
        assert!(
            matches!(b.poll(), Some(Event::Recv { .. })),
            "packets below the threshold are delivered"
        );
        assert!(f.crashed_hosts().is_empty());
        a.try_send(1, 2, b"two", 2).unwrap();
        f.drain();
        assert!(b.poll().is_none(), "the triggering packet is itself lost");
        assert_eq!(f.crashed_hosts(), vec![1]);
        assert!(b.is_failed(), "the crashed host's own endpoint is failed");
        a.try_send(1, 3, b"three", 3).unwrap();
        f.drain();
        assert!(b.poll().is_none(), "post-crash traffic vanishes");
        let mut done = 0;
        while let Some(ev) = a.poll() {
            if matches!(ev, Event::SendDone { .. }) {
                done += 1;
            }
        }
        assert_eq!(done, 3, "senders observe completion for eaten packets");
        assert_eq!(a.inflight(), 0, "crash must release injection slots");
        assert!(a.stats().fault_crashed >= 1);
        assert_eq!(b.stats().fault_crashed, 1, "the crash event itself is counted once");
    }

    #[test]
    fn respawn_bumps_epoch_and_restores_wire_presence() {
        let plan = FaultPlan::none().with_phase(
            0,
            u64::MAX / 2,
            Fault::Crash { host: 1, after_packets: 1 },
        );
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 9).with_fault_plan(plan));
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        let _mr = b.register_mr(4);
        a.try_send(1, 1, b"x", 0).unwrap();
        f.drain();
        assert_eq!(f.crashed_hosts(), vec![1]);
        assert_eq!(f.recovery_epoch(), 0);
        f.respawn(1);
        assert!(f.crashed_hosts().is_empty());
        assert_eq!(f.recovery_epoch(), 1);
        assert!(!b.is_failed());
        assert_eq!(
            b.registered_mrs(),
            0,
            "respawn drops the dead incarnation's memory registrations"
        );
        a.try_send(1, 2, b"y", 1).unwrap();
        f.drain();
        match b.poll() {
            Some(Event::Recv { header, .. }) => assert_eq!(header, 2),
            other => panic!("respawned host must hear new traffic, got {other:?}"),
        }
        // The trigger does not re-arm: further traffic keeps flowing.
        a.try_send(1, 3, b"z", 2).unwrap();
        f.drain();
        assert!(matches!(b.poll(), Some(Event::Recv { .. })));
        assert!(f.crashed_hosts().is_empty());
    }

    #[test]
    fn stale_puts_from_a_dead_incarnation_are_swallowed_not_bad_mr() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 11));
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        let mr = b.register_mr(4);
        a.try_put(1, mr.key(), 0, &[9, 9, 9, 9], 7, Some(42)).unwrap();
        // Respawn before the wire moves: the in-flight put is now stale.
        f.respawn(1);
        f.drain();
        assert_eq!(mr.to_vec(), vec![0, 0, 0, 0], "a stale put must not write");
        let mut events = Vec::new();
        while let Some(ev) = a.poll() {
            events.push(ev);
        }
        assert!(
            events.iter().any(|e| matches!(e, Event::PutDone { ctx: 7, .. })),
            "the sender's completion still fires: {events:?}"
        );
        assert!(
            !events.iter().any(|e| matches!(e, Event::Error { .. })),
            "a stale put aimed at a cleared MR must not surface BadMr: {events:?}"
        );
        assert!(b.poll().is_none(), "no stale PutArrived");
        assert_eq!(a.stats().errors, 0);
        assert_eq!(a.inflight(), 0);
    }

    #[test]
    fn advance_virtual_is_clamped_to_the_next_delivery() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 1));
        assert_eq!(f.advance_virtual(5_000), 5_000, "idle wire advances freely");
        let a = f.endpoint(0);
        a.try_send(1, 7, b"x", 0).unwrap();
        let before = f.sim_time_ns().unwrap();
        let after = f.advance_virtual(u64::MAX / 4);
        assert!(
            after >= before && after < u64::MAX / 8,
            "advance past a scheduled delivery must clamp, got {after}"
        );
        assert!(f.step(), "the clamped delivery still executes");
    }
}
