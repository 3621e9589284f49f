//! The BSP gather-communicate-scatter engine (the paper's Fig. 2 runtime).
//!
//! One round skeleton serves every engine built on this runtime. Each
//! simulated host runs [`host_main`] on its own OS thread: rounds of a
//! **boundary pass** (which masters changed, and how many local vertices
//! would fire — this host's termination vote), **fire** (apply operators to
//! those masters, pushing contributions along local out-edges) and a data
//! **exchange** supplied by an [`Exchange`] strategy, whose first phase also
//! carries every host's vote — with state init, checkpoint restore/save,
//! abort detection, metrics and retirement owned by the skeleton. A round is
//! the only synchronisation: there is no separate control exchange, so the
//! global active count of boundary *r* is learnt inside round *r + 1*, and
//! the run ends with one half-round that fires nothing (the *probe*). What
//! differs between engines is only the exchange:
//!
//! * Abelian ([`ProxySync`], this module): **reduce** changed mirror values
//!   to their masters as compact `(plan-index, value)` pairs, then — exactly
//!   when the partitioning gives mirrors out-edges, i.e. vertex-cuts —
//!   **broadcast** firing masters' emissions to mirrors, which push along
//!   *their* local out-edges.
//! * Gemini (`gemini::engine`): dense/sparse chunked push over the blocked
//!   edge-cut, no broadcast.
//!
//! The communication thread is the host thread itself (as in Fig. 2, one
//! dedicated communication thread per host); scatter work is performed as
//! messages arrive, in any order — the property that makes the first-packet
//! policy of LCI a perfect fit.

use crate::apps::App;
use crate::checkpoint::{CheckpointStore, CkptPlan, Snapshot};
use crate::comm::{channels, recv_round, ChannelSpec, CommLayer};
use crate::label::{BitSet, Label, LabelVec};
use crate::metrics::{HostMetrics, RoundMetrics};
use lci_graph::{DistGraph, Partitioning, Policy, Vid};
use lci_trace::ring::now_ns;
use lci_trace::{record, with_ring, Counter, EventKind, Span, TraceEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Safety cap on rounds for every engine, regardless of the app (apps bound
/// themselves through [`App::max_rounds`]).
const ROUND_CAP: usize = 100_000;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Compute threads per host (1 = compute on the host thread).
    pub compute_threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { compute_threads: 1 }
    }
}

/// Per-host outcome of a run.
pub struct HostResult<L: Label> {
    /// Host rank.
    pub host: u16,
    /// Final values of this host's master vertices, as `(gid, value)`.
    pub masters: Vec<(Vid, L)>,
    /// Timing and memory metrics.
    pub metrics: HostMetrics,
}

/// Whole-run outcome.
pub struct RunResult<L: Label> {
    /// Per-host results, rank order.
    pub hosts: Vec<HostResult<L>>,
    /// Final value per global vertex.
    pub values: Vec<L>,
    /// Rounds executed (max across hosts; they agree by construction).
    pub rounds: usize,
}

impl<L: Label> RunResult<L> {
    /// Max peak communication-buffer footprint across hosts (Fig. 5).
    pub fn mem_peak_max(&self) -> u64 {
        self.hosts.iter().map(|h| h.metrics.mem_peak).max().unwrap_or(0)
    }

    /// Min peak communication-buffer footprint across hosts (Fig. 5).
    pub fn mem_peak_min(&self) -> u64 {
        self.hosts.iter().map(|h| h.metrics.mem_peak).min().unwrap_or(0)
    }
}

/// Run a vertex program over a partitioned graph on the given layers
/// (one per host, rank order). Returns merged results and per-host metrics.
///
/// Panics if any host's communication layer fails fatally (e.g. a peer is
/// declared unreachable); use [`run_app_checked`] to receive the failure as
/// an error instead.
pub fn run_app<A: App>(
    parts: &Partitioning,
    app: Arc<A>,
    layers: &[Arc<dyn CommLayer>],
    cfg: &EngineConfig,
) -> RunResult<A::Acc> {
    run_app_checked(parts, app, layers, cfg).unwrap_or_else(|e| panic!("engine aborted: {e}"))
}

/// Like [`run_app`], but a fatal communication-layer failure (peer declared
/// unreachable by the transport's retransmission budget, window operation
/// failure, …) surfaces as `Err` with the first failing host's message
/// instead of panicking; see [`run_rounds`] for why the abort is bounded.
pub fn run_app_checked<A: App>(
    parts: &Partitioning,
    app: Arc<A>,
    layers: &[Arc<dyn CommLayer>],
    cfg: &EngineConfig,
) -> Result<RunResult<A::Acc>, String> {
    run_app_with_ckpt(parts, app, layers, cfg, None)
}

/// Like [`run_app_checked`], with optional coordinated checkpointing (see
/// [`run_rounds`]). This is the primitive the crash-recovery driver
/// ([`crate::recovery::run_app_recoverable`]) loops over.
pub fn run_app_with_ckpt<A: App>(
    parts: &Partitioning,
    app: Arc<A>,
    layers: &[Arc<dyn CommLayer>],
    cfg: &EngineConfig,
    ckpt: Option<&CkptPlan>,
) -> Result<RunResult<A::Acc>, String> {
    // Vertex cuts give mirrors out-edges and so need the broadcast; the
    // blocked edge-cut does not — Abelian's partition-aware communication
    // minimization.
    let sync = ProxySync { broadcast: parts.policy != Policy::EdgeCutBlocked };
    run_rounds(parts, &*app, layers, &sync, cfg.compute_threads, ckpt)
}

/// An engine's per-round data exchange — the one thing that differs between
/// the engines sharing this module's round skeleton. A strategy hides a wire
/// format and a synchronization algorithm; the skeleton owns everything
/// else. Dispatch is static: `deliver` is the hot loop.
pub trait Exchange: Sync {
    /// Whether the strategy ships firing masters' emissions to mirrors. When
    /// true the skeleton registers [`channels::BROADCAST`] next to
    /// [`channels::REDUCE`] and records each round which masters fired and
    /// what they emitted.
    fn broadcasts(&self) -> bool;

    /// Worst-case bytes `origin` sends `target` in one round on `channel`
    /// for labels of type `L` (the RMA layer pre-allocates from this; real
    /// systems exchange these sizes collectively at setup).
    fn max_message<L: Label>(
        &self,
        parts: &Partitioning,
        channel: usize,
        origin: usize,
        target: usize,
    ) -> usize;

    /// Perform one round's data exchange for `host` over `layer`: ship what
    /// changed, and fold every peer's traffic in through
    /// [`HostState::deliver`] inside [`recv_round`]. Every message of the
    /// first phase ([`channels::REDUCE`]) also carries `vote`
    /// ([`put_vote`] / [`take_vote`]), this host's active count at the
    /// boundary the round started from; the sum over all hosts comes back in
    /// [`Exchanged::active`]. `Err` is the layer failure that aborted it.
    fn exchange<A: App>(
        &self,
        host: &HostState<'_, A>,
        layer: &dyn CommLayer,
        vote: u64,
    ) -> Result<Exchanged, String>;
}

/// What one [`Exchange::exchange`] did.
pub struct Exchanged {
    /// Label updates this host sent.
    pub sent_entries: u64,
    /// Payload bytes this host sent, all channels.
    pub sent_bytes: u64,
    /// Every host's vote, summed: the global active count at the boundary
    /// the round started from. The same number on every host.
    pub active: u64,
}

/// Bytes the termination vote adds to a message.
pub const VOTE_BYTES: usize = 8;

/// Open a message with `vote`; the strategy's own format follows it.
pub fn put_vote(vote: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&vote.to_le_bytes());
}

/// Split a message opened by [`put_vote`] into the vote and the rest; `None`
/// if it is too short to carry one.
pub fn take_vote(data: &[u8]) -> Option<(u64, &[u8])> {
    let (vote, rest) = data.split_first_chunk::<VOTE_BYTES>()?;
    Some((u64::from_le_bytes(*vote), rest))
}

/// One host's vertex state, shared between the round skeleton (which owns
/// its lifecycle) and the [`Exchange`] strategy (which reads and folds
/// labels through the methods below).
///
/// Who writes it: the host thread, always; compute threads only while the
/// fire phase's `thread::scope` is open, and only when the run was given more
/// than one. [`host_main`] tells the label vectors which of the two it is
/// (`shared`), so a single-threaded host pays for no atomic read-modify-write
/// anywhere in a round; every read-modify-write goes through [`LabelVec`] or
/// [`BitSet`].
pub struct HostState<'a, A: App> {
    /// This host's partition.
    pub part: &'a DistGraph,
    /// The vertex program.
    pub app: &'a A,
    labels: LabelVec,
    /// Local vertices whose value moved since they were last taken: masters
    /// by [`Self::boundary_pass`], mirrors by [`Self::take_changed_mirrors`].
    changed: BitSet,
    consumed: Option<LabelVec>,
    /// Which masters fired this round, and their emissions — maintained only
    /// for strategies that broadcast.
    track_fired: bool,
    fired: Vec<AtomicBool>,
    emits: LabelVec,
}

impl<'a, A: App> HostState<'a, A> {
    /// Masters hold the canonical initial value; mirrors start at the reduce
    /// identity (an add-app mirror that started at `init` would double-count
    /// it into the master at the first reduce). `shared`: whether compute
    /// threads will fire next to each other (see [`LabelVec::new`]).
    pub fn new(part: &'a DistGraph, app: &'a A, track_fired: bool, shared: bool) -> Self {
        let nl = part.num_local();
        let nm = part.num_masters as usize;
        let identity = app.identity();
        let labels = LabelVec::new(nl, identity, shared);
        for l in 0..nm {
            labels.set(l, app.init(part.l2g[l]));
        }
        let changed = BitSet::new(nl, shared);
        (0..nm).filter(|&l| app.active_initially(part.l2g[l])).for_each(|l| changed.insert(l));
        let nf = if track_fired { nm } else { 0 };
        HostState {
            part,
            app,
            labels,
            changed,
            consumed: app.output_consumed().then(|| LabelVec::new(nm, identity, shared)),
            track_fired,
            fired: (0..nf).map(|_| AtomicBool::new(false)).collect(),
            emits: LabelVec::new(nf, identity, shared),
        }
    }

    /// Roll the freshly initialized state forward to the round boundary
    /// `r0` saved in `store`, before any communication happens; the round to
    /// resume from is returned. Every host restores the same round (the
    /// recovery driver picked a common one), so the restored cut is exactly
    /// the state of a crash-free run at that boundary.
    fn restore(&self, store: &CheckpointStore, r0: u64) -> Result<usize, String> {
        let me = self.part.host;
        let snap = store
            .load(me, r0)
            .map_err(|e| format!("host {me}: checkpoint restore of round {r0}: {e}"))?;
        let [lab, cons, chg] = snap.sections.as_slice() else {
            return Err(format!(
                "host {me}: checkpoint of round {r0} has {} sections, want 3",
                snap.sections.len()
            ));
        };
        if !self.labels.restore_bits(lab) {
            return Err(format!("host {me}: checkpoint label section size mismatch"));
        }
        match &self.consumed {
            Some(c) if !c.restore_bits(cons) => {
                return Err(format!("host {me}: checkpoint consumed section size mismatch"));
            }
            None if !cons.is_empty() => {
                return Err(format!(
                    "host {me}: checkpoint has consumed section but app has none"
                ));
            }
            _ => {}
        }
        if !self.changed.restore_bytes(chg) {
            return Err(format!("host {me}: checkpoint changed section size mismatch"));
        }
        lci_trace::incr(Counter::EngineCkptRestores);
        Ok(snap.round as usize)
    }

    /// The state at the boundary after `round` rounds, in [`Self::restore`]'s
    /// layout: label bits, consumed-output bits, changed flags.
    fn snapshot(&self, round: usize) -> Snapshot {
        Snapshot {
            round: round as u64,
            sections: vec![
                self.labels.save_bits(),
                self.consumed.as_ref().map(|c| c.save_bits()).unwrap_or_default(),
                self.changed.save_bytes(),
            ],
        }
    }

    /// Fold contribution `v` into local vertex `lid`, marking it changed if
    /// its value moved. This is PageRank's hot loop, once per edge: the fold
    /// is a compare-and-swap only on a host whose compute threads share the
    /// labels (a load and a store otherwise — the choice is [`LabelVec`]'s,
    /// made once per run), and the mark is one bit of a word that stays in
    /// L1. It runs on the host thread, or on compute threads the host thread
    /// joins before its next boundary pass.
    pub fn deliver(&self, lid: usize, v: A::Acc) {
        if self.labels.reduce_with(lid, v, |a, b| self.app.reduce(a, b)) {
            self.changed.insert(lid);
        }
    }

    /// Whether local vertex `lid` would fire on its current value.
    fn viable(&self, lid: usize) -> bool {
        let deg = self.part.out_degree_global[lid];
        self.app.emit(self.labels.get(lid), deg).is_some()
    }

    /// The top-of-round pass over the changed set, in ascending lid order:
    /// take every changed master into `fire_list` (cleared first) and return
    /// this host's vote — how many local vertices, masters and mirrors, are
    /// changed and [viable](Self::viable). Mirrors keep their marks for
    /// [`Self::take_changed_mirrors`]. Host thread only, between rounds:
    /// nothing delivers concurrently.
    fn boundary_pass(&self, fire_list: &mut Vec<u32>) -> u64 {
        fire_list.clear();
        let nm = self.part.num_masters as usize;
        let mut vote = 0u64;
        self.changed.walk(0..nm, true, |lid| {
            vote += self.viable(lid) as u64;
            fire_list.push(lid as u32);
        });
        self.changed.walk(nm..self.part.num_local(), false, |lid| vote += self.viable(lid) as u64);
        vote
    }

    /// Take every changed mirror's pending update for shipping to its master:
    /// per owner `t`, the `(position, value)` pairs of the changed entries of
    /// `mirror_send[t]`, in ascending position (the walk is in ascending lid),
    /// each value the mirror's (reset to the identity when the app consumes).
    /// It goes out whether or not it is [viable](Self::viable) — see the
    /// contract on [`App::emit`]. Host thread only.
    pub fn take_changed_mirrors(&self) -> Vec<Vec<(u32, A::Acc)>> {
        let nm = self.part.num_masters as usize;
        let mut taken = vec![Vec::new(); self.part.num_hosts];
        self.changed.walk(nm..self.part.num_local(), true, |lid| {
            let (owner, pos) = self.part.mirror_slot[lid - nm];
            let v = if self.app.consuming() {
                self.labels.swap(lid, self.app.identity())
            } else {
                self.labels.get(lid)
            };
            taken[owner as usize].push((pos, v));
        });
        taken
    }

    /// Push emission `e` along every local out-edge of `lid`.
    fn scatter(&self, lid: Vid, e: A::Acc) {
        for (nbr, w) in self.part.local.neighbors_weighted(lid) {
            self.deliver(nbr as usize, self.app.push(e, w));
        }
    }

    /// Apply the operator to active master `u`.
    fn fire(&self, u: u32) {
        let ul = u as usize;
        let v0: A::Acc = self.labels.get(ul);
        let deg = self.part.out_degree_global[ul];
        if self.app.emit(v0, deg).is_none() {
            // Not viable (min-apps never hit this; PR sub-tolerance residuals
            // are intentionally dropped).
            return;
        }
        let v = if self.app.consuming() {
            self.labels.swap(ul, self.app.identity())
        } else {
            v0
        };
        if let Some(c) = &self.consumed {
            c.reduce_with(ul, v, |a, b| self.app.reduce(a, b));
        }
        let Some(e) = self.app.emit(v, deg) else { return };
        if self.track_fired {
            self.emits.set(ul, e);
            self.fired[ul].store(true, Ordering::Release);
        }
        self.scatter(u, e);
    }

    /// Final `(gid, value)` of every master.
    fn masters(&self) -> Vec<(Vid, A::Acc)> {
        let out = self.consumed.as_ref().unwrap_or(&self.labels);
        (0..self.part.num_masters as usize)
            .map(|l| (self.part.l2g[l], out.get(l)))
            .collect()
    }
}

/// Host `h`'s spec for a recurring pattern in which origin `o` sends target
/// `t` at most `max(o, t)` bytes per round.
fn channel_spec(p: usize, h: usize, max: impl Fn(usize, usize) -> usize) -> ChannelSpec {
    ChannelSpec {
        max_recv: (0..p).map(|o| max(o, h)).collect(),
        max_send: (0..p).map(|t| max(h, t)).collect(),
        // Slots in t's window are laid out by origin, in rank order.
        slot_at_peer: (0..p).map(|t| (0..h).map(|o| 8 + max(o, t)).sum()).collect(),
    }
}

/// The one BSP driver: run `app` over `parts` on `layers` (one per host,
/// rank order), one scoped thread per host, exchanging data each round
/// through `exchange`, and merge the per-host results. This is the seam an
/// engine plugs its [`Exchange`] into; applications call the engines' entry
/// points ([`run_app`] and friends, `gemini::run_gemini` and friends).
///
/// `ckpt` makes every host snapshot its vertex state into the plan's
/// [`CheckpointStore`] every `every` rounds (at the round boundary, once the
/// round's last receive has returned — so the saved rounds form globally
/// consistent cuts), and restore the plan's `resume_from` round before its
/// first round. A fatal communication-layer failure surfaces as `Err` with
/// the first failing host's message; the abort is bounded, because every
/// receive loop polls [`CommLayer::failure`] while spinning.
pub fn run_rounds<A: App, X: Exchange>(
    parts: &Partitioning,
    app: &A,
    layers: &[Arc<dyn CommLayer>],
    exchange: &X,
    compute_threads: usize,
    ckpt: Option<&CkptPlan>,
) -> Result<RunResult<A::Acc>, String> {
    assert_eq!(layers.len(), parts.parts.len(), "one layer per host");
    let results: Vec<Result<HostResult<A::Acc>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = layers
            .iter()
            .enumerate()
            .map(|(h, layer)| {
                let layer = &**layer;
                scope.spawn(move || {
                    host_main(parts, h, app, layer, exchange, compute_threads, ckpt)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("host thread")).collect()
    });
    let hosts = results.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut values = vec![app.identity(); parts.parts[0].global_n];
    let mut rounds = 0;
    for hr in &hosts {
        rounds = rounds.max(hr.metrics.num_rounds());
        for &(gid, v) in &hr.masters {
            values[gid as usize] = v;
        }
    }
    Ok(RunResult {
        hosts,
        values,
        rounds,
    })
}

/// One host's run: init → restore → [boundary pass → fire → exchange →
/// save]* → quiesce → results.
///
/// The vote a round carries is the active count of the boundary it started
/// from, so a run learns that boundary *r* was its fixpoint inside round
/// *r + 1*: that half-round fired nothing on any host (a vertex that fires is
/// counted in its host's vote), is a speculative **probe**, and is not a
/// round — no [`RoundMetrics`], no `engine.rounds`, no round events. Round 0
/// of a fresh run is always a round, whatever it finds.
fn host_main<A: App, X: Exchange>(
    parts: &Partitioning,
    h: usize,
    app: &A,
    layer: &dyn CommLayer,
    exchange: &X,
    compute_threads: usize,
    ckpt: Option<&CkptPlan>,
) -> Result<HostResult<A::Acc>, String> {
    let (p, part) = (parts.parts.len(), &parts.parts[h]);
    let me = part.host;
    let broadcasts = exchange.broadcasts();
    // The one decision on who writes vertex state: compute threads exist
    // exactly when there is more than one of them to fan the fire list over.
    let st = HostState::new(part, app, broadcasts, compute_threads > 1);
    let mut round = match ckpt {
        Some(CkptPlan { store, resume_from: Some(r0), .. }) => st.restore(store, *r0)?,
        _ => 0,
    };

    // Channels: collective, uniform order.
    let data_channels: &[usize] = if broadcasts {
        &[channels::REDUCE, channels::BROADCAST]
    } else {
        &[channels::REDUCE]
    };
    for &c in data_channels {
        let max = |o, t| exchange.max_message::<A::Acc>(parts, c, o, t);
        layer.register_channel(c, channel_spec(p, h, max));
    }

    let max_rounds = app.max_rounds().unwrap_or(usize::MAX).min(ROUND_CAP);
    let mut metrics = HostMetrics::default();
    let mut fire_list = Vec::new();

    loop {
        let (round_start, begin_ns) = (Instant::now(), now_ns());
        let abort = |f: String| format!("host {me} aborted in round {round}: {f}");

        // ---- boundary pass: the fire list and this host's vote -----------
        let boundary_span = Span::enter(Counter::PhaseControlNs);
        let vote = st.boundary_pass(&mut fire_list);
        boundary_span.finish();

        // ---- fire phase (computation) -----------------------------------
        let fire_span = Span::enter(Counter::PhaseComputeNs);
        if compute_threads > 1 && fire_list.len() > 64 {
            assert!(st.labels.is_shared(), "compute threads need shared vertex state");
            let chunk = fire_list.len().div_ceil(compute_threads);
            std::thread::scope(|scope| {
                for ch in fire_list.chunks(chunk) {
                    scope.spawn(|| ch.iter().for_each(|&u| st.fire(u)));
                }
            });
        } else {
            fire_list.iter().for_each(|&u| st.fire(u));
        }
        let compute = round_start.elapsed();
        fire_span.finish();

        // ---- communication: the strategy's exchange, votes aboard --------
        let comm_span = Span::enter(Counter::PhaseCommNs);
        let Exchanged { sent_entries, sent_bytes, active } =
            exchange.exchange(&st, layer, vote).map_err(abort)?;
        if st.track_fired {
            for &u in &fire_list {
                st.fired[u as usize].store(false, Ordering::Relaxed);
            }
        }
        comm_span.finish();
        lci_trace::add(Counter::EngineSentEntries, sent_entries);
        lci_trace::add(Counter::EngineSentBytes, sent_bytes);
        if active == 0 && round > 0 {
            break;
        }

        let wall = round_start.elapsed();
        lci_trace::incr(Counter::EngineRounds);
        // Only now is this known to be a round; its begin keeps its time.
        let begin = TraceEvent {
            t_ns: begin_ns,
            kind: EventKind::RoundBegin,
            a: me as u32,
            b: round as u64,
        };
        with_ring(|ring| ring.push(begin));
        record(EventKind::RoundEnd, me as u32, round as u64);
        metrics.rounds.push(RoundMetrics {
            compute,
            comm: wall.saturating_sub(compute),
            sent_entries,
            sent_bytes,
        });
        round += 1;
        if round >= max_rounds {
            break;
        }

        // ---- coordinated checkpoint save ---------------------------------
        // This host's state at boundary `round` is complete: the exchange's
        // last `recv_round` has returned, and a peer already in the next
        // round cannot touch it (its traffic waits in the layer until this
        // host opens that round). Every host saves the same multiples of
        // `every`, so the newest round all of them hold is a globally
        // consistent cut without a barrier. The run does not yet know
        // whether this boundary is its last; resuming from a final one ends
        // at the probe, having run zero rounds.
        if let Some(plan) = ckpt {
            if plan.every > 0 && (round as u64).is_multiple_of(plan.every) {
                plan.store.save(me, &st.snapshot(round));
            }
        }
    }

    // Flush before retiring: on a lossy wire this host may still hold the
    // only surviving copy of a frame a peer needs, and the retransmission
    // timers only fire while someone drives progress. A failure here is
    // ignored — the fixpoint is already reached and the masters final.
    layer.quiesce();

    let book = layer.membook();
    metrics.mem_peak = book.peak();
    metrics.mem_total_allocated = book.total_allocated();

    Ok(HostResult {
        host: me,
        masters: st.masters(),
        metrics,
    })
}

/// Abelian's exchange: reduce over the mirror plans, then the
/// policy-derived broadcast. Both directions ship one frame per peer.
struct ProxySync {
    broadcast: bool,
}

impl ProxySync {
    /// Send every peer `t` one frame of the `(plan position, value)` pairs
    /// `entries[t]`, opened by `vote` if there is one; returns
    /// `(entries, bytes)` sent.
    fn send_frames<L: Label>(
        layer: &dyn CommLayer,
        channel: usize,
        vote: Option<u64>,
        entries: &[Vec<(u32, L)>],
    ) -> (u64, u64) {
        let me = layer.rank();
        let (mut sent, mut bytes) = (0u64, 0u64);
        layer.begin(channel);
        for (t, list) in (0u16..).zip(entries).filter(|(t, _)| *t != me) {
            // Frame: `[vote u64]? [count u32][(plan_index u32, value) * count]`.
            let mut buf = Vec::with_capacity(VOTE_BYTES + 4 + list.len() * (4 + L::WIRE_BYTES));
            if let Some(vote) = vote {
                put_vote(vote, &mut buf);
            }
            buf.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for &(pos, v) in list {
                buf.extend_from_slice(&pos.to_le_bytes());
                v.write(&mut buf);
            }
            sent += list.len() as u64;
            bytes += buf.len() as u64;
            layer.send(channel, t, buf);
        }
        layer.finish_sends(channel);
        (sent, bytes)
    }

    /// Receive one frame from every peer, handing `apply` each entry's local
    /// vertex as resolved through `plans[src]`; returns the sum of the votes
    /// the frames carried (`voted` says whether they carry one). A position
    /// outside the plan means a mangled frame slipped past framing; drop the
    /// entry, not the host.
    fn recv_frames<L: Label>(
        layer: &dyn CommLayer,
        channel: usize,
        plans: &[Vec<Vid>],
        voted: bool,
        apply: impl Fn(usize, L),
    ) -> Result<u64, String> {
        let mut votes = 0;
        recv_round(layer, channel, |src, data| {
            let plan = &plans[src as usize];
            votes += decode_frame::<L>(&data, voted, |pos, v| match plan.get(pos as usize) {
                Some(&lid) => apply(lid as usize, v),
                None => lci_trace::incr(Counter::EngineMalformedDropped),
            });
            true
        })?;
        Ok(votes)
    }
}

impl Exchange for ProxySync {
    fn broadcasts(&self) -> bool {
        self.broadcast
    }

    fn max_message<L: Label>(
        &self,
        parts: &Partitioning,
        channel: usize,
        origin: usize,
        target: usize,
    ) -> usize {
        // reduce: o sends t up to |o.mirror_send[t]| entries; broadcast: up
        // to |o.master_recv[t]|. Plus the vote, the count and the RMA
        // layer's sub-frame length (16 of the 20).
        let part = &parts.parts[origin];
        let plan = match channel {
            channels::REDUCE => &part.mirror_send[target],
            _ => &part.master_recv[target],
        };
        20 + plan.len() * (4 + L::WIRE_BYTES)
    }

    fn exchange<A: App>(
        &self,
        host: &HostState<'_, A>,
        layer: &dyn CommLayer,
        vote: u64,
    ) -> Result<Exchanged, String> {
        let (mirrors, masters) = (&host.part.mirror_send, &host.part.master_recv);

        // ---- reduce phase: votes and changed mirrors → masters -----------
        let reduce_span = Span::enter(Counter::PhaseReduceNs);
        let changed = host.take_changed_mirrors();
        let (mut sent_entries, mut sent_bytes) =
            Self::send_frames(layer, channels::REDUCE, Some(vote), &changed);
        let active = vote
            + Self::recv_frames(layer, channels::REDUCE, masters, true, |l, v| {
                host.deliver(l, v)
            })?;
        reduce_span.finish();

        // ---- broadcast phase: firing masters' emissions → mirrors --------
        if self.broadcast {
            let bcast_span = Span::enter(Counter::PhaseBroadcastNs);
            // The plans are walked here, not the fire list: in a dense round
            // they are the shorter of the two.
            let entry = |(pos, &l): (u32, &Vid)| {
                let fired = host.fired[l as usize].load(Ordering::Acquire);
                fired.then(|| (pos, host.emits.get::<A::Acc>(l as usize)))
            };
            let emitted: Vec<Vec<_>> = masters
                .iter()
                .map(|plan| (0u32..).zip(plan).filter_map(entry).collect())
                .collect();
            let (e, b) = Self::send_frames(layer, channels::BROADCAST, None, &emitted);
            sent_entries += e;
            sent_bytes += b;
            Self::recv_frames(layer, channels::BROADCAST, mirrors, false, |l, e: A::Acc| {
                // Canonical sync of the mirror cache (min-apps only:
                // emissions equal canonical values there).
                if !host.app.consuming() {
                    host.labels.reduce_with(l, e, |a, b| host.app.reduce(a, b));
                }
                // Mirror-side pushes along its local out-edges.
                host.scatter(l as Vid, e);
            })?;
            bcast_span.finish();
        }
        Ok(Exchanged { sent_entries, sent_bytes, active })
    }
}

/// Decode a frame (`[vote u64]? [count u32][(plan_index u32, value) * count]`,
/// as [`ProxySync::send_frames`] writes it), handing `f` each entry; returns
/// the vote of a `voted` frame. A malformed frame — too short for its vote or
/// its count, or claiming more entries than it carries — is dropped whole:
/// no entries, vote 0, counted on `engine.malformed_dropped`. Its peer is
/// still complete for the round (one frame per peer), so nothing wedges.
fn decode_frame<L: Label>(data: &[u8], voted: bool, mut f: impl FnMut(u32, L)) -> u64 {
    let entry = 4 + L::WIRE_BYTES;
    let frame = if voted { take_vote(data) } else { Some((0, data)) };
    let checked = frame.and_then(|(vote, body)| {
        let (count, entries) = body.split_first_chunk::<4>()?;
        let count = u32::from_le_bytes(*count) as usize;
        // A count claiming more entries than the bytes carry is mangled;
        // never read out of bounds.
        (count.checked_mul(entry)? <= entries.len()).then_some((vote, count, entries))
    });
    let Some((vote, count, entries)) = checked else {
        lci_trace::incr(Counter::EngineMalformedDropped);
        return 0;
    };
    for e in entries.chunks_exact(entry).take(count) {
        let pos = u32::from_le_bytes(e[..4].try_into().expect("entry holds a position"));
        f(pos, L::read(&e[4..]));
    }
    vote
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::PageRank;
    use crate::comm::ChannelSpec;
    use crate::membook::MemBook;
    use lci_graph::{gen, partition};
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// What `HostState`'s marks and labels must read after any sequence of
    /// steps, kept the plain way: a flag per vertex, every pass a scan of all
    /// of them, a mirror's place in the plans found by searching the plans.
    struct Plain<'a> {
        app: &'a PageRank,
        part: &'a DistGraph,
        labels: Vec<f32>,
        changed: Vec<bool>,
    }

    impl<'a> Plain<'a> {
        fn of(st: &HostState<'a, PageRank>) -> Self {
            let labels = (0..st.part.num_local()).map(|l| st.labels.get(l)).collect();
            let changed = st.changed.save_bytes().iter().map(|&b| b != 0).collect();
            Plain { app: st.app, part: st.part, labels, changed }
        }

        fn deliver(&mut self, lid: usize, v: f32) {
            let new = self.app.reduce(self.labels[lid], v);
            if new.to_bits() != self.labels[lid].to_bits() {
                self.labels[lid] = new;
                self.changed[lid] = true;
            }
        }

        fn take_changed(&mut self, lid: usize) -> Option<f32> {
            std::mem::take(&mut self.changed[lid])
                .then(|| std::mem::replace(&mut self.labels[lid], self.app.identity()))
        }

        /// Every plan walked whole, as the encoders used to.
        fn take_changed_mirrors(&mut self) -> Vec<Vec<(u32, f32)>> {
            let part = self.part;
            let taken = |plan: &Vec<Vid>| {
                let entry = |(pos, &l)| Some((pos, self.take_changed(l as usize)?));
                (0u32..).zip(plan).filter_map(entry).collect()
            };
            part.mirror_send.iter().map(taken).collect()
        }

        fn boundary_pass(&mut self) -> (Vec<u32>, u64) {
            let changed = |l: &usize| self.changed[*l];
            let degree = &self.part.out_degree_global;
            let viable = |l: &usize| self.app.emit(self.labels[*l], degree[*l]).is_some();
            let vote = (0..self.changed.len()).filter(changed).filter(viable).count() as u64;
            let nm = self.part.num_masters as usize;
            let fire: Vec<u32> = (0..nm).filter(changed).map(|l| l as u32).collect();
            self.changed[..nm].fill(false);
            (fire, vote)
        }
    }

    /// Marks and labels equal the plain model's.
    fn check(st: &HostState<'_, PageRank>, plain: &Plain<'_>) -> Result<(), TestCaseError> {
        let marks: Vec<bool> = st.changed.save_bytes().iter().map(|&b| b != 0).collect();
        prop_assert_eq!(&marks, &plain.changed);
        for (lid, want) in plain.labels.iter().enumerate() {
            prop_assert_eq!(st.labels.get::<f32>(lid).to_bits(), want.to_bits(), "label {}", lid);
        }
        Ok(())
    }

    /// The partitions a word walk can get wrong, and the host to look at.
    /// Vertex cuts block owners by count: of `n` vertices over two hosts,
    /// host 0 masters `n / 2 + 1`.
    fn shape(i: usize) -> (Partitioning, usize) {
        let cut = Policy::VertexCutCartesian;
        let (parts, h) = match i {
            0 => (partition(&gen::rmat(9, 4, 0xD127), 2, cut), 0),
            1 => (partition(&gen::uniform(254, 1500, 1), 2, cut), 0),
            2 => (partition(&gen::uniform(124, 700, 2), 2, cut), 0),
            3 => (partition(&gen::path(300), 2, Policy::EdgeCutBlocked), 1),
            _ => (partition(&gen::rmat(7, 4, 3), 1, cut), 0),
        };
        let (nm, nl) = (parts.parts[h].num_masters as usize, parts.parts[h].num_local());
        match i {
            0 => assert!(nl > 256 && nm < nl && nl % 64 != 0, "{nm} of {nl}"),
            1 => assert!(nm % 64 == 0 && nm < nl, "{nm} of {nl}"),
            2 => assert!(nm % 64 == 63 && nm < nl, "{nm} of {nl}"),
            3 => assert!(nm == nl && nl % 64 != 0, "a host without mirrors: {nm} of {nl}"),
            _ => assert!(parts.parts.len() == 1 && nm == nl, "one host"),
        }
        (parts, h)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The changed set against the plain model, single-writer and shared,
        /// over random interleavings of everything that touches a mark:
        /// `deliver` (values from far below PageRank's tolerance to far above
        /// it, so changed and viable come apart), `take_changed_mirrors`,
        /// boundary passes, and a `snapshot` → `restore` into a fresh state.
        #[test]
        fn dirty_summary_agrees_with_a_linear_scan(
            which in 0usize..5,
            shared in any::<bool>(),
            steps in prop::collection::vec((0u8..8, any::<u16>(), 0u8..4), 1..400),
        ) {
            let (parts, h) = shape(which);
            let (part, app) = (&parts.parts[h], PageRank::default());
            let nl = part.num_local();
            let mut st = HostState::new(part, &app, false, shared);
            let mut plain = Plain::of(&st);
            let store = CheckpointStore::new(parts.parts.len());
            let mut fire = Vec::new();
            for (i, (op, lid, size)) in steps.into_iter().enumerate() {
                let lid = lid as usize % nl;
                match op {
                    0..=3 => {
                        let v = [1e-7f32, 1e-5, 1e-3, 0.5][size as usize];
                        st.deliver(lid, v);
                        plain.deliver(lid, v);
                    }
                    4 | 5 => {
                        let taken = st.take_changed_mirrors();
                        prop_assert_eq!(taken, plain.take_changed_mirrors(), "step {}", i);
                    }
                    6 => {
                        let vote = st.boundary_pass(&mut fire);
                        prop_assert_eq!((fire.clone(), vote), plain.boundary_pass(), "step {}", i);
                    }
                    _ => {
                        store.save(h as u16, &st.snapshot(i));
                        st = HostState::new(part, &app, false, shared);
                        prop_assert_eq!(st.restore(&store, i as u64), Ok(i));
                    }
                }
                check(&st, &plain)?;
            }
            // Two passes with nothing in between: the second finds only what
            // the first had to leave (mirrors), and fires nothing.
            st.boundary_pass(&mut fire);
            plain.boundary_pass();
            let vote = st.boundary_pass(&mut fire);
            prop_assert_eq!((fire.clone(), vote), plain.boundary_pass());
            prop_assert!(fire.is_empty());
            check(&st, &plain)?;
        }
    }

    /// A layer that keeps what it is handed and answers every round with one
    /// entry-less frame from each peer.
    struct Recorder {
        rank: u16,
        hosts: usize,
        sent: Mutex<Vec<(usize, u16, Vec<u8>)>>,
        due: Mutex<Vec<u16>>,
    }

    impl Recorder {
        fn new(rank: u16, hosts: usize) -> Self {
            Recorder { rank, hosts, sent: Mutex::default(), due: Mutex::default() }
        }
    }

    impl CommLayer for Recorder {
        fn rank(&self) -> u16 {
            self.rank
        }
        fn num_hosts(&self) -> usize {
            self.hosts
        }
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn membook(&self) -> Arc<MemBook> {
            MemBook::new()
        }
        fn register_channel(&self, _channel: usize, _spec: ChannelSpec) {}
        fn begin(&self, _channel: usize) {
            let peers = (0..self.hosts as u16).filter(|&t| t != self.rank);
            *self.due.lock().unwrap() = peers.collect();
        }
        fn send(&self, channel: usize, dst: u16, data: Vec<u8>) {
            self.sent.lock().unwrap().push((channel, dst, data));
        }
        fn finish_sends(&self, _channel: usize) {}
        fn try_recv(&self, channel: usize) -> Option<(u16, Vec<u8>)> {
            let voted = if channel == channels::REDUCE { VOTE_BYTES } else { 0 };
            self.due.lock().unwrap().pop().map(|src| (src, vec![0; voted + 4]))
        }
    }

    /// The encoder this one replaced, kept as the reference: walk all of every
    /// peer's plan, asking `entry` for each local id in it.
    fn plan_walk_frames<L: Label>(
        channel: usize,
        me: u16,
        plans: &[Vec<Vid>],
        vote: Option<u64>,
        mut entry: impl FnMut(usize) -> Option<L>,
    ) -> Vec<(usize, u16, Vec<u8>)> {
        let peers = (0..plans.len() as u16).filter(|&t| t != me);
        peers
            .map(|t| {
                let mut buf = Vec::new();
                if let Some(vote) = vote {
                    put_vote(vote, &mut buf);
                }
                let count_at = buf.len();
                buf.extend_from_slice(&[0; 4]);
                let mut count = 0u32;
                for (pos, &lid) in plans[t as usize].iter().enumerate() {
                    if let Some(v) = entry(lid as usize) {
                        buf.extend_from_slice(&(pos as u32).to_le_bytes());
                        v.write(&mut buf);
                        count += 1;
                    }
                }
                buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
                (channel, t, buf)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The wire did not move: for random changed and fired sets on two to
        /// four hosts, the frames `ProxySync` hands the layer, reduce and
        /// broadcast, are byte for byte the plan walk's.
        #[test]
        fn frames_are_the_plan_walks_bytes(
            hosts in 2usize..5,
            h in any::<u16>(),
            vote in any::<u64>(),
            delivered in prop::collection::vec((any::<u16>(), 0u8..4), 0..300),
            fired in prop::collection::vec(any::<u16>(), 0..100),
        ) {
            let parts = partition(&gen::rmat(9, 4, 0xD127), hosts, Policy::VertexCutCartesian);
            let (part, app) = (&parts.parts[h as usize % hosts], PageRank::default());
            let (nl, nm) = (part.num_local(), part.num_masters as usize);
            let st = HostState::new(part, &app, true, false);
            for (lid, size) in delivered {
                st.deliver(lid as usize % nl, [1e-7f32, 1e-5, 1e-3, 0.5][size as usize]);
            }
            for u in fired {
                let u = u as usize % nm;
                st.emits.set(u, u as f32);
                st.fired[u].store(true, Ordering::Release);
            }
            let mut plain = Plain::of(&st);
            let (me, reduce, bcast) = (part.host, channels::REDUCE, channels::BROADCAST);
            let changed = |l| plain.take_changed(l);
            let mut want = plan_walk_frames(reduce, me, &part.mirror_send, Some(vote), changed);
            let emitted = |l: usize| {
                st.fired[l].load(Ordering::Acquire).then(|| st.emits.get::<f32>(l))
            };
            want.extend(plan_walk_frames(bcast, me, &part.master_recv, None, emitted));
            let (entries, bytes) = want.iter().fold((0, 0), |(e, b), (c, _, frame)| {
                let voted = if *c == reduce { VOTE_BYTES } else { 0 };
                (e + (frame.len() - voted - 4) as u64 / 8, b + frame.len() as u64)
            });

            let layer = Recorder::new(me, hosts);
            let sync = ProxySync { broadcast: true };
            let done = sync.exchange(&st, &layer, vote).expect("no failure");
            prop_assert_eq!(layer.sent.into_inner().unwrap(), want);
            let sent = (done.sent_entries, done.sent_bytes, done.active);
            prop_assert_eq!(sent, (entries, bytes, vote));
            check(&st, &plain)?;
        }
    }

    /// A reduce frame of three entries opened by vote 5, as `send_frames`
    /// lays it out.
    fn voted_frame() -> Vec<u8> {
        let mut frame = Vec::new();
        put_vote(5, &mut frame);
        frame.extend_from_slice(&3u32.to_le_bytes());
        for (pos, v) in [(0u32, 10u32), (2, 12), (7, 17)] {
            frame.extend_from_slice(&pos.to_le_bytes());
            v.write(&mut frame);
        }
        frame
    }

    #[test]
    fn frames_roundtrip_with_and_without_a_vote() {
        let frame = voted_frame();
        let mut got = Vec::new();
        assert_eq!(decode_frame::<u32>(&frame, true, |pos, v| got.push((pos, v))), 5);
        assert_eq!(got, [(0, 10), (2, 12), (7, 17)]);
        // The same entries behind no vote: a broadcast frame.
        let (mut got, bare) = (Vec::new(), &frame[VOTE_BYTES..]);
        assert_eq!(decode_frame::<u32>(bare, false, |pos, v| got.push((pos, v))), 0);
        assert_eq!(got, [(0, 10), (2, 12), (7, 17)]);
    }

    /// Every strict prefix of a vote-carrying frame — cut inside the vote,
    /// the count or the entries — is dropped whole: it delivers nothing and
    /// votes 0, each counted once. (Its peer still completes the round: a
    /// frame is one message, and `recv_frames` answers `true` to every one.)
    #[test]
    fn truncated_vote_carrying_frames_vote_zero() {
        let frame = voted_frame();
        let before = lci_trace::global().snapshot();
        for cut in 0..frame.len() {
            let vote = decode_frame::<u32>(&frame[..cut], true, |pos, _| {
                panic!("cut {cut} delivered position {pos}")
            });
            assert_eq!(vote, 0, "cut {cut}");
        }
        let dropped = lci_trace::global().snapshot().delta(&before);
        assert!(dropped.get(Counter::EngineMalformedDropped) >= frame.len() as u64);
    }
}
