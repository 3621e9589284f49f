//! The BSP gather-communicate-scatter engine (the paper's Fig. 2 runtime).
//!
//! One round skeleton serves every engine built on this runtime. Each
//! simulated host runs [`host_main`] on its own OS thread: rounds of
//! **fire** (apply operators to active masters, pushing contributions along
//! local out-edges), a data **exchange** supplied by an [`Exchange`]
//! strategy, and a **control** all-reduce that sums the global active count
//! for termination — with state init, checkpoint restore/save, abort
//! detection, metrics and retirement owned by the skeleton. What differs
//! between engines is only the exchange:
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
use crate::label::{Label, LabelVec};
use crate::metrics::{HostMetrics, RoundMetrics};
use lci_graph::{DistGraph, Partitioning, Policy, Vid};
use lci_trace::{record, Counter, EventKind, Span};
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
    /// [`HostState::deliver`] inside [`recv_round`]. Returns
    /// `(sent_entries, sent_bytes)`, or the layer failure that aborted it.
    fn exchange<A: App>(
        &self,
        host: &HostState<'_, A>,
        layer: &dyn CommLayer,
    ) -> Result<(u64, u64), String>;
}

/// One host's vertex state, shared between the round skeleton (which owns
/// its lifecycle) and the [`Exchange`] strategy (which reads and folds
/// labels through the methods below).
pub struct HostState<'a, A: App> {
    /// This host's partition.
    pub part: &'a DistGraph,
    /// The vertex program.
    pub app: &'a A,
    labels: LabelVec,
    changed: Vec<AtomicBool>,
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
    /// it into the master at the first reduce).
    fn new(part: &'a DistGraph, app: &'a A, track_fired: bool) -> Self {
        let nl = part.num_local();
        let nm = part.num_masters as usize;
        let identity = app.identity();
        let labels = LabelVec::new(nl, identity);
        for l in 0..nm {
            labels.set(l, app.init(part.l2g[l]));
        }
        let changed = (0..nl)
            .map(|l| AtomicBool::new(l < nm && app.active_initially(part.l2g[l])))
            .collect();
        let nf = if track_fired { nm } else { 0 };
        HostState {
            part,
            app,
            labels,
            changed,
            consumed: app.output_consumed().then(|| LabelVec::new(nm, identity)),
            track_fired,
            fired: (0..nf).map(|_| AtomicBool::new(false)).collect(),
            emits: LabelVec::new(nf, identity),
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
        if chg.len() != self.changed.len() {
            return Err(format!("host {me}: checkpoint changed section size mismatch"));
        }
        for (flag, &b) in self.changed.iter().zip(chg.iter()) {
            flag.store(b != 0, Ordering::Relaxed);
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
                self.changed.iter().map(|f| f.load(Ordering::Acquire) as u8).collect(),
            ],
        }
    }

    /// Fold contribution `v` into local vertex `lid`, marking it changed if
    /// its value moved.
    pub fn deliver(&self, lid: usize, v: A::Acc) {
        if self.labels.reduce_with(lid, v, |a, b| self.app.reduce(a, b)) {
            self.changed[lid].store(true, Ordering::Release);
        }
    }

    /// Whether local vertex `lid` changed since it was last taken.
    pub fn is_changed(&self, lid: usize) -> bool {
        self.changed[lid].load(Ordering::Acquire)
    }

    /// Clear `lid`'s changed mark, returning whether it was set. Tested
    /// before it is swapped: in a sparse round almost every flag is clear,
    /// and a plain load costs a fraction of a locked exchange. Only the host
    /// thread clears flags, so one it saw set is still set at the swap.
    fn clear_changed(&self, lid: usize) -> bool {
        self.changed[lid].load(Ordering::Relaxed) && self.changed[lid].swap(false, Ordering::AcqRel)
    }

    /// Take mirror `lid`'s pending update for shipping to its master: `None`
    /// if it did not change, else its value (reset to the identity when the
    /// app consumes) with the changed mark cleared.
    pub fn take_changed(&self, lid: usize) -> Option<A::Acc> {
        self.clear_changed(lid).then(|| {
            if self.app.consuming() {
                self.labels.swap(lid, self.app.identity())
            } else {
                self.labels.get(lid)
            }
        })
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

    /// Local vertices that are changed and would fire.
    fn active_count(&self) -> u64 {
        (0..self.changed.len())
            .filter(|&l| {
                self.is_changed(l)
                    && self
                        .app
                        .emit(self.labels.get(l), self.part.out_degree_global[l])
                        .is_some()
            })
            .count() as u64
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
/// [`CheckpointStore`] every `every` rounds (at the round boundary, after the
/// control barrier — so the saved rounds form globally consistent cuts), and
/// restore the plan's `resume_from` round before its first round. A fatal communication-layer failure surfaces as `Err` with
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

/// Sum `local` over all hosts on the control channel. A peer whose frame is
/// short still counts toward the barrier (else it would hang); its
/// unreadable value is dropped.
fn all_reduce_sum(layer: &dyn CommLayer, local: u64) -> Result<u64, String> {
    let me = layer.rank();
    layer.begin(channels::CONTROL);
    for t in (0..layer.num_hosts() as u16).filter(|&t| t != me) {
        layer.send(channels::CONTROL, t, local.to_le_bytes().to_vec());
    }
    layer.finish_sends(channels::CONTROL);
    let mut total = local;
    recv_round(layer, channels::CONTROL, |_, data| {
        match data.get(..8) {
            Some(v) => total += u64::from_le_bytes(v.try_into().expect("len checked")),
            None => lci_trace::incr(Counter::EngineMalformedDropped),
        }
        true
    })?;
    Ok(total)
}

/// One host's run: init → restore → [fire → exchange → control → save]* →
/// quiesce → results.
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
    let nm = part.num_masters;
    let broadcasts = exchange.broadcasts();
    let st = HostState::new(part, app, broadcasts);
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
    layer.register_channel(channels::CONTROL, ChannelSpec::uniform(p, me, 16));

    let max_rounds = app.max_rounds().unwrap_or(usize::MAX).min(ROUND_CAP);
    let mut metrics = HostMetrics::default();

    loop {
        let round_start = Instant::now();
        record(EventKind::RoundBegin, me as u32, round as u64);
        let abort = |f: String| format!("host {me} aborted in round {round}: {f}");

        // ---- fire phase (computation) -----------------------------------
        let fire_span = Span::enter(Counter::PhaseComputeNs);
        let fire_list: Vec<u32> = (0..nm).filter(|&l| st.clear_changed(l as usize)).collect();
        if compute_threads > 1 && fire_list.len() > 64 {
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

        // ---- communication: the strategy's exchange, then control ---------
        let comm_span = Span::enter(Counter::PhaseCommNs);
        let (sent_entries, sent_bytes) = exchange.exchange(&st, layer).map_err(abort)?;
        if st.track_fired {
            for &u in &fire_list {
                st.fired[u as usize].store(false, Ordering::Relaxed);
            }
        }
        let control_span = Span::enter(Counter::PhaseControlNs);
        let total = all_reduce_sum(layer, st.active_count()).map_err(abort)?;
        control_span.finish();
        comm_span.finish();

        let wall = round_start.elapsed();
        lci_trace::incr(Counter::EngineRounds);
        lci_trace::add(Counter::EngineSentEntries, sent_entries);
        lci_trace::add(Counter::EngineSentBytes, sent_bytes);
        record(EventKind::RoundEnd, me as u32, round as u64);
        metrics.rounds.push(RoundMetrics {
            compute,
            comm: wall.saturating_sub(compute),
            sent_entries,
            sent_bytes,
        });
        round += 1;
        if total == 0 || round >= max_rounds {
            break;
        }

        // ---- coordinated checkpoint save ---------------------------------
        // The control barrier above already synchronized every host at this
        // round boundary, so saving here (same `round`, same `every` on all
        // hosts) yields a globally consistent cut without extra messages.
        // A finished run never saves: there is nothing left to recover to.
        if let Some(plan) = ckpt {
            if plan.every > 0 && (round as u64) % plan.every == 0 {
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
    /// `entry` yields over `plans[t]`; returns `(entries, bytes)` sent.
    fn send_frames<L: Label>(
        layer: &dyn CommLayer,
        channel: usize,
        plans: &[Vec<Vid>],
        entry: impl Fn(usize) -> Option<L>,
    ) -> (u64, u64) {
        let me = layer.rank();
        let (mut entries, mut bytes) = (0u64, 0u64);
        layer.begin(channel);
        for t in (0..layer.num_hosts() as u16).filter(|&t| t != me) {
            // Frame: `[count u32][(plan_index u32, value) * count]`.
            let mut buf = vec![0u8; 4];
            let mut count = 0u32;
            for (pos, &lid) in plans[t as usize].iter().enumerate() {
                if let Some(v) = entry(lid as usize) {
                    buf.extend_from_slice(&(pos as u32).to_le_bytes());
                    v.write(&mut buf);
                    count += 1;
                }
            }
            buf[..4].copy_from_slice(&count.to_le_bytes());
            entries += count as u64;
            bytes += buf.len() as u64;
            layer.send(channel, t, buf);
        }
        layer.finish_sends(channel);
        (entries, bytes)
    }

    /// Receive one frame from every peer, handing `apply` each entry's local
    /// vertex as resolved through `plans[src]`. A position outside the plan
    /// means a mangled frame slipped past framing; drop the entry, not the
    /// host.
    fn recv_frames<L: Label>(
        layer: &dyn CommLayer,
        channel: usize,
        plans: &[Vec<Vid>],
        apply: impl Fn(usize, L),
    ) -> Result<(), String> {
        recv_round(layer, channel, |src, data| {
            let plan = &plans[src as usize];
            decode_frame::<L>(&data, |pos, v| match plan.get(pos as usize) {
                Some(&lid) => apply(lid as usize, v),
                None => lci_trace::incr(Counter::EngineMalformedDropped),
            });
            true
        })
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
        // to |o.master_recv[t]| (+ slack for layer-level sub-frame headers).
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
    ) -> Result<(u64, u64), String> {
        let (mirrors, masters) = (&host.part.mirror_send, &host.part.master_recv);

        // ---- reduce phase: changed mirrors → masters ---------------------
        let reduce_span = Span::enter(Counter::PhaseReduceNs);
        let (mut entries, mut bytes) =
            Self::send_frames(layer, channels::REDUCE, mirrors, |l| host.take_changed(l));
        Self::recv_frames(layer, channels::REDUCE, masters, |l, v| host.deliver(l, v))?;
        reduce_span.finish();

        // ---- broadcast phase: firing masters' emissions → mirrors --------
        if self.broadcast {
            let bcast_span = Span::enter(Counter::PhaseBroadcastNs);
            let (e, b) = Self::send_frames(layer, channels::BROADCAST, masters, |l| {
                host.fired[l]
                    .load(Ordering::Acquire)
                    .then(|| host.emits.get::<A::Acc>(l))
            });
            entries += e;
            bytes += b;
            Self::recv_frames(layer, channels::BROADCAST, mirrors, |l, e: A::Acc| {
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
        Ok((entries, bytes))
    }
}

/// Decode a frame (`[count u32][(plan_index u32, value) * count]`, as
/// [`ProxySync::send_frames`] writes it), handing `f` each entry.
fn decode_frame<L: Label>(data: &[u8], mut f: impl FnMut(u32, L)) {
    if data.len() < 4 {
        lci_trace::incr(Counter::EngineMalformedDropped);
        return;
    }
    let count = u32::from_le_bytes(data[..4].try_into().expect("len checked")) as usize;
    let entry = 4 + L::WIRE_BYTES;
    // A frame whose count claims more entries than its bytes carry is
    // mangled; drop it whole rather than read out of bounds.
    match count.checked_mul(entry).and_then(|n| n.checked_add(4)) {
        Some(n) if n <= data.len() => {}
        _ => {
            lci_trace::incr(Counter::EngineMalformedDropped);
            return;
        }
    }
    for i in 0..count {
        let off = 4 + i * entry;
        let pos = u32::from_le_bytes(data[off..off + 4].try_into().expect("frame"));
        let v = L::read(&data[off + 4..]);
        f(pos, v);
    }
}

