//! The Gemini engine: the shared BSP round skeleton
//! ([`abelian::engine::run_rounds`]) with a dual-mode exchange.
//!
//! Compared with the Abelian engine, Gemini (i) supports only the blocked
//! edge-cut (mirrors never have out-edges, so no broadcast phase exists) and
//! (ii) picks, per peer per round, between a **sparse** frame
//! (`[0u8][count][(idx,val)…]`) and a **dense** frame (`[1u8][val…]` — one
//! value for *every* plan entry, no indices). Dense mode trades metadata for
//! volume exactly as Gemini's dense/sparse `signal/slot` machinery does.
//! Every chunk opens with the host's termination vote (the skeleton's
//! [`put_vote`]), so the one exchange a round has is also its all-reduce.

use abelian::apps::App;
use abelian::checkpoint::{CheckpointStore, CkptPlan};
use abelian::comm::{channels, recv_round, CommLayer};
use abelian::engine::{
    put_vote, run_rounds, take_vote, Exchange, Exchanged, HostState, VOTE_BYTES,
};
use abelian::label::Label;
use abelian::recovery::{RecoveryConfig, RecoveryWorld};
use abelian::RunResult;
use lci_graph::{Partitioning, Policy, Vid};
use lci_trace::{Counter, Span};
use std::sync::Arc;

/// Gemini engine knobs.
#[derive(Debug, Clone)]
pub struct GeminiConfig {
    /// Use a dense frame for a peer when the changed fraction of its plan
    /// exceeds this threshold (Gemini's |active|/20-style heuristic).
    pub dense_threshold: f64,
    /// Split each peer's round traffic into chunks of roughly this many
    /// bytes. Gemini's runtime streams many per-thread message batches per
    /// round rather than one aggregate — the very behaviour that makes its
    /// MPI path pay per-message probe/matching/`THREAD_MULTIPLE` costs
    /// (paper §IV-B1). `usize::MAX` disables chunking. Every layer takes
    /// chunks, the MPI-RMA layer too: it stages a round's chunks to a peer
    /// as sub-frames of its one slot.
    pub chunk_bytes: usize,
}

impl Default for GeminiConfig {
    fn default() -> Self {
        GeminiConfig {
            dense_threshold: 0.25,
            chunk_bytes: 4 << 10,
        }
    }
}

/// Run a vertex program Gemini-style. `parts` must be an edge-cut
/// partitioning (mirrors must not own out-edges).
///
/// Panics if any host's communication layer fails fatally (e.g. a peer is
/// declared unreachable); use [`run_gemini_checked`] to receive the failure
/// as an error instead.
pub fn run_gemini<A: App>(
    parts: &Partitioning,
    app: Arc<A>,
    layers: &[Arc<dyn CommLayer>],
    cfg: &GeminiConfig,
) -> RunResult<A::Acc> {
    run_gemini_checked(parts, app, layers, cfg).unwrap_or_else(|e| panic!("engine aborted: {e}"))
}

/// Like [`run_gemini`], but a fatal communication-layer failure surfaces as
/// `Err` with the first failing host's message instead of panicking; see
/// [`run_rounds`] for why the abort is bounded.
pub fn run_gemini_checked<A: App>(
    parts: &Partitioning,
    app: Arc<A>,
    layers: &[Arc<dyn CommLayer>],
    cfg: &GeminiConfig,
) -> Result<RunResult<A::Acc>, String> {
    run_gemini_with_ckpt(parts, app, layers, cfg, None)
}

/// Like [`run_gemini_checked`], with optional coordinated checkpointing
/// (see [`run_rounds`]). The crash-recovery driver
/// [`run_gemini_recoverable`] loops over this primitive.
pub fn run_gemini_with_ckpt<A: App>(
    parts: &Partitioning,
    app: Arc<A>,
    layers: &[Arc<dyn CommLayer>],
    cfg: &GeminiConfig,
    ckpt: Option<&CkptPlan>,
) -> Result<RunResult<A::Acc>, String> {
    assert_eq!(
        parts.policy,
        Policy::EdgeCutBlocked,
        "Gemini supports only the blocked edge-cut (paper §II)"
    );
    run_rounds(parts, &*app, layers, cfg, ckpt)
}

/// Run a Gemini app with crash recovery (see
/// [`RecoveryWorld::run_recoverable`]).
pub fn run_gemini_recoverable<A: App>(
    parts: &Partitioning,
    app: Arc<A>,
    rw: &mut RecoveryWorld,
    cfg: &GeminiConfig,
    rec: &RecoveryConfig,
    store: &Arc<CheckpointStore>,
) -> Result<RunResult<A::Acc>, String> {
    rw.run_recoverable(rec, store, |layers, plan| {
        run_gemini_with_ckpt(parts, Arc::clone(&app), layers, cfg, Some(plan))
    })
}

/// The dual-mode sync (reduce only): each peer's traffic goes out as a
/// stream of self-contained dense or sparse chunks — Gemini's
/// stream-of-batches behaviour (it is what makes its MPI path pay
/// per-message costs) — and a peer is complete once its announced chunk
/// count has arrived.
impl Exchange for GeminiConfig {
    fn channels(&self) -> &'static [usize] {
        &[channels::REDUCE]
    }

    fn max_message<L: Label>(
        &self,
        parts: &Partitioning,
        _channel: usize,
        origin: usize,
        target: usize,
    ) -> usize {
        // An all-changed sparse stream bounds it: an entry is a value plus
        // its 4-byte position (a dense slot is the value alone, and fits
        // more per chunk), and every chunk adds its header and the RMA
        // layer's 4-byte sub-frame length. Only the RMA layer sizes from
        // this.
        let entry = 4 + L::WIRE_BYTES;
        let plan = parts.parts[origin].mirror_send[target].len();
        let per_chunk = (self.chunk_bytes.saturating_sub(CHUNK_HEADER) / entry).max(1);
        let nchunks = plan.div_ceil(per_chunk).max(1);
        plan * entry + nchunks * (CHUNK_HEADER + 4)
    }

    fn exchange<A: App>(
        &self,
        host: &HostState<'_, A>,
        layer: &dyn CommLayer,
        vote: u64,
    ) -> Result<Exchanged, String> {
        let _span = Span::enter_in(layer.counters(), Counter::PhaseReduceNs);
        let (p, me) = (layer.num_hosts(), layer.rank());
        let identity = host.app.identity();
        let mut sent_entries = 0u64;
        let mut sent_bytes = 0u64;
        let changed = host.take_changed_mirrors();
        layer.begin(channels::REDUCE);
        for t in (0..p as u16).filter(|&t| t != me) {
            let plan = host.part.mirror_send[t as usize].len();
            let entries = &changed[t as usize];
            let dense = plan > 0 && (entries.len() as f64) >= self.dense_threshold * plan as f64;
            let chunks = if dense {
                // Dense: one value per plan slot, identity where unchanged,
                // split into [start, values...] segments.
                let mut values = vec![identity; plan];
                for &(pos, v) in entries {
                    values[pos as usize] = v;
                }
                sent_entries += plan as u64;
                encode_dense_chunks(vote, &values, self.chunk_bytes)
            } else {
                sent_entries += entries.len() as u64;
                encode_sparse_chunks(vote, entries, self.chunk_bytes)
            };
            for chunk in chunks {
                sent_bytes += chunk.len() as u64;
                layer.send(channels::REDUCE, t, chunk);
            }
        }
        layer.finish_sends(channels::REDUCE);

        let mut chunks_got = vec![0u16; p];
        let mut active = vote;
        let deliver = |lid: usize, v: A::Acc| host.deliver(lid, v);
        let table = layer.counters();
        recv_round(layer, channels::REDUCE, |src, data| {
            let plan = &host.part.master_recv[src as usize];
            // A chunk that fails validation is dropped whole without
            // touching the per-peer progress tracking (the framed
            // transports below guarantee the genuine chunk still arrives,
            // so the barrier cannot wedge).
            let Some((total, peer_vote)) = decode_chunk::<A::Acc>(data, plan, identity, &deliver)
            else {
                table.incr(Counter::EngineMalformedDropped);
                return false;
            };
            chunks_got[src as usize] += 1;
            // Every chunk of a peer carries the same vote; its last counts.
            let done = chunks_got[src as usize] == total;
            if done {
                active += peer_vote;
            }
            done
        })?;
        Ok(Exchanged { sent_entries, sent_bytes, active })
    }
}

/// Chunk wire format: `[vote u64][kind u8][nchunks u16]`, then:
/// * kind 0 (sparse): `[count u32][(pos u32, value)…]`
/// * kind 1 (dense segment): `[start u32][value…]`
///
/// The vote rides every chunk rather than one marked chunk: chunks arrive in
/// any order and a mangled one is dropped, so any one of them must do.
const KIND_SPARSE: u8 = 0;
const KIND_DENSE: u8 = 1;

/// Bytes of a chunk that are not values or positions: the vote, the kind,
/// the chunk total and the count/start word.
const CHUNK_HEADER: usize = VOTE_BYTES + 7;

fn chunk_header(out: &mut Vec<u8>, vote: u64, kind: u8, nchunks: usize) {
    put_vote(vote, out);
    out.push(kind);
    out.extend_from_slice(&(nchunks as u16).to_le_bytes());
}

/// Split sparse entries into self-contained chunks of ≤ `chunk_bytes`.
/// Always emits at least one (possibly empty) chunk.
fn encode_sparse_chunks<L: Label>(
    vote: u64,
    entries: &[(u32, L)],
    chunk_bytes: usize,
) -> Vec<Vec<u8>> {
    let entry = 4 + L::WIRE_BYTES;
    let cap = (chunk_bytes.saturating_sub(CHUNK_HEADER) / entry).max(1);
    let nchunks = entries.len().div_ceil(cap).max(1);
    assert!(nchunks <= u16::MAX as usize, "too many chunks for header");
    let mut out = Vec::with_capacity(nchunks);
    if entries.is_empty() {
        let mut buf = Vec::with_capacity(CHUNK_HEADER);
        chunk_header(&mut buf, vote, KIND_SPARSE, 1);
        buf.extend_from_slice(&0u32.to_le_bytes());
        out.push(buf);
        return out;
    }
    for group in entries.chunks(cap) {
        let mut buf = Vec::with_capacity(CHUNK_HEADER + group.len() * entry);
        chunk_header(&mut buf, vote, KIND_SPARSE, nchunks);
        buf.extend_from_slice(&(group.len() as u32).to_le_bytes());
        for &(pos, v) in group {
            buf.extend_from_slice(&pos.to_le_bytes());
            v.write(&mut buf);
        }
        out.push(buf);
    }
    out
}

/// Split a dense value array into `[start, values…]` segments.
fn encode_dense_chunks<L: Label>(vote: u64, values: &[L], chunk_bytes: usize) -> Vec<Vec<u8>> {
    let cap = (chunk_bytes.saturating_sub(CHUNK_HEADER) / L::WIRE_BYTES).max(1);
    let nchunks = values.len().div_ceil(cap).max(1);
    assert!(nchunks <= u16::MAX as usize, "too many chunks for header");
    let mut out = Vec::with_capacity(nchunks);
    if values.is_empty() {
        let mut buf = Vec::with_capacity(CHUNK_HEADER);
        chunk_header(&mut buf, vote, KIND_DENSE, 1);
        buf.extend_from_slice(&0u32.to_le_bytes());
        out.push(buf);
        return out;
    }
    for (i, group) in values.chunks(cap).enumerate() {
        let mut buf = Vec::with_capacity(CHUNK_HEADER + group.len() * L::WIRE_BYTES);
        chunk_header(&mut buf, vote, KIND_DENSE, nchunks);
        buf.extend_from_slice(&((i * cap) as u32).to_le_bytes());
        for v in group {
            v.write(&mut buf);
        }
        out.push(buf);
    }
    out
}

/// Decode one chunk, delivering its non-identity entries; returns the
/// sender's announced chunk total for this peer/round and its vote, or
/// `None` when the chunk fails validation (too short for the vote or the
/// header, zero chunk total, lying counts, plan positions out of range,
/// unknown kind). Total and panic-free on arbitrary bytes: mangled chunks
/// are dropped, never indexed out of bounds.
fn decode_chunk<L: Label>(
    data: &[u8],
    plan: &[Vid],
    identity: L,
    deliver: &impl Fn(usize, L),
) -> Option<(u16, u64)> {
    let (vote, data) = take_vote(data)?;
    if data.len() < 7 {
        return None;
    }
    let kind = data[0];
    let nchunks = u16::from_le_bytes(data[1..3].try_into().expect("len checked"));
    if nchunks == 0 {
        // A zero chunk total would wedge the receive barrier's progress
        // tracking; genuine encoders always announce at least one.
        return None;
    }
    match kind {
        KIND_DENSE => {
            let start =
                u32::from_le_bytes(data[3..7].try_into().expect("len checked")) as usize;
            let body = &data[7..];
            let n = body.len() / L::WIRE_BYTES;
            if !body.len().is_multiple_of(L::WIRE_BYTES)
                || start.checked_add(n).is_none_or(|end| end > plan.len())
            {
                return None;
            }
            for (i, chunk) in body.chunks_exact(L::WIRE_BYTES).enumerate() {
                let v = L::read(chunk);
                if v != identity {
                    deliver(plan[start + i] as usize, v);
                }
            }
        }
        KIND_SPARSE => {
            let count =
                u32::from_le_bytes(data[3..7].try_into().expect("len checked")) as usize;
            let entry = 4 + L::WIRE_BYTES;
            match count.checked_mul(entry).and_then(|n| n.checked_add(7)) {
                Some(n) if n <= data.len() => {}
                _ => return None,
            }
            for i in 0..count {
                let off = 7 + i * entry;
                let pos =
                    u32::from_le_bytes(data[off..off + 4].try_into().expect("entry")) as usize;
                let v = L::read(&data[off + 4..]);
                deliver(*plan.get(pos)? as usize, v);
            }
        }
        _ => return None,
    }
    Some((nchunks, vote))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abelian::apps::Bfs;
    use abelian::{ChannelSpec, MemBook};
    use lci_graph::{gen, partition, DistGraph};
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// A layer that keeps what it is handed and answers every round with one
    /// entry-less chunk from each peer.
    struct Recorder {
        rank: u16,
        hosts: usize,
        sent: Mutex<Vec<(u16, Vec<u8>)>>,
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
        fn send(&self, _channel: usize, dst: u16, data: Vec<u8>) {
            self.sent.lock().unwrap().push((dst, data));
        }
        fn finish_sends(&self, _channel: usize) {}
        fn drain(&self, _channel: usize, on_msg: &mut dyn FnMut(u16, &[u8])) -> usize {
            let empty = encode_sparse_chunks::<u32>(0, &[], usize::MAX).remove(0);
            let due = std::mem::take(&mut *self.due.lock().unwrap());
            for &src in due.iter().rev() {
                on_msg(src, &empty);
            }
            due.len()
        }
    }

    /// The encoder this one replaced, kept as the reference: per peer, count
    /// the changed entries of its plan, then walk the plan again taking them.
    fn plan_walk_chunks(
        cfg: &GeminiConfig,
        part: &DistGraph,
        vote: u64,
        changed: &mut HashMap<Vid, u32>,
    ) -> Vec<(u16, Vec<u8>)> {
        let mut sent = Vec::new();
        for t in (0..part.num_hosts as u16).filter(|&t| t != part.host) {
            let plan = &part.mirror_send[t as usize];
            let n_changed = plan.iter().filter(|&l| changed.contains_key(l)).count();
            let dense =
                !plan.is_empty() && (n_changed as f64) >= cfg.dense_threshold * plan.len() as f64;
            let chunks = if dense {
                let values: Vec<u32> =
                    plan.iter().map(|lid| changed.remove(lid).unwrap_or(u32::MAX)).collect();
                encode_dense_chunks(vote, &values, cfg.chunk_bytes)
            } else {
                let mut entries: Vec<(u32, u32)> = Vec::with_capacity(n_changed);
                for (pos, lid) in plan.iter().enumerate() {
                    if let Some(v) = changed.remove(lid) {
                        entries.push((pos as u32, v));
                    }
                }
                encode_sparse_chunks(vote, &entries, cfg.chunk_bytes)
            };
            sent.extend(chunks.into_iter().map(|c| (t, c)));
        }
        sent
    }

    /// The wire did not move: for seeded random changed sets on two to four
    /// hosts — none changed, one short of `dense_threshold`, exactly on it,
    /// all of a plan — the chunks handed to the layer are byte for byte the
    /// plan walk's, with chunks small enough that both kinds split.
    #[test]
    fn chunks_are_the_plan_walks_bytes() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let (mut kinds, mut split) = ([0usize; 2], 0);
        let g = gen::rmat(9, 4, 0xD127);
        let app = Bfs { source: 0 };
        for (hosts, chunk_bytes) in [(2, 64), (3, 64), (4, 64), (3, 4 << 10)] {
            let cfg = GeminiConfig { dense_threshold: 0.25, chunk_bytes };
            let parts = partition(&g, hosts, Policy::EdgeCutBlocked);
            for (part, case) in parts.parts.iter().flat_map(|p| (0..4).map(move |c| (p, c))) {
                let host = HostState::new(part, &app, false);
                let mut changed = HashMap::new();
                for plan in &part.mirror_send {
                    let on = (cfg.dense_threshold * plan.len() as f64).ceil() as usize;
                    let k = [0, on.saturating_sub(1), on, plan.len()][case];
                    let mut pick = plan.clone();
                    for i in 0..k {
                        let j = i + random() % (pick.len() - i);
                        pick.swap(i, j);
                        let level = 1 + (random() % 1000) as u32;
                        host.deliver(pick[i] as usize, level);
                        changed.insert(pick[i], level);
                    }
                }
                let vote = random() as u64;
                let want = plan_walk_chunks(&cfg, part, vote, &mut changed);
                let layer = Recorder::new(part.host, hosts);
                let done = cfg.exchange(&host, &layer, vote).expect("no failure");
                assert_eq!(layer.sent.into_inner().unwrap(), want, "{hosts} hosts, case {case}");
                let bytes: usize = want.iter().map(|(_, c)| c.len()).sum();
                assert_eq!((done.sent_bytes, done.active), (bytes as u64, vote));
                for (_, chunk) in &want {
                    // `[vote][kind u8][nchunks u16]…`
                    let header = &chunk[VOTE_BYTES..];
                    kinds[header[0] as usize] += 1;
                    split += (u16::from_le_bytes([header[1], header[2]]) > 1) as usize;
                }
                // Everything changed was taken: a second exchange sends nothing.
                let again = Recorder::new(part.host, hosts);
                cfg.exchange(&host, &again, 0).expect("no failure");
                let sent = again.sent.into_inner().unwrap();
                assert!(sent.iter().all(|(_, c)| c.len() == CHUNK_HEADER), "{hosts} hosts");
            }
        }
        assert!(kinds[0] > 0 && kinds[1] > 0 && split > 0, "{kinds:?}, {split} split");
    }

    #[test]
    fn sparse_chunking_roundtrip() {
        let entries: Vec<(u32, u32)> = (0..100).map(|i| (i, i * 7)).collect();
        let chunks = encode_sparse_chunks(9, &entries, 64);
        assert!(chunks.len() > 1);
        let plan: Vec<Vid> = (0..100).collect();
        let got = std::sync::Mutex::new(vec![0u32; 100]);
        for c in &chunks {
            assert!(c.len() <= 64, "a chunk stays within chunk_bytes, vote included");
            let (total, vote) = decode_chunk::<u32>(c, &plan, u32::MAX, &|lid, v| {
                got.lock().unwrap()[lid] = v;
            })
            .expect("valid chunk");
            assert_eq!((total as usize, vote), (chunks.len(), 9));
        }
        let got = got.into_inner().unwrap();
        for i in 0..100u32 {
            assert_eq!(got[i as usize], i * 7);
        }
    }

    #[test]
    fn dense_chunking_roundtrip() {
        let values: Vec<u32> = (0..50).map(|i| i + 1).collect();
        let chunks = encode_dense_chunks(0, &values, 32);
        assert!(chunks.len() > 1);
        let plan: Vec<Vid> = (0..50).collect();
        let got = std::sync::Mutex::new(vec![0u32; 50]);
        for c in &chunks {
            decode_chunk::<u32>(c, &plan, 0, &|lid, v| {
                got.lock().unwrap()[lid] = v;
            })
            .expect("valid chunk");
        }
        let got = got.into_inner().unwrap();
        for i in 0..50u32 {
            assert_eq!(got[i as usize], i + 1);
        }
    }

    #[test]
    fn empty_payloads_still_announce_one_chunk() {
        let chunks = encode_sparse_chunks::<u32>(3, &[], 1024);
        assert_eq!(chunks.len(), 1);
        let plan: Vec<Vid> = vec![];
        let total = decode_chunk::<u32>(&chunks[0], &plan, u32::MAX, &|_, _| {
            panic!("no entries expected")
        })
        .expect("valid chunk");
        assert_eq!(total, (1, 3), "an empty chunk still announces itself and votes");
        let chunks = encode_dense_chunks::<u32>(3, &[], 1024);
        assert_eq!(chunks.len(), 1);
    }

    #[test]
    fn identity_values_skipped_in_dense() {
        let values = vec![5u32, u32::MAX, 9];
        let chunks = encode_dense_chunks(0, &values, 1 << 20);
        let plan: Vec<Vid> = vec![0, 1, 2];
        let seen = std::sync::Mutex::new(Vec::new());
        decode_chunk::<u32>(&chunks[0], &plan, u32::MAX, &|lid, v| {
            seen.lock().unwrap().push((lid, v));
        })
        .expect("valid chunk");
        assert_eq!(seen.into_inner().unwrap(), vec![(0, 5), (2, 9)]);
    }

    #[test]
    fn malformed_chunks_are_rejected_not_panicked() {
        let plan: Vec<Vid> = (0..4).collect();
        let no_deliver = |_: usize, _: u32| panic!("malformed chunk must not deliver");

        // A well-formed vote ahead of every body below.
        let voted = |body: &[u8]| [&7u64.to_le_bytes()[..], body].concat();
        // Too short for the vote, then for the header behind it.
        for cut in 0..CHUNK_HEADER {
            let data = vec![0u8; cut];
            assert_eq!(decode_chunk::<u32>(&data, &plan, 0, &no_deliver), None);
        }
        // Zero announced chunk total (would wedge the barrier).
        let mut zero = vec![KIND_SPARSE, 0, 0];
        zero.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_chunk::<u32>(&voted(&zero), &plan, 0, &no_deliver), None);
        // Sparse count claiming more entries than the bytes carry.
        let mut lying = vec![KIND_SPARSE, 1, 0];
        lying.extend_from_slice(&1000u32.to_le_bytes());
        assert_eq!(decode_chunk::<u32>(&voted(&lying), &plan, 0, &no_deliver), None);
        // Sparse position outside the plan.
        let mut oob = vec![KIND_SPARSE, 1, 0];
        oob.extend_from_slice(&1u32.to_le_bytes());
        oob.extend_from_slice(&99u32.to_le_bytes());
        oob.extend_from_slice(&7u32.to_le_bytes());
        assert_eq!(decode_chunk::<u32>(&voted(&oob), &plan, 0, &no_deliver), None);
        // Dense segment overrunning the plan.
        let mut dense = vec![KIND_DENSE, 1, 0];
        dense.extend_from_slice(&3u32.to_le_bytes());
        dense.extend_from_slice(&5u32.to_le_bytes());
        dense.extend_from_slice(&6u32.to_le_bytes());
        assert_eq!(decode_chunk::<u32>(&voted(&dense), &plan, 0, &no_deliver), None);
        // Unknown kind byte.
        let mut unk = vec![7u8, 1, 0];
        unk.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_chunk::<u32>(&voted(&unk), &plan, 0, &no_deliver), None);
    }

    /// Every strict prefix of a vote-carrying chunk, sparse or dense, is
    /// rejected whole — no vote, no chunk total, nothing that could complete
    /// a peer early or end a run on a number nobody sent — except a dense
    /// cut on a value boundary, which is a shorter valid segment with the
    /// true vote (and cannot occur behind the layers' length framing).
    #[test]
    fn truncated_vote_carrying_chunks_are_rejected() {
        let plan: Vec<Vid> = (0..6).collect();
        let quiet = |_: usize, _: u32| {};
        let entries: Vec<(u32, u32)> = (0..6).map(|i| (i, i + 10)).collect();
        let sparse = encode_sparse_chunks(41, &entries, 1 << 20).remove(0);
        assert_eq!(decode_chunk::<u32>(&sparse, &plan, 0, &quiet), Some((1, 41)));
        for cut in 0..sparse.len() {
            assert_eq!(decode_chunk::<u32>(&sparse[..cut], &plan, 0, &quiet), None, "cut {cut}");
        }
        let values: Vec<u32> = (1..=6).collect();
        let dense = encode_dense_chunks(41, &values, 1 << 20).remove(0);
        assert_eq!(decode_chunk::<u32>(&dense, &plan, 0, &quiet), Some((1, 41)));
        for cut in 0..dense.len() {
            let got = decode_chunk::<u32>(&dense[..cut], &plan, 0, &quiet);
            let whole_values = cut >= CHUNK_HEADER && (cut - CHUNK_HEADER).is_multiple_of(4);
            assert_eq!(got, whole_values.then_some((1, 41)), "cut {cut}");
        }
    }
}
