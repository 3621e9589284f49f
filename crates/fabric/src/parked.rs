//! The rendezvous core both runtimes share: the request a rendezvous id
//! names, the table it is parked in, the RTR, the puts back-pressure defers
//! and the put completions.
//!
//! A rendezvous moves a large message in three steps. The sender parks its
//! request and announces it (an RTS, in the runtime's own format); the
//! receiver registers a landing region, parks its request and answers with
//! an RTR; the sender puts the payload into the region, with its own id as
//! the put's context and the receiver's as the immediate value. What a
//! runtime adds around these steps — LCI's first-packet queue and emulated
//! puts, mini-mpi's matching and ordering — is its own. The table and the
//! queue take no lock: each runtime keeps them under locks of its choosing
//! (a request's flag is atomic and what it holds has a lock of its own).

use crate::endpoint::EndpointShared;
use crate::reliable::ReliableSession;
use crate::{Endpoint, HostId, MemRegion, MrKey, SendError};
use lci_trace::Counter;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

const PENDING: u8 = 0;
const DONE: u8 = 1;
const ERROR: u8 = 2;

/// What a rendezvous request holds.
pub enum Held<P> {
    /// Nothing: taken, or never anything.
    Empty,
    /// A send's payload, until an RTR takes it for the put.
    Payload(P),
    /// A receive's registered landing region, until the put arrives.
    Landing(MemRegion),
    /// A receive's bytes: landed, or being assembled by a runtime that
    /// emulates the put.
    Landed(Vec<u8>),
}

/// A rendezvous request, shared between its handle and progress: a
/// pending/done/failed flag the handle re-reads, what the request holds,
/// and whatever its runtime keeps beside it.
pub struct Req<P, M = ()> {
    status: AtomicU8,
    held: Mutex<Held<P>>,
    /// The runtime's own per-request state (mini-mpi: the matched status).
    pub meta: M,
}

impl<P, M> Req<P, M> {
    /// A pending request holding `held`.
    pub fn new(held: Held<P>, meta: M) -> Arc<Self> {
        Arc::new(Req {
            status: AtomicU8::new(PENDING),
            held: Mutex::new(held),
            meta,
        })
    }

    /// Mark the request complete.
    pub fn mark_done(&self) {
        self.status.store(DONE, Ordering::Release);
    }

    /// Mark the request failed.
    pub fn mark_error(&self) {
        self.status.store(ERROR, Ordering::Release);
    }

    /// Is the request complete?
    pub fn is_done(&self) -> bool {
        self.status.load(Ordering::Acquire) == DONE
    }

    /// Did the request fail?
    pub fn is_error(&self) -> bool {
        self.status.load(Ordering::Acquire) == ERROR
    }

    /// What the request holds, locked.
    pub fn held(&self) -> MutexGuard<'_, Held<P>> {
        self.held.lock()
    }

    /// The received bytes, once, after the request is done.
    pub fn take_landed(&self) -> Option<Vec<u8>> {
        if !self.is_done() {
            return None;
        }
        self.take_as(|h| match h {
            Held::Landed(v) => Ok(v),
            other => Err(other),
        })
    }

    /// Take what the request holds if `pick` accepts it; leave it otherwise.
    fn take_as<T>(&self, pick: impl FnOnce(Held<P>) -> Result<T, Held<P>>) -> Option<T> {
        let mut held = self.held.lock();
        pick(std::mem::replace(&mut *held, Held::Empty))
            .map_err(|other| *held = other)
            .ok()
    }
}

/// An RTR body: the sender's request id, the landing region's key, the
/// receiver's request id.
pub fn encode_rtr(send_id: u64, mr_key: u64, recv_id: u64) -> [u8; 24] {
    let mut out = [0u8; 24];
    out[..8].copy_from_slice(&send_id.to_le_bytes());
    out[8..16].copy_from_slice(&mr_key.to_le_bytes());
    out[16..].copy_from_slice(&recv_id.to_le_bytes());
    out
}

/// Decode an RTR body as `(send_id, mr_key, recv_id)`; `None` on input
/// shorter than 24 bytes. Total, panic-free on arbitrary bytes.
pub fn decode_rtr(body: &[u8]) -> Option<(u64, u64, u64)> {
    let word = |i: usize| Some(u64::from_le_bytes(body.get(i..i + 8)?.try_into().ok()?));
    Some((word(0)?, word(8)?, word(16)?))
}

/// A rendezvous put an RTR asked for.
pub struct Put<P> {
    /// The receiver.
    pub dst: HostId,
    /// The receiver's landing region.
    pub key: MrKey,
    /// The send's payload.
    pub payload: P,
    /// The send request's id: the put's context.
    pub id: u64,
    /// The receive request's id: the put's immediate value.
    pub imm: u64,
}

/// The rendezvous table: every request a rendezvous id names, from the
/// packet that first carries the id to the put's last completion, under
/// ids the way verbs software passes work-request ids. Whatever comes back
/// naming one is looked up, never trusted.
///
/// Ids come from a counter on the endpoint that is never reset, so none
/// repeats on a host, across [`crate::Fabric::respawn`] and fresh tables
/// alike, and none is 0 or 1, the contexts the runtimes reserve. An id that
/// names nothing — never issued, already answered, or from an incarnation
/// [`Rendezvous::fail_all`] discarded — is dropped and counted: in
/// `fabric.epoch.stale_dropped` when it comes with an old epoch, and
/// otherwise in the malformed counter the runtime names.
pub struct Rendezvous<P, M = ()> {
    ids: Arc<EndpointShared>,
    parked: HashMap<u64, Arc<Req<P, M>>>,
    malformed: Counter,
}

impl<P, M> Rendezvous<P, M> {
    /// An empty table minting ids from `ep`'s counter and counting misses
    /// on the current epoch in `malformed`.
    pub fn new(ep: &Endpoint, malformed: Counter) -> Self {
        Rendezvous {
            ids: Arc::clone(&ep.shared),
            parked: HashMap::new(),
            malformed,
        }
    }

    /// Park `req` under a fresh id and return the id.
    pub fn park(&mut self, req: &Arc<Req<P, M>>) -> u64 {
        let id = self.ids.next_id.fetch_add(1, Ordering::Relaxed);
        self.parked.insert(id, Arc::clone(req));
        id
    }

    /// The request `id` names, if it is parked.
    pub fn get(&self, id: u64) -> Option<&Arc<Req<P, M>>> {
        self.parked.get(&id)
    }

    /// Answer an RTS for `send_id`: register a `size`-byte landing region
    /// for `req`, park `req`, and return its id and the RTR body.
    pub fn answer(
        &mut self,
        ep: &Endpoint,
        req: &Arc<Req<P, M>>,
        send_id: u64,
        size: usize,
    ) -> (u64, [u8; 24]) {
        let mr = ep.register_mr(size);
        let key = mr.key();
        *req.held() = Held::Landing(mr);
        let id = self.park(req);
        (id, encode_rtr(send_id, key.0, id))
    }

    /// Unpark `id` without completing it — the packet that was to carry
    /// it never left — deregistering a landing region it holds.
    pub fn unpark(&mut self, ep: &Endpoint, id: u64) {
        if let Some(req) = self.parked.remove(&id) {
            if let Held::Landing(mr) = &*req.held() {
                ep.deregister_mr(mr.key());
            }
        }
    }

    /// Unpark the request a completion of `epoch` names, counting a miss.
    fn claim(&mut self, ep: &Endpoint, id: u64, epoch: u32) -> Option<Arc<Req<P, M>>> {
        let req = self.parked.remove(&id);
        if req.is_none() && epoch == ep.fabric_epoch() {
            ep.counters().incr(self.malformed);
        } else if req.is_none() {
            ep.counters().incr(Counter::FabricEpochStaleDropped);
        }
        req
    }

    /// An RTR from `src`: the put it asks for. The send request it names
    /// stays parked until its put completes and gives up its payload once,
    /// so an RTR that is short, names nothing, or answers a send already
    /// answered finds no put and is counted malformed.
    pub fn on_rtr(&mut self, ep: &Endpoint, src: HostId, body: &[u8]) -> Option<Put<P>> {
        let put = decode_rtr(body).and_then(|(id, key, imm)| {
            let payload = self.parked.get(&id)?.take_as(|h| match h {
                Held::Payload(p) => Ok(p),
                other => Err(other),
            })?;
            Some(Put {
                dst: src,
                key: MrKey(key),
                payload,
                id,
                imm,
            })
        });
        if put.is_none() {
            ep.counters().incr(self.malformed);
        }
        put
    }

    /// `PutDone` for the put with context `ctx`: its send request is done.
    pub fn on_put_done(&mut self, ep: &Endpoint, ctx: u64, epoch: u32) {
        if let Some(req) = self.claim(ep, ctx, epoch) {
            req.mark_done();
        }
    }

    /// `PutArrived` with immediate value `imm`: the receive request it names
    /// deregisters its region and holds the landed bytes, done. An arrival
    /// injected under an old epoch but consumed before the runtime rejoined
    /// belongs to the dead incarnation: its request fails.
    pub fn on_put_arrived(&mut self, ep: &Endpoint, imm: u64, epoch: u32) {
        let Some(req) = self.claim(ep, imm, epoch) else {
            return;
        };
        if epoch != ep.fabric_epoch() {
            ep.counters().incr(Counter::FabricEpochStaleDropped);
            return req.mark_error();
        }
        let mut held = req.held.lock();
        if let Held::Landing(mr) = std::mem::replace(&mut *held, Held::Empty) {
            ep.deregister_mr(mr.key());
            *held = Held::Landed(mr.take());
        }
        drop(held);
        req.mark_done();
    }

    /// A put's `Event::Error`: the send request its context names fails.
    pub fn on_put_error(&mut self, ctx: u64) {
        self.finish(ctx, false);
    }

    /// Unpark the request `id` names and mark it done or failed.
    pub fn finish(&mut self, id: u64, done: bool) {
        match self.parked.remove(&id) {
            Some(req) if done => req.mark_done(),
            Some(req) => req.mark_error(),
            None => {}
        }
    }

    /// Unpark and fail every request (a rejoin): a rendezvous open in either
    /// direction fails instead of waiting on a peer that has forgotten it,
    /// and an id of the dead incarnation that comes back names nothing.
    pub fn fail_all(&mut self) {
        self.parked.drain().for_each(|(_, req)| req.mark_error());
    }
}

/// The puts RTRs asked for, in the order the RTRs arrived, until the
/// injection queue takes them. A runtime queues each RTR's put and retries
/// the queue once per progress call, after draining its completions.
/// Back-pressure is the sending endpoint's — its injection queue refuses
/// every put alike — so a retry goes in order and stops at the first
/// refusal: the puts behind it would be refused too, and order is kept.
#[derive(Default)]
pub struct PendingPuts<P>(VecDeque<Put<P>>);

impl<P: AsRef<[u8]>> PendingPuts<P> {
    /// Queue `put` behind the puts already waiting.
    pub fn push(&mut self, put: Put<P>) {
        self.0.push_back(put);
    }

    /// Inject waiting puts in order until the injection queue refuses one.
    /// A put refused for any other reason leaves the queue and fails its
    /// send request in `rdv`. Returns how many left the queue, or the last
    /// such fatal refusal.
    pub fn retry<M>(
        &mut self,
        ep: &Endpoint,
        rdv: &mut Rendezvous<P, M>,
    ) -> Result<usize, SendError> {
        let (mut left, mut fatal) = (0, Ok(()));
        while let Some(p) = self.0.front() {
            match ep.try_put(p.dst, p.key, 0, p.payload.as_ref(), p.id, Some(p.imm)) {
                Err(SendError::Backpressure) => break,
                Ok(()) => {}
                Err(e) => {
                    rdv.finish(p.id, false);
                    fatal = Err(e);
                }
            }
            self.0.pop_front();
            left += 1;
        }
        fatal.map(|()| left)
    }

    /// Is no put waiting?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Drop every waiting put (a rejoin).
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// No put waits and `rel` is quiescent: nothing this host owes the wire
    /// on a rendezvous's behalf, the condition under which a host may stop
    /// driving progress (a runtime adds any stream of its own).
    pub fn settled(&self, rel: &ReliableSession) -> bool {
        self.is_empty() && rel.quiescent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Fabric, FabricConfig};

    const MALFORMED: Counter = Counter::LciMalformedDropped;

    type Table = Rendezvous<Vec<u8>>;

    fn counted(ep: &Endpoint, c: Counter) -> u64 {
        ep.counters().get(c)
    }

    fn send_req(payload: &[u8]) -> Arc<Req<Vec<u8>>> {
        Req::new(Held::Payload(payload.to_vec()), ())
    }

    /// Everything `ep` has been handed, the wire drained first.
    fn events(f: &Fabric, ep: &Endpoint) -> Vec<Event> {
        f.drain();
        std::iter::from_fn(|| ep.poll()).collect()
    }

    #[test]
    fn a_miss_is_stale_on_an_old_epoch_and_malformed_on_the_current_one() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 11));
        let ep = f.endpoint(0);
        let mut t = Table::new(&ep, MALFORMED);
        let now = ep.fabric_epoch();
        t.on_put_done(&ep, 0xBAD, now);
        assert_eq!(counted(&ep, MALFORMED), 1);
        assert_eq!(counted(&ep, Counter::FabricEpochStaleDropped), 0);
        f.respawn(1);
        t.on_put_arrived(&ep, 0xBAD, now);
        assert_eq!(counted(&ep, MALFORMED), 1);
        assert_eq!(counted(&ep, Counter::FabricEpochStaleDropped), 1);
        // A hit completes its request and is counted nowhere.
        let req = send_req(b"x");
        let id = t.park(&req);
        t.on_put_done(&ep, id, ep.fabric_epoch());
        assert!(req.is_done() && !req.is_error());
        assert_eq!(counted(&ep, MALFORMED), 1);
        t.on_put_done(&ep, id, ep.fabric_epoch());
        assert_eq!(counted(&ep, MALFORMED), 2, "completed once");
    }

    #[test]
    fn an_rtr_for_an_answered_send_finds_no_payload() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 12));
        let ep = f.endpoint(0);
        let mut t = Table::new(&ep, MALFORMED);
        let req = send_req(&[5; 40]);
        let id = t.park(&req);
        let rtr = encode_rtr(id, 9, 0x77);
        let put = t
            .on_rtr(&ep, 1, &rtr)
            .expect("the first RTR takes the payload");
        assert_eq!((put.dst, put.key, put.id, put.imm), (1, MrKey(9), id, 0x77));
        assert_eq!(put.payload, vec![5; 40]);
        assert_eq!(counted(&ep, MALFORMED), 0);
        assert!(t.on_rtr(&ep, 1, &rtr).is_none(), "answered");
        assert!(t.on_rtr(&ep, 1, &encode_rtr(0xBAD, 9, 0x77)).is_none());
        assert!(t.on_rtr(&ep, 1, &rtr[..23]).is_none(), "short");
        assert_eq!(counted(&ep, MALFORMED), 3);
        assert!(t.get(id).is_some(), "parked until its put completes");
        assert!(!req.is_done() && !req.is_error());
    }

    #[test]
    fn a_stale_put_arrival_fails_its_request() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 13));
        let ep = f.endpoint(1);
        let mut t = Table::new(&ep, MALFORMED);
        let mr = ep.register_mr(8);
        let req = Req::new(Held::Landing(mr), ());
        let id = t.park(&req);
        let old = ep.fabric_epoch();
        f.respawn(0);
        t.on_put_arrived(&ep, id, old);
        assert!(req.is_error() && !req.is_done());
        assert_eq!(counted(&ep, Counter::FabricEpochStaleDropped), 1);
        assert_eq!(counted(&ep, MALFORMED), 0);
        assert!(t.get(id).is_none(), "unparked");
        assert!(req.take_landed().is_none());
    }

    #[test]
    fn a_put_arrival_deregisters_its_region_and_lands_its_bytes() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 14));
        let (a, b) = (f.endpoint(0), f.endpoint(1));
        let mut ta = Table::new(&a, MALFORMED);
        let mut tb = Table::new(&b, MALFORMED);
        let mr = b.register_mr(64);
        let key = mr.key();
        let recv = Req::new(Held::Landing(mr), ());
        let recv_id = tb.park(&recv);
        let send = send_req(&[3; 64]);
        let send_id = ta.park(&send);
        let put = ta
            .on_rtr(&a, 1, &encode_rtr(send_id, key.0, recv_id))
            .unwrap();
        let mut puts = PendingPuts::default();
        puts.push(put);
        assert_eq!(puts.retry(&a, &mut ta), Ok(1));
        assert!(puts.is_empty());
        for ev in events(&f, &b) {
            if let Event::PutArrived { imm, epoch, .. } = ev {
                tb.on_put_arrived(&b, imm, epoch);
            }
        }
        assert_eq!(recv.take_landed(), Some(vec![3; 64]));
        assert!(recv.take_landed().is_none(), "taken once");
        assert!(tb.get(recv_id).is_none());
        assert!(!b.shared.mrs.lock().contains_key(&key.0), "deregistered");
        for ev in events(&f, &a) {
            if let Event::PutDone { ctx, epoch } = ev {
                ta.on_put_done(&a, ctx, epoch);
            }
        }
        assert!(send.is_done());
        assert_eq!(counted(&a, MALFORMED) + counted(&b, MALFORMED), 0);
    }

    #[test]
    fn fail_all_fails_every_parked_request_and_empties_the_table() {
        let f = Fabric::new_manual(FabricConfig::deterministic(1, 15));
        let ep = f.endpoint(0);
        let mut t = Table::new(&ep, MALFORMED);
        let reqs = [send_req(b"a"), send_req(b"b"), Req::new(Held::Empty, ())];
        let ids: Vec<u64> = reqs.iter().map(|r| t.park(r)).collect();
        t.fail_all();
        assert!(reqs.iter().all(|r| r.is_error() && !r.is_done()));
        assert!(ids.iter().all(|&id| t.get(id).is_none()));
        // Its ids name nothing now: a late completion is a counted miss.
        t.on_put_done(&ep, ids[0], ep.fabric_epoch());
        assert_eq!(counted(&ep, MALFORMED), 1);
    }

    #[test]
    fn the_rtr_codec_round_trips_and_rejects_every_short_input() {
        let rtr = encode_rtr(1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(decode_rtr(&rtr), Some((1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D)));
        let mut long = rtr.to_vec();
        long.push(9);
        assert_eq!(
            decode_rtr(&long),
            decode_rtr(&rtr),
            "trailing bytes ignored"
        );
        for cut in 0..24 {
            assert_eq!(decode_rtr(&rtr[..cut]), None, "{cut} bytes");
        }
    }

    #[test]
    fn ids_name_one_value_until_it_is_taken() {
        let f = Fabric::new_manual(FabricConfig::deterministic(1, 7));
        let ep = f.endpoint(0);
        let mut t = Table::new(&ep, MALFORMED);
        let (ra, rb) = (send_req(b"a"), send_req(b"b"));
        let (a, b) = (t.park(&ra), t.park(&rb));
        assert!(a > 1 && b > 1 && a != b, "ids {a}, {b}");
        assert!(Arc::ptr_eq(t.get(a).unwrap(), &ra));
        t.finish(a, true);
        assert!(ra.is_done() && t.get(a).is_none(), "taken once");
        t.finish(a, false);
        assert!(
            ra.is_done() && !ra.is_error(),
            "a second finish names nothing"
        );
        assert!(t.get(0).is_none());
        t.fail_all();
        assert!(rb.is_error() && t.get(b).is_none(), "drained");
    }

    #[test]
    fn no_id_repeats_on_an_endpoint_across_tables_and_respawns() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 7));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let mut t = Table::new(&f.endpoint(1), MALFORMED);
            for _ in 0..4 {
                let id = t.park(&send_req(b""));
                assert!(id > 1, "id {id} is a reserved context");
                assert!(seen.insert(id), "id {id} repeated");
            }
            f.respawn(1);
        }
    }
}
