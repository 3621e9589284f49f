//! Parked requests: what a rendezvous id names while it is on the wire.

use crate::endpoint::EndpointShared;
use crate::Endpoint;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Values parked under 64-bit ids, the identities a runtime hands a peer or
/// the NIC for its requests (in an RTS or RTR, as a put's context or
/// immediate value) the way verbs software passes work-request ids.
/// Whatever comes back is looked up: an id that names nothing — forged,
/// answered twice, from a discarded incarnation — is a miss for the caller
/// to count, never a pointer to follow.
///
/// Ids come from a counter on the endpoint that is never reset, so none
/// repeats on a host, across [`crate::Fabric::respawn`] and fresh tables
/// alike, and none is 0 or 1, the contexts the runtimes reserve. The table
/// does no locking; its owner keeps it under a lock of its choosing.
pub struct Parked<T> {
    ids: Arc<EndpointShared>,
    parked: HashMap<u64, T>,
}

impl<T> Parked<T> {
    /// An empty table minting its ids from `ep`'s counter.
    pub fn new(ep: &Endpoint) -> Self {
        let ids = Arc::clone(&ep.shared);
        Parked {
            ids,
            parked: HashMap::new(),
        }
    }

    /// Park `value` under a fresh id and return the id.
    pub fn park(&mut self, value: T) -> u64 {
        let id = self.ids.next_id.fetch_add(1, Ordering::Relaxed);
        self.parked.insert(id, value);
        id
    }

    /// The value `id` names, if it is parked.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.parked.get(&id)
    }

    /// Unpark the value `id` names.
    pub fn take(&mut self, id: u64) -> Option<T> {
        self.parked.remove(&id)
    }

    /// Unpark every value.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.parked.drain().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, FabricConfig};

    #[test]
    fn ids_name_one_value_until_it_is_taken() {
        let f = Fabric::new_manual(FabricConfig::deterministic(1, 7));
        let mut t = Parked::new(&f.endpoint(0));
        let (a, b) = (t.park("a"), t.park("b"));
        assert!(a > 1 && b > 1 && a != b, "ids {a}, {b}");
        assert_eq!(t.get(a), Some(&"a"));
        assert_eq!(t.take(a), Some("a"));
        assert_eq!(t.take(a), None, "taken once");
        assert_eq!(t.get(a), None);
        assert_eq!(t.get(0), None);
        assert_eq!(t.drain().collect::<Vec<_>>(), ["b"]);
        assert_eq!(t.get(b), None, "drained");
    }

    #[test]
    fn no_id_repeats_on_an_endpoint_across_tables_and_respawns() {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 7));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let mut t = Parked::new(&f.endpoint(1));
            for _ in 0..4 {
                let id = t.park(());
                assert!(id > 1, "id {id} is a reserved context");
                assert!(seen.insert(id), "id {id} repeated");
            }
            f.respawn(1);
        }
    }
}
