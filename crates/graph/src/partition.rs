//! Distributed partitioning with master/mirror proxies.
//!
//! Following Section II of the paper: edges are assigned to hosts by a
//! policy; a host holding an edge `(u, v)` creates proxies for `u` and `v`.
//! For each global vertex one proxy — the one on the vertex's *owner* host —
//! is the **master**; the rest are **mirrors**. Synchronization then
//! composes two exchange patterns:
//!
//! * **reduce** — every mirror sends its value to the master, which combines
//!   them into the canonical value;
//! * **broadcast** — the master sends the canonical value to all mirrors.
//!
//! [`DistGraph`] pre-computes the exchange plans: `mirror_send[p]` lists this
//! host's mirror proxies mastered on peer `p`, and `master_recv[p]` lists
//! this host's master proxies mirrored on peer `p`. The two lists are
//! ordered by global id on both sides, so a reduce/broadcast payload needs
//! **no per-vertex ids** when all entries are sent — and only compact
//! positional indices when sending updated entries — which is exactly the
//! metadata minimization Abelian performs.
//!
//! Which of the two patterns can carry data at all is a fact of the
//! partitioning, recorded once by [`partition`]: a mirror's value moves only
//! along a local edge ending at it, so the reduce is empty unless some host
//! has such an edge ([`Partitioning::mirror_in_edges`]); an emission
//! broadcast to a mirror goes on only along the mirror's local out-edges, so
//! the broadcast is empty unless some mirror has one
//! ([`Partitioning::mirror_out_edges`]). An outgoing-edge cut (the blocked
//! edge-cut) never needs the broadcast; an incoming-edge cut (a Cartesian
//! cut with one grid row) never needs the reduce.

use crate::{CsrGraph, Vid};

/// Edge/vertex assignment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Gemini's blocked edge-cut: contiguous vertex ranges balanced by
    /// out-degree; an edge lives with its source's owner. Mirrors exist only
    /// for edge *destinations*.
    EdgeCutBlocked,
    /// Abelian's Cartesian (checkerboard) vertex-cut, paper ref \[27\]: hosts
    /// form a `pr × pc` grid; edge `(u,v)` goes to the host at
    /// (row-group of owner(u), column-group of owner(v)).
    VertexCutCartesian,
    /// Hash vertex-cut: edge `(u,v)` goes to a hash of the pair (maximum
    /// scatter; stress-test policy).
    VertexCutHash,
}

impl Policy {
    /// All policies (for sweeps).
    pub fn all() -> [Policy; 3] {
        [
            Policy::EdgeCutBlocked,
            Policy::VertexCutCartesian,
            Policy::VertexCutHash,
        ]
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::EdgeCutBlocked => "edge-cut",
            Policy::VertexCutCartesian => "cartesian-vc",
            Policy::VertexCutHash => "hash-vc",
        }
    }
}

/// One host's share of a partitioned graph.
#[derive(Debug, Clone)]
pub struct DistGraph {
    /// This host's rank.
    pub host: u16,
    /// Total number of hosts.
    pub num_hosts: usize,
    /// Number of vertices in the global graph.
    pub global_n: usize,
    /// Local CSR over local ids. Locals `0..num_masters` are masters (sorted
    /// by global id), the rest are mirrors (sorted by global id).
    pub local: CsrGraph,
    /// Local id → global id.
    pub l2g: Vec<Vid>,
    /// Number of master proxies on this host.
    pub num_masters: u32,
    /// For each peer: local ids of our mirrors whose master is that peer
    /// (reduce send-list / broadcast receive-list), ordered by global id.
    pub mirror_send: Vec<Vec<Vid>>,
    /// For each peer: local ids of our masters mirrored on that peer
    /// (reduce receive-list / broadcast send-list), ordered by global id.
    pub master_recv: Vec<Vec<Vid>>,
    /// Global out-degree of each local proxy's vertex (topology-driven
    /// operators like PageRank divide by the *global* degree, which a
    /// vertex-cut host cannot derive from its local edges alone).
    pub out_degree_global: Vec<u32>,
    /// The plans inverted: mirror `num_masters + i` sits at position
    /// `mirror_slot[i].1` of `mirror_send[mirror_slot[i].0]` and in no other
    /// plan. Mirrors and plans are both ordered by global id, so walking
    /// mirrors in ascending local id visits each plan in ascending position.
    pub mirror_slot: Vec<(u16, u32)>,
    /// The plans inverted on the master side, as a CSR over master lids:
    /// master `l`'s entries are `master_slots[master_slot_start[l]..
    /// master_slot_start[l + 1]]`, see [`Self::master_slots`].
    master_slots: Vec<(u16, u32)>,
    master_slot_start: Vec<u32>,
    /// Global id → local id, `Vid::MAX` where the vertex has no proxy here.
    g2l: Vec<Vid>,
}

impl DistGraph {
    /// Map a global id to this host's local id, if the vertex has a proxy
    /// here.
    pub fn g2l(&self, gid: Vid) -> Option<Vid> {
        self.g2l.get(gid as usize).copied().filter(|&l| l != Vid::MAX)
    }

    /// Is this local id a master proxy?
    pub fn is_master(&self, lid: Vid) -> bool {
        lid < self.num_masters
    }

    /// Number of local proxies (masters + mirrors).
    pub fn num_local(&self) -> usize {
        self.l2g.len()
    }

    /// Number of mirror proxies.
    pub fn num_mirrors(&self) -> usize {
        self.num_local() - self.num_masters as usize
    }

    /// Where master `lid` sits in the plans: it is at position `pos` of
    /// `master_recv[peer]` for each `(peer, pos)` here, ascending by peer,
    /// and in no other plan. Masters and plans are both ordered by global
    /// id, so walking masters in ascending local id visits each plan in
    /// ascending position.
    pub fn master_slots(&self, lid: usize) -> &[(u16, u32)] {
        let (from, to) = (self.master_slot_start[lid], self.master_slot_start[lid + 1]);
        &self.master_slots[from as usize..to as usize]
    }
}

/// A complete partitioning: every host's [`DistGraph`] plus the global
/// owner map.
pub struct Partitioning {
    /// The policy used.
    pub policy: Policy,
    /// Per-host partitions, indexed by rank.
    pub parts: Vec<DistGraph>,
    /// Global vertex → owner host.
    pub owner: Vec<u16>,
    /// Whether some host has a local edge ending at a mirror: only such an
    /// edge moves a mirror's value, so without one a reduce carries nothing.
    pub mirror_in_edges: bool,
    /// Whether some mirror has a local out-edge: only such an edge takes a
    /// broadcast emission anywhere, so without one a broadcast carries
    /// nothing.
    pub mirror_out_edges: bool,
}

/// Split `0..n` into `p` contiguous ranges with roughly equal `load` sums.
/// Returns the range start for each part (length `p + 1`).
fn balanced_ranges(load: &[u64], p: usize) -> Vec<usize> {
    let total: u64 = load.iter().sum();
    let per = total / p as u64 + 1;
    let mut bounds = Vec::with_capacity(p + 1);
    bounds.push(0);
    let mut acc = 0u64;
    for (i, &l) in load.iter().enumerate() {
        acc += l;
        if acc >= per && bounds.len() < p {
            bounds.push(i + 1);
            acc = 0;
        }
    }
    while bounds.len() < p {
        bounds.push(load.len());
    }
    bounds.push(load.len());
    bounds
}

fn owner_from_bounds(bounds: &[usize], v: usize) -> u16 {
    // bounds is sorted; find the range containing v.
    match bounds.binary_search(&v) {
        Ok(i) => {
            // v is a boundary: it belongs to the range starting at bounds[i],
            // unless that's the terminal bound.
            (i.min(bounds.len() - 2)) as u16
        }
        Err(i) => (i - 1) as u16,
    }
}

/// Largest divisor of `p` that is ≤ √p (grid rows for the Cartesian cut).
fn grid_rows(p: usize) -> usize {
    let mut best = 1;
    let mut d = 1;
    while d * d <= p {
        if p.is_multiple_of(d) {
            best = d;
        }
        d += 1;
    }
    best
}

/// Partition `g` over `num_hosts` hosts with the given policy.
///
/// ```
/// use lci_graph::{gen, partition, Policy};
/// let g = gen::rmat(6, 4, 1);
/// let p = partition(&g, 3, Policy::VertexCutCartesian);
/// p.validate(&g); // edge conservation, unique masters, plan symmetry
/// let edges: usize = p.parts.iter().map(|d| d.local.num_edges()).sum();
/// assert_eq!(edges, g.num_edges());
/// ```
pub fn partition(g: &CsrGraph, num_hosts: usize, policy: Policy) -> Partitioning {
    assert!(num_hosts >= 1 && num_hosts <= u16::MAX as usize);
    let n = g.num_vertices();

    // ---- 1. vertex ownership -------------------------------------------
    let owner: Vec<u16> = match policy {
        Policy::EdgeCutBlocked => {
            let degrees: Vec<u64> = (0..n as Vid).map(|u| g.out_degree(u) as u64 + 1).collect();
            let bounds = balanced_ranges(&degrees, num_hosts);
            (0..n).map(|v| owner_from_bounds(&bounds, v)).collect()
        }
        Policy::VertexCutCartesian | Policy::VertexCutHash => {
            // Blocked by vertex count.
            let loads = vec![1u64; n];
            let bounds = balanced_ranges(&loads, num_hosts);
            (0..n).map(|v| owner_from_bounds(&bounds, v)).collect()
        }
    };

    // ---- 2. edge assignment --------------------------------------------
    let pr = grid_rows(num_hosts);
    let pc = num_hosts / pr;
    let edge_host = |u: Vid, v: Vid| -> u16 {
        match policy {
            Policy::EdgeCutBlocked => owner[u as usize],
            Policy::VertexCutCartesian => {
                let i = (owner[u as usize] as usize * pr) / num_hosts;
                let j = (owner[v as usize] as usize * pc) / num_hosts;
                (i * pc + j) as u16
            }
            Policy::VertexCutHash => {
                let h = (u as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(v as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((h >> 32) % num_hosts as u64) as u16
            }
        }
    };

    let mut host_edges: Vec<Vec<(Vid, Vid, u32)>> = vec![Vec::new(); num_hosts];
    for (u, v, w) in g.edges() {
        host_edges[edge_host(u, v) as usize].push((u, v, w));
    }

    // ---- 3. per-host proxy sets and local graphs ------------------------
    // proxy_hosts[v] lists the hosts holding a proxy of v (owner first).
    let mut has_proxy: Vec<Vec<bool>> = vec![vec![false; n]; num_hosts];
    for v in 0..n {
        has_proxy[owner[v] as usize][v] = true; // owner always has a master
    }
    for (h, edges) in host_edges.iter().enumerate() {
        for &(u, v, _) in edges {
            has_proxy[h][u as usize] = true;
            has_proxy[h][v as usize] = true;
        }
    }

    let mut parts: Vec<DistGraph> = Vec::with_capacity(num_hosts);
    let (mut mirror_in_edges, mut mirror_out_edges) = (false, false);
    for h in 0..num_hosts {
        let mut masters: Vec<Vid> = Vec::new();
        let mut mirrors: Vec<Vid> = Vec::new();
        for v in 0..n {
            if has_proxy[h][v] {
                if owner[v] as usize == h {
                    masters.push(v as Vid);
                } else {
                    mirrors.push(v as Vid);
                }
            }
        }
        let num_masters = masters.len() as u32;
        let l2g: Vec<Vid> = masters.into_iter().chain(mirrors).collect();
        let mut g2l = vec![Vid::MAX; n];
        for (l, &gid) in l2g.iter().enumerate() {
            g2l[gid as usize] = l as Vid;
        }
        let local_edges: Vec<(Vid, Vid, u32)> = host_edges[h]
            .iter()
            .map(|&(u, v, w)| {
                let (lu, lv) = (g2l[u as usize], g2l[v as usize]);
                // Locals from `num_masters` up are mirrors.
                mirror_out_edges |= lu >= num_masters;
                mirror_in_edges |= lv >= num_masters;
                (lu, lv, w)
            })
            .collect();
        let local = if g.is_weighted() {
            CsrGraph::from_edges_weighted(l2g.len(), &local_edges)
        } else {
            let plain: Vec<(Vid, Vid)> =
                local_edges.iter().map(|&(u, v, _)| (u, v)).collect();
            CsrGraph::from_edges(l2g.len(), &plain)
        };
        let out_degree_global: Vec<u32> =
            l2g.iter().map(|&gid| g.out_degree(gid) as u32).collect();
        parts.push(DistGraph {
            host: h as u16,
            num_hosts,
            global_n: n,
            local,
            l2g,
            num_masters,
            mirror_send: vec![Vec::new(); num_hosts],
            master_recv: vec![Vec::new(); num_hosts],
            out_degree_global,
            mirror_slot: Vec::new(),
            master_slots: Vec::new(),
            master_slot_start: vec![0; num_masters as usize + 1],
            g2l,
        });
    }

    // ---- 4. exchange plans (matched ordering by global id) --------------
    // Every vertex is visited once, as a master of its owner, in ascending
    // global id — ascending master lid — so each master's slots are
    // appended as one run and closed by its `master_slot_start`.
    for v in 0..n {
        let o = owner[v] as usize;
        let lid_o = parts[o].g2l[v];
        for h in 0..num_hosts {
            if h != o && has_proxy[h][v] {
                let lid_h = parts[h].g2l[v];
                let pos = parts[h].mirror_send[o].len() as u32;
                parts[h].mirror_slot.push((o as u16, pos));
                parts[h].mirror_send[o].push(lid_h);
                let pos = parts[o].master_recv[h].len() as u32;
                parts[o].master_slots.push((h as u16, pos));
                parts[o].master_recv[h].push(lid_o);
            }
        }
        let d = &mut parts[o];
        d.master_slot_start[lid_o as usize + 1] = d.master_slots.len() as u32;
    }

    Partitioning {
        policy,
        parts,
        owner,
        mirror_in_edges,
        mirror_out_edges,
    }
}

impl Partitioning {
    /// Check structural invariants; panics with a description on violation.
    /// Used by tests and available for callers validating custom inputs.
    pub fn validate(&self, g: &CsrGraph) {
        let p = self.parts.len();
        // The two edge facts, re-derived by scanning every local CSR: does
        // some local edge have a mirror at the `end` picked?
        let mirror_at = |end: fn((Vid, Vid, u32)) -> Vid| {
            self.parts.iter().any(|d| d.local.edges().any(|e| !d.is_master(end(e))))
        };
        assert_eq!(self.mirror_in_edges, mirror_at(|(_, v, _)| v), "mirror_in_edges");
        assert_eq!(self.mirror_out_edges, mirror_at(|(u, _, _)| u), "mirror_out_edges");
        // Edge conservation.
        let total: usize = self.parts.iter().map(|d| d.local.num_edges()).sum();
        assert_eq!(total, g.num_edges(), "edges lost or duplicated");
        // Every vertex has exactly one master.
        let mut master_count = vec![0usize; g.num_vertices()];
        for d in &self.parts {
            for l in 0..d.num_masters {
                master_count[d.l2g[l as usize] as usize] += 1;
            }
        }
        assert!(
            master_count.iter().all(|&c| c == 1),
            "every vertex needs exactly one master"
        );
        // Plan symmetry: mirror_send[a→b] pairs with master_recv[b←a], and
        // both reference the same global vertices in the same order.
        for a in 0..p {
            for b in 0..p {
                let send = &self.parts[a].mirror_send[b];
                let recv = &self.parts[b].master_recv[a];
                assert_eq!(send.len(), recv.len(), "plan length mismatch {a}->{b}");
                for (ls, lr) in send.iter().zip(recv) {
                    assert_eq!(
                        self.parts[a].l2g[*ls as usize],
                        self.parts[b].l2g[*lr as usize],
                        "plan order mismatch {a}->{b}"
                    );
                }
                // Mirrors are never masters and vice versa.
                assert!(send.iter().all(|&l| !self.parts[a].is_master(l)));
                assert!(recv.iter().all(|&l| self.parts[b].is_master(l)));
            }
        }
        // Every mirror is in exactly one plan, where `mirror_slot` says.
        for d in &self.parts {
            let planned: usize = d.mirror_send.iter().map(Vec::len).sum();
            let mirrors = d.num_mirrors();
            assert_eq!((d.mirror_slot.len(), planned), (mirrors, mirrors), "host {}", d.host);
            for (lid, &(peer, pos)) in (d.num_masters..).zip(&d.mirror_slot) {
                let at = d.mirror_send[peer as usize].get(pos as usize);
                assert_eq!(at, Some(&lid), "host {}: mirror {lid} not at its slot", d.host);
            }
        }
        // Every master plan entry is named by exactly one of its master's
        // slots: as many slots as entries, each pointing back at its master,
        // positions strictly ascending per peer in master order.
        for d in &self.parts {
            let planned: usize = d.master_recv.iter().map(Vec::len).sum();
            let nm = d.num_masters as usize;
            assert_eq!(d.master_slot_start.len(), nm + 1, "host {}", d.host);
            assert_eq!(d.master_slots.len(), planned, "host {}: master slots", d.host);
            let mut next = vec![0u32; p];
            for lid in 0..nm {
                for &(peer, pos) in d.master_slots(lid) {
                    let at = d.master_recv[peer as usize].get(pos as usize);
                    assert_eq!(at, Some(&(lid as Vid)), "host {}: master {lid}", d.host);
                    assert!(pos >= next[peer as usize], "host {}: master {lid}", d.host);
                    next[peer as usize] = pos + 1;
                }
            }
        }
    }

    /// Total number of mirror proxies (replication overhead metric).
    pub fn total_mirrors(&self) -> usize {
        self.parts.iter().map(|d| d.num_mirrors()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn balanced_ranges_cover() {
        let load = vec![1u64; 10];
        let b = balanced_ranges(&load, 3);
        assert_eq!(b.len(), 4);
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 10);
        for w in b.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn owner_from_bounds_correct() {
        let bounds = vec![0, 3, 7, 10];
        assert_eq!(owner_from_bounds(&bounds, 0), 0);
        assert_eq!(owner_from_bounds(&bounds, 2), 0);
        assert_eq!(owner_from_bounds(&bounds, 3), 1);
        assert_eq!(owner_from_bounds(&bounds, 9), 2);
    }

    #[test]
    fn grid_rows_divides() {
        for p in 1..=16 {
            let r = grid_rows(p);
            assert_eq!(p % r, 0);
            assert!(r * r <= p);
        }
        assert_eq!(grid_rows(4), 2);
        assert_eq!(grid_rows(8), 2);
        assert_eq!(grid_rows(9), 3);
    }

    #[test]
    fn all_policies_validate_on_rmat() {
        let g = gen::rmat(8, 8, 5);
        for policy in Policy::all() {
            for hosts in [1, 2, 3, 4, 7] {
                let p = partition(&g, hosts, policy);
                p.validate(&g);
            }
        }
    }

    #[test]
    fn edge_cut_keeps_out_edges_at_source_owner() {
        let g = gen::rmat(7, 8, 3);
        let p = partition(&g, 4, Policy::EdgeCutBlocked);
        for d in &p.parts {
            for (lu, _, _) in d.local.edges() {
                let gu = d.l2g[lu as usize];
                assert_eq!(
                    p.owner[gu as usize], d.host,
                    "edge-cut: sources must be masters"
                );
            }
        }
    }

    #[test]
    fn single_host_has_no_mirrors() {
        let g = gen::rmat(6, 4, 1);
        for policy in Policy::all() {
            let p = partition(&g, 1, policy);
            assert_eq!(p.total_mirrors(), 0);
            assert_eq!(p.parts[0].num_masters as usize, g.num_vertices());
            assert_eq!(p.parts[0].local.num_edges(), g.num_edges());
        }
    }

    #[test]
    fn weighted_partition_preserves_weights() {
        let g = gen::randomize_weights(&gen::rmat(6, 4, 1), 9, 2);
        let p = partition(&g, 3, Policy::VertexCutCartesian);
        let mut global_sum: u64 = g.edges().map(|(_, _, w)| w as u64).sum();
        for d in &p.parts {
            for (_, _, w) in d.local.edges() {
                global_sum -= w as u64;
            }
        }
        assert_eq!(global_sum, 0);
    }

    #[test]
    fn g2l_l2g_inverse() {
        let g = gen::rmat(7, 4, 8);
        let p = partition(&g, 4, Policy::VertexCutHash);
        for d in &p.parts {
            for (l, &gid) in d.l2g.iter().enumerate() {
                assert_eq!(d.g2l(gid), Some(l as Vid));
            }
            assert_eq!(d.g2l(u32::MAX), None);
        }
    }

    #[test]
    fn cartesian_reduces_mirrors_vs_hash_on_skewed_graph() {
        // The point of smarter vertex-cuts is bounded replication. On a
        // skewed graph the Cartesian cut should not be (much) worse than
        // the hash cut; typically far better.
        let g = gen::rmat(9, 8, 11);
        let cart = partition(&g, 8, Policy::VertexCutCartesian).total_mirrors();
        let hash = partition(&g, 8, Policy::VertexCutHash).total_mirrors();
        assert!(
            (cart as f64) < hash as f64 * 1.2,
            "cartesian {cart} should not dwarf hash {hash}"
        );
    }
}
