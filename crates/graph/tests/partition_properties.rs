//! Property-based tests of partitioning invariants across random graphs,
//! host counts, and policies.

use lci_graph::{gen, partition, CsrGraph, DistGraph, Partitioning, Policy, Vid};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    prop_oneof![
        (4u32..9, 1usize..10, any::<u64>())
            .prop_map(|(s, ef, seed)| gen::rmat(s, ef, seed)),
        (4u32..9, 1usize..10, any::<u64>())
            .prop_map(|(s, ef, seed)| gen::kron(s, ef, seed)),
        (10usize..200, 0usize..800, any::<u64>())
            .prop_map(|(n, m, seed)| gen::uniform(n, m, seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// The full structural validation (edge conservation, unique masters,
    /// plan symmetry and ordering) holds for arbitrary inputs.
    #[test]
    fn partition_invariants(
        g in arb_graph(),
        hosts in 1usize..9,
        policy_sel in 0usize..3,
    ) {
        let policy = Policy::all()[policy_sel];
        let p = partition(&g, hosts, policy);
        p.validate(&g);
    }

    /// Owner assignment is total and consistent between the owner map and
    /// the master proxies.
    #[test]
    fn owners_match_masters(g in arb_graph(), hosts in 1usize..6) {
        let p = partition(&g, hosts, Policy::VertexCutCartesian);
        for d in &p.parts {
            for l in 0..d.num_masters {
                let gid = d.l2g[l as usize];
                prop_assert_eq!(p.owner[gid as usize], d.host);
            }
            for l in d.num_masters..d.num_local() as u32 {
                let gid = d.l2g[l as usize];
                prop_assert_ne!(p.owner[gid as usize], d.host);
            }
        }
    }

    /// Edge-cut invariant: a host's local edges all originate at masters,
    /// so mirrors never have out-edges (what lets Abelian skip broadcast).
    #[test]
    fn edge_cut_mirrors_have_no_out_edges(g in arb_graph(), hosts in 1usize..6) {
        let p = partition(&g, hosts, Policy::EdgeCutBlocked);
        for d in &p.parts {
            for (u, _, _) in d.local.edges() {
                prop_assert!(d.is_master(u), "mirror with out-edge under edge-cut");
            }
        }
    }

    /// The two edge facts `partition` records are what a scan of every
    /// host's local CSR finds, a mirror told apart by the owner map: for
    /// every policy, one to eight hosts, weighted or not. An outgoing-edge
    /// cut (the blocked edge-cut) never gives a mirror an out-edge; an
    /// incoming-edge cut (a Cartesian cut with one grid row: 2, 3, 5 or 7
    /// hosts) never gives one an in-edge.
    #[test]
    fn mirror_edge_flags_match_a_scan_of_the_local_graphs(g in arb_graph()) {
        let weighted = gen::randomize_weights(&g, 9, 3);
        for g in [&g, &weighted] {
            for policy in Policy::all() {
                for hosts in 1..=8 {
                    let p = partition(g, hosts, policy);
                    let how = format!("{} on {hosts} hosts", policy.name());
                    let recorded = (p.mirror_in_edges, p.mirror_out_edges);
                    prop_assert_eq!(mirror_edges(&p), recorded, "{}", how);
                    if policy == Policy::EdgeCutBlocked {
                        prop_assert!(!p.mirror_out_edges, "{}", how);
                    }
                    if policy == Policy::VertexCutCartesian && [2, 3, 5, 7].contains(&hosts) {
                        prop_assert!(!p.mirror_in_edges, "{}", how);
                    }
                }
            }
        }
    }

    /// Degree annotations match the global graph.
    #[test]
    fn global_degrees_annotated_correctly(g in arb_graph(), hosts in 1usize..6) {
        let p = partition(&g, hosts, Policy::VertexCutHash);
        for d in &p.parts {
            for (l, &gid) in d.l2g.iter().enumerate() {
                prop_assert_eq!(
                    d.out_degree_global[l] as usize,
                    g.out_degree(gid)
                );
            }
        }
    }

    /// Transpose is an involution and preserves edge multiset sizes.
    #[test]
    fn transpose_involution(g in arb_graph()) {
        let t = g.transpose();
        prop_assert_eq!(t.num_edges(), g.num_edges());
        let tt = t.transpose();
        // Edge multisets must be equal (order within a vertex may differ).
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = tt.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}

/// `(some local edge ends at a mirror, some local edge starts at one)`,
/// scanning every host's local CSR and asking the owner map.
fn mirror_edges(p: &Partitioning) -> (bool, bool) {
    let mirror = |d: &DistGraph, l: Vid| p.owner[d.l2g[l as usize] as usize] != d.host;
    let (mut into, mut out_of) = (false, false);
    for d in &p.parts {
        for (u, v, _) in d.local.edges() {
            out_of |= mirror(d, u);
            into |= mirror(d, v);
        }
    }
    (into, out_of)
}

/// The scan is not vacuous: a hash cut and a 2 × 2 Cartesian cut of a
/// skewed graph set both flags, and one host sets neither.
#[test]
fn vertex_cuts_with_two_grid_rows_set_both_flags() {
    let g = gen::rmat(8, 8, 5);
    for policy in [Policy::VertexCutHash, Policy::VertexCutCartesian] {
        let p = partition(&g, 4, policy);
        assert_eq!((p.mirror_in_edges, p.mirror_out_edges), (true, true), "{}", policy.name());
    }
    let p = partition(&g, 1, Policy::VertexCutHash);
    assert_eq!((p.mirror_in_edges, p.mirror_out_edges), (false, false));
}

/// `validate` re-derives both flags: a partitioning that claims the wrong
/// one fails it.
#[test]
fn validate_checks_both_mirror_edge_flags() {
    let g = gen::rmat(7, 8, 9);
    let flip = |which: fn(&mut Partitioning) -> &mut bool| {
        let mut p = partition(&g, 4, Policy::VertexCutHash);
        p.validate(&g);
        *which(&mut p) ^= true;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.validate(&g))).is_err()
    };
    assert!(flip(|p| &mut p.mirror_in_edges), "a wrong mirror_in_edges passed");
    assert!(flip(|p| &mut p.mirror_out_edges), "a wrong mirror_out_edges passed");
}
