//! Synthetic graph generators.
//!
//! The paper's inputs — rmat28 and kron30 (synthetic scale-free) and
//! clueweb12 (a web crawl with a 75M max in-degree hub) — are billions of
//! edges; these generators reproduce their *shapes* at laptop scale:
//!
//! * [`rmat`] — classic R-MAT recursive quadrant sampling with the Graph500
//!   skew (a=0.57, b=0.19, c=0.19, d=0.05), matching rmat28's heavy out-hub,
//!   lighter in-hub profile.
//! * [`kron`] — Kronecker-style: symmetric quadrant probabilities, giving
//!   matched in/out hub sizes like kron30 (max Din == max Dout in Table I).
//! * [`webby`] — a preferential-attachment-to-few-hubs crawl stand-in for
//!   clueweb12: moderate out-degrees, an extreme in-degree hub.

use crate::{CsrGraph, Vid};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// R-MAT generator: `2^scale` vertices, `edge_factor * 2^scale` edges.
///
/// Quadrant probabilities are out-skewed (`b > c`) so the out-degree hub
/// dwarfs the in-degree hub, matching rmat28's profile in the paper's
/// Table I (max Dout 4M vs max Din 0.3M).
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    rmat_with(scale, edge_factor, 0.55, 0.25, 0.1, seed)
}

/// Kronecker-style generator: symmetric skew so in- and out-degree hubs
/// match (like kron30 in the paper's Table I).
pub fn kron(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    rmat_with(scale, edge_factor, 0.45, 0.25, 0.25, seed)
}

/// R-MAT with explicit quadrant probabilities `a + b + c (+ d implied) = 1`.
pub fn rmat_with(
    scale: u32,
    edge_factor: usize,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
) -> CsrGraph {
    assert!(scale <= 30, "scale too large for an in-process graph");
    assert!(a + b + c <= 1.0 + 1e-9);
    assert!(b >= 0.0 && c >= 0.0, "quadrant thresholds must ascend");
    let n = 1usize << scale;
    let m = edge_factor * n;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    // The uniform draw `r = (x >> 11) as f64 * 2^-53` of `rng.gen::<f64>()`
    // reaches a threshold `t` exactly when the integer `x >> 11` reaches
    // `ceil(t * 2^53)` (scaling by 2^53 is exact): the same stream and the
    // same quadrants, compared without a conversion.
    let reach = |t: f64| (t * (1u64 << 53) as f64).ceil() as u64;
    let (ta, tab, tabc) = (reach(a), reach(a + b), reach(a + b + c));
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            let r = rng.next_u64() >> 11;
            // The quadrant is the number of thresholds `r` has reached, its
            // two bits the next bit of `u` and of `v`. Counting instead of
            // branching: `r` is uniform, so a branch on it is a coin flip to
            // the predictor, once per bit per edge.
            let q = (r >= ta) as usize + (r >= tab) as usize + (r >= tabc) as usize;
            u = (u << 1) | (q >> 1);
            v = (v << 1) | (q & 1);
        }
        edges.push((u as Vid, v as Vid));
    }
    CsrGraph::from_edges(n, &edges)
}

/// A web-crawl-like graph: every page links to `out_links` targets, chosen
/// from a small hub set with probability `hub_bias` and uniformly otherwise.
/// Produces an extreme max in-degree (like clueweb12) with modest average
/// degree.
pub fn webby(scale: u32, out_links: usize, seed: u64) -> CsrGraph {
    let n = 1usize << scale;
    let hubs = (n / 1000).max(4);
    let hub_bias = 0.35;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n * out_links);
    for u in 0..n {
        for _ in 0..out_links {
            let v = if rng.gen::<f64>() < hub_bias {
                // Zipf-ish within the hub set: hub 0 dominates.
                let z: f64 = rng.gen::<f64>();
                ((z * z * hubs as f64) as usize).min(hubs - 1)
            } else {
                rng.gen_range(0..n)
            };
            edges.push((u as Vid, v as Vid));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Uniform (Erdős–Rényi-style) random graph: `m` edges chosen uniformly.
pub fn uniform(n: usize, m: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges: Vec<(Vid, Vid)> = (0..m)
        .map(|_| (rng.gen_range(0..n) as Vid, rng.gen_range(0..n) as Vid))
        .collect();
    CsrGraph::from_edges(n, &edges)
}

/// Directed path `0 -> 1 -> ... -> n-1` (worst-case diameter; good for BFS
/// round-count tests).
pub fn path(n: usize) -> CsrGraph {
    let edges: Vec<(Vid, Vid)> = (0..n - 1).map(|i| (i as Vid, i as Vid + 1)).collect();
    CsrGraph::from_edges(n, &edges)
}

/// Star: vertex 0 points at everyone else.
pub fn star(n: usize) -> CsrGraph {
    let edges: Vec<(Vid, Vid)> = (1..n).map(|i| (0, i as Vid)).collect();
    CsrGraph::from_edges(n, &edges)
}

/// Complete directed graph (no self-loops). Keep `n` small.
pub fn complete(n: usize) -> CsrGraph {
    let mut edges = Vec::with_capacity(n * (n - 1));
    for u in 0..n {
        for v in 0..n {
            if u != v {
                edges.push((u as Vid, v as Vid));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Attach pseudo-random weights in `1..=max_w` (deterministic per seed).
pub fn randomize_weights(g: &CsrGraph, max_w: u32, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges: Vec<(Vid, Vid, u32)> = g
        .edges()
        .map(|(u, v, _)| (u, v, rng.gen_range(1..=max_w)))
        .collect();
    CsrGraph::from_edges_weighted(g.num_vertices(), &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rmat_with` as a ladder of branches on a float `r`, one quadrant per
    /// arm: the definition the branch-free integer count must reproduce
    /// edge for edge.
    fn rmat_ladder(scale: u32, edge_factor: usize, a: f64, b: f64, c: f64, seed: u64) -> CsrGraph {
        let n = 1usize << scale;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(edge_factor * n);
        for _ in 0..edge_factor * n {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..scale {
                let r: f64 = rng.gen();
                let (du, dv) = if r < a {
                    (0, 0)
                } else if r < a + b {
                    (0, 1)
                } else if r < a + b + c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            edges.push((u as Vid, v as Vid));
        }
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn branch_free_quadrants_equal_the_ladder() {
        for scale in 4..=12 {
            for edge_factor in [1, 8, 16] {
                for seed in 1..=5 {
                    assert_eq!(
                        rmat(scale, edge_factor, seed),
                        rmat_ladder(scale, edge_factor, 0.55, 0.25, 0.1, seed),
                        "rmat({scale}, {edge_factor}, {seed})"
                    );
                    assert_eq!(
                        kron(scale, edge_factor, seed),
                        rmat_ladder(scale, edge_factor, 0.45, 0.25, 0.25, seed),
                        "kron({scale}, {edge_factor}, {seed})"
                    );
                }
            }
        }
    }

    /// The integer thresholds pick the quadrants the float ladder picks,
    /// also at a larger scale, from seeds far from the small ones above,
    /// with thresholds at both ends of [0, 1] and ones that are no multiple
    /// of 2^-53.
    #[test]
    fn integer_thresholds_equal_the_float_ladder() {
        for seed in [99, 0xDEAD_BEEF] {
            assert_eq!(rmat(14, 2, seed), rmat_ladder(14, 2, 0.55, 0.25, 0.1, seed), "rmat {seed}");
            assert_eq!(kron(14, 2, seed), rmat_ladder(14, 2, 0.45, 0.25, 0.25, seed), "kron {seed}");
        }
        for (a, b, c) in [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.1, 0.2, 0.3)] {
            assert_eq!(rmat_with(6, 4, a, b, c, 5), rmat_ladder(6, 4, a, b, c, 5), "({a}, {b}, {c})");
        }
    }

    #[test]
    fn rmat_sizes() {
        let g = rmat(8, 4, 1);
        assert_eq!(g.num_vertices(), 256);
        assert_eq!(g.num_edges(), 1024);
    }

    #[test]
    fn rmat_deterministic_per_seed() {
        let a = rmat(6, 4, 42);
        let b = rmat(6, 4, 42);
        let c = rmat(6, 4, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(10, 8, 7);
        let max_out = (0..g.num_vertices() as Vid)
            .map(|u| g.out_degree(u))
            .max()
            .unwrap();
        let avg = g.num_edges() / g.num_vertices();
        assert!(
            max_out > avg * 10,
            "power-law hub expected: max {max_out} vs avg {avg}"
        );
    }

    #[test]
    fn kron_in_out_hubs_comparable() {
        let g = kron(10, 8, 7);
        let max_out = (0..g.num_vertices() as Vid)
            .map(|u| g.out_degree(u))
            .max()
            .unwrap() as f64;
        let max_in = *g.in_degrees().iter().max().unwrap() as f64;
        let ratio = max_out.max(max_in) / max_out.min(max_in);
        assert!(ratio < 3.0, "kron hubs should be symmetric-ish: {ratio}");
    }

    #[test]
    fn webby_has_extreme_in_hub() {
        let g = webby(10, 8, 3);
        let max_in = *g.in_degrees().iter().max().unwrap();
        let max_out = (0..g.num_vertices() as Vid)
            .map(|u| g.out_degree(u))
            .max()
            .unwrap() as u64;
        assert!(
            max_in > 10 * max_out,
            "web crawl shape: in-hub {max_in} should dwarf out {max_out}"
        );
    }

    #[test]
    fn structured_graphs() {
        let p = path(5);
        assert_eq!(p.num_edges(), 4);
        assert_eq!(p.neighbors(2), &[3]);
        let s = star(4);
        assert_eq!(s.out_degree(0), 3);
        assert_eq!(s.out_degree(1), 0);
        let k = complete(4);
        assert_eq!(k.num_edges(), 12);
    }

    #[test]
    fn uniform_size() {
        let g = uniform(100, 500, 9);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 500);
    }

    #[test]
    fn randomized_weights_in_range() {
        let g = randomize_weights(&rmat(6, 4, 1), 10, 2);
        assert!(g.is_weighted());
        for (_, _, w) in g.edges() {
            assert!((1..=10).contains(&w));
        }
    }
}
