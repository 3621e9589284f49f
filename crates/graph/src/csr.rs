//! Compressed-sparse-row graph storage.

use crate::Vid;

/// A directed graph in CSR form, with optional edge weights.
///
/// Vertices are `0..n`; the out-edges of `u` are
/// `edges[offsets[u] .. offsets[u+1]]`.
///
/// ```
/// use lci_graph::CsrGraph;
/// let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.out_degree(0), 2);
/// assert_eq!(g.neighbors(2), &[1]);
/// assert_eq!(g.transpose().neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    edges: Vec<Vid>,
    weights: Option<Vec<u32>>,
}

impl CsrGraph {
    /// Build from an edge list. Self-loops are kept; duplicate edges are
    /// kept (multigraph semantics, as RMAT generators naturally produce).
    pub fn from_edges(n: usize, edge_list: &[(Vid, Vid)]) -> CsrGraph {
        Self::from_weighted_edges(n, edge_list.iter().map(|&(u, v)| (u, v, None)))
    }

    /// Build from a weighted edge list.
    pub fn from_edges_weighted(n: usize, edge_list: &[(Vid, Vid, u32)]) -> CsrGraph {
        Self::from_weighted_edges(n, edge_list.iter().map(|&(u, v, w)| (u, v, Some(w))))
    }

    fn from_weighted_edges(
        n: usize,
        it: impl Iterator<Item = (Vid, Vid, Option<u32>)> + Clone,
    ) -> CsrGraph {
        let mut degree = vec![0u64; n];
        let mut any_weight = false;
        let mut m = 0usize;
        for (u, v, w) in it.clone() {
            assert!((u as usize) < n && (v as usize) < n, "vertex out of range");
            degree[u as usize] += 1;
            any_weight |= w.is_some();
            m += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![0 as Vid; m];
        let mut weights = if any_weight { vec![0u32; m] } else { Vec::new() };
        for (u, v, w) in it {
            let c = cursor[u as usize] as usize;
            edges[c] = v;
            if any_weight {
                weights[c] = w.unwrap_or(1);
            }
            cursor[u as usize] += 1;
        }
        CsrGraph {
            offsets,
            edges,
            weights: if any_weight { Some(weights) } else { None },
        }
    }

    /// Assemble a graph from CSR arrays already built: `offsets` has
    /// `n + 1` ascending entries ending at `edges.len()`, and `weights`, if
    /// any, is as long as `edges`.
    pub(crate) fn from_parts(offsets: Vec<u64>, edges: Vec<Vid>, weights: Option<Vec<u32>>) -> CsrGraph {
        debug_assert_eq!(offsets.last().copied(), Some(edges.len() as u64));
        debug_assert!(weights.as_ref().is_none_or(|w| w.len() == edges.len()));
        CsrGraph {
            offsets,
            edges,
            weights,
        }
    }

    /// The weights of `u`'s out-edges, in [`Self::neighbors`] order, if the
    /// graph is weighted.
    pub(crate) fn weights_of(&self, u: Vid) -> Option<&[u32]> {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        self.weights.as_deref().map(|w| &w[lo..hi])
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: Vid) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Out-neighbors of `u`.
    pub fn neighbors(&self, u: Vid) -> &[Vid] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Out-neighbors of `u` with weights (1 if unweighted).
    pub fn neighbors_weighted(&self, u: Vid) -> impl Iterator<Item = (Vid, u32)> + '_ {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        let ws = self.weights.as_deref();
        self.edges[lo..hi]
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, ws.map_or(1, |w| w[lo + i])))
    }

    /// Iterate all edges `(u, v, w)`.
    pub fn edges(&self) -> impl Iterator<Item = (Vid, Vid, u32)> + '_ {
        (0..self.num_vertices() as Vid)
            .flat_map(move |u| self.neighbors_weighted(u).map(move |(v, w)| (u, v, w)))
    }

    /// The transpose graph (in-edges become out-edges), preserving weights.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.num_vertices();
        let rev: Vec<(Vid, Vid, u32)> = self.edges().map(|(u, v, w)| (v, u, w)).collect();
        if self.is_weighted() {
            CsrGraph::from_edges_weighted(n, &rev)
        } else {
            let plain: Vec<(Vid, Vid)> = rev.iter().map(|&(u, v, _)| (u, v)).collect();
            CsrGraph::from_edges(n, &plain)
        }
    }

    /// In-degrees of all vertices (one pass).
    pub fn in_degrees(&self) -> Vec<u64> {
        let mut d = vec![0u64; self.num_vertices()];
        for &v in &self.edges {
            d[v as usize] += 1;
        }
        d
    }

    /// Attach unit weights (useful to make a graph sssp-ready).
    pub fn with_uniform_weights(mut self, w: u32) -> CsrGraph {
        self.weights = Some(vec![w; self.edges.len()]);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn basic_topology() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[Vid]);
    }

    #[test]
    fn transpose_reverses() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(0), &[] as &[Vid]);
        assert_eq!(t.transpose().num_edges(), g.num_edges());
    }

    #[test]
    fn weights_roundtrip() {
        let g = CsrGraph::from_edges_weighted(3, &[(0, 1, 5), (1, 2, 7)]);
        assert!(g.is_weighted());
        let w: Vec<_> = g.neighbors_weighted(0).collect();
        assert_eq!(w, vec![(1, 5)]);
        let t = g.transpose();
        let w: Vec<_> = t.neighbors_weighted(1).collect();
        assert_eq!(w, vec![(0, 5)]);
    }

    #[test]
    fn unweighted_neighbors_default_weight_one() {
        let g = diamond();
        let w: Vec<_> = g.neighbors_weighted(1).collect();
        assert_eq!(w, vec![(3, 1)]);
    }

    #[test]
    fn in_degrees_counts() {
        let g = diamond();
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn edges_iterator_complete() {
        let g = diamond();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 4);
        assert!(all.contains(&(0, 1, 1)));
        assert!(all.contains(&(2, 3, 1)));
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::from_edges(3, &[]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_degree(2), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertex_panics() {
        CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn uniform_weights() {
        let g = diamond().with_uniform_weights(3);
        assert!(g.is_weighted());
        assert_eq!(g.neighbors_weighted(0).collect::<Vec<_>>(), vec![(1, 3), (2, 3)]);
    }
}
