//! Vertex programs: the four benchmark applications of the paper
//! (bfs, cc, sssp, pagerank) as push-style operators.
//!
//! The engine model: a vertex *fires* when its accumulator changed; firing
//! produces an *emission* that is pushed along every out-edge (at the master
//! and — via broadcast — at every mirror holding out-edges), and incoming
//! contributions fold into the accumulator with [`App::reduce`].

use crate::label::Label;
use lci_graph::Vid;

/// A push-style vertex program.
pub trait App: Send + Sync + 'static {
    /// The synchronized accumulator field.
    type Acc: Label;

    /// Name for reports.
    fn name(&self) -> &'static str;

    /// Reduction identity (`∞` for min-apps, `0` for add-apps).
    fn identity(&self) -> Self::Acc;

    /// Fold an incoming contribution into the accumulator.
    fn reduce(&self, a: Self::Acc, b: Self::Acc) -> Self::Acc;

    /// Initial accumulator of global vertex `gid`.
    fn init(&self, gid: Vid) -> Self::Acc;

    /// Is `gid` active in round 0?
    fn active_initially(&self, gid: Vid) -> bool;

    /// Does firing *consume* the accumulator (reset it to the identity)?
    /// True for residual-style programs like PageRank-delta.
    fn consuming(&self) -> bool {
        false
    }

    /// The value a firing vertex emits, given its accumulator and *global*
    /// out-degree. `None` suppresses the firing (e.g. residual below
    /// tolerance).
    ///
    /// Contract: `None` stops a value from *firing*, not from *moving*. A
    /// changed mirror's accumulator is reduced into its master whether or
    /// not it would fire there, and the half-round that ends a run (the
    /// termination probe, see `engine::host_main`) ships whatever such
    /// residue is pending — so the reported output must not depend on which
    /// proxy a non-viable value rests on. The apps here comply by
    /// construction: for the min/max/or apps a changed value is always
    /// viable, and PageRank reports `output_consumed`, which only viable
    /// firings add to.
    fn emit(&self, v: Self::Acc, out_degree: u32) -> Option<Self::Acc>;

    /// Contribution delivered along one out-edge with weight `w`.
    fn push(&self, emit: Self::Acc, w: u32) -> Self::Acc;

    /// Hard cap on rounds (`pagerank` runs "up to 100 iterations").
    fn max_rounds(&self) -> Option<usize> {
        None
    }

    /// If true, the reported per-vertex output is the reduce-fold of all
    /// *consumed* values rather than the accumulator (PageRank's rank is the
    /// sum of consumed residuals).
    fn output_consumed(&self) -> bool {
        false
    }
}

/// Breadth-first search: level of each vertex from a source.
pub struct Bfs {
    /// Source vertex.
    pub source: Vid,
}

impl App for Bfs {
    type Acc = u32;
    fn name(&self) -> &'static str {
        "bfs"
    }
    fn identity(&self) -> u32 {
        u32::MAX
    }
    fn reduce(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn init(&self, gid: Vid) -> u32 {
        if gid == self.source {
            0
        } else {
            u32::MAX
        }
    }
    fn active_initially(&self, gid: Vid) -> bool {
        gid == self.source
    }
    fn emit(&self, v: u32, _d: u32) -> Option<u32> {
        (v != u32::MAX).then_some(v)
    }
    fn push(&self, emit: u32, _w: u32) -> u32 {
        emit.saturating_add(1)
    }
}

/// Single-source shortest paths (data-driven Bellman-Ford).
pub struct Sssp {
    /// Source vertex.
    pub source: Vid,
}

impl App for Sssp {
    type Acc = u32;
    fn name(&self) -> &'static str {
        "sssp"
    }
    fn identity(&self) -> u32 {
        u32::MAX
    }
    fn reduce(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn init(&self, gid: Vid) -> u32 {
        if gid == self.source {
            0
        } else {
            u32::MAX
        }
    }
    fn active_initially(&self, gid: Vid) -> bool {
        gid == self.source
    }
    fn emit(&self, v: u32, _d: u32) -> Option<u32> {
        (v != u32::MAX).then_some(v)
    }
    fn push(&self, emit: u32, w: u32) -> u32 {
        emit.saturating_add(w.max(1))
    }
}

/// Connected components by label propagation (minimum reachable id along
/// directed edges; on symmetric graphs this is the usual CC).
pub struct Cc;

impl App for Cc {
    type Acc = u32;
    fn name(&self) -> &'static str {
        "cc"
    }
    fn identity(&self) -> u32 {
        u32::MAX
    }
    fn reduce(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn init(&self, gid: Vid) -> u32 {
        gid
    }
    fn active_initially(&self, _gid: Vid) -> bool {
        true
    }
    fn emit(&self, v: u32, _d: u32) -> Option<u32> {
        Some(v)
    }
    fn push(&self, emit: u32, _w: u32) -> u32 {
        emit
    }
}

/// Residual (push-style, data-driven) PageRank.
///
/// Each vertex's rank is the reduce-fold (sum) of the residuals it consumes;
/// firing forwards `alpha * residual / out_degree` to each neighbor.
/// Residuals below `tolerance` neither fire nor keep the computation alive,
/// matching the delta-PageRank formulations Gemini and Abelian run.
pub struct PageRank {
    /// Damping factor (paper-typical 0.85).
    pub alpha: f32,
    /// Firing tolerance.
    pub tolerance: f32,
    /// Iteration cap ("run up to 100 iterations").
    pub max_iters: usize,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank {
            alpha: 0.85,
            tolerance: 1e-4,
            max_iters: 100,
        }
    }
}

impl App for PageRank {
    type Acc = f32;
    fn name(&self) -> &'static str {
        "pagerank"
    }
    fn identity(&self) -> f32 {
        0.0
    }
    fn reduce(&self, a: f32, b: f32) -> f32 {
        a + b
    }
    fn init(&self, _gid: Vid) -> f32 {
        1.0 - self.alpha
    }
    fn active_initially(&self, _gid: Vid) -> bool {
        true
    }
    fn consuming(&self) -> bool {
        true
    }
    fn emit(&self, v: f32, d: u32) -> Option<f32> {
        (v > self.tolerance && d > 0).then(|| self.alpha * v / d as f32)
    }
    fn push(&self, emit: f32, _w: u32) -> f32 {
        emit
    }
    fn max_rounds(&self) -> Option<usize> {
        Some(self.max_iters)
    }
    fn output_consumed(&self) -> bool {
        true
    }
}

/// Widest path (maximin / bottleneck shortest path): the best achievable
/// minimum edge weight along any path from the source.
///
/// Exercises a **max**-based reduction (bfs/cc/sssp are min, pagerank is
/// add), covering the remaining monotone reduce class of the BSP engine.
pub struct WidestPath {
    /// Source vertex.
    pub source: Vid,
}

impl App for WidestPath {
    type Acc = u32;
    fn name(&self) -> &'static str {
        "widest"
    }
    fn identity(&self) -> u32 {
        0
    }
    fn reduce(&self, a: u32, b: u32) -> u32 {
        a.max(b)
    }
    fn init(&self, gid: Vid) -> u32 {
        if gid == self.source {
            u32::MAX
        } else {
            0
        }
    }
    fn active_initially(&self, gid: Vid) -> bool {
        gid == self.source
    }
    fn emit(&self, v: u32, _d: u32) -> Option<u32> {
        (v != 0).then_some(v)
    }
    fn push(&self, emit: u32, w: u32) -> u32 {
        emit.min(w.max(1))
    }
}

/// Multi-source reachability (MS-BFS style): bit `i` of each vertex's label
/// is set iff source `i` reaches it. Exercises an **or**-based reduction and
/// the wide-label (u64) wire path, and is the building block of sketch-based
/// diameter/centrality estimators.
pub struct MultiSourceReach {
    /// Up to 64 source vertices (bit index = position in this list).
    pub sources: Vec<Vid>,
}

impl App for MultiSourceReach {
    type Acc = u64;
    fn name(&self) -> &'static str {
        "msreach"
    }
    fn identity(&self) -> u64 {
        0
    }
    fn reduce(&self, a: u64, b: u64) -> u64 {
        a | b
    }
    fn init(&self, gid: Vid) -> u64 {
        self.sources
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == gid)
            .fold(0u64, |acc, (i, _)| acc | (1 << i))
    }
    fn active_initially(&self, gid: Vid) -> bool {
        self.sources.contains(&gid)
    }
    fn emit(&self, v: u64, _d: u32) -> Option<u64> {
        (v != 0).then_some(v)
    }
    fn push(&self, emit: u64, _w: u32) -> u64 {
        emit
    }
}

/// Reference (single-machine, sequential) implementations used to validate
/// distributed results in tests and examples.
pub mod reference {
    use lci_graph::{CsrGraph, Vid};

    /// Sequential BFS levels.
    pub fn bfs(g: &CsrGraph, source: Vid) -> Vec<u32> {
        let mut level = vec![u32::MAX; g.num_vertices()];
        let mut frontier = std::collections::VecDeque::new();
        level[source as usize] = 0;
        frontier.push_back(source);
        while let Some(u) = frontier.pop_front() {
            let next = level[u as usize] + 1;
            for &v in g.neighbors(u) {
                if level[v as usize] > next {
                    level[v as usize] = next;
                    frontier.push_back(v);
                }
            }
        }
        level
    }

    /// Sequential Dijkstra-free SSSP (Bellman-Ford queue).
    pub fn sssp(g: &CsrGraph, source: Vid) -> Vec<u32> {
        let mut dist = vec![u32::MAX; g.num_vertices()];
        let mut queue = std::collections::VecDeque::new();
        dist[source as usize] = 0;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for (v, w) in g.neighbors_weighted(u) {
                let nd = du.saturating_add(w.max(1));
                if dist[v as usize] > nd {
                    dist[v as usize] = nd;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Sequential label-propagation CC (minimum reachable id, directed).
    pub fn cc(g: &CsrGraph) -> Vec<u32> {
        let n = g.num_vertices();
        let mut comp: Vec<u32> = (0..n as u32).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for u in 0..n as Vid {
                let cu = comp[u as usize];
                for &v in g.neighbors(u) {
                    if comp[v as usize] > cu {
                        comp[v as usize] = cu;
                        changed = true;
                    }
                }
            }
        }
        comp
    }

    /// Sequential multi-source reachability with the same semantics as
    /// [`super::MultiSourceReach`].
    pub fn multi_source_reach(g: &CsrGraph, sources: &[Vid]) -> Vec<u64> {
        assert!(sources.len() <= 64);
        let mut mask = vec![0u64; g.num_vertices()];
        let mut queue = std::collections::VecDeque::new();
        for (i, &s) in sources.iter().enumerate() {
            mask[s as usize] |= 1 << i;
            queue.push_back(s);
        }
        while let Some(u) = queue.pop_front() {
            let m = mask[u as usize];
            for &v in g.neighbors(u) {
                let merged = mask[v as usize] | m;
                if merged != mask[v as usize] {
                    mask[v as usize] = merged;
                    queue.push_back(v);
                }
            }
        }
        mask
    }

    /// Sequential widest path (maximin) with the same semantics as
    /// [`super::WidestPath`].
    pub fn widest_path(g: &CsrGraph, source: Vid) -> Vec<u32> {
        let mut best = vec![0u32; g.num_vertices()];
        best[source as usize] = u32::MAX;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let bu = best[u as usize];
            for (v, w) in g.neighbors_weighted(u) {
                let cand = bu.min(w.max(1));
                if cand > best[v as usize] {
                    best[v as usize] = cand;
                    queue.push_back(v);
                }
            }
        }
        best
    }

    /// Sequential residual PageRank with the same semantics as
    /// [`super::PageRank`].
    pub fn pagerank(g: &CsrGraph, alpha: f32, tolerance: f32, max_iters: usize) -> Vec<f32> {
        let n = g.num_vertices();
        let mut rank = vec![0.0f32; n];
        let mut residual = vec![1.0 - alpha; n];
        for _ in 0..max_iters {
            let mut next = vec![0.0f32; n];
            let mut any = false;
            for u in 0..n as Vid {
                let r = residual[u as usize];
                let d = g.out_degree(u) as u32;
                if r > tolerance && d > 0 {
                    any = true;
                    rank[u as usize] += r;
                    residual[u as usize] = 0.0;
                    let share = alpha * r / d as f32;
                    for &v in g.neighbors(u) {
                        next[v as usize] += share;
                    }
                }
            }
            for (res, nx) in residual.iter_mut().zip(&next) {
                *res += nx;
            }
            if !any {
                break;
            }
        }
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lci_graph::gen;

    #[test]
    fn bfs_reference_on_path() {
        let g = gen::path(5);
        assert_eq!(reference::bfs(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(reference::bfs(&g, 2), vec![u32::MAX, u32::MAX, 0, 1, 2]);
    }

    #[test]
    fn sssp_reference_weighted() {
        let g = lci_graph::CsrGraph::from_edges_weighted(
            4,
            &[(0, 1, 5), (0, 2, 1), (2, 1, 1), (1, 3, 1)],
        );
        assert_eq!(reference::sssp(&g, 0), vec![0, 2, 1, 3]);
    }

    #[test]
    fn cc_reference_on_star() {
        let g = gen::star(4);
        assert_eq!(reference::cc(&g), vec![0, 0, 0, 0]);
    }

    #[test]
    fn pagerank_reference_conserves_mass_roughly() {
        let g = gen::complete(8);
        let pr = reference::pagerank(&g, 0.85, 1e-6, 200);
        let sum: f32 = pr.iter().sum();
        // Total rank approaches n (standard normalization of this variant).
        assert!((sum - 8.0).abs() < 0.1, "sum {sum}");
        // Symmetric graph: all ranks equal.
        for r in &pr {
            assert!((r - pr[0]).abs() < 1e-3);
        }
    }

    #[test]
    fn multi_source_reach_reference() {
        let g = gen::path(5);
        let m = reference::multi_source_reach(&g, &[0, 3]);
        assert_eq!(m[0], 0b01);
        assert_eq!(m[2], 0b01);
        assert_eq!(m[3], 0b11);
        assert_eq!(m[4], 0b11);
    }

    #[test]
    fn multi_source_reach_app_semantics() {
        let a = MultiSourceReach { sources: vec![3, 7] };
        assert_eq!(a.init(3), 0b01);
        assert_eq!(a.init(7), 0b10);
        assert_eq!(a.init(1), 0);
        assert!(a.active_initially(7) && !a.active_initially(0));
        assert_eq!(a.reduce(0b01, 0b10), 0b11);
        assert_eq!(a.emit(0, 1), None);
    }

    #[test]
    fn widest_path_reference() {
        // 0 -(5)-> 1 -(3)-> 3 ; 0 -(2)-> 2 -(9)-> 3 : best bottleneck to 3 is 3.
        let g = lci_graph::CsrGraph::from_edges_weighted(
            4,
            &[(0, 1, 5), (1, 3, 3), (0, 2, 2), (2, 3, 9)],
        );
        let w = reference::widest_path(&g, 0);
        assert_eq!(w[0], u32::MAX);
        assert_eq!(w[1], 5);
        assert_eq!(w[2], 2);
        assert_eq!(w[3], 3);
    }

    #[test]
    fn widest_path_app_semantics() {
        let a = WidestPath { source: 0 };
        assert_eq!(a.identity(), 0);
        assert_eq!(a.reduce(3, 7), 7);
        assert_eq!(a.push(5, 3), 3);
        assert_eq!(a.push(2, 9), 2);
        assert_eq!(a.emit(0, 4), None, "unreached vertices never emit");
    }

    #[test]
    fn app_trait_basics() {
        let b = Bfs { source: 3 };
        assert_eq!(b.init(3), 0);
        assert_eq!(b.init(5), u32::MAX);
        assert!(b.active_initially(3) && !b.active_initially(2));
        assert_eq!(b.push(4, 99), 5);
        assert_eq!(b.emit(u32::MAX, 1), None);

        let pr = PageRank::default();
        assert!(pr.consuming());
        assert!(pr.output_consumed());
        assert_eq!(pr.emit(0.5, 0), None, "dangling vertex emits nothing");
        assert_eq!(pr.emit(1e-6, 5), None, "below tolerance");
        let e = pr.emit(1.0, 4).unwrap();
        assert!((e - 0.85 / 4.0).abs() < 1e-6);
    }
}
